//! Event-driven list scheduling for parallel tasks with fixed allotments.
//!
//! This is the Graham-style multiprocessor list scheduling of Garey &
//! Graham [11 of the paper], generalized to tasks requiring `k`
//! processors: whenever processors free up, the first task in list order
//! that *fits* the available count starts immediately. It is the engine
//! behind the three "List" baselines (§4.1), behind DEMT's compaction
//! step (§3.2), which runs it with the batch ordering, and behind the
//! on-line batch framework — every placement in the workspace funnels
//! through here.
//!
//! Two policies are provided:
//!
//! * [`ListPolicy::Greedy`] — classic Graham: any fitting task may jump
//!   ahead of a non-fitting earlier task (work-conserving);
//! * [`ListPolicy::Ordered`] — each task, taken strictly in list order,
//!   starts at the earliest instant where its allotment is available on
//!   the processor-availability *frontier* (no hole-filling: once a wide
//!   task pushes the frontier, earlier idle intervals are gone — the
//!   conservative, FCFS-like discipline). Used for ablations.
//!
//! ## Engines and complexity
//!
//! The placement loop used to rescan all `m` processors (and re-sort
//! the free list) at every state change — `O(n·(n + m log m))` per
//! schedule, the dominant cost at cluster scale. The engine now runs on
//! event-ordered structures from [`crate::skyline`]; the old scan
//! survives only under `#[cfg(test)]`, as the reference the crate's
//! differential tests pin the engine against byte for byte (the same
//! pattern as `demt-lp`'s dense solver).
//!
//! | step | scan reference | skyline engine |
//! |---|---|---|
//! | "first fitting task" (Greedy) | `O(n)` rescan per event | `O(log n)` leftmost-fit tree descent |
//! | free-processor release (Greedy) | `O(m log m)` re-sort per event | `O(k)` bitset inserts |
//! | take `k` lowest free indices | `O(m)` prefix drain | `O(k + m/64)` bitset bit-walk |
//! | earliest `k`-wide start (Ordered) | `O(m log m)` sort per task | `O(log E + k)` amortized frontier claim |
//!
//! `E` is the number of availability groups (≤ placements), `k` the
//! allotment. Total: `O((n + Σkᵢ) log(n·m))` instead of
//! `O(n·(n + m log m))`. `demt listbench --procs 10000` times the engine
//! on the [`bench_grid`] shape.
//!
//! The m = 10⁴ scale is cheap enough to run in a doctest now:
//!
//! ```
//! use demt_platform::{list_schedule, ListPolicy, ListTask};
//! use demt_model::{ProcSet, TaskId};
//! // 10⁴ processors, 100 tasks of width 100: a perfect 1-unit packing.
//! let tasks: Vec<ListTask> = (0..100)
//!     .map(|i| ListTask::new(TaskId(i), 100, 1.0))
//!     .collect();
//! let s = list_schedule(10_000, &tasks, ListPolicy::Greedy);
//! assert_eq!(s.makespan(), 1.0);
//! assert_eq!(s.placements()[99].procs.len(), 100);
//! ```

use crate::skyline::Frontier;
use crate::{Placement, Schedule};
use demt_model::{ProcSet, TaskId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

/// One entry of the priority list: a task with a fixed allotment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListTask {
    /// Task id (used only to label the placement).
    pub id: TaskId,
    /// Number of processors the task must receive.
    pub alloc: usize,
    /// Its processing time on that allotment.
    pub duration: f64,
    /// Earliest legal start (0 off-line; release date on-line).
    pub ready: f64,
}

impl ListTask {
    /// Off-line entry (ready at 0).
    pub fn new(id: TaskId, alloc: usize, duration: f64) -> Self {
        Self {
            id,
            alloc,
            duration,
            ready: 0.0,
        }
    }
}

/// Dispatch discipline of the list engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListPolicy {
    /// Graham list scheduling: on every state change start *every*
    /// fitting task, scanning the list in priority order.
    Greedy,
    /// Strict order: task `i` is placed (at its earliest feasible start)
    /// before task `i+1` is considered.
    Ordered,
}

/// Rejected [`ListTask`] input, reported by [`try_list_schedule`].
///
/// The list engine is a public boundary — the CLI and the on-line feed
/// hand it externally-supplied sizes — so malformed input surfaces as a
/// typed error instead of a panic; the panicking [`list_schedule`]
/// wrapper remains for callers whose inputs are internal invariants.
#[derive(Debug, Clone, PartialEq)]
pub enum ListError {
    /// The machine has no processors.
    NoProcessors,
    /// An allotment is zero or exceeds the machine.
    BadAllotment {
        /// Offending task.
        task: TaskId,
        /// Its requested allotment.
        alloc: usize,
        /// Machine size `m`.
        procs: usize,
    },
    /// A duration is non-positive, infinite or NaN.
    BadDuration {
        /// Offending task.
        task: TaskId,
        /// The rejected duration.
        duration: f64,
    },
    /// A ready time is negative, infinite or NaN.
    BadReady {
        /// Offending task.
        task: TaskId,
        /// The rejected ready time.
        ready: f64,
    },
}

impl fmt::Display for ListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ListError::NoProcessors => write!(f, "list engine needs at least one processor"),
            ListError::BadAllotment { task, alloc, procs } => {
                write!(f, "{task}: allotment {alloc} outside 1..={procs}")
            }
            ListError::BadDuration { task, duration } => {
                write!(f, "{task}: bad duration ({duration})")
            }
            ListError::BadReady { task, ready } => {
                write!(f, "{task}: bad ready time ({ready})")
            }
        }
    }
}

impl std::error::Error for ListError {}

/// Checks the preconditions shared by every engine.
fn check_tasks(m: usize, tasks: &[ListTask]) -> Result<(), ListError> {
    if m == 0 {
        return Err(ListError::NoProcessors);
    }
    for t in tasks {
        if t.alloc < 1 || t.alloc > m {
            return Err(ListError::BadAllotment {
                task: t.id,
                alloc: t.alloc,
                procs: m,
            });
        }
        if !(t.duration.is_finite() && t.duration > 0.0) {
            return Err(ListError::BadDuration {
                task: t.id,
                duration: t.duration,
            });
        }
        if !(t.ready.is_finite() && t.ready >= 0.0) {
            return Err(ListError::BadReady {
                task: t.id,
                ready: t.ready,
            });
        }
    }
    Ok(())
}

/// Runs the list engine on `m` processors, rejecting malformed input
/// with a typed [`ListError`] — the entry point for untrusted sizes
/// (CLI flags, on-line job feeds).
///
/// ```
/// use demt_platform::{try_list_schedule, ListError, ListPolicy, ListTask};
/// use demt_model::TaskId;
/// let bad = [ListTask::new(TaskId(0), 3, 1.0)];
/// let err = try_list_schedule(2, &bad, ListPolicy::Greedy).unwrap_err();
/// assert!(matches!(err, ListError::BadAllotment { alloc: 3, procs: 2, .. }));
/// ```
pub fn try_list_schedule(
    m: usize,
    tasks: &[ListTask],
    policy: ListPolicy,
) -> Result<Schedule, ListError> {
    check_tasks(m, tasks)?;
    Ok(match policy {
        ListPolicy::Greedy => greedy(m, tasks),
        ListPolicy::Ordered => ordered(m, tasks),
    })
}

/// Runs the list engine on `m` processors. Panics if any allotment
/// exceeds `m` or is zero, or if a duration or ready time is malformed
/// — use [`try_list_schedule`] where the input is not an internal
/// invariant.
///
/// ```
/// use demt_platform::{list_schedule, ListPolicy, ListTask};
/// use demt_model::TaskId;
/// // Two 2-processor tasks side by side on 4 processors.
/// let tasks = [ListTask::new(TaskId(0), 2, 3.0), ListTask::new(TaskId(1), 2, 3.0)];
/// let s = list_schedule(4, &tasks, ListPolicy::Greedy);
/// assert_eq!(s.makespan(), 3.0);
/// ```
pub fn list_schedule(m: usize, tasks: &[ListTask], policy: ListPolicy) -> Schedule {
    // demt-lint: allow(P1, documented panicking wrapper; fallible callers use try_list_schedule)
    try_list_schedule(m, tasks, policy).unwrap_or_else(|e| panic!("{e}"))
}

/// Deterministic pseudo-random benchmark grid (splitmix64 — no rng
/// dependency, so the same seed yields the same tasks everywhere):
/// mostly narrow jobs, ~1 in 29 machine-scale wide tasks, a quarter
/// arriving late. `m` must be at least 1 (allotments are drawn modulo
/// `m`). The single source for `demt listbench`, `demt serve
/// --gen-grid` and the engine-vs-scan difftest on the same grids.
pub fn bench_grid(n: usize, m: usize, seed: u64) -> Vec<ListTask> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|i| {
            let alloc = if next() % 29 == 0 {
                1 + (next() as usize) % m
            } else {
                1 + (next() as usize) % (m / 50).max(1)
            };
            let duration = 0.25 + (next() % 4000) as f64 / 250.0;
            let mut t = ListTask::new(TaskId(i), alloc, duration);
            if next() % 4 == 0 {
                t.ready = (next() % 200) as f64 / 10.0;
            }
            t
        })
        .collect()
}

/// The retained `O(n·(n + m log m))` scan engine, kept as the
/// differential reference for the skyline engine. Identical output,
/// same panics.
#[cfg(test)]
pub(crate) fn list_schedule_scan(m: usize, tasks: &[ListTask], policy: ListPolicy) -> Schedule {
    if let Err(e) = check_tasks(m, tasks) {
        panic!("{e}");
    }
    match policy {
        ListPolicy::Greedy => scan::greedy(m, tasks),
        ListPolicy::Ordered => scan::ordered(m, tasks),
    }
}

/// Wrapper ordering f64 event times inside a `BinaryHeap`.
#[derive(PartialEq)]
struct EventTime(f64);
impl Eq for EventTime {}
impl PartialOrd for EventTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for EventTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Leftmost-fit index over the task list: a flat segment tree whose
/// leaves hold the allotment of each released, unplaced task
/// (`usize::MAX` otherwise); [`FitTree::first_fitting`] descends to the
/// leftmost leaf with value ≤ the free count in `O(log n)` — the
/// skyline engine's replacement for rescanning the whole list at every
/// event.
struct FitTree {
    base: usize,
    min: Vec<usize>,
}

impl FitTree {
    fn new(n: usize) -> Self {
        let base = n.next_power_of_two().max(1);
        Self {
            base,
            min: vec![usize::MAX; 2 * base],
        }
    }

    /// Sets leaf `pos` (a list position) to `value` and refreshes the
    /// minima up the spine.
    fn set(&mut self, pos: usize, value: usize) {
        let mut i = self.base + pos;
        self.min[i] = value;
        while i > 1 {
            i /= 2;
            self.min[i] = self.min[2 * i].min(self.min[2 * i + 1]);
        }
    }

    /// Leftmost position whose value is ≤ `cap`, if any.
    fn first_fitting(&self, cap: usize) -> Option<usize> {
        if self.min[1] > cap {
            return None;
        }
        let mut i = 1;
        while i < self.base {
            i = if self.min[2 * i] <= cap {
                2 * i
            } else {
                2 * i + 1
            };
        }
        Some(i - self.base)
    }
}

/// Free-processor identities as a sorted interval set ([`ProcSet`]):
/// take-`k`-lowest splits off a prefix of segments, releases are
/// interval unions. Free sets stay a handful of contiguous runs in
/// practice, so both operations are `O(segments)` — and a claimed set
/// is carried through event heaps as ranges, not `k` ids. Shared by
/// the greedy list engine here and the skyline EASY queue in the
/// front-end crate.
#[derive(Debug, Clone)]
pub struct FreeSet {
    set: ProcSet,
}

impl FreeSet {
    /// All `m` processors free.
    pub fn full(m: usize) -> Self {
        Self {
            set: ProcSet::full(m),
        }
    }

    /// Number of free processors.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// Whether no processor is free.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Removes and returns the `k` lowest free ids as an interval set.
    ///
    /// `k` must not exceed [`FreeSet::len`] — the engines gate every
    /// take on the free count. A shortfall trips the debug assert; in
    /// release builds the set is left untouched and the empty set comes
    /// back (the validator then rejects the malformed placement).
    pub fn take_lowest(&mut self, k: usize) -> ProcSet {
        debug_assert!(k <= self.set.len(), "take exceeds free count");
        self.set.take_k_lowest(k).unwrap_or_default()
    }

    /// Marks processor `q` free again.
    pub fn insert(&mut self, q: u32) {
        self.set.insert(q);
    }

    /// Marks a whole claimed set free again (interval union).
    pub fn release(&mut self, procs: &ProcSet) {
        self.set.union_with(procs);
    }
}

/// Graham greedy on event-ordered structures: a ready-time heap feeds a
/// [`FitTree`] of released tasks, the free processors live in a
/// [`FreeSet`] bitset, and completion events release processor
/// identities back. Placements are identical to the scan reference:
/// within one instant the free count only shrinks, so repeatedly taking
/// the leftmost fitting task enumerates exactly the tasks a full list
/// scan would start, in the same order.
fn greedy(m: usize, tasks: &[ListTask]) -> Schedule {
    let mut schedule = Schedule::new(m);
    let n = tasks.len();
    let mut remaining = n;

    let mut free = FreeSet::full(m);
    // Completion events: (time, processors to release). The proc set
    // rides the heap as a few interval ranges — the PR 5 profile's
    // per-event Σk id clone is gone.
    let mut events: BinaryHeap<(Reverse<EventTime>, ProcSet)> = BinaryHeap::new();
    // Tasks whose ready time has not arrived yet, earliest first.
    let mut unreleased: BinaryHeap<Reverse<(EventTime, usize)>> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| Reverse((EventTime(t.ready), i)))
        .collect();
    let mut fit = FitTree::new(n);
    let mut now = 0.0_f64;

    loop {
        // Release every task whose ready time has arrived (same 1e-15
        // slack as the scan reference).
        while let Some(&Reverse((EventTime(r), i))) = unreleased.peek() {
            if r <= now + 1e-15 {
                unreleased.pop();
                fit.set(i, tasks[i].alloc);
            } else {
                break;
            }
        }
        // Start every fitting released task, in list order.
        while let Some(i) = fit.first_fitting(free.len()) {
            let t = &tasks[i];
            // Take the `alloc` lowest-indexed free processors.
            let procs = free.take_lowest(t.alloc);
            schedule.push(Placement {
                task: t.id,
                start: now,
                duration: t.duration,
                procs: procs.clone(),
            });
            events.push((Reverse(EventTime(now + t.duration)), procs));
            fit.set(i, usize::MAX);
            remaining -= 1;
        }
        if remaining == 0 {
            break;
        }
        // Advance time: to the next completion, or to the next release
        // if it comes sooner (or if no event is pending).
        let next_release = unreleased
            .peek()
            .map(|&Reverse((EventTime(r), _))| r)
            .unwrap_or(f64::INFINITY);
        let next_event = events
            .peek()
            .map(|(Reverse(EventTime(t)), _)| *t)
            .unwrap_or(f64::INFINITY);
        let next = next_event.min(next_release);
        assert!(
            next.is_finite(),
            "list engine stalled: no event and no release"
        );
        now = next;
        // Release all processors freed at (or before) `now`.
        while let Some((Reverse(EventTime(t)), _)) = events.peek() {
            if *t <= now + 1e-15 {
                // Peek just returned Some under the same borrow, so
                // pop yields that event; the if-let keeps this panic-free.
                if let Some((_, procs)) = events.pop() {
                    free.release(&procs);
                }
            } else {
                break;
            }
        }
    }
    schedule
}

/// Strict-order placement on the availability [`Frontier`]: each task
/// claims its `alloc` earliest-available processors (ties by lowest
/// index) in amortized `O(log E + alloc)` — the skyline replacement for
/// sorting all `m` availability times per task.
fn ordered(m: usize, tasks: &[ListTask]) -> Schedule {
    let mut schedule = Schedule::new(m);
    let mut frontier = Frontier::new(m);
    for t in tasks {
        let (start, procs) = frontier.claim(t.alloc, t.ready, t.duration);
        schedule.push(Placement {
            task: t.id,
            start,
            duration: t.duration,
            procs,
        });
    }
    schedule
}

/// The pre-skyline engines, verbatim: full task-list rescans and free
/// list re-sorts. Reference semantics for the differential tests.
#[cfg(test)]
mod scan {
    use super::{EventTime, ListTask};
    use crate::{Placement, Schedule};
    use demt_model::ProcSet;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    pub(super) fn greedy(m: usize, tasks: &[ListTask]) -> Schedule {
        let mut schedule = Schedule::new(m);
        let n = tasks.len();
        let mut placed = vec![false; n];
        let mut remaining = n;

        // Free processors as a sorted free-list (indices ascending).
        let mut free: Vec<u32> = (0..m as u32).collect();
        // Completion events: (time, processors to release).
        let mut events: BinaryHeap<(Reverse<EventTime>, Vec<u32>)> = BinaryHeap::new();
        let mut now = 0.0_f64;

        while remaining > 0 {
            // Start every fitting ready task, in list order. Restart the
            // scan after each placement: an earlier non-fitting task never
            // blocks later ones (Graham), but placements change the free
            // count.
            let mut progress = true;
            while progress {
                progress = false;
                for (i, t) in tasks.iter().enumerate() {
                    if placed[i] || t.ready > now + 1e-15 || t.alloc > free.len() {
                        continue;
                    }
                    // Take the `alloc` lowest-indexed free processors.
                    // The scan engine keeps its Vec bookkeeping —
                    // reference semantics — and converts to the
                    // interval set only at the placement boundary.
                    let procs: Vec<u32> = free.drain(..t.alloc).collect();
                    schedule.push(Placement {
                        task: t.id,
                        start: now,
                        duration: t.duration,
                        procs: ProcSet::from_ids(procs.iter().copied()),
                    });
                    events.push((Reverse(EventTime(now + t.duration)), procs));
                    placed[i] = true;
                    remaining -= 1;
                    progress = true;
                }
            }
            if remaining == 0 {
                break;
            }
            // Advance time: to the next completion, or to the next release
            // if it comes sooner (or if no event is pending).
            let next_release = tasks
                .iter()
                .enumerate()
                .filter(|(i, t)| !placed[*i] && t.ready > now + 1e-15)
                .map(|(_, t)| t.ready)
                .fold(f64::INFINITY, f64::min);
            let next_event = events
                .peek()
                .map(|(Reverse(EventTime(t)), _)| *t)
                .unwrap_or(f64::INFINITY);
            let next = next_event.min(next_release);
            assert!(
                next.is_finite(),
                "list engine stalled: no event and no release"
            );
            now = next;
            // Release all processors freed at (or before) `now`.
            while let Some((Reverse(EventTime(t)), _)) = events.peek() {
                if *t <= now + 1e-15 {
                    // Peek just returned Some under the same borrow, so
                    // pop yields that event; the if-let keeps this
                    // panic-free.
                    if let Some((_, procs)) = events.pop() {
                        free.extend(procs);
                    }
                } else {
                    break;
                }
            }
            free.sort_unstable();
        }
        schedule
    }

    pub(super) fn ordered(m: usize, tasks: &[ListTask]) -> Schedule {
        let mut schedule = Schedule::new(m);
        // Per-processor availability time.
        let mut avail: Vec<(f64, u32)> = (0..m as u32).map(|q| (0.0, q)).collect();
        for t in tasks {
            // The k processors that free earliest give the earliest start.
            avail.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let start = avail[t.alloc - 1].0.max(t.ready);
            let mut procs: Vec<u32> = avail[..t.alloc].iter().map(|&(_, q)| q).collect();
            procs.sort_unstable();
            for slot in avail[..t.alloc].iter_mut() {
                slot.0 = start + t.duration;
            }
            schedule.push(Placement {
                task: t.id,
                start,
                duration: t.duration,
                procs: ProcSet::from_ids(procs),
            });
        }
        schedule
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt(id: usize, alloc: usize, duration: f64) -> ListTask {
        ListTask::new(TaskId(id), alloc, duration)
    }

    #[test]
    fn greedy_packs_parallel_work() {
        // Two 2-proc tasks fit side by side on 4 processors.
        let s = list_schedule(4, &[lt(0, 2, 3.0), lt(1, 2, 3.0)], ListPolicy::Greedy);
        assert_eq!(s.makespan(), 3.0);
        assert_eq!(s.placements()[0].start, 0.0);
        assert_eq!(s.placements()[1].start, 0.0);
    }

    #[test]
    fn greedy_backfills_past_blocked_head() {
        // Head task needs 3 procs (blocked until t=2); the 1-proc task
        // behind it starts immediately.
        let tasks = [lt(0, 2, 2.0), lt(1, 3, 1.0), lt(2, 1, 1.0)];
        let s = list_schedule(3, &tasks, ListPolicy::Greedy);
        let p2 = s.placement_of(TaskId(2)).unwrap();
        assert_eq!(p2.start, 0.0, "Graham fills the idle processor");
        let p1 = s.placement_of(TaskId(1)).unwrap();
        assert_eq!(p1.start, 2.0);
        assert_eq!(s.makespan(), 3.0);
    }

    #[test]
    fn ordered_respects_strict_order() {
        let tasks = [lt(0, 2, 2.0), lt(1, 3, 1.0), lt(2, 1, 1.0)];
        let s = list_schedule(3, &tasks, ListPolicy::Ordered);
        let p1 = s.placement_of(TaskId(1)).unwrap();
        assert_eq!(p1.start, 2.0);
        // No hole-filling: the wide task 1 pushed the frontier of every
        // processor to t=3, so task 2 waits even though processor 2 was
        // idle during [0, 2) (contrast with the Greedy test above).
        let p2 = s.placement_of(TaskId(2)).unwrap();
        assert_eq!(p2.start, 3.0);
        assert_eq!(s.makespan(), 4.0);
    }

    #[test]
    fn ready_times_delay_starts() {
        let mut t = lt(0, 1, 1.0);
        t.ready = 5.0;
        for policy in [ListPolicy::Greedy, ListPolicy::Ordered] {
            let s = list_schedule(2, &[t], policy);
            assert_eq!(s.placements()[0].start, 5.0, "{policy:?}");
        }
    }

    #[test]
    fn greedy_graham_bound_on_sequential_tasks() {
        // 7 unit tasks, 3 procs: optimal 3 units; Graham ≤ 2-1/m times
        // optimal, and here it is exactly ceil(7/3) = 3.
        let tasks: Vec<ListTask> = (0..7).map(|i| lt(i, 1, 1.0)).collect();
        let s = list_schedule(3, &tasks, ListPolicy::Greedy);
        assert_eq!(s.makespan(), 3.0);
    }

    #[test]
    fn full_machine_tasks_serialize() {
        let tasks = [lt(0, 4, 1.0), lt(1, 4, 2.0)];
        let s = list_schedule(4, &tasks, ListPolicy::Greedy);
        assert_eq!(s.makespan(), 3.0);
        let p1 = s.placement_of(TaskId(1)).unwrap();
        assert_eq!(p1.start, 1.0);
    }

    #[test]
    fn both_policies_agree_on_independent_unit_tasks() {
        let tasks: Vec<ListTask> = (0..6).map(|i| lt(i, 1, 2.0)).collect();
        let g = list_schedule(6, &tasks, ListPolicy::Greedy);
        let o = list_schedule(6, &tasks, ListPolicy::Ordered);
        assert_eq!(g.makespan(), 2.0);
        assert_eq!(o.makespan(), 2.0);
    }

    #[test]
    #[should_panic(expected = "allotment")]
    fn oversized_allotment_rejected() {
        let _ = list_schedule(2, &[lt(0, 3, 1.0)], ListPolicy::Greedy);
    }

    #[test]
    fn try_list_schedule_reports_typed_errors() {
        assert_eq!(
            try_list_schedule(0, &[], ListPolicy::Greedy),
            Err(ListError::NoProcessors)
        );
        assert!(matches!(
            try_list_schedule(2, &[lt(0, 0, 1.0)], ListPolicy::Greedy),
            Err(ListError::BadAllotment { alloc: 0, .. })
        ));
        assert!(matches!(
            try_list_schedule(2, &[lt(0, 1, f64::NAN)], ListPolicy::Ordered),
            Err(ListError::BadDuration { .. })
        ));
        let mut t = lt(0, 1, 1.0);
        t.ready = -2.0;
        assert!(matches!(
            try_list_schedule(2, &[t], ListPolicy::Greedy),
            Err(ListError::BadReady { .. })
        ));
        // The panicking wrapper carries the same message.
        let err = try_list_schedule(2, &[lt(7, 5, 1.0)], ListPolicy::Greedy).unwrap_err();
        assert_eq!(err.to_string(), "T7: allotment 5 outside 1..=2");
    }

    #[test]
    fn empty_task_list_yields_empty_schedule() {
        for policy in [ListPolicy::Greedy, ListPolicy::Ordered] {
            let s = list_schedule(3, &[], policy);
            assert!(s.is_empty());
        }
    }
}
