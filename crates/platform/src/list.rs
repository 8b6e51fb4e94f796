//! Event-driven list scheduling for parallel tasks with fixed allotments.
//!
//! This is the Graham-style multiprocessor list scheduling of Garey &
//! Graham [11 of the paper], generalized to tasks requiring `k`
//! processors: whenever processors free up, the first task in list order
//! that *fits* the available count starts immediately, so a fitting task
//! may jump ahead of a non-fitting earlier one (work-conserving). It is
//! the engine behind the three "List" baselines (§4.1), behind DEMT's
//! compaction step (§3.2), which runs it with the batch ordering, behind
//! the dual's shelf schedule and behind the on-line batch framework —
//! every placement in the workspace funnels through here, under this one
//! policy.
//!
//! ## Engine and complexity
//!
//! The placement loop used to rescan the whole task list and re-sort
//! the free list at every state change — `O(n·(n + m log m))` per
//! schedule, the dominant cost at cluster scale. The engine now runs on
//! event-ordered structures: a cursor over the tasks in ready order, a
//! leftmost-fit tree over the list and a completion heap. The old scan
//! survives only under `#[cfg(test)]`, as the reference the crate's
//! differential tests pin the engine against byte for byte (the same
//! pattern as `demt-lp`'s dense solver).
//!
//! There is **one event loop and two processor ledgers**. A greedy
//! list's start times depend only on *how many* processors are free,
//! never on *which*, so the loop reads nothing but the free count:
//! [`list_schedule`] runs it on a [`FreeSet`] that hands out the `k`
//! lowest free ids as a [`ProcSet`]; [`list_completions`] runs it on a
//! bare count and returns each position's completion time, the same
//! bits, with no processor-set work at all. Scoring a list order (what
//! DEMT's compaction does for each batch shuffle) costs only the count
//! pass.
//!
//! | step | scan reference | `FreeSet` ledger | count ledger |
//! |---|---|---|---|
//! | release ready tasks | `O(n)` rescan per event | `O(log n)` per task (cursor + tree leaf) | same |
//! | "first fitting task" | `O(n)` rescan per event | `O(log n)` leftmost-fit tree descent | same |
//! | free-processor release | `O(m log m)` re-sort per event | `O(s)` interval union | `O(1)` add |
//! | take `k` lowest free indices | `O(m)` prefix drain | `O(s)` interval prefix split | `O(1)` subtract |
//!
//! `s` is the number of free runs in the [`FreeSet`] (a handful in
//! practice, at most `⌈m/2⌉`). Total: `O(n·(log n + s))` instead of
//! `O(n·(n + m log m))`, and `O(n log n)` for a count pass. The ready
//! cursor sorts only a list whose ready times are out of order; every
//! off-line list (all ready at 0) is its own release order. `demt
//! listbench --procs 10000` times the engine on the [`bench_grid`]
//! shape.
//!
//! The m = 10⁴ scale is cheap enough to run in a doctest now:
//!
//! ```
//! use demt_platform::{list_schedule, ListTask};
//! use demt_model::{ProcSet, TaskId};
//! // 10⁴ processors, 100 tasks of width 100: a perfect 1-unit packing.
//! let tasks: Vec<ListTask> = (0..100)
//!     .map(|i| ListTask::new(TaskId(i), 100, 1.0))
//!     .collect();
//! let s = list_schedule(10_000, &tasks);
//! assert_eq!(s.makespan(), 1.0);
//! assert_eq!(s.placements()[99].procs.len(), 100);
//! ```

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

/// Checks the preconditions of the engine and its scan reference.
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
/// use demt_platform::{try_list_schedule, ListError, ListTask};
/// use demt_model::TaskId;
/// let bad = [ListTask::new(TaskId(0), 3, 1.0)];
/// let err = try_list_schedule(2, &bad).unwrap_err();
/// assert!(matches!(err, ListError::BadAllotment { alloc: 3, procs: 2, .. }));
/// ```
pub fn try_list_schedule(m: usize, tasks: &[ListTask]) -> Result<Schedule, ListError> {
    check_tasks(m, tasks)?;
    let mut schedule = Schedule::new(m);
    greedy(FreeSet::full(m), tasks, |i, now, procs: &ProcSet| {
        schedule.push(Placement {
            task: tasks[i].id,
            start: now,
            duration: tasks[i].duration,
            procs: procs.clone(),
        });
    });
    Ok(schedule)
}

/// Completion time of each list position under the list engine on `m`
/// processors — bit-equal to the [`Placement::completion`] of the
/// placement [`list_schedule`] makes for that position — without
/// building the schedule: the loop runs on a bare free count, so no
/// processor set is taken, carried or released. Rejects the same input
/// as [`try_list_schedule`].
///
/// Start times depend only on how many processors are free, never on
/// which, so this is all a caller comparing orders by their
/// completions needs (DEMT's compaction scores its batch orders here
/// and builds only the winner).
///
/// ```
/// use demt_platform::{list_completions, list_schedule, ListTask};
/// use demt_model::TaskId;
/// let tasks = [ListTask::new(TaskId(0), 2, 2.0), ListTask::new(TaskId(1), 3, 1.0)];
/// assert_eq!(list_completions(4, &tasks).unwrap(), vec![2.0, 3.0]);
/// assert_eq!(list_schedule(4, &tasks).makespan(), 3.0);
/// ```
pub fn list_completions(m: usize, tasks: &[ListTask]) -> Result<Vec<f64>, ListError> {
    check_tasks(m, tasks)?;
    let mut done = vec![0.0; tasks.len()];
    greedy(m, tasks, |i, now, _: &usize| {
        done[i] = now + tasks[i].duration
    });
    Ok(done)
}

/// Runs the list engine on `m` processors. Panics if any allotment
/// exceeds `m` or is zero, or if a duration or ready time is malformed
/// — use [`try_list_schedule`] where the input is not an internal
/// invariant.
///
/// ```
/// use demt_platform::{list_schedule, ListTask};
/// use demt_model::TaskId;
/// // Two 2-processor tasks side by side on 4 processors.
/// let tasks = [ListTask::new(TaskId(0), 2, 3.0), ListTask::new(TaskId(1), 2, 3.0)];
/// let s = list_schedule(4, &tasks);
/// assert_eq!(s.makespan(), 3.0);
/// ```
pub fn list_schedule(m: usize, tasks: &[ListTask]) -> Schedule {
    // demt-lint: allow(P1, documented panicking wrapper; fallible callers use try_list_schedule)
    try_list_schedule(m, tasks).unwrap_or_else(|e| panic!("{e}"))
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
/// differential reference for the event engine. Identical output,
/// same panics.
#[cfg(test)]
pub(crate) fn list_schedule_scan(m: usize, tasks: &[ListTask]) -> Schedule {
    if let Err(e) = check_tasks(m, tasks) {
        panic!("{e}");
    }
    scan::greedy(m, tasks)
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
/// event engine's replacement for rescanning the whole list at every
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
/// interval unions merged into the set's own buffer. Free sets stay a
/// handful of contiguous runs in practice, so both operations are
/// `O(segments)` — and a claimed set is carried through event heaps as
/// ranges, not `k` ids. The free count is a field both operations keep
/// up to date, so [`FreeSet::len`] is `O(1)`: the engines read it on
/// every decision. Shared by the greedy list engine here and the
/// front-end crate's EASY queue.
#[derive(Debug, Clone)]
pub struct FreeSet {
    set: ProcSet,
    len: usize,
}

impl FreeSet {
    /// All `m` processors free.
    pub fn full(m: usize) -> Self {
        let set = ProcSet::full(m);
        let len = set.len();
        Self { set, len }
    }

    /// Number of free processors.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no processor is free.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes and returns the `k` lowest free ids as an interval set.
    ///
    /// `k` must not exceed [`FreeSet::len`] — the engines gate every
    /// take on the free count. A shortfall trips the debug assert; in
    /// release builds the set is left untouched and the empty set comes
    /// back (the validator then rejects the malformed placement).
    pub fn take_lowest(&mut self, k: usize) -> ProcSet {
        debug_assert!(k <= self.len, "take exceeds free count");
        match self.set.take_k_lowest(k) {
            Some(taken) => {
                self.len -= k;
                taken
            }
            None => ProcSet::new(),
        }
    }

    /// Marks a whole claimed set free again (interval union).
    pub fn release(&mut self, procs: &ProcSet) {
        self.len = self.set.union_with(procs);
    }
}

/// The processor bookkeeping the greedy loop runs on. Decisions read
/// only [`Ledger::free`]; the claim a start takes rides the completion
/// heap until its event gives it back. [`FreeSet`] claims the `k`
/// lowest free ids as a [`ProcSet`] (the placements of
/// [`list_schedule`]); a bare `usize` count claims just `k` (the
/// completions of [`list_completions`]). Both run the one loop, so the
/// two cannot disagree on a start time.
trait Ledger {
    /// What a started task holds until its completion.
    type Claim: Ord;
    /// Number of free processors.
    fn free(&self) -> usize;
    /// Claims `k` free processors; `k` never exceeds [`Ledger::free`].
    fn take(&mut self, k: usize) -> Self::Claim;
    /// Frees a claim again.
    fn give_back(&mut self, claim: Self::Claim);
}

impl Ledger for FreeSet {
    type Claim = ProcSet;
    fn free(&self) -> usize {
        self.len()
    }
    fn take(&mut self, k: usize) -> ProcSet {
        self.take_lowest(k)
    }
    fn give_back(&mut self, claim: ProcSet) {
        self.release(&claim);
    }
}

impl Ledger for usize {
    type Claim = usize;
    fn free(&self) -> usize {
        *self
    }
    fn take(&mut self, k: usize) -> usize {
        *self -= k;
        k
    }
    fn give_back(&mut self, claim: usize) {
        *self += claim;
    }
}

/// Graham greedy on event-ordered structures: a cursor over the list
/// positions in release order feeds a [`FitTree`] of released tasks, the free processors live in a
/// [`Ledger`], and completion events give claims back. `start(i, now,
/// claim)` reports each start of list position `i`. Starts are
/// identical to the scan reference: within one instant the free count
/// only shrinks, so repeatedly taking the leftmost fitting task
/// enumerates exactly the tasks a full list scan would start, in the
/// same order.
fn greedy<L: Ledger>(
    mut free: L,
    tasks: &[ListTask],
    mut start: impl FnMut(usize, f64, &L::Claim),
) {
    let mut remaining = tasks.len();
    // Completion events: (time, claim to give back). A `ProcSet` claim
    // rides the heap as a few interval ranges, not `k` ids.
    let mut events: BinaryHeap<(Reverse<EventTime>, L::Claim)> = BinaryHeap::new();
    // List positions in release order, (ready time, position) — the
    // order a ready-time heap would pop them in. A list already
    // nondecreasing in ready time (every off-line list) is its own
    // release order, so the sort is skipped there.
    let mut release_order: Vec<usize> = (0..tasks.len()).collect();
    let ready_cmp = |a: &ListTask, b: &ListTask| a.ready.total_cmp(&b.ready);
    if !tasks.is_sorted_by(|a, b| ready_cmp(a, b).is_le()) {
        // Stable: equal ready times keep list order.
        release_order.sort_by(|&a, &b| ready_cmp(&tasks[a], &tasks[b]));
    }
    let mut unreleased = release_order
        .iter()
        .map(|&i| (tasks[i].ready, i))
        .peekable();
    let mut fit = FitTree::new(tasks.len());
    let mut now = 0.0_f64;

    loop {
        // Release every task whose ready time has arrived (same 1e-15
        // slack as the scan reference).
        while let Some((_, i)) = unreleased.next_if(|&(r, _)| r <= now + 1e-15) {
            fit.set(i, tasks[i].alloc);
        }
        // Start every fitting released task, in list order.
        while let Some(i) = fit.first_fitting(free.free()) {
            let t = &tasks[i];
            let claim = free.take(t.alloc);
            start(i, now, &claim);
            events.push((Reverse(EventTime(now + t.duration)), claim));
            fit.set(i, usize::MAX);
            remaining -= 1;
        }
        if remaining == 0 {
            break;
        }
        // Advance time: to the next completion, or to the next release
        // if it comes sooner (or if no event is pending).
        let next_release = unreleased.peek().map_or(f64::INFINITY, |&(r, _)| r);
        let next_event = events
            .peek()
            .map(|(Reverse(EventTime(t)), _)| *t)
            .unwrap_or(f64::INFINITY);
        let next = next_event.min(next_release);
        // demt-lint: allow(P1, checked input: each task has a finite ready time and positive duration, so an unplaced task always has a pending event)
        assert!(
            next.is_finite(),
            "list engine stalled: no event and no release"
        );
        now = next;
        // Give back every claim freed at (or before) `now`.
        while let Some((Reverse(EventTime(t)), _)) = events.peek() {
            if *t <= now + 1e-15 {
                // Peek just returned Some under the same borrow, so
                // pop yields that event; the if-let keeps this panic-free.
                if let Some((_, claim)) = events.pop() {
                    free.give_back(claim);
                }
            } else {
                break;
            }
        }
    }
}

/// The first list engine, verbatim: full task-list rescans and free
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
        let s = list_schedule(4, &[lt(0, 2, 3.0), lt(1, 2, 3.0)]);
        assert_eq!(s.makespan(), 3.0);
        assert_eq!(s.placements()[0].start, 0.0);
        assert_eq!(s.placements()[1].start, 0.0);
    }

    #[test]
    fn greedy_backfills_past_blocked_head() {
        // Head task needs 3 procs (blocked until t=2); the 1-proc task
        // behind it starts immediately.
        let tasks = [lt(0, 2, 2.0), lt(1, 3, 1.0), lt(2, 1, 1.0)];
        let s = list_schedule(3, &tasks);
        let p2 = s.placement_of(TaskId(2)).unwrap();
        assert_eq!(p2.start, 0.0, "Graham fills the idle processor");
        let p1 = s.placement_of(TaskId(1)).unwrap();
        assert_eq!(p1.start, 2.0);
        assert_eq!(s.makespan(), 3.0);
    }

    #[test]
    fn ready_times_delay_starts() {
        let mut t = lt(0, 1, 1.0);
        t.ready = 5.0;
        let s = list_schedule(2, &[t]);
        assert_eq!(s.placements()[0].start, 5.0);
    }

    #[test]
    fn greedy_graham_bound_on_sequential_tasks() {
        // 7 unit tasks, 3 procs: optimal 3 units; Graham ≤ 2-1/m times
        // optimal, and here it is exactly ceil(7/3) = 3.
        let tasks: Vec<ListTask> = (0..7).map(|i| lt(i, 1, 1.0)).collect();
        let s = list_schedule(3, &tasks);
        assert_eq!(s.makespan(), 3.0);
    }

    #[test]
    fn full_machine_tasks_serialize() {
        let tasks = [lt(0, 4, 1.0), lt(1, 4, 2.0)];
        let s = list_schedule(4, &tasks);
        assert_eq!(s.makespan(), 3.0);
        let p1 = s.placement_of(TaskId(1)).unwrap();
        assert_eq!(p1.start, 1.0);
    }

    #[test]
    #[should_panic(expected = "allotment")]
    fn oversized_allotment_rejected() {
        let _ = list_schedule(2, &[lt(0, 3, 1.0)]);
    }

    #[test]
    fn try_list_schedule_reports_typed_errors() {
        assert_eq!(try_list_schedule(0, &[]), Err(ListError::NoProcessors));
        assert!(matches!(
            try_list_schedule(2, &[lt(0, 0, 1.0)]),
            Err(ListError::BadAllotment { alloc: 0, .. })
        ));
        assert!(matches!(
            try_list_schedule(2, &[lt(0, 1, f64::NAN)]),
            Err(ListError::BadDuration { .. })
        ));
        let mut t = lt(0, 1, 1.0);
        t.ready = -2.0;
        assert!(matches!(
            try_list_schedule(2, &[t]),
            Err(ListError::BadReady { .. })
        ));
        // The panicking wrapper carries the same message.
        let err = try_list_schedule(2, &[lt(7, 5, 1.0)]).unwrap_err();
        assert_eq!(err.to_string(), "T7: allotment 5 outside 1..=2");
    }

    #[test]
    fn empty_task_list_yields_empty_schedule() {
        assert!(list_schedule(3, &[]).is_empty());
    }
}
