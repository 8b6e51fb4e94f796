//! Schedule representation: explicit placements on explicit processors.

use demt_model::{ProcSet, TaskId};
use serde::{Deserialize, Serialize};

/// One scheduled task: start time and the exact set of processor
/// indices it occupies for `duration`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// The task being placed.
    pub task: TaskId,
    /// Start time (`σ(i)` in the paper).
    pub start: f64,
    /// Execution time on `procs.len()` processors — must equal
    /// `pᵢ(|procs|)`; the validator checks this against the instance.
    pub duration: f64,
    /// Processor indices as a sorted disjoint interval set; the wire
    /// form stays the plain id-array, all ids `< m`.
    pub procs: ProcSet,
}

impl Placement {
    /// Completion time `Cᵢ = σ(i) + pᵢ(nbproc(i))`.
    #[inline]
    pub fn completion(&self) -> f64 {
        self.start + self.duration
    }

    /// Appends this placement's compact JSON — byte-identical to
    /// `serde_json::to_string` — without building a `Value` tree. The
    /// serve daemon emits one placement line per decision, and a wide
    /// placement's procs list is thousands of integers; allocating a
    /// tree node per integer dominated its per-decision profile.
    pub fn write_json(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"task\":");
        push_uint(self.task.index() as u64, out);
        out.extend_from_slice(b",\"start\":");
        push_f64(self.start, out);
        out.extend_from_slice(b",\"duration\":");
        push_f64(self.duration, out);
        out.extend_from_slice(b",\"procs\":[");
        for (i, q) in self.procs.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            push_uint(u64::from(q), out);
        }
        out.extend_from_slice(b"]}");
    }

    /// Allotment size `nbproc(i)`.
    #[inline]
    pub fn alloc(&self) -> usize {
        self.procs.len()
    }

    /// Area (processors × time) occupied by the placement.
    #[inline]
    pub fn area(&self) -> f64 {
        self.alloc() as f64 * self.duration
    }
}

/// Appends `v`'s decimal digits — `u64` `Display` without the `fmt`
/// machinery, two digits per divide. At millions of processor indices
/// per serve batch the per-call `fmt` overhead is the bottleneck.
fn push_uint(mut v: u64, out: &mut Vec<u8>) {
    const PAIRS: [u8; 200] = {
        let mut t = [0u8; 200];
        let mut n = 0;
        while n < 100 {
            t[n * 2] = b'0' + (n / 10) as u8;
            t[n * 2 + 1] = b'0' + (n % 10) as u8;
            n += 1;
        }
        t
    };
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while v >= 100 {
        let p = ((v % 100) as usize) * 2;
        v /= 100;
        i -= 2;
        buf[i] = PAIRS[p];
        buf[i + 1] = PAIRS[p + 1];
    }
    if v >= 10 {
        let p = (v as usize) * 2;
        i -= 2;
        buf[i] = PAIRS[p];
        buf[i + 1] = PAIRS[p + 1];
    } else {
        i -= 1;
        buf[i] = b'0' + v as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `x` as the vendored `Value` printer does: shortest
/// round-trip `Display` for finite values, `null` otherwise.
fn push_f64(x: f64, out: &mut Vec<u8>) {
    if x.is_finite() {
        // io::Write to a Vec cannot fail; the fmt plumbing only
        // surfaces errors the sink reports.
        use std::io::Write;
        let _ = write!(out, "{x}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// A complete schedule on `m` processors.
///
/// Construction is unchecked — algorithms build schedules incrementally —
/// and [`crate::validate`] performs the full audit (one placement per
/// task, durations consistent with the instance, no processor used by
/// two tasks at once).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    procs: usize,
    placements: Vec<Placement>,
}

impl Schedule {
    /// Empty schedule on `m` processors.
    pub fn new(procs: usize) -> Self {
        // demt-lint: allow(P1, documented precondition: m >= 1; instances and the list engine reject machines without processors)
        assert!(procs > 0, "schedule needs at least one processor");
        Self {
            procs,
            placements: Vec::new(),
        }
    }

    /// Schedule from pre-built placements.
    pub fn from_placements(procs: usize, placements: Vec<Placement>) -> Self {
        // demt-lint: allow(P1, documented precondition: m >= 1; instances and the list engine reject machines without processors)
        assert!(procs > 0, "schedule needs at least one processor");
        Self { procs, placements }
    }

    /// Number of processors `m`.
    #[inline]
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// All placements, in insertion order.
    #[inline]
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Mutable access for in-place compaction passes.
    #[inline]
    pub fn placements_mut(&mut self) -> &mut [Placement] {
        &mut self.placements
    }

    /// The placements, moved out, in insertion order.
    pub fn into_placements(self) -> Vec<Placement> {
        self.placements
    }

    /// Adds a placement. Sortedness and disjointness of the processor
    /// set are structural [`ProcSet`] invariants — no audit needed here.
    pub fn push(&mut self, p: Placement) {
        self.placements.push(p);
    }

    /// Number of placements.
    #[inline]
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True when nothing is scheduled.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// Lookup of a task's placement (linear; schedules are small).
    pub fn placement_of(&self, task: TaskId) -> Option<&Placement> {
        self.placements.iter().find(|p| p.task == task)
    }

    /// Makespan `Cmax = max Cᵢ` (0 for empty schedules).
    pub fn makespan(&self) -> f64 {
        self.placements
            .iter()
            .map(Placement::completion)
            .fold(0.0, f64::max)
    }

    /// Completion-time vector indexed by task id; `None` where a task
    /// has no (or several) placements is not detected here — run the
    /// validator for that.
    pub fn completions(&self, n: usize) -> Vec<Option<f64>> {
        let mut out = vec![None; n];
        for p in &self.placements {
            out[p.task.index()] = Some(p.completion());
        }
        out
    }

    /// Total occupied area Σ areaᵢ.
    pub fn total_area(&self) -> f64 {
        self.placements.iter().map(Placement::area).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn placement(task: usize, start: f64, duration: f64, procs: &[u32]) -> Placement {
        Placement {
            task: TaskId(task),
            start,
            duration,
            procs: ProcSet::from(procs),
        }
    }

    #[test]
    fn completion_alloc_area() {
        let p = placement(0, 2.0, 3.0, &[1, 4, 5]);
        assert_eq!(p.completion(), 5.0);
        assert_eq!(p.alloc(), 3);
        assert_eq!(p.area(), 9.0);
    }

    #[test]
    fn makespan_over_placements() {
        let mut s = Schedule::new(4);
        assert_eq!(s.makespan(), 0.0);
        s.push(placement(0, 0.0, 4.0, &[0]));
        s.push(placement(1, 1.0, 2.0, &[1, 2]));
        assert_eq!(s.makespan(), 4.0);
        assert_eq!(s.total_area(), 8.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn completions_indexed_by_task() {
        let mut s = Schedule::new(2);
        s.push(placement(1, 0.0, 2.5, &[0]));
        let c = s.completions(3);
        assert_eq!(c, vec![None, Some(2.5), None]);
    }

    #[test]
    fn placement_lookup() {
        let mut s = Schedule::new(2);
        s.push(placement(7, 1.0, 1.0, &[1]));
        assert!(s.placement_of(TaskId(7)).is_some());
        assert!(s.placement_of(TaskId(0)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_proc_schedule_rejected() {
        let _ = Schedule::new(0);
    }

    #[test]
    fn write_json_matches_the_tree_serializer_byte_for_byte() {
        let mut samples = vec![
            placement(0, 0.0, 1.81, &[]),
            placement(7, 2.5, 1.0 / 3.0, &[0]),
            placement(
                usize::MAX >> 1,
                1e-300,
                1234567890.123456,
                &[9, 10, 99, 100, 101],
            ),
            placement(1, f64::NAN, f64::INFINITY, &[u32::MAX]),
        ];
        // A wide allotment covering every digit-length bucket.
        samples.push(placement(3, 0.125, 4.0, &(0..12345).collect::<Vec<u32>>()));
        for p in &samples {
            let mut fast = Vec::new();
            p.write_json(&mut fast);
            let tree = serde_json::to_string(p).expect("placements serialize");
            assert_eq!(
                String::from_utf8(fast).expect("JSON is UTF-8"),
                tree,
                "fast writer diverged on {p:?}"
            );
        }
    }
}
