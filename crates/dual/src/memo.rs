//! Canonical-allotment queries for the bisection.
//!
//! Every bisection iteration re-evaluates the feasibility predicate,
//! which asks each task's canonical allotment at λ — `min_area_within`
//! and `min_alloc_within` — `O(n)` queries *per λ guess*.
//!
//! On the paper's model a task's time does not grow and its work does
//! not shrink with more processors. A task whose vector is so *exactly*
//! ([`MoldableTask::is_exactly_monotone`], a flag folded when the task
//! is built) is its own allotment staircase: the allotments meeting λ
//! are a suffix of `1..=m`, the first of them is both the fewest
//! processors and the least area, and the task answers each query with
//! one binary search over its own vector. The four SPAA'04 generator
//! families produce such tasks, so this memo builds nothing for them.
//!
//! The quantities the predicate needs are still step functions of λ
//! with at most `m` breakpoints (one per distinct processing time) when
//! a task is not monotone. For those tasks only, this module builds the
//! staircase **once per instance**: allotments sorted by processing
//! time with prefix minima of the allocation and of the area. Each query
//! then binary-searches the λ cut, `O(log m)` instead of the `O(m)`
//! scan, and a probe counter makes the saving testable.
//!
//! Both paths replicate the naive scans *exactly* (same `approx_le`
//! tolerance, same tie-breaks), so the bisection takes identical
//! accept/reject decisions and [`crate::dual_approx`] is bit-for-bit
//! unchanged — asserted by the tests below against a scan reference.

use crate::feasibility::Rejection;
use demt_model::{approx_le, Instance, MoldableTask};
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};

/// One non-monotone task's staircase: allotments sorted by processing
/// time.
struct Staircase {
    /// Processing times in ascending order (ties: larger allotment
    /// first, the order that makes a nonincreasing vector one sorted
    /// run). `approx_le(p, λ)` is monotone in `p`, so the feasible set
    /// at any λ is a prefix of this order, and equal times all fall on
    /// one side of the cut: the order among them cannot change an
    /// answer.
    times: Vec<f64>,
    /// `prefix_alloc[j]` — smallest allotment among the first `j + 1`
    /// entries (= `min_alloc_within` when the cut is `j + 1`).
    prefix_alloc: Vec<usize>,
    /// `prefix_area[j]` — minimal area among the first `j + 1` entries
    /// and the allotment achieving it, smallest allotment on area ties
    /// whatever the entry order (matching the scan order of
    /// `MoldableTask::min_area_alloc_within`).
    prefix_area: Vec<(f64, usize)>,
}

impl Staircase {
    /// Sorts `task`'s allotments by time and folds the prefix minima:
    /// `O(m)` when the vector is nonincreasing, `O(m log m)` at worst.
    fn new(task: &MoldableTask) -> Self {
        // Entries go in by descending allotment, so a nonincreasing
        // vector is already one ascending run, which the stable sort
        // finishes in a single pass.
        let mut entries: Vec<(f64, usize)> = task
            .times()
            .iter()
            .enumerate()
            .rev()
            .map(|(i, &p)| (p, i + 1))
            .collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prefix_alloc = Vec::with_capacity(entries.len());
        let mut prefix_area = Vec::with_capacity(entries.len());
        let mut best_alloc = usize::MAX;
        let mut best_area = (f64::INFINITY, usize::MAX);
        for &(p, k) in &entries {
            best_alloc = best_alloc.min(k);
            let area = k as f64 * p;
            if area < best_area.0 || (area == best_area.0 && k < best_area.1) {
                best_area = (area, k);
            }
            prefix_alloc.push(best_alloc);
            prefix_area.push(best_area);
        }
        Self {
            times: entries.iter().map(|&(p, _)| p).collect(),
            prefix_alloc,
            prefix_area,
        }
    }
}

/// Per-instance index of every task's canonical allotments: exactly
/// monotone tasks answer from their own vector, the others from a
/// staircase built here, plus (in test builds only) a probe counter so
/// tests can compare per-iteration work against the naive scan. The
/// memo borrows the instance it indexes, so it cannot be mixed up with
/// a different one.
pub struct CanonicalAllotments<'a> {
    inst: &'a Instance,
    /// Per task, its staircase; `None` for an exactly monotone task.
    stairs: Vec<Option<Staircase>>,
    #[cfg(test)]
    probes: AtomicU64,
}

impl<'a> CanonicalAllotments<'a> {
    /// Builds a staircase for each task that is not exactly monotone,
    /// once per instance and amortized over the
    /// ~`log(hi/lo)/log(1+ε)` feasibility checks of the bisection.
    /// `O(n)` when every task is exactly monotone.
    pub fn new(inst: &'a Instance) -> Self {
        Self::build(inst, |t| !t.is_exactly_monotone())
    }

    /// A memo whose every task goes through a staircase, so the tests
    /// can run the staircase path on monotone instances too.
    #[cfg(test)]
    pub(crate) fn staircased(inst: &'a Instance) -> Self {
        Self::build(inst, |_| true)
    }

    fn build(inst: &'a Instance, stair: impl Fn(&MoldableTask) -> bool) -> Self {
        Self {
            inst,
            stairs: inst
                .tasks()
                .iter()
                .map(|t| stair(t).then(|| Staircase::new(t)))
                .collect(),
            #[cfg(test)]
            probes: AtomicU64::new(0),
        }
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.stairs.len()
    }

    /// True when the memo covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.stairs.is_empty()
    }

    /// Tasks that needed a sorted staircase: those that are not exactly
    /// monotone. Zero on the four SPAA'04 generator families.
    pub fn staircases_built(&self) -> usize {
        self.stairs.iter().filter(|s| s.is_some()).count()
    }

    /// Staircase entries examined so far across all queries — the
    /// work counter the bisection tests compare against the `O(n·m)`
    /// naive scan. Queries answered by a monotone task itself do not
    /// count.
    #[cfg(test)]
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Size of the feasible prefix of a staircase at deadline `t`
    /// (number of allotments with `p(k) ≲ t`), via binary search.
    fn cut(&self, stair: &Staircase, t: f64) -> usize {
        stair.times.partition_point(|&p| {
            #[cfg(test)]
            self.probes.fetch_add(1, Ordering::Relaxed);
            approx_le(p, t)
        })
    }

    /// [`demt_model::MoldableTask::min_alloc_within`], `O(log m)`.
    pub fn min_alloc_within(&self, task: usize, t: f64) -> Option<usize> {
        let Some(stair) = &self.stairs[task] else {
            return self.inst.tasks()[task].min_alloc_within(t);
        };
        let cut = self.cut(stair, t);
        (cut > 0).then(|| stair.prefix_alloc[cut - 1])
    }

    /// [`demt_model::MoldableTask::min_area_within`], `O(log m)`.
    pub fn min_area_within(&self, task: usize, t: f64) -> Option<f64> {
        self.min_area_alloc_within(task, t).map(|(_, area)| area)
    }

    /// [`demt_model::MoldableTask::min_area_alloc_within`], `O(log m)`.
    pub fn min_area_alloc_within(&self, task: usize, t: f64) -> Option<(usize, f64)> {
        let Some(stair) = &self.stairs[task] else {
            return self.inst.tasks()[task].min_area_alloc_within(t);
        };
        let cut = self.cut(stair, t);
        (cut > 0).then(|| {
            let (area, alloc) = stair.prefix_area[cut - 1];
            (alloc, area)
        })
    }

    /// [`Self::min_area_alloc_within`], or when none meets `t` the
    /// fastest allotment, the widest on time ties: the first staircase
    /// entry, which on a monotone task is `(m, m·p(m))`.
    pub(crate) fn shelf1_alloc(&self, task: usize, t: f64) -> (usize, f64) {
        let Some(stair) = &self.stairs[task] else {
            let task = &self.inst.tasks()[task];
            let m = task.max_procs();
            return task
                .min_area_alloc_within(t)
                .unwrap_or((m, m as f64 * task.time(m)));
        };
        let cut = self.cut(stair, t);
        let (area, alloc) = stair.prefix_area[cut.max(1) - 1];
        (alloc, area)
    }

    /// Tests the three necessary conditions of the feasibility module
    /// at target makespan λ. A replica of the naive per-task scan: same
    /// conditions, same task order (so the area sum is the identical
    /// float fold), same tolerances — only the per-task queries are
    /// `O(log m)`.
    pub fn check_lambda(&self, lambda: f64) -> Option<Rejection> {
        let m = self.inst.procs();
        let mut total_area = 0.0;
        let mut midpoint_procs = 0usize;
        for (i, task) in self.inst.tasks().iter().enumerate() {
            match self.min_area_within(i, lambda) {
                None => return Some(Rejection::TaskDoesNotFit { task: i }),
                Some(a) => total_area += a,
            }
            if task.min_time() > lambda / 2.0 {
                // `min_area_within` returned `Some` above, so an
                // allotment within lambda exists; treat a disagreement
                // between the two queries as a rejection rather than
                // panicking.
                match self.min_alloc_within(i, lambda) {
                    Some(p) => midpoint_procs += p,
                    None => return Some(Rejection::TaskDoesNotFit { task: i }),
                }
            }
        }
        let capacity = m as f64 * lambda;
        if total_area > capacity * (1.0 + 1e-12) {
            return Some(Rejection::SurfaceOverflow {
                area: total_area,
                capacity,
            });
        }
        if midpoint_procs > m {
            return Some(Rejection::MidpointOverflow {
                procs: midpoint_procs,
                capacity: m,
            });
        }
        None
    }

    /// Convenience wrapper: `true` when λ passes all conditions.
    pub fn lambda_feasible(&self, lambda: f64) -> bool {
        self.check_lambda(lambda).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::{
        check_lambda, lambda_feasible, scan, trivial_lower_bound, trivially_feasible_lambda,
    };
    use demt_kernels::bisect_threshold;
    use demt_model::{InstanceBuilder, TaskId, REL_EPS};
    use demt_workload::{generate, WorkloadKind};

    /// The memo as built, and one that puts every task through a
    /// staircase: each test runs both paths.
    fn both_paths(inst: &Instance) -> [CanonicalAllotments<'_>; 2] {
        [
            CanonicalAllotments::new(inst),
            CanonicalAllotments::staircased(inst),
        ]
    }

    /// The three queries of task `i` at `t` against the scans.
    fn assert_matches_the_scans(memo: &CanonicalAllotments, i: usize, t: f64, ctx: &str) {
        let task = &memo.inst.tasks()[i];
        assert_eq!(
            memo.min_alloc_within(i, t),
            scan::min_alloc_within(task, t),
            "{ctx}"
        );
        assert_eq!(
            memo.min_area_within(i, t),
            scan::min_area_within(task, t),
            "{ctx}"
        );
        assert_eq!(
            memo.min_area_alloc_within(i, t),
            scan::min_area_alloc_within(task, t),
            "{ctx}"
        );
    }

    #[test]
    fn memo_queries_match_the_naive_scans() {
        for kind in WorkloadKind::ALL {
            for seed in 0..3 {
                let inst = generate(kind, 25, 16, seed);
                let lo = 0.5 * trivial_lower_bound(&inst);
                let hi = 1.5 * trivially_feasible_lambda(&inst);
                for memo in both_paths(&inst) {
                    for step in 0..40 {
                        let t = lo + (hi - lo) * step as f64 / 39.0;
                        for i in 0..inst.len() {
                            assert_matches_the_scans(&memo, i, t, &format!("{kind}/{seed}"));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn memo_handles_non_monotonic_vectors() {
        // Work dips at k = 3: the prefix minima must reproduce the
        // full-scan answers, including the smallest-allotment tie-break.
        let mut b = InstanceBuilder::new(4);
        b.push_task(MoldableTask::new(TaskId(0), 1.0, vec![12.0, 11.0, 2.0, 2.0]).unwrap())
            .unwrap();
        let inst = b.build().unwrap();
        let memo = CanonicalAllotments::new(&inst);
        assert_eq!(memo.staircases_built(), 1);
        for t in [1.0, 2.0, 2.5, 11.0, 11.5, 12.0, 50.0] {
            assert_matches_the_scans(&memo, 0, t, &format!("t = {t}"));
        }
    }

    #[test]
    fn memo_matches_the_scans_around_every_distinct_time() {
        // Both sides of the exact-monotony flag, each shape with its flag.
        let shapes: Vec<(Vec<f64>, bool)> = vec![
            // Plateaus, as in Cirne-shaped profiles.
            (vec![9.0, 5.0, 3.5, 3.5, 3.5, 3.0, 3.0, 3.0], true),
            // Plateaus whose work dips at k = 3.
            (vec![9.7, 5.1, 3.3, 3.3, 3.3, 2.9, 2.9, 2.9], false),
            // Strictly decreasing.
            ((1..=9).map(|k| 10.0 / k as f64 + 0.5).collect(), true),
            // Non-monotone: times rise again and work dips.
            (vec![12.0, 11.0, 2.0, 2.0, 5.0, 1.9, 2.1, 1.9], false),
            // All equal: every allotment ties.
            (vec![0.1 + 0.2; 7], true),
            // Sub-unit times, where the tolerance floor of 1 applies.
            (vec![0.9, 0.45, 0.3, 0.3 - 1e-10, 0.2], false),
            (vec![0.75, 0.5, 0.375, 0.375 - 1e-10, 0.3125], true),
            // m = 1.
            (vec![4.5], true),
        ];
        for (times, flagged) in &shapes {
            let mut b = InstanceBuilder::new(times.len());
            b.push_times(1.0, times.clone()).unwrap();
            let inst = b.build().unwrap();
            let task = &inst.tasks()[0];
            assert_eq!(task.is_exactly_monotone(), *flagged, "{times:?}");
            for memo in both_paths(&inst) {
                for &p in times {
                    // The cut of `approx_le(·, t)` sits near t = p − d.
                    let d = REL_EPS * p.max(1.0);
                    let edge = p - d;
                    let probes = [
                        p,
                        p.next_up(),
                        p.next_down(),
                        edge,
                        edge.next_up(),
                        edge.next_down(),
                        p - 2.0 * d,
                        p - 0.5 * d,
                        p + d,
                    ];
                    for t in probes {
                        let ctx = format!("{times:?} at t = {t:e}");
                        assert_matches_the_scans(&memo, 0, t, &ctx);
                        // The batch loop's O(1) eligibility test.
                        assert_eq!(
                            approx_le(task.min_time(), t),
                            task.min_alloc_within(t).is_some(),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memoized_predicate_agrees_with_naive_on_a_lambda_grid() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 30, 12, 7);
            let lo = 0.3 * trivial_lower_bound(&inst);
            let hi = 2.0 * trivially_feasible_lambda(&inst);
            for memo in both_paths(&inst) {
                for step in 0..60 {
                    let lambda = lo + (hi - lo) * step as f64 / 59.0;
                    assert_eq!(
                        memo.check_lambda(lambda),
                        check_lambda(&inst, lambda),
                        "{kind}: λ = {lambda}"
                    );
                }
            }
        }
    }

    #[test]
    fn bisection_on_the_memo_reproduces_the_naive_threshold() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 40, 32, 2);
            let lo = trivial_lower_bound(&inst);
            let hi = trivially_feasible_lambda(&inst).max(lo);
            let naive = bisect_threshold(lo, hi, 1e-3, |lambda| lambda_feasible(&inst, lambda));
            for memo in both_paths(&inst) {
                let memoized =
                    bisect_threshold(lo, hi, 1e-3, |lambda| memo.lambda_feasible(lambda));
                assert_eq!(memoized, naive, "{kind}: thresholds must be identical");
            }
        }
    }

    #[test]
    fn per_step_work_drops_versus_the_naive_scan() {
        // The counter-backed ROADMAP claim: the naive predicate scans
        // every allotment of every task per bisection step (`n·m`
        // entries); the staircases examine `O(n log m)`. The counter
        // sees staircase probes only, so every task here is made
        // non-monotone: its last time is halved, a superlinear drop.
        let (n, m) = (60, 64);
        let mixed = generate(WorkloadKind::Mixed, n, m, 1);
        let mut b = InstanceBuilder::new(m);
        for t in mixed.tasks() {
            let mut times = t.times().to_vec();
            times[m - 1] *= 0.5;
            b.push_times(t.weight(), times).unwrap();
        }
        let inst = b.build().unwrap();
        let memo = CanonicalAllotments::new(&inst);
        assert_eq!(memo.staircases_built(), n);
        let lo = trivial_lower_bound(&inst);
        let hi = trivially_feasible_lambda(&inst).max(lo);
        let mut steps = 0u64;
        let _ = bisect_threshold(lo, hi, 1e-4, |lambda| {
            steps += 1;
            memo.lambda_feasible(lambda)
        });
        assert!(steps > 4, "bisection took {steps} steps only");
        let per_step = memo.probes() / steps;
        assert!(per_step > 0, "no staircase was probed");
        let naive_per_step = (n * m) as u64;
        assert!(
            per_step * 4 <= naive_per_step,
            "memoized {per_step} entries/step vs naive {naive_per_step}: \
             expected at least a 4× drop"
        );
    }
}
