//! Memoized canonical-allotment queries for the bisection.
//!
//! Every bisection iteration re-evaluates the feasibility predicate,
//! and the naive predicate re-derives each task's canonical allotment
//! — `min_area_within` / `min_alloc_within` — by scanning the whole
//! processing-time vector: `O(n·m)` *per λ guess*, the "re-runs the
//! full knapsack per iteration" cost called out in the ROADMAP.
//!
//! The quantities the predicate needs are step functions of λ with at
//! most `m` breakpoints (one per distinct processing time). This module
//! builds that staircase **once per instance**: allotments sorted by
//! processing time with prefix minima of the allocation and of the
//! area. Each query then binary-searches the λ cut, `O(log m)` instead
//! of `O(m)`, and a probe counter makes the saving testable.
//!
//! The memoized queries replicate the naive task methods *exactly*
//! (same `approx_le` tolerance, same tie-breaks), so the bisection
//! takes identical accept/reject decisions and [`crate::dual_approx`]
//! is bit-for-bit unchanged — asserted by the tests below.

use crate::feasibility::Rejection;
use demt_model::{approx_le, Instance};
#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};

/// One task's staircase: allotments sorted by processing time.
struct TaskMemo {
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
    /// `min_k p(k)`, precomputed for the midpoint condition.
    min_time: f64,
}

/// Per-instance memo of every task's canonical allotments, plus (in
/// test builds only) a probe counter so tests can compare per-iteration
/// work against the naive scan. The memo captures everything the
/// feasibility predicate needs (including the machine size), so it
/// cannot be mixed up with a different instance after construction.
pub struct CanonicalAllotments {
    tasks: Vec<TaskMemo>,
    procs: usize,
    #[cfg(test)]
    probes: AtomicU64,
}

impl CanonicalAllotments {
    /// Builds the staircases: `O(n·m)` for instances whose vectors are
    /// nonincreasing (every SPAA'04 generator's), `O(n·m log m)` at
    /// worst, once per instance and amortized over the
    /// ~`log(hi/lo)/log(1+ε)` feasibility checks of the bisection.
    pub fn new(inst: &Instance) -> Self {
        let tasks = inst
            .tasks()
            .iter()
            .map(|t| {
                // Entries go in by descending allotment, so a
                // nonincreasing vector is already one ascending run,
                // which the stable sort finishes in a single pass.
                let mut entries: Vec<(f64, usize)> = t
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
                TaskMemo {
                    times: entries.iter().map(|&(p, _)| p).collect(),
                    prefix_alloc,
                    prefix_area,
                    min_time: t.min_time(),
                }
            })
            .collect();
        Self {
            tasks,
            procs: inst.procs(),
            #[cfg(test)]
            probes: AtomicU64::new(0),
        }
    }

    /// Number of tasks covered.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the memo covers no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Allotment entries examined so far across all queries — the
    /// work counter the bisection tests compare against the `O(n·m)`
    /// naive scan.
    #[cfg(test)]
    pub fn probes(&self) -> u64 {
        self.probes.load(Ordering::Relaxed)
    }

    /// Size of the feasible prefix of `task`'s staircase at deadline
    /// `t` (number of allotments with `p(k) ≲ t`), via binary search.
    fn cut(&self, task: usize, t: f64) -> usize {
        self.tasks[task].times.partition_point(|&p| {
            #[cfg(test)]
            self.probes.fetch_add(1, Ordering::Relaxed);
            approx_le(p, t)
        })
    }

    /// Memoized [`demt_model::MoldableTask::min_alloc_within`].
    pub fn min_alloc_within(&self, task: usize, t: f64) -> Option<usize> {
        let cut = self.cut(task, t);
        (cut > 0).then(|| self.tasks[task].prefix_alloc[cut - 1])
    }

    /// Memoized [`demt_model::MoldableTask::min_area_within`].
    pub fn min_area_within(&self, task: usize, t: f64) -> Option<f64> {
        let cut = self.cut(task, t);
        (cut > 0).then(|| self.tasks[task].prefix_area[cut - 1].0)
    }

    /// Memoized [`demt_model::MoldableTask::min_area_alloc_within`].
    pub fn min_area_alloc_within(&self, task: usize, t: f64) -> Option<(usize, f64)> {
        let cut = self.cut(task, t);
        (cut > 0).then(|| {
            let (area, alloc) = self.tasks[task].prefix_area[cut - 1];
            (alloc, area)
        })
    }

    /// [`Self::min_area_alloc_within`], or when none meets `t` the first
    /// staircase entry: the fastest allotment (the widest on time ties).
    pub(crate) fn shelf1_alloc(&self, task: usize, t: f64) -> (usize, f64) {
        let cut = self.cut(task, t);
        let (area, alloc) = self.tasks[task].prefix_area[cut.max(1) - 1];
        (alloc, area)
    }

    /// Precomputed `min_k p(k)` of `task`.
    pub fn min_time(&self, task: usize) -> f64 {
        self.tasks[task].min_time
    }

    /// Tests the three necessary conditions of the feasibility module
    /// at target makespan λ. A memoized replica of the naive per-task
    /// scan: same conditions, same task order (so the area sum is the
    /// identical float fold), same tolerances — only the per-task
    /// queries are `O(log m)`.
    pub fn check_lambda(&self, lambda: f64) -> Option<Rejection> {
        let m = self.procs;
        let mut total_area = 0.0;
        let mut midpoint_procs = 0usize;
        for i in 0..self.tasks.len() {
            match self.min_area_within(i, lambda) {
                None => return Some(Rejection::TaskDoesNotFit { task: i }),
                Some(a) => total_area += a,
            }
            if self.min_time(i) > lambda / 2.0 {
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
        check_lambda, lambda_feasible, trivial_lower_bound, trivially_feasible_lambda,
    };
    use demt_kernels::bisect_threshold;
    use demt_model::{InstanceBuilder, MoldableTask, TaskId, REL_EPS};
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn memo_queries_match_the_naive_task_methods() {
        for kind in WorkloadKind::ALL {
            for seed in 0..3 {
                let inst = generate(kind, 25, 16, seed);
                let memo = CanonicalAllotments::new(&inst);
                let lo = 0.5 * trivial_lower_bound(&inst);
                let hi = 1.5 * trivially_feasible_lambda(&inst);
                for step in 0..40 {
                    let t = lo + (hi - lo) * step as f64 / 39.0;
                    for (i, task) in inst.tasks().iter().enumerate() {
                        assert_eq!(memo.min_alloc_within(i, t), task.min_alloc_within(t));
                        assert_eq!(memo.min_area_within(i, t), task.min_area_within(t));
                        assert_eq!(
                            memo.min_area_alloc_within(i, t),
                            task.min_area_alloc_within(t)
                        );
                        assert_eq!(memo.min_time(i), task.min_time());
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
        let task = &inst.tasks()[0];
        for t in [1.0, 2.0, 2.5, 11.0, 11.5, 12.0, 50.0] {
            assert_eq!(
                memo.min_area_alloc_within(0, t),
                task.min_area_alloc_within(t)
            );
            assert_eq!(memo.min_alloc_within(0, t), task.min_alloc_within(t));
        }
    }

    #[test]
    fn memo_matches_the_scans_around_every_distinct_time() {
        let shapes: Vec<Vec<f64>> = vec![
            // Plateaus, as in Cirne-shaped profiles.
            vec![9.7, 5.1, 3.3, 3.3, 3.3, 2.9, 2.9, 2.9],
            // Strictly decreasing.
            (1..=9).map(|k| 10.0 / k as f64 + 0.5).collect(),
            // Non-monotone: times rise again and work dips.
            vec![12.0, 11.0, 2.0, 2.0, 5.0, 1.9, 2.1, 1.9],
            // All equal: every allotment ties.
            vec![0.1 + 0.2; 7],
            // Sub-unit times, where the tolerance floor of 1 applies.
            vec![0.9, 0.45, 0.3, 0.3 - 1e-10, 0.2],
            // m = 1.
            vec![4.5],
        ];
        for times in shapes {
            let mut b = InstanceBuilder::new(times.len());
            b.push_times(1.0, times.clone()).unwrap();
            let inst = b.build().unwrap();
            let memo = CanonicalAllotments::new(&inst);
            let task = &inst.tasks()[0];
            for &p in &times {
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
                    assert_eq!(
                        memo.min_alloc_within(0, t),
                        task.min_alloc_within(t),
                        "{ctx}"
                    );
                    assert_eq!(memo.min_area_within(0, t), task.min_area_within(t), "{ctx}");
                    assert_eq!(
                        memo.min_area_alloc_within(0, t),
                        task.min_area_alloc_within(t),
                        "{ctx}"
                    );
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

    #[test]
    fn memoized_predicate_agrees_with_naive_on_a_lambda_grid() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 30, 12, 7);
            let memo = CanonicalAllotments::new(&inst);
            let lo = 0.3 * trivial_lower_bound(&inst);
            let hi = 2.0 * trivially_feasible_lambda(&inst);
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

    #[test]
    fn bisection_on_the_memo_reproduces_the_naive_threshold() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 40, 32, 2);
            let memo = CanonicalAllotments::new(&inst);
            let lo = trivial_lower_bound(&inst);
            let hi = trivially_feasible_lambda(&inst).max(lo);
            let memoized = bisect_threshold(lo, hi, 1e-3, |lambda| memo.lambda_feasible(lambda));
            let naive = bisect_threshold(lo, hi, 1e-3, |lambda| lambda_feasible(&inst, lambda));
            assert_eq!(memoized, naive, "{kind}: thresholds must be identical");
        }
    }

    #[test]
    fn per_step_work_drops_versus_the_naive_scan() {
        // The counter-backed ROADMAP claim: the naive predicate scans
        // every allotment of every task per bisection step (`n·m`
        // entries); the memo examines `O(n log m)`.
        let (n, m) = (60, 64);
        let inst = generate(WorkloadKind::Mixed, n, m, 1);
        let memo = CanonicalAllotments::new(&inst);
        let lo = trivial_lower_bound(&inst);
        let hi = trivially_feasible_lambda(&inst).max(lo);
        let mut steps = 0u64;
        let _ = bisect_threshold(lo, hi, 1e-4, |lambda| {
            steps += 1;
            memo.lambda_feasible(lambda)
        });
        assert!(steps > 4, "bisection took {steps} steps only");
        let per_step = memo.probes() / steps;
        let naive_per_step = (n * m) as u64;
        assert!(
            per_step * 4 <= naive_per_step,
            "memoized {per_step} entries/step vs naive {naive_per_step}: \
             expected at least a 4× drop"
        );
    }
}
