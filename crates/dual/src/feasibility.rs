//! λ-feasibility test of the dual-approximation scheme.
//!
//! The dual approximation ([7] of the paper) binary-searches the target
//! makespan λ. Our rejection predicate is a conjunction of *necessary*
//! conditions for the existence of any schedule of makespan ≤ λ, so the
//! largest rejected λ certifies a true lower bound on the optimum:
//!
//! 1. **Fit** — every task has an allotment with `pᵢ(k) ≤ λ`;
//! 2. **Surface** — the summed minimal areas under deadline λ do not
//!    exceed the machine area: `Σᵢ Sᵢ(λ) ≤ m·λ` (the same surface
//!    argument as the paper's §3.3 LP);
//! 3. **Midpoint** — tasks that cannot run faster than λ/2 under any
//!    fitting allotment all straddle the instant λ/2, so their minimal
//!    allotments must coexist: `Σ_{i: min_k pᵢ(k) > λ/2} qᵢ(λ) ≤ m`
//!    where `qᵢ(λ) = min{k : pᵢ(k) ≤ λ}`.
//!
//! Each condition is monotone in λ, so the conjunction is a monotone
//! predicate and bisection applies.

use demt_model::{Instance, MoldableTask};

/// Why a λ was rejected (diagnostics; `None` from [`check_lambda`]
/// means accepted).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rejection {
    /// Some task cannot run within λ at all.
    TaskDoesNotFit {
        /// Offending task index.
        task: usize,
    },
    /// The surface condition fails: minimal area exceeds `m·λ`.
    SurfaceOverflow {
        /// Σᵢ Sᵢ(λ).
        area: f64,
        /// `m·λ`.
        capacity: f64,
    },
    /// The midpoint condition fails.
    MidpointOverflow {
        /// Σ qᵢ(λ) over unavoidable-midpoint tasks.
        procs: usize,
        /// The machine size `m`.
        capacity: usize,
    },
}

/// Tests the three necessary conditions at target makespan λ, reading
/// each task's `S_i(λ)` and `allotᵢ(λ)` from its own queries: `O(n)`
/// on rigid tasks, `O(n log m)` on exactly monotone ones, `O(n·m)` on
/// any other vector. The area sum is one fold in task order. `None`
/// means λ is accepted.
pub fn check_lambda(inst: &Instance, lambda: f64) -> Option<Rejection> {
    let m = inst.procs();
    let mut total_area = 0.0;
    let mut midpoint_procs = 0usize;
    for (i, t) in inst.tasks().iter().enumerate() {
        match t.min_area_within(lambda) {
            None => return Some(Rejection::TaskDoesNotFit { task: i }),
            Some(a) => total_area += a,
        }
        if t.min_time() > lambda / 2.0 {
            // `min_area_within` returned `Some` above, so an allotment
            // within lambda exists; treat a disagreement between the
            // two queries as a rejection rather than panicking.
            match t.min_alloc_within(lambda) {
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

/// The predicate on whole-vector scans, for any vector: the test
/// reference the task queries are compared against.
#[cfg(test)]
pub(crate) mod scan {
    use super::Rejection;
    use demt_model::{approx_le, Instance, MoldableTask};

    /// `MoldableTask::min_alloc_within` by scanning: the first
    /// allotment whose time meets `t`.
    pub(crate) fn min_alloc_within(task: &MoldableTask, t: f64) -> Option<usize> {
        task.times()
            .iter()
            .position(|&p| approx_le(p, t))
            .map(|i| i + 1)
    }

    /// `MoldableTask::min_area_alloc_within` by scanning: the least
    /// area meeting `t`, smallest allotment on ties.
    pub(crate) fn min_area_alloc_within(task: &MoldableTask, t: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in task.times().iter().enumerate() {
            let area = (i + 1) as f64 * p;
            if approx_le(p, t) && best.is_none_or(|(_, b)| area < b) {
                best = Some((i + 1, area));
            }
        }
        best
    }

    /// [`super::check_lambda`] with every query a scan, `O(n·m)`.
    pub(crate) fn check_lambda(inst: &Instance, lambda: f64) -> Option<Rejection> {
        let m = inst.procs();
        let mut total_area = 0.0;
        let mut midpoint_procs = 0usize;
        for (i, t) in inst.tasks().iter().enumerate() {
            match min_area_alloc_within(t, lambda) {
                None => return Some(Rejection::TaskDoesNotFit { task: i }),
                Some((_, a)) => total_area += a,
            }
            if t.min_time() > lambda / 2.0 {
                match min_alloc_within(t, lambda) {
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
}

/// A λ that always passes: large enough that the midpoint set is empty,
/// every task fits sequentially and the surface condition holds.
pub fn trivially_feasible_lambda(inst: &Instance) -> f64 {
    let m = inst.procs() as f64;
    let by_surface = inst.total_min_work() / m;
    let by_fit = inst
        .tasks()
        .iter()
        .map(MoldableTask::seq_time)
        .fold(0.0, f64::max);
    let by_midpoint = 2.0 * inst.max_min_time();
    by_surface
        .max(by_fit)
        .max(by_midpoint)
        .max(f64::MIN_POSITIVE)
}

/// Cheap closed-form lower bound on the optimal makespan (no bisection):
/// the longest unavoidable duration and the squashed-area bound.
pub fn trivial_lower_bound(inst: &Instance) -> f64 {
    let m = inst.procs() as f64;
    inst.max_min_time().max(inst.total_min_work() / m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::InstanceBuilder;
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn queries_match_the_scans_on_every_family() {
        for kind in WorkloadKind::ALL {
            for seed in 0..3 {
                let inst = generate(kind, 25, 16, seed);
                let lo = 0.5 * trivial_lower_bound(&inst);
                let hi = 1.5 * trivially_feasible_lambda(&inst);
                for step in 0..40 {
                    let t = lo + (hi - lo) * step as f64 / 39.0;
                    for task in inst.tasks() {
                        let ctx = format!("{kind}/{seed} at {t}");
                        assert_eq!(
                            task.min_alloc_within(t),
                            scan::min_alloc_within(task, t),
                            "{ctx}"
                        );
                        assert_eq!(
                            task.min_area_alloc_within(t),
                            scan::min_area_alloc_within(task, t),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn predicate_agrees_with_the_scans_on_a_lambda_grid() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 30, 12, 7);
            let lo = 0.3 * trivial_lower_bound(&inst);
            let hi = 2.0 * trivially_feasible_lambda(&inst);
            for step in 0..60 {
                let lambda = lo + (hi - lo) * step as f64 / 59.0;
                assert_eq!(
                    check_lambda(&inst, lambda),
                    scan::check_lambda(&inst, lambda),
                    "{kind}: λ = {lambda}"
                );
            }
        }
    }

    /// Three unit tasks with no speed-up on two processors: the optimal
    /// makespan is 2 and the predicate threshold is exactly 2.
    fn three_units_two_procs() -> Instance {
        let mut b = InstanceBuilder::new(2);
        for _ in 0..3 {
            b.push_sequential(1.0, 1.0).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn fit_condition_rejects_tiny_lambda() {
        let inst = three_units_two_procs();
        assert!(matches!(
            check_lambda(&inst, 0.5),
            Some(Rejection::TaskDoesNotFit { .. })
        ));
    }

    #[test]
    fn midpoint_condition_captures_serialization() {
        let inst = three_units_two_procs();
        // λ = 1.5: each task fits (p=1 ≤ 1.5), surface 3 ≤ 3, but all
        // three tasks straddle t = 0.75 needing 3 > 2 processors.
        assert!(matches!(
            check_lambda(&inst, 1.5),
            Some(Rejection::MidpointOverflow {
                procs: 3,
                capacity: 2
            })
        ));
        // λ = 2: min_time 1 is not > 1, midpoint set empty → accepted.
        assert_eq!(check_lambda(&inst, 2.0), None);
    }

    #[test]
    fn surface_condition_rejects_overload() {
        let mut b = InstanceBuilder::new(2);
        for _ in 0..8 {
            b.push_linear(1.0, 2.0).unwrap(); // min work 2 each, total 16
        }
        let inst = b.build().unwrap();
        // λ = 7: capacity 14 < 16.
        assert!(matches!(
            check_lambda(&inst, 7.0),
            Some(Rejection::SurfaceOverflow { .. })
        ));
        assert_eq!(check_lambda(&inst, 8.0), None);
    }

    #[test]
    fn predicate_is_monotone() {
        let inst = three_units_two_procs();
        let mut last = false;
        let mut lambda = 0.2;
        while lambda < 4.0 {
            let now = check_lambda(&inst, lambda).is_none();
            assert!(!last || now, "predicate flipped back at λ = {lambda}");
            last = now;
            lambda += 0.05;
        }
        assert!(last);
    }

    #[test]
    fn trivially_feasible_lambda_is_feasible() {
        for seed in 0..5 {
            let inst = demt_workload::generate(demt_workload::WorkloadKind::Mixed, 30, 8, seed);
            let lambda = trivially_feasible_lambda(&inst);
            assert_eq!(check_lambda(&inst, lambda), None, "seed {seed}");
        }
    }

    #[test]
    fn trivial_lower_bound_is_below_threshold() {
        let inst = three_units_two_procs();
        assert!(trivial_lower_bound(&inst) <= 2.0);
        assert_eq!(trivial_lower_bound(&inst), 1.5); // area bound 3/2
    }
}
