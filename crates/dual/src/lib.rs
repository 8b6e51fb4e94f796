//! # demt-dual — dual-approximation makespan substrate
//!
//! Implementation of the dual-approximation scheme the paper takes from
//! \[7\] (Dutot–Mounié–Trystram, *Handbook of Scheduling* ch. 28, built on
//! the two-shelf algorithm of Mounié–Rapine–Trystram \[17\]). It serves
//! three roles in the reproduction:
//!
//! 1. **`C*max` estimate** seeding DEMT's batch sizes (§3.2, step 1);
//! 2. **Makespan lower bound** for the experimental ratios (§3.3:
//!    "for Cmax a good lower bound may easily be obtained by dual
//!    approximation") — the largest λ *rejected* by the necessary-
//!    condition predicate [`CanonicalAllotments::check_lambda`];
//! 3. **Allotment selection** for the three "List Graham" baselines
//!    (§4.1: "every task is alloted using the number of processors
//!    selected by \[7\]"), together with the canonical shelf order.
//!
//! The entry point is [`dual_approx`]; [`cmax_lower_bound`] is the
//! bound-only shortcut. Both evaluate the predicate on one
//! [`CanonicalAllotments`] memo per instance, and the shelf
//! construction re-checks the accepted λ on that same memo. The naive
//! `O(n·m)` predicate the memo replicates is kept only as the test
//! reference it is compared against.

#![warn(missing_docs)]

mod feasibility;
mod memo;
mod shelves;

pub use feasibility::{trivial_lower_bound, trivially_feasible_lambda, Rejection};
pub use memo::CanonicalAllotments;
pub use shelves::ShelfClass;

use shelves::build_shelves;

use demt_kernels::bisect_threshold;
use demt_model::{Instance, TaskId};
use demt_platform::Schedule;

/// Configuration of the bisection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualConfig {
    /// Relative width at which the bisection stops (the scheme's ε;
    /// the paper's guarantee is 3/2 + ε off-line).
    pub rel_eps: f64,
}

impl Default for DualConfig {
    fn default() -> Self {
        Self { rel_eps: 1e-3 }
    }
}

/// Result of the dual approximation.
#[derive(Debug, Clone)]
pub struct DualResult {
    /// Largest rejected λ — a certified lower bound on the optimal
    /// makespan.
    pub lower_bound: f64,
    /// Smallest accepted λ found by the bisection.
    pub lambda: f64,
    /// Per-task allotment selected by the shelf construction
    /// (indexed by task id).
    pub allotment: Vec<usize>,
    /// Shelf class per task (indexed by task id).
    pub class: Vec<ShelfClass>,
    /// Canonical \[7\] list order: long shelf, short shelf, small tasks.
    pub order: Vec<TaskId>,
    /// Feasible schedule constructed at the accepted λ.
    pub schedule: Schedule,
    /// Makespan of that schedule — the `C*max` estimate handed to DEMT.
    pub cmax_estimate: f64,
}

/// Runs the full dual approximation: bisection on λ, then the two-shelf
/// construction at the accepted λ.
///
/// ```
/// use demt_dual::{dual_approx, DualConfig};
/// let inst = demt_workload::generate(demt_workload::WorkloadKind::Mixed, 20, 8, 1);
/// let r = dual_approx(&inst, &DualConfig::default());
/// assert!(r.lower_bound <= r.cmax_estimate);           // certified sandwich
/// assert_eq!(r.allotment.len(), inst.len());           // one allotment per task
/// demt_platform::validate(&inst, &r.schedule).unwrap(); // constructive witness
/// ```
pub fn dual_approx(inst: &Instance, cfg: &DualConfig) -> DualResult {
    assert!(!inst.is_empty(), "dual approximation of an empty instance");
    // The canonical allotments are memoized once and shared by every
    // bisection iteration: the predicate then costs O(n log m) per λ
    // guess instead of the naive O(n·m) re-scan, with bit-identical
    // accept/reject decisions (see `memo` tests).
    let memo = CanonicalAllotments::new(inst);
    let lo = trivial_lower_bound(inst);
    let hi = trivially_feasible_lambda(inst).max(lo);
    let th = bisect_threshold(lo, hi, cfg.rel_eps, |lambda| memo.lambda_feasible(lambda));
    let build = build_shelves(inst, &memo, th.accepted);
    let cmax_estimate = build.schedule.makespan();
    DualResult {
        lower_bound: th.rejected.max(lo),
        lambda: th.accepted,
        allotment: build.allotment,
        class: build.class,
        order: build.order,
        schedule: build.schedule,
        cmax_estimate,
    }
}

/// Certified lower bound on the optimal makespan (bisection only, no
/// schedule construction).
pub fn cmax_lower_bound(inst: &Instance, rel_eps: f64) -> f64 {
    assert!(!inst.is_empty());
    let memo = CanonicalAllotments::new(inst);
    let lo = trivial_lower_bound(inst);
    let hi = trivially_feasible_lambda(inst).max(lo);
    let th = bisect_threshold(lo, hi, rel_eps, |lambda| memo.lambda_feasible(lambda));
    th.rejected.max(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::lambda_feasible;
    use demt_model::InstanceBuilder;
    use demt_platform::validate;
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn three_units_two_procs_is_nailed() {
        let mut b = InstanceBuilder::new(2);
        for _ in 0..3 {
            b.push_sequential(1.0, 1.0).unwrap();
        }
        let inst = b.build().unwrap();
        let r = dual_approx(&inst, &DualConfig::default());
        // The predicate threshold is exactly the optimum, 2.
        assert!(
            r.lower_bound <= 2.0 && r.lower_bound > 1.99,
            "lb {}",
            r.lower_bound
        );
        assert!(r.lambda >= 2.0 && r.lambda < 2.01);
        assert_eq!(
            r.schedule.makespan(),
            2.0,
            "list engine achieves the optimum here"
        );
        validate(&inst, &r.schedule).unwrap();
    }

    #[test]
    fn perfectly_moldable_tasks_meet_the_area_bound() {
        // Linear tasks: OPT = total work / m; the bound must equal it
        // and the constructed schedule should be close.
        let mut b = InstanceBuilder::new(4);
        for &w in &[8.0, 12.0, 4.0, 16.0] {
            b.push_linear(1.0, w).unwrap();
        }
        let inst = b.build().unwrap();
        let r = dual_approx(&inst, &DualConfig::default());
        let opt = 40.0 / 4.0;
        assert!(r.lower_bound <= opt + 1e-9);
        assert!(
            r.lower_bound > 0.9 * opt,
            "lb {} far from opt {opt}",
            r.lower_bound
        );
        assert!(r.cmax_estimate >= r.lower_bound);
        validate(&inst, &r.schedule).unwrap();
    }

    #[test]
    fn bound_sandwich_on_generated_workloads() {
        for kind in WorkloadKind::ALL {
            for seed in 0..4 {
                let inst = generate(kind, 50, 16, seed);
                let r = dual_approx(&inst, &DualConfig::default());
                validate(&inst, &r.schedule).unwrap();
                assert!(r.lower_bound <= r.lambda);
                assert!(
                    r.cmax_estimate >= r.lower_bound * (1.0 - 1e-9),
                    "{kind}/{seed}: estimate {} below bound {}",
                    r.cmax_estimate,
                    r.lower_bound
                );
                // Empirical quality: the constructed schedule should stay
                // within the 3λ theoretical envelope (it is usually much
                // tighter).
                assert!(
                    r.cmax_estimate <= 3.0 * r.lambda,
                    "{kind}/{seed}: estimate {} vs λ {}",
                    r.cmax_estimate,
                    r.lambda
                );
                // Allotments must be legal.
                for id in inst.ids() {
                    let k = r.allotment[id.index()];
                    assert!(k >= 1 && k <= inst.procs());
                }
            }
        }
    }

    #[test]
    fn memoized_bisection_matches_naive_end_to_end() {
        // dual_approx drives the bisection through the allotment memo;
        // replaying it with the naive predicate must land on the exact
        // same threshold (bit-for-bit), for every workload family.
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 35, 16, 9);
            let full = dual_approx(&inst, &DualConfig::default());
            let lo = trivial_lower_bound(&inst);
            let hi = trivially_feasible_lambda(&inst).max(lo);
            let th = demt_kernels::bisect_threshold(lo, hi, DualConfig::default().rel_eps, |l| {
                lambda_feasible(&inst, l)
            });
            assert_eq!(full.lower_bound.to_bits(), th.rejected.max(lo).to_bits());
            assert_eq!(full.lambda.to_bits(), th.accepted.to_bits());
        }
    }

    #[test]
    fn lower_bound_shortcut_matches_full_run() {
        let inst = generate(WorkloadKind::Cirne, 40, 8, 3);
        let full = dual_approx(&inst, &DualConfig::default());
        let lb = cmax_lower_bound(&inst, 1e-3);
        assert!((lb - full.lower_bound).abs() < 1e-9 * lb.max(1.0));
    }

    #[test]
    fn tighter_eps_narrows_the_bracket() {
        let inst = generate(WorkloadKind::HighlyParallel, 30, 8, 1);
        let coarse = dual_approx(&inst, &DualConfig { rel_eps: 0.1 });
        let fine = dual_approx(&inst, &DualConfig { rel_eps: 1e-4 });
        let coarse_gap = coarse.lambda - coarse.lower_bound;
        let fine_gap = fine.lambda - fine.lower_bound;
        // Equality happens when the trivial bound is already feasible
        // (the bisection short-circuits for both tolerances).
        assert!(fine_gap <= coarse_gap + 1e-12);
        // Bounds from both runs must be consistent with each other.
        assert!(coarse.lower_bound <= fine.lambda + 1e-9);
        assert!(fine.lower_bound <= coarse.lambda + 1e-9);
    }
}
