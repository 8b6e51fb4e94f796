//! The oracle test: on tiny random instances, the true optimum computed
//! by branch-and-bound must be sandwiched between every certified lower
//! bound and every algorithm's achieved value — for both criteria.
//! This is the strongest correctness statement in the workspace: it
//! simultaneously certifies the bounds' soundness and the algorithms'
//! feasibility at the global-optimum level.

use demt_baselines::{gang, list_saf, list_shelf, list_wlptf, sequential_lptf};
use demt_bounds::{instance_bounds, BoundConfig};
use demt_core::{demt_schedule, DemtConfig};
use demt_dual::{dual_approx, DualConfig};
use demt_exact::{exact_cmax, exact_minsum, ExactResult};
use demt_model::{Instance, InstanceBuilder};
use demt_platform::Criteria;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn tiny_instance() -> impl Strategy<Value = Instance> {
    (2usize..4, 2usize..5).prop_flat_map(|(m, n)| {
        prop::collection::vec((0.4f64..8.0, 0.0f64..1.0, 0.2f64..5.0), n..=n).prop_map(
            move |rows| {
                let mut b = InstanceBuilder::new(m);
                for (seq, alpha, w) in rows {
                    let times = demt_workload::recursive_times_const(seq, m, alpha);
                    b.push_times(w, times).unwrap();
                }
                b.build().unwrap()
            },
        )
    })
}

/// Arbitrary positive time vectors, neither monotone nor work-monotone:
/// a wider allotment may run slower, which the family above never
/// draws.
fn non_monotone_instance() -> impl Strategy<Value = Instance> {
    (2usize..=6, 2usize..=7).prop_flat_map(|(m, n)| {
        let row = (prop::collection::vec(0.2f64..8.0, m..=m), 0.2f64..5.0);
        prop::collection::vec(row, n..=n).prop_map(move |rows| {
            let mut b = InstanceBuilder::new(m);
            for (times, w) in rows {
                b.push_times(w, times).unwrap();
            }
            b.build().unwrap()
        })
    })
}

/// The true optima lie between every certified lower bound and every
/// algorithm's achieved value.
fn assert_sandwich(
    inst: &Instance,
    opt_cmax: &ExactResult,
    opt_minsum: &ExactResult,
) -> Result<(), TestCaseError> {
    // 1. Certified bounds sit below the true optima.
    let bounds = instance_bounds(inst, &BoundConfig::default());
    prop_assert!(
        bounds.cmax <= opt_cmax.value * (1.0 + 1e-7),
        "Cmax bound {} exceeds optimum {}",
        bounds.cmax,
        opt_cmax.value
    );
    prop_assert!(
        bounds.minsum <= opt_minsum.value * (1.0 + 1e-7),
        "minsum bound {} exceeds optimum {}",
        bounds.minsum,
        opt_minsum.value
    );

    // 2. Every algorithm sits above the true optima.
    let dual = dual_approx(inst, &DualConfig::default());
    let schedules = [
        ("demt", demt_schedule(inst, &DemtConfig::default()).schedule),
        ("gang", gang(inst)),
        ("sequential", sequential_lptf(inst)),
        ("list", list_shelf(inst, &dual)),
        ("lptf", list_wlptf(inst, &dual)),
        ("saf", list_saf(inst, &dual)),
    ];
    for (name, s) in &schedules {
        let c = Criteria::evaluate(inst, s);
        prop_assert!(
            c.makespan >= opt_cmax.value * (1.0 - 1e-7),
            "{name}: makespan {} beats the optimum {}",
            c.makespan,
            opt_cmax.value
        );
        prop_assert!(
            c.weighted_completion >= opt_minsum.value * (1.0 - 1e-7),
            "{name}: minsum {} beats the optimum {}",
            c.weighted_completion,
            opt_minsum.value
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn optimum_sandwich(inst in tiny_instance()) {
        assert_sandwich(&inst, &exact_cmax(&inst).unwrap(), &exact_minsum(&inst).unwrap())?;
    }

    #[test]
    fn demt_optimality_gap_is_moderate_on_tiny_instances(inst in tiny_instance()) {
        // Against the *true* optimum (not the LP bound) DEMT stays within
        // a small constant on toy instances — evidence that the ≈2 ratios
        // of the figures are largely bound slack, not algorithm slack.
        let opt = exact_minsum(&inst).unwrap();
        let r = demt_schedule(&inst, &DemtConfig::default());
        prop_assert!(r.criteria.weighted_completion <= 3.0 * opt.value + 1e-9,
            "DEMT {} vs optimum {}", r.criteria.weighted_completion, opt.value);
        let opt_c = exact_cmax(&inst).unwrap();
        prop_assert!(r.criteria.makespan <= 3.0 * opt_c.value + 1e-9,
            "DEMT Cmax {} vs optimum {}", r.criteria.makespan, opt_c.value);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn optimum_sandwich_on_non_monotone_times(inst in non_monotone_instance()) {
        // A search that passes the node budget (7 tasks at m = 6, say)
        // has no optimum to compare against.
        if let (Ok(cmax), Ok(minsum)) = (exact_cmax(&inst), exact_minsum(&inst)) {
            assert_sandwich(&inst, &cmax, &minsum)?;
        }
    }
}

#[test]
fn dual_lower_bound_tightness_on_exhaustive_grid() {
    // Structured sweep: all combinations of 2–3 no-speed-up tasks with
    // durations from a small grid on 2 processors; the dual bound must
    // never exceed the optimum and should match it on single-task and
    // balanced cases.
    let grid = [1.0, 2.0, 3.0];
    for &a in &grid {
        for &b in &grid {
            for &c in &grid {
                let mut builder = InstanceBuilder::new(2);
                for &d in &[a, b, c] {
                    builder.push_sequential(1.0, d).unwrap();
                }
                let inst = builder.build().unwrap();
                let opt = exact_cmax(&inst).unwrap();
                let lb = demt_dual::dual_approx(&inst, &demt_dual::DualConfig { rel_eps: 1e-4 })
                    .lower_bound;
                assert!(
                    lb <= opt.value * (1.0 + 1e-6),
                    "({a},{b},{c}): bound {lb} exceeds optimum {}",
                    opt.value
                );
                // For sequential tasks on 2 machines the optimum is the
                // partition value; the bound is at least half of it
                // (area argument), usually much closer.
                assert!(
                    lb >= opt.value / 2.0 - 1e-9,
                    "({a},{b},{c}): bound {lb} uselessly weak"
                );
            }
        }
    }
}
