//! Cross-crate property tests: every scheduler emits valid schedules
//! dominating the certified bounds, on arbitrary monotonic instances
//! (not just the generator families).

use demt::prelude::*;
use proptest::prelude::*;

/// Arbitrary monotonic instance built from per-task (seq, degree, weight)
/// triples via the constant-degree recursion.
fn arb_instance() -> impl Strategy<Value = Instance> {
    (2usize..10, 1usize..25).prop_flat_map(|(m, n)| {
        prop::collection::vec((0.2f64..20.0, 0.0f64..1.0, 0.1f64..10.0), n..=n).prop_map(
            move |rows| {
                let mut b = InstanceBuilder::new(m);
                for (seq, alpha, w) in rows {
                    let times = demt::workload::recursive_times_const(seq, m, alpha);
                    b.push_times(w, times).unwrap();
                }
                b.build().unwrap()
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_schedulers_valid_and_above_bounds(inst in arb_instance()) {
        let bounds = instance_bounds(&inst, &BoundConfig::default());
        let dual = dual_approx(&inst, &DualConfig::default());
        let demt = demt_schedule(&inst, &DemtConfig::default());
        let all: Vec<(&str, Schedule)> = vec![
            ("demt", demt.schedule.clone()),
            ("gang", gang(&inst)),
            ("sequential", sequential_lptf(&inst)),
            ("list", list_shelf(&inst, &dual)),
            ("lptf", list_wlptf(&inst, &dual)),
            ("saf", list_saf(&inst, &dual)),
        ];
        for (name, s) in &all {
            prop_assert!(validate(&inst, s).is_ok(), "{name}: {:?}", validate(&inst, s));
            let c = Criteria::evaluate(&inst, s);
            prop_assert!(c.makespan >= bounds.cmax * (1.0 - 1e-7),
                "{name}: makespan {} < bound {}", c.makespan, bounds.cmax);
            prop_assert!(c.weighted_completion >= bounds.minsum * (1.0 - 1e-7),
                "{name}: minsum {} < bound {}", c.weighted_completion, bounds.minsum);
        }
    }

    #[test]
    fn demt_allotments_never_exceed_machine(inst in arb_instance()) {
        let r = demt_schedule(&inst, &DemtConfig::default());
        for p in r.schedule.placements() {
            prop_assert!(p.alloc() <= inst.procs());
        }
        // Batch plan consistency: every task in exactly one batch entry.
        let mut count = vec![0usize; inst.len()];
        for b in &r.plan.batches {
            prop_assert!(b.procs_used() <= inst.procs());
            for e in &b.entries {
                for id in &e.tasks {
                    count[id.index()] += 1;
                }
            }
        }
        prop_assert!(count.iter().all(|&c| c == 1));
    }

    #[test]
    fn dual_bound_sandwich(inst in arb_instance()) {
        let dual = dual_approx(&inst, &DualConfig::default());
        prop_assert!(dual.lower_bound <= dual.lambda * (1.0 + 1e-9));
        prop_assert!(dual.cmax_estimate >= dual.lower_bound * (1.0 - 1e-9));
        // The constructed schedule is what the estimate claims.
        prop_assert!((dual.schedule.makespan() - dual.cmax_estimate).abs() < 1e-9);
    }

    #[test]
    fn minsum_bound_scales_with_weights(inst in arb_instance()) {
        // Doubling every weight doubles the (weighted) bound: the LP and
        // trivial terms are both 1-homogeneous in w.
        let b1 = minsum_lower_bound(&inst, &BoundConfig::default());
        let mut builder = InstanceBuilder::new(inst.procs());
        for t in inst.tasks() {
            builder.push_times(t.weight() * 2.0, t.times().to_vec()).unwrap();
        }
        let doubled = builder.build().unwrap();
        let b2 = minsum_lower_bound(&doubled, &BoundConfig::default());
        prop_assert!((b2.value - 2.0 * b1.value).abs() <= 1e-5 * b2.value.max(1.0),
            "bound not 1-homogeneous: {} vs 2×{}", b2.value, b1.value);
    }
}
