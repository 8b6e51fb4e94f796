//! End-to-end integration: generate → schedule (all six algorithms) →
//! validate → bound, on every workload family, with the ratio
//! envelopes the paper reports (§4.2) asserted loosely.

use demt::prelude::*;

#[test]
fn full_pipeline_on_every_family() {
    for kind in WorkloadKind::ALL {
        for seed in 0..2 {
            let inst = generate(kind, 80, 32, seed);
            inst.check_monotonic().unwrap();
            let bounds = instance_bounds(&inst, &BoundConfig::default());
            assert!(bounds.cmax > 0.0 && bounds.minsum > 0.0);
            let dual = dual_approx(&inst, &DualConfig::default());

            let demt = demt_schedule(&inst, &DemtConfig::default());
            let schedules: Vec<(String, Schedule)> = vec![
                ("demt".into(), demt.schedule.clone()),
                ("gang".into(), gang(&inst)),
                ("sequential".into(), sequential_lptf(&inst)),
                ("list".into(), list_shelf(&inst, &dual)),
                ("lptf".into(), list_wlptf(&inst, &dual)),
                ("saf".into(), list_saf(&inst, &dual)),
            ];
            for (name, s) in &schedules {
                validate(&inst, s).unwrap_or_else(|e| panic!("{kind}/{seed}/{name}: {e}"));
                let c = Criteria::evaluate(&inst, s);
                // Certified bounds must sit below every algorithm.
                assert!(
                    c.makespan >= bounds.cmax * (1.0 - 1e-9),
                    "{kind}/{seed}/{name}: makespan {} under bound {}",
                    c.makespan,
                    bounds.cmax
                );
                assert!(
                    c.weighted_completion >= bounds.minsum * (1.0 - 1e-9),
                    "{kind}/{seed}/{name}: minsum {} under bound {}",
                    c.weighted_completion,
                    bounds.minsum
                );
            }
        }
    }
}

#[test]
fn demt_ratio_envelopes_match_the_paper() {
    // §4.2: "the performance ratio for the minsum criterion is never
    // more than 2.5 … the performance ratio for the makespan is almost
    // always below 2". Asserted with slack (3.5 / 2.6) because a single
    // run is noisier than the paper's 40-run averages.
    for kind in WorkloadKind::ALL {
        let inst = generate(kind, 150, 64, 99);
        let bounds = instance_bounds(&inst, &BoundConfig::default());
        let r = demt_schedule(&inst, &DemtConfig::default());
        let minsum_ratio = r.criteria.weighted_completion / bounds.minsum;
        let cmax_ratio = r.criteria.makespan / bounds.cmax;
        assert!(minsum_ratio < 3.5, "{kind}: minsum ratio {minsum_ratio}");
        assert!(cmax_ratio < 2.6, "{kind}: cmax ratio {cmax_ratio}");
    }
}

#[test]
fn demt_beats_lists_on_minsum_for_highly_parallel_tasks() {
    // The paper's headline claim (Fig. 4/6): on parallel-friendly
    // workloads DEMT clearly wins the minsum criterion against the list
    // baselines. Averaged over a few seeds to be robust.
    let mut demt_sum = 0.0;
    let mut list_sum = 0.0;
    let mut lptf_sum = 0.0;
    for seed in 0..4 {
        let inst = generate(WorkloadKind::HighlyParallel, 120, 48, seed);
        let dual = dual_approx(&inst, &DualConfig::default());
        let d = demt_schedule(&inst, &DemtConfig::default());
        demt_sum += d.criteria.weighted_completion;
        list_sum += Criteria::evaluate(&inst, &list_shelf(&inst, &dual)).weighted_completion;
        lptf_sum += Criteria::evaluate(&inst, &list_wlptf(&inst, &dual)).weighted_completion;
    }
    assert!(
        demt_sum < list_sum && demt_sum < lptf_sum,
        "DEMT {demt_sum} should beat list {list_sum} and lptf {lptf_sum} on minsum"
    );
}

#[test]
fn gang_dominates_nothing_but_linear_speedup() {
    // Gang is the paper's cautionary baseline: optimal for perfectly
    // moldable tasks (§3.1), catastrophic otherwise (Fig. 3).
    let mut b = InstanceBuilder::new(8);
    for i in 0..6 {
        b.push_linear(1.0 + i as f64 * 0.3, 4.0 + i as f64).unwrap();
    }
    let linear = b.build().unwrap();
    let g = Criteria::evaluate(&linear, &gang(&linear));
    let d = demt_schedule(&linear, &DemtConfig::default());
    // On linear tasks gang is minsum-optimal: DEMT cannot beat it.
    assert!(g.weighted_completion <= d.criteria.weighted_completion + 1e-6);

    // On weakly parallel tasks gang collapses.
    let weak = generate(WorkloadKind::WeaklyParallel, 60, 16, 1);
    let gw = Criteria::evaluate(&weak, &gang(&weak));
    let dw = demt_schedule(&weak, &DemtConfig::default());
    assert!(
        gw.weighted_completion > 3.0 * dw.criteria.weighted_completion,
        "gang {} vs demt {}",
        gw.weighted_completion,
        dw.criteria.weighted_completion
    );
}

#[test]
fn facade_prelude_compiles_the_quickstart_flow() {
    let inst = generate(WorkloadKind::Mixed, 20, 8, 3);
    let r = demt_schedule(&inst, &DemtConfig::default());
    validate(&inst, &r.schedule).unwrap();
    let chart = render_gantt(&r.schedule, 40);
    assert!(chart.lines().count() == 9);
}
