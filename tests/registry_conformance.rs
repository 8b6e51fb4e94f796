//! Registry conformance: every registered scheduler × every workload
//! family must produce a valid schedule, report criteria identical to a
//! fresh `Criteria::evaluate`, and round-trip through `by_name`; the
//! shared context must run the dual approximation at most once per
//! instance no matter how many schedulers consume it.

use demt::prelude::*;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

#[test]
fn every_scheduler_conforms_on_every_workload() {
    for kind in WorkloadKind::ALL {
        let inst = generate(kind, 25, 8, 7);
        let mut ctx = SchedulerContext::new();
        for s in registry().all() {
            let report = s.schedule(&inst, &mut ctx);

            // Valid schedule.
            validate(&inst, &report.schedule)
                .unwrap_or_else(|e| panic!("{kind}/{}: {e}", s.name()));

            // Report criteria match an independent evaluation.
            let fresh = Criteria::evaluate(&inst, &report.schedule);
            assert!(
                close(report.criteria.makespan, fresh.makespan)
                    && close(
                        report.criteria.weighted_completion,
                        fresh.weighted_completion
                    )
                    && close(report.criteria.utilization, fresh.utilization),
                "{kind}/{}: report criteria {:?} diverge from evaluation {:?}",
                s.name(),
                report.criteria,
                fresh
            );

            // Identity round-trips.
            assert_eq!(report.algorithm, s.name());
            let round = registry()
                .by_name(s.name())
                .unwrap_or_else(|| panic!("{}: by_name round-trip failed", s.name()));
            assert_eq!(round.name(), s.name());
            assert_eq!(round.legend(), s.legend());

            // Diagnostics are sane.
            assert!(report.wall_seconds >= 0.0);
            assert!(report.phases.iter().all(|p| p.seconds >= 0.0));
        }
        // The headline contract of the shared context: one dual
        // approximation per instance across all six schedulers.
        assert_eq!(
            ctx.dual_runs(),
            1,
            "{kind}: dual_approx must run at most once per instance"
        );
    }
}

#[test]
fn registry_names_and_legends_are_unique() {
    let mut names = registry().names();
    assert!(!names.is_empty());
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), registry().len(), "duplicate registry names");

    let mut legends: Vec<&str> = registry().all().map(|s| s.legend()).collect();
    legends.sort_unstable();
    legends.dedup();
    assert_eq!(legends.len(), registry().len(), "duplicate legends");
}

#[test]
fn context_counts_one_dual_per_distinct_instance() {
    let a = generate(WorkloadKind::Mixed, 15, 8, 1);
    let b = generate(WorkloadKind::Mixed, 15, 8, 2);
    let mut ctx = SchedulerContext::new();
    let demt = registry().by_name("demt").unwrap();
    let lptf = registry().by_name("lptf").unwrap();
    demt.schedule(&a, &mut ctx);
    lptf.schedule(&a, &mut ctx);
    assert_eq!(ctx.dual_runs(), 1);
    demt.schedule(&b, &mut ctx);
    lptf.schedule(&b, &mut ctx);
    assert_eq!(ctx.dual_runs(), 2, "a new instance is one more dual run");
}

#[test]
fn dual_free_schedulers_never_touch_the_dual() {
    let inst = generate(WorkloadKind::Cirne, 20, 8, 3);
    let mut ctx = SchedulerContext::new();
    registry()
        .by_name("gang")
        .unwrap()
        .schedule(&inst, &mut ctx);
    registry()
        .by_name("sequential")
        .unwrap()
        .schedule(&inst, &mut ctx);
    assert_eq!(ctx.dual_runs(), 0);
}

#[test]
fn adapters_agree_with_the_original_free_functions() {
    // The adapters are thin wrappers: same schedules as the historical
    // entry points, so the original unit suites keep their meaning.
    let inst = generate(WorkloadKind::HighlyParallel, 30, 12, 9);
    let dual = dual_approx(&inst, &DualConfig::default());
    let mut ctx = SchedulerContext::new();
    let mut by = |name: &str| {
        registry()
            .by_name(name)
            .unwrap()
            .schedule(&inst, &mut ctx)
            .schedule
    };
    assert_eq!(
        by("demt"),
        demt_schedule(&inst, &DemtConfig::default()).schedule
    );
    assert_eq!(by("gang"), gang(&inst));
    assert_eq!(by("sequential"), sequential_lptf(&inst));
    assert_eq!(by("list"), list_shelf(&inst, &dual));
    assert_eq!(by("lptf"), list_wlptf(&inst, &dual));
    assert_eq!(by("saf"), list_saf(&inst, &dual));
}

#[test]
fn placements_audit_clean_on_intervals_and_replay_byte_identically() {
    // The ProcSet migration contract, per registry entry: the interval
    // audit passes directly on the interval sets, every placement's
    // ranges are canonical (sorted, disjoint, non-adjacent), and a
    // second run from a fresh context serializes byte-for-byte.
    for kind in WorkloadKind::ALL {
        let inst = generate(kind, 25, 8, 7);
        for s in registry().all() {
            let first = s.schedule(&inst, &mut SchedulerContext::new());
            validate_no_overlap(&first.schedule)
                .unwrap_or_else(|e| panic!("{kind}/{}: {e}", s.name()));
            for p in first.schedule.placements() {
                for w in p.procs.ranges().windows(2) {
                    assert!(
                        w[0].1 + 1 < w[1].0,
                        "{kind}/{}: non-canonical interval set {:?}",
                        s.name(),
                        p.procs
                    );
                }
            }
            let second = s.schedule(&inst, &mut SchedulerContext::new());
            assert_eq!(
                serde_json::to_string(&first.schedule).unwrap(),
                serde_json::to_string(&second.schedule).unwrap(),
                "{kind}/{}: replay diverged",
                s.name()
            );
        }
    }
}

#[test]
fn every_scheduler_conforms_under_the_hierarchy_adapter() {
    // 2 clusters × 2 nodes × 2 cores = the 8-processor machine the
    // conformance instances use; every entry must stay valid with
    // whole-node (even-aligned 2-core) allotments and criteria that
    // match a fresh evaluation on the *original* instance.
    let h = Hierarchy::parse("2x2x2").unwrap();
    for kind in WorkloadKind::ALL {
        let inst = generate(kind, 20, 8, 5);
        for s in registry().all() {
            let wrapped = HierarchicalScheduler::new(s, h);
            let report = wrapped.schedule(&inst, &mut SchedulerContext::new());
            validate(&inst, &report.schedule)
                .unwrap_or_else(|e| panic!("{kind}/{}: {e}", wrapped.name()));
            let fresh = Criteria::evaluate(&inst, &report.schedule);
            assert_eq!(
                report.criteria,
                fresh,
                "{kind}/{}: criteria diverge from fresh evaluation",
                wrapped.name()
            );
            for p in report.schedule.placements() {
                for &(lo, hi) in p.procs.ranges() {
                    assert!(
                        lo % 2 == 0 && hi % 2 == 1,
                        "{kind}/{}: allotment {:?} splits a node",
                        wrapped.name(),
                        p.procs
                    );
                }
            }
        }
    }
}

#[test]
fn every_entry_reports_its_exact_phase_list() {
    // The phase names (and their order) are part of the `--metrics
    // json` report; pin them per entry, plain and under the hierarchy
    // adapter, which appends its own "expand" phase.
    let expected = |name: &str| -> &[&str] {
        match name {
            "demt" => &["dual", "batch+compact"],
            "list" | "lptf" | "saf" => &["dual", "list"],
            "gang" | "sequential" => &["list"],
            other => panic!("{other}: no expected phase list"),
        }
    };
    let phases =
        |r: &ScheduleReport| -> Vec<String> { r.phases.iter().map(|p| p.phase.clone()).collect() };
    let h = Hierarchy::parse("2x2x2").unwrap();
    let inst = generate(WorkloadKind::Mixed, 20, 8, 5);
    let empty = InstanceBuilder::new(8).build().unwrap();
    for s in registry().all() {
        let plain = s.schedule(&inst, &mut SchedulerContext::new());
        assert_eq!(phases(&plain), expected(s.name()), "{}", s.name());

        let wrapped = HierarchicalScheduler::new(s, h);
        let mut nested = expected(s.name()).to_vec();
        nested.push("expand");
        let report = wrapped.schedule(&inst, &mut SchedulerContext::new());
        assert_eq!(phases(&report), nested, "{}", wrapped.name());

        // On the empty instance the dual is undefined, so the entries
        // that draw it return before any phase; the dual-free entries
        // still run (and time) their list pass.
        let mut on_empty: Vec<&str> = match s.name() {
            "gang" | "sequential" => vec!["list"],
            _ => vec![],
        };
        let report = s.schedule(&empty, &mut SchedulerContext::new());
        assert_eq!(phases(&report), on_empty, "{}: empty", s.name());
        on_empty.push("expand");
        let report = wrapped.schedule(&empty, &mut SchedulerContext::new());
        assert_eq!(phases(&report), on_empty, "{}: empty", wrapped.name());
    }
}

#[test]
fn serve_placements_are_byte_identical_for_one_and_four_workers() {
    // The daemon's worker pool only parallelizes lifting and
    // serialization; per registry entry, workers=1 and workers=4 must
    // emit the same bytes.
    let events: Vec<JobEvent> = (0..14)
        .map(|i| JobEvent::submit_rigid(i, (i / 3) as f64, 1.0, 1 + i % 5, 1.0 + (i % 3) as f64))
        .collect();
    let run = |algorithm: &str, workers: usize| {
        let mut cfg = ServeConfig::new(8);
        cfg.algorithm = algorithm.to_string();
        cfg.workers = workers;
        let mut out = Vec::new();
        let mut stats = ServeStats::new(cfg.procs);
        run_events(
            &cfg,
            events
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, e)| Ok((i + 1, e))),
            &mut out,
            &mut stats,
            None,
        )
        .unwrap_or_else(|e| panic!("{algorithm}: {e}"));
        out
    };
    for s in registry().all() {
        assert_eq!(
            run(s.name(), 1),
            run(s.name(), 4),
            "{}: workers=1 vs workers=4 diverged",
            s.name()
        );
    }
}
