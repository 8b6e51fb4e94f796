//! Differential suite: the event-ordered list engine against its
//! retained reference, compared **byte for byte** on tie-heavy grids (equal
//! durations, ready times and completion events put all the weight on
//! tie-breaking):
//!
//! * the list engine against its full-rescan reference
//!   (`list_schedule_scan`), on random lists, on fixed corner cases and
//!   on the `demt listbench` grids;
//! * the engine's count ledger (`list_completions`) against the
//!   completions of its `FreeSet` ledger (`list_schedule`), bit for bit,
//!   on the same grids.

use crate::list::list_schedule_scan;
use crate::{
    bench_grid, list_completions, list_schedule, try_list_schedule, validate_no_overlap, ListTask,
    Schedule,
};
use demt_model::TaskId;
use proptest::prelude::*;

fn json(s: &Schedule) -> String {
    serde_json::to_string(s).unwrap()
}

fn lt(id: usize, alloc: usize, duration: f64) -> ListTask {
    ListTask::new(TaskId(id), alloc, duration)
}

/// Whether `list_completions` gives, for every list position, the bits
/// of the completion of the placement `list_schedule` makes for it.
/// Task ids equal list positions in every grid here.
fn completions_match_placements(m: usize, tasks: &[ListTask], s: &Schedule) -> bool {
    let mut placed = vec![f64::NAN; tasks.len()];
    for p in s.placements() {
        placed[p.task.index()] = p.completion();
    }
    let counted = list_completions(m, tasks).unwrap();
    counted.len() == placed.len()
        && counted
            .iter()
            .zip(&placed)
            .all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Raw `ListTask` lists: durations and ready times drawn from small
/// discrete grids so exact f64 **ties** (equal completion events,
/// simultaneous releases) occur constantly — the territory where an
/// engine's tie handling shows. Mixed widths on machines up to 149
/// processors fragment the engine's free-processor interval set into
/// many runs, so takes and releases split and merge segments, not just
/// one prefix.
fn arb_raw_list() -> impl Strategy<Value = (usize, Vec<ListTask>)> {
    (1usize..150, 0usize..40)
        .prop_flat_map(|(m, n)| {
            let tasks =
                prop::collection::vec((0usize..100, 0usize..8, 0usize..6, 0usize..10), n..=n);
            (Just(m), tasks)
        })
        .prop_map(|(m, raw)| {
            const DURATIONS: [f64; 8] = [0.5, 1.0, 1.0, 1.5, 2.5, 2.5, 4.0, 0.125];
            const READIES: [f64; 6] = [0.0, 0.0, 0.0, 1.0, 2.5, 6.0];
            let tasks = raw
                .into_iter()
                .enumerate()
                .map(|(i, (kraw, draw, rraw, wide))| {
                    // ~10% full-machine tasks force serialization points.
                    let alloc = if wide == 0 { m } else { 1 + kraw % m };
                    let mut t = ListTask::new(TaskId(i), alloc, DURATIONS[draw]);
                    t.ready = READIES[rraw];
                    t
                })
                .collect();
            (m, tasks)
        })
}

/// Tie-heavy task list on small machines: durations from a 3-value
/// menu and ready times from a 2-value menu, so many events coincide
/// exactly and the tie-breaking order inside the engines carries all
/// the weight.
fn arb_tie_grid() -> impl Strategy<Value = (usize, Vec<ListTask>)> {
    (2usize..8, 1usize..20)
        .prop_flat_map(|(m, n)| {
            let tasks = prop::collection::vec((0usize..m, 0usize..3, 0usize..2), n..=n);
            (Just(m), tasks)
        })
        .prop_map(|(m, raw)| {
            let tasks = raw
                .into_iter()
                .enumerate()
                .map(|(i, (alloc, d, r))| {
                    let mut t = ListTask::new(TaskId(i), 1 + alloc % m, [1.0, 2.0, 0.5][d]);
                    t.ready = [0.0, 1.0][r];
                    t
                })
                .collect();
            (m, tasks)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn list_engine_matches_scan_reference_byte_for_byte((m, tasks) in arb_raw_list()) {
        let engine = list_schedule(m, &tasks);
        let scan = list_schedule_scan(m, &tasks);
        prop_assert_eq!(&engine, &scan, "schedules diverge");
        // Byte-identical serialization, the form `demt listbench` emits.
        prop_assert_eq!(json(&engine), json(&scan), "JSON bytes diverge");
        // And no engine placement ever overlaps on a processor.
        prop_assert!(validate_no_overlap(&engine).is_ok(), "{:?}", validate_no_overlap(&engine));
        prop_assert!(completions_match_placements(m, &tasks, &engine), "count ledger diverges");
    }

    #[test]
    fn list_engines_agree_byte_for_byte((m, tasks) in arb_tie_grid()) {
        let engine = try_list_schedule(m, &tasks).unwrap();
        let scan = list_schedule_scan(m, &tasks);
        prop_assert_eq!(json(&engine), json(&scan));
        prop_assert!(validate_no_overlap(&engine).is_ok());
        prop_assert!(completions_match_placements(m, &tasks, &engine), "count ledger diverges");
    }
}

#[test]
fn list_engine_and_scan_agree_on_fixed_corner_cases() {
    // Ties everywhere: equal durations, equal ready times, widths
    // that exactly exhaust the machine, a blocked head, no tasks, and
    // at scale 1000 unit tasks whose completions coincide 64 at a time.
    let cases: Vec<(usize, Vec<ListTask>)> = vec![
        (3, Vec::new()),
        (1, vec![lt(0, 1, 1.0), lt(1, 1, 1.0), lt(2, 1, 1.0)]),
        (
            4,
            vec![lt(0, 4, 2.0), lt(1, 2, 2.0), lt(2, 2, 2.0), lt(3, 3, 1.0)],
        ),
        (5, {
            let mut v = vec![lt(0, 5, 1.5), lt(1, 1, 3.0), lt(2, 4, 1.5)];
            v[1].ready = 1.5;
            v.push(lt(3, 2, 1.5));
            v
        }),
        (
            6,
            (0..12)
                .map(|i| lt(i, 1 + i % 3, 0.5 + (i % 4) as f64))
                .collect(),
        ),
        (64, (0..1000).map(|i| lt(i, 1, 1.0)).collect()),
    ];
    for (m, tasks) in cases {
        let engine = list_schedule(m, &tasks);
        let scan = list_schedule_scan(m, &tasks);
        assert_eq!(engine, scan, "m={m}");
        assert!(completions_match_placements(m, &tasks, &engine), "m={m}");
    }
}

#[test]
fn engines_agree_on_the_listbench_grids() {
    // The grids `demt listbench --tasks 3000 --seed 11` schedules at
    // every machine size the engine's perf guard runs.
    for m in [200, 1000, 10_000] {
        let grid = bench_grid(3000, m, 11);
        let engine = list_schedule(m, &grid);
        let scan = list_schedule_scan(m, &grid);
        assert_eq!(engine.len(), grid.len(), "m={m}");
        // Not assert_eq!: a 3000-placement Debug dump helps no one.
        assert!(json(&engine) == json(&scan), "m={m}: bytes diverge");
        assert!(
            completions_match_placements(m, &grid, &engine),
            "m={m}: count ledger diverges"
        );
    }
}
