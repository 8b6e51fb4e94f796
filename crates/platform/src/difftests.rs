//! Differential suite: the event-ordered engines against the retained
//! references, compared **byte for byte** on tie-heavy grids (equal
//! durations, ready times and completion events put all the weight on
//! tie-breaking):
//!
//! * the list engine against the pre-skyline scan
//!   (`list_schedule_scan`), on random lists, on fixed corner cases and
//!   on the `demt listbench` grids;
//! * conservative backfilling against a pure-`Vec` reimplementation
//!   without the skyline pre-filter, and its reservation invariants.

use crate::list::list_schedule_scan;
use crate::{
    backfill_schedule, bench_grid, list_schedule, try_list_schedule, validate_no_overlap, ListTask,
    Placement, Reservation, Schedule,
};
use demt_model::{ProcSet, TaskId};
use proptest::prelude::*;

fn json(s: &Schedule) -> String {
    serde_json::to_string(s).unwrap()
}

fn lt(id: usize, alloc: usize, duration: f64) -> ListTask {
    ListTask::new(TaskId(id), alloc, duration)
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

/// Pure-Vec conservative backfilling: the `backfill_schedule` algorithm
/// with the skyline pre-filter removed and `Vec<u32>` bookkeeping —
/// the documented "sound filter" claim means placements must match the
/// engine exactly.
fn backfill_reference(m: usize, tasks: &[ListTask], reservations: &[Reservation]) -> Schedule {
    let mut busy: Vec<Vec<(f64, f64)>> = vec![Vec::new(); m];
    let free_during = |busy: &[Vec<(f64, f64)>], q: usize, s: f64, e: f64| {
        busy[q]
            .iter()
            .all(|&(bs, be)| e <= bs + 1e-12 || s >= be - 1e-12)
    };
    for r in reservations {
        for &q in &r.procs {
            busy[q as usize].push((r.start, r.end()));
        }
    }
    let mut schedule = Schedule::new(m);
    for t in tasks {
        let mut candidates: Vec<f64> = vec![t.ready];
        for p in &busy {
            for &(_, be) in p {
                if be > t.ready - 1e-12 {
                    candidates.push(be);
                }
            }
        }
        candidates.sort_by(|a, b| a.total_cmp(b));
        candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        for &s in &candidates {
            let e = s + t.duration;
            let free: Vec<u32> = (0..m as u32)
                .filter(|&q| free_during(&busy, q as usize, s, e))
                .collect();
            if free.len() >= t.alloc {
                let procs: Vec<u32> = free[..t.alloc].to_vec();
                for &q in &procs {
                    let pos = busy[q as usize].partition_point(|&(bs, _)| bs < s);
                    busy[q as usize].insert(pos, (s, e));
                }
                schedule.push(Placement {
                    task: t.id,
                    start: s,
                    duration: t.duration,
                    procs: ProcSet::from_ids(procs),
                });
                break;
            }
        }
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn skyline_engine_matches_scan_reference_byte_for_byte((m, tasks) in arb_raw_list()) {
        let sky = list_schedule(m, &tasks);
        let scan = list_schedule_scan(m, &tasks);
        prop_assert_eq!(&sky, &scan, "schedules diverge");
        // Byte-identical serialization, the form `demt listbench` emits.
        prop_assert_eq!(json(&sky), json(&scan), "JSON bytes diverge");
        // And no engine placement ever overlaps on a processor.
        prop_assert!(validate_no_overlap(&sky).is_ok(), "{:?}", validate_no_overlap(&sky));
    }

    #[test]
    fn backfill_prefilter_preserves_placements_and_never_overlaps(
        (m, tasks) in arb_raw_list(),
        rraw in prop::collection::vec((0usize..10, 1usize..4, 0usize..8), 0..3),
    ) {
        // Reservations derived from the drawn grid, staggered so they
        // never overlap on a processor: reservation j uses a disjoint
        // time window per proc stripe.
        let reservations: Vec<Reservation> = rraw
            .iter()
            .enumerate()
            .map(|(j, &(sraw, len, praw))| {
                let procs: Vec<u32> = (0..m as u32).filter(|q| (*q as usize + praw).is_multiple_of(3)).collect();
                Reservation {
                    start: 20.0 * j as f64 + sraw as f64,
                    duration: len as f64,
                    procs,
                }
            })
            .filter(|r| !r.procs.is_empty())
            .collect();
        let s = backfill_schedule(m, &tasks, &reservations);
        prop_assert_eq!(s.len(), tasks.len());
        prop_assert!(validate_no_overlap(&s).is_ok(), "{:?}", validate_no_overlap(&s));
        // No placement intrudes into a reservation window.
        for p in s.placements() {
            for r in &reservations {
                for &q in &r.procs {
                    if p.procs.contains(q) {
                        let disjoint = p.completion() <= r.start + 1e-9 || p.start >= r.end() - 1e-9;
                        prop_assert!(disjoint, "{} collides with a reservation on {q}", p.task);
                    }
                }
            }
        }
        // Ready times are honoured (up to the candidate dedup slack).
        for p in s.placements() {
            prop_assert!(p.start >= tasks[p.task.index()].ready - 1e-9);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn list_engines_agree_byte_for_byte((m, tasks) in arb_tie_grid()) {
        let engine = try_list_schedule(m, &tasks).unwrap();
        let scan = list_schedule_scan(m, &tasks);
        prop_assert_eq!(json(&engine), json(&scan));
        prop_assert!(validate_no_overlap(&engine).is_ok());
    }

    #[test]
    fn backfill_engine_matches_the_vec_reference(
        (m, tasks) in arb_tie_grid(),
        window in (0usize..3, 1usize..3),
    ) {
        // One deterministic maintenance window derived from the grid,
        // plus the reservation-free case when it would be degenerate.
        let reservations = if m > 1 {
            vec![Reservation {
                start: window.0 as f64,
                duration: window.1 as f64,
                procs: vec![0, (m as u32) - 1],
            }]
        } else {
            Vec::new()
        };
        let engine = backfill_schedule(m, &tasks, &reservations);
        let reference = backfill_reference(m, &tasks, &reservations);
        prop_assert_eq!(json(&engine), json(&reference));
        prop_assert!(validate_no_overlap(&engine).is_ok());
    }
}

#[test]
fn skyline_and_scan_agree_on_fixed_corner_cases() {
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
        let sky = list_schedule(m, &tasks);
        let scan = list_schedule_scan(m, &tasks);
        assert_eq!(sky, scan, "m={m}");
    }
}

#[test]
fn engines_agree_on_the_listbench_grids() {
    // The grids `demt listbench --tasks 3000 --seed 11` schedules at
    // every machine size the engine's perf guard runs.
    for m in [200, 1000, 10_000] {
        let grid = bench_grid(3000, m, 11);
        let sky = list_schedule(m, &grid);
        let scan = list_schedule_scan(m, &grid);
        assert_eq!(sky.len(), grid.len(), "m={m}");
        // Not assert_eq!: a 3000-placement Debug dump helps no one.
        assert!(json(&sky) == json(&scan), "m={m}: bytes diverge");
    }
}
