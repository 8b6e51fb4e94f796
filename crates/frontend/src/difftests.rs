//! Differential suite for the queue engine: on random rigid job
//! streams, sorted by release where they were drawn unsorted, the
//! streamed [`replay_queue`](crate::replay_queue) must reproduce the
//! independent rescan loop `queue_schedule_scan` **bit for bit**
//! under every policy and order — compared as serialized JSON, so
//! every start instant, duration and processor identity list
//! participates in the equality. This is the contract that makes the
//! queue rows of `demt frontend`, `demt swf` and replaybench's EASY
//! leg independent of streaming versus materialization.

use crate::easy::{queue_schedule_scan, replay_schedule};
use crate::replay_queue;
use crate::{QueueOrder, QueuePolicy, SubmittedJob};
use demt_model::{MoldableTask, TaskId};
use demt_platform::{validate_no_overlap, Schedule};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const POLICIES: [QueuePolicy; 2] = [QueuePolicy::Fcfs, QueuePolicy::EasyBackfill];
const ORDERS: [QueueOrder; 2] = [QueueOrder::Arrival, QueueOrder::Priority];

fn json(s: &Schedule) -> String {
    serde_json::to_string(s).expect("schedules serialize")
}

fn job(id: usize, release: f64, procs: usize, time: f64, weight: f64, m: usize) -> SubmittedJob {
    SubmittedJob {
        task: MoldableTask::rigid(TaskId(id), weight, procs, time, m)
            .expect("rigid profiles are valid"),
        release,
        rigid_procs: procs,
    }
}

/// Continuous stream: arbitrary float releases, durations and weights.
/// `sorted` accumulates releases from gaps in `[0, 3)` (the streamed
/// engine needs a release-sorted feed); otherwise each release is drawn
/// on its own from `[0, 30)`.
fn continuous_stream(sorted: bool) -> impl Strategy<Value = (usize, Vec<SubmittedJob>)> {
    let span = if sorted { 3.0 } else { 30.0 };
    (2usize..=6).prop_flat_map(move |m| {
        prop::collection::vec((0.0f64..span, 1usize..=m, 0.1f64..6.0, 0.5f64..10.0), 0..32)
            .prop_map(move |rows| {
                let mut clock = 0.0;
                let jobs = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, k, d, w))| {
                        clock = if sorted { clock + r } else { r };
                        job(i, clock, k, d, w, m)
                    })
                    .collect();
                (m, jobs)
            })
    })
}

/// Grid stream: releases and durations on a coarse 0.25 grid so exact
/// completion/arrival ties (the tolerance-sensitive paths) are common.
/// `sorted` accumulates releases from gaps of 0–3 steps; otherwise each
/// release is drawn on its own from 0–39 steps.
fn grid_stream(sorted: bool) -> impl Strategy<Value = (usize, Vec<SubmittedJob>)> {
    let steps = if sorted { 4 } else { 40 };
    (2usize..=5).prop_flat_map(move |m| {
        prop::collection::vec((0u32..steps, 1usize..=m, 1u32..12, 1u32..5), 0..28).prop_map(
            move |rows| {
                let mut clock = 0;
                let jobs = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (r, k, d, w))| {
                        clock = if sorted { clock + r } else { r };
                        let (release, time) = (f64::from(clock) * 0.25, f64::from(d) * 0.25);
                        job(i, release, k, time, f64::from(w), m)
                    })
                    .collect();
                (m, jobs)
            },
        )
    })
}

/// Tie-heavy unit-weight stream on small machines: small width and
/// runtime menus and coinciding releases.
fn arb_job_stream() -> impl Strategy<Value = (usize, Vec<SubmittedJob>)> {
    (2usize..8, 1usize..14)
        .prop_flat_map(|(m, n)| {
            let jobs = prop::collection::vec((0usize..m, 0usize..3, 0usize..3), n..=n);
            (Just(m), jobs)
        })
        .prop_map(|(m, raw)| {
            let jobs = raw
                .into_iter()
                .enumerate()
                .map(|(i, (w, d, r))| {
                    job(i, [0.0, 0.5, 2.0][r], 1 + w % m, [1.0, 2.0, 3.0][d], 1.0, m)
                })
                .collect();
            (m, jobs)
        })
}

/// Overload stream: bursts of grid releases far faster than the machine
/// drains them, so the waiting queue grows well past one block (32
/// jobs) and blocks split and merge. Widths come from a menu around
/// `m/2` and `m`, so a candidate's width often equals the free count
/// or the reservation's slack; weights from {1, 2}, so priority order
/// inserts mid-queue among many equal-weight ties; runtimes on a 0.25
/// grid, some nudged by ±1e-13 or +9e-13, so backfill completions land
/// within the 1e-12 tolerance of the head's reservation from either
/// side.
fn overload_stream() -> impl Strategy<Value = (usize, Vec<SubmittedJob>)> {
    (4usize..=12).prop_flat_map(|m| {
        let row = (0u32..4, 0usize..6, 1u32..10, 0usize..4, 1u32..3);
        prop::collection::vec(row, 60..160).prop_map(move |rows| {
            let half = m / 2;
            let widths = [1, half - 1, half, half + 1, m - 1, m];
            let nudges = [0.0, 1e-13, -1e-13, 9e-13];
            let mut clock = 0;
            let jobs = rows
                .into_iter()
                .enumerate()
                .map(|(i, (gap, w, d, nudge, weight))| {
                    // Three in four gaps are zero: arrivals come in bursts.
                    clock += u32::from(gap == 3);
                    let time = f64::from(d) * 0.25 + nudges[nudge];
                    let release = f64::from(clock) * 0.25;
                    job(i, release, widths[w], time, f64::from(weight), m)
                })
                .collect();
            (m, jobs)
        })
    })
}

/// An unsorted stream in the engine's feed order: by release, ties in
/// slice order.
fn by_release(jobs: &[SubmittedJob]) -> Vec<SubmittedJob> {
    let mut sorted = jobs.to_vec();
    sorted.sort_by(|a, b| a.release.total_cmp(&b.release));
    sorted
}

/// The streamed engine against the oracle on a release-sorted feed,
/// every policy and order.
fn assert_stream_matches(m: usize, jobs: &[SubmittedJob]) -> Result<(), TestCaseError> {
    for policy in POLICIES {
        for order in ORDERS {
            let reference = queue_schedule_scan(m, jobs, policy, order);
            let mut streamed = Schedule::new(m);
            let outcome = replay_queue(m, jobs.iter().cloned(), policy, order, |j, p| {
                assert_eq!(j.task.id(), p.task);
                streamed.push(p.clone());
            })
            .expect("sorted valid feeds replay cleanly");
            prop_assert_eq!(
                json(&streamed),
                json(&reference),
                "engines diverge under {:?}/{:?} on m={}",
                policy,
                order,
                m
            );
            prop_assert_eq!(outcome.decisions, jobs.len());
            prop_assert!((outcome.makespan - reference.makespan()).abs() < 1e-12);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn queue_engine_matches_the_scan_oracle_continuous((m, jobs) in continuous_stream(false)) {
        assert_stream_matches(m, &by_release(&jobs))?;
    }

    #[test]
    fn queue_engine_matches_the_scan_oracle_on_tie_heavy_grids((m, jobs) in grid_stream(false)) {
        assert_stream_matches(m, &by_release(&jobs))?;
    }

    #[test]
    fn streamed_replay_matches_the_scan_oracle((m, jobs) in continuous_stream(true)) {
        assert_stream_matches(m, &jobs)?;
    }

    #[test]
    fn streamed_replay_matches_on_tie_heavy_grids((m, jobs) in grid_stream(true)) {
        assert_stream_matches(m, &jobs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn queue_engine_matches_the_scan_oracle_under_overload((m, jobs) in overload_stream()) {
        assert_stream_matches(m, &jobs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn easy_queue_engines_agree_byte_for_byte((m, jobs) in arb_job_stream()) {
        let jobs = by_release(&jobs);
        for policy in POLICIES {
            let engine = replay_schedule(m, &jobs, policy, QueueOrder::Arrival);
            let scan = queue_schedule_scan(m, &jobs, policy, QueueOrder::Arrival);
            prop_assert_eq!(json(&engine), json(&scan), "{:?} diverged", policy);
            prop_assert!(validate_no_overlap(&engine).is_ok());
        }
    }
}

#[test]
fn streamed_replay_matches_the_scan_oracle_on_a_fixed_stream() {
    let m = 4;
    let jobs: Vec<SubmittedJob> = (0..30)
        .map(|i| {
            let time = 0.3 + (i % 6) as f64 * 0.45;
            job(i, i as f64 * 0.25, 1 + (i * 3) % 4, time, 1.0, m)
        })
        .collect();
    assert_stream_matches(m, &jobs).unwrap();
}
