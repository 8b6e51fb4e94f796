//! Differential oracle for the streaming queue engine: on random
//! release-sorted rigid job feeds, [`replay_queue`] must emit
//! placements **bit for bit** equal to the independent rescan loop
//! [`queue_schedule_scan`] on the collected stream — compared as
//! serialized JSON, so every start instant, duration, and processor
//! identity list participates. This is the contract that makes
//! replaybench's EASY leg independent of streaming versus
//! materialization.

use demt_frontend::{queue_schedule_scan, replay_queue, QueueOrder, QueuePolicy, SubmittedJob};
use demt_model::{MoldableTask, TaskId};
use demt_platform::Schedule;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn job(id: usize, release: f64, procs: usize, time: f64, weight: f64, m: usize) -> SubmittedJob {
    SubmittedJob {
        task: MoldableTask::rigid(TaskId(id), weight, procs, time, m)
            .expect("rigid profiles are valid"),
        release,
        rigid_procs: procs,
    }
}

/// Release-sorted continuous stream (the replay engines require sorted
/// feeds, so releases are accumulated from non-negative gaps).
fn sorted_stream() -> impl Strategy<Value = (usize, Vec<SubmittedJob>)> {
    (2usize..=6).prop_flat_map(|m| {
        prop::collection::vec((0.0f64..3.0, 1usize..=m, 0.1f64..6.0, 0.5f64..10.0), 0..32).prop_map(
            move |rows| {
                let mut clock = 0.0;
                let jobs = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (gap, k, d, w))| {
                        clock += gap;
                        job(i, clock, k, d, w, m)
                    })
                    .collect();
                (m, jobs)
            },
        )
    })
}

/// Tie-heavy grid stream: gaps and durations on a coarse 0.25 grid so
/// exact completion/arrival coincidences (the tolerance-sensitive
/// paths) are common.
fn grid_stream() -> impl Strategy<Value = (usize, Vec<SubmittedJob>)> {
    (2usize..=5).prop_flat_map(|m| {
        prop::collection::vec((0u32..4, 1usize..=m, 1u32..12, 1u32..5), 0..28).prop_map(
            move |rows| {
                let mut clock = 0.0;
                let jobs = rows
                    .into_iter()
                    .enumerate()
                    .map(|(i, (gap, k, d, w))| {
                        clock += f64::from(gap) * 0.25;
                        job(i, clock, k, f64::from(d) * 0.25, f64::from(w), m)
                    })
                    .collect();
                (m, jobs)
            },
        )
    })
}

fn assert_stream_matches(m: usize, jobs: &[SubmittedJob]) -> Result<(), TestCaseError> {
    for policy in [QueuePolicy::Fcfs, QueuePolicy::EasyBackfill] {
        for order in [QueueOrder::Arrival, QueueOrder::Priority] {
            let reference = queue_schedule_scan(m, jobs, policy, order);
            let mut streamed = Schedule::new(m);
            let outcome = replay_queue(m, jobs.iter().cloned(), policy, order, |j, p| {
                streamed.push(p.clone());
                let _ = j;
            });
            let outcome = outcome.expect("sorted valid feeds replay cleanly");
            let streamed_json = serde_json::to_string(&streamed).expect("schedules serialize");
            let reference_json = serde_json::to_string(&reference).expect("schedules serialize");
            prop_assert_eq!(
                streamed_json,
                reference_json,
                "engines diverge under {:?}/{:?} on m={}",
                policy,
                order,
                m
            );
            prop_assert_eq!(outcome.decisions, jobs.len());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streamed_replay_matches_the_scan_oracle((m, jobs) in sorted_stream()) {
        assert_stream_matches(m, &jobs)?;
    }

    #[test]
    fn streamed_replay_matches_on_tie_heavy_grids((m, jobs) in grid_stream()) {
        assert_stream_matches(m, &jobs)?;
    }
}
