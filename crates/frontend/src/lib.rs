//! # demt-frontend — cluster front-end simulation
//!
//! The production context of the paper (Fig. 1: a front-end node with
//! priority queues feeding the cluster; §1.2: FCFS job schedulers and
//! MAUI-style backfilling as the state of practice). This crate lets
//! the reproduction answer the paper's motivating question end to end:
//! *what do users gain when the front-end schedules moldable jobs with
//! DEMT instead of queueing rigid requests?*
//!
//! * [`submit_stream`] — Poisson job arrivals over any workload family,
//!   with the "knee, rounded up to a power of two" rigid-request habit;
//! * [`replay_queue`] — the FCFS and EASY-backfilling engine over those
//!   rigid requests, streamed one placement at a time;
//! * the moldable side reuses `demt-online`
//!   (`stream_batch_schedule`: SWW batches over DEMT);
//! * [`ReplayMetrics`] — waiting time, response time, bounded slowdown
//!   and utilization, folded from either engine's placements.
//!
//! ```
//! use demt_frontend::{submit_stream, replay_queue, QueueOrder, QueuePolicy,
//!                     ReplayMetrics, StreamSpec};
//! use demt_workload::WorkloadKind;
//! let spec = StreamSpec {
//!     kind: WorkloadKind::Cirne, jobs: 30, procs: 16,
//!     mean_interarrival: 0.8, seed: 3,
//!     ..StreamSpec::default()
//! };
//! let jobs = submit_stream(&spec);
//! let mut metrics = ReplayMetrics::new();
//! replay_queue(16, jobs, QueuePolicy::EasyBackfill, QueueOrder::Arrival, |job, p| {
//!     metrics.record(p.task, job.release, p.start, p.duration, p.procs.len()).unwrap();
//! })
//! .unwrap();
//! assert!(metrics.finish(16).unwrap().mean_response > 0.0);
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod difftests;
mod easy;
mod metrics;
mod replay;
mod stream;
mod swf;

pub use easy::{QueueOrder, QueuePolicy};
pub use metrics::{MetricsError, ReplayMetrics, ReplaySummary, SLOWDOWN_TAU};
pub use replay::{replay_queue, ReplayError, ReplayOutcome};
pub use stream::{rigid_request, submit_stream, ArrivalModel, StreamSpec, SubmittedJob};
pub use swf::{
    lift_swf_record, stream_from_swf, write_swf, SwfError, SwfJobStream, SwfLiftError, SwfReader,
    SwfRecord,
};

use demt_model::{Instance, ModelError, MoldableTask};

/// Builds the *rigid* instance a queue scheduler effectively runs (each
/// job pinned at its request) — used to validate queue schedules with
/// the workspace validator. Rejects a request that does not fit `m`
/// processors, or ids that are not dense `0..n`, with the model's
/// [`ModelError`].
pub fn rigid_instance(m: usize, jobs: &[SubmittedJob]) -> Result<Instance, ModelError> {
    let tasks = jobs
        .iter()
        .map(|j| {
            let (id, weight) = (j.task.id(), j.task.weight());
            MoldableTask::rigid(id, weight, j.rigid_procs, j.rigid_time(), m)
        })
        .collect::<Result<_, _>>()?;
    Instance::new(m, tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::easy::replay_schedule;
    use demt_core::DemtScheduler;
    use demt_online::{stream_batch_schedule, OnlineJob};
    use demt_platform::{validate_with_releases, Placement, Schedule};
    use demt_workload::WorkloadKind;

    fn spec() -> StreamSpec {
        StreamSpec {
            kind: WorkloadKind::Mixed,
            jobs: 40,
            procs: 16,
            mean_interarrival: 0.4,
            seed: 11,
            ..StreamSpec::default()
        }
    }

    /// Folds `placements` (with their release dates) into the summary.
    fn summary<'a>(
        m: usize,
        rows: impl IntoIterator<Item = (f64, &'a Placement)>,
    ) -> ReplaySummary {
        let mut metrics = ReplayMetrics::new();
        for (release, p) in rows {
            metrics
                .record(p.task, release, p.start, p.duration, p.procs.len())
                .unwrap();
        }
        metrics.finish(m).unwrap()
    }

    /// The queue engine's summary of `jobs` under `policy`.
    fn queue_summary(m: usize, jobs: &[SubmittedJob], policy: QueuePolicy) -> ReplaySummary {
        let s = replay_schedule(m, jobs, policy, QueueOrder::Arrival);
        summary(
            m,
            s.placements()
                .iter()
                .map(|p| (jobs[p.task.index()].release, p)),
        )
    }

    #[test]
    fn queue_schedules_validate_against_the_rigid_instance() {
        let jobs = submit_stream(&spec());
        let inst = rigid_instance(16, &jobs).unwrap();
        let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
        for policy in [QueuePolicy::Fcfs, QueuePolicy::EasyBackfill] {
            let s = replay_schedule(16, &jobs, policy, QueueOrder::Arrival);
            validate_with_releases(&inst, &s, Some(&releases))
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn moldable_path_validates_and_beats_fcfs_on_waits() {
        let jobs = submit_stream(&spec());
        let inst = Instance::new(16, jobs.iter().map(|j| j.task.clone()).collect()).unwrap();
        let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
        let online = jobs.iter().map(|j| OnlineJob {
            task: j.task.clone(),
            release: j.release,
        });
        let mut demt = Schedule::new(16);
        stream_batch_schedule(16, online, &DemtScheduler, |placements, _| {
            for p in placements {
                demt.push(p.clone());
            }
        })
        .expect("valid stream");
        validate_with_releases(&inst, &demt, Some(&releases)).unwrap();

        let m_demt = summary(
            16,
            demt.placements()
                .iter()
                .map(|p| (releases[p.task.index()], p)),
        );
        let m_fcfs = queue_summary(16, &jobs, QueuePolicy::Fcfs);
        // The headline of the paper's pitch: moldability + DEMT lowers
        // the average response time versus rigid FCFS.
        assert!(
            m_demt.mean_response < m_fcfs.mean_response,
            "DEMT {} vs FCFS {}",
            m_demt.mean_response,
            m_fcfs.mean_response
        );
    }

    #[test]
    fn easy_improves_on_fcfs_for_congested_streams() {
        let mut s = spec();
        s.mean_interarrival = 0.15; // heavy congestion
        let jobs = submit_stream(&s);
        let (fcfs, easy) = (
            queue_summary(16, &jobs, QueuePolicy::Fcfs),
            queue_summary(16, &jobs, QueuePolicy::EasyBackfill),
        );
        assert!(
            easy.mean_wait <= fcfs.mean_wait + 1e-9,
            "EASY wait {} vs FCFS {}",
            easy.mean_wait,
            fcfs.mean_wait
        );
    }
}
