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
//! * [`queue_schedule`] — FCFS and EASY-backfilling engines over those
//!   rigid requests;
//! * the moldable side reuses `demt-online` (SWW batches over DEMT);
//! * [`stream_metrics`] — waiting time, response time, bounded
//!   slowdown, utilization.
//!
//! ```
//! use demt_frontend::{submit_stream, queue_schedule, stream_metrics,
//!                     QueuePolicy, StreamSpec};
//! use demt_workload::WorkloadKind;
//! let spec = StreamSpec {
//!     kind: WorkloadKind::Cirne, jobs: 30, procs: 16,
//!     mean_interarrival: 0.8, seed: 3,
//!     ..StreamSpec::default()
//! };
//! let jobs = submit_stream(&spec);
//! let schedule = queue_schedule(16, &jobs, QueuePolicy::EasyBackfill);
//! let metrics = stream_metrics(&jobs, &schedule, 16);
//! assert!(metrics.mean_response > 0.0);
//! ```

#![warn(missing_docs)]

#[cfg(test)]
mod difftests;
mod easy;
mod metrics;
mod replay;
mod stream;
mod swf;

pub use easy::{queue_schedule, queue_schedule_ordered, QueueOrder, QueuePolicy};
pub use metrics::{
    job_metrics, stream_metrics, try_job_metrics, try_stream_metrics, JobMetrics, MetricsError,
    ReplayMetrics, ReplaySummary, StreamMetrics, SLOWDOWN_TAU,
};
pub use replay::{replay_queue, ReplayError, ReplayOutcome};
pub use stream::{rigid_request, submit_stream, ArrivalModel, StreamSpec, SubmittedJob};
pub use swf::{
    lift_swf_record, parse_swf, stream_from_swf, write_swf, SwfError, SwfJobStream, SwfReader,
    SwfRecord,
};

use demt_api::Scheduler;
use demt_model::Instance;
use demt_online::OnlineJob;
use demt_platform::Schedule;

/// Builds the *rigid* instance a queue scheduler effectively runs (each
/// job pinned at its request) — used to validate queue schedules with
/// the workspace validator.
pub fn rigid_instance(m: usize, jobs: &[SubmittedJob]) -> Instance {
    let tasks = jobs
        .iter()
        .map(|j| {
            demt_model::MoldableTask::rigid(
                j.task.id(),
                j.task.weight(),
                j.rigid_procs,
                j.rigid_time(),
                m,
            )
            // demt-lint: allow(P1, rigid() only re-checks the positivity SubmittedJob already guarantees)
            .expect("rigid emulation is valid")
        })
        .collect();
    // demt-lint: allow(P1, SubmittedJob streams carry dense 0..n ids assigned at parse time)
    Instance::new(m, tasks).expect("ids are dense by construction")
}

/// Builds the *moldable* instance and release vector for the on-line
/// DEMT path.
pub fn moldable_instance(m: usize, jobs: &[SubmittedJob]) -> (Instance, Vec<f64>) {
    let inst = Instance::new(m, jobs.iter().map(|j| j.task.clone()).collect())
        // demt-lint: allow(P1, SubmittedJob streams carry dense 0..n ids assigned at parse time)
        .expect("ids are dense by construction");
    (inst, jobs.iter().map(|j| j.release).collect())
}

/// Runs the moldable path: SWW batches (`demt-online`) over any
/// [`Scheduler`] (pass the registry's `"demt"` entry for the paper's
/// system). Rejects a malformed stream with the on-line engine's typed
/// [`OnlineError`](demt_online::OnlineError).
pub fn moldable_schedule(
    m: usize,
    jobs: &[SubmittedJob],
    scheduler: &dyn Scheduler,
) -> Result<Schedule, demt_online::OnlineError> {
    let online_jobs: Vec<OnlineJob> = jobs
        .iter()
        .map(|j| OnlineJob {
            task: j.task.clone(),
            release: j.release,
        })
        .collect();
    demt_online::try_online_batch_schedule(m, &online_jobs, scheduler).map(|r| r.schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_core::DemtScheduler;
    use demt_platform::validate_with_releases;
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

    #[test]
    fn queue_schedules_validate_against_the_rigid_instance() {
        let jobs = submit_stream(&spec());
        let inst = rigid_instance(16, &jobs);
        let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
        for policy in [QueuePolicy::Fcfs, QueuePolicy::EasyBackfill] {
            let s = queue_schedule(16, &jobs, policy);
            validate_with_releases(&inst, &s, Some(&releases))
                .unwrap_or_else(|e| panic!("{policy:?}: {e}"));
        }
    }

    #[test]
    fn moldable_path_validates_and_beats_fcfs_on_waits() {
        let jobs = submit_stream(&spec());
        let (inst, releases) = moldable_instance(16, &jobs);
        let demt = moldable_schedule(16, &jobs, &DemtScheduler).expect("valid stream");
        validate_with_releases(&inst, &demt, Some(&releases)).unwrap();

        let fcfs = queue_schedule(16, &jobs, QueuePolicy::Fcfs);
        let m_demt = stream_metrics(&jobs, &demt, 16);
        let m_fcfs = stream_metrics(&jobs, &fcfs, 16);
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
        let fcfs = stream_metrics(&jobs, &queue_schedule(16, &jobs, QueuePolicy::Fcfs), 16);
        let easy = stream_metrics(
            &jobs,
            &queue_schedule(16, &jobs, QueuePolicy::EasyBackfill),
            16,
        );
        assert!(
            easy.mean_wait <= fcfs.mean_wait + 1e-9,
            "EASY wait {} vs FCFS {}",
            easy.mean_wait,
            fcfs.mean_wait
        );
    }
}
