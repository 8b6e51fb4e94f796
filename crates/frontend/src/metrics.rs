//! Per-job response metrics — the quantities cluster operators actually
//! watch (waiting time, response time, bounded slowdown) and their
//! aggregates, computed from a schedule plus the submission stream.
//!
//! Two shapes of the same arithmetic live here:
//!
//! * the **materialized** path ([`try_job_metrics`] /
//!   [`try_stream_metrics`]) walks a finished [`Schedule`] against the
//!   submitted stream;
//! * the **streaming** path ([`ReplayMetrics`]) folds placements one at
//!   a time as an engine emits them, so archive-scale replays aggregate
//!   in constant memory — it computes the same sums, minus the
//!   percentile (which needs the full response distribution).

use crate::stream::SubmittedJob;
use demt_model::TaskId;
use demt_platform::Schedule;
use serde::{Deserialize, Serialize};

/// Metrics of one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobMetrics {
    /// Time spent in the queue: `start − release`.
    pub wait: f64,
    /// End-to-end response: `completion − release`.
    pub response: f64,
    /// Bounded slowdown `max(response / max(runtime, τ), 1)` — the
    /// Feitelson metric that stops tiny jobs from dominating.
    pub bounded_slowdown: f64,
}

/// Aggregates over a stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamMetrics {
    /// Number of jobs.
    pub jobs: usize,
    /// Mean waiting time.
    pub mean_wait: f64,
    /// Mean response time.
    pub mean_response: f64,
    /// Mean bounded slowdown.
    pub mean_bounded_slowdown: f64,
    /// 95th-percentile response time.
    pub p95_response: f64,
    /// Largest completion time (stream makespan).
    pub makespan: f64,
    /// Busy area over `m × makespan`.
    pub utilization: f64,
}

/// The bounded-slowdown runtime floor τ (in the same time unit as the
/// workloads; the classical value is "10 seconds").
pub const SLOWDOWN_TAU: f64 = 0.5;

/// Rejected metrics input: the schedule does not cover the stream, or
/// an engine emitted a placement that violates causality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricsError {
    /// A submitted job has no placement in the schedule.
    MissingPlacement(TaskId),
    /// A job starts measurably before its release date — an engine
    /// bug, not a rounding artifact (the tolerance is `1e-9`).
    NegativeWait {
        /// Offending job.
        task: TaskId,
        /// The (negative) computed wait.
        wait: f64,
    },
    /// Aggregates of zero jobs are undefined.
    EmptyStream,
}

impl std::fmt::Display for MetricsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            MetricsError::MissingPlacement(task) => {
                write!(f, "{task} missing from schedule")
            }
            MetricsError::NegativeWait { task, wait } => {
                write!(f, "{task} starts before release (wait {wait})")
            }
            MetricsError::EmptyStream => write!(f, "metrics of an empty stream"),
        }
    }
}

impl std::error::Error for MetricsError {}

/// The per-job arithmetic shared by every path: saturates sub-tolerance
/// negative waits to zero, rejects larger ones as a causality bug.
fn one_job(
    task: TaskId,
    release: f64,
    start: f64,
    duration: f64,
) -> Result<JobMetrics, MetricsError> {
    let wait = start - release;
    if wait < -1e-9 {
        return Err(MetricsError::NegativeWait { task, wait });
    }
    let response = (start + duration) - release;
    let bounded_slowdown = (response / duration.max(SLOWDOWN_TAU)).max(1.0);
    Ok(JobMetrics {
        wait: wait.max(0.0),
        response,
        bounded_slowdown,
    })
}

/// Computes per-job metrics from a schedule over the stream. Rejects a
/// job missing from the schedule or starting measurably before its
/// release with a typed [`MetricsError`].
pub fn try_job_metrics(
    jobs: &[SubmittedJob],
    schedule: &Schedule,
) -> Result<Vec<JobMetrics>, MetricsError> {
    jobs.iter()
        .map(|j| {
            let p = schedule
                .placement_of(j.task.id())
                .ok_or(MetricsError::MissingPlacement(j.task.id()))?;
            one_job(j.task.id(), j.release, p.start, p.duration)
        })
        .collect()
}

/// Aggregates a stream's metrics, rejecting uncovered or acausal
/// schedules (and the empty stream) with a typed [`MetricsError`].
pub fn try_stream_metrics(
    jobs: &[SubmittedJob],
    schedule: &Schedule,
    m: usize,
) -> Result<StreamMetrics, MetricsError> {
    let per_job = try_job_metrics(jobs, schedule)?;
    let n = per_job.len();
    if n == 0 {
        return Err(MetricsError::EmptyStream);
    }
    let mean = |f: fn(&JobMetrics) -> f64| per_job.iter().map(f).sum::<f64>() / n as f64;
    let mut responses: Vec<f64> = per_job.iter().map(|j| j.response).collect();
    responses.sort_by(|a, b| a.total_cmp(b));
    let p95 = responses[((n as f64 * 0.95).ceil() as usize).min(n) - 1];
    let makespan = schedule.makespan();
    let first_release = jobs.iter().map(|j| j.release).fold(f64::INFINITY, f64::min);
    let span = (makespan - first_release.min(0.0)).max(f64::MIN_POSITIVE);
    Ok(StreamMetrics {
        jobs: n,
        mean_wait: mean(|j| j.wait),
        mean_response: mean(|j| j.response),
        mean_bounded_slowdown: mean(|j| j.bounded_slowdown),
        p95_response: p95,
        makespan,
        utilization: schedule.total_area() / (m as f64 * span),
    })
}

/// Aggregates of a streamed replay, produced by
/// [`ReplayMetrics::finish`] — the constant-memory counterpart of
/// [`StreamMetrics`]. No percentile: that needs the full response
/// distribution, which a streaming fold never holds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplaySummary {
    /// Number of jobs folded in.
    pub jobs: usize,
    /// Mean waiting time.
    pub mean_wait: f64,
    /// Largest waiting time.
    pub max_wait: f64,
    /// Mean response time.
    pub mean_response: f64,
    /// Mean bounded slowdown.
    pub mean_bounded_slowdown: f64,
    /// Largest completion time.
    pub makespan: f64,
    /// Busy area over `m × makespan` — the same denominator convention
    /// as [`StreamMetrics`].
    pub utilization: f64,
}

/// Streaming metrics accumulator: feed it `(release, placement)` pairs
/// in any order as an engine emits decisions, then [`finish`] for the
/// aggregates. Holds a fixed handful of running sums no matter how many
/// jobs flow through — this is what lets `demt replaybench` report wait
/// and slowdown statistics over millions of jobs without materializing
/// a schedule.
///
/// [`finish`]: ReplayMetrics::finish
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayMetrics {
    jobs: usize,
    wait_sum: f64,
    max_wait: f64,
    response_sum: f64,
    slowdown_sum: f64,
    busy_area: f64,
    makespan: f64,
    first_release: f64,
}

impl ReplayMetrics {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            first_release: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Jobs folded in so far.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Folds one decision: the job identified by `task` was released at
    /// `release` and placed on `procs` processors over
    /// `[start, start + duration)`. Rejects a start measurably before
    /// the release ([`MetricsError::NegativeWait`]); the accumulator is
    /// unchanged on error.
    pub fn record(
        &mut self,
        task: TaskId,
        release: f64,
        start: f64,
        duration: f64,
        procs: usize,
    ) -> Result<(), MetricsError> {
        let jm = one_job(task, release, start, duration)?;
        self.jobs += 1;
        self.wait_sum += jm.wait;
        if jm.wait > self.max_wait {
            self.max_wait = jm.wait;
        }
        self.response_sum += jm.response;
        self.slowdown_sum += jm.bounded_slowdown;
        self.busy_area += duration * procs as f64;
        let end = start + duration;
        if end > self.makespan {
            self.makespan = end;
        }
        if release < self.first_release {
            self.first_release = release;
        }
        Ok(())
    }

    /// The aggregates over everything recorded, for a machine of `m`
    /// processors. [`MetricsError::EmptyStream`] before any record.
    pub fn finish(&self, m: usize) -> Result<ReplaySummary, MetricsError> {
        if self.jobs == 0 {
            return Err(MetricsError::EmptyStream);
        }
        let n = self.jobs as f64;
        let span = (self.makespan - self.first_release.min(0.0)).max(f64::MIN_POSITIVE);
        Ok(ReplaySummary {
            jobs: self.jobs,
            mean_wait: self.wait_sum / n,
            max_wait: self.max_wait,
            mean_response: self.response_sum / n,
            mean_bounded_slowdown: self.slowdown_sum / n,
            makespan: self.makespan,
            utilization: self.busy_area / (m as f64 * span),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::{MoldableTask, TaskId};
    use demt_platform::Placement;

    fn one_job_stream() -> (Vec<SubmittedJob>, Schedule) {
        let task = MoldableTask::sequential(TaskId(0), 1.0, 2.0, 2).unwrap();
        let jobs = vec![SubmittedJob {
            task,
            release: 1.0,
            rigid_procs: 1,
        }];
        let mut s = Schedule::new(2);
        s.push(Placement {
            task: TaskId(0),
            start: 3.0,
            duration: 2.0,
            procs: vec![0].into(),
        });
        (jobs, s)
    }

    #[test]
    fn per_job_arithmetic() {
        let (jobs, s) = one_job_stream();
        let m = try_job_metrics(&jobs, &s).unwrap();
        assert_eq!(m.len(), 1);
        assert!((m[0].wait - 2.0).abs() < 1e-12);
        assert!((m[0].response - 4.0).abs() < 1e-12);
        // runtime 2 > τ → slowdown = 4/2 = 2.
        assert!((m[0].bounded_slowdown - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_floor_protects_tiny_jobs() {
        let task = MoldableTask::sequential(TaskId(0), 1.0, 0.01, 1).unwrap();
        let jobs = vec![SubmittedJob {
            task,
            release: 0.0,
            rigid_procs: 1,
        }];
        let mut s = Schedule::new(1);
        s.push(Placement {
            task: TaskId(0),
            start: 0.5,
            duration: 0.01,
            procs: vec![0].into(),
        });
        let m = try_job_metrics(&jobs, &s).unwrap();
        // Unbounded slowdown would be 51; bounded uses τ = 0.5 → 1.02.
        assert!(m[0].bounded_slowdown < 1.1, "{}", m[0].bounded_slowdown);
    }

    #[test]
    fn aggregates_are_consistent() {
        let (jobs, s) = one_job_stream();
        let agg = try_stream_metrics(&jobs, &s, 2).unwrap();
        assert_eq!(agg.jobs, 1);
        assert!((agg.mean_wait - 2.0).abs() < 1e-12);
        assert!((agg.p95_response - 4.0).abs() < 1e-12);
        assert_eq!(agg.makespan, 5.0);
        assert!(agg.utilization > 0.0 && agg.utilization <= 1.0);
    }

    #[test]
    fn missing_job_is_a_typed_error() {
        let (jobs, _) = one_job_stream();
        let empty = Schedule::new(2);
        assert_eq!(
            try_job_metrics(&jobs, &empty),
            Err(MetricsError::MissingPlacement(TaskId(0)))
        );
    }

    #[test]
    fn acausal_start_is_a_typed_error_not_an_assert() {
        let (mut jobs, s) = one_job_stream();
        jobs[0].release = 10.0; // placement starts at 3 < 10
        assert!(matches!(
            try_job_metrics(&jobs, &s),
            Err(MetricsError::NegativeWait {
                task: TaskId(0),
                ..
            })
        ));
        // A sub-tolerance negative wait saturates to zero instead.
        jobs[0].release = 3.0 + 1e-12;
        let m = try_job_metrics(&jobs, &s).unwrap();
        assert_eq!(m[0].wait, 0.0);
    }

    #[test]
    fn empty_stream_is_a_typed_error() {
        assert_eq!(
            try_stream_metrics(&[], &Schedule::new(2), 2),
            Err(MetricsError::EmptyStream)
        );
        assert_eq!(
            ReplayMetrics::new().finish(2),
            Err(MetricsError::EmptyStream)
        );
    }

    #[test]
    fn replay_accumulator_matches_the_materialized_aggregates() {
        // Three jobs on m = 2; fold the same placements both ways.
        let mk = |id: usize, t: f64| MoldableTask::sequential(TaskId(id), 1.0, t, 2).unwrap();
        let jobs = vec![
            SubmittedJob {
                task: mk(0, 2.0),
                release: 0.0,
                rigid_procs: 1,
            },
            SubmittedJob {
                task: mk(1, 0.3),
                release: 0.5,
                rigid_procs: 1,
            },
            SubmittedJob {
                task: mk(2, 1.0),
                release: 4.0,
                rigid_procs: 2,
            },
        ];
        let mut s = Schedule::new(2);
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 2.0,
            procs: vec![0].into(),
        });
        s.push(Placement {
            task: TaskId(1),
            start: 0.5,
            duration: 0.3,
            procs: vec![1].into(),
        });
        s.push(Placement {
            task: TaskId(2),
            start: 4.5,
            duration: 1.0,
            procs: vec![0, 1].into(),
        });
        let agg = try_stream_metrics(&jobs, &s, 2).unwrap();

        let mut acc = ReplayMetrics::new();
        for (j, p) in jobs.iter().zip(s.placements()) {
            acc.record(p.task, j.release, p.start, p.duration, p.procs.len())
                .unwrap();
        }
        assert_eq!(acc.jobs(), 3);
        let sum = acc.finish(2).unwrap();
        assert!((sum.mean_wait - agg.mean_wait).abs() < 1e-12);
        assert!((sum.mean_response - agg.mean_response).abs() < 1e-12);
        assert!((sum.mean_bounded_slowdown - agg.mean_bounded_slowdown).abs() < 1e-12);
        assert_eq!(sum.makespan, agg.makespan);
        assert!((sum.utilization - agg.utilization).abs() < 1e-12);
        assert!((sum.max_wait - 0.5).abs() < 1e-12);
    }

    #[test]
    fn replay_accumulator_rejects_acausal_decisions_unchanged() {
        let mut acc = ReplayMetrics::new();
        acc.record(TaskId(0), 0.0, 1.0, 1.0, 1).unwrap();
        let before = acc;
        assert!(acc.record(TaskId(1), 5.0, 1.0, 1.0, 1).is_err());
        assert_eq!(acc.jobs(), before.jobs(), "error leaves the fold unchanged");
        let sum = acc.finish(1).unwrap();
        assert_eq!(sum.jobs, 1);
    }
}
