//! Per-job response metrics — the quantities cluster operators actually
//! watch (waiting time, response time, bounded slowdown) — and their
//! aggregates, in one fold: [`ReplayMetrics`] takes placements one at
//! a time as an engine emits them, so every front-end table and
//! archive-scale replay aggregates in constant memory without a
//! materialized schedule.

use demt_model::TaskId;
use serde::{Deserialize, Serialize};

/// Metrics of one job.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JobMetrics {
    /// Time spent in the queue: `start − release`.
    wait: f64,
    /// End-to-end response: `completion − release`.
    response: f64,
    /// Bounded slowdown `max(response / max(runtime, τ), 1)` — the
    /// Feitelson metric that stops tiny jobs from dominating.
    bounded_slowdown: f64,
}

/// The bounded-slowdown runtime floor τ (in the same time unit as the
/// workloads; the classical value is "10 seconds").
pub const SLOWDOWN_TAU: f64 = 0.5;

/// Rejected metrics input: an engine emitted a placement that violates
/// causality, or nothing was recorded.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricsError {
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
            MetricsError::NegativeWait { task, wait } => {
                write!(f, "{task} starts before release (wait {wait})")
            }
            MetricsError::EmptyStream => write!(f, "metrics of an empty stream"),
        }
    }
}

impl std::error::Error for MetricsError {}

/// The per-job arithmetic of [`ReplayMetrics::record`]: saturates
/// sub-tolerance negative waits to zero, rejects larger ones as a
/// causality bug.
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

/// Aggregates of a stream, produced by [`ReplayMetrics::finish`]. No
/// percentile: that needs the full response distribution, which a
/// streaming fold never holds.
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
    /// Busy area over `m × span`, where the span runs from the earlier
    /// of time zero and the first release to the makespan.
    pub utilization: f64,
}

/// Streaming metrics accumulator: feed it `(release, placement)` pairs
/// in any order as an engine emits decisions, then [`finish`] for the
/// aggregates. Holds a fixed handful of running sums no matter how many
/// jobs flow through — this is what lets `demt frontend`, `demt swf`
/// and `demt replaybench` report wait and slowdown statistics over
/// millions of jobs without materializing a schedule.
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

    /// One job released at 1 and run on one of two processors over
    /// [3, 5), folded alone.
    fn one_job_summary() -> ReplaySummary {
        let mut acc = ReplayMetrics::new();
        acc.record(TaskId(0), 1.0, 3.0, 2.0, 1).unwrap();
        acc.finish(2).unwrap()
    }

    #[test]
    fn per_job_arithmetic() {
        let sum = one_job_summary();
        assert!((sum.mean_wait - 2.0).abs() < 1e-12);
        assert!((sum.mean_response - 4.0).abs() < 1e-12);
        // runtime 2 > τ → slowdown = 4/2 = 2.
        assert!((sum.mean_bounded_slowdown - 2.0).abs() < 1e-12);
    }

    #[test]
    fn slowdown_floor_protects_tiny_jobs() {
        let mut acc = ReplayMetrics::new();
        acc.record(TaskId(0), 0.0, 0.5, 0.01, 1).unwrap();
        let sum = acc.finish(1).unwrap();
        // Unbounded slowdown would be 51; bounded uses τ = 0.5 → 1.02.
        assert!(
            sum.mean_bounded_slowdown < 1.1,
            "{}",
            sum.mean_bounded_slowdown
        );
    }

    #[test]
    fn aggregates_are_consistent() {
        let sum = one_job_summary();
        assert_eq!(sum.jobs, 1);
        assert!((sum.max_wait - 2.0).abs() < 1e-12);
        assert_eq!(sum.makespan, 5.0);
        // Busy area 2 over 2 processors × span [0, 5).
        assert!((sum.utilization - 0.2).abs() < 1e-12);
    }

    #[test]
    fn acausal_start_is_a_typed_error_not_an_assert() {
        let mut acc = ReplayMetrics::new();
        // The placement starts at 3 < release 10.
        assert!(matches!(
            acc.record(TaskId(0), 10.0, 3.0, 2.0, 1),
            Err(MetricsError::NegativeWait {
                task: TaskId(0),
                ..
            })
        ));
        // A sub-tolerance negative wait saturates to zero instead.
        acc.record(TaskId(0), 3.0 + 1e-12, 3.0, 2.0, 1).unwrap();
        let sum = acc.finish(2).unwrap();
        assert_eq!(sum.mean_wait, 0.0);
        assert_eq!(sum.max_wait, 0.0);
    }

    #[test]
    fn empty_stream_is_a_typed_error() {
        assert_eq!(
            ReplayMetrics::new().finish(2),
            Err(MetricsError::EmptyStream)
        );
    }

    #[test]
    fn replay_accumulator_folds_the_hand_computed_aggregates() {
        // Three jobs on m = 2, recorded out of release order.
        let mut acc = ReplayMetrics::new();
        acc.record(TaskId(2), 4.0, 4.5, 1.0, 2).unwrap();
        acc.record(TaskId(0), 0.0, 0.0, 2.0, 1).unwrap();
        acc.record(TaskId(1), 0.5, 0.5, 0.3, 1).unwrap();
        assert_eq!(acc.jobs(), 3);
        let sum = acc.finish(2).unwrap();
        // Waits 0.5, 0, 0; responses 1.5, 2, 0.3; bounded slowdowns
        // 1.5, 1, 1 (job 1's 0.3 is floored to τ = 0.5, 0.3/0.5 to 1).
        assert!((sum.mean_wait - 0.5 / 3.0).abs() < 1e-12);
        assert!((sum.max_wait - 0.5).abs() < 1e-12);
        assert!((sum.mean_response - 3.8 / 3.0).abs() < 1e-12);
        assert!((sum.mean_bounded_slowdown - 3.5 / 3.0).abs() < 1e-12);
        assert_eq!(sum.makespan, 5.5);
        // Busy area 2 + 0.3 + 2 over 2 × 5.5.
        assert!((sum.utilization - 4.3 / 11.0).abs() < 1e-12);
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
