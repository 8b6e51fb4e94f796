//! `replay_easy`: the EASY-backfilling front-end queue.
//!
//! One op is one job start of `demt_frontend::replay_queue` (EASY,
//! arrival order) on m = 1000 under near-saturating load, over
//! pre-generated compact rigid jobs (`MoldableTask::rigid` at the
//! knee-rule width of a Cirne job). Skyline commit/release/earliest-fit
//! and the queue scans do nearly all the work; no dual, core, LP or
//! JSON code runs. Unlike `paper_offline`, one long-lived and
//! fragmented skyline serves a whole trace.
//!
//! A pass replays many short independent traces rather than one long
//! one: near saturation the backlog, and with it the p99, hinges on the
//! trace's few worst bursts, and averaging over many traces keeps the
//! figures from following the seed.

use crate::runner::{nanos_since, Fnv, Recorder, Workload};
use crate::seed_for;
use crate::stats::median;
use crate::trace::{span, Tracer};
use demt_frontend::{
    replay_queue, rigid_request, QueueOrder, QueuePolicy, ReplayMetrics, SubmittedJob,
};
use demt_model::MoldableTask;
use demt_workload::{TraceGen, TraceSpec, WorkloadKind};
use std::cell::Cell;
use std::time::Instant;

/// Machine size.
pub const PROCS: usize = 1000;
/// Independent traces per pass, each replayed through a fresh queue.
pub const TRACES: usize = 64;
/// Jobs per trace.
pub const JOBS: usize = 1_250;
/// Mean Pareto inter-arrival gap: the jobs request about as much area
/// as the machine has (offered load ≈ 1), so a queue builds up all
/// through a trace and backfilling has work to do.
pub const GAP: f64 = 0.010;

/// The generated rigid job streams, each in release order.
pub struct ReplayEasy {
    traces: Vec<Vec<SubmittedJob>>,
}

fn trace(seed: u64) -> Result<Vec<SubmittedJob>, String> {
    let spec = TraceSpec {
        kind: WorkloadKind::Cirne,
        mean_interarrival: GAP,
        ..TraceSpec::new(JOBS, PROCS, seed)
    };
    TraceGen::new(&spec)
        .map(|tj| {
            let k = rigid_request(&tj.task, PROCS);
            let task =
                MoldableTask::rigid(tj.task.id(), tj.task.weight(), k, tj.task.time(k), PROCS)
                    .map_err(|e| format!("rigid job {}: {e}", tj.task.id().index()))?;
            Ok(SubmittedJob {
                task,
                release: tj.release,
                rigid_procs: k,
            })
        })
        .collect()
}

impl Workload for ReplayEasy {
    fn setup(seed: u64) -> Result<Self, String> {
        let traces = (0..TRACES as u64)
            .map(|t| trace(seed_for(seed, 0xea57_0000 + t)))
            .collect::<Result<_, _>>()?;
        Ok(Self { traces })
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for j in self.traces.iter().flatten() {
            h.update(&(j.task.id().index() as u64).to_le_bytes());
            h.update(&j.task.weight().to_bits().to_le_bytes());
            h.update(&(j.rigid_procs as u64).to_le_bytes());
            h.update(&j.rigid_time().to_bits().to_le_bytes());
            h.update(&j.release.to_bits().to_le_bytes());
        }
        h.value()
    }

    fn pass(&self, tr: Option<&Tracer>, rec: &mut Recorder) {
        for jobs in &self.traces {
            replay(jobs, tr, rec);
        }
    }

    /// Medians over the traces of: the offered load (requested area over
    /// `m` × the release span); the share of the machine busy between the
    /// first and the last release; `ReplayMetrics`' utilization, whose
    /// span runs to the last completion; the jobs still queued at the last
    /// release; the mean wait and the mean runtime.
    fn shape(&self) -> Result<Option<String>, String> {
        let mut load = Vec::new();
        let mut util = Vec::new();
        let mut wait = Vec::new();
        let mut run = Vec::new();
        let mut arrivals_util = Vec::new();
        let mut backlog = Vec::new();
        for jobs in &self.traces {
            let area: f64 = jobs
                .iter()
                .map(|j| j.rigid_procs as f64 * j.rigid_time())
                .sum();
            let first = jobs.first().map_or(0.0, |j| j.release);
            let last = jobs.last().map_or(0.0, |j| j.release);
            load.push(area / (PROCS as f64 * (last - first)));
            let mut metrics = ReplayMetrics::new();
            let mut busy = 0.0;
            let mut waiting = 0usize;
            replay_queue(
                PROCS,
                jobs.iter().cloned(),
                QueuePolicy::EasyBackfill,
                QueueOrder::Arrival,
                |job, p| {
                    let _ = metrics.record(p.task, job.release, p.start, p.duration, p.procs.len());
                    let inside = (p.start + p.duration).min(last) - p.start.max(first);
                    busy += inside.max(0.0) * p.procs.len() as f64;
                    waiting += usize::from(p.start > last);
                },
            )
            .map_err(|e| format!("replay_queue: {e}"))?;
            let s = metrics
                .finish(PROCS)
                .map_err(|e| format!("replay metrics: {e}"))?;
            util.push(s.utilization);
            arrivals_util.push(busy / (PROCS as f64 * (last - first)));
            backlog.push(waiting as f64);
            wait.push(s.mean_wait);
            run.push(jobs.iter().map(SubmittedJob::rigid_time).sum::<f64>() / jobs.len() as f64);
        }
        let (lo, hi) = (min(&util), max(&util));
        Ok(Some(format!(
            "shape offered_load={} utilization_while_arriving={} utilization={} (min {lo}, max {hi}) queued_at_last_arrival={} mean_wait={} mean_runtime={} mean_gap={GAP}",
            median(&mut load),
            median(&mut arrivals_util),
            median(&mut util),
            median(&mut backlog),
            median(&mut wait),
            median(&mut run)
        )))
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// Replays one trace through a fresh EASY queue.
fn replay(jobs: &[SubmittedJob], tr: Option<&Tracer>, rec: &mut Recorder) {
    let (ops0, failed0) = (rec.ops, rec.failed);
    let last_pull = Cell::new(Instant::now());
    let feed = jobs.iter().map(|j| {
        span(tr, "bench.feed", || {
            let j = j.clone();
            last_pull.set(Instant::now());
            j
        })
    });
    let mut metrics = ReplayMetrics::new();
    let outcome = span(tr, "frontend.replay_queue", || {
        replay_queue(
            PROCS,
            feed,
            QueuePolicy::EasyBackfill,
            QueueOrder::Arrival,
            |job, p| {
                span(tr, "bench.sink", || {
                    let arrived = nanos_since(last_pull.get());
                    let ok = span(tr, "frontend.metrics_record", || {
                        metrics.record(p.task, job.release, p.start, p.duration, p.procs.len())
                    })
                    .is_ok();
                    rec.fingerprint.placement(p);
                    rec.op(arrived, ok);
                });
            },
        )
    });
    let n = jobs.len() as u64;
    let decided = rec.ops - ops0;
    let ok = matches!(outcome, Ok(o) if o.decisions as u64 == n)
        && decided == n
        && metrics.finish(PROCS).is_ok();
    if !ok {
        rec.ops += n.saturating_sub(decided);
        rec.failed = failed0 + (rec.ops - ops0);
    }
}
