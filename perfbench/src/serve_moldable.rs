//! `serve_moldable`: the deployed daemon.
//!
//! One op is one placement decision of `demt_serve::run_events` with
//! algorithm `demt` and one worker, replaying a pre-rendered JSONL log of
//! moldable submits (Cirne shapes, Pareto gaps) through a fresh session
//! per pass. This is the only workload that runs event parsing, lifting
//! and cohort admission; per-batch DEMT does most of the rest.
//!
//! The cross-check (pass (b)) feeds the same events through
//! `JobEvent::to_task` into `demt_online::stream_batch_schedule`, with a
//! timing wrapper around the registry's `demt` scheduler and
//! `Placement::write_json` in the sink. Its placement bytes must equal
//! the daemon's.

use crate::runner::{nanos_since, Fnv, Recorder, Workload};
use crate::seed_for;
use crate::stats::percentile;
use crate::trace::{count, span, Tracer};
use demt_api::{ScheduleReport, Scheduler, SchedulerContext};
use demt_baselines::registry;
use demt_model::Instance;
use demt_online::{stream_batch_schedule, OnlineJob};
use demt_serve::{run_events, EventReader, JobEvent, ServeConfig, ServeStats};
use demt_workload::{TraceGen, TraceSpec, WorkloadKind};
use std::cell::Cell;
use std::io::Write;
use std::time::Instant;

/// Machine size.
pub const PROCS: usize = 200;
/// Submits in the log; each is about 4 KB of JSON at m = 200.
pub const EVENTS: usize = 8000;
/// Independent arrival streams the log strings together, each released
/// once the machine has drained the previous one, so that every stream
/// opens with small cohorts that grow to hundreds of jobs.
pub const SESSIONS: usize = 8;
/// Mean Pareto inter-arrival gap: within a session, cohorts grow from
/// one job to about 300.
pub const GAP: f64 = 0.05;
/// Pareto tail shape of the gaps: light enough that the largest cohorts,
/// which set the p99, do not hinge on one burst of the seed.
pub const SHAPE: f64 = 8.0;

/// The rendered log and the events it was rendered from.
pub struct ServeMoldable {
    events: Vec<JobEvent>,
    log: Vec<u8>,
}

fn config() -> ServeConfig {
    ServeConfig {
        algorithm: "demt".to_string(),
        ..ServeConfig::new(PROCS)
    }
}

/// The daemon's output stream: fingerprints every placement line and
/// records each as one decision, timed from the latest event pulled.
struct Sink<'a> {
    rec: &'a mut Recorder,
    tr: Option<&'a Tracer>,
    last_pull: &'a Cell<Instant>,
    decisions: u64,
}

impl Write for Sink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        span(self.tr, "bench.sink", || {
            let ns = nanos_since(self.last_pull.get());
            self.rec.fingerprint.update(buf);
            let lines = buf.iter().filter(|&&b| b == b'\n').count() as u64;
            for _ in 0..lines {
                self.rec.op(ns, true);
            }
            self.decisions += lines;
        });
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The registry scheduler inside spans and a batch counter.
struct Timed<'a> {
    inner: &'static dyn Scheduler,
    tr: Option<&'a Tracer>,
}

impl Scheduler for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn legend(&self) -> &str {
        self.inner.legend()
    }

    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        count(self.tr, "online.batches", 1.0);
        span(self.tr, "api.schedule", || self.inner.schedule(inst, ctx))
    }
}

impl Workload for ServeMoldable {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut events: Vec<JobEvent> = Vec::with_capacity(EVENTS);
        let mut quiet_from = 0.0;
        for session in 0..SESSIONS {
            let spec = TraceSpec {
                kind: WorkloadKind::Cirne,
                mean_interarrival: GAP,
                pareto_shape: SHAPE,
                ..TraceSpec::new(
                    EVENTS / SESSIONS,
                    PROCS,
                    seed_for(seed, 0x5e7e + session as u64),
                )
            };
            // The next session starts after the machine has drained: no
            // schedule of the backlog outlasts its total sequential work.
            let start = quiet_from;
            for tj in TraceGen::new(&spec) {
                let times = tj.task.times();
                quiet_from = f64::max(quiet_from, start + tj.release) + times[0];
                events.push(JobEvent::submit_moldable(
                    events.len(),
                    start + tj.release,
                    tj.task.weight(),
                    times.to_vec(),
                ));
            }
        }
        let mut log = Vec::new();
        for ev in &events {
            let line = serde_json::to_string(ev).map_err(|e| format!("rendering the log: {e}"))?;
            log.extend_from_slice(line.as_bytes());
            log.push(b'\n');
        }
        Ok(Self { events, log })
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        h.update(&self.log);
        h.value()
    }

    fn pass(&self, tr: Option<&Tracer>, rec: &mut Recorder) {
        let (ops0, failed0) = (rec.ops, rec.failed);
        let last_pull = Cell::new(Instant::now());
        let mut reader = EventReader::new(&self.log[..]);
        let events = std::iter::from_fn(|| {
            let ev = span(tr, "serve.event_reader", || reader.next());
            span(tr, "bench.feed", || last_pull.set(Instant::now()));
            ev
        });
        let mut sink = Sink {
            rec,
            tr,
            last_pull: &last_pull,
            decisions: 0,
        };
        let mut stats = ServeStats::new(PROCS);
        let summary = span(tr, "serve.run_events", || {
            run_events(&config(), events, &mut sink, &mut stats, None)
        });
        let decisions = sink.decisions;
        let submits = self.events.len() as u64;
        let ok = matches!(summary, Ok(s) if s.decisions as u64 == submits) && decisions == submits;
        if !ok {
            rec.ops += submits.saturating_sub(decisions);
            rec.failed = failed0 + (rec.ops - ops0);
        }
        count(tr, "serve.bytes_in", self.log.len() as f64);
    }

    fn cross_check(&self, tr: Option<&Tracer>) -> Option<Result<Fnv, String>> {
        Some(self.stream(tr).map(|(fp, _)| fp))
    }

    /// The cohort sizes DEMT is handed, from pass (b).
    fn shape(&self) -> Result<Option<String>, String> {
        let (_, mut sizes) = self.stream(None)?;
        sizes.sort_unstable();
        let (Some(&lo), Some(&hi)) = (sizes.first(), sizes.last()) else {
            return Err("pass (b) scheduled no batch".to_string());
        };
        let at = |pct| percentile(&sizes, pct);
        Ok(Some(format!(
            "shape batches={} jobs_per_batch min={lo} p10={} p25={} median={} p90={} max={hi}",
            sizes.len(),
            at(10),
            at(25),
            at(50),
            at(90)
        )))
    }
}

impl ServeMoldable {
    /// Pass (b): the same events through `stream_batch_schedule`. Returns
    /// the placement fingerprint and the size of every batch.
    fn stream(&self, tr: Option<&Tracer>) -> Result<(Fnv, Vec<u64>), String> {
        let inner = registry()
            .by_name("demt")
            .ok_or("the registry has no demt entry")?;
        let timed = Timed { inner, tr };
        let mut lift_err = None;
        let jobs =
            self.events
                .iter()
                .map_while(|ev| match span(tr, "serve.lift", || ev.to_task(PROCS)) {
                    Ok(task) => Some(OnlineJob {
                        task,
                        release: ev.release,
                    }),
                    Err(e) => {
                        lift_err = Some(e);
                        None
                    }
                });
        let mut fp = Fnv::default();
        let mut line = Vec::new();
        let mut sizes = Vec::new();
        let outcome = span(tr, "online.stream", || {
            stream_batch_schedule(PROCS, jobs, &timed, |placements, _| {
                sizes.push(placements.len() as u64);
                for p in placements {
                    span(tr, "platform.write_json", || {
                        line.clear();
                        p.write_json(&mut line);
                        line.push(b'\n');
                    });
                    fp.update(&line);
                }
            })
        })
        .map_err(|e| format!("stream_batch_schedule: {e}"))?;
        if let Some(e) = lift_err {
            return Err(format!("lifting a logged event: {e}"));
        }
        count(tr, "online.sessions", 1.0);
        count(tr, "online.decisions", outcome.decisions as f64);
        Ok((fp, sizes))
    }
}
