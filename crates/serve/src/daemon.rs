//! The event loop: the shared [`Admission`] rule feeding the
//! persistent [`BatchLoop`], parallel event lifting and placement
//! serialization, and the `--oracle` differential check.

use crate::event::{JobEvent, ServeError};
use crate::stats::ServeStats;
use demt_api::{FnScheduler, Scheduler, SchedulerContext};
use demt_baselines::registry;
use demt_exec::Pool;
use demt_model::{Instance, MoldableTask, TaskId};
use demt_online::{try_online_batch_schedule, Admission, Admitted, BatchLoop, OnlineJob};
use demt_platform::{list_schedule, ListTask, Placement, Schedule};
use std::io::Write;
use std::sync::OnceLock;

/// How the daemon schedules: machine size, algorithm, parallelism,
/// stats cadence, and the self-check switch.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Machine size `m`: every submit is lifted onto this many
    /// processors.
    pub procs: usize,
    /// Per-batch scheduler: `"greedy"` (the built-in argmin-time list,
    /// no dual phase) or any workspace registry name (`demt`, `gang`,
    /// `sequential`, `list`, `lptf`, `saf`).
    pub algorithm: String,
    /// Worker threads for event lifting and placement serialization.
    /// Placements are byte-identical for every worker count.
    pub workers: usize,
    /// Emit a stats snapshot every `tick` decisions (`0` = only the
    /// final snapshot).
    pub tick: usize,
    /// Differential self-check at end of stream. Cancel-free feeds are
    /// re-planned through [`try_online_batch_schedule`] and must match
    /// placement by placement, byte for byte; feeds with cancels (which
    /// have no all-at-once twin) are instead replayed through a fresh
    /// single-worker loop and must reproduce the emitted bytes exactly.
    /// Both variants audit the final schedule with
    /// [`demt_platform::validate_no_overlap`].
    ///
    /// The check holds O(n) memory — the event log, a mirror of the
    /// output bytes and a copy of the schedule — where a plain daemon
    /// holds only its pending jobs and the batch in flight.
    pub oracle: bool,
}

impl ServeConfig {
    /// Defaults for an `m`-processor daemon: greedy algorithm, one
    /// worker, no rolling stats, no oracle.
    pub fn new(procs: usize) -> Self {
        Self {
            procs,
            algorithm: "greedy".to_string(),
            workers: 1,
            tick: 0,
            oracle: false,
        }
    }
}

/// End-of-stream accounting returned by [`run_events`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSummary {
    /// Events consumed.
    pub events: u64,
    /// Placements emitted.
    pub decisions: usize,
    /// Batches planned.
    pub batches: usize,
    /// Final virtual time (the schedule horizon).
    pub horizon: f64,
}

/// The built-in low-latency scheduler: each task at its argmin-time
/// allotment (the first minimum, so a rigid profile resolves to exactly
/// its requested width), packed by the skyline greedy list engine. No
/// dual phase — the cost per batch is one `O(m)` scan per task plus the
/// list pass, which is what a high-rate daemon wants as its default.
pub fn greedy_scheduler() -> &'static dyn Scheduler {
    type GreedyFn = fn(&Instance, &mut SchedulerContext) -> Schedule;
    static GREEDY: OnceLock<FnScheduler<GreedyFn>> = OnceLock::new();
    GREEDY.get_or_init(|| {
        FnScheduler::new(
            "greedy",
            "Greedy list (argmin time)",
            greedy_batch as GreedyFn,
        )
    })
}

fn greedy_batch(inst: &Instance, _ctx: &mut SchedulerContext) -> Schedule {
    let tasks: Vec<ListTask> = inst
        .tasks()
        .iter()
        .map(|t| {
            let (best_k, best_t) = t.fastest_alloc();
            ListTask::new(t.id(), best_k, best_t)
        })
        .collect();
    list_schedule(inst.procs(), &tasks)
}

/// Resolves a [`ServeConfig::algorithm`] name: the built-in `"greedy"`
/// or any workspace registry entry.
pub fn resolve_scheduler(name: &str) -> Result<&'static dyn Scheduler, ServeError> {
    if name == "greedy" {
        return Ok(greedy_scheduler());
    }
    registry().by_name(name).ok_or_else(|| {
        ServeError::Config(format!(
            "unknown algorithm {name:?} (try greedy, {})",
            registry().names().join(", ")
        ))
    })
}

/// Drives the daemon over one event stream: [`Admission`] hands over
/// cohorts of events to apply to the persistent [`BatchLoop`] and
/// announces each batch, which is planned and written as one JSON
/// placement line per decision to `out`. Each batch is dropped once
/// written, so memory does not grow with the decisions made (unless
/// [`ServeConfig::oracle`] asks for the self-check).
///
/// **Determinism contract.** For a cancel-free stream, the emitted
/// placements are byte-identical to serializing
/// [`try_online_batch_schedule`]'s schedule on the equivalent
/// [`OnlineJob`] feed, for every `workers` count — enforced by
/// `--oracle`, the differential proptests, and the CI smoke job. The
/// admission rule makes this structural: it is the one
/// [`stream_batch_schedule`](demt_online::stream_batch_schedule) runs,
/// and it admits an event only while its timestamp is at or before the
/// instant the next batch can start.
///
/// Submit lifting (profile construction + content hashing) and
/// placement serialization run on the worker pool; both are ordered
/// `par_map`s, so parallelism never reorders output.
///
/// Stats snapshots go to `stats_out` every [`ServeConfig::tick`]
/// decisions (plus one final snapshot); pass [`ServeStats::new`], whose
/// recorder keeps wall-clock readings out of this loop.
// demt-lint: allow(P2, reaches Pool::par_map's join expect, which only fires when a worker thread is poisoned)
pub fn run_events<I, W>(
    cfg: &ServeConfig,
    events: I,
    out: &mut W,
    stats: &mut ServeStats,
    mut stats_out: Option<&mut dyn Write>,
) -> Result<ServeSummary, ServeError>
where
    I: Iterator<Item = Result<(usize, JobEvent), ServeError>>,
    W: Write,
{
    if cfg.procs == 0 {
        return Err(ServeError::Config("the machine needs processors".into()));
    }
    let scheduler = resolve_scheduler(&cfg.algorithm)?;
    let pool = Pool::new(cfg.workers);
    let mut bl = BatchLoop::new(cfg.procs);
    let mut admission = Admission::default();
    let mut events = events;
    let mut prev_t = f64::NEG_INFINITY;
    let mut last_tick = 0u64;
    let mut oracle = cfg.oracle.then(OracleLog::default);

    let mut pull = |stats: &mut ServeStats| {
        let Some(r) = events.next() else {
            return Ok(None);
        };
        let (line, ev) = r?;
        if ev.release < prev_t {
            return Err(ServeError::OutOfOrder {
                line,
                release: ev.release,
                prev: prev_t,
            });
        }
        prev_t = ev.release;
        stats.event();
        Ok(Some((line, ev)))
    };
    let arrival = |(_, ev): &(usize, JobEvent)| (ev.release, ev.is_submit());
    while let Some(step) = admission.step(&bl, || pull(stats), arrival)? {
        match step {
            Admitted::Cohort(cohort) => {
                // Lift the cohort's submits on the pool: building a
                // moldable profile is O(m) per job — the daemon's
                // per-event hot path.
                type Lifted = Option<Result<MoldableTask, String>>;
                let lifted: Vec<Lifted> = pool.par_map(&cohort, |_, (_, ev)| {
                    ev.is_submit().then(|| ev.to_task(cfg.procs))
                });
                for ((line, ev), lift) in cohort.into_iter().zip(lifted) {
                    match lift {
                        Some(Ok(task)) => {
                            if let Some(o) = oracle.as_mut() {
                                o.feed.push(OnlineJob {
                                    task: task.clone(),
                                    release: ev.release,
                                });
                            }
                            bl.submit(task, ev.release)?;
                        }
                        Some(Err(message)) => return Err(ServeError::Event { line, message }),
                        None => {
                            if !bl.cancel(TaskId(ev.job)) {
                                return Err(ServeError::Event {
                                    line,
                                    message: format!(
                                        "cancel of job {} which is not pending \
                                         (unknown, already placed, or already cancelled)",
                                        ev.job
                                    ),
                                });
                            }
                        }
                    }
                    if let Some(o) = oracle.as_mut() {
                        o.events.push(ev);
                    }
                }
            }
            Admitted::Batch => {
                // Re-plan: one batch, placements out as JSON lines.
                stats.batch_starts();
                // Admission announces a batch only with jobs pending.
                let Some(batch) = bl.run_batch(scheduler)? else {
                    continue;
                };
                let busy = batch.placements.iter().map(Placement::area).sum();
                stats.batch_done(batch.placements.len(), busy);
                let lines: Vec<Vec<u8>> = pool.par_map(&batch.placements, |_, p| {
                    let mut line = Vec::with_capacity(64 + 8 * p.procs.len());
                    p.write_json(&mut line);
                    line.push(b'\n');
                    line
                });
                for l in &lines {
                    out.write_all(l)
                        .map_err(|e| ServeError::Io(e.to_string()))?;
                }
                if let Some(o) = oracle.as_mut() {
                    o.mirror.extend(lines.iter().flatten());
                    o.schedule.extend(batch.placements);
                }
                if cfg.tick > 0 {
                    let due = stats.decisions() / cfg.tick as u64;
                    if due > last_tick {
                        last_tick = due;
                        write_snapshot(stats, bl.now(), &mut stats_out)?;
                    }
                }
            }
        }
    }
    out.flush().map_err(|e| ServeError::Io(e.to_string()))?;
    write_snapshot(stats, bl.now(), &mut stats_out)?;

    let snap = stats.snapshot(bl.now());
    let summary = ServeSummary {
        events: snap.events,
        decisions: snap.decisions as usize,
        batches: snap.batches as usize,
        horizon: bl.now(),
    };
    if let Some(o) = oracle {
        check_oracle(cfg, o, scheduler)?;
    }
    Ok(summary)
}

/// Serializes a stats snapshot as one JSON line, if a sink is wired.
fn write_snapshot(
    stats: &ServeStats,
    horizon: f64,
    stats_out: &mut Option<&mut dyn Write>,
) -> Result<(), ServeError> {
    let Some(sink) = stats_out.as_mut() else {
        return Ok(());
    };
    let snap = stats.snapshot(horizon);
    let line = serde_json::to_string(&snap).map_err(|e| ServeError::Io(e.to_string()))?;
    writeln!(sink, "{line}").map_err(|e| ServeError::Io(e.to_string()))
}

/// What `--oracle` records for its end-of-stream check: O(n) memory
/// that a plain daemon does not keep.
#[derive(Default)]
struct OracleLog {
    /// Every lifted submit, as an all-at-once feed.
    feed: Vec<OnlineJob>,
    /// Every event, in processed (= input) order.
    events: Vec<JobEvent>,
    /// Every byte written to `out`.
    mirror: Vec<u8>,
    /// Every placement, in decision order.
    schedule: Vec<Placement>,
}

/// The `--oracle` differential check. Cancel-free feeds are re-planned
/// from scratch by the all-at-once batch wrapper and must serialize to
/// the same bytes placement by placement. Feeds with cancels have no
/// batch-wrapper twin, so the recorded event log is replayed through a
/// fresh single-worker loop instead and must reproduce the daemon's
/// output bytes exactly. Both variants first audit the final schedule
/// for processor conflicts on the interval sets.
fn check_oracle(
    cfg: &ServeConfig,
    log: OracleLog,
    scheduler: &dyn Scheduler,
) -> Result<(), ServeError> {
    let incremental = Schedule::from_placements(cfg.procs, log.schedule);
    demt_platform::validate_no_overlap(&incremental)
        .map_err(|e| ServeError::Oracle(format!("post-stream overlap audit: {e}")))?;
    if log.events.iter().all(JobEvent::is_submit) {
        let batch = try_online_batch_schedule(cfg.procs, &log.feed, scheduler)?.schedule;
        let a = serde_json::to_string(&incremental).map_err(|e| ServeError::Io(e.to_string()))?;
        let b = serde_json::to_string(&batch).map_err(|e| ServeError::Io(e.to_string()))?;
        if a != b {
            return Err(ServeError::Oracle(format!(
                "daemon emitted {} placements, batch wrapper {} — serialized \
                 schedules differ",
                incremental.len(),
                batch.len()
            )));
        }
        return Ok(());
    }
    let mut replay_cfg = cfg.clone();
    replay_cfg.oracle = false;
    replay_cfg.workers = 1;
    replay_cfg.tick = 0;
    let mut replay_out = Vec::new();
    let mut replay_stats = ServeStats::new(cfg.procs);
    run_events(
        &replay_cfg,
        log.events
            .into_iter()
            .enumerate()
            .map(|(i, e)| Ok((i + 1, e))),
        &mut replay_out,
        &mut replay_stats,
        None,
    )?;
    if replay_out != log.mirror {
        return Err(ServeError::Oracle(format!(
            "cancel-trace replay diverged: daemon wrote {} bytes, the \
             single-worker replay {}",
            log.mirror.len(),
            replay_out.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::grid_events;

    fn run_grid(cfg: &ServeConfig, events: &[JobEvent]) -> (Vec<u8>, ServeSummary) {
        let mut out = Vec::new();
        let mut stats = ServeStats::new(cfg.procs);
        let summary = run_events(
            cfg,
            events
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, e)| Ok((i + 1, e))),
            &mut out,
            &mut stats,
            None,
        )
        .expect("grid feeds schedule cleanly");
        (out, summary)
    }

    #[test]
    fn oracle_accepts_the_daemon_on_a_grid_feed() {
        let m = 64;
        let events = grid_events(300, m, 5);
        let mut cfg = ServeConfig::new(m);
        cfg.oracle = true;
        let (out, summary) = run_grid(&cfg, &events);
        assert_eq!(summary.decisions, 300);
        assert_eq!(out.iter().filter(|&&b| b == b'\n').count(), 300);
    }

    #[test]
    fn worker_count_never_changes_the_bytes() {
        let m = 32;
        let events = grid_events(200, m, 13);
        let mut base = ServeConfig::new(m);
        base.workers = 1;
        let (one, _) = run_grid(&base, &events);
        base.workers = 4;
        let (four, _) = run_grid(&base, &events);
        assert_eq!(one, four);
    }

    #[test]
    fn cancelled_jobs_never_appear_in_the_output() {
        let m = 8;
        let events = vec![
            JobEvent::submit_rigid(0, 0.0, 1.0, 4, 2.0),
            JobEvent::submit_rigid(1, 5.0, 1.0, 2, 1.0),
            JobEvent::cancel(1, 5.0),
            JobEvent::submit_rigid(2, 6.0, 1.0, 8, 1.0),
        ];
        let (out, summary) = run_grid(&ServeConfig::new(m), &events);
        let text = String::from_utf8(out).expect("JSON output is UTF-8");
        assert_eq!(summary.decisions, 2);
        assert!(
            !text.contains("\"task\":1"),
            "cancelled job was placed:\n{text}"
        );
    }

    #[test]
    fn out_of_order_and_bad_cancels_are_typed_errors() {
        let m = 4;
        let disordered = [
            JobEvent::submit_rigid(0, 3.0, 1.0, 1, 1.0),
            JobEvent::submit_rigid(1, 1.0, 1.0, 1, 1.0),
        ];
        let mut out = Vec::new();
        let mut stats = ServeStats::new(m);
        let err = run_events(
            &ServeConfig::new(m),
            disordered
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, e)| Ok((i + 1, e))),
            &mut out,
            &mut stats,
            None,
        )
        .unwrap_err();
        assert!(
            matches!(err, ServeError::OutOfOrder { line: 2, .. }),
            "{err:?}"
        );

        let bad_cancel = [JobEvent::cancel(7, 0.0)];
        let mut out = Vec::new();
        let mut stats = ServeStats::new(m);
        let err = run_events(
            &ServeConfig::new(m),
            bad_cancel
                .iter()
                .cloned()
                .enumerate()
                .map(|(i, e)| Ok((i + 1, e))),
            &mut out,
            &mut stats,
            None,
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::Event { line: 1, .. }), "{err:?}");
    }

    #[test]
    fn unknown_algorithms_are_rejected_and_registry_names_resolve() {
        assert!(matches!(
            resolve_scheduler("nope"),
            Err(ServeError::Config(_))
        ));
        assert_eq!(resolve_scheduler("greedy").map(|s| s.name()), Ok("greedy"));
        assert_eq!(resolve_scheduler("gang").map(|s| s.name()), Ok("gang"));
    }
}
