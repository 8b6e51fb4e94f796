//! The `demt serve` command-line: flags (read through
//! `demt_api::flags`), event-source selection (stdin, Unix socket, SWF
//! replay, built-in grid generator), and exit codes. Kept in the library
//! so the facade and the `demt` binary share one implementation.

use crate::daemon::{run_events, ServeConfig, ServeSummary};
use crate::event::{grid_events, EventReader, JobEvent, ServeError};
use crate::stats::ServeStats;
use demt_api::flags::{FlagError, Flags};
use demt_frontend::SwfJobStream;
use demt_workload::{TraceGen, TraceSpec};
use std::io::{BufRead, BufReader, Write};

const USAGE: &str = "\
usage: demt serve --procs M [options]            schedule JSONL events from stdin
       demt serve --procs M --replay FILE.swf    schedule an SWF trace
       demt serve --procs M --socket PATH        accept event streams on a Unix socket
       demt serve --gen-grid [--tasks N] [--procs M] [--seed S]
                                                 print a benchmark event trace
       demt serve --gen-trace SPEC               print a synthetic workload trace
                                                 (SPEC like n=2e4,m=1e3,seed=7)

options:
  --algorithm NAME   greedy (default) or a registry name (demt, gang, ...)
  --workers N        lift/serialize worker threads (default 1; output
                     bytes are identical for every N)
  --tick N           stats snapshot every N decisions (default: final only)
  --stats PATH       write stats JSON lines to PATH (default: stderr)
  --oracle           self-check at EOF: cancel-free feeds diff against the
                     all-at-once batch wrapper, cancel feeds against a
                     single-worker replay; both audit for overlaps. Holds
                     O(n) memory (event log, output mirror, schedule);
                     plain serve keeps only pending jobs and one batch
  --seed S           lift seed for --replay / trace seed for --gen-grid
  --once             with --socket: serve one connection, then exit
";

/// Entry point behind `demt serve`; returns the process exit code
/// (0 success, 1 runtime failure, 2 usage error or a `--replay` trace
/// that cannot be opened or holds a bad record).
// demt-lint: allow(P2, reaches run_events' path through BatchLoop::run_batch's dyn Scheduler call to Criteria::evaluate; the loop checks every batch for a dropped job first)
pub fn serve_cli(args: &[String]) -> i32 {
    serve(args).unwrap_or_else(|e| e.report("demt serve", USAGE))
}

fn serve(args: &[String]) -> Result<i32, FlagError> {
    let f = Flags::parse(
        args,
        "tasks procs seed workers tick algorithm stats replay socket gen-trace",
        "gen-grid oracle once",
        false,
    )?;
    // Each mode reads only its own flags; any other given flag is an
    // error, never silently ignored.
    let (mode, unread) = if f.switch("gen-grid") {
        (
            "with --gen-grid",
            "gen-trace replay socket once workers tick algorithm stats oracle",
        )
    } else if f.str("gen-trace").is_some() {
        (
            "with --gen-trace",
            "tasks procs seed replay socket once workers tick algorithm stats oracle",
        )
    } else if f.str("socket").is_some() {
        ("with --socket", "tasks seed replay")
    } else if f.str("replay").is_some() {
        ("with --replay", "tasks once")
    } else {
        ("with events on stdin", "tasks seed once")
    };
    f.unread(unread, mode)?;
    let mut cfg = ServeConfig::new(f.num("procs", 0)?);
    cfg.algorithm = f.str("algorithm").unwrap_or("greedy").to_string();
    cfg.workers = f.count("workers", 1)?;
    cfg.tick = f.num("tick", 0)?;
    cfg.oracle = f.switch("oracle");
    let seed = f.num("seed", 0)?;
    if f.switch("gen-grid") {
        let procs = if cfg.procs == 0 { 64 } else { cfg.procs };
        return Ok(emit(grid_events(f.num("tasks", 1000)?, procs, seed)));
    }
    if let Some(text) = f.str("gen-trace") {
        // The streaming twin of `--gen-grid`: the exact job stream
        // `demt replaybench --gen-trace` schedules, as submit events.
        let spec: TraceSpec = text
            .parse()
            .map_err(|e| FlagError::bad("gen-trace", text, e))?;
        return Ok(emit(TraceGen::new(&spec).map(|tj| {
            JobEvent::submit_moldable(
                tj.task.id().index(),
                tj.release,
                tj.task.weight(),
                tj.task.times().to_vec(),
            )
        })));
    }
    if cfg.procs == 0 {
        return Err(FlagError::Usage("--procs is required"));
    }
    match run(&f, &cfg, seed) {
        Ok(()) => Ok(0),
        Err(e) => {
            eprintln!("demt serve: {e}");
            let bad_trace = matches!(e, ServeError::Trace(_) | ServeError::TraceOpen(_));
            Ok(if bad_trace { 2 } else { 1 })
        }
    }
}

/// Prints a generated trace as JSONL events on stdout.
fn emit(events: impl IntoIterator<Item = JobEvent>) -> i32 {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for ev in events {
        let line = match serde_json::to_string(&ev) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("demt serve: serializing trace: {e}");
                return 1;
            }
        };
        if let Err(e) = writeln!(out, "{line}") {
            eprintln!("demt serve: stdout: {e}");
            return 1;
        }
    }
    0
}

fn run(f: &Flags, cfg: &ServeConfig, seed: u64) -> Result<(), ServeError> {
    // The stats sink: a file when requested, stderr otherwise.
    let mut stats_file;
    let mut stats_err;
    let stats_sink: &mut dyn Write = match f.str("stats") {
        Some(path) => {
            stats_file = std::fs::File::create(path)
                .map_err(|e| ServeError::Config(format!("--stats {path}: {e}")))?;
            &mut stats_file
        }
        None => {
            stats_err = std::io::stderr();
            &mut stats_err
        }
    };

    if let Some(path) = f.str("socket") {
        return serve_socket(cfg, path, f.switch("once"), stats_sink);
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut stats = ServeStats::new(cfg.procs);
    let summary = if let Some(path) = f.str("replay") {
        let file =
            std::fs::File::open(path).map_err(|e| ServeError::TraceOpen(format!("{path}: {e}")))?;
        let events = swf_events(BufReader::new(file), cfg.procs, seed);
        run_events(cfg, events, &mut out, &mut stats, Some(stats_sink))?
    } else {
        let stdin = std::io::stdin();
        let events = EventReader::new(stdin.lock());
        run_events(cfg, events, &mut out, &mut stats, Some(stats_sink))?
    };
    log_summary(&summary);
    Ok(())
}

/// Adapts a raw SWF byte stream into daemon events: each record is
/// lifted to a moldable profile by [`SwfJobStream`] (same seeded laws
/// as the batch SWF path) and submitted with its full profile vector.
fn swf_events<R: BufRead>(
    source: R,
    m: usize,
    seed: u64,
) -> impl Iterator<Item = Result<(usize, JobEvent), ServeError>> {
    SwfJobStream::new(source, m, seed)
        .enumerate()
        .map(|(i, r)| match r {
            Ok(job) => {
                let ev = JobEvent::submit_moldable(
                    job.task.id().index(),
                    job.release,
                    job.task.weight(),
                    job.task.times().to_vec(),
                );
                Ok((i + 1, ev))
            }
            Err(e) => Err(ServeError::Trace(e)),
        })
}

fn log_summary(s: &ServeSummary) {
    eprintln!(
        "demt serve: {} events, {} decisions in {} batches, horizon {:.3}",
        s.events, s.decisions, s.batches, s.horizon
    );
}

/// Accepts event streams on a Unix socket: each connection carries one
/// JSONL event log and receives its placements back on the same
/// stream. Connections are served sequentially (each gets a fresh
/// daemon state); `once` closes the listener after the first.
fn serve_socket(
    cfg: &ServeConfig,
    path: &str,
    once: bool,
    stats_sink: &mut dyn Write,
) -> Result<(), ServeError> {
    use std::os::unix::net::UnixListener;
    // A stale socket file from a previous run would make bind fail.
    if std::fs::metadata(path).is_ok() {
        std::fs::remove_file(path)
            .map_err(|e| ServeError::Config(format!("--socket {path}: {e}")))?;
    }
    let listener = UnixListener::bind(path)
        .map_err(|e| ServeError::Config(format!("--socket {path}: {e}")))?;
    for conn in listener.incoming() {
        let stream = conn.map_err(|e| ServeError::Io(e.to_string()))?;
        let reader = stream
            .try_clone()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let mut writer = stream;
        let events = EventReader::new(BufReader::new(reader));
        let mut stats = ServeStats::new(cfg.procs);
        match run_events(cfg, events, &mut writer, &mut stats, Some(stats_sink)) {
            Ok(summary) => log_summary(&summary),
            // A bad client stream must not take the daemon down.
            Err(e) => eprintln!("demt serve: connection: {e}"),
        }
        if once {
            break;
        }
    }
    Ok(())
}
