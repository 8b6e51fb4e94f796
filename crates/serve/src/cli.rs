//! The `demt serve` command-line: flag parsing, event-source selection
//! (stdin, Unix socket, SWF replay, built-in grid generator), and exit
//! codes. Kept in the library so the facade and the `demt` binary share
//! one implementation.

use crate::daemon::{run_events, ServeConfig, ServeSummary};
use crate::event::{grid_events, EventReader, JobEvent, ServeError};
use crate::stats::ServeStats;
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

/// Parsed flag set (every flag at most once; unknown flags are errors).
struct ServeOpts {
    gen_grid: bool,
    oracle: bool,
    once: bool,
    tasks: usize,
    procs: usize,
    seed: u64,
    workers: usize,
    tick: usize,
    algorithm: String,
    stats: Option<String>,
    replay: Option<String>,
    socket: Option<String>,
    gen_trace: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<ServeOpts, String> {
    let mut o = ServeOpts {
        gen_grid: false,
        oracle: false,
        once: false,
        tasks: 1000,
        procs: 0,
        seed: 0,
        workers: 1,
        tick: 0,
        algorithm: "greedy".to_string(),
        stats: None,
        replay: None,
        socket: None,
        gen_trace: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--gen-grid" => o.gen_grid = true,
            "--oracle" => o.oracle = true,
            "--once" => o.once = true,
            "--tasks" => o.tasks = parse_num(value(&mut it, "tasks")?, "tasks")?,
            "--procs" => o.procs = parse_num(value(&mut it, "procs")?, "procs")?,
            "--seed" => o.seed = parse_num(value(&mut it, "seed")?, "seed")?,
            "--workers" => o.workers = parse_num(value(&mut it, "workers")?, "workers")?,
            "--tick" => o.tick = parse_num(value(&mut it, "tick")?, "tick")?,
            "--algorithm" => o.algorithm = value(&mut it, "algorithm")?.clone(),
            "--stats" => o.stats = Some(value(&mut it, "stats")?.clone()),
            "--replay" => o.replay = Some(value(&mut it, "replay")?.clone()),
            "--socket" => o.socket = Some(value(&mut it, "socket")?.clone()),
            "--gen-trace" => o.gen_trace = Some(value(&mut it, "gen-trace")?.clone()),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if o.workers == 0 {
        return Err("--workers must be at least 1".to_string());
    }
    Ok(o)
}

fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("--{flag} needs a value"))
}

fn parse_num<T: std::str::FromStr>(v: &str, flag: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad --{flag} value {v:?}"))
}

impl ServeOpts {
    fn config(&self) -> ServeConfig {
        let mut cfg = ServeConfig::new(self.procs);
        cfg.algorithm = self.algorithm.clone();
        cfg.workers = self.workers;
        cfg.tick = self.tick;
        cfg.oracle = self.oracle;
        cfg
    }
}

/// Entry point behind `demt serve`; returns the process exit code
/// (0 success, 1 runtime failure, 2 usage error).
// demt-lint: allow(P2, reaches lift_swf_record's expect via --swf streaming, whose Downey profiles are valid by construction)
pub fn serve_cli(args: &[String]) -> i32 {
    let opts = match parse_opts(args) {
        Ok(o) => o,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return 0;
            }
            eprintln!("demt serve: {msg}\n{USAGE}");
            return 2;
        }
    };
    if opts.gen_grid {
        let procs = if opts.procs == 0 { 64 } else { opts.procs };
        return emit_grid(opts.tasks, procs, opts.seed);
    }
    if let Some(spec) = &opts.gen_trace {
        return emit_trace(spec);
    }
    if opts.procs == 0 {
        eprintln!("demt serve: --procs is required\n{USAGE}");
        return 2;
    }
    match run(&opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("demt serve: {e}");
            1
        }
    }
}

fn emit_grid(tasks: usize, procs: usize, seed: u64) -> i32 {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for ev in grid_events(tasks, procs, seed) {
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

/// Prints the synthetic trace of a [`TraceSpec`] one-liner as JSONL
/// submit events — the streaming twin of `--gen-grid`, sharing the
/// exact job stream `demt replaybench --gen-trace` schedules.
fn emit_trace(spec: &str) -> i32 {
    let spec: TraceSpec = match spec.parse() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("demt serve: --gen-trace: {e}\n{USAGE}");
            return 2;
        }
    };
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for tj in TraceGen::new(&spec) {
        let ev = JobEvent::submit_moldable(
            tj.task.id().index(),
            tj.release,
            tj.task.weight(),
            tj.task.times().to_vec(),
        );
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

fn run(opts: &ServeOpts) -> Result<(), ServeError> {
    let cfg = opts.config();
    // The stats sink: a file when requested, stderr otherwise.
    let mut stats_file;
    let mut stats_err;
    let stats_sink: &mut dyn Write = match &opts.stats {
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

    if let Some(path) = &opts.socket {
        return serve_socket(&cfg, path, opts.once, stats_sink);
    }

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut stats = ServeStats::new(cfg.procs);
    let summary = if let Some(path) = &opts.replay {
        let file = std::fs::File::open(path)
            .map_err(|e| ServeError::Config(format!("--replay {path}: {e}")))?;
        let events = swf_events(BufReader::new(file), cfg.procs, opts.seed);
        run_events(&cfg, events, &mut out, &mut stats, Some(stats_sink))?
    } else {
        let stdin = std::io::stdin();
        let events = EventReader::new(stdin.lock());
        run_events(&cfg, events, &mut out, &mut stats, Some(stats_sink))?
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
            Err(e) => Err(ServeError::Parse {
                line: e.line,
                message: e.message,
            }),
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
