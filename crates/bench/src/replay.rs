//! `demt replaybench` — archive-scale replay benchmark harness.
//!
//! Feeds a job trace — synthetic ([`TraceSpec`] one-liner, streamed by
//! [`TraceGen`]) or a real SWF file (streamed by [`SwfJobStream`]) —
//! through the two production scheduling paths in constant memory:
//!
//! * the **serve** leg: moldable jobs through the persistent
//!   Shmoys–Wein–Williamson core
//!   ([`demt_online::stream_batch_schedule`], the same engine behind
//!   `demt serve`), planning with any registry scheduler;
//! * the **queue** leg: rigid knee-rule requests through the streaming
//!   FCFS / EASY-backfilling engine
//!   ([`demt_frontend::replay_queue`]).
//!
//! Each leg folds its placements into a [`ReplayMetrics`] accumulator
//! and an FNV-1a content hash as they are emitted, so a million-job
//! replay never materializes a schedule. Results split over two
//! channels, like every other engine in this workspace:
//!
//! * **stdout** — one deterministic JSON document (keys sorted, no
//!   timing), byte-identical for any `--workers` count; the CI bench
//!   job `cmp`s two runs to enforce it.
//! * **stderr** (and `--bench-out`, appended) — one
//!   `{"bench":"replaybench",...}` JSON line per leg with wall seconds,
//!   jobs/sec, and p50/p99 decision latency from the workspace's one
//!   clock, [`DecisionLatency`]: wall time feeds these report lines
//!   only, never a scheduling decision.
//!
//! `--floors FILE --tier NAME` turns the run into a perf gate: measured
//! jobs/sec below the checked-in floor exits non-zero.

use demt_api::clock::DecisionLatency;
use demt_api::flags::{FlagError, Flags};
use demt_exec::Pool;
use demt_frontend::{
    replay_queue, rigid_request, MetricsError, QueueOrder, QueuePolicy, ReplayMetrics,
    ReplaySummary, SubmittedJob, SwfJobStream,
};
use demt_online::{stream_batch_schedule, OnlineJob};
use demt_serve::resolve_scheduler;
use demt_workload::{TraceGen, TraceSpec};
use serde_json::{json, Value};
use std::cell::RefCell;
use std::io::{BufReader, Write};
use std::rc::Rc;

const USAGE: &str = "\
usage: demt replaybench --gen-trace SPEC [options]     replay a synthetic trace
       demt replaybench --swf FILE --procs M [options] replay an SWF trace

SPEC is a one-liner like  n=2e4,m=1e3,seed=7[,kind=cirne,gap=0.05,shape=2.5]

options:
  --engine NAME      queue, serve, or both (default both)
  --algorithm NAME   serve-leg scheduler: greedy (default) or a registry
                     name (demt, gang, ...)
  --policy NAME      queue-leg discipline: easy (default) or fcfs
  --order NAME       queue-leg order: arrival (default) or priority
  --workers N        serialization worker threads (default 1; stdout
                     bytes are identical for every N)
  --seed S           SWF moldable-lift seed (default 0)
  --floors FILE      gate jobs/sec against a floors TOML
  --tier NAME        floors section to gate against (required with --floors)
  --bench-out FILE   append the timing JSON lines to FILE
  --label S          free-form label copied into the timing lines
";

/// Where the jobs come from.
enum Source {
    /// Synthetic trace streamed from a [`TraceSpec`].
    Gen(TraceSpec),
    /// SWF file streamed from disk, lifted on `m` processors.
    Swf { path: String, procs: usize },
}

impl Source {
    fn procs(&self) -> usize {
        match self {
            Source::Gen(spec) => spec.procs,
            Source::Swf { procs, .. } => *procs,
        }
    }

    /// The deterministic source label in the output documents.
    fn label(&self) -> String {
        match self {
            Source::Gen(spec) => format!("gen:{}", spec.display()),
            Source::Swf { path, .. } => format!("swf:{path}"),
        }
    }
}

/// One `demt replaybench` run as its flags ask for it, checked before
/// any leg starts.
struct Replay {
    source: Source,
    queue_leg: bool,
    serve_leg: bool,
    algorithm: String,
    policy: QueuePolicy,
    order: QueueOrder,
    workers: usize,
    seed: u64,
    /// `--floors FILE --tier NAME`, which only go together.
    floors: Option<(String, String)>,
    bench_out: Option<String>,
    label: String,
}

fn setup(args: &[String]) -> Result<Replay, FlagError> {
    let f = Flags::parse(
        args,
        "gen-trace swf procs engine algorithm policy order workers seed floors tier bench-out label",
        "",
        false,
    )?;
    let source = match (f.str("gen-trace"), f.str("swf")) {
        (Some(spec), None) => {
            // The spec carries the machine and the seed.
            f.unread("procs seed", "with --gen-trace")?;
            Source::Gen(
                spec.parse()
                    .map_err(|e| FlagError::bad("gen-trace", spec, e))?,
            )
        }
        (None, Some(path)) => {
            if f.str("procs").is_none() {
                return Err(FlagError::Usage("--swf needs --procs"));
            }
            Source::Swf {
                path: path.to_string(),
                procs: f.count("procs", 1)?,
            }
        }
        (Some(_), Some(_)) => return Err(FlagError::Usage("--gen-trace and --swf are exclusive")),
        (None, None) => return Err(FlagError::Usage("need --gen-trace or --swf")),
    };
    let floors = match (f.str("floors"), f.str("tier")) {
        (Some(path), Some(tier)) => Some((path.to_string(), tier.to_string())),
        (None, None) => None,
        _ => return Err(FlagError::Usage("--floors and --tier go together")),
    };
    let engines = [
        ("queue", (true, false)),
        ("serve", (false, true)),
        ("both", (true, true)),
    ];
    let (queue_leg, serve_leg) = f.pick("engine", (true, true), &engines)?;
    if !serve_leg {
        f.unread("algorithm", "with --engine queue")?;
    }
    if !queue_leg {
        f.unread("policy order", "with --engine serve")?;
    }
    let policies = [
        ("easy", QueuePolicy::EasyBackfill),
        ("fcfs", QueuePolicy::Fcfs),
    ];
    let orders = [
        ("arrival", QueueOrder::Arrival),
        ("priority", QueueOrder::Priority),
    ];
    Ok(Replay {
        source,
        queue_leg,
        serve_leg,
        algorithm: f.str("algorithm").unwrap_or("greedy").to_string(),
        policy: f.pick("policy", QueuePolicy::EasyBackfill, &policies)?,
        order: f.pick("order", QueueOrder::Arrival, &orders)?,
        workers: f.count("workers", 1)?,
        seed: f.num("seed", 0)?,
        floors,
        bench_out: f.str("bench-out").map(str::to_string),
        label: f.str("label").unwrap_or("").to_string(),
    })
}

/// FNV-1a 64 over the placements' compact JSON, in decision order — the
/// workers-independent fingerprint of the whole schedule.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// First error raised inside a streaming source, smuggled out of the
/// infallible iterator the engines consume.
type ErrSlot = Rc<RefCell<Option<String>>>;

/// Why a run stopped, with its exit code: 2 for a trace that cannot be
/// opened or a record that cannot be replayed (as for a bad flag), 1
/// for any other failure.
struct Failure(String, i32);

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure(e, 1)
    }
}

/// Fuses a fallible job stream into an infallible one: the first error
/// is parked in the slot and the stream ends there, so the engine
/// finishes what it already admitted and the driver reports the error.
fn fuse<I>(inner: I) -> (impl Iterator<Item = SubmittedJob>, ErrSlot)
where
    I: Iterator<Item = Result<SubmittedJob, String>>,
{
    let slot: ErrSlot = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&slot);
    let fused = inner.map_while(move |r| match r {
        Ok(job) => Some(job),
        Err(e) => {
            sink.borrow_mut().get_or_insert(e);
            None
        }
    });
    (fused, slot)
}

/// Opens the configured source as a fallible [`SubmittedJob`] stream.
/// Each call re-opens it from the start — legs must not share cursors.
fn open_source(
    opts: &Replay,
) -> Result<Box<dyn Iterator<Item = Result<SubmittedJob, String>>>, Failure> {
    match &opts.source {
        Source::Gen(spec) => {
            let m = spec.procs;
            Ok(Box::new(TraceGen::new(spec).map(move |tj| {
                let rigid_procs = rigid_request(&tj.task, m);
                Ok(SubmittedJob {
                    task: tj.task,
                    release: tj.release,
                    rigid_procs,
                })
            })))
        }
        Source::Swf { path, procs } => {
            let file =
                std::fs::File::open(path).map_err(|e| Failure(format!("--swf {path}: {e}"), 2))?;
            Ok(Box::new(
                SwfJobStream::new(BufReader::new(file), *procs, opts.seed)
                    .map(|r| r.map_err(|e| e.to_string())),
            ))
        }
    }
}

/// Everything one leg produces: the deterministic record for stdout,
/// the measured rate the floors gate, and the stderr/trend timing line.
struct LegReport {
    engine: &'static str,
    record: Value,
    decisions: usize,
    jobs_per_sec: f64,
    timing: Value,
}

/// Shared per-leg accumulator state: metrics fold, content hash, and
/// the decision-latency recorder (whose clock also times the leg).
struct LegState {
    metrics: ReplayMetrics,
    hash: Fnv,
    latency: DecisionLatency,
    metrics_err: Option<MetricsError>,
}

impl LegState {
    fn new() -> Self {
        Self {
            metrics: ReplayMetrics::new(),
            hash: Fnv::new(),
            latency: DecisionLatency::default(),
            metrics_err: None,
        }
    }

    /// Tallies one placement and its bytes; parks the first metrics error.
    fn tally(&mut self, blob: &[u8], p: &demt_platform::Placement, release: f64) {
        self.hash.update(blob);
        if let Err(e) = self
            .metrics
            .record(p.task, release, p.start, p.duration, p.procs.len())
        {
            self.metrics_err.get_or_insert(e);
        }
    }

    /// Closes the leg (a parked source or metrics error wins); `record`
    /// builds the stdout record from the summary and placement hash.
    fn finish(
        self,
        opts: &Replay,
        engine: &'static str,
        decisions: usize,
        source_err: &ErrSlot,
        record: impl FnOnce(&ReplaySummary, String) -> Value,
    ) -> Result<LegReport, Failure> {
        if let Some(e) = source_err.borrow_mut().take() {
            return Err(Failure(e, 2));
        }
        if let Some(e) = self.metrics_err {
            return Err(format!("metrics: {e}").into());
        }
        let summary = self
            .metrics
            .finish(opts.source.procs())
            .map_err(|e| format!("metrics: {e}"))?;
        let wall = self.latency.seconds();
        let jobs_per_sec = decisions as f64 / wall.max(f64::MIN_POSITIVE);
        Ok(LegReport {
            engine,
            record: record(&summary, self.hash.hex()),
            decisions,
            jobs_per_sec,
            // The `BENCH_replay.json` schema, keys sorted.
            timing: json!({
                "bench": "replaybench",
                "engine": engine,
                "jobs": decisions,
                "jobs_per_sec": jobs_per_sec,
                "label": opts.label,
                "p50_us": self.latency.quantile_us(0.50),
                "p99_us": self.latency.quantile_us(0.99),
                "procs": opts.source.procs(),
                "source": opts.source.label(),
                "wall_seconds": wall,
                "workers": opts.workers,
            }),
        })
    }
}

fn queue_leg(opts: &Replay) -> Result<LegReport, Failure> {
    let m = opts.source.procs();
    let (feed, err) = fuse(open_source(opts)?);
    let mut st = LegState::new();
    let mut buf = Vec::new();
    let outcome = replay_queue(m, feed, opts.policy, opts.order, |job, p| {
        st.latency.record(1);
        buf.clear();
        p.write_json(&mut buf);
        st.tally(&buf, p, job.release);
    })
    .map_err(|e| format!("queue replay: {e}"))?;
    let policy = match opts.policy {
        QueuePolicy::EasyBackfill => "easy",
        QueuePolicy::Fcfs => "fcfs",
    };
    let order = match opts.order {
        QueueOrder::Arrival => "arrival",
        QueueOrder::Priority => "priority",
    };
    st.finish(opts, "queue", outcome.decisions, &err, |summary, hash| {
        json!({
            "decisions": outcome.decisions,
            "engine": "queue",
            "makespan": summary.makespan,
            "max_wait": summary.max_wait,
            "mean_bounded_slowdown": summary.mean_bounded_slowdown,
            "mean_response": summary.mean_response,
            "mean_wait": summary.mean_wait,
            "order": order,
            "placement_hash": hash,
            "policy": policy,
            "utilization": summary.utilization,
        })
    })
}

fn serve_leg(opts: &Replay) -> Result<LegReport, Failure> {
    let m = opts.source.procs();
    let scheduler = resolve_scheduler(&opts.algorithm).map_err(|e| format!("--algorithm: {e}"))?;
    let pool = Pool::new(opts.workers);
    let (feed, err) = fuse(open_source(opts)?);
    let online = feed.map(|j| OnlineJob {
        task: j.task,
        release: j.release,
    });
    let mut st = LegState::new();
    let out = stream_batch_schedule(m, online, scheduler, |placements, releases| {
        st.latency.record(placements.len() as u64);
        // The workers knob parallelizes serialization only; the fold
        // below stays in decision order, so the hash (and stdout) are
        // identical for every worker count.
        let blobs = pool.par_map(placements, |_, p| {
            let mut v = Vec::new();
            p.write_json(&mut v);
            v
        });
        for ((p, blob), &release) in placements.iter().zip(&blobs).zip(releases) {
            st.tally(blob, p, release);
        }
    })
    .map_err(|e| format!("serve replay: {e}"))?;
    st.finish(opts, "serve", out.decisions, &err, |summary, hash| {
        json!({
            "algorithm": opts.algorithm,
            "batches": out.batches,
            "decisions": out.decisions,
            "engine": "serve",
            "makespan": summary.makespan,
            "max_wait": summary.max_wait,
            "mean_bounded_slowdown": summary.mean_bounded_slowdown,
            "mean_response": summary.mean_response,
            "mean_wait": summary.mean_wait,
            "placement_hash": hash,
            "utilization": summary.utilization,
        })
    })
}

/// Parses the `key = value` floats of one `[tier]` section out of a
/// minimal TOML (sections, float values, `#` comments — exactly the
/// shape of `bench_floors.toml`).
fn parse_floors(text: &str, tier: &str) -> Result<Vec<(String, f64)>, String> {
    let mut in_tier = false;
    let mut seen = false;
    let mut floors = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            in_tier = name.trim() == tier;
            seen = seen || in_tier;
            continue;
        }
        if !in_tier {
            continue;
        }
        let (k, v) = line
            .split_once('=')
            .ok_or_else(|| format!("floors line {}: expected key = value", i + 1))?;
        let parsed: f64 = v
            .trim()
            .parse()
            .map_err(|_| format!("floors line {}: bad number {:?}", i + 1, v.trim()))?;
        floors.push((k.trim().to_string(), parsed));
    }
    if !seen {
        return Err(format!("floors tier [{tier}] not found"));
    }
    Ok(floors)
}

/// Checks every `<engine>_jobs_per_sec` floor of the tier against the
/// measured legs. Returns the list of violations (empty = gate passes);
/// a malformed key or an engine other than `queue`/`serve` is an error,
/// so a misspelt floor cannot silently drop out of the gate.
fn check_floors(floors: &[(String, f64)], legs: &[LegReport]) -> Result<Vec<String>, String> {
    let mut failures = Vec::new();
    for (key, floor) in floors {
        let engine = match key.strip_suffix("_jobs_per_sec") {
            Some(engine @ ("queue" | "serve")) => engine,
            _ => {
                return Err(format!(
                    "floors key {key:?}: expected queue_jobs_per_sec or serve_jobs_per_sec"
                ))
            }
        };
        let Some(leg) = legs.iter().find(|l| l.engine == engine) else {
            // A floor for a leg this invocation did not run is not an
            // error: the smoke tier gates both legs, a --engine serve
            // run only the serve floor.
            continue;
        };
        if leg.jobs_per_sec < *floor {
            failures.push(format!(
                "{engine}: {:.0} jobs/sec under the {floor:.0} floor",
                leg.jobs_per_sec
            ));
        }
    }
    Ok(failures)
}

fn run(opts: &Replay) -> Result<(String, i32), Failure> {
    let mut legs = Vec::new();
    if opts.queue_leg {
        legs.push(queue_leg(opts)?);
    }
    if opts.serve_leg {
        legs.push(serve_leg(opts)?);
    }
    let jobs = legs.iter().map(|l| l.decisions).max().unwrap_or(0);
    if legs.iter().any(|l| l.decisions != jobs) {
        return Err(format!(
            "legs disagree on the job count: {:?}",
            legs.iter()
                .map(|l| (l.engine, l.decisions))
                .collect::<Vec<_>>()
        )
        .into());
    }

    // Deterministic result document: legs sorted by engine name, keys
    // alphabetical (the vendored serializer preserves insertion order),
    // no wall-clock quantity anywhere.
    legs.sort_by_key(|l| l.engine);
    let doc = json!({
        "engines": Value::Array(legs.iter().map(|l| l.record.clone()).collect()),
        "jobs": jobs,
        "procs": opts.source.procs(),
        "source": opts.source.label(),
    });
    let doc = serde_json::to_string(&doc).map_err(|e| format!("serialize: {e}"))?;

    // Timing lines: stderr always, the trend file when asked.
    let mut trend = match &opts.bench_out {
        Some(path) => Some(
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("--bench-out {path}: {e}"))?,
        ),
        None => None,
    };
    for leg in &legs {
        let line = serde_json::to_string(&leg.timing).map_err(|e| format!("serialize: {e}"))?;
        eprintln!("{line}");
        if let Some(f) = trend.as_mut() {
            writeln!(f, "{line}").map_err(|e| format!("--bench-out: {e}"))?;
        }
    }

    // The perf gate.
    if let Some((path, tier)) = &opts.floors {
        let text = std::fs::read_to_string(path).map_err(|e| format!("--floors {path}: {e}"))?;
        let floors = parse_floors(&text, tier)?;
        let failures = check_floors(&floors, &legs)?;
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("demt replaybench: FLOOR VIOLATION: {f}");
            }
            return Ok((doc, 1));
        }
        eprintln!(
            "demt replaybench: tier [{tier}] floors hold ({} checked)",
            floors.len()
        );
    }
    Ok((doc, 0))
}

/// Programmatic entry: parses `args`, runs the harness, and returns the
/// deterministic stdout document — what the byte-identity tests compare
/// across `--workers` counts without capturing a process's stdout.
/// Usage and runtime failures both surface as the error message.
// demt-lint: allow(P2, reaches TraceGen::next's valid-profile expect (reported via run -> parse_floors) and BatchLoop::run_batch's "indexed job" expect; both are annotated invariants)
pub fn replaybench_report(args: &[String]) -> Result<String, String> {
    let opts = setup(args).map_err(|e| e.to_string())?;
    run(&opts).map(|(doc, _)| doc).map_err(|Failure(e, _)| e)
}

/// Entry point behind `demt replaybench`; returns the process exit code
/// (0 success, 1 runtime failure or floor violation, 2 usage error, an
/// `--swf` trace that cannot be opened, or a trace record that cannot
/// be replayed).
// demt-lint: allow(P2, reaches TraceGen::next's valid-profile expect (reported via run -> parse_floors) and BatchLoop::run_batch's "indexed job" expect; both are annotated invariants)
pub fn replaybench_cli(args: &[String]) -> i32 {
    let opts = match setup(args) {
        Ok(r) => r,
        Err(e) => return e.report("demt replaybench", USAGE),
    };
    match run(&opts) {
        Ok((doc, code)) => {
            println!("{doc}");
            code
        }
        Err(Failure(message, code)) => {
            eprintln!("demt replaybench: {message}");
            code
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floors_parser_reads_the_checked_in_shape() {
        let text = "\
# comment
[smoke]
queue_jobs_per_sec = 1000.0  # inline comment
serve_jobs_per_sec = 500

[full]
serve_jobs_per_sec = 2e4
";
        let smoke = parse_floors(text, "smoke").unwrap();
        assert_eq!(
            smoke,
            vec![
                ("queue_jobs_per_sec".to_string(), 1000.0),
                ("serve_jobs_per_sec".to_string(), 500.0),
            ]
        );
        let full = parse_floors(text, "full").unwrap();
        assert_eq!(full, vec![("serve_jobs_per_sec".to_string(), 2e4)]);
        assert!(parse_floors(text, "nightly").is_err(), "unknown tier");
        assert!(parse_floors("[t]\nbad line\n", "t").is_err());
    }

    #[test]
    fn floor_gate_flags_only_measured_legs_below_floor() {
        let leg = |engine: &'static str, jps: f64| LegReport {
            engine,
            record: json!(null),
            decisions: 10,
            jobs_per_sec: jps,
            timing: json!(null),
        };
        let legs = vec![leg("queue", 100.0), leg("serve", 5000.0)];
        let floors = vec![
            ("queue_jobs_per_sec".to_string(), 200.0),
            ("serve_jobs_per_sec".to_string(), 200.0),
        ];
        let failures = check_floors(&floors, &legs).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("queue"));
        // A known engine this run skipped (--engine serve) is not gated.
        let serve_only = vec![leg("serve", 5000.0)];
        let skipped = vec![("queue_jobs_per_sec".to_string(), 1e9)];
        assert!(check_floors(&skipped, &serve_only).unwrap().is_empty());
        let bad = vec![("queue_throughput".to_string(), 1.0)];
        assert!(check_floors(&bad, &legs).is_err(), "malformed key");
        let typo = vec![("qeue_jobs_per_sec".to_string(), 1.0)];
        assert!(check_floors(&typo, &legs).is_err(), "unknown engine");
    }

    #[test]
    fn fused_source_parks_the_first_error() {
        let rows = vec![Err("boom".to_string()), Err("later".to_string())];
        let (mut feed, slot) = fuse(rows.into_iter());
        assert!(feed.next().is_none());
        assert_eq!(slot.borrow().as_deref(), Some("boom"));
    }

    #[test]
    fn spec_errors_are_usage_errors() {
        let args = |s: &[&str]| s.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(replaybench_cli(&args(&["--gen-trace", "nope"])), 2);
        assert_eq!(replaybench_cli(&args(&[])), 2);
        assert_eq!(
            replaybench_cli(&args(&["--swf", "x.swf"])),
            2,
            "--swf needs --procs"
        );
        assert_eq!(
            replaybench_cli(&args(&["--gen-trace", "n=4,m=4", "--floors", "f.toml"])),
            2,
            "--floors needs --tier"
        );
    }
}
