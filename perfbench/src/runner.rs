//! The closed-loop runner every workload shares: set-up and warm-up,
//! the timed loop, output checks, and the metric report.
//!
//! A workload is a fixed list of ops over inputs generated from the
//! seed. One *pass* runs that list once, in order, each op issued when
//! the previous one returned. Every pass of a run computes the same
//! placement fingerprint, so a pass whose fingerprint differs from the
//! warm-up's counts all its ops as failed.
//!
//! Set-ups and timed passes alternate with blocks of the reference
//! computation, and the end-to-end times are reported in seconds of a
//! host at nominal speed ([`crate::reference`]).

use crate::mem;
use crate::reference::{HostClock, Reference};
use crate::stats::{median, percentiles, MIN_OPS};
use crate::trace::Tracer;
use demt_platform::Placement;
use serde_json::Value;
use std::time::{Duration, Instant};

/// Bytes in a MiB.
const MIB: f64 = 1024.0 * 1024.0;

/// Fewest set-ups per run; `setup_s` is their median.
pub const MIN_SETUPS: usize = 3;

/// Set-ups continue past [`MIN_SETUPS`] until they have taken this many
/// seconds in all, so that a short set-up is a median of many.
pub const SETUP_SECONDS: f64 = 2.0;

/// Most set-ups per run.
pub const MAX_SETUPS: usize = 25;

/// Fewest timed passes per run.
pub const MIN_PASSES: usize = 5;

/// After each set-up and each timed pass, a block of the reference
/// computation runs for about this share of that set-up's or pass's
/// time; see [`crate::reference`].
pub const REFERENCE_SHARE: f64 = 0.4;

/// Reference units timed once at the start, to size the blocks.
const CALIBRATION_UNITS: u64 = 50;

/// The latency buffer is sized for this many times the passes the
/// fastest warm-up pass predicts, so that it never grows while the
/// program's peak memory is being watched.
const LATENCY_HEADROOM: usize = 3;

/// FNV-1a 64 over the bytes a workload feeds it: the fingerprint of a
/// pass's placements, or of a pool's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Folds in a placement: task, start, duration and processor ranges.
    pub fn placement(&mut self, p: &Placement) {
        self.update(&(p.task.index() as u64).to_le_bytes());
        self.update(&p.start.to_bits().to_le_bytes());
        self.update(&p.duration.to_bits().to_le_bytes());
        for &(lo, hi) in p.procs.ranges() {
            self.update(&lo.to_le_bytes());
            self.update(&hi.to_le_bytes());
        }
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// What the ops of a run produced: counts, exact latencies, and the
/// current pass's fingerprint.
#[derive(Debug, Default)]
pub struct Recorder {
    /// Ops attempted.
    pub ops: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// One latency per op, nanoseconds.
    pub latencies_ns: Vec<u64>,
    /// Fingerprint of the current pass's placements.
    pub fingerprint: Fnv,
}

impl Recorder {
    /// Records one op: its latency and whether its output checked out.
    pub fn op(&mut self, latency_ns: u64, ok: bool) {
        self.ops += 1;
        self.failed += u64::from(!ok);
        self.latencies_ns.push(latency_ns);
    }
}

/// Nanoseconds from `since` to now.
pub fn nanos_since(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Generates the input pool from the seed. Same seed, same bytes.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Digest of the generated inputs (for the same-seed check).
    fn input_digest(&self) -> u64;

    /// Runs the fixed op list once, recording every op into `rec` and
    /// every placement into `rec.fingerprint`.
    fn pass(&self, tr: Option<&Tracer>, rec: &mut Recorder);

    /// Replays the same ops through a second wiring of the layers and
    /// returns its placement fingerprint, which must equal a pass's.
    fn cross_check(&self, _tr: Option<&Tracer>) -> Option<Result<Fnv, String>> {
        None
    }

    /// One `shape …` line describing the traffic the inputs make (load,
    /// batch sizes), computed outside the timed region.
    fn shape(&self) -> Result<Option<String>, String> {
        Ok(None)
    }
}

/// The command-line arguments of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Input seed.
    pub seed: u64,
    /// Timed seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// A run's result: the final JSON line plus the lines printed before it.
#[derive(Debug)]
pub struct Report {
    /// Human-readable lines (fingerprint, sample counts).
    pub notes: Vec<String>,
    /// The last stdout line.
    pub result: Value,
}

/// How one per-layer metric is derived from the trace.
enum Derive {
    /// Self time of a span, microseconds per op.
    SelfPerOp(&'static str),
    /// Self time of a span, microseconds per span.
    SelfPerCall(&'static str),
    /// A counter per op.
    PerOp(&'static str),
    /// One counter over another.
    Ratio(&'static str, &'static str),
    /// Wall share of traced passes no layer span covers.
    GlueShare,
    /// Traced over untraced wall time per op.
    Overhead,
}

/// Every per-layer metric, as `BENCHMARK.json` lists them. A workload
/// that never enters a layer reports zero for it.
const PER_LAYER: &[(&str, &str, Derive)] = &[
    (
        "dual.approx.us_per_op",
        "us",
        Derive::SelfPerOp("dual.approx"),
    ),
    ("core.demt.us_per_op", "us", Derive::SelfPerOp("core.demt")),
    (
        "core.batches_per_op",
        "count",
        Derive::PerOp("core.batches"),
    ),
    (
        "bounds.minsum_lb.us_per_op",
        "us",
        Derive::SelfPerOp("bounds.minsum_lb"),
    ),
    (
        "lp.iterations_per_op",
        "count",
        Derive::PerOp("lp.iterations"),
    ),
    (
        "lp.refactorizations_per_op",
        "count",
        Derive::PerOp("lp.refactorizations"),
    ),
    (
        "lp.warm_start_ratio",
        "ratio",
        Derive::Ratio("lp.warm_started", "lp.solves"),
    ),
    (
        "platform.validate.us_per_op",
        "us",
        Derive::SelfPerOp("platform.validate"),
    ),
    (
        "serve.event_reader.us_per_op",
        "us",
        Derive::SelfPerOp("serve.event_reader"),
    ),
    (
        "serve.bytes_in_per_op",
        "bytes",
        Derive::PerOp("serve.bytes_in"),
    ),
    (
        "serve.run_events.self_us_per_op",
        "us",
        Derive::SelfPerOp("serve.run_events"),
    ),
    (
        "serve.lift.us_per_op",
        "us",
        Derive::SelfPerOp("serve.lift"),
    ),
    (
        "api.schedule.us_per_batch",
        "us",
        Derive::SelfPerCall("api.schedule"),
    ),
    (
        "api.schedule.us_per_op",
        "us",
        Derive::SelfPerOp("api.schedule"),
    ),
    (
        "online.stream.self_us_per_op",
        "us",
        Derive::SelfPerOp("online.stream"),
    ),
    (
        "platform.write_json.us_per_op",
        "us",
        Derive::SelfPerOp("platform.write_json"),
    ),
    (
        "online.batches",
        "count",
        Derive::Ratio("online.batches", "online.sessions"),
    ),
    (
        "online.jobs_per_batch",
        "count",
        Derive::Ratio("online.decisions", "online.batches"),
    ),
    (
        "frontend.replay_queue.self_us_per_op",
        "us",
        Derive::SelfPerOp("frontend.replay_queue"),
    ),
    (
        "frontend.metrics_record.us_per_op",
        "us",
        Derive::SelfPerOp("frontend.metrics_record"),
    ),
    (
        "json.parse_instance.us_per_op",
        "us",
        Derive::SelfPerOp("json.parse_instance"),
    ),
    (
        "json.bytes_in_per_op",
        "bytes",
        Derive::PerOp("json.bytes_in"),
    ),
    (
        "json.print_schedule.us_per_op",
        "us",
        Derive::SelfPerOp("json.print_schedule"),
    ),
    (
        "json.parse_schedule.us_per_op",
        "us",
        Derive::SelfPerOp("json.parse_schedule"),
    ),
    (
        "json.bytes_out_per_op",
        "bytes",
        Derive::PerOp("json.bytes_out"),
    ),
    ("trace.glue_share", "ratio", Derive::GlueShare),
    ("trace.overhead", "ratio", Derive::Overhead),
];

/// Wall time and ops of the untraced and traced passes of a traced run.
#[derive(Debug, Default)]
struct TraceWall {
    plain_ns: u64,
    plain_ops: u64,
    traced_ns: u64,
    traced_ops: u64,
    /// Traced wall time including the cross-check replays.
    spanned_ns: u64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(tr: &Tracer, wall: &TraceWall) -> Vec<(&'static str, f64, &'static str)> {
    let ops = wall.traced_ops as f64;
    PER_LAYER
        .iter()
        .map(|(name, unit, how)| {
            let v = match *how {
                Derive::SelfPerOp(s) => ratio(tr.span_totals(s).self_ns as f64 / 1e3, ops),
                Derive::SelfPerCall(s) => {
                    let t = tr.span_totals(s);
                    ratio(t.self_ns as f64 / 1e3, t.count as f64)
                }
                Derive::PerOp(c) => ratio(tr.counter(c), ops),
                Derive::Ratio(a, b) => ratio(tr.counter(a), tr.counter(b)),
                Derive::GlueShare => glue_share(wall.spanned_ns, tr.layer_self_ns()),
                Derive::Overhead => ratio(
                    ratio(wall.traced_ns as f64, wall.traced_ops as f64),
                    ratio(wall.plain_ns as f64, wall.plain_ops as f64),
                ),
            };
            (*name, v, *unit)
        })
        .collect()
}

/// Share of `wall_ns` that no layer span covers, given the layer spans'
/// summed self time.
pub fn glue_share(wall_ns: u64, layer_self_ns: u64) -> f64 {
    ratio(wall_ns.saturating_sub(layer_self_ns) as f64, wall_ns as f64)
}

/// A `kB` line of `/proc/self/status` (e.g. `VmHWM:`), in MiB.
fn status_mb(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))?;
    Ok(kb / 1024.0)
}

fn metric_object(metrics: &[(&str, f64, &str)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, v, unit)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*v)),
                        ("unit".to_string(), Value::String(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Runs one pass and, when its fingerprint differs from `expected`,
/// marks every op it attempted as failed.
fn checked_pass<W: Workload>(w: &W, tr: Option<&Tracer>, rec: &mut Recorder, expected: Fnv) {
    let (ops0, failed0) = (rec.ops, rec.failed);
    rec.fingerprint = Fnv::default();
    w.pass(tr, rec);
    if rec.fingerprint != expected {
        rec.failed = failed0 + (rec.ops - ops0);
    }
}

/// Set-up, warm-up, the timed loop and the report for workload `W`.
pub fn run<W: Workload>(name: &str, args: RunArgs) -> Result<Report, String> {
    let reference = Reference::new();
    let mut calibration = HostClock::default();
    reference.block(CALIBRATION_UNITS, &mut calibration)?;
    let unit_s = calibration.ns as f64 / calibration.units as f64 / 1e9;

    // Set-up: generate the pool and run one warm-up pass, several times;
    // the previous pool is dropped before the next is built. Each set-up
    // is followed by a reference block that gives its host factor.
    let mut setup_wall_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut setup_host = HostClock::default();
    let mut fastest_pass_s = f64::INFINITY;
    let mut prepared: Option<(W, Recorder)> = None;
    while setup_wall_s.len() < MIN_SETUPS
        || (setup_wall_s.iter().sum::<f64>() < SETUP_SECONDS && setup_wall_s.len() < MAX_SETUPS)
    {
        drop(prepared.take());
        let t = Instant::now();
        let w = W::setup(args.seed)?;
        let mut warm = Recorder::default();
        let p = Instant::now();
        w.pass(None, &mut warm);
        fastest_pass_s = fastest_pass_s.min(p.elapsed().as_secs_f64());
        let wall_s = t.elapsed().as_secs_f64();
        let mut host = HostClock::default();
        reference.block(
            Reference::units_for(REFERENCE_SHARE * wall_s, unit_s),
            &mut host,
        )?;
        setup_wall_s.push(wall_s);
        setup_s.push(host.normalize(wall_s));
        setup_host.ns += host.ns;
        setup_host.units += host.units;
        prepared = Some((w, warm));
    }
    let (w, warm) = prepared.ok_or("no set-up ran")?;
    if warm.failed > 0 {
        return Err(format!(
            "{} of {} warm-up ops failed their check",
            warm.failed, warm.ops
        ));
    }
    let expected = warm.fingerprint;
    let ops_per_pass = warm.ops;
    let mut notes = vec![format!(
        "fingerprint workload={name} seed={} inputs={:016x} placements={:016x}",
        args.seed,
        w.input_digest(),
        expected.value()
    )];
    let mut cross_failures = 0u64;
    let mut cross = |tr: Option<&Tracer>| -> Result<(), String> {
        if let Some(fp) = w.cross_check(tr) {
            if fp? != expected {
                cross_failures += ops_per_pass;
            }
        }
        Ok(())
    };
    cross(None)?;
    notes.extend(w.shape()?);

    let budget = Duration::from_secs(args.seconds);
    let mut rec = Recorder::default();
    let metrics = if args.trace {
        // Untraced and traced passes alternate, so drift hits both alike.
        let tracer = Tracer::new();
        let mut wall = TraceWall::default();
        let mut passes = 0u64;
        let started = Instant::now();
        while started.elapsed() < budget || passes < 2 || rec.latencies_ns.len() < MIN_OPS {
            let traced = passes % 2 == 1;
            let tr = traced.then_some(&tracer);
            let ops0 = rec.ops;
            let t = Instant::now();
            checked_pass(&w, tr, &mut rec, expected);
            let ns = nanos_since(t);
            if traced {
                wall.traced_ns += ns;
                wall.traced_ops += rec.ops - ops0;
                let t = Instant::now();
                cross(tr)?;
                wall.spanned_ns += ns + nanos_since(t);
            } else {
                wall.plain_ns += ns;
                wall.plain_ops += rec.ops - ops0;
            }
            passes += 1;
        }
        notes.push(format!(
            "traced passes={} ops={} untraced passes={} ops={}",
            passes / 2,
            wall.traced_ops,
            passes.div_ceil(2),
            wall.plain_ops
        ));
        per_layer(&tracer, &wall)
    } else {
        // Every latency sample lands in memory allocated before the peak
        // restarts, so the peak follows the program, not the number of
        // ops the host lets the run complete.
        let passes_expected = (args.seconds as f64 / fastest_pass_s).ceil() as usize;
        let capacity = (ops_per_pass as usize)
            * (LATENCY_HEADROOM * passes_expected.max(MIN_PASSES) + 1)
            + MIN_OPS;
        rec.latencies_ns = Vec::with_capacity(capacity);
        let units = Reference::units_for(REFERENCE_SHARE * fastest_pass_s, unit_s);
        let mut host = HostClock::default();
        let held = mem::reset_peak();

        // Passes alternate with reference blocks; the blocks' allocations
        // are left out of the peak.
        let started = Instant::now();
        let mut pass_s = Vec::new();
        while started.elapsed() < budget
            || pass_s.len() < MIN_PASSES
            || rec.latencies_ns.len() < MIN_OPS
        {
            let t = Instant::now();
            checked_pass(&w, None, &mut rec, expected);
            pass_s.push(t.elapsed().as_secs_f64());
            let peak = mem::peak_bytes();
            reference.block(units, &mut host)?;
            mem::restore_peak(peak);
        }
        let peak_mb = (mem::peak_bytes() - held) as f64 / MIB;
        let passes = pass_s.len();
        let program_s: f64 = pass_s.iter().sum();
        let wall_ops_per_s = rec.ops as f64 / program_s;
        let median_pass_s = median(&mut pass_s);
        let lat = percentiles(&mut rec.latencies_ns)?;
        let (p50_ms, p99_ms) = (lat.p50_ns as f64 / 1e6, lat.p99_ns as f64 / 1e6);
        let wall_setup_s = median(&mut setup_wall_s);
        notes.push(format!(
            "latency samples={} passes={passes} ops_per_pass={ops_per_pass} program_s={program_s} median_pass_s={median_pass_s}",
            lat.samples
        ));
        notes.push(format!(
            "host reference_units={} unit_us={} factor={} setup_factor={} wall ops_per_s={wall_ops_per_s} p50_ms={p50_ms} p99_ms={p99_ms} setup_s={wall_setup_s}",
            host.units,
            host.ns as f64 / host.units as f64 / 1e3,
            host.factor(),
            setup_host.factor()
        ));
        notes.push(format!(
            "memory held_at_start_mb={} peak_above_held_mb={peak_mb} process_vmhwm_mb={} latency_buffer={capacity} regrown={}",
            held as f64 / MIB,
            status_mb("VmHWM:")?,
            rec.latencies_ns.capacity() > capacity
        ));
        notes.push(format!(
            "setup repeats={} wall_s={:?}",
            setup_wall_s.len(),
            setup_wall_s
        ));
        vec![
            (
                "ops_per_s",
                rec.ops as f64 / host.normalize(program_s),
                "1/s",
            ),
            ("latency_p50_ms", host.normalize(p50_ms), "ms"),
            ("latency_p99_ms", host.normalize(p99_ms), "ms"),
            ("peak_rss_mb", peak_mb, "MiB"),
            ("setup_s", median(&mut setup_s), "s"),
        ]
    };
    let failed = (rec.failed + cross_failures).min(rec.ops);
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(failed == 0)),
        ("attempted".to_string(), Value::Int(rec.ops as i64)),
        ("failed".to_string(), Value::Int(failed as i64)),
        ("metrics".to_string(), metric_object(&metrics)),
    ]);
    Ok(Report { notes, result })
}
