//! `demt` — command-line front end for the library, the tool a cluster
//! operator would script against (the paper's Fig. 1 front-end role).
//!
//! ```text
//! demt generate --kind cirne --tasks 50 --procs 64 --seed 7 > inst.json
//! demt schedule --algorithm demt   < inst.json > sched.json
//! demt validate --instance inst.json < sched.json
//! demt bound    < inst.json
//! demt gantt    --instance inst.json --width 80 < sched.json
//! ```
//!
//! Instances and schedules are exchanged as JSON (serde; exact float
//! round-trip enabled workspace-wide).

use demt::prelude::*;
use std::io::Read;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { die(USAGE) };
    // `repro` has its own flag grammar (positional figure names); hand
    // it the raw arguments before the --flag/value parse below.
    if cmd == "repro" {
        std::process::exit(demt::sim::repro_cli(&args[1..]));
    }
    // So does `lint` (its own --root/--config/--format grammar).
    if cmd == "lint" {
        std::process::exit(demt::lint::lint_cli(&args[1..]));
    }
    // And `serve` (event-source selection plus boolean flags).
    if cmd == "serve" {
        std::process::exit(demt::serve::serve_cli(&args[1..]));
    }
    // And `replaybench` (source selection plus the floors gate).
    if cmd == "replaybench" {
        std::process::exit(demt::bench::replaybench_cli(&args[1..]));
    }
    let opts = parse_opts(&args[1..]);
    match cmd.as_str() {
        "generate" => generate_cmd(&opts),
        "schedule" => schedule_cmd(&opts),
        "listbench" => listbench_cmd(&opts),
        "algorithms" => algorithms_cmd(),
        "validate" => validate_cmd(&opts),
        "bound" => bound_cmd(&opts),
        "gantt" => gantt_cmd(&opts),
        "exact" => exact_cmd(&opts),
        "frontend" => frontend_cmd(&opts),
        "swf" => swf_cmd(&opts),
        "--help" | "-h" | "help" => print!("{USAGE}"),
        other => die(&format!("unknown command {other}\n{USAGE}")),
    }
}

struct Opts(Vec<(String, String)>);

impl Opts {
    fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
    fn usize(&self, key: &str, default: usize) -> usize {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad --{key}"))))
            .unwrap_or(default)
    }
    fn u64(&self, key: &str, default: u64) -> u64 {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad --{key}"))))
            .unwrap_or(default)
    }
    fn f64(&self, key: &str, default: f64) -> f64 {
        self.get(key)
            .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad --{key}"))))
            .unwrap_or(default)
    }
}

fn parse_opts(args: &[String]) -> Opts {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(key) = a.strip_prefix("--") else {
            die(&format!("expected --flag, got {a}"))
        };
        let val = it
            .next()
            .unwrap_or_else(|| die(&format!("--{key} needs a value")));
        out.push((key.to_string(), val.clone()));
    }
    Opts(out)
}

fn read_stdin_json<T: serde::de::DeserializeOwned>(what: &str) -> T {
    let mut s = String::new();
    std::io::stdin()
        .read_to_string(&mut s)
        .unwrap_or_else(|e| die(&format!("stdin: {e}")));
    serde_json::from_str(&s).unwrap_or_else(|e| die(&format!("parsing {what} from stdin: {e}")))
}

fn read_file_json<T: serde::de::DeserializeOwned>(path: &str, what: &str) -> T {
    let s = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    serde_json::from_str(&s).unwrap_or_else(|e| die(&format!("parsing {what} from {path}: {e}")))
}

fn generate_cmd(opts: &Opts) {
    let kind = opts
        .get("kind")
        .map(|k| {
            WorkloadKind::from_name(k)
                .unwrap_or_else(|| die("bad --kind (weakly|highly|mixed|cirne)"))
        })
        .unwrap_or(WorkloadKind::Cirne);
    let procs = opts.usize("procs", 64);
    if procs == 0 {
        die("bad --procs 0 (the machine needs at least one processor)");
    }
    let inst = generate(kind, opts.usize("tasks", 50), procs, opts.u64("seed", 0));
    println!(
        "{}",
        serde_json::to_string_pretty(&inst).expect("serializable")
    );
}

/// `ScheduleReport` minus the schedule itself (that goes to stdout as
/// the pipeline payload) — the `--metrics json` stderr side channel.
#[derive(serde::Serialize)]
struct MetricsOut {
    algorithm: String,
    criteria: Criteria,
    wall_seconds: f64,
    phases: Vec<PhaseTiming>,
}

fn schedule_cmd(opts: &Opts) {
    let inst: Instance = read_stdin_json("instance");
    let name = opts.get("algorithm").unwrap_or("demt");
    let reg = registry();
    let Some(alg) = reg.by_name(name) else {
        die(&format!(
            "unknown --algorithm {name} ({})",
            reg.names().join("|")
        ))
    };
    let mut ctx = SchedulerContext::new();
    let report = match opts.get("hierarchy") {
        Some(spec) => {
            let h =
                Hierarchy::parse(spec).unwrap_or_else(|e| die(&format!("bad --hierarchy: {e}")));
            if h.total_cores() != inst.procs() {
                die(&format!(
                    "--hierarchy {h} has {} cores but the instance has {} processors",
                    h.total_cores(),
                    inst.procs()
                ));
            }
            HierarchicalScheduler::new(alg, h).schedule(&inst, &mut ctx)
        }
        None => alg.schedule(&inst, &mut ctx),
    };
    validate(&inst, &report.schedule)
        .unwrap_or_else(|e| die(&format!("internal: invalid schedule: {e}")));
    // The report already carries the evaluated criteria; nothing is
    // evaluated a second time here.
    match opts.get("metrics").unwrap_or("text") {
        "text" => {
            let c = &report.criteria;
            eprintln!(
                "{name}: Cmax = {:.4}, ΣwᵢCᵢ = {:.4}, utilization = {:.1}%",
                c.makespan,
                c.weighted_completion,
                c.utilization * 100.0
            );
        }
        "json" => {
            let out = MetricsOut {
                algorithm: report.algorithm.clone(),
                criteria: report.criteria,
                wall_seconds: report.wall_seconds,
                phases: report.phases.clone(),
            };
            eprintln!("{}", serde_json::to_string(&out).expect("serializable"));
        }
        other => die(&format!("bad --metrics {other} (text|json)")),
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&report.schedule).expect("serializable")
    );
}

fn algorithms_cmd() {
    for s in registry().all() {
        println!("{:<12} {}", s.name(), s.legend());
    }
}

/// `demt listbench` — the CI determinism + perf guard for the list
/// engine: schedule the shared `demt_platform::bench_grid` with the
/// skyline engine, print the schedule JSON on stdout (byte-identical
/// run to run; the crate's difftests pin it to the scan reference on
/// the CI grids) and timing metrics on stderr (where the engine's
/// jobs/sec lands in the CI logs).
fn listbench_cmd(opts: &Opts) {
    use demt::platform::{bench_grid, try_list_schedule, ListPolicy};
    let m = opts.usize("procs", 1000);
    if m == 0 {
        die("bad --procs 0 (the grid needs at least one processor)");
    }
    let n = opts.usize("tasks", 2000);
    let seed = opts.u64("seed", 0);
    let policy = match opts.get("policy").unwrap_or("greedy") {
        "greedy" => ListPolicy::Greedy,
        "ordered" => ListPolicy::Ordered,
        other => die(&format!("bad --policy {other} (greedy|ordered)")),
    };
    let tasks = bench_grid(n, m, seed);
    let clock = demt::api::clock::Stopwatch::start();
    let schedule = try_list_schedule(m, &tasks, policy).unwrap_or_else(|e| die(&e.to_string()));
    let wall = clock.seconds();
    demt::platform::validate_no_overlap(&schedule)
        .unwrap_or_else(|e| die(&format!("internal: overlapping schedule: {e}")));
    // Same line shape as `demt replaybench` timing lines (sorted keys,
    // a "bench" discriminator, jobs + jobs/sec) so the CI trend file
    // can carry both without a per-tool parser.
    eprintln!(
        "{}",
        serde_json::json!({
            "bench": "listbench",
            "engine": "skyline",
            "jobs": n,
            "jobs_per_sec": n as f64 / wall.max(f64::MIN_POSITIVE),
            "makespan": schedule.makespan(),
            "placements": schedule.len(),
            "policy": if policy == ListPolicy::Greedy { "greedy" } else { "ordered" },
            "procs": m,
            "wall_seconds": wall,
        })
    );
    println!(
        "{}",
        serde_json::to_string(&schedule).expect("serializable")
    );
}

fn validate_cmd(opts: &Opts) {
    let path = opts
        .get("instance")
        .unwrap_or_else(|| die("validate needs --instance FILE"));
    let inst: Instance = read_file_json(path, "instance");
    let schedule: Schedule = read_stdin_json("schedule");
    match validate(&inst, &schedule) {
        Ok(()) => {
            let c = Criteria::evaluate(&inst, &schedule);
            println!(
                "VALID: {} placements, Cmax = {:.4}, ΣwᵢCᵢ = {:.4}",
                schedule.len(),
                c.makespan,
                c.weighted_completion
            );
        }
        Err(e) => {
            println!("INVALID: {e}");
            std::process::exit(1);
        }
    }
}

fn bound_cmd(opts: &Opts) {
    let workers = opts.usize("workers", 1);
    if workers == 0 {
        die("--workers must be at least 1");
    }
    let inst: Instance = read_stdin_json("instance");
    if inst.is_empty() {
        die("bound needs at least one task");
    }
    let cfg = BoundConfig::default();
    if let Some(k) = opts.get("sweep") {
        // Warm-started horizon sweep: `k` horizons fanned out around
        // the dual estimate on a pool of `--workers` workers. The
        // chunked warm chains are worker-count independent, so the JSON
        // is byte-identical for any `--workers` value (CI diffs 1 vs 4).
        let k: usize = k.parse().unwrap_or_else(|_| die("bad --sweep"));
        if k == 0 {
            die("--sweep needs at least one horizon");
        }
        let dual = dual_approx(&inst, &cfg.dual);
        let horizons: Vec<f64> = (0..k)
            .map(|i| dual.lower_bound * (1.0 + 0.25 * i as f64))
            .collect();
        let pool = Pool::new(workers);
        let bounds = demt::bounds::minsum_bounds_for_horizons_on(&pool, &inst, &horizons);
        let rows: Vec<serde_json::Value> = horizons
            .iter()
            .zip(&bounds)
            .map(|(h, b)| {
                serde_json::json!({
                    "horizon": h,
                    // Named differently from the single-shot output on
                    // purpose: this is the per-horizon LP/trivial bound
                    // only, without the horizon-independent
                    // squashed-area max folded in.
                    "lp_bound": b.value,
                    "lp_value": b.lp_value,
                    "lp_iterations": b.lp_iterations,
                    "lp_refactorizations": b.lp_refactorizations,
                    "lp_warm_started": b.lp_warm_started,
                })
            })
            .collect();
        println!("{}", serde_json::json!(rows));
        return;
    }
    // The detailed variant also hands back the LP's phase cost
    // (iterations, refactorizations) so the report is not an opaque
    // wall-clock — same spirit as `schedule --metrics json`.
    let (b, lp) = demt::bounds::instance_bounds_detailed(&inst, &cfg);
    println!(
        "{}",
        serde_json::json!({
            "cmax_lower_bound": b.cmax,
            "minsum_lower_bound": b.minsum,
            "lp_iterations": lp.lp_iterations,
            "lp_refactorizations": lp.lp_refactorizations,
            "lp_warm_started": lp.lp_warm_started,
            "tasks": inst.len(),
            "procs": inst.procs(),
        })
    );
}

fn gantt_cmd(opts: &Opts) {
    let path = opts
        .get("instance")
        .unwrap_or_else(|| die("gantt needs --instance FILE"));
    let inst: Instance = read_file_json(path, "instance");
    let schedule: Schedule = read_stdin_json("schedule");
    validate(&inst, &schedule).unwrap_or_else(|e| die(&format!("invalid schedule: {e}")));
    print!("{}", render_gantt(&schedule, opts.usize("width", 80)));
}

fn exact_cmd(_opts: &Opts) {
    let inst: Instance = read_stdin_json("instance");
    if inst.is_empty() {
        die("exact needs at least one task");
    }
    if inst.len() > demt::exact::MAX_TASKS {
        die(&format!(
            "exact search is capped at {} tasks (instance has {})",
            demt::exact::MAX_TASKS,
            inst.len()
        ));
    }
    let gave_up = |e: demt::exact::NodeBudgetExceeded| die(&e.to_string());
    let cm = demt::exact::exact_cmax(&inst).unwrap_or_else(gave_up);
    let ms = demt::exact::exact_minsum(&inst).unwrap_or_else(gave_up);
    println!(
        "{}",
        serde_json::json!({
            "optimal_cmax": cm.value,
            "optimal_minsum": ms.value,
            "nodes_explored": cm.nodes + ms.nodes,
        })
    );
}

fn frontend_cmd(opts: &Opts) {
    use demt::frontend::*;
    let spec = StreamSpec {
        kind: opts
            .get("kind")
            .map(|k| WorkloadKind::from_name(k).unwrap_or_else(|| die("bad --kind")))
            .unwrap_or(WorkloadKind::Cirne),
        jobs: match opts.usize("jobs", 60) {
            0 => die("bad --jobs 0 (the stream needs at least one job)"),
            n => n,
        },
        procs: match opts.usize("procs", 32) {
            0 => die("bad --procs 0 (the machine needs at least one processor)"),
            m => m,
        },
        mean_interarrival: {
            let gap = opts.f64("gap", 0.5);
            if !(gap > 0.0 && gap.is_finite()) {
                die("bad --gap (the mean inter-arrival time must be positive and finite)")
            }
            gap
        },
        arrivals: match opts.get("arrivals").unwrap_or("poisson") {
            "poisson" | "exponential" => ArrivalModel::Poisson,
            "pareto" => ArrivalModel::Pareto,
            _ => die("bad --arrivals (poisson|pareto)"),
        },
        pareto_shape: {
            let shape = opts.f64("shape", 2.5);
            if !(shape > 1.0 && shape.is_finite()) {
                die("bad --shape (Pareto tail shape must be > 1 for a finite mean)")
            }
            shape
        },
        seed: opts.u64("seed", 0),
    };
    let jobs = submit_stream(&spec);
    let fcfs = queue_schedule(spec.procs, &jobs, QueuePolicy::Fcfs);
    let easy = queue_schedule(spec.procs, &jobs, QueuePolicy::EasyBackfill);
    let demt_s = moldable_schedule(
        spec.procs,
        &jobs,
        registry().by_name("demt").expect("demt registered"),
    )
    .unwrap_or_else(|e| die(&e.to_string()));
    print_metrics_table(
        &jobs,
        spec.procs,
        &[
            ("FCFS (rigid)", &fcfs),
            ("EASY backfill (rigid)", &easy),
            ("DEMT (moldable)", &demt_s),
        ],
    );
}

/// Prints the `frontend`/`swf` table: one row of stream metrics per
/// named schedule of `jobs` on `m` processors.
fn print_metrics_table(
    jobs: &[demt::frontend::SubmittedJob],
    m: usize,
    rows: &[(&str, &Schedule)],
) {
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>8}",
        "policy", "wait", "response", "slowdown", "util"
    );
    for &(name, s) in rows {
        let met = demt::frontend::stream_metrics(jobs, s, m);
        println!(
            "{:<26} {:>10.2} {:>10.2} {:>10.2} {:>7.0}%",
            name,
            met.mean_wait,
            met.mean_response,
            met.mean_bounded_slowdown,
            met.utilization * 100.0
        );
    }
}

fn swf_cmd(opts: &Opts) {
    use demt::frontend::*;
    let path = opts
        .get("file")
        .unwrap_or_else(|| die("swf needs --file TRACE.swf"));
    let m = match opts.usize("procs", 64) {
        0 => die("bad --procs 0 (the machine needs at least one processor)"),
        m => m,
    };
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let records = parse_swf(&text).unwrap_or_else(|e| die(&e.to_string()));
    let jobs = stream_from_swf(&records, m, opts.u64("seed", 0));
    eprintln!(
        "{}: {} records, {} usable jobs on m={m}",
        path,
        records.len(),
        jobs.len()
    );
    if jobs.is_empty() {
        die("no usable jobs in the trace");
    }
    let fcfs = queue_schedule(m, &jobs, QueuePolicy::Fcfs);
    let easy = queue_schedule(m, &jobs, QueuePolicy::EasyBackfill);
    let demt_s = moldable_schedule(m, &jobs, registry().by_name("demt").expect("registered"))
        .unwrap_or_else(|e| die(&e.to_string()));
    print_metrics_table(
        &jobs,
        m,
        &[
            ("FCFS (trace sizes)", &fcfs),
            ("EASY (trace sizes)", &easy),
            ("DEMT (re-moldable)", &demt_s),
        ],
    );
}

fn die(msg: &str) -> ! {
    eprintln!("demt: {msg}");
    std::process::exit(2)
}

const USAGE: &str = "\
demt — bi-criteria moldable-job scheduling (SPAA'04 reproduction)

USAGE: demt <COMMAND> [--flag value]...

COMMANDS
  generate  --kind weakly|highly|mixed|cirne --tasks N --procs M --seed S
            emit a JSON instance on stdout
  schedule  --algorithm NAME [--metrics text|json] [--hierarchy CxNxK]
            read an instance from stdin, emit a JSON schedule on stdout
            (criteria go to stderr; NAME is any registry entry, see
            `demt algorithms`); --hierarchy CxNxK (clusters × nodes ×
            cores, product = instance procs) runs NAME at node
            granularity and expands placements to whole-node core blocks
  algorithms
            list the scheduler registry (name and figure legend)
  listbench --procs M --tasks N [--seed S] [--policy greedy|ordered]
            schedule a deterministic grid with the skyline list engine;
            schedule JSON on stdout, timing metrics on stderr — the CI
            determinism + perf guard
  validate  --instance FILE
            read a schedule from stdin, audit it against the instance
  bound     [--sweep K] [--workers W]
            read an instance from stdin, print both lower bounds plus
            LP solver stats as JSON; --sweep K instead evaluates K
            warm-started horizons around the dual estimate on W workers
            (output is byte-identical for any W)
  gantt     --instance FILE [--width W]
            read a schedule from stdin, print an ASCII Gantt chart
  exact     read a tiny instance (≤ 7 tasks) from stdin, print the true
            optima of both criteria (branch-and-bound oracle); exits 2
            when a search exceeds its fixed node budget
  frontend  --kind K --jobs N --procs M --gap MEAN --seed S
            [--arrivals poisson|pareto --shape ALPHA]
            simulate a submission stream under FCFS / EASY / DEMT and
            print the response metrics
  swf       --file TRACE.swf --procs M [--seed S]
            replay a Standard Workload Format trace through the three
            front-end disciplines
  serve     --procs M [--algorithm NAME] [--workers N] [--tick N]
            [--stats PATH] [--oracle] [--replay FILE.swf] [--socket P]
            | --gen-grid [--tasks N] [--procs M] [--seed S]
            | --gen-trace SPEC
            event-driven scheduling daemon: newline-delimited JSON job
            events in (stdin, socket, or SWF replay), one JSON
            placement line per decision out, rolling stats on the side;
            placements replay byte-identically (`demt serve --help`)
  replaybench
            --gen-trace SPEC | --swf FILE --procs M
            [--engine queue|serve|both] [--workers N]
            [--floors FILE --tier NAME] [--bench-out FILE]
            archive-scale replay benchmark: stream the trace through the
            serve (moldable SWW) and queue (rigid EASY) engines in
            constant memory; deterministic result JSON on stdout
            (byte-identical for any --workers), timing lines on stderr,
            optional jobs/sec floor gate (`demt replaybench --help`)
  repro     [fig3..fig7|ablation|verify|all] [--quick|--paper]
            [--workers W] [--json PATH] [--no-timing] ...
            regenerate the paper's figures on one shared work-stealing
            pool (same driver as the repro binary; `demt repro --help`)
  lint      [--root DIR] [--config FILE] [--format human|json|sarif]
            [--callgraph PATH] [--update-baseline]
            static analysis of the workspace source: determinism (D1,
            D2), panic-freedom (P1) and transitive panic reachability
            (P2, against the panic_reach.toml baseline), float
            comparisons (F1), crate layering (L1), unsafe (U1), stale
            suppressions (A2) — the CI hard gate (`demt lint --help`)
";
