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

use demt::api::flags::{FlagError, Flags};
use demt::prelude::*;
use std::io::Read;

/// A command's body: runs on its parsed flags and hands a flag error
/// back to `main`, which reports it.
type Command = fn(&Flags) -> Result<(), FlagError>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { die(USAGE) };
    let rest = &args[1..];
    // Each command names the `--flag value` keys it reads; the library
    // commands at the top parse theirs through the same `Flags` grammar
    // (`lint` keeps its own) and hand back the exit code.
    let (keys, run): (&str, Command) = match cmd.as_str() {
        "repro" => std::process::exit(demt::sim::repro_cli(rest)),
        "lint" => std::process::exit(demt::lint::lint_cli(rest)),
        "serve" => std::process::exit(demt::serve::serve_cli(rest)),
        "replaybench" => std::process::exit(demt::bench::replaybench_cli(rest)),
        "generate" => ("kind tasks procs seed", generate_cmd),
        "schedule" => ("algorithm metrics hierarchy", schedule_cmd),
        "listbench" => ("procs tasks seed", listbench_cmd),
        "algorithms" => ("", algorithms_cmd),
        "validate" => ("instance", validate_cmd),
        "bound" => ("sweep workers", bound_cmd),
        "gantt" => ("instance width", gantt_cmd),
        "exact" => ("", exact_cmd),
        "frontend" => ("kind jobs procs gap arrivals shape seed", frontend_cmd),
        "swf" => ("file procs seed", swf_cmd),
        "--help" | "-h" | "help" => ("", |_| Err(FlagError::Help)),
        other => die(&format!("unknown command {other}\n{USAGE}")),
    };
    if let Err(e) = Flags::parse(rest, keys, "", false).and_then(|f| run(&f)) {
        std::process::exit(e.report("demt", USAGE));
    }
}

/// `--kind` names, in the paper's figure order.
fn workload_kinds() -> [(&'static str, WorkloadKind); 4] {
    WorkloadKind::ALL.map(|k| (k.name(), k))
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

fn generate_cmd(f: &Flags) -> Result<(), FlagError> {
    let kind = f.pick("kind", WorkloadKind::Cirne, &workload_kinds())?;
    let procs = f.count("procs", 64)?;
    let inst = generate(kind, f.num("tasks", 50)?, procs, f.num("seed", 0)?);
    println!(
        "{}",
        serde_json::to_string_pretty(&inst).expect("serializable")
    );
    Ok(())
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

fn schedule_cmd(f: &Flags) -> Result<(), FlagError> {
    let inst: Instance = read_stdin_json("instance");
    let name = f.str("algorithm").unwrap_or("demt");
    let reg = registry();
    let Some(alg) = reg.by_name(name) else {
        die(&format!(
            "unknown --algorithm {name} ({})",
            reg.names().join("|")
        ))
    };
    let mut ctx = SchedulerContext::new();
    let report = match f.str("hierarchy") {
        Some(spec) => {
            let h = Hierarchy::parse(spec).map_err(|e| FlagError::bad("hierarchy", spec, e))?;
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
    if f.pick("metrics", false, &[("text", false), ("json", true)])? {
        let out = MetricsOut {
            algorithm: report.algorithm.clone(),
            criteria: report.criteria,
            wall_seconds: report.wall_seconds,
            phases: report.phases.clone(),
        };
        eprintln!("{}", serde_json::to_string(&out).expect("serializable"));
    } else {
        let c = &report.criteria;
        eprintln!(
            "{name}: Cmax = {:.4}, ΣwᵢCᵢ = {:.4}, utilization = {:.1}%",
            c.makespan,
            c.weighted_completion,
            c.utilization * 100.0
        );
    }
    println!(
        "{}",
        serde_json::to_string_pretty(&report.schedule).expect("serializable")
    );
    Ok(())
}

fn algorithms_cmd(_: &Flags) -> Result<(), FlagError> {
    for s in registry().all() {
        println!("{:<12} {}", s.name(), s.legend());
    }
    Ok(())
}

/// `demt listbench` — the CI determinism + perf guard for the list
/// engine: schedule the shared `demt_platform::bench_grid`, print the
/// schedule JSON on stdout (byte-identical run to run; the crate's
/// difftests pin it to the scan reference on the CI grids, and
/// `tests/data/listbench_300x200_s11.json` pins its bytes) and timing
/// metrics on stderr (where the engine's jobs/sec lands in the CI logs).
fn listbench_cmd(f: &Flags) -> Result<(), FlagError> {
    use demt::platform::{bench_grid, try_list_schedule};
    let m = f.count("procs", 1000)?;
    let n = f.num("tasks", 2000)?;
    let seed = f.num("seed", 0)?;
    let tasks = bench_grid(n, m, seed);
    let clock = demt::api::clock::Stopwatch::start();
    let schedule = try_list_schedule(m, &tasks).unwrap_or_else(|e| die(&e.to_string()));
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
            "jobs": n,
            "jobs_per_sec": n as f64 / wall.max(f64::MIN_POSITIVE),
            "makespan": schedule.makespan(),
            "placements": schedule.len(),
            "procs": m,
            "wall_seconds": wall,
        })
    );
    println!(
        "{}",
        serde_json::to_string(&schedule).expect("serializable")
    );
    Ok(())
}

fn validate_cmd(f: &Flags) -> Result<(), FlagError> {
    let path = f
        .str("instance")
        .ok_or(FlagError::Usage("validate needs --instance FILE"))?;
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
    Ok(())
}

fn bound_cmd(f: &Flags) -> Result<(), FlagError> {
    let workers = f.count("workers", 1)?;
    let inst: Instance = read_stdin_json("instance");
    if inst.is_empty() {
        die("bound needs at least one task");
    }
    let cfg = BoundConfig::default();
    if f.str("sweep").is_some() {
        // Warm-started horizon sweep: `k` horizons fanned out around
        // the dual estimate on a pool of `--workers` workers. The
        // chunked warm chains are worker-count independent, so the JSON
        // is byte-identical for any `--workers` value (CI diffs 1 vs 4).
        let k = f.count("sweep", 1)?;
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
        return Ok(());
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
    Ok(())
}

fn gantt_cmd(f: &Flags) -> Result<(), FlagError> {
    let path = f
        .str("instance")
        .ok_or(FlagError::Usage("gantt needs --instance FILE"))?;
    let width: usize = f.num("width", 80)?;
    if width > demt::platform::MAX_GANTT_WIDTH {
        let why = format!("at most {} columns", demt::platform::MAX_GANTT_WIDTH);
        return Err(FlagError::bad("width", &width.to_string(), why));
    }
    let inst: Instance = read_file_json(path, "instance");
    let schedule: Schedule = read_stdin_json("schedule");
    validate(&inst, &schedule).unwrap_or_else(|e| die(&format!("invalid schedule: {e}")));
    print!("{}", render_gantt(&schedule, width));
    Ok(())
}

fn exact_cmd(_: &Flags) -> Result<(), FlagError> {
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
    Ok(())
}

fn frontend_cmd(f: &Flags) -> Result<(), FlagError> {
    use demt::frontend::*;
    let gap: f64 = f.num("gap", 0.5)?;
    if !(gap > 0.0 && gap.is_finite()) {
        let why = "the mean inter-arrival time must be positive and finite";
        return Err(FlagError::bad("gap", &gap.to_string(), why));
    }
    let shape: f64 = f.num("shape", 2.5)?;
    if !(shape > 1.0 && shape.is_finite()) {
        let why = "the Pareto tail shape must be > 1 for a finite mean";
        return Err(FlagError::bad("shape", &shape.to_string(), why));
    }
    let arrivals = [
        ("poisson", ArrivalModel::Poisson),
        ("exponential", ArrivalModel::Poisson),
        ("pareto", ArrivalModel::Pareto),
    ];
    let spec = StreamSpec {
        kind: f.pick("kind", WorkloadKind::Cirne, &workload_kinds())?,
        jobs: f.count("jobs", 60)?,
        procs: f.count("procs", 32)?,
        mean_interarrival: gap,
        arrivals: f.pick("arrivals", ArrivalModel::Poisson, &arrivals)?,
        pareto_shape: shape,
        seed: f.num("seed", 0)?,
    };
    let jobs = submit_stream(&spec);
    print_metrics_table(
        &jobs,
        spec.procs,
        ["FCFS (rigid)", "EASY backfill (rigid)", "DEMT (moldable)"],
    );
    Ok(())
}

/// Prints the `frontend`/`swf` table over a release-sorted stream with
/// dense ids in feed order, one row per name: the FCFS and EASY queues
/// on the rigid requests, then on-line DEMT batches on the moldable
/// jobs. Each row folds its engine's placements into a
/// [`ReplayMetrics`](demt::frontend::ReplayMetrics) as they are
/// decided, the way `demt replaybench` measures its legs.
fn print_metrics_table(jobs: &[demt::frontend::SubmittedJob], m: usize, names: [&str; 3]) {
    use demt::frontend::{replay_queue, QueueOrder, QueuePolicy, ReplayMetrics};
    let mut rows = names.map(|name| (name, ReplayMetrics::new()));
    let fold = |(name, met): &mut (&str, ReplayMetrics), release: f64, p: &Placement| {
        met.record(p.task, release, p.start, p.duration, p.procs.len())
            .unwrap_or_else(|e| die(&format!("{name}: {e}")))
    };
    for (row, policy) in rows
        .iter_mut()
        .zip([QueuePolicy::Fcfs, QueuePolicy::EasyBackfill])
    {
        let feed = jobs.iter().cloned();
        replay_queue(m, feed, policy, QueueOrder::Arrival, |j, p| {
            fold(row, j.release, p)
        })
        .unwrap_or_else(|e| die(&e.to_string()));
    }
    let online = jobs.iter().map(|j| OnlineJob {
        task: j.task.clone(),
        release: j.release,
    });
    let scheduler = registry().by_name("demt").expect("demt registered");
    demt::online::stream_batch_schedule(m, online, scheduler, |placements, releases| {
        for (p, &release) in placements.iter().zip(releases) {
            fold(&mut rows[2], release, p);
        }
    })
    .unwrap_or_else(|e| die(&e.to_string()));
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>8}",
        "policy", "wait", "response", "slowdown", "util"
    );
    for (name, met) in rows {
        let met = met
            .finish(m)
            .unwrap_or_else(|e| die(&format!("{name}: {e}")));
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

fn swf_cmd(f: &Flags) -> Result<(), FlagError> {
    use demt::frontend::*;
    let path = f
        .str("file")
        .ok_or(FlagError::Usage("swf needs --file TRACE.swf"))?;
    let m = f.count("procs", 64)?;
    let file = std::fs::File::open(path).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let records: Vec<SwfRecord> = SwfReader::new(std::io::BufReader::new(file))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|e| die(&e.to_string()));
    let jobs = stream_from_swf(&records, m, f.num("seed", 0)?)
        .unwrap_or_else(|e| die(&format!("SWF {e}")));
    eprintln!(
        "{}: {} records, {} usable jobs on m={m}",
        path,
        records.len(),
        jobs.len()
    );
    if jobs.is_empty() {
        die("no usable jobs in the trace");
    }
    print_metrics_table(
        &jobs,
        m,
        [
            "FCFS (trace sizes)",
            "EASY (trace sizes)",
            "DEMT (re-moldable)",
        ],
    );
    Ok(())
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
  listbench --procs M --tasks N [--seed S]
            schedule a deterministic grid with the greedy list engine;
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
            regenerate the paper's figures on one shared pool
            (`demt repro --help`)
  lint      [--root DIR] [--config FILE] [--format human|json|sarif]
            [--callgraph PATH] [--update-baseline]
            static analysis of the workspace source: determinism (D1,
            D2), panic-freedom (P1) and transitive panic reachability
            (P2, against the panic_reach.toml baseline), float
            comparisons (F1), crate layering (L1), unsafe (U1), stale
            suppressions (A2) — the CI hard gate (`demt lint --help`)
";
