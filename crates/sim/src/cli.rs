//! The `demt repro` command-line driver; its flags go through
//! [`demt_api::flags`] like every other `demt` command.
//!
//! ```text
//! demt repro [fig3] [fig4] [fig5] [fig6] [fig7] [ablation] [verify] [all]
//!            [--runs N] [--procs M] [--tasks 25,50,...] [--out DIR]
//!            [--workers W] [--paper] [--quick] [--json PATH] [--no-timing]
//! ```
//!
//! All requested figures run as **one flattened cell list on one
//! shared pool** (`demt-exec`), so the tail of one figure's large-`n`
//! points overlaps the next figure's cells. `--json` writes
//! the aggregated [`FigureResult`]s as one JSON document (`-` for
//! stdout); combined with `--no-timing` the bytes are identical for
//! every `--workers` value — CI diffs them to enforce determinism.

use crate::experiment::{run_figures_on, run_timing, ExperimentConfig};
use crate::{ascii_plot, figure_csv, ratio_table, timing_csv, FigureResult};
use demt_api::flags::{FlagError, Flags};
use demt_exec::Pool;
use demt_workload::WorkloadKind;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The figures `all` (and an empty figure list) stands for.
const ALL: [&str; 6] = ["fig3", "fig4", "fig5", "fig6", "fig7", "ablation"];

/// Runs the repro driver on pre-split arguments (program name already
/// stripped). Returns the process exit code: 0 on success, 1 when
/// `verify` finds a failed claim, 2 on a usage error or when an output
/// cannot be written.
pub fn repro_cli(args: &[String]) -> i32 {
    match sweep(args) {
        Ok(sweep) => run(&sweep).unwrap_or_else(|msg| {
            eprintln!("demt repro: {msg}");
            2
        }),
        Err(e) => e.report("demt repro", HELP),
    }
}

/// The sweep a command line asks for.
struct Sweep {
    cfg: ExperimentConfig,
    workers: usize,
    figures: BTreeSet<String>,
    out: PathBuf,
    json: Option<String>,
}

/// Reads the flags. An explicit `--runs`/`--procs`/`--tasks` overrides
/// the `--quick`/`--paper` preset, whatever the order.
fn sweep(args: &[String]) -> Result<Sweep, FlagError> {
    let f = Flags::parse(
        args,
        "runs procs tasks workers out json",
        "paper quick no-timing",
        true,
    )?;
    let mut cfg = match (f.switch("quick"), f.switch("paper")) {
        (true, true) => return Err(FlagError::Usage("--paper and --quick are exclusive")),
        (true, false) => ExperimentConfig::quick(),
        (false, true) => ExperimentConfig::paper(),
        // The default budget; --paper restores 40 runs.
        (false, false) => ExperimentConfig {
            runs: 8,
            ..ExperimentConfig::paper()
        },
    };
    cfg.runs = f.count("runs", cfg.runs)?;
    cfg.procs = f.count("procs", cfg.procs)?;
    if let Some(list) = f.str("tasks") {
        let bad = || FlagError::bad("tasks", list, "expected counts ≥ 1, comma-separated");
        cfg.task_counts = list
            .split(',')
            .map(|x| x.trim().parse().ok().filter(|&n| n > 0).ok_or_else(bad))
            .collect::<Result<_, _>>()?;
    }
    cfg.record_wall = !f.switch("no-timing");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut figures = BTreeSet::new();
    for &word in f.positionals() {
        match word {
            "all" => figures.extend(ALL.map(String::from)),
            w if w == "verify" || ALL.contains(&w) => {
                figures.insert(w.to_string());
            }
            w => return Err(FlagError::Unknown(w.to_string())),
        }
    }
    if figures.is_empty() {
        figures.extend(ALL.map(String::from));
    }
    Ok(Sweep {
        cfg,
        workers: f.count("workers", cores)?,
        figures,
        out: PathBuf::from(f.str("out").unwrap_or("results")),
        json: f.str("json").map(str::to_string),
    })
}

fn run(sweep: &Sweep) -> Result<i32, String> {
    let (cfg, figures, out) = (&sweep.cfg, &sweep.figures, &sweep.out);
    std::fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    eprintln!(
        "repro: m={}, n={:?}, {} runs/point, {} workers → {}",
        cfg.procs,
        cfg.task_counts,
        cfg.runs,
        sweep.workers,
        out.display()
    );

    // One pool serves every sweep of this invocation: the quality
    // figures (as a single flattened cell list) and the ablation.
    let pool = Pool::new(sweep.workers);
    let verify = figures.contains("verify");
    let wanted: Vec<WorkloadKind> = WorkloadKind::ALL
        .into_iter()
        .filter(|kind| figures.contains(&format!("fig{}", kind.figure())) || verify)
        .collect();
    let figs: Vec<FigureResult> = run_figures_on(&pool, cfg, &wanted, &|msg: &str| {
        eprintln!("  {msg}");
    });

    let mut all_claims_pass = true;
    for fig in &figs {
        let figname = format!("fig{}", fig.kind.figure());
        if figures.contains(&figname) {
            let csv = figure_csv(fig);
            let path = out.join(format!("{figname}_{}.csv", fig.kind.name()));
            write_file(&path, &csv)?;
            println!("{}", ratio_table(fig, "wici"));
            println!("{}", ascii_plot(fig, "wici", 8.0));
            println!("{}", ratio_table(fig, "cmax"));
            println!("{}", ascii_plot(fig, "cmax", 3.5));
            println!("wrote {}\n", path.display());
        }
        if verify {
            let claims = crate::check_figure(fig);
            let (table, ok) = crate::render_claims(&claims);
            println!(
                "Figure {} ({}) claims:\n{table}",
                fig.kind.figure(),
                fig.kind.name()
            );
            all_claims_pass &= ok;
        }
    }
    if let Some(path) = &sweep.json {
        let doc =
            serde_json::to_string(&figs).map_err(|e| format!("cannot serialize figures: {e}"))?;
        if path == "-" {
            println!("{doc}");
        } else {
            write_file(Path::new(path), &doc)?;
            println!("wrote {path}\n");
        }
    }
    if verify {
        if all_claims_pass {
            println!("VERIFY: all paper claims reproduced ✔");
        } else {
            println!("VERIFY: some claims FAILED ✘");
            return Ok(1);
        }
    }

    if figures.contains("fig7") {
        let mut series = Vec::new();
        for kind in [
            WorkloadKind::WeaklyParallel,
            WorkloadKind::Cirne,
            WorkloadKind::HighlyParallel,
        ] {
            let t = run_timing(cfg, kind, |msg| eprintln!("  {msg}"));
            series.push((kind.name().to_string(), t));
        }
        let csv = timing_csv(&series);
        let path = out.join("fig7_timing.csv");
        write_file(&path, &csv)?;
        println!("Figure 7 — DEMT scheduling time (seconds per schedule)");
        println!(
            "{:>6} {:>12} {:>12} {:>12}",
            "n", "weakly", "cirne", "highly"
        );
        for (i, &(n, _)) in series[0].1.iter().enumerate() {
            println!(
                "{:>6} {:>12.4} {:>12.4} {:>12.4}",
                n, series[0].1[i].1, series[1].1[i].1, series[2].1[i].1
            );
        }
        println!("wrote {}\n", path.display());
    }

    if figures.contains("ablation") {
        run_ablation_report(&pool, cfg, out)?;
    }
    Ok(0)
}

/// Ablation of DEMT's design choices (DESIGN.md experiment index):
/// merging on/off × compaction depth × shuffle count, on a mid-size
/// point of each workload family, sharing the invocation's pool.
fn run_ablation_report(pool: &Pool, cfg: &ExperimentConfig, out: &Path) -> Result<(), String> {
    let n = *cfg
        .task_counts
        .get(cfg.task_counts.len() / 2)
        .unwrap_or(&100);
    println!("Ablation at n={n}, m={} ({} runs):", cfg.procs, cfg.runs);
    println!(
        "{:>10} {:>20} {:>12} {:>12}",
        "workload", "variant", "wici", "cmax"
    );
    let rows = crate::run_ablation_on(pool, cfg);
    for r in &rows {
        println!(
            "{:>10} {:>20} {:>12.3} {:>12.3}",
            r.workload, r.variant, r.wici_ratio, r.cmax_ratio
        );
    }
    let path = out.join("ablation.csv");
    write_file(&path, &crate::ablation_csv(&rows))?;
    println!("wrote {}\n", path.display());
    Ok(())
}

fn write_file(path: &Path, data: &str) -> Result<(), String> {
    std::fs::write(path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

const HELP: &str = "\
repro — regenerate the SPAA'04 figures (Dutot et al., bi-criteria scheduling)

USAGE: demt repro [FIGURES] [OPTIONS]

FIGURES (default: all)
  fig3       weakly parallel workload, both ratio panels
  fig4       highly parallel workload
  fig5       mixed workload
  fig6       Cirne-Berman workload
  fig7       DEMT scheduling time
  ablation   DEMT design-choice ablation table
  verify     run all four quality sweeps and check every §4.2 claim of
             the paper as an executable assertion (exit 1 on failure)
  all        everything above except verify

OPTIONS
  --runs N        runs per point (default 8; the paper used 40)
  --paper         use the paper's 40 runs/point
  --quick         tiny smoke sweep (m=32, n∈{10,20,40}, 2 runs)
  --procs M       cluster size (default 200)
  --tasks LIST    comma-separated task counts (default 25,...,400)
  --workers W     worker threads on one shared pool
                  (default: available cores)
  --out DIR       output directory for CSV series (default results/)
  --json PATH     also write the aggregated figure results as one JSON
                  document (- for stdout)
  --no-timing     zero the wall-clock fields, making the JSON output
                  byte-identical for every --workers value

All requested figures run as one flattened (figure, point, run) cell
list on one shared pool.
";
