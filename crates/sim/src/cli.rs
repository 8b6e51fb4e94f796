//! The `repro` command-line driver, shared by the standalone `repro`
//! binary and the `demt repro` subcommand.
//!
//! ```text
//! repro [fig3] [fig4] [fig5] [fig6] [fig7] [ablation] [verify] [all]
//!       [--runs N] [--procs M] [--tasks 25,50,...] [--out DIR]
//!       [--workers W] [--paper] [--quick] [--json PATH] [--no-timing]
//! ```
//!
//! All requested figures run as **one flattened cell list on a single
//! work-stealing pool** (`demt-exec`), so the tail of one figure's
//! large-`n` points overlaps the next figure's cells. `--json` writes
//! the aggregated [`FigureResult`]s as one JSON document (`-` for
//! stdout); combined with `--no-timing` the bytes are identical for
//! every `--workers` value — CI diffs them to enforce determinism.

use crate::experiment::{run_figures_on, run_timing, ExperimentConfig};
use crate::{ascii_plot, figure_csv, ratio_table, timing_csv, FigureResult};
use demt_exec::Pool;
use demt_workload::WorkloadKind;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Runs the repro driver on pre-split arguments (program name already
/// stripped). Returns the process exit code: 0 on success, 1 when
/// `verify` finds a failed claim. Argument errors terminate the process
/// with exit code 2, as the other `demt` subcommands do.
pub fn repro_cli(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return 0;
    }
    let mut cfg = ExperimentConfig::paper();
    cfg.runs = 8; // default budget; --paper restores 40
    let mut workers = std::thread::available_parallelism().map_or(1, |p| p.get());
    let mut out = PathBuf::from("results");
    let mut json_out: Option<String> = None;
    let mut figures: BTreeSet<String> = BTreeSet::new();

    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "ablation" | "verify" => {
                figures.insert(a.clone());
            }
            "all" => {
                for f in ["fig3", "fig4", "fig5", "fig6", "fig7", "ablation"] {
                    figures.insert(f.to_string());
                }
            }
            "--paper" => cfg.runs = 40,
            "--quick" => {
                let q = ExperimentConfig::quick();
                cfg.procs = q.procs;
                cfg.task_counts = q.task_counts;
                cfg.runs = q.runs;
            }
            "--runs" => cfg.runs = req_usize(&mut it, "--runs"),
            "--procs" => cfg.procs = req_usize(&mut it, "--procs"),
            "--workers" => workers = req_usize(&mut it, "--workers"),
            "--no-timing" => cfg.record_wall = false,
            "--tasks" => {
                let v = it.next().unwrap_or_else(|| die("--tasks needs a list"));
                cfg.task_counts = v
                    .split(',')
                    .map(|x| {
                        x.trim()
                            .parse()
                            .unwrap_or_else(|_| die("bad --tasks entry"))
                    })
                    .collect();
            }
            "--out" => out = PathBuf::from(it.next().unwrap_or_else(|| die("--out needs a dir"))),
            "--json" => {
                json_out = Some(
                    it.next()
                        .unwrap_or_else(|| die("--json needs a path (or -)"))
                        .clone(),
                );
            }
            other => die(&format!("unknown argument {other} (try --help)")),
        }
    }
    if workers == 0 {
        die("--workers must be at least 1");
    }
    if figures.is_empty() {
        for f in ["fig3", "fig4", "fig5", "fig6", "fig7", "ablation"] {
            figures.insert(f.to_string());
        }
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        die(&format!("cannot create {}: {e}", out.display()));
    }
    eprintln!(
        "repro: m={}, n={:?}, {} runs/point, {} workers → {}",
        cfg.procs,
        cfg.task_counts,
        cfg.runs,
        workers,
        out.display()
    );

    // One pool serves every sweep of this invocation: the quality
    // figures (as a single flattened cell list) and the ablation.
    let pool = Pool::new(workers);
    let verify = figures.contains("verify");
    let wanted: Vec<WorkloadKind> = WorkloadKind::ALL
        .into_iter()
        .filter(|kind| figures.contains(&format!("fig{}", kind.figure())) || verify)
        .collect();
    let figs: Vec<FigureResult> = run_figures_on(&pool, &cfg, &wanted, &|msg: &str| {
        eprintln!("  {msg}");
    });

    let mut all_claims_pass = true;
    for fig in &figs {
        let figname = format!("fig{}", fig.kind.figure());
        if figures.contains(&figname) {
            let csv = figure_csv(fig);
            let path = out.join(format!("{figname}_{}.csv", fig.kind.name()));
            write_file(&path, &csv);
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
    if let Some(path) = &json_out {
        let doc = serde_json::to_string(&figs)
            .unwrap_or_else(|e| die(&format!("cannot serialize figures: {e}")));
        if path == "-" {
            println!("{doc}");
        } else {
            write_file(std::path::Path::new(path), &doc);
            println!("wrote {path}\n");
        }
    }
    if verify {
        if all_claims_pass {
            println!("VERIFY: all paper claims reproduced ✔");
        } else {
            println!("VERIFY: some claims FAILED ✘");
            return 1;
        }
    }

    if figures.contains("fig7") {
        let mut series = Vec::new();
        for kind in [
            WorkloadKind::WeaklyParallel,
            WorkloadKind::Cirne,
            WorkloadKind::HighlyParallel,
        ] {
            let t = run_timing(&cfg, kind, |msg| eprintln!("  {msg}"));
            series.push((kind.name().to_string(), t));
        }
        let csv = timing_csv(&series);
        let path = out.join("fig7_timing.csv");
        write_file(&path, &csv);
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
        run_ablation_report(&pool, &cfg, &out);
    }
    0
}

/// Ablation of DEMT's design choices (DESIGN.md experiment index):
/// merging on/off × compaction depth × shuffle count, on a mid-size
/// point of each workload family, sharing the invocation's pool.
fn run_ablation_report(pool: &Pool, cfg: &ExperimentConfig, out: &std::path::Path) {
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
    write_file(&path, &crate::ablation_csv(&rows));
    println!("wrote {}\n", path.display());
}

fn req_usize(it: &mut std::iter::Peekable<std::slice::Iter<String>>, flag: &str) -> usize {
    it.next()
        .unwrap_or_else(|| die(&format!("{flag} needs a value")))
        .parse()
        .unwrap_or_else(|_| die(&format!("{flag} needs an integer")))
}

fn write_file(path: &std::path::Path, data: &str) {
    if let Err(e) = std::fs::write(path, data) {
        die(&format!("cannot write {}: {e}", path.display()));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2)
}

const HELP: &str = "\
repro — regenerate the SPAA'04 figures (Dutot et al., bi-criteria scheduling)

USAGE: repro [FIGURES] [OPTIONS]

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
  --workers W     worker threads sharing one work-stealing pool
                  (default: available cores)
  --out DIR       output directory for CSV series (default results/)
  --json PATH     also write the aggregated figure results as one JSON
                  document (- for stdout)
  --no-timing     zero the wall-clock fields, making the JSON output
                  byte-identical for every --workers value

All requested figures run as one flattened (figure, point, run) cell
list on a single work-stealing pool.
";
