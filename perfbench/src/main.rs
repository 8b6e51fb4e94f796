//! `demt-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a fingerprint line and a sample-count line, then, as the last
//! line of stdout, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits 2 on bad arguments and 1 when a run cannot
//! complete.

use demt_perfbench::run_workload;
use demt_perfbench::runner::RunArgs;
use std::process::ExitCode;

const USAGE: &str = "usage: demt-perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse(args: &[String]) -> Result<(String, RunArgs), String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => run.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => run.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, run) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("demt-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_workload(&workload, run) {
        Ok(report) => {
            for note in &report.notes {
                println!("{note}");
            }
            match serde_json::to_string(&report.result) {
                Ok(line) => {
                    println!("{line}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("demt-perfbench: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Err(e) => {
            eprintln!("demt-perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}
