//! The demt repository benchmark.
//!
//! Four closed-loop workloads run in process and single-threaded,
//! calling the public functions of the workspace crates:
//!
//! | workload | one op | layers it stresses |
//! |---|---|---|
//! | `paper_offline` | one §4 grid instance: dual, DEMT, LP bound, validate | dual, kernels/core, bounds/LP, platform |
//! | `serve_moldable` | one `run_events` placement decision | serve, online, api, platform |
//! | `replay_easy` | one EASY `replay_queue` job start | frontend, platform skyline |
//! | `cli_json` | one schedule/validate round trip through JSON | json, api, platform |
//!
//! Inputs are generated from the seed during set-up and held in memory;
//! every pass of a run does the same fixed list of ops, and every op's
//! output is checked. `--trace 0` reports the end-to-end metrics, with
//! times in seconds of a host at nominal speed (see [`mod@reference`]);
//! `--trace 1` wraps the calls into each layer in spans and reports the
//! per-layer metrics instead (see [`trace`]).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_offline --seed 1 --seconds 10 --trace 0
//! ```

pub mod cli_json;
pub mod mem;
pub mod paper_offline;
pub mod reference;
pub mod replay_easy;
pub mod runner;
pub mod serve_moldable;
pub mod stats;
pub mod trace;

use runner::{run, Report, RunArgs};

#[global_allocator]
static ALLOCATOR: mem::Counting = mem::Counting;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["paper_offline", "serve_moldable", "replay_easy", "cli_json"];

/// Derives an input seed from the run's seed and a per-input salt
/// (splitmix64 finalizer), so inputs depend on the seed alone.
pub fn seed_for(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the named workload.
pub fn run_workload(name: &str, args: RunArgs) -> Result<Report, String> {
    match name {
        "paper_offline" => run::<paper_offline::PaperOffline>(name, args),
        "serve_moldable" => run::<serve_moldable::ServeMoldable>(name, args),
        "replay_easy" => run::<replay_easy::ReplayEasy>(name, args),
        "cli_json" => run::<cli_json::CliJson>(name, args),
        other => Err(format!(
            "unknown workload {other:?} (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
