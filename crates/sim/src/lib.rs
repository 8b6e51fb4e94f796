//! # demt-sim — experiment harness for the SPAA'04 evaluation
//!
//! Regenerates every figure of the paper's §4:
//!
//! * Figures 3–6 — for each workload family, both panels (`Σ wᵢ Cᵢ`
//!   ratio and `Cmax` ratio vs task count) for the six algorithms,
//!   aggregated as ratio-of-sums with per-run min/max;
//! * Figure 7 — DEMT scheduling wall-clock vs task count.
//!
//! `demt repro` ([`repro_cli`]) drives the sweeps and writes CSV series
//! plus terminal tables/plots; see `demt repro --help`.

#![warn(missing_docs)]

mod ablation;
mod algorithms;
mod claims;
mod cli;
mod experiment;
mod report;
mod stats;

pub use ablation::{ablation_csv, ablation_variants, run_ablation_on, AblationRow};
pub use algorithms::Algorithm;
pub use claims::{check_figure, render_claims, Claim};
pub use cli::repro_cli;
pub use experiment::{
    run_figures_on, run_timing, AlgSeries, ExperimentConfig, FigureResult, PointResult,
};
pub use report::{ascii_plot, figure_csv, ratio_table, timing_csv};
pub use stats::RatioAccum;
