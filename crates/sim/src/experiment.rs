//! Experiment runner: sweeps task counts, runs every algorithm against
//! the lower bounds, and aggregates the paper's ratio statistics.
//!
//! Every `(figure, point, run)` triple is an independent **cell**. The
//! runner flattens the whole requested sweep — all figures, all points
//! — into one cell list and executes it on the shared `demt-exec`
//! pool, so large-`n` cells from one figure overlap with another
//! figure's tail instead of leaving cores idle between points. Results
//! are reduced **in cell order** (figure-major, then point, then run),
//! which makes the aggregated output byte-identical for any worker
//! count — including the sequential `workers = 1` path.

use crate::algorithms::Algorithm;
use crate::stats::RatioAccum;
use demt_api::{clock::Stopwatch, SchedulerContext};
use demt_bounds::{minsum_lower_bound_with_horizon, squashed_minsum_bound, BoundConfig};
use demt_core::DemtConfig;
use demt_exec::Pool;
use demt_platform::validate;
use demt_workload::{generate, WorkloadKind};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Base seed of every sweep; run `r` of point `n` of figure `f` uses a
/// seed derived from it and all three (SPAA'04 opening day).
pub(crate) const SEED_BASE: u64 = 20040627;

/// Sweep configuration. [`ExperimentConfig::paper`] reproduces the
/// SPAA'04 setting (200 processors, 25–400 tasks, 40 runs per point);
/// [`ExperimentConfig::quick`] is a CI-sized smoke sweep.
///
/// The algorithms are always the registry's (DEMT with
/// `DemtConfig::default()`), the bounds use `BoundConfig::default()`,
/// and every schedule is validated.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Cluster size `m` (200 in the paper).
    pub procs: usize,
    /// Task counts `n` to sweep.
    pub task_counts: Vec<usize>,
    /// Independent runs per point (40 in the paper).
    pub runs: usize,
    /// Record per-run scheduling wall-clock in the series (on by
    /// default). Switch off for byte-exact reproducibility checks —
    /// timing is the one measurement that can never be deterministic.
    pub record_wall: bool,
}

impl ExperimentConfig {
    /// The paper's full experimental setting.
    pub fn paper() -> Self {
        Self {
            procs: 200,
            task_counts: vec![25, 50, 100, 150, 200, 250, 300, 350, 400],
            runs: 40,
            record_wall: true,
        }
    }

    /// Small sweep for smoke tests and CI.
    pub fn quick() -> Self {
        Self {
            procs: 32,
            task_counts: vec![10, 20, 40],
            runs: 2,
            ..Self::paper()
        }
    }
}

/// Per-algorithm aggregation at one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlgSeries {
    /// `Σ wᵢ Cᵢ` ratios against the LP bound.
    pub minsum: RatioAccum,
    /// `Cmax` ratios against the dual-approximation bound.
    pub cmax: RatioAccum,
    /// Total scheduling wall-clock over the runs, seconds (Fig. 7 for
    /// DEMT).
    pub wall_seconds: f64,
}

impl Default for AlgSeries {
    fn default() -> Self {
        Self {
            minsum: RatioAccum::default(),
            cmax: RatioAccum::default(),
            wall_seconds: 0.0,
        }
    }
}

impl AlgSeries {
    fn merge(&mut self, other: &AlgSeries) {
        self.minsum.merge(&other.minsum);
        self.cmax.merge(&other.cmax);
        self.wall_seconds += other.wall_seconds;
    }
}

/// One sweep point (`n` fixed).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PointResult {
    /// Number of tasks.
    pub tasks: usize,
    /// Per-algorithm series, in [`Algorithm::ALL`] order.
    pub series: Vec<(Algorithm, AlgSeries)>,
}

impl PointResult {
    /// Series lookup. Construction zips the series over
    /// [`Algorithm::ALL`], so this only returns `None` for a point
    /// deserialized from a foreign or truncated report.
    pub fn series_of(&self, alg: Algorithm) -> Option<&AlgSeries> {
        self.series.iter().find(|(a, _)| *a == alg).map(|(_, s)| s)
    }
}

/// One figure: a workload family swept over task counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureResult {
    /// Workload family (determines the paper figure number).
    pub kind: WorkloadKind,
    /// Cluster size used.
    pub procs: usize,
    /// Runs per point.
    pub runs: usize,
    /// One entry per task count.
    pub points: Vec<PointResult>,
}

fn run_seed(kind: WorkloadKind, n: usize, run: usize) -> u64 {
    // Stable mixing so every (figure, point, run) triple is independent
    // of sweep order and of the other points.
    let mut h = SEED_BASE ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(n as u64 + 1);
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (kind.figure() as u64) << 17;
    h ^ (run as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// Executes one `(kind, n, run)` cell and returns its per-run series
/// (one single-run [`AlgSeries`] per algorithm, in [`Algorithm::ALL`]
/// order).
///
/// One [`SchedulerContext`] serves both the bounds and all six
/// algorithms: the dual approximation runs exactly once per instance.
/// DEMT goes first in [`Algorithm::ALL`] and computes it inside its own
/// timed run (so its wall-clock includes that step, as in the paper's
/// Fig. 7 accounting), then the list baselines and the bounds reuse the
/// cached result.
fn one_run(cfg: &ExperimentConfig, kind: WorkloadKind, n: usize, run: usize) -> Vec<AlgSeries> {
    let seed = run_seed(kind, n, run);
    let inst = generate(kind, n, cfg.procs, seed);
    let mut ctx = SchedulerContext::new();

    let mut cells = Vec::with_capacity(Algorithm::ALL.len());
    for alg in Algorithm::ALL {
        let scheduler = alg
            .scheduler()
            // demt-lint: allow(P1, release-assert: the registry's built-in entries cover every figure algorithm)
            .unwrap_or_else(|| panic!("{alg} is not in the registry"));
        let report = scheduler.schedule(&inst, &mut ctx);
        validate(&inst, &report.schedule)
            // demt-lint: allow(P1, release-assert: an invalid schedule must abort the experiment)
            .unwrap_or_else(|e| panic!("{alg} produced an invalid schedule: {e}"));
        cells.push((report.criteria, report.wall_seconds));
    }

    // Cache hit: DEMT already ran the dual above.
    let (cmax_estimate, cmax_bound) = {
        let dual = ctx.dual(&inst);
        (dual.cmax_estimate, dual.lower_bound)
    };
    let minsum_bound =
        minsum_lower_bound_with_horizon(&inst, cmax_estimate, &BoundConfig::default())
            .value
            .max(squashed_minsum_bound(&inst));
    debug_assert_eq!(ctx.dual_runs(), 1, "dual must run once per instance");

    let mut out = vec![AlgSeries::default(); Algorithm::ALL.len()];
    for (series, (criteria, wall)) in out.iter_mut().zip(cells) {
        series
            .minsum
            .push(criteria.weighted_completion, minsum_bound);
        series.cmax.push(criteria.makespan, cmax_bound);
        series.wall_seconds += if cfg.record_wall { wall } else { 0.0 };
    }
    out
}

/// One flattened sweep cell: a single `(figure, point, run)` triple.
struct SweepCell {
    kind: WorkloadKind,
    n: usize,
    run: usize,
    /// Global point index (figure-major) for progress accounting.
    point: usize,
}

/// Runs the full sweep of every requested figure as **one** cell list
/// on the given pool — figure- and point-level sharding, not run-level:
/// all `kinds × task_counts × runs` cells compete for the same workers,
/// so skewed cell costs (large `n`) even out as idle workers claim the
/// next cell, instead of serializing at every point boundary.
///
/// `progress` is called from worker threads (hence `Sync`) once per
/// completed point. The returned figures are in `kinds` order and the
/// reduction is index-ordered, so the output is byte-identical for any
/// pool size.
pub fn run_figures_on<P: Fn(&str) + Sync>(
    pool: &Pool,
    cfg: &ExperimentConfig,
    kinds: &[WorkloadKind],
    progress: &P,
) -> Vec<FigureResult> {
    let points_per_fig = cfg.task_counts.len();
    let mut cells = Vec::with_capacity(kinds.len() * points_per_fig * cfg.runs);
    for (ki, &kind) in kinds.iter().enumerate() {
        for (pi, &n) in cfg.task_counts.iter().enumerate() {
            for run in 0..cfg.runs {
                cells.push(SweepCell {
                    kind,
                    n,
                    run,
                    point: ki * points_per_fig + pi,
                });
            }
        }
    }

    let clock = Stopwatch::start();
    let done_in_point: Vec<AtomicUsize> = (0..kinds.len() * points_per_fig)
        .map(|_| AtomicUsize::new(0))
        .collect();
    let cells_done = AtomicUsize::new(0);
    let total = cells.len();

    let results: Vec<Vec<AlgSeries>> = pool.par_map(&cells, |_, cell| {
        let series = one_run(cfg, cell.kind, cell.n, cell.run);
        let in_point = done_in_point[cell.point].fetch_add(1, Ordering::Relaxed) + 1;
        let overall = cells_done.fetch_add(1, Ordering::Relaxed) + 1;
        if in_point == cfg.runs {
            progress(&format!(
                "fig{} [{}] n={}: {} runs done ({overall}/{total} cells, t+{:.1}s)",
                cell.kind.figure(),
                cell.kind.name(),
                cell.n,
                cfg.runs,
                clock.seconds()
            ));
        }
        series
    });

    // Index-ordered reduction: cells (and thus `results`) are ordered
    // figure-major → point → run, exactly the sequential fold order, so
    // each point takes the next chunk of `cfg.runs` results (none at all
    // with zero runs).
    let mut figures = Vec::with_capacity(kinds.len());
    let mut chunks = results.chunks(cfg.runs.max(1));
    for &kind in kinds {
        let mut points = Vec::with_capacity(points_per_fig);
        for &n in &cfg.task_counts {
            let mut merged = vec![AlgSeries::default(); Algorithm::ALL.len()];
            for per_run in chunks.next().into_iter().flatten() {
                for (m, s) in merged.iter_mut().zip(per_run) {
                    m.merge(s);
                }
            }
            points.push(PointResult {
                tasks: n,
                series: Algorithm::ALL.iter().copied().zip(merged).collect(),
            });
        }
        figures.push(FigureResult {
            kind,
            procs: cfg.procs,
            runs: cfg.runs,
            points,
        });
    }
    figures
}

/// DEMT-only timing sweep for Figure 7 (no bounds, no baselines — just
/// the scheduling wall-clock).
pub fn run_timing(
    cfg: &ExperimentConfig,
    kind: WorkloadKind,
    mut progress: impl FnMut(&str),
) -> Vec<(usize, f64)> {
    let mut out = Vec::new();
    for &n in &cfg.task_counts {
        let mut total = 0.0;
        for run in 0..cfg.runs {
            let seed = run_seed(kind, n, run);
            let inst = generate(kind, n, cfg.procs, seed);
            let clock = Stopwatch::start();
            let r = demt_core::demt_schedule(&inst, &DemtConfig::default());
            total += clock.seconds();
            std::hint::black_box(&r.schedule);
        }
        let avg = total / cfg.runs.max(1) as f64;
        progress(&format!(
            "fig7 [{}] n={n}: {:.4}s per schedule",
            kind.name(),
            avg
        ));
        out.push((n, avg));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One figure on a pool of `workers` workers.
    fn figure(workers: usize, cfg: &ExperimentConfig, kind: WorkloadKind) -> FigureResult {
        let mut figs = run_figures_on(&Pool::new(workers), cfg, &[kind], &|_msg| {});
        figs.pop().expect("one kind in, one figure out")
    }

    #[test]
    fn quick_sweep_produces_sane_ratios() {
        let cfg = ExperimentConfig::quick();
        let fig = figure(1, &cfg, WorkloadKind::HighlyParallel);
        assert_eq!(fig.points.len(), cfg.task_counts.len());
        for p in &fig.points {
            for (alg, s) in &p.series {
                assert_eq!(s.minsum.runs, cfg.runs);
                // Every ratio must be ≥ 1 − ε (the bounds are certified
                // lower bounds).
                assert!(
                    s.minsum.min_ratio >= 1.0 - 1e-6,
                    "{alg}: minsum ratio {} below 1",
                    s.minsum.min_ratio
                );
                assert!(
                    s.cmax.min_ratio >= 1.0 - 1e-6,
                    "{alg}: cmax ratio {} below 1",
                    s.cmax.min_ratio
                );
                assert!(s.minsum.average() < 50.0, "{alg}: ratio blew up");
            }
        }
    }

    #[test]
    fn figure_sweep_is_byte_identical_across_worker_counts() {
        // Acceptance gate: workers ∈ {1, 3, 8} must serialize to the
        // same bytes (index-ordered reduction, wall recording off).
        let mut cfg = ExperimentConfig::quick();
        cfg.task_counts = vec![12, 14];
        cfg.runs = 5;
        cfg.record_wall = false; // timing is the one nondeterministic field
        let kinds = [WorkloadKind::Mixed, WorkloadKind::Cirne];
        let json_for = |workers: usize| {
            let figs = run_figures_on(&Pool::new(workers), &cfg, &kinds, &|_msg| {});
            serde_json::to_string(&figs).unwrap()
        };
        let reference = json_for(1);
        for workers in [3, 8] {
            assert_eq!(json_for(workers), reference, "workers = {workers} drifted");
        }
    }

    #[test]
    fn figure_sweep_on_shared_pool_matches_per_figure_runs() {
        // The flattened all-figures cell list must reduce to exactly
        // what per-figure sweeps produce.
        let mut cfg = ExperimentConfig::quick();
        cfg.task_counts = vec![10, 16];
        cfg.runs = 2;
        cfg.record_wall = false;
        let pool = Pool::new(4);
        let kinds = [WorkloadKind::WeaklyParallel, WorkloadKind::Cirne];
        let both = run_figures_on(&pool, &cfg, &kinds, &|_msg| {});
        assert_eq!(both.len(), 2);
        for (fig, &kind) in both.iter().zip(&kinds) {
            let single = figure(4, &cfg, kind);
            assert_eq!(
                serde_json::to_string(fig).unwrap(),
                serde_json::to_string(&single).unwrap()
            );
        }
    }

    #[test]
    fn progress_fires_once_per_point() {
        let mut cfg = ExperimentConfig::quick();
        cfg.task_counts = vec![8, 12];
        cfg.runs = 2;
        let count = std::sync::atomic::AtomicUsize::new(0);
        let pool = Pool::new(2);
        let _ = run_figures_on(&pool, &cfg, &[WorkloadKind::Mixed], &|msg| {
            assert!(msg.contains("runs done"), "{msg}");
            count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(count.load(std::sync::atomic::Ordering::Relaxed), 2);
    }

    #[test]
    fn timing_sweep_reports_positive_times() {
        let mut cfg = ExperimentConfig::quick();
        cfg.task_counts = vec![10];
        cfg.runs = 1;
        let t = run_timing(&cfg, WorkloadKind::Cirne, |_| {});
        assert_eq!(t.len(), 1);
        assert!(t[0].1 > 0.0);
    }

    #[test]
    fn seeds_differ_across_cells() {
        let a = run_seed(WorkloadKind::Mixed, 10, 0);
        let b = run_seed(WorkloadKind::Mixed, 10, 1);
        let c = run_seed(WorkloadKind::Mixed, 20, 0);
        let d = run_seed(WorkloadKind::Cirne, 10, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
