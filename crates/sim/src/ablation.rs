//! DEMT design-choice ablation (the experiment index of DESIGN.md):
//! merging on/off, compaction pipeline depth, shuffle budget — each
//! design ingredient of §3.2 measured in isolation against the same
//! lower bounds as the main figures.

use crate::experiment::{ExperimentConfig, SEED_BASE};
use demt_bounds::{instance_bounds, BoundConfig};
use demt_core::{demt_schedule, Compaction, DemtConfig};
use demt_exec::Pool;
use demt_platform::Criteria;
use demt_workload::{generate, WorkloadKind};
use serde::{Deserialize, Serialize};

/// The standard ablation variants of DEMT's pipeline.
pub fn ablation_variants() -> Vec<(&'static str, DemtConfig)> {
    vec![
        ("paper-default", DemtConfig::default()),
        (
            "no-merge",
            DemtConfig {
                merge_small: false,
                ..DemtConfig::default()
            },
        ),
        (
            "raw-batches",
            DemtConfig {
                compaction: Compaction::None,
                ..DemtConfig::default()
            },
        ),
        (
            "pull-earlier-only",
            DemtConfig {
                compaction: Compaction::PullEarlier,
                ..DemtConfig::default()
            },
        ),
        (
            "list-no-shuffle",
            DemtConfig {
                compaction: Compaction::List,
                ..DemtConfig::default()
            },
        ),
        (
            "shuffle-x32",
            DemtConfig {
                shuffles: 32,
                ..DemtConfig::default()
            },
        ),
    ]
}

/// One row of the ablation table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationRow {
    /// Workload family.
    pub workload: String,
    /// Variant name (see [`ablation_variants`]).
    pub variant: String,
    /// Average `Σ wᵢCᵢ` ratio (ratio of sums over the runs).
    pub wici_ratio: f64,
    /// Average `Cmax` ratio.
    pub cmax_ratio: f64,
}

/// Per-cell output of the parallel ablation: one `(kind, run)` instance
/// measured under every variant, sharing one bounds computation.
struct AblationCell {
    /// `(weighted_completion, makespan)` per variant, in variant order.
    per_variant: Vec<(f64, f64)>,
    /// `(minsum, cmax)` lower bounds of the instance.
    bounds: (f64, f64),
}

/// Runs the ablation on the mid-size point of the sweep, all families,
/// parallelized cell-wise on the given pool. Each `(kind, run)` cell
/// generates its instance and bounds **once** and measures all variants
/// against them (the sequential driver recomputed the bounds per
/// variant — same values, 6× the work). The reduction is index-ordered,
/// so the rows are byte-identical for any pool size.
pub fn run_ablation_on(pool: &Pool, cfg: &ExperimentConfig) -> Vec<AblationRow> {
    let n = *cfg
        .task_counts
        .get(cfg.task_counts.len() / 2)
        .unwrap_or(&100);
    let variants = ablation_variants();
    let mut cells: Vec<(WorkloadKind, usize)> = Vec::new();
    for kind in WorkloadKind::ALL {
        for run in 0..cfg.runs {
            cells.push((kind, run));
        }
    }
    let outs: Vec<AblationCell> = pool.par_map(&cells, |_, &(kind, run)| {
        let seed = SEED_BASE ^ ((run as u64) << 8) ^ kind.figure() as u64;
        let inst = generate(kind, n, cfg.procs, seed);
        let bounds = instance_bounds(&inst, &BoundConfig::default());
        let per_variant = variants
            .iter()
            .map(|(_, demt_cfg)| {
                let r = demt_schedule(&inst, demt_cfg);
                let c = Criteria::evaluate(&inst, &r.schedule);
                (c.weighted_completion, c.makespan)
            })
            .collect();
        AblationCell {
            per_variant,
            bounds: (bounds.minsum, bounds.cmax),
        }
    });

    let mut rows = Vec::new();
    for (ki, kind) in WorkloadKind::ALL.iter().enumerate() {
        for (vi, (name, _)) in variants.iter().enumerate() {
            let mut sum_wici = 0.0;
            let mut sum_wici_lb = 0.0;
            let mut sum_cmax = 0.0;
            let mut sum_cmax_lb = 0.0;
            for run in 0..cfg.runs {
                let cell = &outs[ki * cfg.runs + run];
                let (wici, cmax) = cell.per_variant[vi];
                sum_wici += wici;
                sum_wici_lb += cell.bounds.0;
                sum_cmax += cmax;
                sum_cmax_lb += cell.bounds.1;
            }
            rows.push(AblationRow {
                workload: kind.name().to_string(),
                variant: name.to_string(),
                wici_ratio: sum_wici / sum_wici_lb,
                cmax_ratio: sum_cmax / sum_cmax_lb,
            });
        }
    }
    rows
}

/// CSV rendering of the ablation rows.
pub fn ablation_csv(rows: &[AblationRow]) -> String {
    let mut s = String::from("workload,variant,wici_ratio,cmax_ratio\n");
    for r in rows {
        s.push_str(&format!(
            "{},{},{:.6},{:.6}\n",
            r.workload, r.variant, r.wici_ratio, r.cmax_ratio
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_runs_and_orders_variants_sanely() {
        let mut cfg = ExperimentConfig::quick();
        cfg.task_counts = vec![16];
        cfg.runs = 2;
        let rows = run_ablation_on(&Pool::new(1), &cfg);
        assert_eq!(rows.len(), 4 * ablation_variants().len());
        for r in &rows {
            assert!(r.wici_ratio >= 1.0 - 1e-6, "{r:?}");
            assert!(r.cmax_ratio >= 1.0 - 1e-6, "{r:?}");
        }
        // The full pipeline is never worse than raw batches, per family.
        for kind in ["weakly", "highly", "mixed", "cirne"] {
            let get = |v: &str| {
                rows.iter()
                    .find(|r| r.workload == kind && r.variant == v)
                    .expect("row present")
                    .wici_ratio
            };
            assert!(
                get("paper-default") <= get("raw-batches") + 1e-9,
                "{kind}: pipeline worse than raw"
            );
        }
    }

    #[test]
    fn ablation_rows_are_byte_identical_across_worker_counts() {
        let mut cfg = ExperimentConfig::quick();
        cfg.task_counts = vec![14];
        cfg.runs = 2;
        let rows_for = |workers: usize| {
            serde_json::to_string(&run_ablation_on(&Pool::new(workers), &cfg)).unwrap()
        };
        let reference = rows_for(1);
        assert_eq!(rows_for(4), reference);
    }

    #[test]
    fn csv_renders_all_rows() {
        let rows = vec![AblationRow {
            workload: "mixed".to_string(),
            variant: "paper-default".to_string(),
            wici_ratio: 2.0,
            cmax_ratio: 1.5,
        }];
        let csv = ablation_csv(&rows);
        assert!(csv.contains("mixed,paper-default,2.000000,1.500000"));
    }
}
