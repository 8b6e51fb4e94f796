//! `paper_offline`: the researcher's `demt repro` path.
//!
//! One op is one instance of the paper's §4 grid (weakly, highly, mixed
//! and Cirne families, m = 200): the dual approximation, DEMT on its
//! estimate, the §3.3 LP lower bound on ΣwᵢCᵢ, then validation. Dual,
//! knapsack, batching, list compaction and the LP do nearly all the
//! work; no JSON, serve or queue code runs.

use crate::runner::{nanos_since, Fnv, Recorder, Workload};
use crate::seed_for;
use crate::trace::{count, span, Tracer};
use demt_bounds::{minsum_lower_bound_with_horizon, BoundConfig};
use demt_core::{demt_schedule_with_dual, DemtConfig};
use demt_dual::dual_approx;
use demt_model::Instance;
use demt_platform::validate;
use demt_workload::{generate, WorkloadKind};
use std::time::Instant;

/// Machine size of the paper's grid.
pub const PROCS: usize = 200;

/// Task counts, each drawn `copies` times per family. Small instances
/// dominate the count so that a run reaches 1000 ops; the n = 400 cells
/// hold the LP-heavy tail, with enough copies that the p99 does not
/// rest on one instance.
pub const GRID: &[(usize, usize)] = &[(25, 32), (50, 24), (100, 16), (200, 12), (400, 12)];

/// Relative slack for the bound checks (both sides are sums of floats).
const SLACK: f64 = 1e-9;

/// The generated grid, one instance per op.
pub struct PaperOffline {
    instances: Vec<Instance>,
}

impl Workload for PaperOffline {
    fn setup(seed: u64) -> Result<Self, String> {
        let mut instances = Vec::new();
        for kind in WorkloadKind::ALL {
            for &(n, copies) in GRID {
                for c in 0..copies {
                    let salt = (kind as u64) << 32 | (n as u64) << 8 | c as u64;
                    instances.push(generate(kind, n, PROCS, seed_for(seed, salt)));
                }
            }
        }
        Ok(Self { instances })
    }

    fn input_digest(&self) -> u64 {
        let mut h = Fnv::default();
        for inst in &self.instances {
            let doc = serde_json::to_string(inst).expect("an instance always serializes");
            h.update(doc.as_bytes());
        }
        h.value()
    }

    fn pass(&self, tr: Option<&Tracer>, rec: &mut Recorder) {
        let demt_cfg = DemtConfig::default();
        let bound_cfg = BoundConfig::default();
        for inst in &self.instances {
            let t = Instant::now();
            let dual = span(tr, "dual.approx", || dual_approx(inst, &demt_cfg.dual));
            let res = span(tr, "core.demt", || {
                demt_schedule_with_dual(inst, &demt_cfg, &dual)
            });
            let lb = span(tr, "bounds.minsum_lb", || {
                minsum_lower_bound_with_horizon(inst, dual.cmax_estimate, &bound_cfg)
            });
            let valid = span(tr, "platform.validate", || validate(inst, &res.schedule));
            let c = &res.criteria;
            let ok = valid.is_ok()
                && c.makespan >= dual.lower_bound * (1.0 - SLACK)
                && c.weighted_completion >= lb.value * (1.0 - SLACK);
            rec.op(nanos_since(t), ok);
            count(tr, "core.batches", res.plan.batches.len() as f64);
            count(tr, "lp.iterations", lb.lp_iterations as f64);
            count(tr, "lp.refactorizations", lb.lp_refactorizations as f64);
            count(
                tr,
                "lp.warm_started",
                f64::from(u8::from(lb.lp_warm_started)),
            );
            count(tr, "lp.solves", 1.0);
            for p in res.schedule.placements() {
                rec.fingerprint.placement(p);
            }
            rec.fingerprint.update(&lb.value.to_bits().to_le_bytes());
        }
    }
}
