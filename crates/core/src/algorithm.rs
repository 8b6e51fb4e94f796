//! The DEMT algorithm: batch placement + the compaction pipeline.

use crate::batches::{build_batches, BatchEntry, BatchPlan};
use crate::config::{Compaction, DemtConfig};
use demt_dual::dual_approx;
use demt_model::Instance;
use demt_platform::{
    list_schedule, pull_earlier, Criteria, ListPolicy, ListTask, Placement, Schedule,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Seed of the [`Compaction::ListShuffle`] batch-order permutations, so
/// every run is deterministic ("DEMT").
const SHUFFLE_SEED: u64 = 0xDE47;

/// Output of the DEMT scheduler.
#[derive(Debug, Clone)]
pub struct DemtResult {
    /// The final (best compacted) schedule.
    pub schedule: Schedule,
    /// Its evaluation.
    pub criteria: Criteria,
    /// The raw batched schedule before any compaction (kept for
    /// diagnostics and the compaction ablation).
    pub raw_criteria: Criteria,
    /// Batch plan (geometry + contents).
    pub plan: BatchPlan,
    /// `C*max` estimate from the dual approximation.
    pub cmax_estimate: f64,
    /// Certified makespan lower bound (free by-product of the dual
    /// approximation's bisection).
    pub cmax_lower_bound: f64,
}

/// Runs DEMT with the given configuration (use
/// [`DemtConfig::default`] for the paper's algorithm).
///
/// Step 1 of the pipeline is a dual-approximation run configured by
/// `cfg.dual`; callers that already hold a [`demt_dual::DualResult`]
/// for this instance (the shared `demt_api::SchedulerContext` path)
/// should use [`demt_schedule_with_dual`] instead of paying it twice.
pub fn demt_schedule(inst: &Instance, cfg: &DemtConfig) -> DemtResult {
    if inst.is_empty() {
        return empty_result(inst);
    }
    // Step 1: dual approximation gives the C*max estimate (§3.2 line 1).
    let dual = dual_approx(inst, &cfg.dual);
    demt_schedule_with_dual(inst, cfg, &dual)
}

fn empty_result(inst: &Instance) -> DemtResult {
    let schedule = Schedule::new(inst.procs());
    let criteria = Criteria::evaluate(inst, &schedule);
    DemtResult {
        schedule,
        criteria,
        raw_criteria: criteria,
        plan: BatchPlan {
            cmax_estimate: 0.0,
            k: 0,
            batches: Vec::new(),
        },
        cmax_estimate: 0.0,
        cmax_lower_bound: 0.0,
    }
}

/// [`demt_schedule`] steps 2–4 on a dual-approximation result the
/// caller already computed for this instance (`cfg.dual` is ignored).
pub fn demt_schedule_with_dual(
    inst: &Instance,
    cfg: &DemtConfig,
    dual: &demt_dual::DualResult,
) -> DemtResult {
    let m = inst.procs();
    if inst.is_empty() {
        return empty_result(inst);
    }
    let plan = build_batches(inst, cfg, dual.cmax_estimate);

    // Step 2: raw placement — every batch entry starts at t_j, chains
    // stack sequentially on their single processor.
    let raw = place_raw(inst, &plan);
    let raw_criteria = Criteria::evaluate(inst, &raw);

    // Step 3: compaction pipeline; keep the best schedule seen.
    let mut best = raw.clone();
    let mut best_crit = raw_criteria;
    let consider = |s: Schedule, crit: &mut Criteria, best: &mut Schedule| {
        let c = Criteria::evaluate(inst, &s);
        if c.better_minsum_then_makespan(crit) {
            *crit = c;
            *best = s;
        }
    };

    if cfg.compaction != Compaction::None {
        consider(pull_earlier(&raw, None), &mut best_crit, &mut best);
    }
    // The list compactions below run the shared skyline list engine
    // (`demt_platform::list_schedule`): each shuffle costs
    // O((n + Σkᵢ)·log(n·m)), not O(n·(n + m log m)), so ListShuffle
    // stays affordable at large m.
    if matches!(cfg.compaction, Compaction::List | Compaction::ListShuffle) {
        let order: Vec<usize> = (0..plan.batches.len()).collect();
        let tasks = flatten(inst, &plan, &order);
        consider(
            list_schedule(m, &tasks, ListPolicy::Greedy),
            &mut best_crit,
            &mut best,
        );
    }
    if cfg.compaction == Compaction::ListShuffle && plan.batches.len() > 1 {
        let mut rng = StdRng::seed_from_u64(SHUFFLE_SEED);
        let mut order: Vec<usize> = (0..plan.batches.len()).collect();
        for _ in 0..cfg.shuffles {
            order.shuffle(&mut rng);
            let tasks = flatten(inst, &plan, &order);
            consider(
                list_schedule(m, &tasks, ListPolicy::Greedy),
                &mut best_crit,
                &mut best,
            );
        }
    }

    DemtResult {
        schedule: best,
        criteria: best_crit,
        raw_criteria,
        plan,
        cmax_estimate: dual.cmax_estimate,
        cmax_lower_bound: dual.lower_bound,
    }
}

/// Raw batched schedule: batch `j` occupies `[t_j, 2·t_j]`, entries side
/// by side from processor 0, chain members back to back.
fn place_raw(inst: &Instance, plan: &BatchPlan) -> Schedule {
    let mut s = Schedule::new(inst.procs());
    for b in &plan.batches {
        let mut q = 0u32;
        for e in &b.entries {
            if e.tasks.len() == 1 && e.alloc >= 1 {
                let id = e.tasks[0];
                let d = inst.task(id).time(e.alloc);
                s.push(Placement {
                    task: id,
                    start: b.start,
                    duration: d,
                    procs: (q..q + e.alloc as u32).collect(),
                });
            } else {
                // Chain: sequential on one processor.
                let mut t0 = b.start;
                for &id in &e.tasks {
                    let d = inst.task(id).seq_time();
                    s.push(Placement {
                        task: id,
                        start: t0,
                        duration: d,
                        procs: demt_model::ProcSet::range(q, q),
                    });
                    t0 += d;
                }
            }
            q += e.alloc as u32;
        }
    }
    s
}

/// Flattens batches (in the given batch order) into a priority list for
/// the Graham engine. Inside a batch (the paper's "local ordering within
/// the batches", left unspecified) entries go by decreasing weight /
/// area: densest weight first.
fn flatten(inst: &Instance, plan: &BatchPlan, batch_order: &[usize]) -> Vec<ListTask> {
    let mut out = Vec::new();
    for &bi in batch_order {
        let b = &plan.batches[bi];
        let mut entries: Vec<&BatchEntry> = b.entries.iter().collect();
        let area = |e: &BatchEntry| -> f64 {
            e.tasks
                .iter()
                .map(|&id| inst.task(id).time(e.alloc) * e.alloc as f64)
                .sum()
        };
        entries.sort_by(|a, b| {
            let ra = a.weight / area(a).max(f64::MIN_POSITIVE);
            let rb = b.weight / area(b).max(f64::MIN_POSITIVE);
            rb.total_cmp(&ra)
        });
        for e in entries {
            if e.tasks.len() == 1 {
                let id = e.tasks[0];
                out.push(ListTask::new(id, e.alloc, inst.task(id).time(e.alloc)));
            } else {
                for &id in &e.tasks {
                    out.push(ListTask::new(id, 1, inst.task(id).seq_time()));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::InstanceBuilder;
    use demt_platform::validate;
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn valid_on_all_workload_families() {
        for kind in WorkloadKind::ALL {
            for seed in 0..3 {
                let inst = generate(kind, 40, 16, seed);
                let r = demt_schedule(&inst, &DemtConfig::default());
                validate(&inst, &r.schedule).unwrap_or_else(|e| panic!("{kind}/{seed}: {e}"));
                assert!(r.criteria.makespan >= r.cmax_lower_bound * (1.0 - 1e-9));
            }
        }
    }

    #[test]
    fn compaction_never_hurts() {
        let inst = generate(WorkloadKind::Mixed, 60, 16, 9);
        let r = demt_schedule(&inst, &DemtConfig::default());
        assert!(
            r.criteria.weighted_completion <= r.raw_criteria.weighted_completion + 1e-9,
            "final {} vs raw {}",
            r.criteria.weighted_completion,
            r.raw_criteria.weighted_completion
        );
        assert!(r.criteria.makespan <= r.raw_criteria.makespan * (1.0 + 1e-9) + 1e-9);
    }

    #[test]
    fn pipeline_depth_is_monotone_in_quality() {
        let inst = generate(WorkloadKind::Cirne, 50, 16, 4);
        let mut prev = f64::INFINITY;
        for compaction in [
            Compaction::None,
            Compaction::PullEarlier,
            Compaction::List,
            Compaction::ListShuffle,
        ] {
            let cfg = DemtConfig {
                compaction,
                ..DemtConfig::default()
            };
            let r = demt_schedule(&inst, &cfg);
            validate(&inst, &r.schedule).unwrap();
            assert!(
                r.criteria.weighted_completion <= prev + 1e-9,
                "{compaction:?} worsened minsum: {} > {prev}",
                r.criteria.weighted_completion
            );
            prev = r.criteria.weighted_completion;
        }
    }

    #[test]
    fn deterministic_given_config() {
        let inst = generate(WorkloadKind::HighlyParallel, 45, 16, 2);
        let a = demt_schedule(&inst, &DemtConfig::default());
        let b = demt_schedule(&inst, &DemtConfig::default());
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn single_task_runs_at_its_sweet_spot() {
        let mut b = InstanceBuilder::new(4);
        b.push_times(1.0, vec![8.0, 4.2, 3.0, 2.9]).unwrap();
        let inst = b.build().unwrap();
        let r = demt_schedule(&inst, &DemtConfig::default());
        validate(&inst, &r.schedule).unwrap();
        let p = &r.schedule.placements()[0];
        assert_eq!(p.start, 0.0, "compaction pulls the lone task to 0");
        // Whatever allotment the batch picked, completion ≤ seq time.
        assert!(p.completion() <= 8.0 + 1e-9);
    }

    #[test]
    fn empty_instance_yields_empty_schedule() {
        let inst = InstanceBuilder::new(3).build().unwrap();
        let r = demt_schedule(&inst, &DemtConfig::default());
        assert!(r.schedule.is_empty());
        assert_eq!(r.criteria.makespan, 0.0);
    }

    #[test]
    fn merge_ablation_both_valid_and_merged_not_worse_on_tiny_tasks() {
        // Many tiny tasks: merging is the design reason DEMT stays
        // competitive on minsum here.
        let mut b = InstanceBuilder::new(4);
        for i in 0..40 {
            b.push_sequential(1.0 + (i % 3) as f64, 0.5).unwrap();
        }
        let inst = b.build().unwrap();
        let with = demt_schedule(&inst, &DemtConfig::default());
        let without = demt_schedule(
            &inst,
            &DemtConfig {
                merge_small: false,
                ..DemtConfig::default()
            },
        );
        validate(&inst, &with.schedule).unwrap();
        validate(&inst, &without.schedule).unwrap();
        assert!(
            with.criteria.weighted_completion <= without.criteria.weighted_completion * 1.5,
            "merged {} vs unmerged {}",
            with.criteria.weighted_completion,
            without.criteria.weighted_completion
        );
    }
}
