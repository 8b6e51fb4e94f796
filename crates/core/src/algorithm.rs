//! The DEMT algorithm: batch placement + the compaction pipeline.

use crate::batches::{build_batches, BatchEntry, BatchPlan};
use crate::config::{Compaction, DemtConfig};
use demt_dual::dual_approx;
use demt_model::Instance;
use demt_platform::{
    list_completions, list_schedule, pull_earlier, weighted_completion, Criteria, ListTask,
    Placement, Schedule,
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
    /// Batch orders the list compaction scored: 1 plus the shuffles
    /// under [`Compaction::ListShuffle`] on a multi-batch plan, 1 under
    /// [`Compaction::List`], 0 otherwise.
    pub orders_scored: usize,
    /// List schedules the compaction built: at most one, the winning
    /// order's, and none when the raw or pulled-earlier schedule wins.
    pub schedules_built: usize,
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
        orders_scored: 0,
        schedules_built: 0,
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

    // Step 3: compaction pipeline; keep the best candidate seen. The
    // choice reads only (Σ wᵢCᵢ, Cmax), and list start times depend
    // only on free-processor counts, so every batch order is scored on
    // `list_completions` and only the winning order is built.
    let mut best = Score::of(&raw_criteria);
    let mut winner = Winner::Raw;
    if cfg.compaction != Compaction::None {
        let pulled = pull_earlier(&raw, None);
        let c = Criteria::evaluate(inst, &pulled);
        if Score::of(&c).better(&best) {
            best = Score::of(&c);
            winner = Winner::Pulled(pulled, c);
        }
    }
    let mut orders_scored = 0;
    if matches!(cfg.compaction, Compaction::List | Compaction::ListShuffle) {
        let lists = batch_lists(inst, &plan);
        let shuffles = match cfg.compaction {
            Compaction::ListShuffle if plan.batches.len() > 1 => cfg.shuffles,
            _ => 0,
        };
        let mut order: Vec<usize> = (0..plan.batches.len()).collect();
        let mut rng = StdRng::seed_from_u64(SHUFFLE_SEED);
        let mut by_id = vec![0.0; inst.len()];
        for round in 0..=shuffles {
            if round > 0 {
                order.shuffle(&mut rng);
            }
            let tasks = flatten(&lists, &order);
            orders_scored += 1;
            // The lists come from a valid plan, so the engine accepts
            // them; an order it rejected could not win anyway.
            let Ok(done) = list_completions(m, &tasks) else {
                continue;
            };
            let score = Score::of_list(inst, &tasks, &done, &mut by_id);
            if score.better(&best) {
                best = score;
                winner = Winner::List(tasks);
            }
        }
    }
    let (schedule, criteria, schedules_built) = match winner {
        Winner::Raw => (raw, raw_criteria, 0),
        Winner::Pulled(s, c) => (s, c, 0),
        Winner::List(tasks) => {
            let s = list_schedule(m, &tasks);
            let c = Criteria::evaluate(inst, &s);
            (s, c, 1)
        }
    };

    DemtResult {
        schedule,
        criteria,
        raw_criteria,
        plan,
        cmax_estimate: dual.cmax_estimate,
        cmax_lower_bound: dual.lower_bound,
        orders_scored,
        schedules_built,
    }
}

/// The compaction's best candidate so far: the raw schedule, its
/// pulled-earlier compaction, or a batch order's priority list, built
/// only once it has won.
enum Winner {
    Raw,
    Pulled(Schedule, Criteria),
    List(Vec<ListTask>),
}

/// What the compaction compares, "the best resulting compact schedule"
/// of §3.2: Σ wᵢCᵢ first (equal within 1e-12), then Cmax.
#[derive(Debug, Clone, Copy)]
struct Score {
    weighted_completion: f64,
    makespan: f64,
}

impl Score {
    fn of(c: &Criteria) -> Self {
        Self {
            weighted_completion: c.weighted_completion,
            makespan: c.makespan,
        }
    }

    /// The score of the list schedule of `tasks` from its per-position
    /// completions `done`: the same bits [`Criteria::evaluate`] gives
    /// that schedule, through the same task-id-order fold. `by_id` is a
    /// scratch buffer of one slot per task.
    fn of_list(inst: &Instance, tasks: &[ListTask], done: &[f64], by_id: &mut [f64]) -> Self {
        for (t, &c) in tasks.iter().zip(done) {
            by_id[t.id.index()] = c;
        }
        Self {
            weighted_completion: weighted_completion(inst, by_id.iter().copied()),
            makespan: done.iter().copied().fold(0.0, f64::max),
        }
    }

    /// Lexicographic `(weighted_completion, makespan)` preference.
    fn better(&self, other: &Score) -> bool {
        if self.weighted_completion < other.weighted_completion - 1e-12 {
            return true;
        }
        if other.weighted_completion < self.weighted_completion - 1e-12 {
            return false;
        }
        self.makespan < other.makespan
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

/// Each batch's priority list for the Graham engine, in plan order.
/// Inside a batch (the paper's "local ordering within the batches",
/// left unspecified) entries go by decreasing weight / area: densest
/// weight first, ties in plan order. Each entry's ratio is computed
/// once and each batch sorted once per schedule; every batch order
/// the compaction tries is then a [`flatten`] of these lists.
fn batch_lists(inst: &Instance, plan: &BatchPlan) -> Vec<Vec<ListTask>> {
    plan.batches
        .iter()
        .map(|b| {
            let mut entries: Vec<(f64, &BatchEntry)> = b
                .entries
                .iter()
                .map(|e| {
                    let area: f64 = e
                        .tasks
                        .iter()
                        .map(|&id| inst.task(id).time(e.alloc) * e.alloc as f64)
                        .sum();
                    (e.weight / area.max(f64::MIN_POSITIVE), e)
                })
                .collect();
            entries.sort_by(|a, b| b.0.total_cmp(&a.0));
            let mut out = Vec::new();
            for (_, e) in entries {
                if e.tasks.len() == 1 {
                    let id = e.tasks[0];
                    out.push(ListTask::new(id, e.alloc, inst.task(id).time(e.alloc)));
                } else {
                    for &id in &e.tasks {
                        out.push(ListTask::new(id, 1, inst.task(id).seq_time()));
                    }
                }
            }
            out
        })
        .collect()
}

/// The priority list of the batches taken in `batch_order`: their
/// [`batch_lists`] concatenated, `O(n)`.
fn flatten(lists: &[Vec<ListTask>], batch_order: &[usize]) -> Vec<ListTask> {
    batch_order
        .iter()
        .flat_map(|&bi| lists[bi].iter().copied())
        .collect()
}

/// The compaction as it ran before orders were scored on counts:
/// every batch order's list schedule is built and evaluated, and the
/// best schedule is kept. The reference [`demt_schedule_with_dual`]
/// must match byte for byte.
#[cfg(test)]
fn compact_building_every_order(
    inst: &Instance,
    cfg: &DemtConfig,
    plan: &BatchPlan,
) -> (Schedule, Criteria) {
    let m = inst.procs();
    let raw = place_raw(inst, plan);
    let mut best = raw.clone();
    let mut best_crit = Criteria::evaluate(inst, &raw);
    let consider = |s: Schedule, crit: &mut Criteria, best: &mut Schedule| {
        let c = Criteria::evaluate(inst, &s);
        if Score::of(&c).better(&Score::of(crit)) {
            *crit = c;
            *best = s;
        }
    };
    if cfg.compaction != Compaction::None {
        consider(pull_earlier(&raw, None), &mut best_crit, &mut best);
    }
    if matches!(cfg.compaction, Compaction::List | Compaction::ListShuffle) {
        let lists = batch_lists(inst, plan);
        let mut order: Vec<usize> = (0..plan.batches.len()).collect();
        let tasks = flatten(&lists, &order);
        consider(list_schedule(m, &tasks), &mut best_crit, &mut best);
        if cfg.compaction == Compaction::ListShuffle && plan.batches.len() > 1 {
            let mut rng = StdRng::seed_from_u64(SHUFFLE_SEED);
            for _ in 0..cfg.shuffles {
                order.shuffle(&mut rng);
                let tasks = flatten(&lists, &order);
                consider(list_schedule(m, &tasks), &mut best_crit, &mut best);
            }
        }
    }
    (best, best_crit)
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

    /// Tie-heavy instances: sequential times from {1, 2, 4}, each
    /// halving at every power-of-two allotment up to a per-task cap
    /// (exact binary fractions, monotone), weights from {1, 2}. Equal
    /// areas, weights and completions put the weight on tie-breaking.
    fn tie_heavy(n: usize, m: usize, seed: u64) -> Instance {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = InstanceBuilder::new(m);
        for _ in 0..n {
            let seq = [1.0, 2.0, 4.0][rng.random_range(0..3usize)];
            let cap = 1usize << rng.random_range(0..4u32);
            let times = (1..=m)
                .map(|k| seq / (1usize << k.min(cap).ilog2()) as f64)
                .collect();
            b.push_times([1.0, 2.0][rng.random_range(0..2usize)], times)
                .unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn scoring_orders_matches_building_every_order_byte_for_byte() {
        let mut cases: Vec<(String, Instance)> = Vec::new();
        for kind in WorkloadKind::ALL {
            for (n, m, seed) in [(30, 16, 1), (60, 32, 2), (120, 64, 3), (25, 5, 4)] {
                cases.push((format!("{kind}/{n}x{m}/{seed}"), generate(kind, n, m, seed)));
            }
        }
        // Down to one task: there the pulled-earlier schedule ties the
        // list's and wins, so no list schedule is built.
        for seed in 0..20 {
            let n = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89][seed as usize % 10];
            let m = 1 + seed as usize % 8;
            cases.push((format!("ties/{n}x{m}/{seed}"), tie_heavy(n, m, seed)));
        }
        // Cases whose winner was not built (0) and was built (1).
        let mut built = [0; 2];
        for (name, inst) in &cases {
            for compaction in [Compaction::List, Compaction::ListShuffle] {
                let cfg = DemtConfig {
                    compaction,
                    ..DemtConfig::default()
                };
                let r = demt_schedule(inst, &cfg);
                let (s, c) = compact_building_every_order(inst, &cfg, &r.plan);
                built[r.schedules_built] += 1;
                // Each placement's JSON bytes, as `demt schedule` prints them.
                let bytes = |s: &Schedule| {
                    let mut out = Vec::new();
                    for p in s.placements() {
                        p.write_json(&mut out);
                    }
                    out
                };
                assert_eq!(r.schedule.procs(), s.procs(), "{name} {compaction:?}");
                assert!(bytes(&r.schedule) == bytes(&s), "{name} {compaction:?}");
                let bits = |c: &Criteria| {
                    [
                        c.makespan,
                        c.weighted_completion,
                        c.sum_completion,
                        c.mean_completion,
                        c.busy_area,
                        c.idle_area,
                        c.utilization,
                    ]
                    .map(f64::to_bits)
                };
                assert_eq!(bits(&r.criteria), bits(&c), "{name} {compaction:?}");
            }
        }
        assert!(
            built[0] > 0 && built[1] > 0,
            "both outcomes covered: {built:?}"
        );
    }

    #[test]
    fn default_config_scores_every_order_and_builds_at_most_one() {
        let inst = generate(WorkloadKind::Mixed, 60, 16, 9);
        let cfg = DemtConfig::default();
        let r = demt_schedule(&inst, &cfg);
        assert!(r.plan.batches.len() > 1, "needs a multi-batch plan");
        assert_eq!(r.orders_scored, 1 + cfg.shuffles);
        assert!(r.schedules_built <= 1, "built {}", r.schedules_built);
        let none = DemtConfig {
            compaction: Compaction::PullEarlier,
            ..cfg
        };
        let r = demt_schedule(&inst, &none);
        assert_eq!((r.orders_scored, r.schedules_built), (0, 0));
    }

    #[test]
    fn lexicographic_preference() {
        let a = Score {
            weighted_completion: 5.0,
            makespan: 10.0,
        };
        let mut b = a;
        b.weighted_completion = 6.0;
        assert!(a.better(&b));
        assert!(!b.better(&a));
        let mut c = a;
        c.makespan = 9.0;
        assert!(c.better(&a));
        // Σ wᵢCᵢ within 1e-12 counts as a tie; Cmax decides.
        c.weighted_completion += 1e-13;
        assert!(c.better(&a));
    }
}
