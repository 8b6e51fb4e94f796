//! # demt-exact — exact schedules for tiny instances
//!
//! The paper evaluates against *lower bounds* because the problem is
//! strongly NP-hard (§3.3: "computing an optimal solution in reasonable
//! time is impossible"). At toy sizes it is not: this crate computes
//! provably optimal moldable-task schedules by branch-and-bound, and the
//! workspace uses it as a **test oracle** — certifying that
//!
//! * every lower bound (`demt-dual`, `demt-bounds`) is ≤ the true
//!   optimum, and
//! * every algorithm (`demt-core`, `demt-baselines`) is ≥ it,
//!
//! on exhaustive families of small random instances.
//!
//! ## Search space
//!
//! Classical dominance arguments shrink the space to something a toy
//! B&B can sweep exactly:
//!
//! 1. **Semi-active schedules suffice.** Any schedule can be left-shifted
//!    (keeping processor assignments) so that every task starts at 0 or
//!    at the completion time of a task sharing one of its processors;
//!    no completion time increases, so neither criterion does.
//! 2. **Placement in non-decreasing start order.** Enumerating
//!    placements sorted by start time loses no schedules.
//! 3. **Available processors are interchangeable.** When a task starts
//!    at `s`, every processor with availability ≤ `s` is equivalent for
//!    the future (each would next free at `s + p`), so the search only
//!    tracks the multiset of processor availability times.
//!
//! The brancher therefore picks, at each node: a remaining task, an
//! allotment `k`, and a start time from `{0} ∪ {current processor
//! availability times}` that is ≥ the previous start and has ≥ k
//! processors free. Pruning: a partial-cost + optimistic-remainder
//! lower bound against the incumbent.

#![warn(missing_docs)]

use demt_model::{Instance, TaskId};
use demt_platform::{Placement, Schedule};

/// Which criterion the search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Makespan `Cmax`.
    Makespan,
    /// Weighted sum of completion times `Σ wᵢCᵢ`.
    WeightedCompletion,
}

/// An exact optimum: value and a witness schedule.
#[derive(Debug, Clone)]
pub struct ExactResult {
    /// Optimal objective value.
    pub value: f64,
    /// A schedule attaining it.
    pub schedule: Schedule,
    /// Search nodes expanded (diagnostics).
    pub nodes: u64,
}

/// Hard cap on instance size: the search is exponential and exists for
/// oracle duty, not production use.
pub const MAX_TASKS: usize = 7;

/// Search nodes one exact search may expand (a few tenths of a second
/// in a release build; the oracle tests need a few thousand). Seven
/// tasks on a wide machine branch far past it.
pub const MAX_NODES: u64 = 1 << 21;

/// The search expanded [`MAX_NODES`] nodes without proving an optimum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeBudgetExceeded;

impl std::fmt::Display for NodeBudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "exact search gave up after {MAX_NODES} nodes")
    }
}

impl std::error::Error for NodeBudgetExceeded {}

struct Searcher<'a> {
    inst: &'a Instance,
    objective: Objective,
    best: f64,
    best_placements: Vec<(TaskId, usize, f64)>, // (task, alloc, start)
    current: Vec<(TaskId, usize, f64)>,
    nodes: u64,
    /// Per-task lower bounds for the remainder: shortest time, least
    /// work, and weight.
    min_time: Vec<f64>,
    min_work: Vec<f64>,
    weights: Vec<f64>,
}

impl<'a> Searcher<'a> {
    /// Optimistic bound for the remaining task set given the frontier.
    fn remainder_bound(&self, remaining: &[bool], avail: &[f64], frontier: f64) -> f64 {
        let m = avail.len() as f64;
        match self.objective {
            Objective::Makespan => {
                // Remaining work must fit above the current availability
                // profile; also no remaining task ends before frontier +
                // its min time... the simple area bound is enough to prune.
                let busy: f64 = avail.iter().sum();
                let rem_work: f64 = remaining
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| r)
                    .map(|(i, _)| self.min_work[i])
                    .sum();
                let max_min: f64 = remaining
                    .iter()
                    .enumerate()
                    .filter(|(_, &r)| r)
                    .map(|(i, _)| frontier + self.min_time[i])
                    .fold(0.0, f64::max);
                ((busy + rem_work) / m).max(max_min)
            }
            Objective::WeightedCompletion => remaining
                .iter()
                .enumerate()
                .filter(|(_, &r)| r)
                .map(|(i, _)| self.weights[i] * (frontier + self.min_time[i]))
                .sum(),
        }
    }

    fn search(
        &mut self,
        remaining: &mut Vec<bool>,
        remaining_count: usize,
        avail: &mut Vec<f64>,
        frontier: f64,
        cost: f64,
    ) {
        self.nodes += 1;
        if self.nodes > MAX_NODES {
            return;
        }
        if remaining_count == 0 {
            if cost < self.best - 1e-12 {
                self.best = cost;
                self.best_placements = self.current.clone();
            }
            return;
        }
        // Prune.
        let rest = self.remainder_bound(remaining, avail, frontier);
        let optimistic = match self.objective {
            Objective::Makespan => cost.max(rest),
            Objective::WeightedCompletion => cost + rest,
        };
        if optimistic >= self.best - 1e-12 {
            return;
        }

        // Candidate starts: 0 and every availability time, deduplicated,
        // each ≥ the frontier (placement in non-decreasing start order).
        let mut starts: Vec<f64> = avail.iter().copied().chain(std::iter::once(0.0)).collect();
        starts.sort_by(|a, b| a.total_cmp(b));
        starts.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        starts.retain(|&s| s >= frontier - 1e-12);

        for i in 0..remaining.len() {
            if !remaining[i] {
                continue;
            }
            let task = self.inst.task(TaskId(i));
            for &s in &starts {
                let free = avail.iter().filter(|&&a| a <= s + 1e-12).count();
                for k in 1..=free {
                    let p = task.time(k);
                    // Apply: the k smallest availabilities ≤ s get bumped.
                    let mut bumped = Vec::with_capacity(k);
                    for (q, slot) in avail.iter_mut().enumerate() {
                        if bumped.len() < k && *slot <= s + 1e-12 {
                            bumped.push((q, *slot));
                            *slot = s + p;
                        }
                    }
                    debug_assert_eq!(bumped.len(), k);
                    remaining[i] = false;
                    self.current.push((TaskId(i), k, s));
                    let c = s + p;
                    let next = match self.objective {
                        Objective::Makespan => cost.max(c),
                        Objective::WeightedCompletion => cost + self.weights[i] * c,
                    };
                    self.search(remaining, remaining_count - 1, avail, s, next);
                    // Undo.
                    self.current.pop();
                    remaining[i] = true;
                    for (q, old) in bumped {
                        avail[q] = old;
                    }
                }
            }
        }
    }
}

/// Computes the exact optimum of `objective` on a tiny instance, or
/// [`NodeBudgetExceeded`] when the search needs more than
/// [`MAX_NODES`] nodes.
///
/// Panics if the instance has more than [`MAX_TASKS`] tasks (the search
/// would not terminate in reasonable time).
pub fn exact_optimum(
    inst: &Instance,
    objective: Objective,
) -> Result<ExactResult, NodeBudgetExceeded> {
    // demt-lint: allow(P1, documented precondition: a non-empty instance; `demt exact` checks the task count first)
    assert!(!inst.is_empty(), "exact optimum of an empty instance");
    // demt-lint: allow(P1, documented precondition: at most MAX_TASKS tasks; `demt exact` checks the task count first)
    assert!(
        inst.len() <= MAX_TASKS,
        "exact search is capped at {MAX_TASKS} tasks (got {})",
        inst.len()
    );
    let mut s = Searcher {
        inst,
        objective,
        best: f64::INFINITY,
        best_placements: Vec::new(),
        current: Vec::new(),
        nodes: 0,
        min_time: inst.tasks().iter().map(|t| t.min_time()).collect(),
        min_work: inst.tasks().iter().map(|t| t.min_work()).collect(),
        weights: inst.tasks().iter().map(|t| t.weight()).collect(),
    };
    let mut remaining = vec![true; inst.len()];
    let mut avail = vec![0.0; inst.procs()];
    let count = inst.len();
    s.search(&mut remaining, count, &mut avail, 0.0, 0.0);
    if s.nodes > MAX_NODES {
        return Err(NodeBudgetExceeded);
    }
    // demt-lint: allow(P1, a search within the node budget visits at least one complete schedule; known reachable when times near 1e200 overflow the objective)
    assert!(s.best.is_finite(), "search must find some schedule");

    // Materialize the witness with explicit processor indices: replay
    // the placements in order, taking the lowest-indexed processors
    // available at each start.
    let mut schedule = Schedule::new(inst.procs());
    let mut proc_avail = vec![0.0_f64; inst.procs()];
    for &(id, k, start) in &s.best_placements {
        let p = inst.task(id).time(k);
        let mut procs: Vec<u32> = Vec::with_capacity(k);
        for (q, a) in proc_avail.iter_mut().enumerate() {
            if procs.len() < k && *a <= start + 1e-9 {
                procs.push(q as u32);
                *a = start + p;
            }
        }
        // demt-lint: allow(P1, the witness replays the search's own feasible placements, so enough processors are free at every start)
        assert_eq!(procs.len(), k, "witness replay must be feasible");
        schedule.push(Placement {
            task: id,
            start,
            duration: p,
            procs: procs.into(),
        });
    }
    Ok(ExactResult {
        value: s.best,
        schedule,
        nodes: s.nodes,
    })
}

/// Exact optimal makespan.
pub fn exact_cmax(inst: &Instance) -> Result<ExactResult, NodeBudgetExceeded> {
    exact_optimum(inst, Objective::Makespan)
}

/// Exact optimal weighted sum of completion times.
pub fn exact_minsum(inst: &Instance) -> Result<ExactResult, NodeBudgetExceeded> {
    exact_optimum(inst, Objective::WeightedCompletion)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::InstanceBuilder;
    use demt_platform::{validate, Criteria};

    #[test]
    fn three_unit_tasks_two_procs() {
        let mut b = InstanceBuilder::new(2);
        for _ in 0..3 {
            b.push_sequential(1.0, 1.0).unwrap();
        }
        let inst = b.build().unwrap();
        let r = exact_cmax(&inst).unwrap();
        assert!(
            (r.value - 2.0).abs() < 1e-9,
            "optimal Cmax is 2, got {}",
            r.value
        );
        validate(&inst, &r.schedule).unwrap();
        assert!((r.schedule.makespan() - r.value).abs() < 1e-9);

        // Minsum: two tasks at C=1, one at C=2 → 4.
        let s = exact_minsum(&inst).unwrap();
        assert!(
            (s.value - 4.0).abs() < 1e-9,
            "optimal minsum is 4, got {}",
            s.value
        );
        validate(&inst, &s.schedule).unwrap();
    }

    #[test]
    fn linear_tasks_match_gang_smith_rule() {
        // Perfectly moldable tasks: minsum optimum = gang in increasing
        // work order (paper §3.1); makespan optimum = total work / m.
        let mut b = InstanceBuilder::new(3);
        for &w in &[6.0, 3.0, 9.0] {
            b.push_linear(1.0, w).unwrap();
        }
        let inst = b.build().unwrap();
        let cm = exact_cmax(&inst).unwrap();
        assert!(
            (cm.value - 6.0).abs() < 1e-9,
            "Cmax* = 18/3, got {}",
            cm.value
        );
        let ms = exact_minsum(&inst).unwrap();
        // Gang ascending: C = 1, 3, 6 → 10.
        assert!(
            (ms.value - 10.0).abs() < 1e-9,
            "minsum* = 10, got {}",
            ms.value
        );
    }

    #[test]
    fn delaying_is_considered_when_profitable() {
        // One heavy wide task and two light ones: the searcher must
        // explore starting the wide task *after* the lights even though
        // a non-delay rule would start it first on the idle machine.
        let mut b = InstanceBuilder::new(2);
        b.push_times(10.0, vec![4.0, 2.0]).unwrap(); // prefers both procs
        b.push_sequential(1.0, 1.0).unwrap();
        b.push_sequential(1.0, 1.0).unwrap();
        let inst = b.build().unwrap();
        let ms = exact_minsum(&inst).unwrap();
        // Lights first in parallel (C=1 each), then the wide on 2 procs
        // (C=3): 1 + 1 + 30 = 32. Wide first: 20 + 3 + 3 = 26. Optimal 26.
        assert!((ms.value - 26.0).abs() < 1e-9, "got {}", ms.value);
        validate(&inst, &ms.schedule).unwrap();
    }

    #[test]
    fn witness_schedules_attain_the_reported_value() {
        for seed in 0..6 {
            let inst = demt_workload::generate(demt_workload::WorkloadKind::Mixed, 4, 3, seed);
            for obj in [Objective::Makespan, Objective::WeightedCompletion] {
                let r = exact_optimum(&inst, obj).unwrap();
                validate(&inst, &r.schedule).unwrap();
                let c = Criteria::evaluate(&inst, &r.schedule);
                let achieved = match obj {
                    Objective::Makespan => c.makespan,
                    Objective::WeightedCompletion => c.weighted_completion,
                };
                assert!(
                    (achieved - r.value).abs() < 1e-9,
                    "seed {seed}: witness {achieved} vs value {}",
                    r.value
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn size_cap_is_enforced() {
        let mut b = InstanceBuilder::new(2);
        for _ in 0..8 {
            b.push_sequential(1.0, 1.0).unwrap();
        }
        let inst = b.build().unwrap();
        let _ = exact_cmax(&inst);
    }

    #[test]
    fn single_task_picks_best_allotment() {
        let mut b = InstanceBuilder::new(3);
        b.push_times(2.0, vec![9.0, 5.0, 4.0]).unwrap();
        let inst = b.build().unwrap();
        let cm = exact_cmax(&inst).unwrap();
        assert!((cm.value - 4.0).abs() < 1e-9);
        let ms = exact_minsum(&inst).unwrap();
        assert!((ms.value - 8.0).abs() < 1e-9);
    }
}
