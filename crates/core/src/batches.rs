//! Batch construction: the main loop of §3.2.
//!
//! Batch `j` spans `[t_j, t_{j+1}]` with `t_j = C*max / 2^(K-j)` and
//! `t_{j+1} = 2·t_j`; its content is chosen among the not-yet-scheduled
//! tasks that fit the batch length, by (optionally) merging small
//! sequential tasks into single-processor chains in decreasing-weight
//! order and then running the max-weight knapsack over `m` processors.
//!
//! The paper iterates `j = 0..K`; nothing guarantees the knapsack
//! absorbs every task by then, so we keep doubling past `K` until the
//! task set is empty (documented deviation — each extra batch schedules
//! at least one task, so at most `n` extra rounds occur).

use crate::config::DemtConfig;
use demt_kernels::{max_weight_knapsack, pack_chains, StackItem, WeightItem};
use demt_model::{approx_le, Instance, TaskId};

/// One scheduled batch (diagnostic view).
#[derive(Debug, Clone)]
pub struct Batch {
    /// Batch index `j` (may exceed the paper's `K`, see module docs).
    pub index: usize,
    /// Batch start `t_j` — also its length.
    pub start: f64,
    /// Content: each entry is a single-processor chain of one or more
    /// tasks (singleton chains are plain tasks on `alloc` processors).
    pub entries: Vec<BatchEntry>,
}

/// One knapsack-selected entry of a batch.
#[derive(Debug, Clone)]
pub struct BatchEntry {
    /// Tasks executed back-to-back (singleton unless merged).
    pub tasks: Vec<TaskId>,
    /// Processors used by the entry (1 for merged chains).
    pub alloc: usize,
    /// Summed weight (the knapsack value).
    pub weight: f64,
}

impl Batch {
    /// Total processors the batch occupies.
    pub fn procs_used(&self) -> usize {
        self.entries.iter().map(|e| e.alloc).sum()
    }
}

/// The batch plan: geometry plus contents.
#[derive(Debug, Clone)]
pub struct BatchPlan {
    /// `C*max` estimate that anchored the geometry.
    pub cmax_estimate: f64,
    /// The paper's `K` (`⌊log₂(C*max/tmin)⌋`).
    pub k: usize,
    /// All non-empty batches in chronological order.
    pub batches: Vec<Batch>,
}

/// Upper bound on the doubling exponent so `2^k` stays a sane `f64`
/// even for degenerate `tmin`.
const MAX_K: usize = 48;

/// Builds the batch plan (steps "for j = 0..K" of the §3.2 pseudo-code,
/// plus overflow batches).
pub fn build_batches(inst: &Instance, cfg: &DemtConfig, cmax_estimate: f64) -> BatchPlan {
    // demt-lint: allow(P1, the dual estimate of a non-empty instance is positive and finite)
    assert!(cmax_estimate > 0.0 && cmax_estimate.is_finite());
    let m = inst.procs();
    let tmin = inst.min_min_time();
    let k = if cmax_estimate <= tmin {
        0
    } else {
        ((cmax_estimate / tmin).log2().floor() as usize).min(MAX_K)
    };

    let mut remaining: Vec<TaskId> = inst.ids().collect();
    // Tasks some batch already holds, by id.
    let mut taken = vec![false; inst.len()];
    let mut batches = Vec::new();
    let mut j = 0usize;
    // Hard stop: K + n + 8 rounds (each non-empty selection removes ≥ 1
    // task; empty eligible sets only happen while t_j < min fit).
    let max_rounds = k + inst.len() + 8;

    while !remaining.is_empty() {
        // demt-lint: allow(P1, once t_j passes the smallest fastest time every round places a task, so the loop ends within k + n rounds)
        assert!(j <= max_rounds, "batch loop failed to converge");
        let t_j = cmax_estimate * 2f64.powi(j as i32 - k as i32);
        // S = tasks that fit the batch length: some allotment fits t_j
        // exactly when the fastest one does (`approx_le(·, t_j)` is
        // monotone in its first argument), an O(1) test per task.
        let eligible: Vec<TaskId> = remaining
            .iter()
            .copied()
            .filter(|&id| approx_le(inst.task(id).min_time(), t_j))
            .collect();
        if eligible.is_empty() {
            j += 1;
            continue;
        }

        // Partition into small sequential tasks (mergeable) and the rest.
        // An eligible task has an allotment within t_j: its fastest one.
        let half = t_j / 2.0;
        let mut small_items: Vec<StackItem<TaskId>> = Vec::new();
        let mut singles: Vec<BatchEntry> = Vec::new();
        for &id in &eligible {
            let t = inst.task(id);
            if cfg.merge_small && t.seq_time() <= half {
                small_items.push(StackItem {
                    handle: id,
                    len: t.seq_time(),
                    weight: t.weight(),
                });
            } else if let Some(alloc) = t.min_alloc_within(t_j) {
                singles.push(BatchEntry {
                    tasks: vec![id],
                    alloc,
                    weight: t.weight(),
                });
            }
        }
        let chains = pack_chains(&small_items, t_j)
            .into_iter()
            .map(|c| BatchEntry {
                tasks: c.members.iter().map(|mem| mem.handle).collect(),
                alloc: 1,
                weight: c.total_weight,
            });

        // Knapsack over the merged entries.
        let entries: Vec<BatchEntry> = chains.chain(singles).collect();
        let items: Vec<WeightItem> = entries
            .iter()
            .map(|e| WeightItem {
                procs: e.alloc,
                weight: e.weight,
            })
            .collect();
        let sel = max_weight_knapsack(&items, m);
        let selected: Vec<BatchEntry> = entries
            .into_iter()
            .zip(sel.selected)
            .filter(|(_, s)| *s)
            .map(|(e, _)| e)
            .collect();

        if !selected.is_empty() {
            for e in &selected {
                for id in &e.tasks {
                    taken[id.index()] = true;
                }
            }
            remaining.retain(|id| !taken[id.index()]);
            batches.push(Batch {
                index: j,
                start: t_j,
                entries: selected,
            });
        }
        j += 1;
    }

    BatchPlan {
        cmax_estimate,
        k,
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::InstanceBuilder;

    fn cfg() -> DemtConfig {
        DemtConfig::default()
    }

    #[test]
    fn every_task_lands_in_exactly_one_batch() {
        let inst = demt_workload::generate(demt_workload::WorkloadKind::Mixed, 60, 16, 3);
        let plan = build_batches(&inst, &cfg(), 20.0);
        let mut seen = vec![false; inst.len()];
        for b in &plan.batches {
            for e in &b.entries {
                for &id in &e.tasks {
                    assert!(!seen[id.index()], "{id} scheduled twice");
                    seen[id.index()] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "task dropped by the batch loop");
    }

    #[test]
    fn batches_respect_processor_capacity_and_length() {
        let inst = demt_workload::generate(demt_workload::WorkloadKind::Cirne, 80, 12, 7);
        let plan = build_batches(&inst, &cfg(), 25.0);
        for b in &plan.batches {
            assert!(
                b.procs_used() <= inst.procs(),
                "batch {} overflows",
                b.index
            );
            for e in &b.entries {
                // Chain total length and single durations fit the batch.
                let total: f64 = e
                    .tasks
                    .iter()
                    .map(|&id| inst.task(id).time(e.alloc.max(1)))
                    .sum::<f64>();
                if e.tasks.len() > 1 {
                    assert_eq!(e.alloc, 1, "chains are single-processor");
                    assert!(total <= b.start * (1.0 + 1e-9), "chain too long for batch");
                } else {
                    let d = inst.task(e.tasks[0]).time(e.alloc);
                    assert!(d <= b.start * (1.0 + 1e-9), "entry longer than batch");
                }
            }
        }
    }

    #[test]
    fn batch_lengths_double() {
        let inst = demt_workload::generate(demt_workload::WorkloadKind::HighlyParallel, 50, 8, 1);
        let plan = build_batches(&inst, &cfg(), 16.0);
        for w in plan.batches.windows(2) {
            let ratio = w[1].start / w[0].start;
            let expect = 2f64.powi((w[1].index - w[0].index) as i32);
            assert!((ratio - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn merging_compresses_many_small_tasks() {
        // 12 tiny sequential tasks on 2 processors, cmax estimate 16:
        // without merging a batch holds ≤ 2 of them; with merging the
        // chains absorb everything quickly.
        let mut b = InstanceBuilder::new(2);
        for _ in 0..12 {
            b.push_sequential(1.0, 1.0).unwrap();
        }
        let inst = b.build().unwrap();
        let merged = build_batches(&inst, &cfg(), 16.0);
        let mut no_merge = cfg();
        no_merge.merge_small = false;
        let flat = build_batches(&inst, &no_merge, 16.0);
        assert!(
            merged.batches.len() <= flat.batches.len(),
            "merging should not need more batches ({} vs {})",
            merged.batches.len(),
            flat.batches.len()
        );
        let merged_chains = merged
            .batches
            .iter()
            .flat_map(|b| &b.entries)
            .filter(|e| e.tasks.len() > 1)
            .count();
        assert!(merged_chains > 0, "expected at least one real chain");
    }

    #[test]
    fn overflow_batches_extend_past_k() {
        // More full-machine tasks than K batches can hold: the loop must
        // continue past K instead of dropping tasks.
        let mut b = InstanceBuilder::new(2);
        for _ in 0..6 {
            b.push_times(1.0, vec![4.0, 4.0]).unwrap(); // no speed-up, p = 4
        }
        let inst = b.build().unwrap();
        let plan = build_batches(&inst, &cfg(), 4.0);
        // K = 0 here (cmax/tmin = 1): batches 0, 1, 2, … until all six
        // tasks (two per batch at alloc 1… or one at alloc 2) are gone.
        let total: usize = plan
            .batches
            .iter()
            .flat_map(|b| &b.entries)
            .map(|e| e.tasks.len())
            .sum();
        assert_eq!(total, 6);
        assert!(plan.batches.last().unwrap().index >= 1);
    }
}
