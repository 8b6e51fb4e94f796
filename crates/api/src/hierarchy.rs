//! Hierarchical scheduling adapter: runs any [`Scheduler`] at node
//! granularity over a [`Hierarchy`] and expands its placements back to
//! cores.
//!
//! A `--hierarchy 2x4x8` machine has 64 cores, but allocations that
//! split a node across jobs are rarely wanted: the adapter coarsens the
//! instance to one "processor" per node (the execution time on `k`
//! nodes is the original time on `k·c` cores, `c` cores per node), lets
//! the wrapped algorithm schedule the coarse instance unchanged, and
//! then maps every node interval `[a, b]` back to the contiguous core
//! interval `[a·c, (b+1)·c − 1]`. Durations carry over exactly, so the
//! expanded schedule is valid on the original instance by construction,
//! and every registry entry gets node-aligned placements for free.

use crate::{ReportTimer, ScheduleReport, Scheduler, SchedulerContext};
use demt_model::{Hierarchy, Instance, MoldableTask, ProcSet};
use demt_platform::{Criteria, Placement, Schedule};

/// Wraps an inner [`Scheduler`] so it schedules whole nodes of a
/// [`Hierarchy`] instead of individual cores.
///
/// When the instance's processor count does not match the hierarchy's
/// total core count — or the hierarchy has one core per node, making
/// the coarsening the identity — the adapter delegates to the inner
/// scheduler untouched, so it is always safe to install.
pub struct HierarchicalScheduler<S> {
    inner: S,
    hierarchy: Hierarchy,
    name: String,
    legend: String,
}

impl<S: Scheduler> HierarchicalScheduler<S> {
    /// Wraps `inner` over `hierarchy`. The adapter's registry name is
    /// `"<inner>@<hierarchy>"` (e.g. `"greedy-list@2x4x8"`) so plain
    /// and hierarchical runs stay distinguishable in CSV output.
    pub fn new(inner: S, hierarchy: Hierarchy) -> Self {
        let name = format!("{}@{hierarchy}", inner.name());
        let legend = format!("{} on {hierarchy}", inner.legend());
        Self {
            inner,
            hierarchy,
            name,
            legend,
        }
    }

    /// The hierarchy the adapter schedules over.
    pub fn hierarchy(&self) -> Hierarchy {
        self.hierarchy
    }

    /// The wrapped scheduler.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

/// The node-level twin of `inst`: one processor per hierarchy node,
/// execution time on `k` nodes = original time on `k·c` cores.
fn coarsen(inst: &Instance, hierarchy: Hierarchy) -> Option<Instance> {
    let c = hierarchy.cores_per_node() as usize;
    let nodes = hierarchy.unit_count(demt_model::HierarchyLevel::Node) as usize;
    let mut tasks = Vec::with_capacity(inst.len());
    for t in inst.tasks() {
        let times: Vec<f64> = (1..=nodes).map(|k| t.time(k * c)).collect();
        tasks.push(MoldableTask::new(t.id(), t.weight(), times).ok()?);
    }
    Instance::new(nodes, tasks).ok()
}

/// Maps a node-interval placement back to cores: node range `[a, b]`
/// becomes core range `[a·c, (b+1)·c − 1]`. Scaling preserves gaps
/// (nodes `b` and `b+2` stay non-adjacent as core ranges), so the
/// canonical interval form carries over without re-normalizing.
fn expand_procs(node_set: &ProcSet, c: u32) -> ProcSet {
    let mut cores = ProcSet::new();
    for &(a, b) in node_set.ranges() {
        cores.union_with(&ProcSet::range(a * c, (b + 1) * c - 1));
    }
    cores
}

impl<S: Scheduler> Scheduler for HierarchicalScheduler<S> {
    fn name(&self) -> &str {
        &self.name
    }

    fn legend(&self) -> &str {
        &self.legend
    }

    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        let c = self.hierarchy.cores_per_node();
        let delegate = inst.procs() != self.hierarchy.total_cores() || c == 1;
        let coarse = if delegate {
            None
        } else {
            coarsen(inst, self.hierarchy)
        };
        let Some(coarse) = coarse else {
            // Mismatched machine (or trivial hierarchy): the wrapped
            // algorithm sees the instance as-is.
            return self.inner.schedule(inst, ctx);
        };
        let mut timer = ReportTimer::start();
        let report = self.inner.schedule(&coarse, ctx);
        for p in &report.phases {
            timer.record(&p.phase, p.seconds);
        }
        let expanded = timer.phase("expand", || {
            let mut s = Schedule::new(inst.procs());
            for p in report.schedule.placements() {
                s.push(Placement {
                    task: p.task,
                    start: p.start,
                    duration: p.duration,
                    procs: expand_procs(&p.procs, c),
                });
            }
            s
        });
        let criteria = Criteria::evaluate(inst, &expanded);
        timer.finish_with(&self.name, expanded, criteria)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnScheduler;
    use demt_model::{HierarchyLevel, HierarchyRequest};

    /// Greedy lowest-free chain: places every task on node 0 back to
    /// back — enough structure to watch the expansion.
    fn chain(inst: &Instance, _ctx: &mut SchedulerContext) -> Schedule {
        let mut s = Schedule::new(inst.procs());
        let mut t0 = 0.0;
        for t in inst.tasks() {
            let d = t.seq_time();
            s.push(Placement {
                task: t.id(),
                start: t0,
                duration: d,
                procs: ProcSet::range(0, 0),
            });
            t0 += d;
        }
        s
    }

    fn linear_instance(procs: usize, n: usize) -> Instance {
        let mut b = demt_model::InstanceBuilder::new(procs);
        for i in 0..n {
            b.push_linear(1.0, 4.0 + i as f64).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn expands_node_placements_to_whole_cores() {
        let h = Hierarchy::parse("1x2x4").unwrap();
        let inst = linear_instance(8, 3);
        let s = HierarchicalScheduler::new(FnScheduler::new("chain", "Chain", chain), h);
        assert_eq!(s.name(), "chain@1x2x4");
        let report = s.schedule(&inst, &mut SchedulerContext::new());
        demt_platform::validate(&inst, &report.schedule).unwrap();
        for p in report.schedule.placements() {
            // Node 0 expands to cores 0..=3.
            assert_eq!(p.procs, ProcSet::range(0, 3), "whole-node allotment");
        }
        assert_eq!(report.algorithm, "chain@1x2x4");
    }

    #[test]
    fn durations_match_the_core_level_times() {
        let h = Hierarchy::parse("1x2x2").unwrap();
        // Times indexed by cores 1..=4; on 1 node (2 cores) a task runs
        // in its 2-core time.
        let mut b = demt_model::InstanceBuilder::new(4);
        b.push_times(1.0, vec![8.0, 5.0, 4.0, 3.0]).unwrap();
        let inst = b.build().unwrap();
        let s = HierarchicalScheduler::new(FnScheduler::new("chain", "Chain", chain), h);
        let report = s.schedule(&inst, &mut SchedulerContext::new());
        assert_eq!(report.schedule.placements()[0].duration, 5.0);
        demt_platform::validate(&inst, &report.schedule).unwrap();
    }

    #[test]
    fn mismatched_machine_delegates_untouched() {
        let h = Hierarchy::parse("2x4x8").unwrap(); // 64 cores
        let inst = linear_instance(6, 2); // 6-processor instance
        let s = HierarchicalScheduler::new(FnScheduler::new("chain", "Chain", chain), h);
        let report = s.schedule(&inst, &mut SchedulerContext::new());
        assert_eq!(report.schedule.procs(), 6);
        assert_eq!(report.algorithm, "chain", "inner report passes through");
        demt_platform::validate(&inst, &report.schedule).unwrap();
    }

    #[test]
    fn claim_lowering_round_trip() {
        // The model-level claim path the adapter's expansion mirrors:
        // a nodes=2 request on 2x2x4 carves two aligned 4-core blocks.
        let h = Hierarchy::parse("2x2x4").unwrap();
        let mut free = ProcSet::full(h.total_cores());
        let req = HierarchyRequest::parse("nodes=2").unwrap();
        let got = h.claim(&mut free, req).unwrap();
        assert_eq!(got, ProcSet::range(0, 7));
        assert_eq!(h.lower(req).unwrap(), 8);
        assert_eq!(h.unit_cores(HierarchyLevel::Node), 4);
    }
}
