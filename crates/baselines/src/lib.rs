//! # demt-baselines — the comparison algorithms of §4.1
//!
//! The five "standard" schedulers the paper measures DEMT against:
//!
//! * [`gang`] — every task runs on all `m` processors, in decreasing
//!   `wᵢ / pᵢ(m)` order (Smith's rule on the gang machine; optimal for
//!   minsum when speed-up is linear, §3.1);
//! * [`sequential_lptf`] — every task on one processor, Graham list in
//!   decreasing sequential-time order (LPTF);
//! * the three **List Graham** variants, all using the allotments
//!   selected by the dual approximation ("the number of processors
//!   selected by \[7\]") and differing only in list order:
//!   * [`list_shelf`] — the \[7\] order: long shelf, short shelf, small
//!     tasks;
//!   * [`list_wlptf`] — weighted LPTF: decreasing `pᵢ(kᵢ)/wᵢ` (the
//!     classical LPTF generalized by weights, the paper's "ratio
//!     between weight and their execution time");
//!   * [`list_saf`] — smallest area first: increasing `kᵢ·pᵢ(kᵢ)`,
//!     "almost the opposite of LPTF", aimed at the minsum criterion.
//!
//! All baselines return validated-shape [`Schedule`]s built by the
//! shared Graham engine of `demt-platform::list`. It places in
//! `O(log)` per event instead of rescanning all `m` processors, which
//! is what keeps the three list variants usable at the `m = 10⁴` grid
//! the CI perf guard exercises, so the experiment harness treats them
//! and DEMT uniformly.

#![warn(missing_docs)]

mod registry;

pub use registry::{
    registry, GangScheduler, ListSafScheduler, ListShelfScheduler, ListWlptfScheduler,
    SequentialScheduler,
};

use demt_dual::DualResult;
use demt_model::{Instance, TaskId};
use demt_platform::{list_schedule, ListTask, Placement, Schedule};

/// Gang scheduling: each task uses all `m` processors; tasks run one
/// after another in decreasing `wᵢ/pᵢ(m)` (Smith ratio). Optimal for
/// minsum on perfectly-moldable (linear speed-up) instances.
pub fn gang(inst: &Instance) -> Schedule {
    let m = inst.procs();
    let mut order: Vec<TaskId> = inst.ids().collect();
    order.sort_by(|&a, &b| {
        let ta = inst.task(a);
        let tb = inst.task(b);
        let ra = ta.weight() / ta.time(m);
        let rb = tb.weight() / tb.time(m);
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    let mut s = Schedule::new(m);
    let mut t0 = 0.0;
    for id in order {
        let d = inst.task(id).time(m);
        s.push(Placement {
            task: id,
            start: t0,
            duration: d,
            procs: (0..m as u32).collect(),
        });
        t0 += d;
    }
    s
}

/// Sequential scheduling: every task on a single processor, Graham list
/// in decreasing sequential-time order (LPTF).
pub fn sequential_lptf(inst: &Instance) -> Schedule {
    let mut order: Vec<TaskId> = inst.ids().collect();
    order.sort_by(|&a, &b| {
        inst.task(b)
            .seq_time()
            .total_cmp(&inst.task(a).seq_time())
            .then(a.cmp(&b))
    });
    let tasks: Vec<ListTask> = order
        .into_iter()
        .map(|id| ListTask::new(id, 1, inst.task(id).seq_time()))
        .collect();
    list_schedule(inst.procs(), &tasks)
}

fn list_with_order(inst: &Instance, dual: &DualResult, order: Vec<TaskId>) -> Schedule {
    let tasks: Vec<ListTask> = order
        .into_iter()
        .map(|id| {
            let k = dual.allotment[id.index()];
            ListTask::new(id, k, inst.task(id).time(k))
        })
        .collect();
    list_schedule(inst.procs(), &tasks)
}

/// Graham list with the dual approximation's canonical shelf order
/// (long shelf, short shelf, then small tasks).
pub fn list_shelf(inst: &Instance, dual: &DualResult) -> Schedule {
    list_with_order(inst, dual, dual.order.clone())
}

/// Graham list in weighted-LPTF order: decreasing `pᵢ(kᵢ)/wᵢ` — the
/// classical longest-first rule, discounted by weight so heavy tasks
/// keep priority.
pub fn list_wlptf(inst: &Instance, dual: &DualResult) -> Schedule {
    let mut order: Vec<TaskId> = inst.ids().collect();
    order.sort_by(|&a, &b| {
        let ka = dual.allotment[a.index()];
        let kb = dual.allotment[b.index()];
        let ra = inst.task(a).time(ka) / inst.task(a).weight();
        let rb = inst.task(b).time(kb) / inst.task(b).weight();
        rb.total_cmp(&ra).then(a.cmp(&b))
    });
    list_with_order(inst, dual, order)
}

/// Graham list in smallest-area-first order: increasing `kᵢ·pᵢ(kᵢ)`,
/// favouring the minsum criterion.
pub fn list_saf(inst: &Instance, dual: &DualResult) -> Schedule {
    let mut order: Vec<TaskId> = inst.ids().collect();
    order.sort_by(|&a, &b| {
        let ka = dual.allotment[a.index()];
        let kb = dual.allotment[b.index()];
        let aa = inst.task(a).work(ka);
        let ab = inst.task(b).work(kb);
        aa.total_cmp(&ab).then(a.cmp(&b))
    });
    list_with_order(inst, dual, order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_dual::{dual_approx, DualConfig};
    use demt_model::InstanceBuilder;
    use demt_platform::{validate, Criteria};
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn gang_is_smith_optimal_on_linear_tasks() {
        // Linear speed-up: gang in decreasing w/p order is minsum-optimal
        // (§3.1). Verify Smith's exchange argument numerically against
        // all permutations on a small instance.
        let mut b = InstanceBuilder::new(3);
        let seqs = [6.0, 3.0, 9.0, 4.5];
        let weights = [1.0, 2.0, 1.5, 0.7];
        for (s, w) in seqs.iter().zip(weights) {
            b.push_linear(w, *s).unwrap();
        }
        let inst = b.build().unwrap();
        let s = gang(&inst);
        validate(&inst, &s).unwrap();
        let got = Criteria::evaluate(&inst, &s).weighted_completion;

        // Brute force over all 24 gang orders.
        let durs: Vec<f64> = inst.tasks().iter().map(|t| t.time(3)).collect();
        let mut best = f64::INFINITY;
        let mut perm = [0usize, 1, 2, 3];
        permute(&mut perm, 0, &mut |p| {
            let mut t0 = 0.0;
            let mut acc = 0.0;
            for &i in p {
                t0 += durs[i];
                acc += weights[i] * t0;
            }
            best = best.min(acc);
        });
        assert!(
            (got - best).abs() < 1e-9,
            "gang {got} vs optimal order {best}"
        );

        fn permute(p: &mut [usize; 4], k: usize, f: &mut impl FnMut(&[usize; 4])) {
            if k == 4 {
                f(p);
                return;
            }
            for i in k..4 {
                p.swap(k, i);
                permute(p, k + 1, f);
                p.swap(k, i);
            }
        }
    }

    #[test]
    fn sequential_uses_one_processor_each() {
        let inst = generate(WorkloadKind::WeaklyParallel, 20, 8, 1);
        let s = sequential_lptf(&inst);
        assert!(s.placements().iter().all(|p| p.alloc() == 1));
        validate(&inst, &s).unwrap();
    }

    #[test]
    fn gang_uses_all_processors_each() {
        let inst = generate(WorkloadKind::HighlyParallel, 10, 6, 2);
        let s = gang(&inst);
        assert!(s.placements().iter().all(|p| p.alloc() == 6));
        // Gang is a chain: makespan = Σ p(m).
        let expect: f64 = inst.tasks().iter().map(|t| t.time(6)).sum();
        assert!((s.makespan() - expect).abs() < 1e-9);
    }

    #[test]
    fn list_variants_share_allotments_but_differ_in_order() {
        let inst = generate(WorkloadKind::Mixed, 40, 12, 8);
        let dual = dual_approx(&inst, &DualConfig::default());
        let a = list_shelf(&inst, &dual);
        let b = list_wlptf(&inst, &dual);
        let c = list_saf(&inst, &dual);
        for id in inst.ids() {
            let k = dual.allotment[id.index()];
            for s in [&a, &b, &c] {
                assert_eq!(s.placement_of(id).unwrap().alloc(), k);
            }
        }
        // Different orders essentially always give different schedules
        // on a 40-task instance.
        assert!(a != b || b != c, "expected order to matter");
    }

    #[test]
    fn list_makespan_stays_near_dual_bound() {
        // The allotment is the [7] one, so the Graham lists should stay
        // within a small factor of the makespan lower bound (§4.2 notes
        // their Cmax ratio is below 2; we assert a loose 3).
        for seed in 0..4 {
            let inst = generate(WorkloadKind::Cirne, 60, 16, seed);
            let dual = dual_approx(&inst, &DualConfig::default());
            for s in [
                list_shelf(&inst, &dual),
                list_wlptf(&inst, &dual),
                list_saf(&inst, &dual),
            ] {
                let ratio = s.makespan() / dual.lower_bound;
                assert!(ratio < 3.0, "seed {seed}: list ratio {ratio}");
            }
        }
    }

    #[test]
    fn saf_starts_small_areas_first() {
        let inst = generate(WorkloadKind::Mixed, 30, 8, 3);
        let dual = dual_approx(&inst, &DualConfig::default());
        let s = list_saf(&inst, &dual);
        // The very first placement (t=0, lowest processors) must be the
        // smallest-area task.
        let smallest = inst
            .ids()
            .min_by(|&a, &b| {
                let wa = inst.task(a).work(dual.allotment[a.index()]);
                let wb = inst.task(b).work(dual.allotment[b.index()]);
                wa.partial_cmp(&wb).unwrap()
            })
            .unwrap();
        assert_eq!(s.placement_of(smallest).unwrap().start, 0.0);
    }
}
