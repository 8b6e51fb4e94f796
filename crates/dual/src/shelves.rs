//! Two-shelf construction at an accepted λ.
//!
//! Following the structure of [17]/[7]: tasks are split into *small*
//! tasks (sequential time ≤ λ/2, kept aside and later list-scheduled on
//! single processors), and *big* tasks assigned by a min-area knapsack
//! to the long shelf (length λ, minimal allotment fitting λ) or the
//! short shelf (length λ/2, minimal allotment fitting λ/2). The shelf
//! assignment fixes every task's allotment and a canonical list order —
//! long shelf, then short shelf, then small tasks — which is exactly
//! the first "List Graham" ordering of §4.1. The actual schedule is
//! produced by the Graham list engine, which compacts the shelves.

use crate::CanonicalAllotments;
use demt_kernels::{min_area_partition, ShelfChoice, ShelfItem};
use demt_model::{Instance, TaskId};
use demt_platform::{list_schedule, ListTask, Schedule};

/// Which structural class a task landed in at the accepted λ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShelfClass {
    /// Long shelf (duration in (λ/2, λ] at its allotment).
    Long,
    /// Short shelf (duration ≤ λ/2 at its allotment).
    Short,
    /// Small sequential task (p(1) ≤ λ/2), scheduled on one processor.
    Small,
}

/// Output of the shelf construction.
#[derive(Debug, Clone)]
pub(crate) struct ShelfBuild {
    /// Per-task allotment (indexed by task id).
    pub(crate) allotment: Vec<usize>,
    /// Per-task class (indexed by task id).
    pub(crate) class: Vec<ShelfClass>,
    /// Canonical \[7\] list order: long shelf (decreasing duration), short
    /// shelf (decreasing duration), small tasks (decreasing duration).
    pub(crate) order: Vec<TaskId>,
    /// Compacted schedule built by the Graham list engine.
    pub(crate) schedule: Schedule,
}

/// Builds the two-shelf structure and its compacted schedule at λ.
///
/// Panics if λ is rejected by the feasibility predicate, evaluated on
/// `memo` (the instance's memo the bisection already built) — callers
/// obtain accepted values from that bisection. The midpoint condition
/// guarantees the forced long-shelf tasks fit `m` processors, so the
/// partition always succeeds.
pub(crate) fn build_shelves(
    inst: &Instance,
    memo: &CanonicalAllotments,
    lambda: f64,
) -> ShelfBuild {
    assert!(
        memo.check_lambda(lambda).is_none(),
        "build_shelves requires an accepted λ (got a rejected one)"
    );
    let half = lambda / 2.0;
    let n = inst.len();

    let mut allotment = vec![0usize; n];
    let mut class = vec![ShelfClass::Small; n];

    // Small tasks run sequentially; everything else goes through the
    // min-area shelf partition.
    let mut big_ids: Vec<TaskId> = Vec::new();
    let mut items: Vec<ShelfItem> = Vec::new();
    for (i, t) in inst.tasks().iter().enumerate() {
        if t.seq_time() <= half {
            allotment[i] = 1;
            class[i] = ShelfClass::Small;
            continue;
        }
        let (k1, a1) = memo
            .min_area_alloc_within(i, lambda)
            // demt-lint: allow(P1, caller only invokes build at a λ the feasibility oracle accepted)
            .expect("fit condition holds at an accepted λ");
        big_ids.push(t.id());
        items.push(ShelfItem {
            procs_shelf1: k1,
            area_shelf1: a1,
            shelf2: memo.min_area_alloc_within(i, half),
        });
    }

    let partition = min_area_partition(&items, inst.procs())
        // demt-lint: allow(P1, the accepted λ satisfies the midpoint processor condition so forced shelf-1 tasks fit)
        .expect("midpoint condition guarantees forced tasks fit");
    for ((&id, item), choice) in big_ids.iter().zip(&items).zip(&partition.choice) {
        // An item without a shelf-2 option is always on shelf 1.
        (allotment[id.index()], class[id.index()]) = match (choice, item.shelf2) {
            (ShelfChoice::Shelf2, Some((k2, _))) => (k2, ShelfClass::Short),
            _ => (item.procs_shelf1, ShelfClass::Long),
        };
    }

    // Canonical [7] order: long shelf first, then short shelf, then the
    // small tasks; within each group longest first (LPT flavour).
    let mut order: Vec<TaskId> = inst.ids().collect();
    let group = |c: ShelfClass| match c {
        ShelfClass::Long => 0u8,
        ShelfClass::Short => 1,
        ShelfClass::Small => 2,
    };
    order.sort_by(|&a, &b| {
        let (ca, cb) = (group(class[a.index()]), group(class[b.index()]));
        ca.cmp(&cb)
            .then_with(|| {
                let da = inst.task(a).time(allotment[a.index()]);
                let db = inst.task(b).time(allotment[b.index()]);
                db.total_cmp(&da)
            })
            .then(a.cmp(&b))
    });

    let tasks: Vec<ListTask> = order
        .iter()
        .map(|&id| {
            let k = allotment[id.index()];
            ListTask::new(id, k, inst.task(id).time(k))
        })
        .collect();
    let schedule = list_schedule(inst.procs(), &tasks);

    ShelfBuild {
        allotment,
        class,
        order,
        schedule,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasibility::trivially_feasible_lambda;
    use demt_model::InstanceBuilder;
    use demt_platform::validate;

    fn mixed_instance() -> Instance {
        let mut b = InstanceBuilder::new(4);
        b.push_times(1.0, vec![8.0, 4.5, 3.2, 2.6]).unwrap(); // big, moldable
        b.push_times(1.0, vec![6.0, 3.2, 2.4, 2.0]).unwrap(); // big, moldable
        b.push_sequential(1.0, 1.5).unwrap(); // small at λ ≥ 3
        b.push_sequential(1.0, 1.0).unwrap(); // small
        b.build().unwrap()
    }

    #[test]
    fn classes_partition_and_allotments_fit() {
        let inst = mixed_instance();
        let lambda = trivially_feasible_lambda(&inst);
        let build = build_shelves(&inst, &CanonicalAllotments::new(&inst), lambda);
        for id in inst.ids() {
            let k = build.allotment[id.index()];
            assert!(k >= 1 && k <= inst.procs());
            let d = inst.task(id).time(k);
            match build.class[id.index()] {
                ShelfClass::Long => assert!(d <= lambda * (1.0 + 1e-9)),
                ShelfClass::Short | ShelfClass::Small => {
                    assert!(d <= lambda / 2.0 * (1.0 + 1e-9))
                }
            }
        }
    }

    #[test]
    fn order_lists_long_then_short_then_small() {
        let inst = mixed_instance();
        let build = build_shelves(
            &inst,
            &CanonicalAllotments::new(&inst),
            trivially_feasible_lambda(&inst),
        );
        let rank = |c: ShelfClass| match c {
            ShelfClass::Long => 0,
            ShelfClass::Short => 1,
            ShelfClass::Small => 2,
        };
        let ranks: Vec<i32> = build
            .order
            .iter()
            .map(|&id| rank(build.class[id.index()]))
            .collect();
        let mut sorted = ranks.clone();
        sorted.sort_unstable();
        assert_eq!(ranks, sorted, "order must group by shelf class");
    }

    #[test]
    fn schedule_is_valid_and_short() {
        for seed in 0..8 {
            let inst = demt_workload::generate(demt_workload::WorkloadKind::Mixed, 40, 16, seed);
            let lambda = trivially_feasible_lambda(&inst);
            let build = build_shelves(&inst, &CanonicalAllotments::new(&inst), lambda);
            validate(&inst, &build.schedule).unwrap();
            // The list engine over shelf allotments stays within the
            // theoretical 3λ envelope with a wide margin in practice.
            assert!(
                build.schedule.makespan() <= 3.0 * lambda,
                "seed {seed}: makespan {} vs λ {lambda}",
                build.schedule.makespan()
            );
        }
    }

    #[test]
    #[should_panic(expected = "accepted λ")]
    fn rejected_lambda_is_refused() {
        let inst = mixed_instance();
        let _ = build_shelves(&inst, &CanonicalAllotments::new(&inst), 0.1);
    }
}
