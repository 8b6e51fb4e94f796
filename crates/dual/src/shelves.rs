//! Two-shelf construction at a target λ.
//!
//! Following the structure of [17]/[7]: tasks are split into *small*
//! tasks (sequential time ≤ λ/2, kept aside and later list-scheduled on
//! single processors), and *big* tasks assigned by a min-area knapsack
//! to the long shelf (length λ, minimal-area allotment fitting λ) or the
//! short shelf (length λ/2, minimal-area allotment fitting λ/2). The
//! shelf assignment fixes every task's allotment and a canonical list
//! order — long shelf, then short shelf, then small tasks — which is
//! exactly the first "List Graham" ordering of §4.1. The actual schedule
//! is produced by the Graham list engine, which compacts the shelves.
//!
//! The construction is total in λ > 0 and never re-runs the oracle. A
//! task that fits no allotment within λ takes its fastest one on the long
//! shelf, and long-shelf tasks that overflow `m` (possible off the
//! monotone model, where the least-area allotment is wider than the
//! oracle's fewest processors) are serialized by the list engine.

use demt_kernels::{min_area_partition, ShelfChoice, ShelfItem};
use demt_model::{Instance, TaskId};
use demt_platform::{list_schedule, ListTask, Schedule};

/// Which structural class a task landed in at the accepted λ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShelfClass {
    /// Long shelf (duration in (λ/2, λ] at its allotment, or the task's
    /// fastest duration when none fits λ).
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

/// Builds the two-shelf structure and its compacted schedule at any
/// λ > 0, reading every allotment from the tasks' own queries.
pub(crate) fn build_shelves(inst: &Instance, lambda: f64) -> ShelfBuild {
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
        // The least area meeting λ, or when none does the fastest
        // allotment, the widest on time ties: `(m, m·p(m))` on a
        // nonincreasing vector.
        let (k1, a1) = t.min_area_alloc_within(lambda).unwrap_or_else(|| {
            let (k, p) = t.widest_fastest_alloc();
            (k, k as f64 * p)
        });
        big_ids.push(t.id());
        items.push(ShelfItem {
            procs_shelf1: k1,
            area_shelf1: a1,
            shelf2: t.min_area_alloc_within(half),
        });
    }

    let partition = min_area_partition(&items, inst.procs());
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
    use proptest::prelude::*;

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
        let build = build_shelves(&inst, lambda);
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
        let build = build_shelves(&inst, trivially_feasible_lambda(&inst));
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
            let build = build_shelves(&inst, lambda);
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

    /// Two tasks whose least-area allotment within λ ≈ 10 is 3 of the 5
    /// processors while the oracle counts their fewest processors, 2:
    /// the oracle accepts λ, yet the forced long-shelf tasks need 6.
    fn wide_least_area_instance() -> Instance {
        let mut b = InstanceBuilder::new(5);
        for _ in 0..2 {
            b.push_times(1.0, vec![100.0, 10.0, 6.0, 6.0, 6.0]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn forced_long_shelf_tasks_past_m_are_serialized() {
        let inst = wide_least_area_instance();
        assert_eq!(crate::check_lambda(&inst, 10.0), None);
        let build = build_shelves(&inst, 10.0);
        assert_eq!(build.allotment, vec![3, 3]);
        assert_eq!(build.class, vec![ShelfClass::Long; 2]);
        validate(&inst, &build.schedule).unwrap();
        assert_eq!(build.schedule.makespan(), 12.0);
    }

    #[test]
    fn a_lambda_below_every_time_takes_the_fastest_allotments() {
        let inst = mixed_instance();
        // No task fits 0.1, so all four are long-shelf tasks at their
        // shortest time; the flat sequential profiles tie on every
        // allotment and take the widest.
        let build = build_shelves(&inst, 0.1);
        assert_eq!(build.allotment, vec![4, 4, 4, 4]);
        assert_eq!(build.class, vec![ShelfClass::Long; 4]);
        validate(&inst, &build.schedule).unwrap();
    }

    #[test]
    fn the_fastest_fallback_takes_the_widest_tie_off_the_monotone_model() {
        // The fastest time, 2, sits on allotments 2 and 3 of an
        // unflagged vector: below every time the shelf-1 fallback takes
        // 3, not `fastest_alloc`'s 2 nor the last allotment.
        let mut b = InstanceBuilder::new(4);
        b.push_times(1.0, vec![12.0, 2.0, 2.0, 5.0]).unwrap();
        let inst = b.build().unwrap();
        assert!(!inst.tasks()[0].is_exactly_monotone());
        assert_eq!(inst.tasks()[0].fastest_alloc(), (2, 2.0));
        let build = build_shelves(&inst, 1.0);
        assert_eq!(build.allotment, vec![3]);
        assert_eq!(build.class, vec![ShelfClass::Long]);
        validate(&inst, &build.schedule).unwrap();
    }

    fn any_instance() -> impl Strategy<Value = Instance> {
        (1usize..7).prop_flat_map(|m| {
            prop::collection::vec(prop::collection::vec(0.05f64..50.0, m), 1..9).prop_map(
                move |tasks| {
                    let mut b = InstanceBuilder::new(m);
                    for times in tasks {
                        b.push_times(1.0, times).unwrap();
                    }
                    b.build().unwrap()
                },
            )
        })
    }

    /// `inst` with every task monotonized, so exactly monotone.
    fn monotonized(inst: &Instance) -> Instance {
        let mut b = InstanceBuilder::new(inst.procs());
        for t in inst.tasks() {
            b.push_times(t.weight(), t.monotonized().times().to_vec())
                .unwrap();
        }
        b.build().unwrap()
    }

    proptest! {
        #[test]
        fn any_lambda_yields_a_valid_schedule(
            raw in any_instance(),
            lambda in 0.01f64..120.0,
        ) {
            // Raw vectors mostly scan, monotonized ones answer by
            // binary search.
            for inst in [monotonized(&raw), raw] {
                let build = build_shelves(&inst, lambda);
                prop_assert!(validate(&inst, &build.schedule).is_ok());
                let mut ids = build.order.clone();
                ids.sort_unstable();
                prop_assert_eq!(ids, inst.ids().collect::<Vec<_>>());
            }
        }
    }
}
