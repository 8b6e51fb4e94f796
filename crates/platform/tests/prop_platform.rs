//! Property tests for the platform substrate: the list engine always
//! emits valid schedules, compaction never hurts, and the validator
//! accepts what the engine builds. The byte-for-byte pins against the
//! retained references live in the crate's `difftests` module.

use demt_model::{Instance, InstanceBuilder, TaskId};
use demt_platform::{list_schedule, pull_earlier, validate, Criteria, ListTask};
use proptest::prelude::*;

/// Random monotonic instance plus a per-task allotment choice.
fn arb_instance_with_allocs() -> impl Strategy<Value = (Instance, Vec<usize>)> {
    (2usize..6, 1usize..12)
        .prop_flat_map(|(m, n)| {
            let tasks = prop::collection::vec((0.5f64..10.0, 0.0f64..1.0, 0.1f64..9.9), n..=n);
            (Just(m), tasks)
        })
        .prop_map(|(m, raw)| {
            let mut b = InstanceBuilder::new(m);
            let mut allocs = Vec::new();
            for (seq, alpha, frac) in raw {
                // Build a monotonic vector via the constant-degree recursion.
                let times = demt_workload::recursive_times_const(seq, m, alpha);
                b.push_times(1.0, times).unwrap();
                allocs.push(1 + (frac * m as f64) as usize % m);
            }
            (b.build().unwrap(), allocs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn list_engine_output_is_always_valid((inst, allocs) in arb_instance_with_allocs()) {
        let tasks: Vec<ListTask> = inst
            .ids()
            .map(|id| {
                let k = allocs[id.index()].min(inst.procs()).max(1);
                ListTask::new(id, k, inst.task(id).time(k))
            })
            .collect();
        let s = list_schedule(inst.procs(), &tasks);
        prop_assert!(validate(&inst, &s).is_ok(), "{:?}", validate(&inst, &s));
    }

    #[test]
    fn greedy_never_beats_area_bound((inst, allocs) in arb_instance_with_allocs()) {
        let tasks: Vec<ListTask> = inst
            .ids()
            .map(|id| {
                let k = allocs[id.index()].min(inst.procs()).max(1);
                ListTask::new(id, k, inst.task(id).time(k))
            })
            .collect();
        let s = list_schedule(inst.procs(), &tasks);
        // Makespan is at least total-area / m and at least the longest task.
        let area: f64 = tasks.iter().map(|t| t.alloc as f64 * t.duration).sum();
        let longest = tasks.iter().map(|t| t.duration).fold(0.0, f64::max);
        let lb = (area / inst.procs() as f64).max(longest);
        prop_assert!(s.makespan() >= lb - 1e-9, "makespan {} below bound {lb}", s.makespan());
    }

    #[test]
    fn pull_earlier_preserves_validity_and_improves((inst, allocs) in arb_instance_with_allocs()) {
        let tasks: Vec<ListTask> = inst
            .ids()
            .map(|id| {
                let k = allocs[id.index()].min(inst.procs()).max(1);
                ListTask::new(id, k, inst.task(id).time(k))
            })
            .collect();
        // Build a deliberately loose schedule: everything stacked with gaps.
        let mut loose = demt_platform::Schedule::new(inst.procs());
        let mut t0 = 1.0;
        for t in &tasks {
            loose.push(demt_platform::Placement {
                task: t.id,
                start: t0,
                duration: t.duration,
                procs: (0..t.alloc as u32).collect(),
            });
            t0 += t.duration + 0.5;
        }
        prop_assert!(validate(&inst, &loose).is_ok());
        let tight = pull_earlier(&loose, None);
        prop_assert!(validate(&inst, &tight).is_ok());
        let before = Criteria::evaluate(&inst, &loose);
        let after = Criteria::evaluate(&inst, &tight);
        prop_assert!(after.makespan <= before.makespan + 1e-9);
        prop_assert!(after.weighted_completion <= before.weighted_completion + 1e-9);
        // Idempotence.
        let again = pull_earlier(&tight, None);
        prop_assert_eq!(tight, again);
    }
}

#[test]
fn greedy_handles_a_thousand_tasks() {
    // Smoke test at realistic scale: n = 1000 unit tasks on 64 procs.
    let mut b = InstanceBuilder::new(64);
    for _ in 0..1000 {
        b.push_sequential(1.0, 1.0).unwrap();
    }
    let inst = b.build().unwrap();
    let tasks: Vec<ListTask> = inst.ids().map(|id| ListTask::new(id, 1, 1.0)).collect();
    let s = list_schedule(64, &tasks);
    validate(&inst, &s).unwrap();
    assert_eq!(s.makespan(), (1000f64 / 64.0).ceil());
    assert_eq!(s.placement_of(TaskId(999)).map(|p| p.alloc()), Some(1));
}
