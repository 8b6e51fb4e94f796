//! Fault injection on the validator: take a known-valid schedule, apply
//! a corrupting mutation, and demand rejection. This is the test that
//! keeps the "every algorithm output is re-audited" guarantee honest —
//! a validator that accepts garbage would silently void half the
//! workspace's test suite.

use demt_model::{Instance, InstanceBuilder, ProcSet, TaskId};
use demt_platform::{list_schedule, validate, ListTask, Schedule, ValidationError};
use proptest::prelude::*;

fn instance_and_schedule() -> impl Strategy<Value = (Instance, Schedule)> {
    (2usize..5, 3usize..10).prop_flat_map(|(m, n)| {
        prop::collection::vec((0.5f64..8.0, 0.0f64..1.0, 1usize..5), n..=n).prop_map(move |rows| {
            let mut b = InstanceBuilder::new(m);
            let mut list = Vec::new();
            for (i, (seq, alpha, kraw)) in rows.iter().enumerate() {
                let times = demt_workload::recursive_times_const(*seq, m, *alpha);
                b.push_times(1.0, times).unwrap();
                let k = 1 + kraw % m;
                list.push((i, k));
            }
            let inst = b.build().unwrap();
            let tasks: Vec<ListTask> = list
                .into_iter()
                .map(|(i, k)| ListTask::new(TaskId(i), k, inst.task(TaskId(i)).time(k)))
                .collect();
            let s = list_schedule(m, &tasks);
            (inst, s)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn baseline_is_valid((inst, s) in instance_and_schedule()) {
        prop_assert!(validate(&inst, &s).is_ok());
    }

    #[test]
    fn dropping_a_placement_is_caught((inst, s) in instance_and_schedule(), pick in any::<prop::sample::Index>()) {
        let mut placements = s.placements().to_vec();
        let victim = pick.index(placements.len());
        placements.remove(victim);
        let broken = Schedule::from_placements(inst.procs(), placements);
        prop_assert!(matches!(validate(&inst, &broken), Err(ValidationError::MissingTask(_))));
    }

    #[test]
    fn duplicating_a_placement_is_caught((inst, s) in instance_and_schedule(), pick in any::<prop::sample::Index>()) {
        let mut placements = s.placements().to_vec();
        let victim = pick.index(placements.len());
        placements.push(placements[victim].clone());
        let broken = Schedule::from_placements(inst.procs(), placements);
        prop_assert!(matches!(validate(&inst, &broken), Err(ValidationError::DuplicateTask(_))));
    }

    #[test]
    fn shrinking_a_duration_is_caught((inst, s) in instance_and_schedule(), pick in any::<prop::sample::Index>()) {
        let mut placements = s.placements().to_vec();
        let victim = pick.index(placements.len());
        placements[victim].duration *= 0.5;
        let broken = Schedule::from_placements(inst.procs(), placements);
        let caught = matches!(validate(&inst, &broken), Err(ValidationError::WrongDuration { .. }));
        prop_assert!(caught);
    }

    #[test]
    fn negative_start_is_caught((inst, s) in instance_and_schedule(), pick in any::<prop::sample::Index>()) {
        let mut placements = s.placements().to_vec();
        let victim = pick.index(placements.len());
        placements[victim].start = -1.0;
        let broken = Schedule::from_placements(inst.procs(), placements);
        // Either the early start itself or a conflict it causes.
        prop_assert!(validate(&inst, &broken).is_err());
    }

    #[test]
    fn out_of_range_processor_is_caught((inst, s) in instance_and_schedule(), pick in any::<prop::sample::Index>()) {
        let mut placements = s.placements().to_vec();
        let victim = pick.index(placements.len());
        let mut ids = placements[victim].procs.to_ids();
        let last = ids.len() - 1;
        ids[last] = inst.procs() as u32 + 3;
        placements[victim].procs = ProcSet::from_ids(ids);
        let broken = Schedule::from_placements(inst.procs(), placements);
        prop_assert!(matches!(validate(&inst, &broken), Err(ValidationError::BadProcessorSet(_))));
    }

    #[test]
    fn forcing_overlap_is_caught((inst, s) in instance_and_schedule(), pick in any::<prop::sample::Index>()) {
        // Move a placement on top of another task on the same processor.
        let mut placements = s.placements().to_vec();
        if placements.len() < 2 {
            return Ok(());
        }
        let a = pick.index(placements.len());
        let b = (a + 1) % placements.len();
        // Give task b the same start and one shared processor as a.
        placements[b].start = placements[a].start;
        let shared = placements[a].procs.first().unwrap();
        if !placements[b].procs.contains(shared) {
            let mut ids = placements[b].procs.to_ids();
            ids[0] = shared;
            // from_ids re-canonicalizes (sorts, dedups) the mutated list.
            placements[b].procs = ProcSet::from_ids(ids);
            // Keep the duration consistent with the (possibly changed)
            // allotment so only the overlap can be the error.
            let k = placements[b].procs.len();
            placements[b].duration = inst.task(placements[b].task).time(k);
        }
        let broken = Schedule::from_placements(inst.procs(), placements);
        let verdict = validate(&inst, &broken);
        let caught = matches!(verdict, Err(ValidationError::ProcessorConflict { .. }));
        prop_assert!(caught, "mutated schedule unexpectedly accepted: {verdict:?}");
    }
}
