//! Property tests on the task model: monotonization is a projection
//! onto monotonic vectors, canonical queries agree with their brute
//! definitions, and builders preserve invariants.

use demt_model::{InstanceBuilder, MoldableTask, TaskId};
use proptest::prelude::*;

fn arb_times() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.05f64..50.0, 1..24)
}

proptest! {
    #[test]
    fn monotonized_is_monotonic_and_idempotent(times in arb_times()) {
        let t = MoldableTask::new(TaskId(0), 1.0, times).unwrap();
        let m1 = t.monotonized();
        prop_assert!(m1.is_monotonic(), "{:?}", m1.monotony_violation());
        let m2 = m1.monotonized();
        prop_assert_eq!(m1.times(), m2.times(), "monotonization must be idempotent");
        // Sequential time is preserved exactly.
        prop_assert_eq!(m1.seq_time(), t.seq_time());
    }

    #[test]
    fn monotonized_never_exceeds_original_seq_bound(times in arb_times()) {
        // The projected times stay within [p(1)/k-ish floor, p(1)]:
        // below the original sequential time, and positive.
        let t = MoldableTask::new(TaskId(0), 1.0, times).unwrap();
        let m = t.monotonized();
        for k in 1..=m.max_procs() {
            prop_assert!(m.time(k) <= t.seq_time() + 1e-12);
            prop_assert!(m.time(k) > 0.0);
        }
    }

    #[test]
    fn min_alloc_agrees_with_brute_scan(times in arb_times(), frac in 0.0f64..1.2) {
        let t = MoldableTask::new(TaskId(0), 1.0, times.clone()).unwrap();
        let lo = times.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = times.iter().cloned().fold(0.0, f64::max);
        let deadline = lo + frac * (hi - lo);
        let brute = times.iter().position(|&p| p <= deadline).map(|i| i + 1);
        // The library applies a relative tolerance, so compare with the
        // strict scan only when the deadline is not razor-edge.
        if let Some(b) = brute {
            let got = t.min_alloc_within(deadline).expect("brute found one");
            prop_assert!(got <= b, "library picked a larger allotment than brute");
        }
    }

    #[test]
    fn min_area_is_minimum_of_fitting_areas(times in arb_times()) {
        let t = MoldableTask::new(TaskId(0), 1.0, times.clone()).unwrap();
        let deadline = times.iter().cloned().fold(0.0, f64::max); // everything fits
        let brute = times
            .iter()
            .enumerate()
            .map(|(i, &p)| (i + 1) as f64 * p)
            .fold(f64::INFINITY, f64::min);
        let got = t.min_area_within(deadline).expect("everything fits");
        prop_assert!((got - brute).abs() <= 1e-9 * brute.max(1.0));
        prop_assert!((t.min_work() - brute).abs() <= 1e-9 * brute.max(1.0));
    }

    #[test]
    fn instance_stats_are_consistent(seqs in prop::collection::vec(0.1f64..10.0, 1..12)) {
        let mut b = InstanceBuilder::new(4);
        for &s in &seqs {
            b.push_linear(1.0, s).unwrap();
        }
        let inst = b.build().unwrap();
        let stats = inst.stats();
        prop_assert_eq!(stats.tasks, seqs.len());
        // Linear tasks: min work = seq, min time = seq / m.
        let total: f64 = seqs.iter().sum();
        prop_assert!((stats.total_min_work - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!((stats.min_min_time - seqs.iter().cloned().fold(f64::INFINITY, f64::min) / 4.0).abs() < 1e-9);
    }
}
