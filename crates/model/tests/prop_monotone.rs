//! Differential tests of the deadline queries: on a task whose times
//! never rise and whose work never falls, compared as plain `f64`,
//! `min_alloc_within`, `min_area_within` and `min_area_alloc_within` are
//! binary searches, and any other vector is scanned. Either way they
//! must answer bit for bit what a whole-vector scan answers, and the
//! flag must be exactly the in-order definition.

use demt_model::{approx_le, MoldableTask, TaskId, REL_EPS};
use proptest::prelude::*;

/// The definition the flag folds: `p(k+1) ≤ p(k)` and
/// `k·p(k) ≤ (k+1)·p(k+1)` on every adjacent pair.
fn exactly_monotone(v: &[f64]) -> bool {
    v.windows(2).enumerate().all(|(i, w)| {
        let k = (i + 1) as f64;
        w[1] <= w[0] && k * w[0] <= (k + 1.0) * w[1]
    })
}

/// The first allotment meeting `t`, by scanning.
fn scan_min_alloc(v: &[f64], t: f64) -> Option<usize> {
    v.iter().position(|&p| approx_le(p, t)).map(|i| i + 1)
}

/// The least area meeting `t` and its smallest allotment, by scanning.
fn scan_min_area_alloc(v: &[f64], t: f64) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &p) in v.iter().enumerate() {
        let area = (i + 1) as f64 * p;
        if approx_le(p, t) && best.is_none_or(|(_, b)| area < b) {
            best = Some((i + 1, area));
        }
    }
    best
}

/// Around every distinct time, where `approx_le(·, t)` flips, and far
/// below and above it, the three queries equal the scans and answer
/// `Some` exactly when `min_time` meets the deadline; the flag equals
/// the definition, and the widest fastest allotment the last minimum.
fn assert_queries_match_the_scans(task: &MoldableTask) {
    let v = task.times().to_vec();
    assert_eq!(task.is_exactly_monotone(), exactly_monotone(&v), "{:?}", v);
    let fastest = v.iter().copied().fold(f64::INFINITY, f64::min);
    let widest = v.iter().rposition(|&p| p == fastest).map(|i| i + 1);
    let (k, p) = task.widest_fastest_alloc();
    assert_eq!((Some(k), p.to_bits()), (widest, fastest.to_bits()), "{v:?}");
    for &p in &v {
        let d = REL_EPS * p.max(1.0);
        let edge = p - d;
        let probes = [
            p,
            p.next_up(),
            p.next_down(),
            edge,
            edge.next_up(),
            edge.next_down(),
            p - 2.0 * d,
            p - 0.5 * d,
            p + d,
            0.5 * p,
            2.0 * p,
        ];
        for t in probes {
            // The batch loop's O(1) eligibility test.
            assert_eq!(
                approx_le(task.min_time(), t),
                task.min_alloc_within(t).is_some(),
                "{v:?} t={t}"
            );
            let area_alloc = scan_min_area_alloc(&v, t);
            assert_eq!(
                task.min_alloc_within(t),
                scan_min_alloc(&v, t),
                "{:?} t={}",
                v,
                t
            );
            assert_eq!(
                task.min_area_within(t).map(f64::to_bits),
                area_alloc.map(|(_, a)| a.to_bits()),
                "{:?} t={}",
                v,
                t
            );
            assert_eq!(
                task.min_area_alloc_within(t).map(|(k, a)| (k, a.to_bits())),
                area_alloc.map(|(k, a)| (k, a.to_bits())),
                "{:?} t={}",
                v,
                t
            );
        }
    }
}

/// An exactly monotone vector: each step keeps the time (a plateau) or
/// shrinks it by a ratio in `[k/(k+1), 1)`, then the rounding of the
/// work is repaired ulp by ulp. A first time below 1 gives sub-unit
/// times, and an empty step list `m = 1`.
fn arb_monotone() -> impl Strategy<Value = Vec<f64>> {
    (
        0.01f64..100.0,
        prop::collection::vec((any::<bool>(), 0.0f64..1.0), 0..24),
    )
        .prop_map(|(p1, steps)| {
            let mut v = vec![p1];
            for (plateau, r) in steps {
                let k = v.len() as f64;
                let prev = v[v.len() - 1];
                let mut p = if plateau {
                    prev
                } else {
                    prev * (k / (k + 1.0) + r / (k + 1.0))
                };
                while (k + 1.0) * p < k * prev {
                    p = p.next_up();
                }
                v.push(p.min(prev));
            }
            v
        })
}

fn task(v: Vec<f64>) -> MoldableTask {
    MoldableTask::new(TaskId(0), 1.0, v).unwrap()
}

#[test]
fn fixed_shapes_answer_like_the_scan() {
    // Both sides of the exact-monotony flag, each shape with its flag.
    let shapes: Vec<(Vec<f64>, bool)> = vec![
        // Plateaus, as in Cirne-shaped profiles.
        (vec![9.0, 5.0, 3.5, 3.5, 3.5, 3.0, 3.0, 3.0], true),
        // Plateaus whose work dips at k = 3.
        (vec![9.7, 5.1, 3.3, 3.3, 3.3, 2.9, 2.9, 2.9], false),
        // Strictly decreasing.
        ((1..=9).map(|k| 10.0 / k as f64 + 0.5).collect(), true),
        // Work dips at k = 3: the least area is not the first fit.
        (vec![12.0, 11.0, 2.0, 2.0], false),
        // Non-monotone: times rise again and work dips.
        (vec![12.0, 11.0, 2.0, 2.0, 5.0, 1.9, 2.1, 1.9], false),
        // The fastest time on two allotments, then a slower one.
        (vec![12.0, 2.0, 2.0, 5.0], false),
        // All equal: every allotment ties.
        (vec![0.1 + 0.2; 7], true),
        // Sub-unit times, where the tolerance floor of 1 applies.
        (vec![0.9, 0.45, 0.3, 0.3 - 1e-10, 0.2], false),
        (vec![0.75, 0.5, 0.375, 0.375 - 1e-10, 0.3125], true),
        // m = 1.
        (vec![4.5], true),
    ];
    for (times, flagged) in shapes {
        let t = task(times);
        assert_eq!(t.is_exactly_monotone(), flagged, "{:?}", t.times());
        assert_queries_match_the_scans(&t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn monotone_vectors_are_flagged_and_answer_like_the_scan(v in arb_monotone()) {
        let t = task(v);
        prop_assert!(t.is_exactly_monotone());
        prop_assert!(t.is_monotonic());
        prop_assert_eq!(t.monotonized().times(), t.times());
        assert_queries_match_the_scans(&t);
    }

    #[test]
    fn one_ulp_off_either_property_is_unflagged(
        v in arb_monotone().prop_filter("two allotments at least", |v| v.len() >= 2),
        at in any::<prop::sample::Index>(),
        work in any::<bool>(),
    ) {
        // Break the pair (k, k+1) and keep the tail flat at the new
        // time, so that pair is the only one off.
        let k = 1 + at.index(v.len() - 1);
        let prev = v[k - 1];
        let kf = k as f64;
        let p = if work {
            // The largest time whose work falls short of k·p(k).
            let mut p = prev * kf / (kf + 1.0);
            while (kf + 1.0) * p >= kf * prev {
                p = p.next_down();
            }
            p
        } else {
            prev.next_up()
        };
        let mut off = v[..k].to_vec();
        off.resize(v.len(), p);
        let t = task(off);
        prop_assert!(!t.is_exactly_monotone(), "{:?}", t.times());
        assert_queries_match_the_scans(&t);
    }

    #[test]
    fn raw_and_monotonized_vectors_answer_like_the_scan(
        raw in prop::collection::vec(0.05f64..50.0, 1..24),
    ) {
        let t = task(raw);
        let fixed = t.monotonized();
        prop_assert!(fixed.is_exactly_monotone(), "{:?}", fixed.times());
        prop_assert_eq!(fixed.monotonized().times(), fixed.times());
        assert_queries_match_the_scans(&t);
        assert_queries_match_the_scans(&fixed);
    }

    #[test]
    fn rigid_tasks_flag_like_their_materialized_vectors(
        m in 1usize..12,
        width in 1usize..12,
        time in 0.01f64..20.0,
    ) {
        let width = width.min(m);
        assert_queries_match_the_scans(&MoldableTask::rigid(TaskId(0), 1.0, width, time, m).unwrap());
    }
}
