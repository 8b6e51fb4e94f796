//! ProcSet algebra against a `BTreeSet` reference on random id sets:
//! union/intersect agree element-wise, `take_k_lowest` splits are
//! exact partitions, iteration is sorted, the canonical form (sorted,
//! disjoint, non-adjacent) survives every operation, and serde
//! round-trips through the plain id-array wire form byte-for-byte.
//!
//! The ProcSet-backed engines are pinned against the `Vec` bookkeeping
//! references by the `difftests` modules of `demt-platform` and
//! `demt-frontend`.

use demt_model::ProcSet;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Random id set in a small universe (tight ids force adjacent-range
/// coalescing; the algebra is id-value agnostic beyond that).
fn arb_ids() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..48, 0..24)
}

/// Canonical-form invariant: sorted, disjoint, non-adjacent, non-empty
/// ranges — the representation every operation must preserve.
fn assert_canonical(s: &ProcSet) {
    for w in s.ranges().windows(2) {
        assert!(
            w[0].1 + 1 < w[1].0,
            "ranges out of order or adjacent: {s:?}"
        );
    }
    for &(lo, hi) in s.ranges() {
        assert!(lo <= hi, "inverted range in {s:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn set_algebra_matches_btreeset(a in arb_ids(), b in arb_ids()) {
        let (sa, sb) = (ProcSet::from_ids(a.iter().copied()), ProcSet::from_ids(b.iter().copied()));
        let (ra, rb): (BTreeSet<u32>, BTreeSet<u32>) = (a.into_iter().collect(), b.into_iter().collect());
        for (got, want) in [
            (sa.union(&sb), ra.union(&rb).copied().collect::<Vec<u32>>()),
            (sa.intersect(&sb), ra.intersection(&rb).copied().collect()),
        ] {
            assert_canonical(&got);
            prop_assert_eq!(got.to_ids(), want);
        }
        // In-place union agrees with the pure one.
        let mut acc = sa.clone();
        acc.union_with(&sb);
        prop_assert_eq!(acc, sa.union(&sb));
        // Cardinality, membership, ordering.
        prop_assert_eq!(sa.len(), ra.len());
        prop_assert_eq!(sa.iter().collect::<Vec<u32>>(), ra.iter().copied().collect::<Vec<u32>>());
        for q in 0..50u32 {
            prop_assert_eq!(sa.contains(q), ra.contains(&q));
        }
    }

    #[test]
    fn take_k_lowest_is_an_exact_partition(ids in arb_ids(), k in 0usize..30) {
        let full = ProcSet::from_ids(ids.iter().copied());
        let mut rest = full.clone();
        match rest.take_k_lowest(k) {
            None => {
                prop_assert!(k > full.len(), "refused a satisfiable take");
                prop_assert_eq!(rest, full, "failed take must not disturb the set");
            }
            Some(taken) => {
                assert_canonical(&taken);
                assert_canonical(&rest);
                prop_assert_eq!(taken.len(), k);
                prop_assert!(taken.intersect(&rest).is_empty(), "overlapping split");
                prop_assert_eq!(taken.union(&rest), full.clone(), "lossy split");
                // Exactly the k lowest ids.
                let lowest: Vec<u32> = full.iter().take(k).collect();
                prop_assert_eq!(taken.to_ids(), lowest);
            }
        }
    }

    #[test]
    fn serde_wire_form_is_the_plain_id_array(ids in arb_ids()) {
        let s = ProcSet::from_ids(ids.iter().copied());
        let as_vec: Vec<u32> = s.to_ids();
        let bytes = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(&bytes, &serde_json::to_string(&as_vec).unwrap());
        let back: ProcSet = serde_json::from_str(&bytes).unwrap();
        prop_assert_eq!(back, s);
    }
}
