//! Property tests: the knapsack DPs agree with brute force on all small
//! instances, and structural invariants hold on every output.

use demt_kernels::{
    max_weight_knapsack, min_area_partition, pack_chains, ShelfChoice, ShelfItem, StackItem,
    WeightItem,
};
use proptest::prelude::*;

fn weight_items() -> impl Strategy<Value = Vec<WeightItem>> {
    prop::collection::vec(
        (1usize..8, 0.0f64..20.0).prop_map(|(procs, weight)| WeightItem { procs, weight }),
        0..10,
    )
}

fn brute_force_weight(items: &[WeightItem], cap: usize) -> f64 {
    let mut best = 0.0f64;
    for mask in 0u32..(1 << items.len()) {
        let mut procs = 0;
        let mut w = 0.0;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                procs += it.procs;
                w += it.weight;
            }
        }
        if procs <= cap && w > best {
            best = w;
        }
    }
    best
}

proptest! {
    #[test]
    fn knapsack_is_optimal(items in weight_items(), cap in 0usize..20) {
        let dp = max_weight_knapsack(&items, cap);
        let bf = brute_force_weight(&items, cap);
        prop_assert!((dp.total_weight - bf).abs() < 1e-9,
            "dp {} vs brute force {bf}", dp.total_weight);
    }

    #[test]
    fn knapsack_selection_is_consistent(items in weight_items(), cap in 0usize..20) {
        let dp = max_weight_knapsack(&items, cap);
        let procs: usize = items.iter().zip(&dp.selected).filter(|(_, &s)| s).map(|(i, _)| i.procs).sum();
        let weight: f64 = items.iter().zip(&dp.selected).filter(|(_, &s)| s).map(|(i, _)| i.weight).sum();
        prop_assert!(procs <= cap);
        prop_assert_eq!(procs, dp.procs_used);
        prop_assert!((weight - dp.total_weight).abs() < 1e-9);
    }
}

fn shelf_items() -> impl Strategy<Value = Vec<ShelfItem>> {
    prop::collection::vec(
        (
            1usize..6,
            0.5f64..20.0,
            prop::option::of((1usize..6, 0.5f64..20.0)),
        )
            .prop_map(|(p1, a1, s2)| ShelfItem {
                procs_shelf1: p1,
                area_shelf1: a1,
                shelf2: s2,
            }),
        0..9,
    )
}

/// Smallest area over every assignment of the total contract: items
/// without a shelf-2 option on shelf 1, and the optional items on shelf 1
/// within what the forced ones leave of the budget. That set always holds
/// the all-optional-on-shelf-2 assignment, so the minimum exists.
fn brute_force_partition(items: &[ShelfItem], cap: usize) -> f64 {
    let n = items.len();
    let forced: usize = items
        .iter()
        .filter(|it| it.shelf2.is_none())
        .map(|it| it.procs_shelf1)
        .sum();
    let mut best = f64::INFINITY;
    'mask: for mask in 0u32..(1 << n) {
        // bit set = shelf 1.
        let mut procs1 = 0;
        let mut area = 0.0;
        for (i, it) in items.iter().enumerate() {
            if mask & (1 << i) != 0 {
                procs1 += it.procs_shelf1;
                area += it.area_shelf1;
            } else {
                match it.shelf2 {
                    Some((_, a2)) => area += a2,
                    None => continue 'mask, // shelf 2 impossible
                }
            }
        }
        if procs1 - forced <= cap.saturating_sub(forced) && area < best {
            best = area;
        }
    }
    best
}

proptest! {
    #[test]
    fn shelf_partition_is_optimal(items in shelf_items(), cap in 0usize..16) {
        let p = min_area_partition(&items, cap);
        let bf = brute_force_partition(&items, cap);
        prop_assert!((p.total_area - bf).abs() < 1e-9,
            "dp {} vs brute force {bf}", p.total_area);
    }

    #[test]
    fn shelf_partition_respects_capacity_and_choices(items in shelf_items(), cap in 0usize..16) {
        let p = min_area_partition(&items, cap);
        let (mut forced, mut optional1, mut procs2) = (0, 0, 0);
        for (it, &c) in items.iter().zip(&p.choice) {
            match (c, it.shelf2) {
                (ShelfChoice::Shelf1, None) => forced += it.procs_shelf1,
                (ShelfChoice::Shelf1, Some(_)) => optional1 += it.procs_shelf1,
                (ShelfChoice::Shelf2, Some((k2, _))) => procs2 += k2,
                (ShelfChoice::Shelf2, None) => prop_assert!(false, "forced item on shelf 2"),
            }
        }
        prop_assert!(optional1 <= cap.saturating_sub(forced));
        prop_assert_eq!(forced + optional1, p.procs_shelf1);
        prop_assert_eq!(procs2, p.procs_shelf2);
    }
}

proptest! {
    #[test]
    fn chains_partition_the_items(lens in prop::collection::vec(0.1f64..1.0, 0..30), cap in 1.0f64..4.0) {
        let items: Vec<StackItem<usize>> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| StackItem { handle: i, len: l, weight: (i % 4) as f64 + 0.5 })
            .collect();
        let chains = pack_chains(&items, cap);
        let mut seen = vec![false; items.len()];
        for c in &chains {
            prop_assert!(c.total_len <= cap + 1e-9);
            for m in &c.members {
                prop_assert!(!seen[m.handle]);
                seen[m.handle] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
        // First-fit decreasing never opens more chains than items.
        prop_assert!(chains.len() <= items.len());
    }
}
