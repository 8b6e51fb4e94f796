//! Knapsack dynamic programs over processor capacity.
//!
//! Two DPs are needed by the paper:
//!
//! * [`max_weight_knapsack`] — the batch-content selection of §3.2:
//!   maximize the summed weight of selected items under a processor
//!   budget, `W(i,j) = max(W(i-1,j), W(i-1,j-allotᵢ) + wᵢ)`, complexity
//!   `O(mn)` exactly as the paper states;
//! * [`min_area_partition`] — the shelf-partition step of the
//!   dual-approximation substrate [7]/[17]: every item must go to shelf 1
//!   or shelf 2 (when it has a shelf-2 option), the optional items share
//!   the shelf-1 budget the forced ones leave, and the total *area* is
//!   minimized.

/// One candidate item for [`max_weight_knapsack`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeightItem {
    /// Processor cost if selected (the paper's `allotᵢ`).
    pub procs: usize,
    /// Value collected if selected (the paper's `wᵢ`).
    pub weight: f64,
}

/// Solution of [`max_weight_knapsack`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeightSelection {
    /// Total selected weight (the largest `W(n, ·)`).
    pub total_weight: f64,
    /// Total processors used by the selection.
    pub procs_used: usize,
    /// `selected[i]` — whether item `i` is in the knapsack.
    pub selected: Vec<bool>,
}

/// 0/1 knapsack maximizing weight under a processor capacity, with exact
/// reconstruction of the chosen set. `O(n·capacity)` time and space (one
/// decision bit per DP cell).
///
/// Items with `procs == 0` are rejected by assertion: a zero-cost item
/// is always taken and callers should not emit one (the paper's
/// allotments are ≥ 1).
///
/// ```
/// use demt_kernels::{max_weight_knapsack, WeightItem};
/// let items = [
///     WeightItem { procs: 5, weight: 10.0 },
///     WeightItem { procs: 3, weight: 5.5 },
///     WeightItem { procs: 3, weight: 5.5 },
/// ];
/// let sel = max_weight_knapsack(&items, 6);
/// assert_eq!(sel.selected, vec![false, true, true]); // 11.0 beats 10.0
/// assert_eq!(sel.procs_used, 6);
/// ```
pub fn max_weight_knapsack(items: &[WeightItem], capacity: usize) -> WeightSelection {
    let n = items.len();
    for it in items {
        // demt-lint: allow(P1, documented precondition: items cost at least one processor; callers build items from allotments >= 1)
        assert!(
            it.procs >= 1,
            "knapsack items must cost at least one processor"
        );
        // demt-lint: allow(P1, documented precondition: finite weights >= 0; task weights are checked positive and finite by the model)
        assert!(
            it.weight.is_finite() && it.weight >= 0.0,
            "weights must be finite and ≥ 0"
        );
    }
    let width = capacity + 1;
    // Rolling value row + full decision matrix for reconstruction.
    let mut value = vec![0.0_f64; width];
    let mut take = vec![false; n * width];
    for (i, it) in items.iter().enumerate() {
        if it.procs > capacity {
            continue;
        }
        // Descending capacity so each item is used at most once.
        for j in (it.procs..width).rev() {
            let candidate = value[j - it.procs] + it.weight;
            if candidate > value[j] {
                value[j] = candidate;
                take[i * width + j] = true;
            }
        }
    }
    // The largest W(n, ·) sits at full capacity since values are ≥ 0 and
    // the row is non-decreasing in j.
    let mut j = capacity;
    let total_weight = value[j];
    let mut selected = vec![false; n];
    for i in (0..n).rev() {
        if take[i * width + j] {
            selected[i] = true;
            j -= items[i].procs;
        }
    }
    let procs_used = items
        .iter()
        .zip(&selected)
        .filter(|(_, &s)| s)
        .map(|(it, _)| it.procs)
        .sum();
    WeightSelection {
        total_weight,
        procs_used,
        selected,
    }
}

/// One item of the shelf partition: the shelf-1 option is mandatory to
/// describe; the shelf-2 option may be absent (task too long for the
/// half-length shelf).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShelfItem {
    /// Processors used if placed on shelf 1.
    pub procs_shelf1: usize,
    /// Area (procs × time) if placed on shelf 1.
    pub area_shelf1: f64,
    /// Shelf-2 option: `(procs, area)` if the task fits the half shelf.
    pub shelf2: Option<(usize, f64)>,
}

/// Which shelf an item was assigned to by [`min_area_partition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShelfChoice {
    /// The long shelf (length λ).
    Shelf1,
    /// The short shelf (length λ/2).
    Shelf2,
}

/// Solution of [`min_area_partition`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShelfPartition {
    /// Total area over both shelves.
    pub total_area: f64,
    /// Processors used on shelf 1.
    pub procs_shelf1: usize,
    /// Processors used on shelf 2.
    pub procs_shelf2: usize,
    /// Assignment per item.
    pub choice: Vec<ShelfChoice>,
}

/// Assigns every item to shelf 1 or shelf 2, minimizing total area
/// subject to the shelf-1 processor budget. Items without a shelf-2
/// option always go on shelf 1, even past the budget; the optional ones
/// share what the forced ones leave (`capacity.saturating_sub(forced)`).
/// Shelf 2 is *not* capacity-constrained here — the list engine that
/// places the shelves compacts what does not fit side by side.
///
/// `O(n·capacity)` time and space.
pub fn min_area_partition(items: &[ShelfItem], capacity: usize) -> ShelfPartition {
    let n = items.len();
    // Pre-commit forced items.
    let forced: usize = items
        .iter()
        .filter(|it| it.shelf2.is_none())
        .map(|it| it.procs_shelf1)
        .sum();
    let free_cap = capacity.saturating_sub(forced);
    let width = free_cap + 1;
    // DP over optional items only: value[j] = min extra area with j
    // shelf-1 processors spent on optional items; baseline is everyone
    // on shelf 2.
    let optional: Vec<(usize, &ShelfItem, f64)> = items
        .iter()
        .enumerate()
        .filter_map(|(i, it)| it.shelf2.map(|(_, a2)| (i, it, a2)))
        .collect();
    let mut value = vec![0.0_f64; width];
    let mut take = vec![false; optional.len() * width];
    let mut base_area: f64 = items
        .iter()
        .map(|it| it.shelf2.map(|(_, a)| a).unwrap_or(it.area_shelf1))
        .sum();
    for (oi, &(_, it, a2)) in optional.iter().enumerate() {
        let delta = it.area_shelf1 - a2; // extra area if moved to shelf 1
        if it.procs_shelf1 > free_cap {
            continue;
        }
        for j in (it.procs_shelf1..width).rev() {
            let candidate = value[j - it.procs_shelf1] + delta;
            if candidate < value[j] {
                value[j] = candidate;
                take[oi * width + j] = true;
            }
        }
    }
    // Pick the capacity column with the smallest total area; ties prefer
    // fewer shelf-1 processors (smaller j) to leave room for repair.
    let mut best_j = 0usize;
    for j in 1..width {
        if value[j] < value[best_j] - 1e-15 {
            best_j = j;
        }
    }
    let mut choice = vec![ShelfChoice::Shelf1; n];
    for (i, it) in items.iter().enumerate() {
        if it.shelf2.is_some() {
            choice[i] = ShelfChoice::Shelf2;
        }
    }
    let mut j = best_j;
    for oi in (0..optional.len()).rev() {
        if take[oi * width + j] {
            let (orig, it, _) = optional[oi];
            choice[orig] = ShelfChoice::Shelf1;
            j -= it.procs_shelf1;
        }
    }
    base_area += value[best_j];
    let mut procs_shelf1 = 0usize;
    let mut procs_shelf2 = 0usize;
    for (it, c) in items.iter().zip(&choice) {
        // Shelf 2 is only ever chosen for an item with a shelf-2 option.
        match (c, it.shelf2) {
            (ShelfChoice::Shelf2, Some((k2, _))) => procs_shelf2 += k2,
            _ => procs_shelf1 += it.procs_shelf1,
        }
    }
    ShelfPartition {
        total_area: base_area,
        procs_shelf1,
        procs_shelf2,
        choice,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_force_max_weight(items: &[WeightItem], capacity: usize) -> f64 {
        let n = items.len();
        let mut best = 0.0_f64;
        for mask in 0u32..(1 << n) {
            let mut procs = 0usize;
            let mut w = 0.0;
            for (i, it) in items.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    procs += it.procs;
                    w += it.weight;
                }
            }
            if procs <= capacity && w > best {
                best = w;
            }
        }
        best
    }

    #[test]
    fn knapsack_trivial_cases() {
        let empty = max_weight_knapsack(&[], 10);
        assert_eq!(empty.total_weight, 0.0);
        assert_eq!(empty.procs_used, 0);

        let one = max_weight_knapsack(
            &[WeightItem {
                procs: 3,
                weight: 5.0,
            }],
            2,
        );
        assert_eq!(
            one.total_weight, 0.0,
            "item larger than capacity is dropped"
        );
        assert_eq!(one.selected, vec![false]);
    }

    #[test]
    fn knapsack_matches_brute_force_on_fixed_instances() {
        let items = [
            WeightItem {
                procs: 2,
                weight: 3.0,
            },
            WeightItem {
                procs: 3,
                weight: 4.0,
            },
            WeightItem {
                procs: 4,
                weight: 5.0,
            },
            WeightItem {
                procs: 5,
                weight: 6.0,
            },
        ];
        for cap in 0..=14 {
            let dp = max_weight_knapsack(&items, cap);
            let bf = brute_force_max_weight(&items, cap);
            assert!(
                (dp.total_weight - bf).abs() < 1e-9,
                "cap {cap}: dp {} bf {bf}",
                dp.total_weight
            );
            // Reconstruction must be consistent.
            let w: f64 = items
                .iter()
                .zip(&dp.selected)
                .filter(|(_, &s)| s)
                .map(|(i, _)| i.weight)
                .sum();
            let p: usize = items
                .iter()
                .zip(&dp.selected)
                .filter(|(_, &s)| s)
                .map(|(i, _)| i.procs)
                .sum();
            assert!((w - dp.total_weight).abs() < 1e-9);
            assert_eq!(p, dp.procs_used);
            assert!(p <= cap);
        }
    }

    #[test]
    fn knapsack_prefers_weight_over_count() {
        let items = [
            WeightItem {
                procs: 5,
                weight: 10.0,
            },
            WeightItem {
                procs: 3,
                weight: 5.5,
            },
            WeightItem {
                procs: 3,
                weight: 5.5,
            },
        ];
        // Capacity 6: the two light items together (11.0) beat the big one.
        let sel = max_weight_knapsack(&items, 6);
        assert_eq!(sel.selected, vec![false, true, true]);
        // Capacity 5: only the big item fits for 10.0 > 5.5.
        let sel = max_weight_knapsack(&items, 5);
        assert_eq!(sel.selected, vec![true, false, false]);
    }

    #[test]
    fn partition_forces_items_without_shelf2() {
        let items = [
            ShelfItem {
                procs_shelf1: 4,
                area_shelf1: 8.0,
                shelf2: None,
            },
            ShelfItem {
                procs_shelf1: 2,
                area_shelf1: 6.0,
                shelf2: Some((4, 8.0)),
            },
        ];
        let p = min_area_partition(&items, 5);
        assert_eq!(p.choice[0], ShelfChoice::Shelf1);
        // Moving item 1 to shelf 1 costs area 6 < 8 but capacity only
        // leaves 1 processor — must stay on shelf 2.
        assert_eq!(p.choice[1], ShelfChoice::Shelf2);
        assert!((p.total_area - 16.0).abs() < 1e-9);
        assert_eq!(p.procs_shelf1, 4);
        assert_eq!(p.procs_shelf2, 4);
    }

    #[test]
    fn partition_moves_items_when_it_saves_area() {
        let items = [
            ShelfItem {
                procs_shelf1: 2,
                area_shelf1: 4.0,
                shelf2: Some((5, 10.0)),
            },
            ShelfItem {
                procs_shelf1: 2,
                area_shelf1: 9.0,
                shelf2: Some((3, 6.0)),
            },
        ];
        let p = min_area_partition(&items, 4);
        assert_eq!(p.choice[0], ShelfChoice::Shelf1, "saves 6 area units");
        assert_eq!(p.choice[1], ShelfChoice::Shelf2, "shelf 1 would waste 3");
        assert!((p.total_area - 10.0).abs() < 1e-9);
    }

    #[test]
    fn forced_items_overflowing_the_budget_leave_optional_items_on_shelf2() {
        let items = [
            ShelfItem {
                procs_shelf1: 4,
                area_shelf1: 1.0,
                shelf2: None,
            },
            ShelfItem {
                procs_shelf1: 3,
                area_shelf1: 1.0,
                shelf2: None,
            },
            ShelfItem {
                procs_shelf1: 1,
                area_shelf1: 1.0,
                shelf2: Some((2, 5.0)),
            },
        ];
        let p = min_area_partition(&items, 6);
        assert_eq!(
            p.choice,
            vec![
                ShelfChoice::Shelf1,
                ShelfChoice::Shelf1,
                ShelfChoice::Shelf2
            ]
        );
        assert_eq!(
            p.procs_shelf1, 7,
            "forced items stay on shelf 1 past the budget"
        );
        assert_eq!(p.procs_shelf2, 2);
        assert!((p.total_area - 7.0).abs() < 1e-9);
    }

    #[test]
    fn partition_of_empty_input() {
        let p = min_area_partition(&[], 8);
        assert_eq!(p.total_area, 0.0);
        assert_eq!(p.procs_shelf1 + p.procs_shelf2, 0);
    }
}
