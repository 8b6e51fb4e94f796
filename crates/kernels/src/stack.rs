//! Stacking ("merging") of small sequential tasks (paper §3.2).
//!
//! Tasks that run in at most half the batch length on a single processor
//! are chained back-to-back on one processor so that the knapsack sees a
//! single allocation-1 item carrying the *sum* of their weights. The
//! paper merges "by decreasing weight order, in order to have as much
//! weight as possible" — implemented here as first-fit decreasing-weight
//! packing into chains bounded by the batch length.

/// A candidate for stacking: sequential running time and weight, plus an
/// opaque handle the caller uses to map members back to tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StackItem<H> {
    /// Caller's handle (e.g. a task id).
    pub handle: H,
    /// Sequential processing time of the task.
    pub len: f64,
    /// Task weight.
    pub weight: f64,
}

/// A chain of stacked tasks occupying one processor for `total_len`.
#[derive(Debug, Clone, PartialEq)]
pub struct Chain<H> {
    /// Members in execution order (heaviest first).
    pub members: Vec<StackItem<H>>,
    /// Sum of member lengths; never exceeds the chain capacity.
    pub total_len: f64,
    /// Sum of member weights (the knapsack value of the chain).
    pub total_weight: f64,
}

/// Packs items into chains of length at most `max_len` using first-fit
/// on items sorted by decreasing weight (ties broken by decreasing
/// length so heavy-and-long items claim space first).
///
/// Every item must individually fit (`len ≤ max_len`); the paper
/// guarantees this by only merging tasks with `pᵢ(1) ≤ t_j / 2 ≤ t_j`.
pub fn pack_chains<H: Copy>(items: &[StackItem<H>], max_len: f64) -> Vec<Chain<H>> {
    // demt-lint: allow(P1, documented precondition: a finite positive chain length; callers pass a batch length t_j > 0)
    assert!(max_len > 0.0 && max_len.is_finite());
    for it in items {
        // demt-lint: allow(P1, documented precondition: every item fits a chain; the paper only merges tasks with p(1) <= t_j / 2)
        assert!(
            it.len > 0.0 && it.len <= max_len * (1.0 + 1e-12),
            "stack item longer than the chain capacity"
        );
    }
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        items[b]
            .weight
            .total_cmp(&items[a].weight)
            .then(items[b].len.total_cmp(&items[a].len))
    });
    let mut chains: Vec<Chain<H>> = Vec::new();
    for idx in order {
        let it = items[idx];
        // First-fit: the first chain with room takes the item.
        match chains
            .iter_mut()
            .find(|c| c.total_len + it.len <= max_len * (1.0 + 1e-12))
        {
            Some(c) => {
                c.members.push(it);
                c.total_len += it.len;
                c.total_weight += it.weight;
            }
            None => chains.push(Chain {
                members: vec![it],
                total_len: it.len,
                total_weight: it.weight,
            }),
        }
    }
    chains
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(handle: usize, len: f64, weight: f64) -> StackItem<usize> {
        StackItem {
            handle,
            len,
            weight,
        }
    }

    #[test]
    fn empty_input_gives_no_chain() {
        assert!(pack_chains::<usize>(&[], 4.0).is_empty());
    }

    #[test]
    fn single_chain_when_everything_fits() {
        let chains = pack_chains(&[item(0, 1.0, 1.0), item(1, 2.0, 2.0)], 4.0);
        assert_eq!(chains.len(), 1);
        assert!((chains[0].total_len - 3.0).abs() < 1e-12);
        assert!((chains[0].total_weight - 3.0).abs() < 1e-12);
    }

    #[test]
    fn heaviest_items_are_packed_first() {
        // Capacity 3: the weight-5 item (len 3) fills chain 0 alone; the
        // two weight-1 items go to a second chain.
        let chains = pack_chains(
            &[item(0, 1.0, 1.0), item(1, 3.0, 5.0), item(2, 1.0, 1.0)],
            3.0,
        );
        assert_eq!(chains.len(), 2);
        assert_eq!(chains[0].members[0].handle, 1);
        assert!((chains[0].total_weight - 5.0).abs() < 1e-12);
        assert_eq!(chains[1].members.len(), 2);
    }

    #[test]
    fn chains_never_exceed_capacity_and_lose_no_item() {
        let items: Vec<_> = (0..50)
            .map(|i| item(i, 0.3 + (i % 7) as f64 * 0.35, (i % 5) as f64 + 1.0))
            .collect();
        let cap = 2.5;
        let chains = pack_chains(&items, cap);
        let mut seen = vec![false; items.len()];
        for c in &chains {
            assert!(c.total_len <= cap + 1e-9);
            let len: f64 = c.members.iter().map(|m| m.len).sum();
            let w: f64 = c.members.iter().map(|m| m.weight).sum();
            assert!((len - c.total_len).abs() < 1e-9);
            assert!((w - c.total_weight).abs() < 1e-9);
            for m in &c.members {
                assert!(!seen[m.handle], "item packed twice");
                seen[m.handle] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "item dropped");
    }

    #[test]
    fn chain_weight_is_decreasing_within_members() {
        let chains = pack_chains(
            &[item(0, 1.0, 2.0), item(1, 1.0, 9.0), item(2, 1.0, 5.0)],
            3.0,
        );
        assert_eq!(chains.len(), 1);
        let ws: Vec<f64> = chains[0].members.iter().map(|m| m.weight).collect();
        assert_eq!(ws, vec![9.0, 5.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "longer than the chain capacity")]
    fn oversized_item_is_rejected() {
        let _ = pack_chains(&[item(0, 5.0, 1.0)], 4.0);
    }
}
