//! Configuration of the DEMT algorithm, including the ablation switches
//! for the design choices called out in DESIGN.md.

use demt_dual::DualConfig;

/// Which compaction pipeline to run after the batches are placed
/// (§3.2's successive improvements).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compaction {
    /// Keep the raw batched schedule ("we start all the selected tasks
    /// of one batch at the same time").
    None,
    /// Also slide tasks left while their own processors are idle
    /// ("a straightforward improvement…").
    PullEarlier,
    /// Also re-run the Graham list engine with the batch ordering
    /// ("a further improvement is to use a list algorithm…"). The
    /// order is scored on its completions; its schedule is built only
    /// if it beats the pulled-earlier one.
    List,
    /// Also shuffle the batch order several times and keep the best
    /// compact schedule ("an additional optimization step…"). Every
    /// order is scored on its completions and only the best is built.
    ListShuffle,
}

/// DEMT configuration: the dual-approximation tolerance and the three
/// ablation switches of `repro ablation`. `Default` reproduces the
/// paper's algorithm. The rest of the pipeline is fixed: entries inside
/// a batch go by decreasing weight / area, and the shuffle permutations
/// use one constant seed, so every run is deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemtConfig {
    /// Dual-approximation settings for the `C*max` estimate.
    pub dual: DualConfig,
    /// Merge small sequential tasks into chains before the knapsack
    /// (§3.2; ablation switch).
    pub merge_small: bool,
    /// Compaction pipeline depth.
    pub compaction: Compaction,
    /// Number of random batch-order shuffles tried in
    /// [`Compaction::ListShuffle`] ("shuffled several times").
    pub shuffles: usize,
}

impl Default for DemtConfig {
    fn default() -> Self {
        Self {
            dual: DualConfig::default(),
            merge_small: true,
            compaction: Compaction::ListShuffle,
            shuffles: 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_paper_pipeline() {
        let c = DemtConfig::default();
        assert!(c.merge_small);
        assert_eq!(c.compaction, Compaction::ListShuffle);
        assert!(c.shuffles > 0);
    }
}
