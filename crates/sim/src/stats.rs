//! Ratio aggregation exactly as the paper reports it (§4.2, citing
//! Jain [15]): "the average of the competitive ratio is computed by
//! dividing the sum of the execution times over the sum of the lower
//! bounds", with per-run minima and maxima plotted alongside.

use serde::{Deserialize, Serialize};

/// Accumulates one criterion's ratio statistics over the runs of an
/// experiment point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RatioAccum {
    /// Σ over runs of the algorithm's criterion value.
    pub sum_value: f64,
    /// Σ over runs of the lower bound.
    pub sum_bound: f64,
    /// Smallest per-run ratio.
    pub min_ratio: f64,
    /// Largest per-run ratio.
    pub max_ratio: f64,
    /// Number of runs folded in.
    pub runs: usize,
}

impl Default for RatioAccum {
    fn default() -> Self {
        Self {
            sum_value: 0.0,
            sum_bound: 0.0,
            min_ratio: f64::INFINITY,
            max_ratio: 0.0,
            runs: 0,
        }
    }
}

impl RatioAccum {
    /// Folds one run's `(value, bound)` pair in. Bounds must be
    /// positive — the harness guarantees this (instances are non-empty).
    pub fn push(&mut self, value: f64, bound: f64) {
        // demt-lint: allow(P1, documented precondition: positive bounds and finite values; the harness runs non-empty instances)
        assert!(
            bound > 0.0 && value.is_finite(),
            "bad ratio inputs {value}/{bound}"
        );
        self.sum_value += value;
        self.sum_bound += bound;
        let r = value / bound;
        self.min_ratio = self.min_ratio.min(r);
        self.max_ratio = self.max_ratio.max(r);
        self.runs += 1;
    }

    /// The paper's average ratio: ratio of sums.
    pub fn average(&self) -> f64 {
        // demt-lint: allow(P1, documented precondition: at least one run; the harness averages only after its runs)
        assert!(self.runs > 0, "average of an empty accumulator");
        self.sum_value / self.sum_bound
    }

    /// Merges another accumulator (used by the parallel runner).
    pub fn merge(&mut self, other: &RatioAccum) {
        self.sum_value += other.sum_value;
        self.sum_bound += other.sum_bound;
        self.min_ratio = self.min_ratio.min(other.min_ratio);
        self.max_ratio = self.max_ratio.max(other.max_ratio);
        self.runs += other.runs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_of_sums_not_mean_of_ratios() {
        let mut a = RatioAccum::default();
        a.push(2.0, 1.0); // ratio 2
        a.push(30.0, 10.0); // ratio 3
                            // Mean of ratios would be 2.5; ratio of sums is 32/11.
        assert!((a.average() - 32.0 / 11.0).abs() < 1e-12);
        assert_eq!(a.min_ratio, 2.0);
        assert_eq!(a.max_ratio, 3.0);
        assert_eq!(a.runs, 2);
    }

    #[test]
    fn merge_is_equivalent_to_sequential_pushes() {
        let mut a = RatioAccum::default();
        a.push(2.0, 1.0);
        let mut b = RatioAccum::default();
        b.push(30.0, 10.0);
        let mut merged = a;
        merged.merge(&b);
        let mut seq = RatioAccum::default();
        seq.push(2.0, 1.0);
        seq.push(30.0, 10.0);
        assert_eq!(merged, seq);
    }

    #[test]
    #[should_panic(expected = "bad ratio inputs")]
    fn rejects_zero_bound() {
        RatioAccum::default().push(1.0, 0.0);
    }
}
