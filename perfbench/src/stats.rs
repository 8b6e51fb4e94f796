//! Exact-sample latency percentiles.
//!
//! Every latency sample of a run is kept (one `u64` of nanoseconds per
//! op) and the percentiles are read off the sorted samples by the
//! nearest-rank rule, so a change of any size moves them; a log-bucket
//! histogram would round every sample to a power of two.

/// Fewest ops a run may report percentiles over: with 1000 samples the
/// nearest-rank p99 still has ten samples above it.
pub const MIN_OPS: usize = 1000;

/// The 1-based nearest rank of percentile `pct` among `n` samples:
/// `⌈pct·n/100⌉`, at least 1.
pub fn nearest_rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).max(1)
}

/// The `pct`-th percentile of ascending `sorted` samples by the
/// nearest-rank rule.
pub fn percentile(sorted: &[u64], pct: u32) -> u64 {
    sorted[nearest_rank(sorted.len(), pct).min(sorted.len()) - 1]
}

/// Median and 99th percentile of one run's per-op latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Samples the percentiles were read from.
    pub samples: usize,
    /// Median latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_ns: u64,
}

/// Sorts the samples and reads p50 and p99; refuses fewer than
/// [`MIN_OPS`] samples, whose p99 would rest on under ten samples.
pub fn percentiles(samples: &mut [u64]) -> Result<Percentiles, String> {
    if samples.len() < MIN_OPS {
        return Err(format!(
            "{} latency samples, at least {MIN_OPS} are needed for a p99",
            samples.len()
        ));
    }
    samples.sort_unstable();
    Ok(Percentiles {
        samples: samples.len(),
        p50_ns: percentile(samples, 50),
        p99_ns: percentile(samples, 99),
    })
}

/// Median of a non-empty list of seconds.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}
