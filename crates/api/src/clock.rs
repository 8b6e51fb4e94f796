//! The workspace's one wall clock: the only library file that reads
//! `Instant` (the single `lint.toml [paths].timing` entry). Every timer
//! — [`ReportTimer`](crate::ReportTimer) phases, the serve stats
//! stream, replaybench's timing lines, the Figure 7 sweep — is built
//! here. Timings feed reporting fields only, never a scheduling
//! decision, so placements stay bit-reproducible.

use std::time::Instant;

/// Seconds since [`Stopwatch::start`], and a lap restarting on each read.
#[derive(Debug, Clone)]
pub struct Stopwatch {
    started: Instant,
    lap_began: Instant,
}

impl Stopwatch {
    /// Starts the clock; the first lap begins now too.
    pub fn start() -> Self {
        let now = Instant::now();
        Self {
            started: now,
            lap_began: now,
        }
    }

    /// Wall seconds since the stopwatch started.
    pub fn seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the previous lap (or the start), saturating at
    /// `u64::MAX`; the next lap begins now.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let nanos = now.duration_since(self.lap_began).as_nanos();
        self.lap_began = now;
        u64::try_from(nanos).unwrap_or(u64::MAX)
    }
}

/// Log-scale latency histogram: bucket `i` counts samples with
/// `floor(log2(nanos)) == i`, so quantiles resolve to a factor of two,
/// the honest precision for sub-microsecond decision loops.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self { buckets: [0; 64] }
    }
}

impl LatencyHistogram {
    /// Records one latency sample, `count` times.
    pub fn record(&mut self, nanos: u64, count: u64) {
        self.buckets[63 - u64::leading_zeros(nanos.max(1)) as usize] += count;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) in nanoseconds, 0 with no samples:
    /// the upper edge of the first bucket reaching `q·total` samples.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        // ceil(q * count) without round-tripping through huge floats.
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i >= 63 { u64::MAX } else { 2u64 << i };
            }
        }
        u64::MAX
    }
}

/// Per-decision latency recorder: the time since the last mark, shared
/// over the decisions it produced. Construction is the first mark.
#[derive(Debug, Clone)]
pub struct DecisionLatency {
    clock: Stopwatch,
    hist: LatencyHistogram,
}

impl Default for DecisionLatency {
    fn default() -> Self {
        Self {
            clock: Stopwatch::start(),
            hist: LatencyHistogram::default(),
        }
    }
}

impl DecisionLatency {
    /// Restarts the lap without recording.
    pub fn mark(&mut self) {
        self.clock.lap();
    }

    /// Closes the lap: `decisions` samples of one `decisions`-th of the
    /// time since the mark each. Zero decisions add no sample but still
    /// restart the lap.
    pub fn record(&mut self, decisions: u64) {
        let nanos = self.clock.lap();
        if let Some(share) = nanos.checked_div(decisions) {
            self.hist.record(share, decisions);
        }
    }

    /// Wall seconds since the recorder was created.
    pub fn seconds(&self) -> f64 {
        self.clock.seconds()
    }

    /// Decisions recorded so far (one sample each).
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// The `q`-quantile per-decision latency, microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.hist.quantile(q) as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_the_log_buckets() {
        let mut h = LatencyHistogram::default();
        for _ in 0..90 {
            h.record(1_000, 1); // bucket ⌊log2 1000⌋ = 9, upper edge 1024
        }
        for _ in 0..10 {
            h.record(1_000_000, 1); // bucket 19, upper edge 2²⁰
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), 1 << 10);
        assert_eq!(h.quantile(0.90), 1 << 10);
        assert_eq!(h.quantile(0.99), 1 << 20);
        assert_eq!(LatencyHistogram::default().quantile(0.5), 0);
    }

    #[test]
    fn recorder_shares_each_lap_over_its_decisions() {
        let spin = |ms: f64| {
            let sw = Stopwatch::start();
            while sw.seconds() < ms / 1e3 {}
        };
        let mut r = DecisionLatency::default();
        spin(50.0);
        r.record(0);
        assert_eq!(r.count(), 0, "zero decisions add no sample");
        // The zero-decision record restarted the lap: the next lap does
        // not carry the 50 ms spent before it.
        r.record(1);
        assert_eq!(r.count(), 1);
        let p50 = r.quantile_us(0.5);
        assert!(p50 < 25_000.0, "lap restarted: {p50} µs");

        // 16 decisions sharing one ≥ 80 ms lap record 16 samples of one
        // 16th each: ≥ 5 ms (bucket edge ≥ 2²³ ns), far under the whole
        // lap (whose bucket edge would be ≥ 2²⁷ ns), all in one bucket.
        let mut r = DecisionLatency::default();
        r.mark();
        spin(80.0);
        r.record(16);
        assert_eq!(r.count(), 16);
        let p50 = r.quantile_us(0.5);
        assert_eq!(p50, r.quantile_us(0.99), "one share, one bucket");
        assert!(p50 >= (1u64 << 23) as f64 / 1e3, "{p50} µs");
        assert!(p50 < (1u64 << 27) as f64 / 1e3, "{p50} µs");
        assert!(r.seconds() >= 0.08);
    }
}
