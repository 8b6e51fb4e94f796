//! Rolling daemon statistics: throughput, decision-latency percentiles
//! (timed by [`demt_api::clock::DecisionLatency`], feeding this stream
//! only, never a scheduling decision), machine utilization.

use demt_api::clock::DecisionLatency;
use serde::{Deserialize, Serialize};

/// One stats snapshot, emitted as a JSON line on the stats stream.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Events consumed so far.
    pub events: u64,
    /// Placements emitted so far.
    pub decisions: u64,
    /// Batches planned so far.
    pub batches: u64,
    /// Wall seconds since the daemon started.
    pub wall_seconds: f64,
    /// Decisions per wall second since start.
    pub throughput: f64,
    /// Median per-decision planning latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-decision planning latency, microseconds.
    pub p99_us: f64,
    /// Busy processor-seconds over `m ×` the virtual schedule horizon.
    pub utilization: f64,
}

/// Rolling daemon counters. The scheduling loop reports events, batch
/// timings, and placement areas; this struct owns the latency recorder
/// so the loop itself stays clock-free.
#[derive(Debug)]
pub struct ServeStats {
    procs: usize,
    latency: DecisionLatency,
    events: u64,
    batches: u64,
    busy_area: f64,
}

impl ServeStats {
    /// Fresh counters for an `m`-processor daemon; the wall clock
    /// starts now.
    pub fn new(procs: usize) -> Self {
        Self {
            procs,
            latency: DecisionLatency::default(),
            events: 0,
            batches: 0,
            busy_area: 0.0,
        }
    }

    /// One event consumed.
    pub fn event(&mut self) {
        self.events += 1;
    }

    /// A planning pass is starting.
    pub fn batch_starts(&mut self) {
        self.latency.mark();
    }

    /// A planning pass emitted `emitted` placements covering
    /// `busy_area` processor-seconds. The time since the last mark
    /// (`batch_starts`, else the previous pass, else `new`) is recorded
    /// as `emitted` per-decision shares; an empty pass is not counted.
    pub fn batch_done(&mut self, emitted: usize, busy_area: f64) {
        self.latency.record(emitted as u64);
        if emitted > 0 {
            self.batches += 1;
            self.busy_area += busy_area;
        }
    }

    /// Placements emitted so far (one latency sample each).
    pub fn decisions(&self) -> u64 {
        self.latency.count()
    }

    /// A snapshot of every rolling metric; `horizon` is the daemon's
    /// current virtual time (the utilization denominator).
    pub fn snapshot(&self, horizon: f64) -> StatsSnapshot {
        let wall = self.latency.seconds();
        let decisions = self.decisions();
        let denom = self.procs as f64 * horizon;
        StatsSnapshot {
            events: self.events,
            decisions,
            batches: self.batches,
            wall_seconds: wall,
            throughput: if wall > 0.0 {
                decisions as f64 / wall
            } else {
                0.0
            },
            p50_us: self.latency.quantile_us(0.50),
            p99_us: self.latency.quantile_us(0.99),
            utilization: if denom > 0.0 {
                self.busy_area / denom
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_aggregate_batches_into_decisions() {
        let mut s = ServeStats::new(8);
        s.event();
        s.event();
        s.batch_starts();
        s.batch_done(2, 8.0);
        let snap = s.snapshot(2.0);
        assert_eq!(snap.events, 2);
        assert_eq!(snap.decisions, 2);
        assert_eq!(snap.batches, 1);
        assert!((snap.utilization - 0.5).abs() < 1e-12);
        assert!(snap.p99_us >= snap.p50_us);
    }

    #[test]
    fn a_pass_without_batch_starts_is_timed_from_the_last_mark() {
        let mut s = ServeStats::new(4);
        std::thread::sleep(std::time::Duration::from_millis(3));
        s.batch_done(1, 1.0);
        let snap = s.snapshot(1.0);
        assert_eq!(snap.decisions, 1);
        assert!(
            snap.p50_us >= 2_000.0,
            "timed since new: {} µs",
            snap.p50_us
        );
    }
}
