//! The host's speed, measured by a fixed reference computation.
//!
//! The benchmark shares a few cores of a host with other tenants, and
//! the host's speed moves by tens of percent over minutes: every piece
//! of code on the core slows down and speeds up together. A run
//! therefore interleaves the program's passes with blocks of a fixed
//! reference computation, owned by the benchmark and never changed by
//! the program, and divides every time it reports by how slowly the
//! reference ran in the same run. A change to the program moves its
//! passes but not the reference; a change of the host's speed moves
//! both and cancels.
//!
//! The reference mixes what the program's layers do: it parses and
//! prints floats, sorts, eliminates a dense linear system, fills a
//! knapsack table and updates an ordered map, allocating as it goes.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Reference-unit time, in nanoseconds, that counts as a host factor of
/// 1: about the median unit time measured on a 2-vCPU Intel Xeon virtual
/// machine. Reported times are in seconds of a host running at that
/// speed.
pub const NOMINAL_UNIT_NS: f64 = 140_000.0;

/// Floats in the reference's input.
const FLOATS: usize = 768;
/// Order of the dense linear system.
const ORDER: usize = 24;
/// Items and capacity of the knapsack.
const ITEMS: usize = 48;
const CAPACITY: usize = 256;
/// Keys inserted into, and half of them removed from, the ordered map.
const KEYS: usize = 256;

/// Inputs of the reference computation and the checksum every unit of
/// it must return.
pub struct Reference {
    floats: Vec<f64>,
    text: String,
    matrix: Vec<f64>,
    checksum: u64,
}

/// Time spent in reference units, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostClock {
    /// Nanoseconds spent in reference blocks.
    pub ns: u64,
    /// Units those blocks ran.
    pub units: u64,
}

impl HostClock {
    /// Mean unit time over [`NOMINAL_UNIT_NS`]: 2 means the host ran at
    /// half the nominal speed. 1 before any unit has run.
    pub fn factor(&self) -> f64 {
        if self.units == 0 {
            1.0
        } else {
            self.ns as f64 / self.units as f64 / NOMINAL_UNIT_NS
        }
    }

    /// `seconds` of wall time as seconds of a nominal host.
    pub fn normalize(&self, seconds: f64) -> f64 {
        seconds / self.factor()
    }
}

impl Reference {
    /// Builds the inputs from a fixed generator: there is no seed, so
    /// every run times the same computation.
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let floats: Vec<f64> = (0..FLOATS).map(|_| next() * 1000.0).collect();
        let text = floats
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let mut matrix: Vec<f64> = (0..ORDER * ORDER).map(|_| next()).collect();
        for i in 0..ORDER {
            matrix[i * ORDER + i] += ORDER as f64;
        }
        let mut r = Self {
            floats,
            text,
            matrix,
            checksum: 0,
        };
        r.checksum = r.unit();
        r
    }

    /// One unit of reference work (about 0.14 ms at nominal speed);
    /// returns a checksum of everything it computed.
    pub fn unit(&self) -> u64 {
        let parsed: Vec<f64> = black_box(&self.text)
            .split(',')
            .map(|s| s.parse().unwrap_or(f64::NAN))
            .collect();
        let mut sum = parsed
            .iter()
            .fold(0u64, |h, f| h.rotate_left(5) ^ f.to_bits());

        let mut printed = String::new();
        for f in &parsed[..FLOATS / 4] {
            let _ = write!(printed, "{f},");
        }
        sum ^= printed.len() as u64;

        let mut sorted = black_box(&self.floats).clone();
        sorted.sort_unstable_by(|a, b| b.total_cmp(a));
        sum = sum.wrapping_add(sorted[FLOATS / 2].to_bits());

        // Forward elimination; the matrix is diagonally dominant.
        let mut a = black_box(&self.matrix).clone();
        for k in 0..ORDER {
            let pivot = a[k * ORDER + k];
            for i in k + 1..ORDER {
                let f = a[i * ORDER + k] / pivot;
                for j in k..ORDER {
                    a[i * ORDER + j] -= f * a[k * ORDER + j];
                }
            }
        }
        sum = sum.wrapping_add(a[ORDER * ORDER - 1].to_bits());

        let mut best = vec![0.0f64; CAPACITY + 1];
        for (i, &value) in self.floats[..ITEMS].iter().enumerate() {
            let w = 1 + (self.floats[ITEMS + i] as usize) % 64;
            for c in (w..=CAPACITY).rev() {
                let take = best[c - w] + value;
                if take > best[c] {
                    best[c] = take;
                }
            }
        }
        sum = sum.wrapping_add(best[CAPACITY].to_bits());

        let mut map = BTreeMap::new();
        for (i, f) in self.floats[..KEYS].iter().enumerate() {
            map.insert(f.to_bits(), i);
        }
        for f in &self.floats[..KEYS / 2] {
            map.remove(&f.to_bits());
        }
        sum.wrapping_add(map.len() as u64)
    }

    /// Runs `units` units, adds their time to `clock`, and fails if any
    /// unit's checksum differs from the first one's.
    pub fn block(&self, units: u64, clock: &mut HostClock) -> Result<(), String> {
        let t = Instant::now();
        for _ in 0..units {
            if self.unit() != self.checksum {
                return Err("the reference computation changed its result".to_string());
            }
        }
        clock.ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        clock.units += units;
        Ok(())
    }

    /// Units that take about `seconds` at the unit time `unit_s`, at
    /// least one.
    pub fn units_for(seconds: f64, unit_s: f64) -> u64 {
        ((seconds / unit_s).ceil() as u64).max(1)
    }
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}
