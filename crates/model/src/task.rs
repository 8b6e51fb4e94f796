//! Moldable task: processing-time vector, weight, canonical queries.

use crate::{approx_le, ModelError};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// Identifier of a task inside an [`crate::Instance`].
///
/// Ids are dense indices `0..n` so that algorithm crates can use them to
/// index side arrays directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The id as a plain index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Storage of a processing-time vector: the general explicit form, or
/// the compact two-number form for rigid jobs.
///
/// The compact form is what lets an on-line feed of rigid jobs run in
/// `O(1)` per submit at cluster scale: [`MoldableTask::rigid`] used to
/// materialize an `m`-entry vector (80 KB per job at `m = 10⁴`, the
/// dominant cost of the serve daemon's event loop), yet every entry is
/// one of two values determined by the rigid width. Queries compute
/// those values on demand, the deadline queries included; the few
/// callers that genuinely need a `&[f64]` (serialization,
/// [`MoldableTask::monotonized`], tests) get one from a lazy per-task
/// cache, so the slow path stays available without taxing the fast one.
#[derive(Debug, Clone)]
enum Times {
    /// Full vector: `v[k-1]` is the execution time on `k` processors.
    /// The two minima are folded once, when the vector is built, so
    /// [`MoldableTask::min_time`]/[`MoldableTask::min_work`] are `O(1)`.
    Explicit {
        v: Box<[f64]>,
        /// `min_k p(k)`.
        min_time: f64,
        /// `min_k k·p(k)`.
        min_work: f64,
        /// `p(k+1) ≤ p(k)` and `k·p(k) ≤ (k+1)·p(k+1)` for every `k`, as
        /// plain `f64` compares on the products the queries compute.
        monotone: bool,
    },
    /// Rigid emulation over `len` processors: `seq = time·width` below
    /// `width` (so no scheduler ever prefers a smaller allotment),
    /// `time` at and above. Bitwise identical to the vector
    /// [`MoldableTask::rigid`] historically built.
    Rigid {
        width: usize,
        time: f64,
        seq: f64,
        len: usize,
        /// Materialized vector, built on first [`MoldableTask::times`].
        cache: OnceLock<Box<[f64]>>,
    },
}

/// `t > 0` and finite, as one integer compare: the positive finite
/// doubles are exactly the bit patterns `1..INFINITY.to_bits()` (a sign
/// bit, a NaN or an infinity lands at or above the bound, and `+0`
/// wraps to `u64::MAX`).
#[inline]
fn positive_finite(t: f64) -> bool {
    t.to_bits().wrapping_sub(1) < f64::INFINITY.to_bits() - 1
}

impl Times {
    /// The explicit form of `v`. `min_time`, `min_work` and the exact
    /// monotony flag are folded in the same pass that checks each entry
    /// is positive and finite; the 0-based index of the first entry that
    /// is not comes back beside it (the folds are then meaningless).
    fn explicit(v: Vec<f64>) -> (Self, Option<usize>) {
        // Lane `l` folds the entries `i ≡ l (mod LANES)` and validity and
        // monotony are tallied without a branch, so the pass runs as
        // independent chains, not one serial chain of compares and exits
        // (it costs less than an early-exit validation loop alone). The
        // minimum of positive finite values is exact and order-free, so
        // the result is the in-order `f64::min` scan's to the bit.
        const LANES: usize = 4;
        let mut min_time = [f64::INFINITY; LANES];
        let mut min_work = [f64::INFINITY; LANES];
        let mut k: [f64; LANES] = std::array::from_fn(|l| (l + 1) as f64);
        let mut valid = true;
        let mut monotone = true;
        // The previous entry's time and work; the first entry passes.
        let (mut prev_t, mut prev_w) = (f64::INFINITY, 0.0);
        let mut step = |l: usize, t: f64| {
            valid &= positive_finite(t);
            if t < min_time[l] {
                min_time[l] = t;
            }
            let w = k[l] * t;
            if w < min_work[l] {
                min_work[l] = w;
            }
            monotone &= (t <= prev_t) & (prev_w <= w);
            (prev_t, prev_w) = (t, w);
            k[l] += LANES as f64;
        };
        let mut chunks = v.chunks_exact(LANES);
        for chunk in &mut chunks {
            for (l, &t) in chunk.iter().enumerate() {
                step(l, t);
            }
        }
        for (l, &t) in chunks.remainder().iter().enumerate() {
            step(l, t);
        }
        let bad = if valid {
            None
        } else {
            v.iter().position(|&t| !positive_finite(t))
        };
        let times = Times::Explicit {
            v: v.into_boxed_slice(),
            min_time: min_time.into_iter().fold(f64::INFINITY, f64::min),
            min_work: min_work.into_iter().fold(f64::INFINITY, f64::min),
            monotone,
        };
        (times, bad)
    }

    #[inline]
    fn len(&self) -> usize {
        match self {
            Times::Explicit { v, .. } => v.len(),
            Times::Rigid { len, .. } => *len,
        }
    }

    /// Execution time on `k` processors (`1 ≤ k ≤ len`).
    #[inline]
    fn at(&self, k: usize) -> f64 {
        match self {
            Times::Explicit { v, .. } => v[k - 1],
            Times::Rigid {
                width, time, seq, ..
            } => {
                if k < *width {
                    *seq
                } else {
                    *time
                }
            }
        }
    }

    /// The vector as a slice, materializing the rigid form once.
    fn as_slice(&self) -> &[f64] {
        match self {
            Times::Explicit { v, .. } => v,
            Times::Rigid {
                width,
                time,
                seq,
                len,
                cache,
            } => cache.get_or_init(|| {
                (1..=*len)
                    .map(|k| if k < *width { *seq } else { *time })
                    .collect()
            }),
        }
    }
}

impl PartialEq for Times {
    /// Value equality: two tasks with the same virtual vector compare
    /// equal regardless of representation (a rigid task equals its
    /// materialized twin).
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && (1..=self.len()).all(|k| self.at(k) == other.at(k))
    }
}

/// A moldable parallel task (paper §2.1).
///
/// Describes the vector of processing times `p(1..=max)` — `times[k-1]`
/// is the execution time on `k` processors — and the weight `wᵢ` used by
/// the `Σ wᵢ Cᵢ` criterion. Construction enforces positive finite values;
/// monotony is checked separately because some substrates (e.g. rigid-job
/// emulation) intentionally use non-monotonic vectors. Rigid tasks are
/// stored compactly (two numbers, not `m`), so building, hashing and
/// querying them is `O(1)`; see [`MoldableTask::rigid_shape`].
#[derive(Debug, Clone, PartialEq)]
pub struct MoldableTask {
    id: TaskId,
    weight: f64,
    times: Times,
}

// Serialization stays in the derived named-field format ({"id", "weight",
// "times": [...]}): both representations serialize as the materialized
// vector, and deserialization always rebuilds the explicit form (value
// equality above makes the round trip lossless). Hand-written because
// the derive cannot see through the internal `Times` enum.
impl Serialize for MoldableTask {
    fn serialize(&self) -> serde::Value {
        let o = vec![
            ("id".to_string(), serde::Serialize::serialize(&self.id)),
            (
                "weight".to_string(),
                serde::Serialize::serialize(&self.weight),
            ),
            (
                "times".to_string(),
                serde::Serialize::serialize(&self.times().to_vec()),
            ),
        ];
        serde::Value::Object(o)
    }
}

impl Deserialize for MoldableTask {
    fn deserialize(d: &mut serde::de::Deserializer<'_>) -> Result<Self, serde::de::Error> {
        /// The wire form, field for field.
        #[derive(Deserialize)]
        struct Wire {
            id: TaskId,
            weight: f64,
            times: Vec<f64>,
        }
        if d.peek() != Some(b'{') {
            return Err(serde::de::Error::custom("expected a task object"));
        }
        let Wire { id, weight, times } = Wire::deserialize(d)?;
        MoldableTask::new(id, weight, times).map_err(serde::de::Error::custom)
    }
}

impl MoldableTask {
    /// Builds a task from its processing-time vector.
    ///
    /// `times[k-1]` is the processing time on `k` processors. All values
    /// must be positive and finite and the weight positive and finite.
    pub fn new(id: TaskId, weight: f64, times: Vec<f64>) -> Result<Self, ModelError> {
        if times.is_empty() {
            return Err(ModelError::EmptyTimes { task: id.0 });
        }
        let (times, bad) = Times::explicit(times);
        if let Some(i) = bad {
            return Err(ModelError::NonPositiveTime {
                task: id.0,
                procs: i + 1,
                value: times.at(i + 1),
            });
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(ModelError::NonPositiveWeight {
                task: id.0,
                value: weight,
            });
        }
        Ok(Self { id, weight, times })
    }

    /// Builds a *rigid* task: runnable only on exactly `procs` processors
    /// out of `m`, emulated in the moldable model by a virtual vector that
    /// is prohibitively long below `procs` and flat (no speed-up, growing
    /// work) above. Used by the on-line extension crate. Stored compactly —
    /// `O(1)` time and space regardless of `m` — while every query answers
    /// exactly as if the vector had been materialized. A width outside
    /// `1..=m` is a [`ModelError::RigidWidthOutOfRange`].
    pub fn rigid(
        id: TaskId,
        weight: f64,
        procs: usize,
        time: f64,
        m: usize,
    ) -> Result<Self, ModelError> {
        if procs < 1 || procs > m {
            return Err(ModelError::RigidWidthOutOfRange {
                task: id.0,
                width: procs,
                procs: m,
            });
        }
        // Below the rigid allotment the task "runs" sequentially with its
        // total work so that no scheduler ever prefers it; at and above it
        // runs in `time`. The historical materialized vector put `seq` at
        // index 0 (for procs > 1), so value errors report processor 1 with
        // the seq value exactly as they used to.
        let seq = time * procs as f64;
        if !(seq.is_finite() && seq > 0.0) {
            return Err(ModelError::NonPositiveTime {
                task: id.0,
                procs: 1,
                value: if procs > 1 { seq } else { time },
            });
        }
        if !(weight.is_finite() && weight > 0.0) {
            return Err(ModelError::NonPositiveWeight {
                task: id.0,
                value: weight,
            });
        }
        Ok(Self {
            id,
            weight,
            times: Times::Rigid {
                width: procs,
                time,
                seq,
                len: m,
                cache: OnceLock::new(),
            },
        })
    }

    /// Builds a perfectly-parallel (linear speed-up) task of sequential
    /// time `seq` over `m` processors: `p(k) = seq / k`. Handy in tests;
    /// the minsum-optimal schedule for such tasks is the gang schedule in
    /// increasing area order (paper §3.1).
    pub fn linear(id: TaskId, weight: f64, seq: f64, m: usize) -> Result<Self, ModelError> {
        let times = (1..=m).map(|k| seq / k as f64).collect();
        Self::new(id, weight, times)
    }

    /// Builds a strictly sequential task: no speed-up at all, `p(k) = seq`
    /// for every `k` (work grows linearly). Monotonic by construction.
    pub fn sequential(id: TaskId, weight: f64, seq: f64, m: usize) -> Result<Self, ModelError> {
        Self::new(id, weight, vec![seq; m])
    }

    /// Task id.
    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Weight `wᵢ` of the task in the minsum criterion.
    #[inline]
    pub fn weight(&self) -> f64 {
        self.weight
    }

    /// Re-identifies the task (used when instances are assembled from
    /// independently generated parts).
    pub fn set_id(&mut self, id: TaskId) {
        self.id = id;
    }

    /// Largest allotment described by this task (`m` of the instance).
    #[inline]
    pub fn max_procs(&self) -> usize {
        self.times.len()
    }

    /// Processing time on `k` processors (`1 ≤ k ≤ max_procs`).
    #[inline]
    pub fn time(&self, k: usize) -> f64 {
        debug_assert!(k >= 1 && k <= self.times.len(), "allotment out of range");
        self.times.at(k)
    }

    /// Work (processors × time) on `k` processors.
    #[inline]
    pub fn work(&self, k: usize) -> f64 {
        k as f64 * self.time(k)
    }

    /// The raw processing-time vector (`[k-1]` ↦ time on `k` procs).
    /// `O(1)` for explicit tasks; a compactly-stored rigid task
    /// materializes (and caches) the vector on first call — prefer
    /// [`MoldableTask::time`] / [`MoldableTask::fastest_alloc`] /
    /// [`MoldableTask::rigid_shape`] on per-event paths.
    #[inline]
    pub fn times(&self) -> &[f64] {
        self.times.as_slice()
    }

    /// The compact rigid shape `(width, time)` when this task is stored
    /// in the two-number rigid form, `None` for explicit vectors. Lets
    /// per-event code (content hashing, allotment choice) stay `O(1)`
    /// instead of walking `m` entries.
    #[inline]
    pub fn rigid_shape(&self) -> Option<(usize, f64)> {
        match self.times {
            Times::Rigid { width, time, .. } => Some((width, time)),
            Times::Explicit { .. } => None,
        }
    }

    /// First allotment achieving the minimum execution time, with that
    /// time — the choice a greedy time-optimal scheduler makes (ties
    /// break to the smallest `k`, which for a rigid task is its width).
    /// `O(1)` for compact rigid tasks, one scan otherwise.
    pub fn fastest_alloc(&self) -> (usize, f64) {
        match self.times {
            // width > 1 ⇒ seq = time·width > time, so the first minimum
            // of the virtual vector [seq.., time..] sits exactly at the
            // width; width == 1 ⇒ the vector is flat at `time`. A vector
            // truncated below the width is flat at `seq`.
            Times::Rigid {
                width, len, seq, ..
            } if len < width => (1, seq),
            Times::Rigid { width, time, .. } => (width, time),
            Times::Explicit { ref v, .. } => {
                let mut best_k = 1;
                let mut best_t = v[0];
                for (i, &t) in v.iter().enumerate().skip(1) {
                    if t < best_t {
                        best_t = t;
                        best_k = i + 1;
                    }
                }
                (best_k, best_t)
            }
        }
    }

    /// Last allotment achieving the minimum execution time, with that
    /// time: [`Self::fastest_alloc`] with ties broken to the largest
    /// `k`. `O(1)` on a nonincreasing vector (the rigid form included),
    /// whose last entry is its minimum; a scan from the last entry
    /// otherwise.
    pub fn widest_fastest_alloc(&self) -> (usize, f64) {
        let fastest = self.min_time();
        let k = (1..=self.max_procs())
            .rev()
            .find(|&k| self.times.at(k) == fastest)
            .unwrap_or(1);
        (k, fastest)
    }

    /// Sequential processing time `p(1)`.
    #[inline]
    pub fn seq_time(&self) -> f64 {
        self.times.at(1)
    }

    /// Fastest achievable processing time, `min_k p(k)` (equals `p(m)`
    /// for monotonic tasks; computed without assuming monotony). `O(1)`:
    /// an explicit vector folds it once when it is built, bit-identical
    /// to an in-order scan with `f64::min`.
    pub fn min_time(&self) -> f64 {
        match self.times {
            // The virtual vector [seq.., time..] is nonincreasing
            // (seq = time·width ≥ time), so its last entry is the minimum.
            Times::Rigid { len, .. } => self.times.at(len),
            Times::Explicit { min_time, .. } => min_time,
        }
    }

    /// Smallest work over all allotments, `min_k k·p(k)` (equals `p(1)`
    /// for monotonic tasks; computed without assuming monotony). `O(1)`,
    /// folded like [`Self::min_time`].
    pub fn min_work(&self) -> f64 {
        match self.times {
            // Work is k·seq ≥ seq below the width and k·time ≥
            // width·time = seq from it on, so the minimum is `seq` at
            // k = 1 (bit-equal: the scan's `1·seq` and `width·time` are
            // both the product `seq` was built from).
            Times::Rigid { seq, .. } => seq,
            Times::Explicit { min_work, .. } => min_work,
        }
    }

    /// True when the vector is *exactly* monotone: `p(k+1) ≤ p(k)` and
    /// `k·p(k) ≤ (k+1)·p(k+1)` for every `k`, compared as plain `f64`
    /// on the very products `k as f64 · p(k)` the deadline queries
    /// compute, with no tolerance. `O(1)`: an explicit vector records it
    /// in the pass that builds it. It implies [`Self::is_monotonic`] (an
    /// exact `≤` passes the tolerant one); the converse fails only on
    /// vectors that are monotone up to the tolerance alone.
    ///
    /// On such a task the allotments meeting a deadline are a suffix of
    /// `1..=m` and the least area among them sits at the first one, so
    /// [`Self::min_alloc_within`], [`Self::min_area_within`] and
    /// [`Self::min_area_alloc_within`] are one binary search each.
    pub fn is_exactly_monotone(&self) -> bool {
        match self.times {
            Times::Explicit { monotone, .. } => monotone,
            // `[seq.., time..]` with `seq = width·time`: times never rise,
            // and the work `k·seq` rises below the width, then falls back
            // to `width·time = seq` at it, from `(width−1)·seq`: a fall
            // exactly when `width ≥ 3`. A vector truncated below the
            // width is flat at `seq`.
            Times::Rigid { width, len, .. } => width <= 2 || len < width,
        }
    }

    /// The first allotment whose time meets `t` and its area, on a task
    /// where that allotment also has the least area among those meeting
    /// `t`: the rigid form or an exactly monotone vector. The rigid form
    /// answers from its four numbers, without the vector: every entry
    /// meets `t` when `seq` does, else those from the width on when
    /// `time` does; the least area is `seq` either way, bit-equal to the
    /// scan's `1·seq` and `width·time` (the product `seq` was built
    /// from). On a nonincreasing vector the allotments meeting `t` are a
    /// suffix (`approx_le(·, t)` is monotone in its first argument), so
    /// one binary search finds its start, and the work never falls along
    /// it.
    fn first_within(&self, t: f64) -> Option<(usize, f64)> {
        match self.times {
            Times::Rigid { seq, .. } if approx_le(seq, t) => Some((1, seq)),
            Times::Rigid {
                width,
                time,
                seq,
                len,
                ..
            } => (len >= width && approx_le(time, t)).then_some((width, seq)),
            Times::Explicit { ref v, .. } => {
                let i = v.partition_point(|&p| !approx_le(p, t));
                v.get(i).map(|&p| (i + 1, (i + 1) as f64 * p))
            }
        }
    }

    /// The paper's `allotᵢ`: smallest allotment `k` with `p(k) ≤ t`
    /// (up to the workspace tolerance), or `None` when even `min_time`
    /// exceeds `t`. `O(1)` on a rigid task, `O(log m)` on an exactly
    /// monotone one ([`Self::is_exactly_monotone`]); otherwise a linear
    /// scan, correct for arbitrary vectors. `approx_le(·, t)` is
    /// monotone in its first argument, so the answer is `Some` exactly
    /// when `approx_le(self.min_time(), t)`: a caller that only asks
    /// whether the task fits `t` should test that instead.
    pub fn min_alloc_within(&self, t: f64) -> Option<usize> {
        let Times::Explicit {
            ref v,
            monotone: false,
            ..
        } = self.times
        else {
            return self.first_within(t).map(|(k, _)| k);
        };
        v.iter().position(|&p| approx_le(p, t)).map(|i| i + 1)
    }

    /// The paper's `S_{i,j}`: the minimal area `k·p(k)` over allotments
    /// whose time fits the deadline `t`; `None` when no allotment fits
    /// (the paper then uses `+∞`). The area of
    /// [`Self::min_area_alloc_within`]: the least value is one value,
    /// whichever allotment attains it.
    pub fn min_area_within(&self, t: f64) -> Option<f64> {
        self.min_area_alloc_within(t).map(|(_, area)| area)
    }

    /// Allotment achieving [`Self::min_area_within`], together with the
    /// area; the smallest such allotment on area ties. On a rigid or an
    /// exactly monotone task it is the first allotment meeting `t`,
    /// [`Self::min_alloc_within`], in `O(1)` and `O(log m)`; otherwise a
    /// linear scan.
    pub fn min_area_alloc_within(&self, t: f64) -> Option<(usize, f64)> {
        let Times::Explicit {
            ref v,
            monotone: false,
            ..
        } = self.times
        else {
            return self.first_within(t);
        };
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in v.iter().enumerate() {
            if approx_le(p, t) {
                let area = (i + 1) as f64 * p;
                if best.is_none_or(|(_, b)| area < b) {
                    best = Some((i + 1, area));
                }
            }
        }
        best
    }

    /// Checks moldable monotony: `p(k)` non-increasing **and** work
    /// `k·p(k)` non-decreasing, both up to the workspace tolerance.
    pub fn is_monotonic(&self) -> bool {
        self.monotony_violation().is_none()
    }

    /// First monotony violation if any (for diagnostics).
    pub fn monotony_violation(&self) -> Option<ModelError> {
        for k in 2..=self.times.len() {
            let (prev, cur) = (self.times.at(k - 1), self.times.at(k));
            if !approx_le(cur, prev) {
                return Some(ModelError::TimeNotNonIncreasing {
                    task: self.id.0,
                    procs: k,
                });
            }
            let (wprev, wcur) = ((k - 1) as f64 * prev, k as f64 * cur);
            if !approx_le(wprev, wcur) {
                return Some(ModelError::WorkNotNonDecreasing {
                    task: self.id.0,
                    procs: k,
                });
            }
        }
        None
    }

    /// Returns a monotonized copy: times are first clamped to be
    /// non-increasing (running minimum) and then raised where needed so
    /// that work is non-decreasing. The sequential time is preserved and
    /// the result always satisfies [`Self::is_exactly_monotone`] (so
    /// also [`Self::is_monotonic`]); an exactly monotone task comes back
    /// unchanged.
    pub fn monotonized(&self) -> Self {
        let mut t = self.times.as_slice().to_vec();
        for k in 1..t.len() {
            // Non-increasing times.
            if t[k] > t[k - 1] {
                t[k] = t[k - 1];
            }
            // Non-decreasing work: k+1 procs must do at least k procs' work,
            // i.e. (k+1)·t[k] ≥ k·t[k-1] (1-based: k = index+1), tested
            // with the exact flag's own products. The floor takes the
            // ratio k/(k+1) < 1 first, so a huge finite time never
            // overflows; it can round an ulp or two low, so it is raised
            // until the products agree. That ends by t[k] = t[k-1] at the
            // latest, where (k+1)·t ≥ k·t.
            let (lo, hi) = (k as f64, k as f64 + 1.0);
            if hi * t[k] < lo * t[k - 1] {
                t[k] = t[k - 1] * (lo / hi);
                while hi * t[k] < lo * t[k - 1] {
                    t[k] = t[k].next_up();
                }
            }
        }
        // The minima are folded through the same pass `new` uses.
        Self {
            id: self.id,
            weight: self.weight,
            times: Times::explicit(t).0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(times: &[f64]) -> MoldableTask {
        MoldableTask::new(TaskId(0), 1.0, times.to_vec()).unwrap()
    }

    #[test]
    fn construction_rejects_bad_values() {
        assert!(matches!(
            MoldableTask::new(TaskId(1), 1.0, vec![]),
            Err(ModelError::EmptyTimes { task: 1 })
        ));
        assert!(matches!(
            MoldableTask::new(TaskId(2), 1.0, vec![1.0, 0.0]),
            Err(ModelError::NonPositiveTime {
                task: 2,
                procs: 2,
                ..
            })
        ));
        assert!(matches!(
            MoldableTask::new(TaskId(3), 1.0, vec![1.0, f64::NAN]),
            Err(ModelError::NonPositiveTime {
                task: 3,
                procs: 2,
                ..
            })
        ));
        assert!(matches!(
            MoldableTask::new(TaskId(4), -2.0, vec![1.0]),
            Err(ModelError::NonPositiveWeight { task: 4, .. })
        ));
        // The one-compare validity test, entry by entry, at the first
        // bad entry past a full lane chunk.
        for bad in [-0.0, -1.0, f64::INFINITY, f64::NEG_INFINITY, -f64::NAN] {
            let times = vec![1.0, 2.0, 3.0, 4.0, 5.0, bad, 7.0];
            assert!(
                matches!(
                    MoldableTask::new(TaskId(5), 1.0, times),
                    Err(ModelError::NonPositiveTime { procs: 6, .. })
                ),
                "{bad}"
            );
        }
        for good in [f64::MIN_POSITIVE / 4.0, f64::MIN_POSITIVE, f64::MAX] {
            assert!(MoldableTask::new(TaskId(6), 1.0, vec![good; 5]).is_ok());
        }
    }

    #[test]
    fn basic_queries() {
        let t = task(&[10.0, 6.0, 4.0, 3.0]);
        assert_eq!(t.max_procs(), 4);
        assert_eq!(t.time(1), 10.0);
        assert_eq!(t.time(4), 3.0);
        assert_eq!(t.work(2), 12.0);
        assert_eq!(t.seq_time(), 10.0);
        assert_eq!(t.min_time(), 3.0);
        assert_eq!(t.min_work(), 10.0);
    }

    #[test]
    fn min_alloc_within_picks_smallest_fitting() {
        let t = task(&[10.0, 6.0, 4.0, 3.0]);
        assert_eq!(t.min_alloc_within(10.0), Some(1));
        assert_eq!(t.min_alloc_within(6.5), Some(2));
        assert_eq!(t.min_alloc_within(6.0), Some(2));
        assert_eq!(t.min_alloc_within(4.0), Some(3));
        assert_eq!(t.min_alloc_within(3.0), Some(4));
        assert_eq!(t.min_alloc_within(2.9), None);
    }

    #[test]
    fn min_area_within_matches_paper_definition() {
        let t = task(&[10.0, 6.0, 4.0, 3.0]);
        // Areas: 10, 12, 12, 12.
        assert_eq!(t.min_area_within(10.0), Some(10.0));
        assert_eq!(t.min_area_within(5.0), Some(12.0));
        assert_eq!(t.min_area_within(1.0), None);
        assert_eq!(t.min_area_alloc_within(5.0), Some((3, 12.0)));
    }

    #[test]
    fn min_area_on_non_monotonic_vector_scans_everything() {
        // Valid task, intentionally non-monotonic (work dips at k=3).
        let t = MoldableTask::new(TaskId(9), 1.0, vec![12.0, 11.0, 2.0, 2.0]).unwrap();
        assert!(!t.is_monotonic());
        // Under deadline 12: areas are 12, 22, 6, 8 → min is 6 at k=3.
        assert_eq!(t.min_area_alloc_within(12.0), Some((3, 6.0)));
    }

    #[test]
    fn monotony_detects_both_violations() {
        let up = MoldableTask::new(TaskId(0), 1.0, vec![5.0, 6.0]).unwrap();
        assert!(matches!(
            up.monotony_violation(),
            Some(ModelError::TimeNotNonIncreasing { procs: 2, .. })
        ));
        let superlinear = MoldableTask::new(TaskId(0), 1.0, vec![6.0, 2.0]).unwrap();
        assert!(matches!(
            superlinear.monotony_violation(),
            Some(ModelError::WorkNotNonDecreasing { procs: 2, .. })
        ));
        assert!(task(&[6.0, 3.5, 2.5]).is_monotonic());
    }

    #[test]
    fn monotonized_restores_both_properties() {
        let bad = MoldableTask::new(TaskId(0), 1.0, vec![8.0, 9.0, 1.0, 5.0]).unwrap();
        let fixed = bad.monotonized();
        assert!(fixed.is_monotonic(), "{:?}", fixed.monotony_violation());
        assert_eq!(fixed.seq_time(), 8.0, "sequential time preserved");
    }

    #[test]
    fn monotonized_stays_finite_on_huge_times() {
        // `k·t[k-1]` overflows here; the floor must not.
        let max_then_one = vec![f64::MAX, f64::MAX, f64::MAX, 1.0];
        for times in [vec![1e308; 3], vec![1e308, 1e308, 1e300], max_then_one] {
            let fixed = MoldableTask::new(TaskId(0), 1.0, times.clone())
                .unwrap()
                .monotonized();
            let again = MoldableTask::new(TaskId(0), 1.0, fixed.times().to_vec());
            assert!(again.is_ok(), "{times:?} → {:?}", fixed.times());
            assert!(fixed.is_exactly_monotone(), "{:?}", fixed.times());
        }
    }

    #[test]
    fn monotonized_is_exactly_monotone_and_idempotent() {
        // The work floor `t[k-1]·(k/(k+1))` rounds low here: the output
        // passed the tolerant check but not the exact flag.
        let fixed = task(&[28.481733547369505, 30.0, 10.0]).monotonized();
        assert!(fixed.is_exactly_monotone(), "{:?}", fixed.times());
        assert_eq!(fixed.monotonized().times(), fixed.times());
    }

    #[test]
    fn monotonized_is_identity_on_monotonic_tasks() {
        let good = task(&[10.0, 6.0, 4.0, 3.0]);
        assert_eq!(good.monotonized(), good);
    }

    #[test]
    fn linear_and_sequential_builders() {
        let lin = MoldableTask::linear(TaskId(0), 1.0, 12.0, 4).unwrap();
        assert!(lin.is_monotonic());
        assert_eq!(lin.time(4), 3.0);
        assert!((lin.work(1) - lin.work(4)).abs() < 1e-12);

        let seq = MoldableTask::sequential(TaskId(1), 1.0, 7.0, 4).unwrap();
        assert!(seq.is_monotonic());
        assert_eq!(seq.time(4), 7.0);
        assert_eq!(seq.min_alloc_within(7.0), Some(1));
    }

    #[test]
    fn rigid_builder_penalizes_smaller_allotments() {
        let r = MoldableTask::rigid(TaskId(0), 1.0, 3, 2.0, 5).unwrap();
        assert_eq!(r.time(3), 2.0);
        assert_eq!(r.time(5), 2.0);
        assert_eq!(r.time(1), 6.0);
        // Scheduling it on its rigid allotment is area-optimal.
        assert_eq!(r.min_area_alloc_within(2.0), Some((3, 6.0)));
    }

    /// The three deadline queries and the widest fastest allotment of
    /// `v` by scanning, areas and times as bits.
    fn scanned_queries(v: &[f64], t: f64) -> [Option<(usize, u64)>; 3] {
        let alloc = v.iter().position(|&p| approx_le(p, t));
        let mut area: Option<(usize, f64)> = None;
        for (i, &p) in v.iter().enumerate() {
            let a = (i + 1) as f64 * p;
            if approx_le(p, t) && area.is_none_or(|(_, b)| a < b) {
                area = Some((i + 1, a));
            }
        }
        let fastest = v.iter().copied().fold(f64::INFINITY, f64::min);
        let widest = v.iter().rposition(|&p| p == fastest);
        [
            alloc.map(|i| (i + 1, 0)),
            area.map(|(k, a)| (k, a.to_bits())),
            widest.map(|i| (i + 1, fastest.to_bits())),
        ]
    }

    /// The same answers from the task's own queries.
    fn queries(task: &MoldableTask, t: f64) -> [Option<(usize, u64)>; 3] {
        let area = task.min_area_alloc_within(t).map(|(k, a)| (k, a.to_bits()));
        assert_eq!(
            task.min_area_within(t).map(f64::to_bits),
            area.map(|(_, a)| a)
        );
        let (k, p) = task.widest_fastest_alloc();
        [
            task.min_alloc_within(t).map(|k| (k, 0)),
            area,
            Some((k, p.to_bits())),
        ]
    }

    #[test]
    fn rigid_tasks_answer_like_the_scan_without_materializing() {
        let m = 9;
        let time = 0.7;
        let mut rigid: Vec<MoldableTask> = (1..=m)
            .map(|width| MoldableTask::rigid(TaskId(width), 1.0, width, time, m).unwrap())
            .collect();
        // Truncated below its width: only `seq` entries remain.
        rigid.push(MoldableTask {
            id: TaskId(0),
            weight: 1.0,
            times: Times::Rigid {
                width: 6,
                time,
                seq: 6.0 * time,
                len: 4,
                cache: OnceLock::new(),
            },
        });
        for task in &rigid {
            let (width, _) = task.rigid_shape().unwrap();
            let len = task.max_procs();
            let v: Vec<f64> = (1..=len).map(|k| task.time(k)).collect();
            let seq = time * width as f64;
            for p in [seq, time] {
                let edge = p - crate::REL_EPS * p.max(1.0);
                for t in [p, p.next_down(), edge, edge.next_down(), 0.5 * p, 2.0 * p] {
                    assert_eq!(queries(task, t), scanned_queries(&v, t), "{v:?} at {t:e}");
                }
            }
            let Times::Rigid { ref cache, .. } = task.times else {
                unreachable!("built rigid")
            };
            assert!(cache.get().is_none(), "width {width} materialized");
        }
    }

    #[test]
    fn rigid_width_outside_the_machine_is_a_typed_error() {
        for width in [0, 6, usize::MAX] {
            let err = MoldableTask::rigid(TaskId(4), 1.0, width, 2.0, 5).unwrap_err();
            assert_eq!(
                err,
                ModelError::RigidWidthOutOfRange {
                    task: 4,
                    width,
                    procs: 5
                }
            );
        }
        let err = MoldableTask::rigid(TaskId(4), 1.0, 9, 1.0, 2).unwrap_err();
        assert_eq!(err.to_string(), "task 4: rigid width 9 outside 1..=2");
    }

    /// The scans the cached minima replace, in the same fold order.
    fn scanned_minima(t: &MoldableTask) -> (u64, u64) {
        let v = t.times();
        let min_time = v.iter().copied().fold(f64::INFINITY, f64::min);
        let min_work = v
            .iter()
            .enumerate()
            .map(|(i, &p)| (i + 1) as f64 * p)
            .fold(f64::INFINITY, f64::min);
        (min_time.to_bits(), min_work.to_bits())
    }

    #[test]
    fn cached_minima_equal_the_scans_bit_for_bit() {
        let cirne_like = [9.7, 5.1, 3.3, 3.3, 3.3, 2.9, 2.9, 2.9];
        let non_monotone = [12.0, 11.0, 2.0, 2.0, 0.3 * 7.0, 1.9];
        let mut tasks = vec![
            task(&cirne_like),
            task(&non_monotone),
            task(&[0.1 + 0.2; 5]),
            task(&[7.25]),
            MoldableTask::linear(TaskId(1), 1.0, 1.0 / 3.0, 37).unwrap(),
            MoldableTask::sequential(TaskId(2), 2.0, 0.7, 9).unwrap(),
            MoldableTask::rigid(TaskId(3), 1.0, 1, 0.3, 6).unwrap(),
            MoldableTask::rigid(TaskId(4), 1.0, 4, 0.3, 6).unwrap(),
            MoldableTask::rigid(TaskId(5), 1.0, 6, 1.1, 6).unwrap(),
        ];
        let derived: Vec<MoldableTask> = tasks
            .iter()
            .flat_map(|t| {
                let json = serde_json::to_string(t).unwrap();
                let back: MoldableTask = serde_json::from_str(&json).unwrap();
                [t.monotonized(), back]
            })
            .collect();
        tasks.extend(derived);
        for t in &tasks {
            assert_eq!(
                (t.min_time().to_bits(), t.min_work().to_bits()),
                scanned_minima(t),
                "{:?}",
                t.times()
            );
            assert_eq!(t.fastest_alloc().1.to_bits(), t.min_time().to_bits());
        }
    }

    #[test]
    fn task_size_stays_put() {
        // The explicit form's two cached minima fit beside the larger
        // rigid variant.
        assert_eq!(std::mem::size_of::<MoldableTask>(), 80);
    }

    #[test]
    fn serde_round_trip() {
        let t = task(&[4.0, 2.5, 2.0]);
        let json = serde_json::to_string(&t).unwrap();
        let back: MoldableTask = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
