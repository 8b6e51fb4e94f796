//! Moldable task: processing-time vector, weight, canonical queries.

use crate::{approx_le, ModelError, REL_EPS};
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
/// those values on demand; the handful of callers that genuinely need
/// a `&[f64]` (the dual memo, hand-written tests) get one from a lazy
/// per-task cache, so the slow path stays available without taxing the
/// fast one.
#[derive(Debug, Clone)]
enum Times {
    /// Full vector: `v[k-1]` is the execution time on `k` processors.
    Explicit(Box<[f64]>),
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

impl Times {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Times::Explicit(v) => v.len(),
            Times::Rigid { len, .. } => *len,
        }
    }

    /// Execution time on `k` processors (`1 ≤ k ≤ len`).
    #[inline]
    fn at(&self, k: usize) -> f64 {
        match self {
            Times::Explicit(v) => v[k - 1],
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
            Times::Explicit(v) => v,
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
        for (i, &t) in times.iter().enumerate() {
            if !(t.is_finite() && t > 0.0) {
                return Err(ModelError::NonPositiveTime {
                    task: id.0,
                    procs: i + 1,
                    value: t,
                });
            }
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
            times: Times::Explicit(times.into_boxed_slice()),
        })
    }

    /// Builds a *rigid* task: runnable only on exactly `procs` processors
    /// out of `m`, emulated in the moldable model by a virtual vector that
    /// is prohibitively long below `procs` and flat (no speed-up, growing
    /// work) above. Used by the on-line extension crate. Stored compactly —
    /// `O(1)` time and space regardless of `m` — while every query answers
    /// exactly as if the vector had been materialized.
    pub fn rigid(
        id: TaskId,
        weight: f64,
        procs: usize,
        time: f64,
        m: usize,
    ) -> Result<Self, ModelError> {
        assert!(
            procs >= 1 && procs <= m,
            "rigid allotment must be within 1..=m"
        );
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

    /// Replaces the weight (used by generators that draw priorities
    /// independently from shapes).
    pub fn set_weight(&mut self, weight: f64) {
        assert!(
            weight.is_finite() && weight > 0.0,
            "weight must be positive"
        );
        self.weight = weight;
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
            Times::Explicit(_) => None,
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
            // width; width == 1 ⇒ the vector is flat at `time`.
            Times::Rigid { width, time, .. } => (width, time),
            Times::Explicit(ref v) => {
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

    /// Sequential processing time `p(1)`.
    #[inline]
    pub fn seq_time(&self) -> f64 {
        self.times.at(1)
    }

    /// Fastest achievable processing time, `min_k p(k)` (equals `p(m)`
    /// for monotonic tasks; computed without assuming monotony).
    pub fn min_time(&self) -> f64 {
        match self.times {
            // seq = time·width ≥ time for positive times.
            Times::Rigid { time, .. } => time,
            Times::Explicit(ref v) => v.iter().copied().fold(f64::INFINITY, f64::min),
        }
    }

    /// Smallest work over all allotments, `min_k k·p(k)` (equals `p(1)`
    /// for monotonic tasks; computed without assuming monotony).
    pub fn min_work(&self) -> f64 {
        self.times
            .as_slice()
            .iter()
            .enumerate()
            .map(|(i, &t)| (i + 1) as f64 * t)
            .fold(f64::INFINITY, f64::min)
    }

    /// The paper's `allotᵢ`: smallest allotment `k` with `p(k) ≤ t`
    /// (up to the workspace tolerance), or `None` when even `min_time`
    /// exceeds `t`. Linear scan so the query is correct for arbitrary
    /// vectors; `O(m)` worst case but returns early on monotonic tasks.
    pub fn min_alloc_within(&self, t: f64) -> Option<usize> {
        self.times
            .as_slice()
            .iter()
            .position(|&p| approx_le(p, t))
            .map(|i| i + 1)
    }

    /// The paper's `S_{i,j}`: the minimal area `k·p(k)` over allotments
    /// whose time fits the deadline `t`; `None` when no allotment fits
    /// (the paper then uses `+∞`).
    pub fn min_area_within(&self, t: f64) -> Option<f64> {
        let mut best: Option<f64> = None;
        for (i, &p) in self.times.as_slice().iter().enumerate() {
            if approx_le(p, t) {
                let area = (i + 1) as f64 * p;
                best = Some(match best {
                    Some(b) => b.min(area),
                    None => area,
                });
            }
        }
        best
    }

    /// Allotment achieving [`Self::min_area_within`], together with the
    /// area. For monotonic tasks this is exactly [`Self::min_alloc_within`]
    /// since work is non-decreasing in `k`.
    pub fn min_area_alloc_within(&self, t: f64) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in self.times.as_slice().iter().enumerate() {
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
    /// the result always satisfies [`Self::is_monotonic`].
    pub fn monotonized(&self) -> Self {
        let mut t = self.times.as_slice().to_vec();
        for k in 1..t.len() {
            // Non-increasing times.
            if t[k] > t[k - 1] {
                t[k] = t[k - 1];
            }
            // Non-decreasing work: k+1 procs must do at least k procs' work,
            // i.e. (k+1)·t[k] ≥ k·t[k-1] (1-based: k = index+1).
            let floor = (k as f64) * t[k - 1] / (k as f64 + 1.0);
            if t[k] < floor {
                t[k] = floor;
            }
        }
        Self {
            id: self.id,
            weight: self.weight,
            times: Times::Explicit(t.into_boxed_slice()),
        }
    }

    /// Extends (or truncates) the vector to cover exactly `m` processors.
    /// Extension is *flat* (`p(k) = p(max)` for `k > max`), which keeps
    /// times non-increasing and work non-decreasing.
    pub fn resized(&self, m: usize) -> Self {
        assert!(m >= 1);
        // A rigid task stays rigid: flat extension repeats `time`, and a
        // truncation below the width leaves only `seq` entries — both are
        // what the virtual vector already answers for any `len`.
        if let Times::Rigid {
            width, time, seq, ..
        } = self.times
        {
            return Self {
                id: self.id,
                weight: self.weight,
                times: Times::Rigid {
                    width,
                    time,
                    seq,
                    len: m,
                    cache: OnceLock::new(),
                },
            };
        }
        let last = self.times.at(self.times.len());
        let mut t = self.times.as_slice().to_vec();
        t.resize(m, last);
        Self {
            id: self.id,
            weight: self.weight,
            times: Times::Explicit(t.into_boxed_slice()),
        }
    }

    /// True when two tasks have the same shape and weight up to the
    /// workspace tolerance (ids may differ). Test helper.
    pub fn same_profile(&self, other: &Self) -> bool {
        self.times.len() == other.times.len()
            && (self.weight - other.weight).abs() <= REL_EPS * self.weight.abs().max(1.0)
            && (1..=self.times.len())
                .map(|k| (self.times.at(k), other.times.at(k)))
                .all(|(a, b)| (a - b).abs() <= REL_EPS * a.abs().max(1.0))
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
    fn monotonized_is_identity_on_monotonic_tasks() {
        let good = task(&[10.0, 6.0, 4.0, 3.0]);
        assert!(good.same_profile(&good.monotonized()));
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

    #[test]
    fn resized_flat_extension_keeps_monotony() {
        let t = task(&[10.0, 6.0]).resized(5);
        assert_eq!(t.max_procs(), 5);
        assert_eq!(t.time(5), 6.0);
        assert!(t.is_monotonic());
        let shrunk = t.resized(1);
        assert_eq!(shrunk.max_procs(), 1);
        assert_eq!(shrunk.time(1), 10.0);
    }

    #[test]
    fn serde_round_trip() {
        let t = task(&[4.0, 2.5, 2.0]);
        let json = serde_json::to_string(&t).unwrap();
        let back: MoldableTask = serde_json::from_str(&json).unwrap();
        assert!(t.same_profile(&back));
        assert_eq!(t.id(), back.id());
    }
}
