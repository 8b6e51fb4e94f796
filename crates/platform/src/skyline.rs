//! The skyline: free-processor availability as an event-ordered profile.
//!
//! [`Skyline`] keeps the **free-processor count** as a piecewise-constant
//! step function of time (a sorted segment list), replacing the former
//! full scans of all `m` processors per placement in the backfilling
//! scheduler and the EASY queue. It answers "earliest `t ≥ ready` where
//! at least `k` processors stay free for `duration`"
//! ([`Skyline::earliest_fit`]) and commits a placement by splitting the
//! window's edge segments in `O(log E)` and then decrementing the
//! segments the window spans ([`Skyline::commit`]), where `E` is the
//! number of committed windows — `O(log E)` for the typical
//! placement-sized window, linear only when one window spans most of the
//! profile. Counts cannot name *which* processors are free, so
//! [`crate::backfill_schedule`] uses the skyline as a sound pre-filter
//! in front of its exact per-processor check — a candidate start the
//! skyline rejects can never pass the identity check.
//!
//! Segments are keyed by **bitwise** time equality (no epsilon): the
//! profile reproduces the arithmetic of the per-processor scan exactly,
//! which is what lets the differential proptest suite pin byte-identical
//! schedules.

use std::collections::BTreeMap;
use std::ops::Bound;

/// Total-ordered wrapper for finite time coordinates (map keys).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TimeKey(pub(crate) f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Free-processor **count** profile over time: a sorted segment list
/// `start → free`, piecewise constant, with the last segment extending
/// to infinity. Fresh skylines have all `m` processors free everywhere;
/// [`Skyline::commit`] carves busy windows out.
///
/// ```
/// use demt_platform::Skyline;
/// // 10⁴ processors; a maintenance window takes 9 999 of them offline
/// // during [5, 8): only unit-width work fits there.
/// let mut sky = Skyline::new(10_000);
/// sky.commit(5.0, 3.0, 9_999);
/// assert_eq!(sky.free_at(6.0), 1);
/// assert_eq!(sky.earliest_fit(0.0, 2.0, 10_000), 0.0); // fits before
/// assert_eq!(sky.earliest_fit(4.0, 2.0, 10_000), 8.0); // waits it out
/// assert_eq!(sky.earliest_fit(4.0, 1.0, 1), 4.0);      // hole-fills
/// ```
#[derive(Debug, Clone)]
pub struct Skyline {
    procs: usize,
    /// Segment start → free count until the next key. Always contains a
    /// key at `0.0`; the final segment's count is always `procs`
    /// (commits are finite windows).
    segs: BTreeMap<TimeKey, usize>,
}

impl Skyline {
    /// All `procs` processors free on `[0, ∞)`.
    pub fn new(procs: usize) -> Self {
        let mut segs = BTreeMap::new();
        segs.insert(TimeKey(0.0), procs);
        Self { procs, segs }
    }

    /// Total processor count `m`.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// Number of segments `E` currently in the profile.
    pub fn segments(&self) -> usize {
        self.segs.len()
    }

    /// Free count at instant `t ≥ 0`.
    pub fn free_at(&self, t: f64) -> usize {
        debug_assert!(t >= 0.0 && t.is_finite(), "bad query instant {t}");
        self.segs
            .range(..=TimeKey(t))
            .next_back()
            .map(|(_, &f)| f)
            .unwrap_or(self.procs)
    }

    /// Minimum free count over the half-open window `[start, end)`
    /// (`free_at(start)` when the window is empty).
    pub fn min_free_in(&self, start: f64, end: f64) -> usize {
        let mut min = self.free_at(start);
        if end > start {
            for (_, &f) in self.segs.range((
                Bound::Excluded(TimeKey(start)),
                Bound::Excluded(TimeKey(end)),
            )) {
                min = min.min(f);
            }
        }
        min
    }

    /// Ensures a segment boundary exists exactly at `t`.
    fn split_at(&mut self, t: f64) {
        let floor = self.free_at(t);
        self.segs.entry(TimeKey(t)).or_insert(floor);
    }

    /// Removes `k` free processors over `[start, start + duration)`,
    /// splitting at the window edges (`O(log E)`) and decrementing
    /// every segment in between (linear in the segments the window
    /// spans). Panics if fewer than `k` processors are free anywhere in
    /// the window (an overcommit is always a caller bug).
    pub fn commit(&mut self, start: f64, duration: f64, k: usize) {
        assert!(
            start >= 0.0 && start.is_finite() && duration > 0.0 && duration.is_finite(),
            "bad commit window [{start}, {start} + {duration})"
        );
        self.commit_until(start, start + duration, k);
    }

    /// [`Skyline::commit`] with an explicit end instant instead of a
    /// duration. Callers that translate windows between time origins
    /// need this form: offsetting start and end *separately* keeps
    /// windows that abut bitwise in local coordinates abutting in
    /// global ones, where `start + duration` re-rounds and can overlap
    /// the neighbor by one ulp. A window whose bounds rounded onto the
    /// same instant is empty and ignored; `end < start` panics.
    pub fn commit_until(&mut self, start: f64, end: f64, k: usize) {
        assert!(
            start >= 0.0 && start.is_finite() && end >= start && end.is_finite(),
            "bad commit window [{start}, {end})"
        );
        if end == start {
            return;
        }
        self.split_at(start);
        self.split_at(end);
        for (_, f) in self.segs.range_mut((
            Bound::Included(TimeKey(start)),
            Bound::Excluded(TimeKey(end)),
        )) {
            let rem = f.checked_sub(k);
            // Release-assert: an overcommit here is a scheduler bug
            // that must not produce a silent bad schedule.
            assert!(
                rem.is_some(),
                "skyline overcommitted: fewer than {k} processors free"
            );
            *f = rem.unwrap_or(0);
        }
    }

    /// Returns `k` processors to the free pool over
    /// `[start, start + duration)` — the exact inverse of
    /// [`Skyline::commit`] — then erases any segment boundary the window
    /// no longer needs, so a daemon that commits and releases every
    /// placement keeps `E` bounded by the windows currently *in flight*
    /// rather than by the whole history. Panics if the release would
    /// push any segment above the machine size (releasing a window that
    /// was never committed is always a caller bug).
    ///
    /// ```
    /// use demt_platform::Skyline;
    /// let mut sky = Skyline::new(16);
    /// sky.commit(1.0, 2.0, 5);
    /// sky.commit(2.0, 4.0, 7);
    /// sky.release(1.0, 2.0, 5);
    /// sky.release(2.0, 4.0, 7);
    /// // Back to the fresh single-segment profile.
    /// assert_eq!(sky.segments(), 1);
    /// assert_eq!(sky.free_at(3.0), 16);
    /// ```
    pub fn release(&mut self, start: f64, duration: f64, k: usize) {
        assert!(
            start >= 0.0 && start.is_finite() && duration > 0.0 && duration.is_finite(),
            "bad release window [{start}, {start} + {duration})"
        );
        self.release_until(start, start + duration, k);
    }

    /// [`Skyline::release`] with an explicit end instant — the inverse
    /// of [`Skyline::commit_until`], with the same empty-window and
    /// rounding semantics.
    pub fn release_until(&mut self, start: f64, end: f64, k: usize) {
        assert!(
            start >= 0.0 && start.is_finite() && end >= start && end.is_finite(),
            "bad release window [{start}, {end})"
        );
        if end == start {
            return;
        }
        self.split_at(start);
        self.split_at(end);
        for (_, f) in self.segs.range_mut((
            Bound::Included(TimeKey(start)),
            Bound::Excluded(TimeKey(end)),
        )) {
            let sum = *f + k;
            // Release-assert: freeing processors that were never
            // committed means the caller's bookkeeping diverged from the
            // profile — fail loudly rather than report phantom capacity.
            assert!(
                sum <= self.procs,
                "skyline over-released: more than {} processors free",
                self.procs
            );
            *f = sum;
        }
        self.coalesce(start, end);
    }

    /// Drops every boundary in `[start, end]` whose segment repeats its
    /// predecessor's count (the boundary at `0` is structural and always
    /// kept). Linear in the boundaries inside the window.
    fn coalesce(&mut self, start: f64, end: f64) {
        let keys: Vec<TimeKey> = self
            .segs
            .range(TimeKey(start)..=TimeKey(end))
            .map(|(&key, _)| key)
            .collect();
        for key in keys {
            if key == TimeKey(0.0) {
                continue;
            }
            let prev = self.segs.range(..key).next_back().map(|(_, &f)| f);
            if prev == self.segs.get(&key).copied() {
                self.segs.remove(&key);
            }
        }
    }

    /// Earliest `t ≥ ready` such that at least `k` processors are free
    /// throughout `[t, t + duration)`. One forward sweep over the
    /// segments at or after `ready`: `O(log E)` to locate the first
    /// segment, then linear in the segments crossed.
    ///
    /// Because the count aggregates over processor identities, a window
    /// this method accepts need not have `k` *specific* processors free
    /// for its whole length — the result is a lower bound on (i.e. a
    /// sound pre-filter for) any identity-aware placement.
    pub fn earliest_fit(&self, ready: f64, duration: f64, k: usize) -> f64 {
        assert!(
            k <= self.procs,
            "cannot fit {k} of {} processors",
            self.procs
        );
        assert!(
            ready >= 0.0 && ready.is_finite() && duration > 0.0 && duration.is_finite(),
            "bad fit query at {ready} for {duration}"
        );
        // Construction seeds a segment at time 0 and carves never
        // remove it; scanning from the start is a sound (if slower)
        // fallback should that invariant ever break.
        let floor = self
            .segs
            .range(..=TimeKey(ready))
            .next_back()
            .map(|(&k, _)| k)
            .unwrap_or(TimeKey(0.0));
        let mut cand = ready;
        let mut it = self.segs.range(floor..).peekable();
        while let Some((_, &f)) = it.next() {
            let next = it.peek().map(|(&TimeKey(t), _)| t);
            if f < k {
                // Window cannot start (or continue) here: restart the
                // candidate at the next segment boundary. The last
                // segment keeps all committed windows finite, so f ≥ k
                // there and `next` exists on this branch.
                let Some(t) = next else {
                    break;
                };
                cand = t;
            } else if next.map(|t| cand + duration <= t).unwrap_or(true) {
                return cand;
            }
        }
        unreachable!("skyline segment sweep always terminates on the final segment")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_skyline_is_fully_free() {
        let sky = Skyline::new(8);
        assert_eq!(sky.free_at(0.0), 8);
        assert_eq!(sky.free_at(1e9), 8);
        assert_eq!(sky.min_free_in(0.0, 100.0), 8);
        assert_eq!(sky.earliest_fit(3.5, 2.0, 8), 3.5);
        assert_eq!(sky.segments(), 1);
    }

    #[test]
    fn commit_splits_and_restores() {
        let mut sky = Skyline::new(4);
        sky.commit(2.0, 3.0, 3);
        assert_eq!(sky.free_at(1.9), 4);
        assert_eq!(sky.free_at(2.0), 1);
        assert_eq!(sky.free_at(4.9), 1);
        assert_eq!(sky.free_at(5.0), 4);
        assert_eq!(sky.min_free_in(0.0, 2.0), 4, "half-open: busy starts at 2");
        assert_eq!(sky.min_free_in(0.0, 2.5), 1);
    }

    #[test]
    fn earliest_fit_hole_fills_and_waits() {
        let mut sky = Skyline::new(4);
        sky.commit(0.0, 2.0, 4); // everything busy during [0, 2)
        sky.commit(3.0, 2.0, 2); // half busy during [3, 5)
        assert_eq!(
            sky.earliest_fit(0.0, 1.0, 1),
            2.0,
            "hole [2, 3) fits width 1"
        );
        assert_eq!(sky.earliest_fit(0.0, 1.0, 4), 2.0);
        assert_eq!(
            sky.earliest_fit(0.0, 1.5, 4),
            5.0,
            "hole too short for 4-wide"
        );
        assert_eq!(
            sky.earliest_fit(0.0, 10.0, 2),
            2.0,
            "2-wide runs straight through"
        );
        assert_eq!(
            sky.earliest_fit(4.0, 1.0, 4),
            5.0,
            "ready inside a busy window"
        );
    }

    #[test]
    fn earliest_fit_matches_brute_force_on_random_profile() {
        // Deterministic pseudo-random windows; compare against a scan of
        // candidate starts (every segment boundary and the ready time).
        let mut sky = Skyline::new(7);
        let mut windows = Vec::new();
        let mut x = 9u64;
        for _ in 0..40 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) % 97;
            let d = 1 + (x >> 17) % 13;
            let k = 1 + (x >> 5) % 3;
            if sky.min_free_in(s as f64, (s + d) as f64) >= k as usize {
                sky.commit(s as f64, d as f64, k as usize);
                windows.push((s as f64, (s + d) as f64, k as usize));
            }
        }
        let free_at = |t: f64| {
            7usize
                - windows
                    .iter()
                    .filter(|&&(s, e, _)| s <= t && t < e)
                    .map(|&(_, _, k)| k)
                    .sum::<usize>()
        };
        for (ready, duration, k) in [(0.0, 3.0, 5), (11.0, 1.0, 7), (2.5, 6.0, 4), (40.0, 2.0, 6)] {
            let got = sky.earliest_fit(ready, duration, k);
            // Brute force over quarter-unit steps.
            let mut expect = ready;
            'outer: loop {
                let mut u = expect;
                while u < expect + duration {
                    if free_at(u) < k {
                        expect += 0.25;
                        continue 'outer;
                    }
                    u += 0.25;
                }
                break;
            }
            assert!(
                (got - expect).abs() < 0.25 + 1e-12,
                "fit({ready}, {duration}, {k}): got {got}, brute force {expect}"
            );
            assert!(got + 1e-12 >= ready);
            // The returned window really is count-feasible.
            assert!(sky.min_free_in(got, got + duration) >= k);
        }
    }

    #[test]
    fn release_is_the_inverse_of_commit() {
        let mut sky = Skyline::new(9);
        sky.commit(0.0, 4.0, 3);
        sky.commit(1.0, 2.0, 6);
        sky.commit(4.0, 1.0, 9);
        assert_eq!(sky.free_at(1.5), 0);
        sky.release(1.0, 2.0, 6);
        assert_eq!(sky.free_at(1.5), 6);
        assert_eq!(sky.free_at(3.5), 6);
        sky.release(4.0, 1.0, 9);
        sky.release(0.0, 4.0, 3);
        assert_eq!(sky.segments(), 1, "all boundaries coalesced away");
        assert_eq!(sky.free_at(2.0), 9);
    }

    #[test]
    fn release_coalesces_only_redundant_boundaries() {
        let mut sky = Skyline::new(5);
        sky.commit(1.0, 2.0, 2);
        sky.commit(2.0, 2.0, 1);
        // Releasing the first window keeps the second's boundaries.
        sky.release(1.0, 2.0, 2);
        assert_eq!(sky.free_at(1.5), 5);
        assert_eq!(sky.free_at(2.5), 4);
        assert_eq!(sky.free_at(3.5), 4);
        assert_eq!(sky.free_at(4.0), 5);
        assert_eq!(sky.segments(), 3);
        sky.release(2.0, 2.0, 1);
        assert_eq!(sky.segments(), 1);
    }

    #[test]
    #[should_panic(expected = "over-released")]
    fn over_release_is_rejected() {
        let mut sky = Skyline::new(3);
        sky.commit(0.0, 1.0, 1);
        sky.release(0.5, 1.0, 2);
    }

    #[test]
    #[should_panic(expected = "overcommitted")]
    fn overcommit_is_rejected() {
        let mut sky = Skyline::new(2);
        sky.commit(0.0, 1.0, 2);
        sky.commit(0.5, 1.0, 1);
    }
}
