//! `ProcSet` — a sorted, disjoint interval set over processor ids.
//!
//! The paper's schedules assign each task a *set* of processors; on
//! real machines those sets are overwhelmingly made of a few contiguous
//! runs (the allocator hands out the lowest free ids). Storing the set
//! as sorted, disjoint, inclusive intervals `(lo, hi)` — the slot-set
//! representation of OAR's `procset` — shrinks a `k`-processor
//! placement from `k` ids to `O(segments)` ranges and makes
//! take-`k`-lowest a linear scan over segments.
//!
//! The representation is canonical: intervals are sorted, pairwise
//! disjoint and never adjacent (`(0,1),(2,3)` is always stored as
//! `(0,3)`), so derived equality is value equality. Every operation is
//! total and panic-free; fallible queries return `Option`.
//!
//! The serde form is the plain JSON id-array (`[0,1,2,5]`) so checked-in
//! goldens and [`ProcSet`]-bearing placements are byte-identical to the
//! historical `Vec<u32>` encoding.

use std::fmt;

/// A set of processor ids stored as sorted, disjoint, inclusive
/// intervals.
///
/// ```
/// use demt_model::ProcSet;
///
/// let s: ProcSet = vec![0, 1, 2, 5, 6, 9].into();
/// assert_eq!(s.ranges(), &[(0, 2), (5, 6), (9, 9)]);
/// assert_eq!(s.len(), 6);
/// assert!(s.contains(5) && !s.contains(4));
/// assert_eq!(s.to_string(), "0-2,5-6,9");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProcSet {
    /// Sorted, disjoint, non-adjacent inclusive intervals.
    ranges: Vec<(u32, u32)>,
}

impl ProcSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        Self { ranges: Vec::new() }
    }

    /// The full machine `{0, …, m-1}`; empty when `m == 0`.
    ///
    /// `m` is clamped to the `u32` id space (the workspace never builds
    /// machines that large; the clamp keeps the constructor total).
    #[must_use]
    pub fn full(m: usize) -> Self {
        if m == 0 {
            return Self::new();
        }
        let hi = u32::try_from(m - 1).unwrap_or(u32::MAX);
        Self::range(0, hi)
    }

    /// The single inclusive interval `{lo, …, hi}`; empty when
    /// `lo > hi`.
    #[must_use]
    pub fn range(lo: u32, hi: u32) -> Self {
        if lo > hi {
            return Self::new();
        }
        Self {
            ranges: vec![(lo, hi)],
        }
    }

    /// Builds a set from arbitrary ids (any order, duplicates ignored).
    #[must_use]
    pub fn from_ids<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        let mut ids: Vec<u32> = ids.into_iter().collect();
        ids.sort_unstable();
        ids.dedup();
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        for q in ids {
            match ranges.last_mut() {
                Some((_, hi)) if *hi + 1 == q => *hi = q,
                _ => ranges.push((q, q)),
            }
        }
        Self { ranges }
    }

    /// Number of ids in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ranges
            .iter()
            .map(|&(lo, hi)| (hi - lo) as usize + 1)
            .sum()
    }

    /// `true` when the set holds no id.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// The canonical interval representation.
    #[must_use]
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges
    }

    /// Smallest id, if any.
    #[must_use]
    pub fn first(&self) -> Option<u32> {
        self.ranges.first().map(|&(lo, _)| lo)
    }

    /// Largest id, if any.
    #[must_use]
    pub fn last(&self) -> Option<u32> {
        self.ranges.last().map(|&(_, hi)| hi)
    }

    /// Membership test (binary search over intervals).
    #[must_use]
    pub fn contains(&self, q: u32) -> bool {
        let idx = self.ranges.partition_point(|&(lo, _)| lo <= q);
        idx > 0 && self.ranges[idx - 1].1 >= q
    }

    /// Iterates the ids in ascending order.
    pub fn iter(&self) -> ProcSetIter<'_> {
        ProcSetIter {
            ranges: self.ranges.iter(),
            cur: None,
        }
    }

    /// The ids as a sorted vector (materialized; prefer [`Self::iter`]).
    #[must_use]
    pub fn to_ids(&self) -> Vec<u32> {
        self.iter().collect()
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &Self) -> Self {
        let mut out: Vec<(u32, u32)> = Vec::with_capacity(self.ranges.len() + other.ranges.len());
        let (mut a, mut b) = (
            self.ranges.iter().peekable(),
            other.ranges.iter().peekable(),
        );
        loop {
            let next = match (a.peek(), b.peek()) {
                (Some(&&ra), Some(&&rb)) => {
                    if ra.0 <= rb.0 {
                        a.next();
                        ra
                    } else {
                        b.next();
                        rb
                    }
                }
                (Some(&&ra), None) => {
                    a.next();
                    ra
                }
                (None, Some(&&rb)) => {
                    b.next();
                    rb
                }
                (None, None) => break,
            };
            match out.last_mut() {
                // Merge overlapping or adjacent intervals; saturating
                // keeps `hi == u32::MAX` total.
                Some((_, hi)) if next.0 <= hi.saturating_add(1) => *hi = (*hi).max(next.1),
                _ => out.push(next),
            }
        }
        Self { ranges: out }
    }

    /// In-place union (the release path of the engines), merged into
    /// this set's own buffer: the two interval lists are merged from
    /// the back, so the output never overwrites an interval not yet
    /// read, and no new vector is allocated once the buffer has grown
    /// to the set's working size. Returns the number of ids in the
    /// union, so a caller that keeps a count need not rescan.
    pub fn union_with(&mut self, other: &Self) -> usize {
        let (a, b) = (self.ranges.len(), other.ranges.len());
        self.ranges.resize(a + b, (0, 0));
        let (mut i, mut j, mut w) = (a, b, a + b);
        let mut ids = 0usize;
        // The output interval being grown downwards: inputs arrive by
        // descending upper end, so its upper end is final.
        let mut cur: Option<(u32, u32)> = None;
        loop {
            let next = match (i.checked_sub(1), j.checked_sub(1)) {
                (Some(x), Some(y)) if self.ranges[x].1 >= other.ranges[y].1 => {
                    i = x;
                    self.ranges[x]
                }
                (Some(x), None) => {
                    i = x;
                    self.ranges[x]
                }
                (_, Some(y)) => {
                    j = y;
                    other.ranges[y]
                }
                (None, None) => break,
            };
            match cur {
                // Overlapping or adjacent: extend downwards; saturating
                // keeps `hi == u32::MAX` total.
                Some((lo, hi)) if next.1.saturating_add(1) >= lo => {
                    cur = Some((lo.min(next.0), hi))
                }
                Some(done) => {
                    // The outputs written, `done` and `next` each
                    // consumed an input, so `w - 1 >= i + j + 1`: the
                    // slot lies past every unread interval of `self`.
                    w -= 1;
                    self.ranges[w] = done;
                    ids += (done.1 - done.0) as usize + 1;
                    cur = Some(next);
                }
                None => cur = Some(next),
            }
        }
        if let Some(done) = cur {
            w -= 1;
            self.ranges[w] = done;
            ids += (done.1 - done.0) as usize + 1;
        }
        self.ranges.drain(..w);
        ids
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(&self, other: &Self) -> Self {
        let mut out: Vec<(u32, u32)> = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (alo, ahi) = self.ranges[i];
            let (blo, bhi) = other.ranges[j];
            let lo = alo.max(blo);
            let hi = ahi.min(bhi);
            if lo <= hi {
                out.push((lo, hi));
            }
            if ahi <= bhi {
                i += 1;
            } else {
                j += 1;
            }
        }
        Self { ranges: out }
    }

    /// Removes and returns the `k` lowest ids, or `None` (leaving the
    /// set untouched) when fewer than `k` are available.
    pub fn take_k_lowest(&mut self, k: usize) -> Option<Self> {
        if k == 0 {
            return Some(Self::new());
        }
        // The walk writes nothing back before it has found all `k`, so
        // a shortfall leaves the set untouched without counting it first.
        let mut taken: Vec<(u32, u32)> = Vec::new();
        let mut rem = k;
        let mut whole = 0usize;
        for &(lo, hi) in &self.ranges {
            let width = (hi - lo) as usize + 1;
            if width <= rem {
                taken.push((lo, hi));
                rem -= width;
                whole += 1;
                if rem == 0 {
                    break;
                }
            } else {
                let cut = lo + (rem as u32) - 1;
                taken.push((lo, cut));
                self.ranges[whole].0 = cut + 1;
                rem = 0;
                break;
            }
        }
        if rem > 0 {
            return None;
        }
        self.ranges.drain(..whole);
        Some(Self { ranges: taken })
    }
}

impl From<Vec<u32>> for ProcSet {
    fn from(ids: Vec<u32>) -> Self {
        Self::from_ids(ids)
    }
}

impl From<&[u32]> for ProcSet {
    fn from(ids: &[u32]) -> Self {
        Self::from_ids(ids.iter().copied())
    }
}

impl FromIterator<u32> for ProcSet {
    fn from_iter<I: IntoIterator<Item = u32>>(ids: I) -> Self {
        Self::from_ids(ids)
    }
}

impl<'a> IntoIterator for &'a ProcSet {
    type Item = u32;
    type IntoIter = ProcSetIter<'a>;

    fn into_iter(self) -> ProcSetIter<'a> {
        self.iter()
    }
}

/// Ascending-id iterator over a [`ProcSet`].
#[derive(Debug, Clone)]
pub struct ProcSetIter<'a> {
    ranges: std::slice::Iter<'a, (u32, u32)>,
    cur: Option<(u32, u32)>,
}

impl Iterator for ProcSetIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some((lo, hi)) = self.cur {
                self.cur = if lo < hi { Some((lo + 1, hi)) } else { None };
                return Some(lo);
            }
            self.cur = Some(*self.ranges.next()?);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.map_or(0, |(lo, hi)| (hi - lo) as usize + 1)
            + self
                .ranges
                .clone()
                .map(|&(lo, hi)| (hi - lo) as usize + 1)
                .sum::<usize>();
        (n, Some(n))
    }
}

impl ExactSizeIterator for ProcSetIter<'_> {}

impl fmt::Display for ProcSet {
    /// OAR-style interval notation: `0-2,5-6,9`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            if lo == hi {
                write!(f, "{lo}")?;
            } else {
                write!(f, "{lo}-{hi}")?;
            }
        }
        Ok(())
    }
}

// The wire form stays the historical JSON id-array so goldens and
// `Placement::write_json` remain byte-identical to the `Vec<u32>` era.
impl serde::Serialize for ProcSet {
    fn serialize(&self) -> serde::Value {
        serde::Value::Array(
            self.iter()
                .map(|q| serde::Value::Int(i64::from(q)))
                .collect(),
        )
    }
}

impl serde::Deserialize for ProcSet {
    fn deserialize(d: &mut serde::de::Deserializer<'_>) -> Result<Self, serde::de::Error> {
        let mut ranges: Vec<(u32, u32)> = Vec::new();
        d.seq("expected a processor id array", |d| {
            let q = u32::deserialize(d)?;
            match ranges.last_mut() {
                Some((_, hi)) if *hi + 1 == q => *hi = q,
                Some((_, hi)) if *hi >= q => {
                    return Err(serde::de::Error::custom(
                        "processor ids must be strictly increasing",
                    ));
                }
                _ => ranges.push((q, q)),
            }
            Ok(())
        })?;
        Ok(Self { ranges })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(s: &ProcSet) -> Vec<u32> {
        s.to_ids()
    }

    #[test]
    fn construction_canonicalizes() {
        let s = ProcSet::from_ids([3, 1, 2, 2, 0, 9]);
        assert_eq!(s.ranges(), &[(0, 3), (9, 9)]);
        assert_eq!(s.len(), 5);
        let t: ProcSet = vec![0, 1, 2, 3, 9].into();
        assert_eq!(s, t);
    }

    #[test]
    fn full_and_range_edges() {
        assert!(ProcSet::full(0).is_empty());
        assert_eq!(ProcSet::full(4).ranges(), &[(0, 3)]);
        assert!(ProcSet::range(5, 4).is_empty());
        assert_eq!(ProcSet::range(7, 7).len(), 1);
    }

    #[test]
    fn union_merges_adjacent_and_overlapping() {
        let a = ProcSet::from_ids([0, 1, 5, 6]);
        let b = ProcSet::from_ids([2, 6, 7, 10]);
        assert_eq!(a.union(&b).ranges(), &[(0, 2), (5, 7), (10, 10)]);
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c, a.union(&b));
        assert_eq!(a.union(&ProcSet::new()), a);
    }

    #[test]
    fn intersect_is_symmetric() {
        let a = ProcSet::from_ids([0, 1, 2, 6, 7]);
        let b = ProcSet::from_ids([1, 2, 3, 7, 9]);
        assert_eq!(a.intersect(&b).ranges(), &[(1, 2), (7, 7)]);
        assert_eq!(a.intersect(&b), b.intersect(&a));
    }

    #[test]
    fn take_k_lowest_splits_the_boundary_range() {
        let mut s = ProcSet::from_ids([0, 1, 2, 5, 6, 9]);
        let t = s.take_k_lowest(4).unwrap();
        assert_eq!(t.ranges(), &[(0, 2), (5, 5)]);
        assert_eq!(s.ranges(), &[(6, 6), (9, 9)]);
        assert!(s.take_k_lowest(3).is_none());
        assert_eq!(
            s.ranges(),
            &[(6, 6), (9, 9)],
            "failed take leaves the set intact"
        );
        assert_eq!(s.take_k_lowest(0), Some(ProcSet::new()));
    }

    #[test]
    fn iteration_is_sorted_and_sized() {
        let s = ProcSet::from_ids([9, 0, 1, 5]);
        assert_eq!(ids(&s), vec![0, 1, 5, 9]);
        assert_eq!(s.iter().len(), 4);
        assert_eq!((&s).into_iter().count(), 4);
    }

    #[test]
    fn display_uses_interval_notation() {
        assert_eq!(ProcSet::new().to_string(), "");
        assert_eq!(
            ProcSet::from_ids([0, 1, 2, 5, 7, 8]).to_string(),
            "0-2,5,7-8"
        );
    }

    #[test]
    fn u32_max_boundary_is_total() {
        let a = ProcSet::range(u32::MAX - 1, u32::MAX);
        let b = ProcSet::range(u32::MAX, u32::MAX);
        assert_eq!(a.union(&b), a);
        assert_eq!(a.len(), 2);
        let mut c = a.clone();
        assert_eq!(c.take_k_lowest(2), Some(a.clone()));
        assert!(c.is_empty());
    }

    #[test]
    fn serde_round_trips_the_id_array() {
        let s = ProcSet::from_ids([0, 1, 2, 9]);
        let back: ProcSet = serde_json::from_str("[0,1,2,9]").unwrap();
        assert_eq!(back, s);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, serde_json::to_string(&vec![0u32, 1, 2, 9]).unwrap());
        assert_eq!(json, "[0,1,2,9]");
    }

    #[test]
    fn serde_rejects_unsorted_ids() {
        assert!(serde_json::from_str::<ProcSet>("[1,0]").is_err());
        assert!(serde_json::from_str::<ProcSet>("[3,3]").is_err());
    }
}
