//! Bisection over a monotone real predicate.
//!
//! The dual-approximation substrate binary-searches the smallest target
//! makespan λ accepted by a feasibility predicate. The predicate is
//! monotone (feasible at λ ⇒ feasible at any λ' ≥ λ), so bisection to a
//! relative tolerance yields both the smallest accepted value (an upper
//! anchor) and the largest rejected one (a certified lower bound). The
//! upper anchor is never probed: the lower bound only ever comes from a
//! value the predicate rejected.

/// Outcome of [`bisect_threshold`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Threshold {
    /// Largest probed value the predicate rejected — for the dual
    /// approximation this certifies a lower bound on the optimum.
    pub rejected: f64,
    /// Smallest probed value the predicate accepted, or `hi` if none was.
    pub accepted: f64,
}

/// Finds the transition point of a monotone predicate on `[lo, hi]` to
/// relative precision `rel_eps`.
///
/// Preconditions (checked): `0 < lo ≤ hi`; `hi` is never probed. If the
/// predicate accepts `lo`, the result is `{rejected: lo·(1-ε), accepted:
/// lo}` after one probe — the caller's initial lower anchor was tight.
pub fn bisect_threshold(
    lo: f64,
    hi: f64,
    rel_eps: f64,
    mut feasible: impl FnMut(f64) -> bool,
) -> Threshold {
    // demt-lint: allow(P1, documented precondition: a finite positive bracket; callers bracket with trivial bounds of a non-empty instance)
    assert!(
        lo.is_finite() && hi.is_finite() && lo > 0.0 && lo <= hi,
        "invalid bracket"
    );
    // demt-lint: allow(P1, documented precondition: 0 < rel_eps < 1; callers pass configuration constants)
    assert!(rel_eps > 0.0 && rel_eps < 1.0, "invalid tolerance");
    if feasible(lo) {
        return Threshold {
            rejected: lo * (1.0 - rel_eps),
            accepted: lo,
        };
    }
    let mut bad = lo;
    let mut good = hi;
    while good - bad > rel_eps * bad {
        let mid = 0.5 * (bad + good);
        if feasible(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Threshold {
        rejected: bad,
        accepted: good,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_a_known_threshold() {
        let t = bisect_threshold(1.0, 100.0, 1e-9, |x| x >= 37.5);
        assert!(t.rejected < 37.5 && t.accepted >= 37.5);
        assert!((t.accepted - 37.5) < 1e-6);
        assert!((37.5 - t.rejected) < 1e-6);
    }

    #[test]
    fn tight_lower_anchor_short_circuits() {
        let mut calls = 0;
        let t = bisect_threshold(5.0, 10.0, 1e-6, |_| {
            calls += 1;
            true
        });
        assert_eq!(t.accepted, 5.0);
        assert!(t.rejected < 5.0);
        assert_eq!(calls, 1, "only the lower anchor is probed");
    }

    #[test]
    fn respects_relative_tolerance() {
        let t = bisect_threshold(1.0, 1000.0, 1e-3, |x| x >= 500.0);
        assert!(t.accepted - t.rejected <= 1e-3 * t.rejected * 1.01);
        assert!(t.rejected < 500.0 && t.accepted >= 500.0);
    }

    #[test]
    fn an_unaccepted_upper_anchor_is_returned_unprobed() {
        let mut probes = Vec::new();
        let t = bisect_threshold(1.0, 2.0, 1e-6, |x| {
            probes.push(x);
            false
        });
        assert_eq!(t.accepted, 2.0);
        assert!(t.rejected < 2.0 && t.accepted - t.rejected <= 1e-6 * t.rejected);
        assert!(probes.iter().all(|&x| x < 2.0), "hi is never probed");
    }

    #[test]
    #[should_panic(expected = "invalid bracket")]
    fn rejects_inverted_bracket() {
        let _ = bisect_threshold(3.0, 2.0, 1e-6, |_| true);
    }
}
