//! Downey's analytic speed-up model.
//!
//! The Cirne–Berman moldable-job model [5 of the paper] describes a job's
//! moldability with Downey's two-parameter speed-up curves
//! (A. B. Downey, *A parallel workload model and its implications for
//! processor allocation*, HPDC'97): `A` is the job's average parallelism
//! and `σ` the coefficient of variance of its parallelism. The curves
//! interpolate between `S(n) = n` (perfect speed-up while `n ≤ A`, low
//! variance) and a hyperbolic saturation towards the plateau `S(n) = A`.
//!
//! These formulas produce *monotonic* moldable tasks: `S` is
//! non-decreasing and `S(n)/n` non-increasing, hence `p(n) = p(1)/S(n)`
//! is non-increasing with non-decreasing work.

/// Downey speed-up `S(n; A, σ)` on `n` processors.
///
/// * `a` — average parallelism, `a ≥ 1`;
/// * `sigma` — variance coefficient, `σ ≥ 0`. `σ = 0` gives the ideal
///   piecewise-linear curve `min(n, A)`; large `σ` flattens the curve.
///
/// The returned value satisfies `1 ≤ S(n) ≤ min(n, A)` for `n ≥ 1`.
pub fn downey_speedup(n: usize, a: f64, sigma: f64) -> f64 {
    // demt-lint: allow(P1, documented precondition: n >= 1; allotments start at 1)
    assert!(n >= 1, "speed-up is defined for n ≥ 1");
    // demt-lint: allow(P1, documented precondition: finite A >= 1; generators draw A from [1, m])
    assert!(a >= 1.0 && a.is_finite(), "average parallelism must be ≥ 1");
    // demt-lint: allow(P1, documented precondition: finite sigma >= 0; generators draw sigma from non-negative laws)
    assert!(sigma >= 0.0 && sigma.is_finite(), "variance must be ≥ 0");
    let nf = n as f64;
    let s = if sigma <= 1.0 {
        // Low-variance regime.
        if nf <= a {
            a * nf / (a + sigma / 2.0 * (nf - 1.0))
        } else if nf <= 2.0 * a - 1.0 {
            a * nf / (sigma * (a - 0.5) + nf * (1.0 - sigma / 2.0))
        } else {
            a
        }
    } else {
        // High-variance regime.
        let knee = a + a * sigma - sigma;
        if nf <= knee {
            nf * a * (sigma + 1.0) / (sigma * (nf + a - 1.0) + a)
        } else {
            a
        }
    };
    // Clamp away floating-point overshoot at segment boundaries.
    s.min(a).min(nf).max(1.0)
}

/// Moldable processing-time vector `p(1..=m)` for a job of sequential
/// time `seq` following Downey's model: `p(n) = seq / S(n)`.
pub fn downey_times(seq: f64, m: usize, a: f64, sigma: f64) -> Vec<f64> {
    // demt-lint: allow(P1, documented precondition: a positive finite sequential time; generators and the SWF lift pass one)
    assert!(
        seq > 0.0 && seq.is_finite(),
        "sequential time must be positive"
    );
    (1..=m).map(|n| seq / downey_speedup(n, a, sigma)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::{MoldableTask, TaskId};

    #[test]
    fn unit_speedup_on_one_processor() {
        for &(a, s) in &[(1.0, 0.0), (5.0, 0.5), (32.0, 1.0), (10.0, 2.0)] {
            assert!(
                (downey_speedup(1, a, s) - 1.0).abs() < 1e-12,
                "S(1)=1 for A={a}, σ={s}"
            );
        }
    }

    #[test]
    fn zero_variance_is_ideal_min_n_a() {
        // σ = 0 gives S(n) = n up to A, then the plateau A.
        for n in 1..=20 {
            let s = downey_speedup(n, 8.0, 0.0);
            let ideal = (n as f64).min(8.0);
            assert!((s - ideal).abs() < 1e-9, "S({n}) = {s} vs ideal {ideal}");
        }
    }

    #[test]
    fn plateau_at_average_parallelism() {
        assert!((downey_speedup(1000, 16.0, 0.5) - 16.0).abs() < 1e-9);
        assert!((downey_speedup(1000, 16.0, 1.7) - 16.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_nondecreasing_and_bounded() {
        for &sigma in &[0.0, 0.3, 0.9, 1.0, 1.5, 2.0] {
            for &a in &[1.0, 2.5, 17.0, 120.0] {
                let mut prev = 0.0;
                for n in 1..=256 {
                    let s = downey_speedup(n, a, sigma);
                    assert!(
                        s >= prev - 1e-9,
                        "S not monotone at n={n}, A={a}, σ={sigma}"
                    );
                    assert!(s <= (n as f64) + 1e-9 && s <= a + 1e-9);
                    prev = s;
                }
            }
        }
    }

    #[test]
    fn efficiency_is_nonincreasing() {
        for &sigma in &[0.0, 0.5, 1.0, 2.0] {
            for &a in &[3.0, 50.0] {
                let mut prev = f64::INFINITY;
                for n in 1..=256 {
                    let eff = downey_speedup(n, a, sigma) / n as f64;
                    assert!(
                        eff <= prev + 1e-9,
                        "efficiency rose at n={n}, A={a}, σ={sigma}"
                    );
                    prev = eff;
                }
            }
        }
    }

    #[test]
    fn high_variance_flattens_the_curve() {
        // More variance ⇒ less speed-up at the same allotment.
        let lo = downey_speedup(16, 32.0, 0.2);
        let hi = downey_speedup(16, 32.0, 2.0);
        assert!(
            hi < lo,
            "σ=2 speed-up {hi} should be below σ=0.2 speed-up {lo}"
        );
    }

    #[test]
    fn downey_times_build_monotonic_tasks() {
        for &(a, sigma) in &[(1.0, 0.0), (7.3, 0.4), (40.0, 1.2), (200.0, 2.0)] {
            let times = downey_times(10.0, 64, a, sigma);
            let t = MoldableTask::new(TaskId(0), 1.0, times).unwrap();
            assert!(
                t.is_monotonic(),
                "A={a}, σ={sigma}: {:?}",
                t.monotony_violation()
            );
            assert_eq!(t.seq_time(), 10.0);
        }
    }

    #[test]
    #[should_panic(expected = "average parallelism")]
    fn rejects_sub_unit_parallelism() {
        let _ = downey_speedup(4, 0.5, 0.5);
    }
}
