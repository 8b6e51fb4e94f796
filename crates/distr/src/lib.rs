//! # demt-distr — seeded random-variate substrate
//!
//! The SPAA'04 experimental setting (§4.1) draws task parameters from
//! uniform, Gaussian and truncated-Gaussian distributions, and the
//! Cirne–Berman substitute additionally needs a log-uniform law. The
//! sanctioned dependency set contains `rand` but not `rand_distr`, so
//! the variates are implemented here from first principles:
//!
//! * [`Normal`] — Box–Muller transform (both antithetic values used);
//! * [`TruncatedNormal`] — rejection sampling, exactly the paper's
//!   "any random value smaller than 0 and larger than 1 are ignored and
//!   recomputed" rule, generalized to arbitrary `[lo, hi]`;
//! * [`LogUniform`] — `exp(U[ln lo, ln hi])`, the classic heavy-mix law
//!   for job parallelism;
//! * [`Uniform`] — thin wrapper so every generator speaks the same
//!   [`Variate`] trait.
//!
//! All sampling is deterministic given a seed: the workspace convention
//! is `StdRng::seed_from_u64(seed)` built through [`seeded_rng`].

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds the workspace-standard deterministic RNG from a `u64` seed.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// A real-valued random variate.
pub trait Variate {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `n` samples into a fresh vector.
    fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Continuous uniform law on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Uniform on `[lo, hi)`; requires `lo < hi`, both finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite lo < hi); callers pass constants)
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid uniform bounds"
        );
        Self { lo, hi }
    }

    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Variate for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.random_range(self.lo..self.hi)
    }
}

/// Gaussian law `N(mean, sd²)` sampled with the Box–Muller transform.
///
/// Each draw consumes one uniform pair and keeps only the cosine
/// component. Caching the sine spare would halve the trigonometry but
/// make the sampler stateful *across RNG streams* — a sampler reused
/// with two identically-seeded RNGs would then produce different
/// sequences — so determinism wins over the micro-optimization here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sd: f64,
}

impl Normal {
    /// `N(mean, sd²)`; `sd` must be positive and finite.
    pub fn new(mean: f64, sd: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite mean, sd > 0); callers pass constants)
        assert!(
            mean.is_finite() && sd.is_finite() && sd > 0.0,
            "invalid normal parameters"
        );
        Self { mean, sd }
    }

    /// Mean of the law.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// One standard-normal draw (Box–Muller, cosine branch).
    fn standard<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // Box–Muller: u ∈ (0,1] to keep ln(u) finite.
        let u: f64 = 1.0 - rng.random::<f64>();
        let v: f64 = rng.random::<f64>();
        let r = (-2.0 * u.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * v;
        r * theta.cos()
    }
}

impl Variate for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sd * self.standard(rng)
    }
}

/// Gaussian law restricted to `[lo, hi]` by rejection, following the
/// paper's §4.1 rule for the parallelism variable `X`: out-of-range
/// draws are "ignored and recomputed".
#[derive(Debug, Clone)]
pub struct TruncatedNormal {
    inner: Normal,
    lo: f64,
    hi: f64,
}

impl TruncatedNormal {
    /// `N(mean, sd²)` truncated to `[lo, hi]`.
    ///
    /// The acceptance region must have positive probability; the
    /// constructor enforces a sane window (`lo < hi`) and panics if the
    /// window lies more than 12σ away from the mean, where rejection
    /// sampling would effectively never terminate.
    pub fn new(mean: f64, sd: f64, lo: f64, hi: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite lo < hi); callers pass constants)
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid truncation window"
        );
        let inner = Normal::new(mean, sd);
        let dist = if mean < lo {
            (lo - mean) / sd
        } else if mean > hi {
            (mean - hi) / sd
        } else {
            0.0
        };
        // demt-lint: allow(P1, documented constructor precondition: a window within 12 sd of the mean; callers pass constants)
        assert!(
            dist < 12.0,
            "truncation window unreachable by rejection sampling"
        );
        Self { inner, lo, hi }
    }

    /// The paper's `X` law for *highly parallel* tasks: `N(0.9, 0.2²)`
    /// truncated to `[0, 1]`.
    pub fn highly_parallel_x() -> Self {
        Self::new(0.9, 0.2, 0.0, 1.0)
    }

    /// The paper's `X` law for *weakly parallel* tasks: `N(0.1, 0.2²)`
    /// truncated to `[0, 1]`.
    pub fn weakly_parallel_x() -> Self {
        Self::new(0.1, 0.2, 0.0, 1.0)
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }
}

impl Variate for TruncatedNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        loop {
            let x = self.inner.sample(rng);
            if x >= self.lo && x <= self.hi {
                return x;
            }
        }
    }
}

/// Log-uniform law on `[lo, hi]`: `exp(U[ln lo, ln hi])`.
///
/// Used by the Cirne–Berman substitute to draw the average parallelism
/// `A`, reproducing the defining property of moldable-job surveys: most
/// jobs barely parallel, a heavy tail of massively parallel ones.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogUniform {
    ln_lo: f64,
    ln_hi: f64,
}

impl LogUniform {
    /// Log-uniform on `[lo, hi]`; requires `0 < lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite 0 < lo < hi); callers pass constants or lo = 1 < m)
        assert!(
            lo.is_finite() && hi.is_finite() && lo > 0.0 && lo < hi,
            "invalid log-uniform bounds"
        );
        Self {
            ln_lo: lo.ln(),
            ln_hi: hi.ln(),
        }
    }
}

impl Variate for LogUniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        rng.random_range(self.ln_lo..self.ln_hi).exp()
    }
}

/// Exponential law of rate `λ` (mean `1/λ`), via inverse transform.
///
/// Used by the cluster front-end simulator for Poisson job arrivals
/// (exponential inter-arrival times).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Exponential with rate `λ > 0`.
    pub fn new(rate: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite rate > 0))
        assert!(rate.is_finite() && rate > 0.0, "invalid exponential rate");
        Self { rate }
    }

    /// Exponential with the given mean (`1/λ`).
    pub fn with_mean(mean: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite mean > 0); stream and trace specs check their gap first)
        assert!(mean.is_finite() && mean > 0.0, "invalid exponential mean");
        Self { rate: 1.0 / mean }
    }

    /// The rate `λ`.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Variate for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u ∈ (0, 1] keeps ln finite; -ln(u)/λ.
        let u = 1.0 - rng.random::<f64>();
        -u.ln() / self.rate
    }
}

/// Pareto law with scale `xm > 0` and shape `α > 0`:
/// `P(X > x) = (xm/x)^α` for `x ≥ xm`, via inverse transform
/// `xm · u^(-1/α)`.
///
/// The classic heavy-tailed law for job inter-arrival times: real
/// cluster traces are bursty, with quiet stretches punctuated by
/// submission storms, which the memoryless exponential cannot produce.
/// Shapes `α ≤ 1` have infinite mean; `α ≤ 2` infinite variance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Pareto with scale `xm > 0` and shape `α > 0`.
    pub fn new(scale: f64, shape: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite scale and shape > 0))
        assert!(
            scale.is_finite() && scale > 0.0 && shape.is_finite() && shape > 0.0,
            "invalid pareto parameters"
        );
        Self { scale, shape }
    }

    /// Pareto with the given mean and shape `α > 1` (the mean
    /// `α·xm/(α−1)` only exists there): `xm = mean·(α−1)/α`.
    pub fn with_mean(mean: f64, shape: f64) -> Self {
        // demt-lint: allow(P1, documented constructor precondition (finite mean > 0, shape > 1); trace specs check gap and shape when parsed)
        assert!(
            mean.is_finite() && mean > 0.0 && shape.is_finite() && shape > 1.0,
            "pareto mean requires shape > 1"
        );
        Self::new(mean * (shape - 1.0) / shape, shape)
    }

    /// The scale `xm` (the distribution's minimum).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The tail shape `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl Variate for Pareto {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // u ∈ (0, 1] keeps the power finite.
        let u = 1.0 - rng.random::<f64>();
        self.scale * u.powf(-1.0 / self.shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_sd(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n;
        (m, v.sqrt())
    }

    #[test]
    fn seeded_rng_is_deterministic() {
        let a: Vec<f64> = Uniform::new(0.0, 1.0).sample_n(&mut seeded_rng(42), 16);
        let b: Vec<f64> = Uniform::new(0.0, 1.0).sample_n(&mut seeded_rng(42), 16);
        assert_eq!(a, b);
        let c: Vec<f64> = Uniform::new(0.0, 1.0).sample_n(&mut seeded_rng(43), 16);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bounds_and_mean() {
        let u = Uniform::new(1.0, 10.0);
        let xs = u.sample_n(&mut seeded_rng(1), 20_000);
        assert!(xs.iter().all(|&x| (1.0..10.0).contains(&x)));
        let (m, _) = mean_sd(&xs);
        assert!((m - 5.5).abs() < 0.1, "uniform(1,10) mean ≈ 5.5, got {m}");
    }

    #[test]
    fn normal_matches_moments() {
        let n = Normal::new(10.0, 5.0);
        let xs = n.sample_n(&mut seeded_rng(2), 40_000);
        let (m, s) = mean_sd(&xs);
        assert!((m - 10.0).abs() < 0.15, "mean {m}");
        assert!((s - 5.0).abs() < 0.15, "sd {s}");
    }

    #[test]
    fn normal_sampler_is_stateless_across_streams() {
        // A sampler reused with two identically-seeded RNGs must yield
        // identical sequences (regression test: a spare-value cache once
        // broke this).
        let n = Normal::new(0.0, 1.0);
        let a = n.sample_n(&mut seeded_rng(3), 9);
        let b = n.sample_n(&mut seeded_rng(3), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_normal_respects_window() {
        let t = TruncatedNormal::highly_parallel_x();
        let xs = t.sample_n(&mut seeded_rng(4), 20_000);
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let (m, _) = mean_sd(&xs);
        // Analytic truncated-normal mean: 0.9 + 0.2·(φ(-4.5)-φ(0.5))/(Φ(0.5)-Φ(-4.5)) ≈ 0.798.
        assert!((m - 0.798).abs() < 0.01, "truncated N(0.9,0.2) mean {m}");
    }

    #[test]
    fn weakly_parallel_window_mirrors_highly() {
        let t = TruncatedNormal::weakly_parallel_x();
        let xs = t.sample_n(&mut seeded_rng(5), 20_000);
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
        let (m, _) = mean_sd(&xs);
        // Mirror image of the highly-parallel law: mean ≈ 1 - 0.798.
        assert!((m - 0.202).abs() < 0.01, "truncated N(0.1,0.2) mean {m}");
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn truncated_normal_rejects_hopeless_window() {
        let _ = TruncatedNormal::new(0.0, 0.01, 10.0, 11.0);
    }

    #[test]
    fn log_uniform_moments() {
        let l = LogUniform::new(1.0, 200.0);
        let xs = l.sample_n(&mut seeded_rng(6), 40_000);
        assert!(xs.iter().all(|&x| (1.0..=200.0).contains(&x)));
        // ln X ~ U[0, ln 200] → E[ln X] = ln(200)/2.
        let mean_ln = xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64;
        assert!(
            (mean_ln - 200.0_f64.ln() / 2.0).abs() < 0.05,
            "mean ln {mean_ln}"
        );
    }

    #[test]
    fn exponential_moments_and_positivity() {
        let e = Exponential::with_mean(4.0);
        assert!((e.rate() - 0.25).abs() < 1e-12);
        let xs = e.sample_n(&mut seeded_rng(9), 40_000);
        assert!(xs.iter().all(|&x| x >= 0.0));
        let (m, s) = mean_sd(&xs);
        assert!((m - 4.0).abs() < 0.1, "mean {m}");
        // sd of an exponential equals its mean.
        assert!((s - 4.0).abs() < 0.15, "sd {s}");
    }

    #[test]
    #[should_panic(expected = "invalid exponential rate")]
    fn exponential_rejects_zero_rate() {
        let _ = Exponential::new(0.0);
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let p = Pareto::with_mean(2.0, 3.0);
        assert!((p.scale() - 4.0 / 3.0).abs() < 1e-12);
        let xs = p.sample_n(&mut seeded_rng(10), 40_000);
        assert!(xs.iter().all(|&x| x >= p.scale()));
        let (m, _) = mean_sd(&xs);
        assert!((m - 2.0).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn pareto_tail_is_heavier_than_exponential() {
        // Same mean; the Pareto maximum over n draws grows like n^(1/α)
        // while the exponential maximum grows like ln n.
        let n = 40_000;
        let par = Pareto::with_mean(1.0, 1.5).sample_n(&mut seeded_rng(11), n);
        let exp = Exponential::with_mean(1.0).sample_n(&mut seeded_rng(11), n);
        let max = |xs: &[f64]| xs.iter().fold(0.0_f64, |a, &b| a.max(b));
        assert!(
            max(&par) > 4.0 * max(&exp),
            "pareto max {} vs exponential max {}",
            max(&par),
            max(&exp)
        );
    }

    #[test]
    #[should_panic(expected = "shape > 1")]
    fn pareto_with_mean_rejects_infinite_mean_shapes() {
        let _ = Pareto::with_mean(1.0, 1.0);
    }

    #[test]
    fn sample_n_length() {
        assert_eq!(
            Uniform::new(0.0, 1.0).sample_n(&mut seeded_rng(8), 5).len(),
            5
        );
    }

    #[test]
    #[should_panic(expected = "invalid uniform bounds")]
    fn uniform_rejects_inverted_bounds() {
        let _ = Uniform::new(2.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid log-uniform bounds")]
    fn log_uniform_rejects_nonpositive() {
        let _ = LogUniform::new(0.0, 1.0);
    }
}
