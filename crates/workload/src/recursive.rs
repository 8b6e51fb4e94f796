//! The paper's recursive parallelism model (§4.1).
//!
//! Successive processing times follow
//! `pᵢ(j) = pᵢ(j-1) · (X + j) / (1 + j)` with `X ∈ [0, 1]`.
//!
//! As printed, `X → 0` yields `p(j) ≈ 2·p(1)/(j+1)` (quasi-linear
//! speed-up) and `X → 1` yields no speed-up at all — so in the *formula*
//! small `X` means highly parallel. The paper's *prose*, however, says
//! highly parallel tasks are generated with `X ~ N(0.9, 0.2)` and weakly
//! parallel ones with `X ~ N(0.1, 0.2)`. The two statements are mutually
//! inconsistent; we reconcile them by parameterizing tasks with a
//! *parallelism degree* `α ∈ [0, 1]` (`α ≈ 1` ⇒ quasi-linear speed-up)
//! drawn from the paper's truncated Gaussians — `N(0.9, 0.2)` for highly
//! parallel, `N(0.1, 0.2)` for weakly parallel — and substituting
//! `X = 1 - α` in the printed recursion. This keeps both the published
//! distribution parameters and the published semantics (see DESIGN.md,
//! "interpretation choices").
//!
//! Whatever the draw, every generated task is monotonic: the time ratio
//! `(X+j)/(1+j) ≤ 1` and the work ratio
//! `j(X+j) / ((j-1)(1+j)) = 1 + (jX+1)/(j²-1) > 1`.

use demt_distr::{TruncatedNormal, Variate};
use rand::Rng;

/// Generates the processing-time vector `p(1..=m)` of one task with the
/// recursive model, given its sequential time and a parallelism-degree
/// law (`α`-law; the recursion uses `X = 1 - α`). A fresh degree is
/// drawn at every recursion step `j` (the literal reading of "X is a
/// random variable" applied to each successive computation).
pub fn recursive_times<R: Rng + ?Sized>(
    seq: f64,
    m: usize,
    degree_law: &TruncatedNormal,
    rng: &mut R,
) -> Vec<f64> {
    // demt-lint: allow(P1, documented precondition: a positive finite sequential time; generators draw one)
    assert!(
        seq > 0.0 && seq.is_finite(),
        "sequential time must be positive"
    );
    // demt-lint: allow(P1, documented precondition: m >= 1; instances reject machines without processors)
    assert!(m >= 1);
    let mut times = Vec::with_capacity(m);
    times.push(seq);
    for j in 2..=m {
        let alpha = degree_law.sample(rng);
        let x = 1.0 - alpha;
        let prev = times[j - 2];
        times.push(prev * (x + j as f64) / (1.0 + j as f64));
    }
    times
}

/// Closed-form value of the recursion for a *constant* degree, used by
/// tests: `p(j) = p(1) · Π_{l=2..j} (1-α+l)/(1+l)`.
pub fn recursive_times_const(seq: f64, m: usize, alpha: f64) -> Vec<f64> {
    // demt-lint: allow(P1, documented precondition: alpha in [0, 1]; test-only callers pass constants)
    assert!((0.0..=1.0).contains(&alpha));
    let x = 1.0 - alpha;
    let mut times = Vec::with_capacity(m);
    times.push(seq);
    for j in 2..=m {
        let prev = times[j - 2];
        times.push(prev * (x + j as f64) / (1.0 + j as f64));
    }
    times
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_distr::seeded_rng;
    use demt_model::{MoldableTask, TaskId};

    #[test]
    fn alpha_one_is_quasi_linear() {
        // α = 1 ⇒ X = 0 ⇒ p(j) = 2·seq/(j+1): speed-up (j+1)/2.
        let t = recursive_times_const(10.0, 8, 1.0);
        for (i, &p) in t.iter().enumerate() {
            let j = i + 1;
            assert!(
                (p - 2.0 * 10.0 / (j as f64 + 1.0)).abs() < 1e-12,
                "p({j}) = {p}"
            );
        }
    }

    #[test]
    fn alpha_zero_is_no_speedup() {
        // α = 0 ⇒ X = 1 ⇒ the ratio is 1: p constant.
        let t = recursive_times_const(7.0, 16, 0.0);
        assert!(t.iter().all(|&p| (p - 7.0).abs() < 1e-12));
    }

    #[test]
    fn asymptotic_exponent_matches_theory() {
        // With X = 1-α constant, p(j) ≈ seq · c · j^(X-1) = seq · c · j^(-α):
        // check the log-log slope.
        let alpha = 0.6;
        let t = recursive_times_const(1.0, 4096, alpha);
        let slope = (t[4095].ln() - t[511].ln()) / ((4096.0_f64).ln() - (512.0_f64).ln());
        assert!((slope + alpha).abs() < 0.01, "slope {slope}");
    }

    #[test]
    fn random_draws_stay_monotonic() {
        let mut rng = seeded_rng(11);
        for law in [
            TruncatedNormal::highly_parallel_x(),
            TruncatedNormal::weakly_parallel_x(),
        ] {
            for _ in 0..50 {
                let times = recursive_times(5.0, 64, &law, &mut rng);
                let t = MoldableTask::new(TaskId(0), 1.0, times).unwrap();
                assert!(t.is_monotonic(), "{:?}", t.monotony_violation());
            }
        }
    }

    #[test]
    fn highly_parallel_speeds_up_more_than_weakly() {
        let mut rng = seeded_rng(12);
        let m = 200;
        let avg_speedup = |law: &TruncatedNormal, rng: &mut rand::rngs::StdRng| {
            let mut acc = 0.0;
            for _ in 0..40 {
                let t = recursive_times(10.0, m, law, rng);
                acc += t[0] / t[m - 1];
            }
            acc / 40.0
        };
        let hi = avg_speedup(&TruncatedNormal::highly_parallel_x(), &mut rng);
        let lo = avg_speedup(&TruncatedNormal::weakly_parallel_x(), &mut rng);
        assert!(hi > 10.0 * lo, "highly {hi} vs weakly {lo}");
        assert!(
            lo < 3.0,
            "weakly parallel speed-up should be close to 1, got {lo}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let law = TruncatedNormal::highly_parallel_x();
        let a = recursive_times(3.0, 32, &law, &mut seeded_rng(5));
        let b = recursive_times(3.0, 32, &law, &mut seeded_rng(5));
        assert_eq!(a, b);
    }
}
