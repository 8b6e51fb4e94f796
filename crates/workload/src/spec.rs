//! Workload families of the SPAA'04 evaluation (§4.1) and their
//! generator.
//!
//! Four families are used by the paper's figures:
//!
//! | Family | Sequential times | Parallelism |
//! |---|---|---|
//! | [`WorkloadKind::WeaklyParallel`] (Fig. 3) | `U(1,10)` | recursive model, degree `N(0.1, 0.2)` trunc. `[0,1]` |
//! | [`WorkloadKind::HighlyParallel`] (Fig. 4) | `U(1,10)` | recursive model, degree `N(0.9, 0.2)` trunc. `[0,1]` |
//! | [`WorkloadKind::Mixed`] (Fig. 5) | 70% small `N(1, 0.5)`, 30% large `N(10, 5)` | small ⇒ weakly, large ⇒ highly parallel |
//! | [`WorkloadKind::Cirne`] (Fig. 6) | `U(1,10)` | Downey curves, `A` log-uniform on `[1, m]`, `σ ~ U(0,2)` |
//!
//! Task weights ("priority") are `U(1,10)` in every family, as in the
//! paper's experiments. Gaussian sequential times are truncated below at
//! [`MIN_SEQ_TIME`] — the paper does not say how it avoided non-positive
//! durations; rejection below a small floor is the least intrusive fix.

use crate::downey::downey_times;
use crate::recursive::recursive_times;
use demt_distr::{seeded_rng, LogUniform, TruncatedNormal, Uniform, Variate};
use demt_model::{Instance, InstanceBuilder};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Floor applied to Gaussian-drawn sequential times (the `N(1, 0.5)`
/// small-task law has ≈2.3% mass below it; draws under the floor are
/// rejected and redrawn, mirroring the paper's treatment of `X`).
pub const MIN_SEQ_TIME: f64 = 0.05;

/// The four workload families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Fig. 3 — uniform sequential times, weakly parallel tasks.
    WeaklyParallel,
    /// Fig. 4 — uniform sequential times, highly parallel tasks.
    HighlyParallel,
    /// Fig. 5 — two Gaussian size classes; small tasks weakly parallel,
    /// large tasks highly parallel.
    Mixed,
    /// Fig. 6 — Cirne–Berman model (Downey speed-up curves; see
    /// DESIGN.md for the substitution note).
    Cirne,
}

impl WorkloadKind {
    /// All four families, in figure order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::WeaklyParallel,
        WorkloadKind::HighlyParallel,
        WorkloadKind::Mixed,
        WorkloadKind::Cirne,
    ];

    /// Short machine-readable name (used in CSV headers and CLI args).
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::WeaklyParallel => "weakly",
            WorkloadKind::HighlyParallel => "highly",
            WorkloadKind::Mixed => "mixed",
            WorkloadKind::Cirne => "cirne",
        }
    }

    /// Parses the short name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "weakly" => Some(WorkloadKind::WeaklyParallel),
            "highly" => Some(WorkloadKind::HighlyParallel),
            "mixed" => Some(WorkloadKind::Mixed),
            "cirne" => Some(WorkloadKind::Cirne),
            _ => None,
        }
    }

    /// The paper figure this family belongs to.
    pub fn figure(self) -> u8 {
        match self {
            WorkloadKind::WeaklyParallel => 3,
            WorkloadKind::HighlyParallel => 4,
            WorkloadKind::Mixed => 5,
            WorkloadKind::Cirne => 6,
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Full description of a generated workload: family, size and seed.
/// The recursive families draw a fresh parallelism degree at every
/// step ([`crate::recursive_times`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Which family.
    pub kind: WorkloadKind,
    /// Number of tasks `n`.
    pub tasks: usize,
    /// Number of processors `m`.
    pub procs: usize,
    /// RNG seed; the same spec+seed always yields the same instance.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Spec of `tasks` tasks of family `kind` on `procs` processors.
    pub fn new(kind: WorkloadKind, tasks: usize, procs: usize, seed: u64) -> Self {
        Self {
            kind,
            tasks,
            procs,
            seed,
        }
    }

    /// Generates the instance.
    pub fn generate(&self) -> Instance {
        let mut rng = seeded_rng(self.seed);
        generate_with(self, &mut rng)
    }
}

/// Convenience one-shot generator with paper defaults.
pub fn generate(kind: WorkloadKind, tasks: usize, procs: usize, seed: u64) -> Instance {
    WorkloadSpec::new(kind, tasks, procs, seed).generate()
}

fn draw_seq_floor<R: Rng + ?Sized>(law: &impl Variate, rng: &mut R) -> f64 {
    loop {
        let v = law.sample(rng);
        if v >= MIN_SEQ_TIME {
            return v;
        }
    }
}

/// The distribution laws shared by every task of a family, hoisted out
/// of the per-task loop. Both the materializing generator
/// ([`WorkloadSpec::generate`]) and the streaming one
/// ([`crate::TraceGen`]) sample through this struct, so the two consume
/// the RNG in exactly the same order — which is what makes the streamed
/// tasks bit-identical to the materialized instance for the same seed.
#[derive(Debug)]
pub(crate) struct FamilyLaws {
    weight: Uniform,
    seq_uniform: Uniform,
    weakly: TruncatedNormal,
    highly: TruncatedNormal,
}

impl FamilyLaws {
    pub(crate) fn new() -> Self {
        Self {
            weight: Uniform::new(1.0, 10.0),
            seq_uniform: Uniform::new(1.0, 10.0),
            weakly: TruncatedNormal::weakly_parallel_x(),
            highly: TruncatedNormal::highly_parallel_x(),
        }
    }

    /// Draws one task's `(weight, times)` pair — the exact per-task body
    /// of the paper's generator, RNG order included: weight first, then
    /// the family-specific shape draws.
    pub(crate) fn draw_task<R: Rng + ?Sized>(
        &self,
        kind: WorkloadKind,
        m: usize,
        rng: &mut R,
    ) -> (f64, Vec<f64>) {
        let weight = self.weight.sample(rng);
        let times = match kind {
            WorkloadKind::WeaklyParallel => {
                let seq = self.seq_uniform.sample(rng);
                recursive_times(seq, m, &self.weakly, rng)
            }
            WorkloadKind::HighlyParallel => {
                let seq = self.seq_uniform.sample(rng);
                recursive_times(seq, m, &self.highly, rng)
            }
            WorkloadKind::Mixed => {
                // 70% small tasks N(1, 0.5) → weakly parallel;
                // 30% large tasks N(10, 5) → highly parallel.
                let small = rng.random::<f64>() < 0.7;
                if small {
                    let law = demt_distr::Normal::new(1.0, 0.5);
                    let seq = draw_seq_floor(&law, rng);
                    recursive_times(seq, m, &self.weakly, rng)
                } else {
                    let law = demt_distr::Normal::new(10.0, 5.0);
                    let seq = draw_seq_floor(&law, rng);
                    recursive_times(seq, m, &self.highly, rng)
                }
            }
            WorkloadKind::Cirne => {
                let seq = self.seq_uniform.sample(rng);
                if m == 1 {
                    // The log-uniform parallelism law over [1, m] is
                    // empty on one processor: the task is sequential.
                    return (weight, vec![seq]);
                }
                let a = LogUniform::new(1.0, m as f64).sample(rng).max(1.0);
                let sigma = rng.random_range(0.0..2.0);
                downey_times(seq, m, a, sigma)
            }
        };
        (weight, times)
    }
}

fn generate_with<R: Rng + ?Sized>(spec: &WorkloadSpec, rng: &mut R) -> Instance {
    let m = spec.procs;
    let laws = FamilyLaws::new();

    let mut b = InstanceBuilder::new(m);
    for _ in 0..spec.tasks {
        let (weight, times) = laws.draw_task(spec.kind, m, rng);
        b.push_times(weight, times)
            // demt-lint: allow(P1, every generator arm yields positive monotone profiles accepted by push_times)
            .expect("generators produce valid vectors");
    }
    // demt-lint: allow(P1, the builder assigns dense ids itself so build cannot reject them)
    let inst = b.build().expect("dense ids by construction");
    debug_assert!(inst.check_monotonic().is_ok());
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::MoldableTask;

    #[test]
    fn all_families_generate_valid_monotonic_instances() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 60, 32, 7);
            assert_eq!(inst.len(), 60);
            assert_eq!(inst.procs(), 32);
            inst.check_monotonic()
                .unwrap_or_else(|e| panic!("{kind}: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for kind in WorkloadKind::ALL {
            let a = generate(kind, 20, 16, 99);
            let b = generate(kind, 20, 16, 99);
            assert_eq!(a, b, "{kind} not deterministic");
            let c = generate(kind, 20, 16, 100);
            assert_ne!(a, c, "{kind} ignores the seed");
        }
    }

    #[test]
    fn weights_are_in_priority_range() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 200, 16, 3);
            for t in inst.tasks() {
                assert!(
                    (1.0..10.0).contains(&t.weight()),
                    "{kind}: weight {}",
                    t.weight()
                );
            }
        }
    }

    #[test]
    fn uniform_families_have_uniform_sequential_times() {
        for kind in [
            WorkloadKind::WeaklyParallel,
            WorkloadKind::HighlyParallel,
            WorkloadKind::Cirne,
        ] {
            let inst = generate(kind, 400, 8, 21);
            let seqs: Vec<f64> = inst.tasks().iter().map(MoldableTask::seq_time).collect();
            assert!(seqs.iter().all(|&s| (1.0..10.0).contains(&s)));
            let mean = seqs.iter().sum::<f64>() / seqs.len() as f64;
            assert!((mean - 5.5).abs() < 0.5, "{kind}: mean seq {mean}");
        }
    }

    #[test]
    fn mixed_family_has_two_size_classes() {
        let inst = generate(WorkloadKind::Mixed, 1000, 8, 5);
        let small = inst.tasks().iter().filter(|t| t.seq_time() < 4.0).count();
        let frac = small as f64 / 1000.0;
        // ~70% small plus the slice of the large Gaussian below 4.
        assert!(frac > 0.6 && frac < 0.9, "small fraction {frac}");
        assert!(inst.tasks().iter().all(|t| t.seq_time() >= MIN_SEQ_TIME));
    }

    #[test]
    fn highly_parallel_family_speeds_up_weakly_does_not() {
        let m = 64;
        let speedup = |kind| {
            let inst = generate(kind, 100, m, 13);
            inst.tasks()
                .iter()
                .map(|t| t.seq_time() / t.time(m))
                .sum::<f64>()
                / 100.0
        };
        let hi = speedup(WorkloadKind::HighlyParallel);
        let lo = speedup(WorkloadKind::WeaklyParallel);
        assert!(hi > 8.0, "highly-parallel mean speed-up {hi}");
        assert!(lo < 2.5, "weakly-parallel mean speed-up {lo}");
    }

    #[test]
    fn cirne_family_mixes_parallelism_widely() {
        let m = 128;
        let inst = generate(WorkloadKind::Cirne, 300, m, 17);
        let speedups: Vec<f64> = inst
            .tasks()
            .iter()
            .map(|t| t.seq_time() / t.time(m))
            .collect();
        let barely = speedups.iter().filter(|&&s| s < 2.0).count();
        let massive = speedups.iter().filter(|&&s| s > 20.0).count();
        assert!(
            barely > 20,
            "expect many barely-parallel jobs, got {barely}"
        );
        assert!(
            massive > 20,
            "expect many massively-parallel jobs, got {massive}"
        );
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn figure_mapping_matches_paper() {
        assert_eq!(WorkloadKind::WeaklyParallel.figure(), 3);
        assert_eq!(WorkloadKind::HighlyParallel.figure(), 4);
        assert_eq!(WorkloadKind::Mixed.figure(), 5);
        assert_eq!(WorkloadKind::Cirne.figure(), 6);
    }
}
