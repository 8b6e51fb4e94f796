//! Streaming archive-scale trace generation.
//!
//! The Parallel Workloads Archive traces the replay harness targets run
//! to millions of jobs; materializing a [`WorkloadSpec`] instance of
//! that size would hold `n × m` profile entries at once. [`TraceGen`]
//! instead streams the same workload one job at a time — an `Iterator`
//! over [`TraceJob`]s in release order, holding exactly one task in
//! memory — while staying **bit-identical** to the materialized
//! generator: for the same `(kind, n, m, seed)` the streamed tasks equal
//! `WorkloadSpec::generate`'s tasks value for value (the differential
//! proptest in `tests/prop_tracegen.rs` pins this).
//!
//! Release dates come from Pareto inter-arrival gaps (the heavy-tailed
//! burstiness of real cluster traces) drawn from a second RNG derived
//! from the seed with the same golden-ratio mixing the front-end's
//! `submit_stream` uses, so adding arrivals never perturbs the task
//! shapes.
//!
//! A whole trace is reproducible from a one-line spec:
//!
//! ```
//! use demt_workload::{TraceGen, TraceSpec};
//! let spec: TraceSpec = "n=100,m=64,seed=7,kind=cirne,gap=0.3".parse().unwrap();
//! let jobs: Vec<_> = TraceGen::new(&spec).collect();
//! assert_eq!(jobs.len(), 100);
//! assert!(jobs.windows(2).all(|w| w[0].release <= w[1].release));
//! ```

use crate::spec::FamilyLaws;
use crate::{WorkloadKind, WorkloadSpec};
use demt_distr::{seeded_rng, Pareto, Variate};
use demt_model::{MoldableTask, TaskId};
use rand::rngs::StdRng;
use std::str::FromStr;

/// One generated job event: the moldable task plus its release date.
/// Ids are dense `0..n` in release order (gaps are non-negative, so
/// generation order *is* release order).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// The moldable task (id = position in the trace).
    pub task: MoldableTask,
    /// Arrival time — the cumulative sum of Pareto inter-arrival gaps.
    pub release: f64,
}

/// Parameters of a synthetic trace, parseable from a compact
/// `key=value` one-liner (see [`TraceSpec::from_str`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSpec {
    /// Workload family the job shapes come from.
    pub kind: WorkloadKind,
    /// Number of jobs `n`.
    pub jobs: usize,
    /// Cluster size `m`.
    pub procs: usize,
    /// RNG seed; shapes and releases are both derived from it.
    pub seed: u64,
    /// Mean inter-arrival time of the Pareto gaps.
    pub mean_interarrival: f64,
    /// Pareto tail shape `α > 1`; smaller is burstier.
    pub pareto_shape: f64,
}

impl TraceSpec {
    /// A spec with the trace defaults: Cirne–Berman shapes, Pareto
    /// arrivals at one job per `0.05` time units, tail shape `2.5`.
    pub fn new(jobs: usize, procs: usize, seed: u64) -> Self {
        Self {
            kind: WorkloadKind::Cirne,
            jobs,
            procs,
            seed,
            mean_interarrival: 0.05,
            pareto_shape: 2.5,
        }
    }

    /// The materialized-generator spec drawing the same task sequence.
    pub fn workload(&self) -> WorkloadSpec {
        WorkloadSpec::new(self.kind, self.jobs, self.procs, self.seed)
    }

    /// Canonical one-line form that [`TraceSpec::from_str`] round-trips.
    pub fn display(&self) -> String {
        format!(
            "n={},m={},seed={},kind={},gap={},shape={}",
            self.jobs,
            self.procs,
            self.seed,
            self.kind.name(),
            self.mean_interarrival,
            self.pareto_shape
        )
    }
}

/// Parses `n=2e6,m=1e4,seed=7[,kind=cirne][,gap=0.05][,shape=2.5]`.
/// `n` and `m` accept scientific notation (`2e6`); `n` and `m` are
/// required, everything else defaults as in [`TraceSpec::new`].
impl FromStr for TraceSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let mut jobs: Option<usize> = None;
        let mut procs: Option<usize> = None;
        let mut spec = TraceSpec::new(0, 0, 0);
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("trace spec: `{part}` is not key=value"))?;
            let count = |what: &str| -> Result<usize, String> {
                let v: f64 = value
                    .parse()
                    .map_err(|_| format!("trace spec: bad {what} `{value}`"))?;
                // demt-lint: allow(F1, fract()==0.0 is the exact integrality test for counts written in scientific notation)
                if !(v.is_finite() && (1.0..=1e12).contains(&v) && v.fract() == 0.0) {
                    return Err(format!(
                        "trace spec: {what} must be a positive integer, got `{value}`"
                    ));
                }
                Ok(v as usize)
            };
            match key.trim() {
                "n" | "jobs" => jobs = Some(count("n")?),
                "m" | "procs" => procs = Some(count("m")?),
                "seed" => {
                    spec.seed = value
                        .parse()
                        .map_err(|_| format!("trace spec: bad seed `{value}`"))?;
                }
                "kind" => {
                    spec.kind = WorkloadKind::from_name(value).ok_or_else(|| {
                        format!("trace spec: bad kind `{value}` (weakly|highly|mixed|cirne)")
                    })?;
                }
                "gap" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("trace spec: bad gap `{value}`"))?;
                    if !(v.is_finite() && v > 0.0) {
                        return Err(format!("trace spec: gap must be > 0, got `{value}`"));
                    }
                    spec.mean_interarrival = v;
                }
                "shape" => {
                    let v: f64 = value
                        .parse()
                        .map_err(|_| format!("trace spec: bad shape `{value}`"))?;
                    if !(v.is_finite() && v > 1.0) {
                        return Err(format!(
                            "trace spec: shape must be > 1 for a finite mean, got `{value}`"
                        ));
                    }
                    spec.pareto_shape = v;
                }
                other => return Err(format!("trace spec: unknown key `{other}`")),
            }
        }
        spec.jobs = jobs.ok_or("trace spec: missing n=".to_string())?;
        spec.procs = procs.ok_or("trace spec: missing m=".to_string())?;
        Ok(spec)
    }
}

/// The streaming generator: an `Iterator` over [`TraceJob`]s in release
/// order, constant memory in the trace length (one `m`-profile at a
/// time), reproducible from the spec alone.
///
/// Two independent RNG streams keep shapes and arrivals decoupled:
///
/// * the **shape stream** is `seeded_rng(seed)` consumed in exactly
///   [`WorkloadSpec::generate`]'s order, so the task sequence is the
///   materialized instance bit for bit;
/// * the **release stream** is seeded from the golden-ratio-mixed seed
///   (the `submit_stream` convention), feeding the Pareto gap law.
#[derive(Debug)]
pub struct TraceGen {
    spec: TraceSpec,
    laws: FamilyLaws,
    shape_rng: StdRng,
    release_rng: StdRng,
    gap: Pareto,
    clock: f64,
    next_index: usize,
}

impl TraceGen {
    /// A fresh generator positioned at job `0`.
    pub fn new(spec: &TraceSpec) -> Self {
        Self {
            spec: *spec,
            laws: FamilyLaws::new(),
            shape_rng: seeded_rng(spec.seed),
            release_rng: seeded_rng(spec.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1)),
            gap: Pareto::with_mean(spec.mean_interarrival, spec.pareto_shape),
            clock: 0.0,
            next_index: 0,
        }
    }
}

impl Iterator for TraceGen {
    type Item = TraceJob;

    fn next(&mut self) -> Option<TraceJob> {
        if self.next_index >= self.spec.jobs {
            return None;
        }
        let id = TaskId(self.next_index);
        self.next_index += 1;
        self.clock += self.gap.sample(&mut self.release_rng);
        let (weight, times) =
            self.laws
                .draw_task(self.spec.kind, self.spec.procs, &mut self.shape_rng);
        let task = MoldableTask::new(id, weight, times)
            // demt-lint: allow(P1, every generator arm yields positive monotone profiles accepted by the task constructor)
            .expect("generator profiles are valid");
        Some(TraceJob {
            task,
            release: self.clock,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.spec.jobs - self.next_index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for TraceGen {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_one_liner_parses_with_scientific_notation() {
        let spec: TraceSpec = "n=2e4,m=1e3,seed=7".parse().unwrap();
        assert_eq!(spec.jobs, 20_000);
        assert_eq!(spec.procs, 1_000);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.kind, WorkloadKind::Cirne);
        let full: TraceSpec = "n=10,m=4,seed=3,kind=mixed,gap=0.7,shape=1.8"
            .parse()
            .unwrap();
        assert_eq!(full.kind, WorkloadKind::Mixed);
        assert_eq!(full.mean_interarrival, 0.7);
        assert_eq!(full.pareto_shape, 1.8);
        // The canonical display round-trips.
        assert_eq!(full.display().parse::<TraceSpec>().unwrap(), full);
    }

    #[test]
    fn spec_rejects_malformed_one_liners() {
        for bad in [
            "m=4,seed=1",        // missing n
            "n=4,seed=1",        // missing m
            "n=0,m=4",           // n must be ≥ 1
            "n=1.5,m=4",         // non-integer
            "n=4,m=4,kind=nope", // unknown family
            "n=4,m=4,gap=-1",    // gap must be positive
            "n=4,m=4,shape=1",   // shape must exceed 1
            "n=4,m=4,turbo=9",   // unknown key
            "n=4,m=4,seed",      // not key=value
        ] {
            assert!(bad.parse::<TraceSpec>().is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn streamed_tasks_match_the_materialized_instance() {
        for kind in WorkloadKind::ALL {
            let mut spec = TraceSpec::new(40, 16, 11);
            spec.kind = kind;
            let streamed: Vec<TraceJob> = TraceGen::new(&spec).collect();
            let inst = spec.workload().generate();
            assert_eq!(streamed.len(), inst.len());
            for (job, task) in streamed.iter().zip(inst.tasks()) {
                assert_eq!(&job.task, task, "{kind}: streamed task diverges");
            }
        }
    }

    #[test]
    fn releases_are_sorted_positive_and_deterministic() {
        let spec = TraceSpec::new(200, 8, 5);
        let a: Vec<TraceJob> = TraceGen::new(&spec).collect();
        let b: Vec<TraceJob> = TraceGen::new(&spec).collect();
        assert_eq!(a, b);
        assert!(a[0].release > 0.0);
        for w in a.windows(2) {
            assert!(w[1].release >= w[0].release);
        }
        let mean = a.last().unwrap().release / 200.0;
        assert!((mean - 0.05).abs() < 0.05, "empirical mean gap {mean}");
    }

    #[test]
    fn iterator_is_exact_size() {
        let spec = TraceSpec::new(17, 4, 1);
        let mut gen = TraceGen::new(&spec);
        assert_eq!(gen.len(), 17);
        gen.next();
        assert_eq!(gen.len(), 16);
        assert_eq!(gen.by_ref().count(), 16);
        assert_eq!(gen.next(), None);
    }
}
