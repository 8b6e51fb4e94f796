//! On-line wrapper over every off-line scheduler: release dates are
//! honoured, nothing is lost, and the batch structure is causal.

use demt::prelude::*;
use rand::Rng;

fn jobs_with_releases(kind: WorkloadKind, n: usize, m: usize, seed: u64) -> Vec<OnlineJob> {
    let inst = generate(kind, n, m, seed);
    let mut rng = demt::distr::seeded_rng(seed.wrapping_mul(31) ^ 5);
    inst.tasks()
        .iter()
        .map(|t| OnlineJob {
            task: t.clone(),
            release: rng.random_range(0.0..12.0),
        })
        .collect()
}

#[test]
fn online_over_every_registry_entry() {
    let m = 16;
    let jobs = jobs_with_releases(WorkloadKind::Mixed, 40, m, 8);
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
    let inst = Instance::new(m, jobs.iter().map(|j| j.task.clone()).collect()).unwrap();

    for scheduler in registry().all() {
        let result = try_online_batch_schedule(m, &jobs, scheduler).unwrap();
        let name = scheduler.name();
        validate_with_releases(&inst, &result.schedule, Some(&releases))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(result.schedule.len(), jobs.len(), "{name} lost a job");
        for w in result.batches.windows(2) {
            assert!(
                w[1].start >= w[0].start + w[0].length - 1e-9,
                "{name}: overlapping batches"
            );
        }
    }
}

#[test]
fn online_wrapper_distinguishes_two_registry_entries() {
    // Two different registry entries drive the same job stream to
    // different schedules — the wrapper really dispatches on the trait.
    let m = 8;
    let jobs = jobs_with_releases(WorkloadKind::Cirne, 30, m, 21);
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
    let inst = Instance::new(m, jobs.iter().map(|j| j.task.clone()).collect()).unwrap();

    let demt = try_online_batch_schedule(m, &jobs, registry().by_name("demt").unwrap()).unwrap();
    let gang = try_online_batch_schedule(m, &jobs, registry().by_name("gang").unwrap()).unwrap();
    for (name, r) in [("demt", &demt), ("gang", &gang)] {
        validate_with_releases(&inst, &r.schedule, Some(&releases))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    assert_ne!(
        demt.schedule, gang.schedule,
        "demt and gang batches should differ on a moldable stream"
    );
    // Gang serializes every batch on all m processors, so it cannot
    // beat DEMT's makespan here.
    assert!(demt.schedule.makespan() <= gang.schedule.makespan() + 1e-9);
}

#[test]
fn online_makespan_respects_doubling_bound_for_demt() {
    // §2.2: total length ≤ 2ρ × optimal on-line makespan. Using the
    // certified off-line bound + last release as a proxy for the on-line
    // optimum and DEMT's empirical ρ ≲ 2, the ratio stays small.
    for seed in [3u64, 17, 29] {
        let m = 16;
        let jobs = jobs_with_releases(WorkloadKind::Cirne, 50, m, seed);
        let inst = Instance::new(m, jobs.iter().map(|j| j.task.clone()).collect()).unwrap();
        let result =
            try_online_batch_schedule(m, &jobs, registry().by_name("demt").unwrap()).unwrap();
        let proxy_opt =
            cmax_lower_bound(&inst, 1e-3).max(jobs.iter().map(|j| j.release).fold(0.0, f64::max));
        let ratio = result.schedule.makespan() / proxy_opt;
        assert!(ratio < 5.0, "seed {seed}: online ratio {ratio}");
    }
}

#[test]
fn staggered_releases_produce_multiple_batches() {
    let m = 8;
    let inst = generate(WorkloadKind::WeaklyParallel, 30, m, 4);
    let jobs: Vec<OnlineJob> = inst
        .tasks()
        .iter()
        .enumerate()
        .map(|(i, t)| OnlineJob {
            task: t.clone(),
            release: i as f64 * 0.8,
        })
        .collect();
    let result = try_online_batch_schedule(m, &jobs, registry().by_name("demt").unwrap()).unwrap();
    assert!(
        result.batches.len() >= 3,
        "expected several batches, got {}",
        result.batches.len()
    );
    // Every job appears in exactly one batch.
    let mut seen = vec![false; jobs.len()];
    for b in &result.batches {
        for id in &b.jobs {
            assert!(!seen[id.index()]);
            seen[id.index()] = true;
        }
    }
    assert!(seen.iter().all(|&s| s));
}
