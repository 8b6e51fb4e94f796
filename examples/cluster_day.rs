//! A day in the life of a cluster front-end (the paper's Fig. 1 setup
//! and its §5 production scenario): jobs arrive over time at the
//! submission queue, and the on-line batch wrapper (§2.2) schedules each
//! batch with DEMT.
//!
//! Compares the on-line result with the clairvoyant off-line schedule to
//! illustrate the `2ρ` batch argument empirically.
//!
//! ```text
//! cargo run --release --example cluster_day
//! ```

use demt::prelude::*;
use rand::Rng;

fn main() {
    let m = 32;
    let n = 60;

    // Mixed daytime workload: mostly small interactive jobs, a few large
    // simulations (the paper's mixed model), arriving as a Poisson-ish
    // stream over the morning.
    let inst = generate(WorkloadKind::Mixed, n, m, 2024);
    let mut rng = demt::distr::seeded_rng(99);
    let mut arrival = 0.0_f64;
    let jobs: Vec<OnlineJob> = inst
        .tasks()
        .iter()
        .map(|t| {
            arrival += rng.random_range(0.0..0.6);
            OnlineJob {
                task: t.clone(),
                release: arrival,
            }
        })
        .collect();
    let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
    println!(
        "{} jobs arriving over [0, {:.1}] on {} processors",
        n,
        releases.last().unwrap(),
        m
    );

    // On-line: batches of everything released so far, each scheduled by
    // the registry's DEMT entry ("an arriving job is scheduled in the
    // next starting batch").
    let online =
        try_online_batch_schedule(m, &jobs, registry().by_name("demt").expect("registered"))
            .expect("a valid feed");
    validate_with_releases(&inst, &online.schedule, Some(&releases)).expect("feasible");

    println!("\non-line batches:");
    for (i, b) in online.batches.iter().enumerate() {
        println!(
            "  batch {:>2}: start {:>7.2}  length {:>7.2}  jobs {:>3}",
            i,
            b.start,
            b.length,
            b.jobs.len()
        );
    }

    // Clairvoyant comparison: all jobs known at time 0.
    let offline = demt_schedule(&inst, &DemtConfig::default());
    let on_crit = Criteria::evaluate(&inst, &online.schedule);
    let off_crit = &offline.criteria;
    let last_release = releases.iter().cloned().fold(0.0, f64::max);

    println!("\n{:<28} {:>10} {:>12}", "", "Cmax", "Σ wᵢCᵢ");
    println!(
        "{:<28} {:>10.2} {:>12.1}",
        "on-line (batched DEMT)", on_crit.makespan, on_crit.weighted_completion
    );
    println!(
        "{:<28} {:>10.2} {:>12.1}",
        "clairvoyant off-line DEMT", off_crit.makespan, off_crit.weighted_completion
    );
    println!(
        "\non-line Cmax / (off-line Cmax + last release) = {:.2}  (§2.2 argument bounds this by ρ ≈ 2)",
        on_crit.makespan / (off_crit.makespan + last_release)
    );
}
