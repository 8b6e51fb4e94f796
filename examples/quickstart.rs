//! Quickstart: generate a workload, schedule it with DEMT, compare both
//! criteria against the baselines and the certified lower bounds, and
//! print a Gantt chart.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use demt::prelude::*;

fn main() {
    // A small cluster and a realistic moldable workload (the paper's
    // Cirne–Berman model): 24 jobs on 16 processors.
    let m = 16;
    let inst = generate(WorkloadKind::Cirne, 24, m, 7);
    println!(
        "instance: {} moldable jobs on {} processors (total minimal work {:.1})",
        inst.len(),
        inst.procs(),
        inst.stats().total_min_work
    );

    // Certified lower bounds for both criteria (§3.3 of the paper).
    let bounds = instance_bounds(&inst, &BoundConfig::default());
    println!(
        "lower bounds: Cmax ≥ {:.2},  Σ wᵢCᵢ ≥ {:.1}\n",
        bounds.cmax, bounds.minsum
    );

    // DEMT (the paper's algorithm) and the five §4.1 baselines, all
    // resolved from the workspace registry; the shared context computes
    // the dual approximation once for everyone.
    let mut ctx = SchedulerContext::new();
    println!(
        "{:<16} {:>10} {:>8} {:>12} {:>8}",
        "algorithm", "Cmax", "ratio", "Σ wᵢCᵢ", "ratio"
    );
    for alg in registry().all() {
        let r = alg.schedule(&inst, &mut ctx);
        validate(&inst, &r.schedule).unwrap();
        println!(
            "{:<16} {:>10.2} {:>8.2} {:>12.1} {:>8.2}",
            alg.legend(),
            r.criteria.makespan,
            r.criteria.makespan / bounds.cmax,
            r.criteria.weighted_completion,
            r.criteria.weighted_completion / bounds.minsum
        );
    }

    // The DEMT result struct still exposes the batch-plan diagnostics.
    let demt = demt_schedule(&inst, &DemtConfig::default());

    println!(
        "\nDEMT schedule (each column ≈ {:.2} time units):",
        demt.criteria.makespan / 72.0
    );
    print!("{}", render_gantt(&demt.schedule, 72));
    println!(
        "\nutilization {:.0}%  idle area {:.1}  batches used: {}",
        Criteria::evaluate(&inst, &demt.schedule).utilization * 100.0,
        demt.criteria.idle_area,
        demt.plan.batches.len()
    );
}
