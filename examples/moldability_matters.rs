//! Why moldability matters (the paper's §2.1 pitch): the same jobs
//! scheduled (a) rigidly at user-requested sizes, (b) moldably by DEMT.
//!
//! Rigid requests are emulated with the model crate's rigid-task
//! builder; DEMT then schedules the *moldable* originals and wins on
//! both criteria by choosing allotments itself.
//!
//! ```text
//! cargo run --release --example moldability_matters
//! ```

use demt::model::MoldableTask;
use demt::prelude::*;
use rand::Rng;

fn main() {
    let m = 32;
    let n = 48;
    let moldable = generate(WorkloadKind::Cirne, n, m, 77);

    // Users traditionally over-request: a rigid size drawn near the
    // task's speed-up knee, rounded up to a power of two (classic
    // submission habit).
    let mut rng = demt::distr::seeded_rng(1234);
    let mut b = InstanceBuilder::new(m);
    for t in moldable.tasks() {
        // "Knee": smallest k achieving 80% of the maximal speed-up.
        let best = t.seq_time() / t.min_time();
        let knee = (1..=m)
            .find(|&k| t.seq_time() / t.time(k) >= 0.8 * best)
            .unwrap_or(1);
        let req = (knee.next_power_of_two()).min(m).max(1);
        let jitter = if rng.random::<f64>() < 0.3 { 2 } else { 1 };
        let req = (req * jitter).min(m);
        b.push_task(MoldableTask::rigid(t.id(), t.weight(), req, t.time(req), m).unwrap())
            .unwrap();
    }
    let rigid = b.build().unwrap();

    let rigid_result = demt_schedule(&rigid, &DemtConfig::default());
    validate(&rigid, &rigid_result.schedule).unwrap();
    let moldable_result = demt_schedule(&moldable, &DemtConfig::default());
    validate(&moldable, &moldable_result.schedule).unwrap();

    // Both instances have identical work semantics at the rigid size, so
    // criteria are directly comparable.
    println!(
        "{} jobs on {} processors — rigid requests vs moldable scheduling\n",
        n, m
    );
    println!(
        "{:<22} {:>10} {:>14} {:>12}",
        "", "Cmax", "Σ wᵢCᵢ", "utilization"
    );
    let rc = &rigid_result.criteria;
    let mc = &moldable_result.criteria;
    println!(
        "{:<22} {:>10.2} {:>14.1} {:>11.0}%",
        "rigid (user sizes)",
        rc.makespan,
        rc.weighted_completion,
        rc.utilization * 100.0
    );
    println!(
        "{:<22} {:>10.2} {:>14.1} {:>11.0}%",
        "moldable (DEMT)",
        mc.makespan,
        mc.weighted_completion,
        mc.utilization * 100.0
    );
    println!(
        "\nmoldability gains: Cmax ×{:.2}, Σ wᵢCᵢ ×{:.2}",
        rc.makespan / mc.makespan,
        rc.weighted_completion / mc.weighted_completion
    );
    println!(
        "\n(the paper's §2.1 argument: most parallel applications are\n\
         intrinsically moldable, and handing the allotment choice to the\n\
         scheduler recovers the idle areas rigid requests leave behind)"
    );
}
