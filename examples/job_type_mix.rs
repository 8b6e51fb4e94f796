//! Two job types in one instance: **moldable** jobs (Cirne model) and
//! **rigid** jobs (user-fixed sizes), co-scheduled by DEMT — a rigid
//! job is a moldable task whose only finite allotment is its size, so
//! "the mix of different types of jobs" the paper leaves as future work
//! needs no special case.
//!
//! ```text
//! cargo run --release --example job_type_mix
//! ```

use demt::model::MoldableTask;
use demt::prelude::*;

fn main() {
    let m = 24;

    // 10 moldable jobs from the Cirne model.
    let moldable = generate(WorkloadKind::Cirne, 10, m, 31);

    let mut b = InstanceBuilder::new(m);
    for t in moldable.tasks() {
        b.push_task(t.clone()).unwrap();
    }
    // 4 rigid jobs.
    for &(procs, time, w) in &[
        (4usize, 2.0, 3.0),
        (8, 1.5, 1.0),
        (2, 4.0, 2.0),
        (6, 2.5, 1.5),
    ] {
        let id = b.next_id();
        b.push_task(MoldableTask::rigid(id, w, procs, time, m).unwrap())
            .unwrap();
    }
    let inst = b.build().unwrap();
    println!("{} jobs on {m} nodes: 10 moldable + 4 rigid\n", inst.len());

    let r = demt_schedule(&inst, &DemtConfig::default());
    validate(&inst, &r.schedule).unwrap();
    let bounds = instance_bounds(&inst, &BoundConfig::default());
    println!(
        "DEMT on the mix: Cmax {:.2} (ratio {:.2}), ΣwᵢCᵢ {:.1} (ratio {:.2})",
        r.criteria.makespan,
        r.criteria.makespan / bounds.cmax,
        r.criteria.weighted_completion,
        r.criteria.weighted_completion / bounds.minsum
    );

    println!("\nGantt (moldable jobs are 0-9, rigid jobs are A-D):");
    print!("{}", render_gantt(&r.schedule, 76));
}
