//! The §5 open problems, exercised together: **node reservations**
//! ("the reservation of nodes which reduces the size of the cluster")
//! and a **mix of job types** (moldable jobs alongside rigid ones).
//!
//! A 16-node cluster has a rolling maintenance window (4 nodes down for
//! the first third of the horizon, another 4 down for the middle
//! third). The workload mixes moldable Cirne jobs with rigid jobs at
//! user-fixed sizes. DEMT plans the batch order and allotments; the
//! reservation-aware backfilling engine of `demt-platform` places the
//! resulting list around the windows.
//!
//! ```text
//! cargo run --release --example maintenance_window
//! ```

use demt::model::MoldableTask;
use demt::prelude::*;

fn main() {
    let m = 16;

    // Workload: 14 moldable jobs + 6 rigid jobs (power-of-two sizes).
    let moldable = generate(WorkloadKind::Cirne, 14, m, 99);
    let mut b = InstanceBuilder::new(m);
    for t in moldable.tasks() {
        b.push_task(t.clone()).unwrap();
    }
    for (i, &(procs, time)) in [
        (4usize, 3.0),
        (2, 5.0),
        (8, 2.0),
        (1, 6.0),
        (4, 2.5),
        (2, 4.0),
    ]
    .iter()
    .enumerate()
    {
        let id = b.next_id();
        b.push_task(MoldableTask::rigid(id, 2.0 + i as f64 * 0.5, procs, time, m).unwrap())
            .unwrap();
    }
    let inst = b.build().unwrap();
    println!(
        "{} jobs ({} moldable + 6 rigid) on {} nodes",
        inst.len(),
        14,
        m
    );

    // DEMT plans order + allotments on the full machine.
    let plan = demt_schedule(&inst, &DemtConfig::default());
    let order: Vec<ListTask> = {
        let mut placements = plan.schedule.placements().to_vec();
        placements.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        placements
            .iter()
            .map(|p| ListTask::new(p.task, p.alloc(), p.duration))
            .collect()
    };

    // Rolling maintenance: nodes 12-15 down during [0, 8), nodes 8-11
    // down during [8, 16).
    let reservations = vec![
        Reservation {
            start: 0.0,
            duration: 8.0,
            procs: vec![12, 13, 14, 15],
        },
        Reservation {
            start: 8.0,
            duration: 8.0,
            procs: vec![8, 9, 10, 11],
        },
    ];
    let schedule = backfill_schedule(m, &order, &reservations);
    validate(&inst, &schedule).unwrap();
    let with_res = Criteria::evaluate(&inst, &schedule);
    let without = &plan.criteria;

    println!("\nmaintenance: nodes 12-15 down in [0,8), nodes 8-11 down in [8,16)\n");
    println!(
        "{:<28} {:>10} {:>14} {:>12}",
        "", "Cmax", "Σ wᵢCᵢ", "utilization"
    );
    println!(
        "{:<28} {:>10.2} {:>14.1} {:>11.0}%",
        "full cluster (DEMT)",
        without.makespan,
        without.weighted_completion,
        without.utilization * 100.0
    );
    println!(
        "{:<28} {:>10.2} {:>14.1} {:>11.0}%",
        "with maintenance windows",
        with_res.makespan,
        with_res.weighted_completion,
        with_res.utilization * 100.0
    );
    println!(
        "\nreservation cost: Cmax ×{:.2}, Σ wᵢCᵢ ×{:.2}",
        with_res.makespan / without.makespan,
        with_res.weighted_completion / without.weighted_completion
    );

    println!("\nschedule around the windows (reserved areas appear idle):");
    print!("{}", render_gantt(&schedule, 84));
}
