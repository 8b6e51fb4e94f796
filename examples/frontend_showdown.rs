//! The paper's motivating comparison, end to end: a cluster front-end
//! receiving a live job stream (Fig. 1) under three disciplines —
//!
//! 1. **FCFS** over rigid user requests (§1.2's "simple rules"),
//! 2. **EASY backfilling** over the same rigid requests (MAUI-style),
//! 3. **DEMT batches** exploiting moldability (the paper's system,
//!    lifted on-line with the §2.2 batch framework).
//!
//! Reports the operator metrics: mean wait, mean response, bounded
//! slowdown, p95 response, utilization — at two congestion levels.
//!
//! ```text
//! cargo run --release --example frontend_showdown
//! ```

use demt::frontend::{
    moldable_schedule, queue_schedule, rigid_instance, submit_stream, try_stream_metrics,
    ArrivalModel, QueuePolicy, StreamSpec,
};
use demt::prelude::*;

fn main() {
    let m = 32;
    for (label, gap, arrivals) in [
        ("relaxed (1 job / 1.2t)", 1.2, ArrivalModel::Poisson),
        ("congested (1 job / 0.3t)", 0.3, ArrivalModel::Poisson),
        ("bursty (Pareto α=1.8)", 0.3, ArrivalModel::Pareto),
    ] {
        let spec = StreamSpec {
            kind: WorkloadKind::Cirne,
            jobs: 80,
            procs: m,
            mean_interarrival: gap,
            arrivals,
            pareto_shape: 1.8,
            seed: 4242,
        };
        let jobs = submit_stream(&spec);
        println!(
            "=== {label}: {} jobs on {m} nodes over [0, {:.1}] ===",
            jobs.len(),
            jobs.last().unwrap().release
        );

        // Rigid paths.
        let rigid_inst = rigid_instance(m, &jobs).expect("requests fit the machine");
        let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
        let fcfs = queue_schedule(m, &jobs, QueuePolicy::Fcfs).expect("requests fit");
        validate_with_releases(&rigid_inst, &fcfs, Some(&releases)).expect("fcfs feasible");
        let easy = queue_schedule(m, &jobs, QueuePolicy::EasyBackfill).expect("requests fit");
        validate_with_releases(&rigid_inst, &easy, Some(&releases)).expect("easy feasible");

        // Moldable path: on-line DEMT, resolved from the registry.
        let tasks = jobs.iter().map(|j| j.task.clone()).collect();
        let mold_inst = Instance::new(m, tasks).expect("dense job ids");
        let demt = moldable_schedule(m, &jobs, registry().by_name("demt").expect("registered"))
            .expect("generated stream is well-formed");
        validate_with_releases(&mold_inst, &demt, Some(&releases)).expect("demt feasible");

        println!(
            "{:<26} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "policy", "wait", "response", "slowdown", "p95 resp", "util"
        );
        for (name, schedule) in [
            ("FCFS (rigid)", &fcfs),
            ("EASY backfill (rigid)", &easy),
            ("DEMT batches (moldable)", &demt),
        ] {
            let s = try_stream_metrics(&jobs, schedule, m).expect("every job placed");
            println!(
                "{:<26} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>7.0}%",
                name,
                s.mean_wait,
                s.mean_response,
                s.mean_bounded_slowdown,
                s.p95_response,
                s.utilization * 100.0
            );
        }
        println!();
    }
    println!(
        "(what the table shows: backfilling helps rigid queues under\n\
         congestion, but moldability — the paper's §2.1 thesis — is the\n\
         structurally bigger lever on response time)"
    );
}
