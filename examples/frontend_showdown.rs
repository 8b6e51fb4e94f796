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
    replay_queue, rigid_instance, submit_stream, ArrivalModel, QueueOrder, QueuePolicy,
    ReplayMetrics, StreamSpec,
};
use demt::online::stream_batch_schedule;
use demt::prelude::*;

/// One discipline's decisions: the placements (for the validator), the
/// metrics fold and each job's response (for the percentile, which a
/// streaming fold does not keep).
struct Row {
    schedule: Schedule,
    metrics: ReplayMetrics,
    responses: Vec<f64>,
}

impl Row {
    fn new(m: usize) -> Self {
        Row {
            schedule: Schedule::new(m),
            metrics: ReplayMetrics::new(),
            responses: Vec::new(),
        }
    }

    fn record(&mut self, release: f64, p: &Placement) {
        self.metrics
            .record(p.task, release, p.start, p.duration, p.procs.len())
            .expect("engines start jobs after their release");
        self.responses.push(p.start + p.duration - release);
        self.schedule.push(p.clone());
    }

    /// 95th-percentile response time.
    fn p95_response(&self) -> f64 {
        let mut r = self.responses.clone();
        r.sort_by(f64::total_cmp);
        r[((r.len() as f64 * 0.95).ceil() as usize).min(r.len()) - 1]
    }
}

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
        let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();

        // Rigid paths: the queue engine over the release-sorted stream.
        let rigid_inst = rigid_instance(m, &jobs).expect("requests fit the machine");
        let queue = |policy| {
            let mut row = Row::new(m);
            replay_queue(
                m,
                jobs.iter().cloned(),
                policy,
                QueueOrder::Arrival,
                |j, p| row.record(j.release, p),
            )
            .expect("requests fit");
            validate_with_releases(&rigid_inst, &row.schedule, Some(&releases))
                .expect("queue schedule feasible");
            row
        };
        let (fcfs, easy) = (queue(QueuePolicy::Fcfs), queue(QueuePolicy::EasyBackfill));

        // Moldable path: on-line DEMT batches, resolved from the registry.
        let tasks = jobs.iter().map(|j| j.task.clone()).collect();
        let mold_inst = Instance::new(m, tasks).expect("dense job ids");
        let mut demt = Row::new(m);
        let online = jobs.iter().map(|j| OnlineJob {
            task: j.task.clone(),
            release: j.release,
        });
        let scheduler = registry().by_name("demt").expect("registered");
        stream_batch_schedule(m, online, scheduler, |placements, releases| {
            for (p, &release) in placements.iter().zip(releases) {
                demt.record(release, p);
            }
        })
        .expect("generated stream is well-formed");
        validate_with_releases(&mold_inst, &demt.schedule, Some(&releases)).expect("demt feasible");

        println!(
            "{:<26} {:>10} {:>10} {:>10} {:>10} {:>8}",
            "policy", "wait", "response", "slowdown", "p95 resp", "util"
        );
        for (name, row) in [
            ("FCFS (rigid)", &fcfs),
            ("EASY backfill (rigid)", &easy),
            ("DEMT batches (moldable)", &demt),
        ] {
            let s = row.metrics.finish(m).expect("every job placed");
            println!(
                "{:<26} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>7.0}%",
                name,
                s.mean_wait,
                s.mean_response,
                s.mean_bounded_slowdown,
                row.p95_response(),
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
