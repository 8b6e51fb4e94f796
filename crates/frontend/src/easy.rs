//! FCFS and EASY-backfilling engines over rigid job requests.
//!
//! The paper's related work (§1.2): "the basic idea in job schedulers is
//! to queue jobs and schedule them one after the other using some
//! simple rules like FCFS with priorities. MAUI extends the model with
//! additional features like fairness and backfilling." Both disciplines
//! are implemented here, event-driven:
//!
//! * [`QueuePolicy::Fcfs`] — strict first-come-first-served: the queue
//!   head starts as soon as its request fits; nothing overtakes it.
//! * [`QueuePolicy::EasyBackfill`] — EASY (aggressive) backfilling: the
//!   head receives a *reservation* at the earliest instant enough
//!   processors free up, and later jobs may start immediately iff they
//!   do not push that reservation back (they either finish before it or
//!   fit in the processors it leaves spare).
//!
//! One engine implements both, streamed over a feed in release order:
//! [`replay_queue`](crate::replay_queue). A separate quadratic rescan
//! loop over a slice, `queue_schedule_scan`, is compiled only under
//! `#[cfg(test)]`, as the oracle the engine is tested against.

use serde::{Deserialize, Serialize};
#[cfg(test)]
use {
    crate::stream::SubmittedJob,
    demt_model::ProcSet,
    demt_platform::{Placement, Schedule},
};

/// Queueing discipline of the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueuePolicy {
    /// Strict FCFS: only the queue head may start.
    Fcfs,
    /// EASY backfilling: later jobs may jump ahead if they provably do
    /// not delay the head's reservation.
    EasyBackfill,
}

/// Order of the waiting queue (the paper's Fig. 1 shows "several
/// priority queues" at the front-end).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueOrder {
    /// Submission order (classic FCFS queue).
    Arrival,
    /// Task weight, heaviest first; submission order breaks ties —
    /// emulates priority queues collapsed into one ordered queue.
    Priority,
}

/// The queue engine collected over a release-sorted slice in `order`,
/// for tests that inspect whole schedules: each placement of
/// [`replay_queue`](crate::replay_queue) is pushed in decision order.
#[cfg(test)]
pub(crate) fn replay_schedule(
    m: usize,
    jobs: &[SubmittedJob],
    policy: QueuePolicy,
    order: QueueOrder,
) -> Schedule {
    let mut s = Schedule::new(m);
    crate::replay_queue(m, jobs.iter().cloned(), policy, order, |_, p| {
        s.push(p.clone())
    })
    .expect("release-sorted feeds of fitting requests replay cleanly");
    s
}

/// The per-round rescan engine, an independent differential oracle for
/// the queue engine: [`replay_queue`](crate::replay_queue) must agree
/// with it bit for bit on every release-sorted stream (the crate's
/// `difftests`). Quadratic in the stream length.
#[cfg(test)]
pub(crate) fn queue_schedule_scan(
    m: usize,
    jobs: &[SubmittedJob],
    policy: QueuePolicy,
    order: QueueOrder,
) -> Schedule {
    for j in jobs {
        assert!(
            j.rigid_procs >= 1 && j.rigid_procs <= m,
            "job {} requests {} of {m} processors",
            j.task.id(),
            j.rigid_procs
        );
    }
    let n = jobs.len();
    let mut schedule = Schedule::new(m);
    let mut started = vec![false; n];
    // Running set: (completion, processor ids).
    let mut running: Vec<(f64, Vec<u32>)> = Vec::new();
    let mut free: Vec<u32> = (0..m as u32).collect();
    let mut now = 0.0_f64;

    let mut remaining = n;
    while remaining > 0 {
        // Queue = arrived, not yet started, in the chosen order.
        let mut queue: Vec<usize> = (0..n)
            .filter(|&i| !started[i] && jobs[i].release <= now + 1e-12)
            .collect();
        if order == QueueOrder::Priority {
            queue.sort_by(|&a, &b| {
                jobs[b]
                    .task
                    .weight()
                    .total_cmp(&jobs[a].task.weight())
                    .then(a.cmp(&b))
            });
        }

        let mut progress = false;
        if let Some(&head) = queue.first() {
            // 1. Start the head if it fits right now.
            if jobs[head].rigid_procs <= free.len() {
                start_job(&mut schedule, &mut running, &mut free, jobs, head, now);
                started[head] = true;
                remaining -= 1;
                progress = true;
            } else if policy == QueuePolicy::EasyBackfill {
                // 2. Head reservation: earliest t_r where enough
                // *processors* accumulate, walking the running jobs in
                // completion order.
                let need = jobs[head].rigid_procs - free.len();
                let mut by_completion: Vec<(f64, usize)> =
                    running.iter().map(|(c, procs)| (*c, procs.len())).collect();
                by_completion.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut cum = 0usize;
                let mut t_r = f64::INFINITY;
                for &(c, k) in &by_completion {
                    cum += k;
                    if cum >= need {
                        t_r = c;
                        break;
                    }
                }
                debug_assert!(t_r.is_finite(), "head must eventually fit");
                // Processors free at t_r once the head starts: everything
                // free now + releases up to t_r, minus the head's demand.
                let released: usize = by_completion
                    .iter()
                    .filter(|&&(c, _)| c <= t_r + 1e-12)
                    .map(|&(_, k)| k)
                    .sum();
                let slack = free.len() + released - jobs[head].rigid_procs;
                // 3. Backfill candidates, in queue order.
                for &cand in &queue[1..] {
                    let d = jobs[cand].rigid_time();
                    let k = jobs[cand].rigid_procs;
                    if k > free.len() {
                        continue;
                    }
                    let finishes_before = now + d <= t_r + 1e-12;
                    let fits_in_slack = k <= slack;
                    if finishes_before || fits_in_slack {
                        start_job(&mut schedule, &mut running, &mut free, jobs, cand, now);
                        started[cand] = true;
                        remaining -= 1;
                        progress = true;
                        // State changed: recompute from scratch.
                        break;
                    }
                }
            }
        }
        if progress {
            continue;
        }
        // Advance time to the next event: completion or arrival.
        let next_completion = running
            .iter()
            .map(|&(c, _)| c)
            .fold(f64::INFINITY, f64::min);
        let next_arrival = jobs
            .iter()
            .enumerate()
            .filter(|(i, j)| !started[*i] && j.release > now + 1e-12)
            .map(|(_, j)| j.release)
            .fold(f64::INFINITY, f64::min);
        let next = next_completion.min(next_arrival);
        assert!(
            next.is_finite(),
            "front-end stalled with {remaining} jobs left"
        );
        now = next;
        // Release completed jobs.
        let mut i = 0;
        while i < running.len() {
            if running[i].0 <= now + 1e-12 {
                let (_, procs) = running.swap_remove(i);
                free.extend(procs);
            } else {
                i += 1;
            }
        }
        free.sort_unstable();
    }
    schedule
}

#[cfg(test)]
fn start_job(
    schedule: &mut Schedule,
    running: &mut Vec<(f64, Vec<u32>)>,
    free: &mut Vec<u32>,
    jobs: &[SubmittedJob],
    idx: usize,
    now: f64,
) {
    let j = &jobs[idx];
    let procs: Vec<u32> = free.drain(..j.rigid_procs).collect();
    let d = j.rigid_time();
    schedule.push(Placement {
        task: j.task.id(),
        start: now,
        duration: d,
        procs: ProcSet::from_ids(procs.iter().copied()),
    });
    running.push((now + d, procs));
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::{MoldableTask, TaskId};

    fn job(id: usize, release: f64, procs: usize, time: f64, m: usize) -> SubmittedJob {
        weighted_job(id, release, procs, time, m, 1.0)
    }

    /// [`job`] of weight `weight`.
    fn weighted_job(
        id: usize,
        release: f64,
        procs: usize,
        time: f64,
        m: usize,
        weight: f64,
    ) -> SubmittedJob {
        SubmittedJob {
            task: MoldableTask::rigid(TaskId(id), weight, procs, time, m).unwrap(),
            release,
            rigid_procs: procs,
        }
    }

    /// The engine under `policy` in arrival order.
    fn queue(m: usize, jobs: &[SubmittedJob], policy: QueuePolicy) -> Schedule {
        replay_schedule(m, jobs, policy, QueueOrder::Arrival)
    }

    /// The FCFS engine in `order`.
    fn fcfs_in(m: usize, jobs: &[SubmittedJob], order: QueueOrder) -> Schedule {
        replay_schedule(m, jobs, QueuePolicy::Fcfs, order)
    }

    #[test]
    fn fcfs_blocks_behind_a_wide_head() {
        // Head needs the full machine; a later 1-proc job must wait
        // under FCFS even though a processor is idle.
        let m = 2;
        let jobs = vec![
            job(0, 0.0, 1, 4.0, m),
            job(1, 0.1, 2, 1.0, m), // head of queue at t=0.1, blocked until 4
            job(2, 0.2, 1, 1.0, m),
        ];
        let s = queue(m, &jobs, QueuePolicy::Fcfs);
        assert_eq!(s.placement_of(TaskId(1)).unwrap().start, 4.0);
        assert_eq!(
            s.placement_of(TaskId(2)).unwrap().start,
            5.0,
            "FCFS: no overtaking"
        );
    }

    #[test]
    fn easy_backfills_the_idle_processor() {
        let m = 2;
        let jobs = vec![
            job(0, 0.0, 1, 4.0, m),
            job(1, 0.1, 2, 1.0, m),
            job(2, 0.2, 1, 1.0, m), // finishes at 1.2 ≤ head reservation 4
        ];
        let s = queue(m, &jobs, QueuePolicy::EasyBackfill);
        assert_eq!(
            s.placement_of(TaskId(2)).unwrap().start,
            0.2,
            "EASY backfills"
        );
        // And the head is NOT delayed: still starts at 4.
        assert_eq!(s.placement_of(TaskId(1)).unwrap().start, 4.0);
    }

    #[test]
    fn easy_refuses_backfill_that_would_delay_the_head() {
        let m = 2;
        let jobs = vec![
            job(0, 0.0, 1, 4.0, m),
            job(1, 0.1, 2, 1.0, m),
            job(2, 0.2, 1, 10.0, m), // would run past the reservation and use its procs
        ];
        let s = queue(m, &jobs, QueuePolicy::EasyBackfill);
        assert_eq!(
            s.placement_of(TaskId(1)).unwrap().start,
            4.0,
            "reservation must hold"
        );
        assert!(
            s.placement_of(TaskId(2)).unwrap().start >= 4.0,
            "long narrow job cannot jump the wide head"
        );
    }

    #[test]
    fn a_completion_within_the_tolerance_of_the_reservation_counts_as_spare() {
        // m = 5. At t = 0, job 0 takes 2 processors until 4, job 1 one
        // until 4 + `late`, job 2 one until 100: one processor stays free.
        // The head (job 3, 3 wide) reserves t_r = 4, where job 0's two
        // processors join the free one. Job 4 runs past t_r on the one
        // free processor, so it may start at once only if job 1's
        // completion counts toward the reservation's spare processors.
        let m = 5;
        let stream = |late: f64| {
            vec![
                job(0, 0.0, 2, 4.0, m),
                job(1, 0.0, 1, 4.0 + late, m),
                job(2, 0.0, 1, 100.0, m),
                job(3, 0.1, 3, 1.0, m),
                job(4, 0.2, 1, 10.0, m),
            ]
        };
        // Within 1e-12 of t_r: one spare processor, job 4 backfills, and
        // the head still starts at 4 (job 1 is released with job 0).
        let jobs = stream(5e-13);
        let engine = queue(m, &jobs, QueuePolicy::EasyBackfill);
        let scan = queue_schedule_scan(m, &jobs, QueuePolicy::EasyBackfill, QueueOrder::Arrival);
        assert_eq!(engine, scan);
        assert_eq!(engine.placement_of(TaskId(4)).unwrap().start, 0.2);
        assert_eq!(engine.placement_of(TaskId(3)).unwrap().start, 4.0);
        // Past the tolerance: no spare processor, so job 4 waits for
        // job 1's completion, after the head has started.
        let jobs = stream(1e-9);
        let engine = queue(m, &jobs, QueuePolicy::EasyBackfill);
        let scan = queue_schedule_scan(m, &jobs, QueuePolicy::EasyBackfill, QueueOrder::Arrival);
        assert_eq!(engine, scan);
        assert_eq!(engine.placement_of(TaskId(3)).unwrap().start, 4.0);
        assert_eq!(engine.placement_of(TaskId(4)).unwrap().start, 4.0 + 1e-9);
    }

    #[test]
    fn both_policies_schedule_everything_exactly_once() {
        let m = 4;
        let jobs: Vec<SubmittedJob> = (0..20)
            .map(|i| job(i, i as f64 * 0.3, 1 + i % 3, 0.5 + (i % 5) as f64 * 0.4, m))
            .collect();
        for policy in [QueuePolicy::Fcfs, QueuePolicy::EasyBackfill] {
            let s = queue(m, &jobs, policy);
            assert_eq!(s.len(), 20, "{policy:?}");
            // Starts respect releases.
            for p in s.placements() {
                assert!(p.start >= jobs[p.task.index()].release - 1e-9);
            }
        }
    }

    #[test]
    fn priority_order_lets_heavy_jobs_jump_the_queue() {
        let m = 2;
        let light = job(0, 0.0, 2, 2.0, m);
        let heavy = weighted_job(1, 0.0, 2, 2.0, m, 9.0);
        let jobs = vec![light, heavy];
        let fifo = fcfs_in(m, &jobs, QueueOrder::Arrival);
        assert_eq!(fifo.placement_of(TaskId(0)).unwrap().start, 0.0);
        let prio = fcfs_in(m, &jobs, QueueOrder::Priority);
        assert_eq!(
            prio.placement_of(TaskId(1)).unwrap().start,
            0.0,
            "heavy job first"
        );
        assert_eq!(prio.placement_of(TaskId(0)).unwrap().start, 2.0);
    }

    #[test]
    fn priority_order_respects_releases() {
        let m = 2;
        let early_light = job(0, 0.0, 2, 3.0, m);
        let late_heavy = weighted_job(1, 1.0, 2, 1.0, m, 9.0);
        let jobs = vec![early_light, late_heavy];
        let s = fcfs_in(m, &jobs, QueueOrder::Priority);
        // The heavy job was not there at t=0: the light one runs first.
        assert_eq!(s.placement_of(TaskId(0)).unwrap().start, 0.0);
        assert_eq!(s.placement_of(TaskId(1)).unwrap().start, 3.0);
    }

    #[test]
    fn easy_never_has_worse_makespan_here() {
        // Not a theorem in general, but on this stream backfilling
        // strictly helps — a regression canary for the slack logic.
        let m = 4;
        let jobs: Vec<SubmittedJob> = (0..24)
            .map(|i| {
                job(
                    i,
                    i as f64 * 0.2,
                    1 + (i * 2) % 4,
                    0.4 + (i % 7) as f64 * 0.5,
                    m,
                )
            })
            .collect();
        let f = queue(m, &jobs, QueuePolicy::Fcfs).makespan();
        let e = queue(m, &jobs, QueuePolicy::EasyBackfill).makespan();
        assert!(e <= f + 1e-9, "EASY {e} vs FCFS {f}");
    }
}
