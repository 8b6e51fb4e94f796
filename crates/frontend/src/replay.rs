//! The FCFS / EASY-backfilling queue engine, streamed over a job feed.
//!
//! [`replay_queue`] runs the front-end's one queue engine: an arrival
//! cursor over the feed, a waiting queue ordered by [`QueueOrder`], a
//! completion-ordered running set, [`FreeSet`] processor identities,
//! and an EASY head reservation read off the running set in completion
//! order. It never holds the stream or the schedule. Jobs
//! are pulled from the feed as virtual time reaches their release,
//! each placement is handed to a callback at decision time and
//! dropped, and live state is bounded by the jobs currently queued or
//! running. That is what lets `demt replaybench` push archive-scale
//! traces (10⁶+ jobs) through the queue disciplines in constant memory.
//!
//! `demt frontend` and `demt swf` fold their FCFS and EASY rows from
//! it too. It is tested against an independent quadratic rescan loop,
//! compiled only under `#[cfg(test)]` (the crate's `difftests`).

use crate::stream::SubmittedJob;
use crate::{QueueOrder, QueuePolicy};
use demt_model::{ProcSet, TaskId};
use demt_platform::{FreeSet, Placement};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// Rejected replay feed or a wedged simulation, reported by
/// [`replay_queue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayError {
    /// The feed went backwards in time: streaming admission needs
    /// non-decreasing release dates.
    OutOfOrder {
        /// Position in the feed.
        index: usize,
        /// The offending release date.
        release: f64,
        /// The release date that preceded it.
        prev: f64,
    },
    /// A job's rigid request does not fit the machine (`0` or more than
    /// `m` processors) — it could never start, so the feed is rejected
    /// rather than wedging the queue.
    BadRequest {
        /// Offending job.
        task: TaskId,
        /// Requested processors.
        procs: usize,
        /// Machine size.
        m: usize,
    },
    /// No event can advance the simulation although jobs still wait —
    /// an engine invariant violation surfaced as an error instead of a
    /// hang.
    Stalled {
        /// Jobs still waiting.
        waiting: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ReplayError::OutOfOrder {
                index,
                release,
                prev,
            } => write!(
                f,
                "replay feed out of order at position {index}: release {release} after {prev}"
            ),
            ReplayError::BadRequest { task, procs, m } => {
                write!(f, "{task} requests {procs} of {m} processors")
            }
            ReplayError::Stalled { waiting } => {
                write!(f, "replay stalled with {waiting} jobs waiting")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Summary counters of a streamed replay, returned by [`replay_queue`]
/// (the placements themselves went to the callback, one at a time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOutcome {
    /// Placements emitted (one per job).
    pub decisions: usize,
    /// Latest completion instant (`0` for an empty feed).
    pub makespan: f64,
}

/// Running jobs by (completion, sequence key), with their processor
/// identities and width. Completions are finite and non-negative, so
/// the bit pattern orders like the value.
type Running = BTreeMap<(u64, usize), (ProcSet, usize)>;

/// Simulates the front-end queue disciplines over a release-sorted job
/// feed on `m` processors, invoking `on_start` once per job **at
/// decision time** with the job and its placement (explicit processor
/// identities included), then dropping both. Memory is bounded by the
/// jobs simultaneously queued or running, never by the feed length.
///
/// The feed must be sorted by release date
/// ([`ReplayError::OutOfOrder`]) and every request must fit the machine
/// ([`ReplayError::BadRequest`]). Jobs of equal priority queue in feed
/// order.
pub fn replay_queue<I, F>(
    m: usize,
    jobs: I,
    policy: QueuePolicy,
    order: QueueOrder,
    mut on_start: F,
) -> Result<ReplayOutcome, ReplayError>
where
    I: IntoIterator<Item = SubmittedJob>,
    F: FnMut(&SubmittedJob, &Placement),
{
    // Each job's feed position is its sequence key: the waiting queue
    // breaks priority ties by it (so it is the arrival order), and
    // [`ReplayError::OutOfOrder`] reports it.
    let mut feed = jobs.into_iter().enumerate().peekable();
    let mut prev = f64::NEG_INFINITY;
    // Waiting jobs by (priority, sequence key): weight descending under
    // `Priority` (`order_bits` makes the float key total-order safe),
    // a constant under `Arrival`.
    let mut waiting: BTreeMap<(Reverse<u64>, usize), SubmittedJob> = BTreeMap::new();
    let mut running: Running = BTreeMap::new();
    let mut free = FreeSet::full(m);
    let mut now = 0.0_f64;
    let mut outcome = ReplayOutcome {
        decisions: 0,
        makespan: 0.0,
    };
    loop {
        // Admit every job released by `now`, validating on the way in.
        while let Some((seq, job)) = feed.next_if(|(_, j)| j.release <= now + 1e-12) {
            if job.release < prev {
                return Err(ReplayError::OutOfOrder {
                    index: seq,
                    release: job.release,
                    prev,
                });
            }
            prev = job.release;
            if job.rigid_procs < 1 || job.rigid_procs > m {
                return Err(ReplayError::BadRequest {
                    task: job.task.id(),
                    procs: job.rigid_procs,
                    m,
                });
            }
            let priority = match order {
                QueueOrder::Arrival => Reverse(0u64),
                QueueOrder::Priority => Reverse(order_bits(job.task.weight())),
            };
            waiting.insert((priority, seq), job);
        }
        // Start jobs at `now` until none can.
        while let Some(key) = next_start(&waiting, &free, &running, now, policy) {
            let Some(job) = waiting.remove(&key) else {
                break;
            };
            let d = job.rigid_time();
            let end = now + d;
            let procs = free.take_lowest(job.rigid_procs);
            running.insert((end.to_bits(), key.1), (procs.clone(), job.rigid_procs));
            outcome.decisions += 1;
            if end > outcome.makespan {
                outcome.makespan = end;
            }
            let placement = Placement {
                task: job.task.id(),
                start: now,
                duration: d,
                procs,
            };
            on_start(&job, &placement);
        }
        if waiting.is_empty() && feed.peek().is_none() {
            return Ok(outcome);
        }
        // Advance time to the next event: completion or arrival.
        let next_completion = running
            .first_key_value()
            .map_or(f64::INFINITY, |(&(c, _), _)| f64::from_bits(c));
        let next_arrival = feed.peek().map_or(f64::INFINITY, |(_, j)| j.release);
        let next = next_completion.min(next_arrival);
        if !next.is_finite() {
            return Err(ReplayError::Stalled {
                waiting: waiting.len(),
            });
        }
        now = next;
        // Release completed jobs: identities back to the pool.
        while let Some(done) = running.first_entry() {
            if f64::from_bits(done.key().0) > now + 1e-12 {
                break;
            }
            free.release(&done.remove().0);
        }
    }
}

/// The waiting job to start at `now`, if any: the queue head if it
/// fits; under EASY, otherwise the first later job that fits now and
/// does not push back the head's reservation.
fn next_start(
    waiting: &BTreeMap<(Reverse<u64>, usize), SubmittedJob>,
    free: &FreeSet,
    running: &Running,
    now: f64,
    policy: QueuePolicy,
) -> Option<(Reverse<u64>, usize)> {
    let (&head_key, head) = waiting.first_key_value()?;
    if head.rigid_procs <= free.len() {
        return Some(head_key);
    }
    if policy == QueuePolicy::Fcfs {
        return None;
    }
    // Head reservation, read off the running jobs in completion order.
    // Every one of them started by `now`, so at any t ≥ now the free
    // count is `free.len()` plus the widths of those ending by t, and it
    // never decreases: t_r is the first completion at which it covers
    // the head (by the last completion at the latest: admission rejects
    // requests wider than the machine).
    let mut ends = running
        .iter()
        .map(|(&(end, _), &(_, k))| (f64::from_bits(end), k));
    let mut count = free.len();
    let t_r = ends.find_map(|(end, k)| {
        count += k;
        (count >= head.rigid_procs).then_some(end)
    })?;
    // Processors free at t_r once the head starts, with a tolerance on
    // completions landing just after t_r.
    count += ends
        .take_while(|&(end, _)| end <= t_r + 1e-12)
        .map(|(_, k)| k)
        .sum::<usize>();
    let slack = count - head.rigid_procs;
    // A later job may jump ahead iff it fits now and either finishes
    // before the reservation or fits in the processors it leaves spare.
    waiting
        .iter()
        .skip(1)
        .find(|&(_, j)| {
            j.rigid_procs <= free.len()
                && (now + j.rigid_time() <= t_r + 1e-12 || j.rigid_procs <= slack)
        })
        .map(|(&key, _)| key)
}

/// Maps an `f64` onto a `u64` whose natural order equals
/// [`f64::total_cmp`], so float priorities can key a [`BTreeMap`].
fn order_bits(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::MoldableTask;

    fn job(id: usize, release: f64, procs: usize, time: f64, m: usize) -> SubmittedJob {
        SubmittedJob {
            task: MoldableTask::rigid(TaskId(id), 1.0, procs, time, m).unwrap(),
            release,
            rigid_procs: procs,
        }
    }

    #[test]
    fn unsorted_feed_is_a_typed_error() {
        let m = 2;
        let jobs = vec![job(0, 5.0, 1, 1.0, m), job(1, 1.0, 1, 1.0, m)];
        assert!(matches!(
            replay_queue(m, jobs, QueuePolicy::Fcfs, QueueOrder::Arrival, |_, _| {}),
            Err(ReplayError::OutOfOrder { index: 1, .. })
        ));
    }

    #[test]
    fn oversized_request_is_a_typed_error() {
        let m = 2;
        // Build on a 4-proc machine so the request (3) is representable,
        // then replay on m = 2 where it can never fit.
        let jobs = vec![job(0, 0.0, 3, 1.0, 4)];
        assert!(matches!(
            replay_queue(m, jobs, QueuePolicy::Fcfs, QueueOrder::Arrival, |_, _| {}),
            Err(ReplayError::BadRequest {
                task: TaskId(0),
                procs: 3,
                m: 2
            })
        ));
    }

    #[test]
    fn empty_feed_yields_an_empty_outcome() {
        let out = replay_queue(
            4,
            std::iter::empty(),
            QueuePolicy::EasyBackfill,
            QueueOrder::Arrival,
            |_, _| panic!("no placements expected"),
        )
        .unwrap();
        assert_eq!(out.decisions, 0);
        assert_eq!(out.makespan, 0.0);
    }
}
