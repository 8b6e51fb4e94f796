//! The FCFS / EASY-backfilling queue engine, streamed over a job feed.
//!
//! [`replay_queue`] runs the front-end's one queue engine: an arrival
//! cursor over the feed, a waiting queue ordered by [`QueueOrder`], a
//! completion-ordered running set, [`FreeSet`] processor identities,
//! and an EASY head reservation answered by a [`Skyline`] of the
//! windows in flight. It never holds the stream or the schedule. Jobs
//! are pulled from the feed as virtual time reaches their release,
//! each placement is handed to a callback at decision time and
//! dropped, and live state is bounded by the jobs currently queued or
//! running. That is what lets `demt replaybench` push archive-scale
//! traces (10⁶+ jobs) through the queue disciplines in constant memory.
//!
//! [`queue_schedule`](crate::queue_schedule) collects the same engine
//! over a slice. Both are tested against an independent
//! quadratic rescan loop, compiled only under `#[cfg(test)]` (the
//! crate's `difftests`).

use crate::stream::SubmittedJob;
use crate::{QueueOrder, QueuePolicy};
use demt_model::{ProcSet, TaskId};
use demt_platform::{FreeSet, Placement, Skyline};
use std::borrow::Borrow;
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
    run_queue(m, jobs.into_iter().enumerate(), policy, order, |j, p| {
        on_start(j, &p)
    })
}

/// The queue engine. Each job comes with a sequence key, unique per
/// job: the waiting queue breaks priority ties by it (so it is the
/// arrival order), and [`ReplayError::OutOfOrder`] reports it as the
/// feed position.
pub(crate) fn run_queue<J, I, F>(
    m: usize,
    jobs: I,
    policy: QueuePolicy,
    order: QueueOrder,
    mut on_start: F,
) -> Result<ReplayOutcome, ReplayError>
where
    J: Borrow<SubmittedJob>,
    I: IntoIterator<Item = (usize, J)>,
    F: FnMut(&SubmittedJob, Placement),
{
    let mut feed = jobs.into_iter().peekable();
    let mut prev = f64::NEG_INFINITY;
    // Waiting jobs by (priority, sequence key): weight descending under
    // `Priority` (`order_bits` makes the float key total-order safe),
    // a constant under `Arrival`.
    let mut waiting: BTreeMap<(Reverse<u64>, usize), J> = BTreeMap::new();
    // Running windows by (completion, sequence key), with their start,
    // identities and width. Completions are finite and non-negative, so
    // the bit pattern orders like the value.
    let mut running: BTreeMap<(u64, usize), (f64, ProcSet, usize)> = BTreeMap::new();
    let mut free = FreeSet::full(m);
    let mut sky = Skyline::new(m);
    let mut now = 0.0_f64;
    let mut outcome = ReplayOutcome {
        decisions: 0,
        makespan: 0.0,
    };
    loop {
        // Admit every job released by `now`, validating on the way in.
        while let Some((seq, j)) = feed.next_if(|(_, j)| j.borrow().release <= now + 1e-12) {
            let job = j.borrow();
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
            waiting.insert((priority, seq), j);
        }
        // Start jobs at `now` until none can.
        while let Some(key) = next_start(&waiting, &free, &sky, now, policy) {
            let Some(j) = waiting.remove(&key) else { break };
            let job = j.borrow();
            let d = job.rigid_time();
            let end = now + d;
            let procs = free.take_lowest(job.rigid_procs);
            sky.commit_until(now, end, job.rigid_procs);
            running.insert(
                (end.to_bits(), key.1),
                (now, procs.clone(), job.rigid_procs),
            );
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
            on_start(job, placement);
        }
        if waiting.is_empty() && feed.peek().is_none() {
            return Ok(outcome);
        }
        // Advance time to the next event: completion or arrival.
        let next_completion = running
            .first_key_value()
            .map_or(f64::INFINITY, |(&(c, _), _)| f64::from_bits(c));
        let next_arrival = feed
            .peek()
            .map_or(f64::INFINITY, |(_, j)| j.borrow().release);
        let next = next_completion.min(next_arrival);
        if !next.is_finite() {
            return Err(ReplayError::Stalled {
                waiting: waiting.len(),
            });
        }
        now = next;
        // Release completed jobs: identities back to the pool, windows
        // out of the skyline (keeping its segment count bounded).
        while let Some(done) = running.first_entry() {
            let end = f64::from_bits(done.key().0);
            if end > now + 1e-12 {
                break;
            }
            let (start, procs, k) = done.remove();
            sky.release_until(start, end, k);
            free.release(&procs);
        }
    }
}

/// The waiting job to start at `now`, if any: the queue head if it
/// fits; under EASY, otherwise the first later job that fits now and
/// does not push back the head's reservation.
fn next_start<J: Borrow<SubmittedJob>>(
    waiting: &BTreeMap<(Reverse<u64>, usize), J>,
    free: &FreeSet,
    sky: &Skyline,
    now: f64,
    policy: QueuePolicy,
) -> Option<(Reverse<u64>, usize)> {
    let (&head_key, head) = waiting.first_key_value()?;
    let head = head.borrow();
    if head.rigid_procs <= free.len() {
        return Some(head_key);
    }
    if policy == QueuePolicy::Fcfs {
        return None;
    }
    // Head reservation: only completions lie ahead of `now` in the
    // skyline, so the free count never decreases and the earliest window
    // start is the earliest instant the head's processors are free.
    let t_r = sky.earliest_fit(now, head.rigid_time(), head.rigid_procs);
    // Processors free at t_r once the head starts, with a tolerance on
    // completions landing at t_r.
    let slack = sky.free_at(t_r + 1e-12) - head.rigid_procs;
    // A later job may jump ahead iff it fits now and either finishes
    // before the reservation or fits in the processors it leaves spare.
    waiting
        .iter()
        .skip(1)
        .find(|&(_, j)| {
            let j: &SubmittedJob = j.borrow();
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
