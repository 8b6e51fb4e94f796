//! # demt-online — on-line batch scheduling over release dates
//!
//! The paper's §2.2 sketches how any off-line batch scheduler with
//! competitive ratio ρ becomes an on-line algorithm with ratio 2ρ via
//! the batch framework of Shmoys–Wein–Williamson \[21\]: jobs are
//! collected while the current batch executes, and "an arriving job is
//! scheduled in the next starting batch". §5 lists the production
//! deployment of exactly this wrapper as on-going work; this crate
//! implements it as the reproduction's extension feature.
//!
//! The wrapper is scheduler-agnostic: any [`Scheduler`] — DEMT, a
//! baseline from the registry, or an ad-hoc `demt_api::FnScheduler` —
//! can be lifted with [`try_online_batch_schedule`].
//!
//! ```
//! use demt_online::{try_online_batch_schedule, OnlineJob};
//! use demt_core::DemtScheduler;
//! use demt_model::MoldableTask;
//! # use demt_model::TaskId;
//! let jobs = vec![
//!     OnlineJob { task: MoldableTask::linear(TaskId(0), 1.0, 4.0, 2).unwrap(), release: 0.0 },
//!     OnlineJob { task: MoldableTask::linear(TaskId(1), 1.0, 4.0, 2).unwrap(), release: 1.0 },
//! ];
//! let result = try_online_batch_schedule(2, &jobs, &DemtScheduler).unwrap();
//! assert_eq!(result.schedule.len(), 2);
//! ```

#![warn(missing_docs)]

use demt_api::{Scheduler, SchedulerContext};
use demt_model::{Instance, ModelError, MoldableTask, TaskId};
use demt_platform::{Placement, Schedule};
use std::collections::BTreeMap;

/// One on-line job: a moldable task plus its release date. Job ids must
/// be dense `0..n` like off-line instances.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineJob {
    /// The moldable task (its id identifies the job).
    pub task: MoldableTask,
    /// Release date — the job is unknown to the scheduler before it.
    pub release: f64,
}

/// One executed batch (diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTrace {
    /// Instant the batch started (all member jobs were released by then).
    pub start: f64,
    /// Batch length (makespan of the inner off-line schedule).
    pub length: f64,
    /// Jobs scheduled in this batch.
    pub jobs: Vec<TaskId>,
}

/// Result of the on-line wrapper.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// The combined schedule over the original job ids.
    pub schedule: Schedule,
    /// Executed batches in chronological order.
    pub batches: Vec<BatchTrace>,
}

/// Rejected job feed, reported by [`try_online_batch_schedule`].
///
/// The on-line feed is a public boundary — job sizes and release dates
/// arrive from outside (traces, CLI front-ends) — so malformed input
/// surfaces as a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// Job ids must be dense `0..n` in feed order.
    NonDenseIds {
        /// Position in the feed.
        index: usize,
        /// The id found there.
        found: TaskId,
    },
    /// A release date is negative, infinite or NaN.
    BadRelease {
        /// Offending job.
        task: TaskId,
        /// The rejected release date.
        release: f64,
    },
    /// A task's processing-time vector does not cover the machine.
    MachineMismatch {
        /// Offending job.
        task: TaskId,
        /// Processors its vector covers.
        covers: usize,
        /// Machine size `m`.
        procs: usize,
    },
    /// The validated feed still failed instance assembly — a task the
    /// per-job checks cannot see is malformed (bad weight or times).
    InvalidInstance(ModelError),
    /// A streamed feed went backwards in time: release dates must be
    /// non-decreasing for event-order admission to be well-defined.
    OutOfOrder {
        /// Position in the feed.
        index: usize,
        /// The offending release date.
        release: f64,
        /// The release date that preceded it.
        prev: f64,
    },
    /// The off-line scheduler's schedule for a batch does not hold one
    /// placement per job of the batch.
    DroppedJob {
        /// Jobs handed to the scheduler.
        batch: usize,
        /// Placements it returned.
        placed: usize,
    },
}

impl std::fmt::Display for OnlineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            OnlineError::NonDenseIds { index, found } => {
                write!(
                    f,
                    "job ids must be dense 0..n: found {found} at position {index}"
                )
            }
            OnlineError::BadRelease { task, release } => {
                write!(f, "{task}: bad release date ({release})")
            }
            OnlineError::MachineMismatch {
                task,
                covers,
                procs,
            } => {
                write!(
                    f,
                    "{task}: task vector covers {covers} processors, machine has {procs}"
                )
            }
            OnlineError::InvalidInstance(ref e) => {
                write!(f, "feed failed instance assembly: {e}")
            }
            OnlineError::OutOfOrder {
                index,
                release,
                prev,
            } => {
                write!(
                    f,
                    "streamed feed out of order at position {index}: release {release} after {prev}"
                )
            }
            OnlineError::DroppedJob { batch, placed } => {
                write!(
                    f,
                    "off-line scheduler placed {placed} of the {batch} jobs in its batch"
                )
            }
        }
    }
}

impl std::error::Error for OnlineError {}

/// Runs the Shmoys–Wein–Williamson batch framework on `m` processors:
/// while jobs remain, gather everything released by the current instant
/// (fast-forwarding through idle gaps), hand the sub-instance to the
/// off-line `scheduler` (any registry entry), execute the returned
/// schedule as one batch, and repeat when it completes.
///
/// One [`SchedulerContext`] spans the whole run, so a scheduler that
/// needs the dual approximation computes it once per batch (each batch
/// is a distinct sub-instance).
///
/// Rejects a malformed feed — non-dense job ids, a negative or
/// non-finite release, a task vector not covering `m` processors — with
/// a typed [`OnlineError`].
pub fn try_online_batch_schedule(
    m: usize,
    jobs: &[OnlineJob],
    scheduler: &dyn Scheduler,
) -> Result<OnlineResult, OnlineError> {
    // The loop validates each job at submit; only an empty machine
    // under an empty feed gets past those checks.
    let mut batch_loop = BatchLoop::new(m);
    for j in jobs {
        batch_loop.submit(j.task.clone(), j.release)?;
    }
    if m == 0 {
        return Err(OnlineError::InvalidInstance(ModelError::NoProcessors));
    }
    let mut schedule = Schedule::new(m);
    let mut batches = Vec::new();
    while let Some(batch) = batch_loop.run_batch(scheduler)? {
        // The trace lists the batch's jobs in id order, as it gathered them.
        let mut jobs: Vec<TaskId> = batch.placements.iter().map(|p| p.task).collect();
        jobs.sort();
        batches.push(BatchTrace {
            start: batch.start,
            length: batch.length,
            jobs,
        });
        for p in batch.placements {
            schedule.push(p);
        }
    }
    Ok(OnlineResult { schedule, batches })
}

/// The incremental Shmoys–Wein–Williamson core: a persistent event
/// loop that accepts submits and cancels between batches and re-plans
/// one batch at a time, instead of requiring the whole feed up front.
///
/// The pending jobs live in one map keyed by release date, then
/// original job id. It persists across batches and is *patched*, never
/// rebuilt, per event, and a batch is gathered by splitting the map at
/// its start, so admitting the next batch is `O(batch · log n)`, not a
/// rescan of every job. A release of `-0.0` is stored as `+0.0`, so a
/// job released at time zero sorts before every later one. One
/// [`SchedulerContext`] serves every batch; its dual cache keys on each
/// batch instance itself.
///
/// The loop keeps no history: [`BatchLoop::run_batch`] hands each
/// planned batch out by value, so its memory is the pending set plus
/// one batch in flight, however long it runs. Every driver — the
/// all-at-once wrapper, [`stream_batch_schedule`] and the `demt serve`
/// daemon — consumes the batches the same way.
///
/// Determinism contract: submitting jobs (dense ids, in id order) and
/// calling [`BatchLoop::run_batch`] until it returns `None` produces
/// placements **byte-identical** to [`try_online_batch_schedule`] on
/// the same feed — the wrapper is itself implemented on this loop.
///
/// ```
/// use demt_core::DemtScheduler;
/// use demt_model::{MoldableTask, TaskId};
/// use demt_online::BatchLoop;
/// let demt = DemtScheduler;
/// let mut bl = BatchLoop::new(2);
/// bl.submit(MoldableTask::linear(TaskId(0), 1.0, 4.0, 2).unwrap(), 0.0).unwrap();
/// let first = bl.run_batch(&demt).unwrap().unwrap();
/// // A job arriving while the first batch ran joins the next batch.
/// bl.submit(MoldableTask::linear(TaskId(1), 1.0, 4.0, 2).unwrap(), 0.5).unwrap();
/// let second = bl.run_batch(&demt).unwrap().unwrap();
/// assert_eq!(second.start, first.start + first.length);
/// assert_eq!(second.placements[0].task, TaskId(1));
/// assert_eq!(second.releases, [0.5]);
/// // Nothing pending, nothing planned.
/// assert!(bl.run_batch(&demt).unwrap().is_none());
/// ```
#[derive(Debug)]
pub struct BatchLoop {
    m: usize,
    now: f64,
    /// Next id the feed must submit (ids are dense in submit order).
    next_id: usize,
    /// (release bits, original id) → pending job. Release dates are
    /// validated finite and non-negative and stored with `-0.0` as
    /// `+0.0`, so the IEEE bit pattern orders like the value.
    pending: BTreeMap<(u64, usize), MoldableTask>,
    /// Original id → release bits of a pending job, for [`BatchLoop::cancel`].
    release_of: BTreeMap<usize, u64>,
    ctx: SchedulerContext,
}

/// One batch planned by [`BatchLoop::run_batch`], handed out by value.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedBatch {
    /// Instant the batch started (all member jobs were released by then).
    pub start: f64,
    /// Batch length (makespan of the inner off-line schedule).
    pub length: f64,
    /// The batch's placements in decision order, offset to `start` and
    /// carrying the original job ids.
    pub placements: Vec<Placement>,
    /// Original release dates, aligned with `placements`.
    pub releases: Vec<f64>,
}

impl BatchLoop {
    /// Empty loop over `m` processors at virtual time `0`, with a fresh
    /// [`SchedulerContext`].
    pub fn new(m: usize) -> Self {
        Self {
            m,
            now: 0.0,
            next_id: 0,
            pending: BTreeMap::new(),
            release_of: BTreeMap::new(),
            ctx: SchedulerContext::new(),
        }
    }

    /// Machine size `m`.
    pub fn procs(&self) -> usize {
        self.m
    }

    /// Current virtual time (end of the last batch, or the instant the
    /// loop fast-forwarded to).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Number of jobs submitted but not yet scheduled or cancelled.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Earliest release date among pending jobs.
    pub fn next_release(&self) -> Option<f64> {
        self.pending
            .first_key_value()
            .map(|(&(bits, _), _)| f64::from_bits(bits))
    }

    /// The instant the next batch would start if no further event
    /// arrived first: the current time when some pending job is already
    /// released, otherwise the earliest pending release (`None` with
    /// nothing pending). An event source may safely run the next batch
    /// once every unseen event is strictly later than this instant.
    pub fn next_batch_start(&self) -> Option<f64> {
        let min_r = self.next_release()?;
        Some(if min_r <= self.now + 1e-12 {
            self.now
        } else {
            min_r
        })
    }

    /// Submits one job. Ids must arrive dense `0..` in submit order;
    /// release dates must be finite and non-negative but may lie in the
    /// past (the job simply joins the next batch), so completed batches
    /// are never re-planned.
    pub fn submit(&mut self, task: MoldableTask, release: f64) -> Result<(), OnlineError> {
        if task.id().index() != self.next_id {
            return Err(OnlineError::NonDenseIds {
                index: self.next_id,
                found: task.id(),
            });
        }
        if !(release >= 0.0 && release.is_finite()) {
            return Err(OnlineError::BadRelease {
                task: task.id(),
                release,
            });
        }
        if task.max_procs() != self.m {
            return Err(OnlineError::MachineMismatch {
                task: task.id(),
                covers: task.max_procs(),
                procs: self.m,
            });
        }
        let id = task.id().index();
        // `-0.0 + 0.0` is `+0.0`: the bits of a zero release sort first.
        let bits = (release + 0.0).to_bits();
        self.next_id += 1;
        self.release_of.insert(id, bits);
        self.pending.insert((bits, id), task);
        Ok(())
    }

    /// Cancels a pending job. Returns whether it was still pending —
    /// jobs already placed in a batch are running and stay placed (the
    /// id remains consumed either way).
    pub fn cancel(&mut self, id: TaskId) -> bool {
        match self.release_of.remove(&id.index()) {
            Some(bits) => self.pending.remove(&(bits, id.index())).is_some(),
            None => false,
        }
    }

    /// Plans and (virtually) executes the next batch: fast-forwards
    /// through an idle gap if nothing is released yet, gathers every
    /// pending job released by then, hands the sub-instance to the
    /// off-line `scheduler` with the shared context, offsets its
    /// placements to the batch start, and advances the clock past the
    /// batch. Returns the batch — `None` with nothing pending.
    ///
    /// On `Err` the loop must be discarded: the batch's jobs have left
    /// the pending set.
    pub fn run_batch(
        &mut self,
        scheduler: &dyn Scheduler,
    ) -> Result<Option<PlannedBatch>, OnlineError> {
        // Fast-forward through an idle gap to the next release.
        let Some(start) = self.next_batch_start() else {
            return Ok(None);
        };
        self.now = start;

        // Gather the batch: every pending job released by `now` (the keys
        // below the first release bits past `now + 1e-12`), in id order,
        // re-id'd densely.
        let past = ((self.now + 1e-12).to_bits() + 1, 0);
        let later = self.pending.split_off(&past);
        let mut ready: Vec<((u64, usize), MoldableTask)> =
            std::mem::replace(&mut self.pending, later)
                .into_iter()
                .collect();
        ready.sort_unstable_by_key(|&((_, id), _)| id);
        let mut mapping = Vec::with_capacity(ready.len());
        let mut tasks = Vec::with_capacity(ready.len());
        let mut releases = Vec::with_capacity(ready.len());
        for (new_id, ((bits, id), mut task)) in ready.into_iter().enumerate() {
            self.release_of.remove(&id);
            task.set_id(TaskId(new_id));
            mapping.push(TaskId(id));
            tasks.push(task);
            releases.push(f64::from_bits(bits));
        }
        let sub = Instance::new(self.m, tasks).map_err(OnlineError::InvalidInstance)?;
        let inner = scheduler.schedule(&sub, &mut self.ctx).schedule;
        if inner.len() != sub.len() {
            return Err(OnlineError::DroppedJob {
                batch: sub.len(),
                placed: inner.len(),
            });
        }
        let length = inner.makespan();
        // Rewrite the inner placements in place: offset to the batch
        // start and back to the original ids.
        let mut placements = inner.into_placements();
        let mut batch_releases = Vec::with_capacity(placements.len());
        for p in &mut placements {
            let local = p.task.index();
            batch_releases.push(releases[local]);
            p.start += self.now;
            p.task = mapping[local];
        }
        let batch = PlannedBatch {
            start: self.now,
            length,
            placements,
            releases: batch_releases,
        };
        self.now += length.max(f64::MIN_POSITIVE);
        Ok(Some(batch))
    }
}

/// Summary counters of a streamed run, returned by
/// [`stream_batch_schedule`] (the placements themselves went to the
/// sink, batch by batch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamOutcome {
    /// Placements emitted across all batches.
    pub decisions: usize,
    /// Batches executed.
    pub batches: usize,
}

/// What [`Admission::step`] asks its caller to do next.
#[derive(Debug, PartialEq)]
pub enum Admitted<E> {
    /// Events admitted before the next batch, in feed order: apply every
    /// submit and cancel to the [`BatchLoop`], then step again.
    Cohort(Vec<E>),
    /// No unseen event can join the next batch: run it.
    Batch,
}

/// Cohort admission: the event-order rule of the batch
/// framework, shared by every [`BatchLoop`] feed
/// ([`stream_batch_schedule`] and the `demt serve` daemon).
///
/// An event joins the pending set only while its timestamp is at or
/// before the instant the next batch can start
/// ([`BatchLoop::next_batch_start`]), so each planned batch holds
/// exactly the jobs [`try_online_batch_schedule`] gathers from the
/// whole feed. Events arrive in cohorts: the bound is read from the
/// loop once per cohort and then tracked locally (a submit pulls it to
/// `max(now, release)`), so the caller can process a cohort as a whole
/// (the daemon lifts it on a worker pool) before applying it. A cancel
/// can push the true bound later, which under-admits; the next step
/// re-reads the bound and admits the rest, and a batch is announced
/// only once a cohort comes back empty. [`stream_batch_schedule`] is
/// the plainest caller.
#[derive(Debug)]
pub struct Admission<E> {
    /// The first event past the bound, held for the next cohort.
    held: Option<E>,
    /// The event source has returned its last event.
    exhausted: bool,
}

impl<E> Default for Admission<E> {
    fn default() -> Self {
        Self {
            held: None,
            exhausted: false,
        }
    }
}

impl<E> Admission<E> {
    /// The next step for `bl`: a cohort to apply, a batch to run, or
    /// `None` once the feed is drained and nothing is pending.
    ///
    /// `pull` yields the next event of the feed (`Ok(None)` at its end).
    /// It runs exactly once per event, so per-event validation and
    /// counting belong in it; its errors pass through unchanged.
    /// `arrival` reads an event's timestamp and whether it submits a
    /// job: only a submit can pull the next batch start earlier.
    pub fn step<X>(
        &mut self,
        bl: &BatchLoop,
        mut pull: impl FnMut() -> Result<Option<E>, X>,
        arrival: impl Fn(&E) -> (f64, bool),
    ) -> Result<Option<Admitted<E>>, X> {
        let mut bound = bl.next_batch_start();
        let mut cohort = Vec::new();
        loop {
            let ev = match self.held.take() {
                Some(ev) => ev,
                None if self.exhausted => break,
                None => match pull()? {
                    Some(ev) => ev,
                    None => {
                        self.exhausted = true;
                        break;
                    }
                },
            };
            let (release, submit) = arrival(&ev);
            if bound.is_some_and(|b| release > b + 1e-12) {
                self.held = Some(ev);
                break;
            }
            if submit {
                let start = release.max(bl.now());
                bound = Some(bound.map_or(start, |b| b.min(start)));
            }
            cohort.push(ev);
        }
        // With nothing pending the bound admits any event, so an empty
        // cohort over an empty pending set means the feed is drained.
        Ok(if !cohort.is_empty() {
            Some(Admitted::Cohort(cohort))
        } else if bl.pending() > 0 {
            Some(Admitted::Batch)
        } else {
            None
        })
    }
}

/// Streams a release-sorted job feed through a [`BatchLoop`] in
/// constant memory: jobs are admitted by [`Admission`], as in the
/// `demt serve` daemon, and the sink receives each [`PlannedBatch`]'s
/// placements (decision order) alongside the matching original release
/// dates, so metrics, hashing, or serialization can run without the
/// schedule ever being materialized whole.
///
/// The feed must be sorted by release date ([`OnlineError::OutOfOrder`]
/// otherwise) with dense ids `0..n` in feed order; placements are
/// byte-identical to [`try_online_batch_schedule`] on the collected
/// feed, which is what makes replay results workers- and
/// buffering-independent.
// demt-lint: allow(P2, streams through BatchLoop::run_batch, whose dyn Scheduler call is baselined at try_online_batch_schedule; the streaming entry adds no new panic site)
pub fn stream_batch_schedule<I, F>(
    m: usize,
    jobs: I,
    scheduler: &dyn Scheduler,
    mut sink: F,
) -> Result<StreamOutcome, OnlineError>
where
    I: IntoIterator<Item = OnlineJob>,
    F: FnMut(&[Placement], &[f64]),
{
    let mut bl = BatchLoop::new(m);
    let mut admission = Admission::default();
    let mut feed = jobs.into_iter().enumerate();
    let mut prev = f64::NEG_INFINITY;
    let mut pull = || {
        let Some((index, j)) = feed.next() else {
            return Ok(None);
        };
        if j.release < prev {
            return Err(OnlineError::OutOfOrder {
                index,
                release: j.release,
                prev,
            });
        }
        prev = j.release;
        Ok(Some(j))
    };
    let mut outcome = StreamOutcome {
        decisions: 0,
        batches: 0,
    };
    while let Some(step) = admission.step(&bl, &mut pull, |j| (j.release, true))? {
        match step {
            Admitted::Cohort(cohort) => {
                for j in cohort {
                    bl.submit(j.task, j.release)?;
                }
            }
            Admitted::Batch => {
                if let Some(batch) = bl.run_batch(scheduler)? {
                    outcome.decisions += batch.placements.len();
                    outcome.batches += 1;
                    sink(&batch.placements, &batch.releases);
                }
            }
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_api::ScheduleReport;
    use demt_core::DemtScheduler;
    use demt_platform::{validate_with_releases, Criteria};
    use demt_workload::{generate, WorkloadKind};
    use rand::Rng;

    fn demt() -> DemtScheduler {
        DemtScheduler
    }

    /// [`Admission::step`]'s view of a job feed: every event submits.
    fn submit(j: &OnlineJob) -> (f64, bool) {
        (j.release, true)
    }

    fn online_jobs(
        kind: WorkloadKind,
        n: usize,
        m: usize,
        seed: u64,
        spread: f64,
    ) -> Vec<OnlineJob> {
        let inst = generate(kind, n, m, seed);
        let mut rng = demt_distr::seeded_rng(seed ^ 0x0417);
        inst.tasks()
            .iter()
            .map(|t| OnlineJob {
                task: t.clone(),
                release: rng.random_range(0.0..spread.max(f64::MIN_POSITIVE)),
            })
            .collect()
    }

    #[test]
    fn all_zero_releases_behave_like_offline() {
        let inst = generate(WorkloadKind::Mixed, 25, 8, 4);
        let jobs: Vec<OnlineJob> = inst
            .tasks()
            .iter()
            .map(|t| OnlineJob {
                task: t.clone(),
                release: 0.0,
            })
            .collect();
        let on = try_online_batch_schedule(8, &jobs, &demt()).unwrap();
        let off = demt()
            .schedule(&inst, &mut SchedulerContext::new())
            .schedule;
        assert_eq!(on.batches.len(), 1, "everything fits one batch");
        assert!((on.schedule.makespan() - off.makespan()).abs() < 1e-9);
    }

    #[test]
    fn respects_release_dates_and_validates() {
        let jobs = online_jobs(WorkloadKind::Cirne, 30, 8, 7, 20.0);
        let releases: Vec<f64> = jobs.iter().map(|j| j.release).collect();
        let inst = Instance::new(8, jobs.iter().map(|j| j.task.clone()).collect()).unwrap();
        let on = try_online_batch_schedule(8, &jobs, &demt()).unwrap();
        validate_with_releases(&inst, &on.schedule, Some(&releases)).unwrap();
    }

    #[test]
    fn batches_are_contiguous_and_causal() {
        let jobs = online_jobs(WorkloadKind::HighlyParallel, 40, 8, 3, 15.0);
        let on = try_online_batch_schedule(8, &jobs, &demt()).unwrap();
        for w in on.batches.windows(2) {
            assert!(
                w[1].start >= w[0].start + w[0].length - 1e-9,
                "batches overlap: {w:?}"
            );
        }
        // Causality: every job's batch starts at or after its release.
        for b in &on.batches {
            for &id in &b.jobs {
                assert!(jobs[id.index()].release <= b.start + 1e-9);
            }
        }
    }

    #[test]
    fn doubling_argument_bound_holds_empirically() {
        // §2.2: on-line makespan ≤ 2ρ·OPT. With DEMT's empirical ρ ≲ 2,
        // makespan should stay within ~4× of the clairvoyant lower bound
        // max(release) + offline-lower-bound; assert a loose 5×.
        for seed in 0..3 {
            let jobs = online_jobs(WorkloadKind::Mixed, 30, 8, seed, 10.0);
            let inst = Instance::new(8, jobs.iter().map(|j| j.task.clone()).collect()).unwrap();
            let on = try_online_batch_schedule(8, &jobs, &demt()).unwrap();
            let lb = demt_dual::dual_approx(&inst, &demt_dual::DualConfig { rel_eps: 1e-3 })
                .lower_bound
                .max(jobs.iter().map(|j| j.release).fold(0.0, f64::max));
            assert!(
                on.schedule.makespan() <= 5.0 * lb,
                "seed {seed}: online {} vs clairvoyant bound {lb}",
                on.schedule.makespan()
            );
        }
    }

    #[test]
    fn late_job_waits_for_next_batch() {
        // Job 1 arrives while batch 0 runs; it must start only after
        // batch 0 completes.
        let jobs = vec![
            OnlineJob {
                task: MoldableTask::sequential(TaskId(0), 1.0, 4.0, 2).unwrap(),
                release: 0.0,
            },
            OnlineJob {
                task: MoldableTask::sequential(TaskId(1), 1.0, 1.0, 2).unwrap(),
                release: 0.5,
            },
        ];
        let on = try_online_batch_schedule(2, &jobs, &demt()).unwrap();
        assert_eq!(on.batches.len(), 2);
        let p1 = on.schedule.placement_of(TaskId(1)).unwrap();
        assert!(p1.start >= 4.0 - 1e-9, "late job started at {}", p1.start);
    }

    #[test]
    fn idle_gap_is_fast_forwarded() {
        let jobs = vec![
            OnlineJob {
                task: MoldableTask::sequential(TaskId(0), 1.0, 1.0, 2).unwrap(),
                release: 0.0,
            },
            OnlineJob {
                task: MoldableTask::sequential(TaskId(1), 1.0, 1.0, 2).unwrap(),
                release: 10.0,
            },
        ];
        let on = try_online_batch_schedule(2, &jobs, &demt()).unwrap();
        assert_eq!(on.batches.len(), 2);
        assert!((on.batches[1].start - 10.0).abs() < 1e-9);
    }

    #[test]
    fn malformed_feeds_are_rejected_with_typed_errors() {
        let task = |id: usize| MoldableTask::sequential(TaskId(id), 1.0, 1.0, 2).unwrap();
        // Non-dense ids.
        let jobs = vec![OnlineJob {
            task: task(3),
            release: 0.0,
        }];
        assert!(matches!(
            try_online_batch_schedule(2, &jobs, &demt()),
            Err(OnlineError::NonDenseIds {
                index: 0,
                found: TaskId(3)
            })
        ));
        // Bad release.
        let jobs = vec![OnlineJob {
            task: task(0),
            release: -1.0,
        }];
        assert!(matches!(
            try_online_batch_schedule(2, &jobs, &demt()),
            Err(OnlineError::BadRelease { .. })
        ));
        // Machine mismatch: the vector covers 2 processors, not 4.
        let jobs = vec![OnlineJob {
            task: task(0),
            release: 0.0,
        }];
        assert!(matches!(
            try_online_batch_schedule(4, &jobs, &demt()),
            Err(OnlineError::MachineMismatch {
                covers: 2,
                procs: 4,
                ..
            })
        ));
        // An empty machine is rejected even with nothing to place.
        assert_eq!(
            try_online_batch_schedule(0, &[], &demt()).err(),
            Some(OnlineError::InvalidInstance(ModelError::NoProcessors))
        );
        // A clean feed sails through the same entry point.
        assert!(try_online_batch_schedule(2, &[], &demt()).is_ok());
    }

    #[test]
    fn batch_loop_streaming_matches_wrapper_bytes() {
        // Drive the loop through `Admission`, the way an event
        // source does (submit each job only once its release is due, run
        // batches as soon as no unseen event can still join), and
        // require placements byte-identical (serde-JSON) to the
        // all-at-once wrapper.
        let mut jobs = online_jobs(WorkloadKind::Mixed, 30, 8, 21, 25.0);
        jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.task.set_id(TaskId(i));
        }
        let batch = try_online_batch_schedule(8, &jobs, &demt()).unwrap();

        let mut bl = BatchLoop::new(8);
        let mut admission = Admission::default();
        let mut feed = jobs.iter().cloned();
        let mut cohorts = 0;
        let mut streamed = Schedule::new(8);
        let mut windows = Vec::new();
        while let Some(step) = admission
            .step(&bl, || Ok::<_, OnlineError>(feed.next()), submit)
            .unwrap()
        {
            match step {
                Admitted::Cohort(cohort) => {
                    cohorts += 1;
                    for j in cohort {
                        bl.submit(j.task, j.release).unwrap();
                    }
                }
                Admitted::Batch => {
                    let planned = bl.run_batch(&demt()).unwrap().expect("jobs pending");
                    windows.push((planned.start, planned.length));
                    for p in planned.placements {
                        streamed.push(p);
                    }
                }
            }
        }
        assert!(cohorts > 1, "the feed arrives over several cohorts");
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&batch.schedule).unwrap(),
            "streamed and batch placements must be byte-identical"
        );
        let wrapper: Vec<(f64, f64)> = batch.batches.iter().map(|b| (b.start, b.length)).collect();
        assert_eq!(windows, wrapper);
    }

    #[test]
    fn admission_holds_events_past_the_next_batch_start() {
        let t = |id: usize| MoldableTask::sequential(TaskId(id), 1.0, 1.0, 2).unwrap();
        let job = |id, release| OnlineJob {
            task: t(id),
            release,
        };
        let mut feed = vec![job(0, 0.0), job(1, 0.0), job(2, 3.0)].into_iter();
        let mut pull = || Ok::<_, OnlineError>(feed.next());
        let mut bl = BatchLoop::new(2);
        let mut admission = Admission::default();
        // Both t=0 jobs form the first cohort; the t=3 job is held.
        let Some(Admitted::Cohort(first)) = admission.step(&bl, &mut pull, submit).unwrap() else {
            panic!("expected a cohort");
        };
        assert_eq!(first.len(), 2);
        for j in first {
            bl.submit(j.task, j.release).unwrap();
        }
        assert_eq!(
            admission.step(&bl, &mut pull, submit).unwrap(),
            Some(Admitted::Batch)
        );
        bl.run_batch(&demt()).unwrap();
        // The batch ends before t=3 and nothing is pending, so the held
        // job is admitted.
        let Some(Admitted::Cohort(second)) = admission.step(&bl, &mut pull, submit).unwrap() else {
            panic!("expected the held job");
        };
        assert_eq!(second.len(), 1);
        for j in second {
            bl.submit(j.task, j.release).unwrap();
        }
        assert_eq!(
            admission.step(&bl, &mut pull, submit).unwrap(),
            Some(Admitted::Batch)
        );
        assert!(bl.run_batch(&demt()).unwrap().is_some());
        assert_eq!(admission.step(&bl, &mut pull, submit).unwrap(), None);
        assert_eq!(bl.pending(), 0);
    }

    /// DEMT with its first placement removed: an off-line scheduler that
    /// breaks the place-every-job contract.
    struct Lossy;

    impl Scheduler for Lossy {
        fn name(&self) -> &str {
            "lossy"
        }

        fn legend(&self) -> &str {
            "DEMT minus one job"
        }

        fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
            let mut report = demt().schedule(inst, ctx);
            let mut kept = Schedule::new(inst.procs());
            for p in &report.schedule.placements()[1..] {
                kept.push(p.clone());
            }
            report.schedule = kept;
            report
        }
    }

    #[test]
    fn a_scheduler_that_drops_a_job_is_a_typed_error() {
        let mut bl = BatchLoop::new(2);
        for id in 0..2 {
            bl.submit(
                MoldableTask::sequential(TaskId(id), 1.0, 1.0, 2).unwrap(),
                0.0,
            )
            .unwrap();
        }
        assert_eq!(
            bl.run_batch(&Lossy),
            Err(OnlineError::DroppedJob {
                batch: 2,
                placed: 1
            })
        );
    }

    #[test]
    fn a_derived_instance_never_hands_its_dual_to_the_batch() {
        use demt_api::FnScheduler;
        use demt_dual::dual_approx;
        // A wrapper that asks the dual about a sub-instance before its
        // own must still get its own batch's dual back.
        let wrapper = FnScheduler::new("derived", "Derived", |inst, ctx| {
            let (head, _) = inst.restrict(&[TaskId(0)]).unwrap();
            ctx.dual(&head);
            let got = format!("{:?}", ctx.dual(inst));
            let want = format!("{:?}", dual_approx(inst, &demt_dual::DualConfig::default()));
            assert_eq!(got, want, "the batch got another instance's dual");
            demt().schedule(inst, ctx).schedule
        });
        let mut bl = BatchLoop::new(4);
        for (id, time) in [(0, 1.0), (1, 3.0), (2, 2.0)] {
            bl.submit(MoldableTask::linear(TaskId(id), 1.0, time, 4).unwrap(), 0.0)
                .unwrap();
        }
        let batch = bl.run_batch(&wrapper).unwrap().unwrap();
        assert_eq!(batch.placements.len(), 3);
    }

    #[test]
    fn batch_loop_cancel_and_id_discipline() {
        let mut bl = BatchLoop::new(2);
        let t = |id: usize| MoldableTask::sequential(TaskId(id), 1.0, 1.0, 2).unwrap();
        bl.submit(t(0), 0.0).unwrap();
        bl.submit(t(1), 0.0).unwrap();
        // Ids must stay dense in submit order.
        assert!(matches!(
            bl.submit(t(5), 0.0),
            Err(OnlineError::NonDenseIds { index: 2, .. })
        ));
        assert!(bl.cancel(TaskId(1)), "pending job cancels");
        assert!(!bl.cancel(TaskId(1)), "second cancel is a no-op");
        assert_eq!(bl.pending(), 1);
        let first = bl.run_batch(&demt()).unwrap().expect("job 0 pending");
        assert!(!bl.cancel(TaskId(0)), "placed job is running, not pending");
        // A cancelled id stays consumed: the next submit is id 2.
        bl.submit(t(2), 0.0).unwrap();
        let second = bl.run_batch(&demt()).unwrap().expect("job 2 pending");
        let placed: Vec<TaskId> = first
            .placements
            .iter()
            .chain(&second.placements)
            .map(|p| p.task)
            .collect();
        assert_eq!(placed, [TaskId(0), TaskId(2)]);
        assert!(bl.run_batch(&demt()).unwrap().is_none());
    }

    #[test]
    fn stream_batch_schedule_matches_wrapper_bytes() {
        let mut jobs = online_jobs(WorkloadKind::Cirne, 40, 8, 9, 30.0);
        jobs.sort_by(|a, b| a.release.total_cmp(&b.release));
        for (i, j) in jobs.iter_mut().enumerate() {
            j.task.set_id(TaskId(i));
        }
        let batch = try_online_batch_schedule(8, &jobs, &demt()).unwrap();

        let mut streamed = Schedule::new(8);
        let mut streamed_releases = Vec::new();
        let out = stream_batch_schedule(8, jobs.iter().cloned(), &demt(), |placements, rel| {
            assert_eq!(placements.len(), rel.len());
            for p in placements {
                streamed.push(p.clone());
            }
            streamed_releases.extend_from_slice(rel);
        })
        .unwrap();
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&batch.schedule).unwrap(),
            "streamed placements must be byte-identical to the wrapper"
        );
        // The sink's releases are the original ones, aligned to
        // decision order.
        for (p, &r) in streamed.placements().iter().zip(&streamed_releases) {
            assert_eq!(jobs[p.task.index()].release, r);
        }
        assert_eq!(out.decisions, jobs.len());
        assert_eq!(out.batches, batch.batches.len());
    }

    #[test]
    fn stream_batch_schedule_rejects_unsorted_feeds() {
        let t = |id: usize| MoldableTask::sequential(TaskId(id), 1.0, 1.0, 2).unwrap();
        let jobs = vec![
            OnlineJob {
                task: t(0),
                release: 5.0,
            },
            OnlineJob {
                task: t(1),
                release: 1.0,
            },
        ];
        assert!(matches!(
            stream_batch_schedule(2, jobs, &demt(), |_, _| {}),
            Err(OnlineError::OutOfOrder {
                index: 1,
                release: r,
                prev: p,
            }) if r == 1.0 && p == 5.0
        ));
    }

    #[test]
    fn returned_batches_concatenate_to_the_wrapper_bytes() {
        let jobs = online_jobs(WorkloadKind::Mixed, 40, 8, 17, 30.0);
        let wrapper = try_online_batch_schedule(8, &jobs, &demt()).unwrap();

        let mut bl = BatchLoop::new(8);
        for j in &jobs {
            bl.submit(j.task.clone(), j.release).unwrap();
        }
        let mut concatenated = Schedule::new(8);
        let mut batches = 0;
        while let Some(batch) = bl.run_batch(&demt()).unwrap() {
            batches += 1;
            // Each release lines up with its placement and was due by
            // the batch start.
            assert_eq!(batch.releases.len(), batch.placements.len());
            for (p, &r) in batch.placements.iter().zip(&batch.releases) {
                assert_eq!(r, jobs[p.task.index()].release);
                assert!(r <= batch.start + 1e-12, "{r} after {}", batch.start);
                assert!(p.start >= batch.start);
            }
            for p in batch.placements {
                concatenated.push(p);
            }
        }
        assert!(batches > 1, "the feed spans several batches");
        assert_eq!(batches, wrapper.batches.len());
        assert_eq!(
            serde_json::to_string(&concatenated).unwrap(),
            serde_json::to_string(&wrapper.schedule).unwrap(),
            "returned batches must serialize like the wrapper"
        );
    }

    #[test]
    fn a_negative_zero_release_joins_the_first_batch() {
        // Unsorted releases 5, 100 and -0: the -0 job is released at time
        // zero and runs alone in the first batch, not with the job at 100.
        let mut bl = BatchLoop::new(2);
        for (id, release) in [5.0, 100.0, -0.0].into_iter().enumerate() {
            let task = MoldableTask::sequential(TaskId(id), 1.0, 1.0, 2).unwrap();
            bl.submit(task, release).unwrap();
        }
        let batches: Vec<(f64, Vec<TaskId>)> =
            std::iter::from_fn(|| bl.run_batch(&demt()).unwrap())
                .take(4)
                .map(|b| (b.start, b.placements.iter().map(|p| p.task).collect()))
                .collect();
        assert_eq!(
            batches,
            [
                (0.0, vec![TaskId(2)]),
                (5.0, vec![TaskId(0)]),
                (100.0, vec![TaskId(1)])
            ]
        );
    }

    /// The gather as a scan over the pending `(id, release)` pairs at
    /// time `now`: the batch start and the ids it takes, in id order.
    fn scan_gather(pending: &[(usize, f64)], now: f64) -> Option<(f64, Vec<usize>)> {
        let first = pending.iter().map(|&(_, r)| r).reduce(f64::min)?;
        let start = if first <= now + 1e-12 { now } else { first };
        let mut ids: Vec<usize> = pending
            .iter()
            .filter(|&&(_, r)| r <= start + 1e-12)
            .map(|&(id, _)| id)
            .collect();
        ids.sort();
        Some((start, ids))
    }

    /// Release dates with ties, both zeros and near-ties inside the
    /// gather's `1e-12` slack.
    const RELEASES: [f64; 8] = [0.0, -0.0, 0.5, 1.0, 1.0 + 1e-13, 2.0, 3.5, 7.0];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn gather_matches_a_scan_of_the_pending_jobs(
            ops in proptest::collection::vec(
                (0usize..6, 0usize..RELEASES.len(), 1usize..4, proptest::prelude::any::<proptest::sample::Index>()),
                0..40,
            )
        ) {
            // Op 0–2 submits, 3 cancels a submitted id, 4–5 runs a batch;
            // the loop drains what is left at the end.
            let mut bl = BatchLoop::new(2);
            let mut pending: Vec<(usize, f64)> = Vec::new();
            let mut now = 0.0;
            let mut next = 0;
            let mut run = |bl: &mut BatchLoop, pending: &mut Vec<(usize, f64)>| {
                let (start, ids, batch) = match (scan_gather(pending, now), bl.run_batch(&demt()).unwrap()) {
                    (Some((start, ids)), Some(batch)) => (start, ids, batch),
                    (None, None) => return false,
                    (want, got) => panic!("scan {want:?}, loop {got:?}"),
                };
                let mut placed: Vec<usize> = batch.placements.iter().map(|p| p.task.index()).collect();
                placed.sort();
                assert_eq!((batch.start, &placed), (start, &ids));
                for (p, &r) in batch.placements.iter().zip(&batch.releases) {
                    let (_, want_r) = pending.iter().find(|&&(id, _)| id == p.task.index()).unwrap();
                    assert_eq!(r, *want_r);
                }
                pending.retain(|(id, _)| !ids.contains(id));
                now = start + batch.length.max(f64::MIN_POSITIVE);
                assert_eq!(bl.now(), now);
                true
            };
            for (op, r, len, pick) in ops {
                match op {
                    0..=2 => {
                        let task = MoldableTask::sequential(TaskId(next), 1.0, len as f64, 2).unwrap();
                        bl.submit(task, RELEASES[r]).unwrap();
                        pending.push((next, RELEASES[r]));
                        next += 1;
                    }
                    3 if next > 0 => {
                        let id = pick.index(next);
                        let was = pending.iter().any(|&(p, _)| p == id);
                        pending.retain(|&(p, _)| p != id);
                        assert_eq!(bl.cancel(TaskId(id)), was);
                    }
                    _ => {
                        run(&mut bl, &mut pending);
                    }
                }
                assert_eq!(bl.pending(), pending.len());
            }
            // Every batch takes a job, so the drain ends within this bound.
            for _ in 0..=pending.len() {
                if !run(&mut bl, &mut pending) {
                    break;
                }
            }
            assert!(pending.is_empty() && bl.pending() == 0);
        }
    }

    #[test]
    fn minsum_is_reported_consistently() {
        let jobs = online_jobs(WorkloadKind::WeaklyParallel, 20, 8, 11, 5.0);
        let inst = Instance::new(8, jobs.iter().map(|j| j.task.clone()).collect()).unwrap();
        let on = try_online_batch_schedule(8, &jobs, &demt()).unwrap();
        let c = Criteria::evaluate(&inst, &on.schedule);
        assert!(c.weighted_completion > 0.0);
        assert!(c.makespan >= jobs.iter().map(|j| j.release).fold(0.0, f64::max));
    }
}
