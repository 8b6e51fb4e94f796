//! The EASY queue's waiting jobs: one ordered sequence cut into small
//! blocks, each carrying a summary of its jobs.
//!
//! Jobs are kept in queue-key order ([`QueueKey`]) in a `Vec` of
//! blocks. A block holds at most `2B` jobs (`B = 16`) in a vector
//! allocated at exactly that capacity, and keeps a [`Summary`]: the
//! smallest rigid width and the smallest rigid runtime of its jobs, and
//! the smallest runtime in each power-of-two width class. The backfill
//! query ([`Waiting::first_fit_after_head`]) takes a predicate that is
//! antitone in both fields (a job that fits still fits when narrower
//! or shorter), so a block holds no job that passes it when its corner
//! `(min width, min runtime)` fails, or when the corner `(2^c, min
//! runtime of class c)` of every non-empty class fails. Such a block is
//! skipped whole; inside any other block each job is tested exactly.
//! The class corners matter under overload, where a block's narrowest
//! job and its shortest job are rarely the same job.
//!
//! Structure changes keep memory flat:
//! - an insert binary-searches the blocks by queue key, since
//!   priority order inserts mid-queue;
//! - a key above every job appends to the last block, or opens a new
//!   one when that block is full (arrival order only ever appends, so
//!   its blocks fill completely);
//! - an insert into a full block in the middle splits it in half;
//! - after a removal, the block merges into a neighbour whenever the
//!   two fit in one block (an empty block is dropped). Under arrival
//!   order this keeps any two adjacent blocks above `2B` jobs together,
//!   so the blocks stay more than half full; merging only below `B/2`
//!   leaves backfilled blocks about 60 % full and raises perfbench's
//!   `replay_easy` allocation peak by up to a fifth.

use crate::stream::SubmittedJob;
use std::cmp::Reverse;

/// Queue order of a waiting job: its priority (weight descending under
/// `QueueOrder::Priority`, a constant under `Arrival`), then its feed
/// position.
pub(crate) type QueueKey = (Reverse<u64>, usize);

/// Half a block's capacity.
const B: usize = 16;
/// A block's capacity.
const CAP: usize = 2 * B;

/// A waiting job with its key and its rigid runtime, read once.
#[derive(Debug)]
struct Entry {
    key: QueueKey,
    time: f64,
    job: SubmittedJob,
}

/// Width classes of a block summary: class `c` holds the widths in
/// `[2^c, 2^(c+1))`, the last class every wider one.
const CLASSES: usize = 16;

fn class(procs: usize) -> usize {
    (procs.max(1).ilog2() as usize).min(CLASSES - 1)
}

/// What a block's jobs can at best offer a fit test: the smallest
/// width, the smallest runtime, and the smallest runtime per width
/// class ([`class`]; infinite for a class with no job).
#[derive(Debug, Clone, Copy)]
struct Summary {
    min_procs: usize,
    min_time: f64,
    class_time: [f64; CLASSES],
}

impl Summary {
    const EMPTY: Summary = Summary {
        min_procs: usize::MAX,
        min_time: f64::INFINITY,
        class_time: [f64::INFINITY; CLASSES],
    };

    fn of(entries: &[Entry]) -> Summary {
        let mut s = Summary::EMPTY;
        for e in entries {
            s.note(e.job.rigid_procs, e.time);
        }
        s
    }

    fn note(&mut self, procs: usize, time: f64) {
        self.min_procs = self.min_procs.min(procs);
        self.min_time = self.min_time.min(time);
        let c = &mut self.class_time[class(procs)];
        *c = c.min(time);
    }

    /// Whether a job of this width and runtime holds one of the minima.
    fn is_held_by(&self, procs: usize, time: f64) -> bool {
        procs <= self.min_procs || time <= self.class_time[class(procs)]
    }

    fn absorb(&mut self, other: &Summary) {
        self.min_procs = self.min_procs.min(other.min_procs);
        self.min_time = self.min_time.min(other.min_time);
        for (c, &t) in self.class_time.iter_mut().zip(&other.class_time) {
            *c = c.min(t);
        }
    }

    /// Whether the summarized jobs may hold one passing the antitone
    /// `fits`: the corner `(min width, min runtime)` must pass, and so
    /// must the corner `(2^c, min runtime)` of some non-empty class `c`.
    fn may_fit(&self, fits: &impl Fn(usize, f64) -> bool) -> bool {
        fits(self.min_procs, self.min_time)
            && self
                .class_time
                .iter()
                .enumerate()
                .any(|(c, &t)| t < f64::INFINITY && fits(1 << c, t))
    }
}

/// Up to [`CAP`] consecutive waiting jobs and their summary.
#[derive(Debug)]
struct Block {
    entries: Vec<Entry>,
    summary: Summary,
}

impl Block {
    fn new(entries: Vec<Entry>) -> Self {
        let summary = Summary::of(&entries);
        Block { entries, summary }
    }

    fn rescan(&mut self) {
        self.summary = Summary::of(&self.entries);
    }

    fn push(&mut self, e: Entry) {
        self.summary.note(e.job.rigid_procs, e.time);
        self.entries.push(e);
    }

    /// Whether every key in the block is below `key` (blocks are never
    /// empty, so an empty one reads `false`).
    fn below(&self, key: QueueKey) -> bool {
        self.entries.last().is_some_and(|e| e.key < key)
    }

    /// Moves the upper half of a full block into a new block.
    fn split(&mut self) -> Block {
        let mut upper = Vec::with_capacity(CAP);
        upper.extend(self.entries.drain(B..));
        self.rescan();
        Block::new(upper)
    }

    /// Appends `other`'s jobs, which all follow this block's.
    fn absorb(&mut self, other: Block) {
        self.summary.absorb(&other.summary);
        self.entries.extend(other.entries);
    }
}

/// Position of a waiting job, as returned by the queries and taken by
/// [`Waiting::remove`]. Valid until the next change to the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Slot {
    block: usize,
    pos: usize,
}

/// The head of the queue.
pub(crate) const HEAD: Slot = Slot { block: 0, pos: 0 };

/// The waiting queue: jobs in [`QueueKey`] order, in blocks with
/// summaries (see the module doc).
#[derive(Debug, Default)]
pub(crate) struct Waiting {
    blocks: Vec<Block>,
    len: usize,
}

impl Waiting {
    /// Number of waiting jobs.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The first job in queue order.
    pub(crate) fn head(&self) -> Option<&SubmittedJob> {
        self.blocks.first()?.entries.first().map(|e| &e.job)
    }

    /// Queues `job` under `key`, which no waiting job has.
    pub(crate) fn insert(&mut self, key: QueueKey, job: SubmittedJob) {
        let e = Entry {
            key,
            time: job.rigid_time(),
            job,
        };
        self.len += 1;
        let mut b = self.blocks.partition_point(|blk| blk.below(key));
        if b == self.blocks.len() {
            match self.blocks.last_mut() {
                Some(last) if last.entries.len() < CAP => last.push(e),
                _ => {
                    let mut entries = Vec::with_capacity(CAP);
                    entries.push(e);
                    self.blocks.push(Block::new(entries));
                }
            }
            return;
        }
        if self.blocks[b].entries.len() == CAP {
            let upper = self.blocks[b].split();
            self.blocks.insert(b + 1, upper);
            if self.blocks[b].below(key) {
                b += 1;
            }
        }
        let blk = &mut self.blocks[b];
        let pos = blk.entries.partition_point(|x| x.key < key);
        blk.summary.note(e.job.rigid_procs, e.time);
        blk.entries.insert(pos, e);
    }

    /// Dequeues the job at `slot`, with its key.
    pub(crate) fn remove(&mut self, slot: Slot) -> Option<(QueueKey, SubmittedJob)> {
        let blk = self.blocks.get_mut(slot.block)?;
        if slot.pos >= blk.entries.len() {
            return None;
        }
        let e = blk.entries.remove(slot.pos);
        self.len -= 1;
        // The summary moves only when the job held one of its minima.
        if blk.summary.is_held_by(e.job.rigid_procs, e.time) {
            blk.rescan();
        }
        if blk.entries.is_empty() {
            self.blocks.remove(slot.block);
        } else {
            self.merge(slot.block);
        }
        Some((e.key, e.job))
    }

    /// Merges block `b` into a neighbour when the two fit in one block,
    /// preferring the previous one.
    fn merge(&mut self, b: usize) {
        let n = self.blocks[b].entries.len();
        let fits = |i: usize| n + self.blocks[i].entries.len() <= CAP;
        let lower = if b > 0 && fits(b - 1) {
            b - 1
        } else if b + 1 < self.blocks.len() && fits(b + 1) {
            b
        } else {
            return;
        };
        let upper = self.blocks.remove(lower + 1);
        self.blocks[lower].absorb(upper);
    }

    /// The first job after the head, in queue order, whose rigid width
    /// and runtime pass `fits`, which must be antitone in both (if it
    /// passes `(p, t)`, it passes every `(p', t') ≤ (p, t)`). A block
    /// is skipped when its summary corners fail `fits`
    /// ([`Summary::may_fit`]); every job of the other blocks is tested
    /// exactly, and `examined` counts those tests.
    pub(crate) fn first_fit_after_head(
        &self,
        fits: impl Fn(usize, f64) -> bool,
        examined: &mut usize,
    ) -> Option<Slot> {
        for (block, blk) in self.blocks.iter().enumerate() {
            if !blk.summary.may_fit(&fits) {
                continue;
            }
            let skip = usize::from(block == 0);
            for (pos, e) in blk.entries.iter().enumerate().skip(skip) {
                *examined += 1;
                if fits(e.job.rigid_procs, e.time) {
                    return Some(Slot { block, pos });
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_model::{MoldableTask, TaskId};

    fn job(id: usize, procs: usize, time: f64) -> SubmittedJob {
        SubmittedJob {
            task: MoldableTask::rigid(TaskId(id), 1.0, procs, time, 1 << 17).unwrap(),
            release: 0.0,
            rigid_procs: procs,
        }
    }

    /// A waiting job as the model sees it: key, width, runtime.
    type Model = Vec<(QueueKey, usize, f64)>;

    /// Checks every structural invariant against a rescan, and that the
    /// queue holds exactly `model` in order.
    fn check(w: &Waiting, model: &Model) {
        assert_eq!(w.len(), model.len());
        let mut flat = Vec::new();
        for blk in &w.blocks {
            assert!(!blk.entries.is_empty(), "empty block kept");
            assert!(blk.entries.len() <= CAP);
            assert_eq!(blk.entries.capacity(), CAP, "block allocated off size");
            let min_time = |keep: &dyn Fn(usize) -> bool| {
                blk.entries
                    .iter()
                    .filter(|e| keep(e.job.rigid_procs))
                    .map(|e| e.time)
                    .fold(f64::INFINITY, f64::min)
                    .to_bits()
            };
            let min_procs = blk.entries.iter().map(|e| e.job.rigid_procs).min();
            assert_eq!(Some(blk.summary.min_procs), min_procs);
            assert_eq!(blk.summary.min_time.to_bits(), min_time(&|_| true));
            for (c, t) in blk.summary.class_time.iter().enumerate() {
                let (lo, hi) = (1usize << c, 2usize << c);
                let last = c == CLASSES - 1;
                let in_class = |p: usize| p >= lo && (p < hi || last);
                assert_eq!(t.to_bits(), min_time(&in_class), "class {c}");
            }
            for e in &blk.entries {
                assert_eq!(e.time.to_bits(), e.job.rigid_time().to_bits());
                flat.push((e.key, e.job.rigid_procs, e.time));
            }
        }
        assert_eq!(&flat, model);
        assert_eq!(w.head().map(|j| j.rigid_procs), model.first().map(|m| m.1));
    }

    /// A small deterministic generator (64-bit LCG).
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self, n: u64) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (self.0 >> 33) % n
        }
    }

    /// Random inserts (appends, or mid-queue under few priorities) and
    /// removes (head, random, or the query's answer), with the
    /// summaries checked against a rescan after every step.
    fn churn(priorities: u64, seed: u64) {
        let mut rng = Lcg(seed);
        let mut w = Waiting::default();
        let mut model = Model::new();
        let mut seq = 0usize;
        let mut examined = 0usize;
        for step in 0..3000 {
            // Grow for the first half, shrink for the second.
            let grow = if step < 1500 { 6 } else { 3 };
            if rng.next(10) < grow || model.is_empty() {
                let key = (Reverse(rng.next(priorities)), seq);
                // Mostly narrow, sometimes up to the last width class.
                let procs = match rng.next(8) {
                    0 => (1 << (4 + rng.next(13))) + rng.next(7) as usize,
                    _ => 1 + rng.next(8) as usize,
                };
                let time = 0.25 * (1 + rng.next(12)) as f64;
                w.insert(key, job(seq, procs, time));
                let at = model.partition_point(|m| m.0 < key);
                model.insert(at, (key, procs, time));
                seq += 1;
            } else {
                let slot = match rng.next(3) {
                    0 => HEAD,
                    1 => {
                        let cap = 1 + rng.next(8) as usize;
                        let short = 0.25 * rng.next(12) as f64;
                        let fits = |p: usize, t: f64| p <= cap || t <= short;
                        let found = w.first_fit_after_head(fits, &mut examined);
                        // The first passing job after the head, by a scan.
                        let want = model.iter().skip(1).find(|m| fits(m.1, m.2));
                        let got = found.map(|s| &w.blocks[s.block].entries[s.pos]);
                        assert_eq!(got.map(|e| e.key), want.map(|m| m.0));
                        found.unwrap_or(HEAD)
                    }
                    _ => {
                        let b = rng.next(w.blocks.len() as u64) as usize;
                        let pos = rng.next(w.blocks[b].entries.len() as u64) as usize;
                        Slot { block: b, pos }
                    }
                };
                let at: usize = w.blocks[..slot.block]
                    .iter()
                    .map(|b| b.entries.len())
                    .sum::<usize>()
                    + slot.pos;
                let (key, j) = w.remove(slot).unwrap();
                assert_eq!((key, j.rigid_procs, j.rigid_time()), model.remove(at));
            }
            check(&w, &model);
            if priorities == 1 {
                // Appends only: adjacent blocks never fit in one.
                for pair in w.blocks.windows(2) {
                    assert!(pair[0].entries.len() + pair[1].entries.len() > CAP);
                }
            }
        }
    }

    #[test]
    fn summaries_match_a_rescan_under_appends() {
        churn(1, 7);
    }

    #[test]
    fn summaries_match_a_rescan_under_mid_queue_inserts() {
        churn(3, 11);
        churn(1 << 20, 13);
    }

    #[test]
    fn the_query_returns_the_first_fitting_job_after_the_head() {
        let mut w = Waiting::default();
        // 100 wide jobs, one narrow one at position 70, then one more
        // narrow job at the end.
        for seq in 0..100 {
            let procs = if seq == 70 { 2 } else { 8 };
            w.insert((Reverse(0), seq), job(seq, procs, 1.0));
        }
        w.insert((Reverse(0), 100), job(100, 1, 1.0));
        let mut examined = 0;
        let slot = w
            .first_fit_after_head(|p, _| p <= 4, &mut examined)
            .unwrap();
        let (key, j) = w.remove(slot).unwrap();
        assert_eq!((key.1, j.rigid_procs), (70, 2));
        // Blocks of 32: the first two are skipped whole, the third is
        // walked up to position 70.
        assert_eq!(examined, 70 - 64 + 1);
        // The head itself is never returned, even when it fits.
        let mut w = Waiting::default();
        w.insert((Reverse(0), 0), job(0, 1, 1.0));
        assert_eq!(w.first_fit_after_head(|_, _| true, &mut examined), None);
    }
}
