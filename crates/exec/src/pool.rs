//! The work-stealing pool: injector, per-worker deques, scoped spawn,
//! and the deterministic data-parallel layer.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// A unit of work queued inside one scope. Jobs may borrow from the
/// environment of the [`Pool::scope`] call (`'env`).
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// How long an idle worker sleeps before re-scanning the queues when it
/// missed a wakeup. Belt-and-braces on top of the epoch counter; cells
/// cost micro- to milliseconds, so this bounds the idle tail.
const IDLE_RESCAN: Duration = Duration::from_millis(2);

/// Locks a mutex, shrugging off poisoning: user jobs never run while a
/// pool lock is held, so a poisoned lock only means a *sibling* panicked
/// between queue operations — the protected data is still consistent.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Bookkeeping shared by the submitting thread and the workers of one
/// scope, guarded by a single mutex (the queues have their own).
struct State {
    /// Jobs spawned and not yet finished executing.
    pending: usize,
    /// Bumped whenever stealable work appears (spawn or batch refill);
    /// lets idle workers detect work published between their queue scan
    /// and their wait, closing the lost-wakeup window.
    epoch: u64,
    /// Set once the scope is over; workers exit at the next check.
    shutdown: bool,
}

/// Everything one scope's participants share.
struct Shared<'env> {
    state: Mutex<State>,
    cv: Condvar,
    /// Global FIFO injector; [`Scope::spawn`] pushes here.
    injector: Mutex<VecDeque<Job<'env>>>,
    /// One deque per execution slot (slot 0 is the submitting thread).
    /// Owners push/pop at the back, thieves pop from the front.
    deques: Vec<Mutex<VecDeque<Job<'env>>>>,
    /// First panic payload raised by a job; re-thrown at scope exit.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Successful steals within this scope.
    steals: AtomicUsize,
}

impl<'env> Shared<'env> {
    fn new(slots: usize) -> Self {
        Self {
            state: Mutex::new(State {
                pending: 0,
                epoch: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            injector: Mutex::new(VecDeque::new()),
            deques: (0..slots).map(|_| Mutex::new(VecDeque::new())).collect(),
            panic: Mutex::new(None),
            steals: AtomicUsize::new(0),
        }
    }

    /// Finds the next job for slot `idx`: own deque (back), then a
    /// steal sweep over the other deques (front), then an injector
    /// batch. Returns `None` when every queue came up empty.
    fn find_job(&self, idx: usize) -> Option<Job<'env>> {
        if let Some(job) = lock(&self.deques[idx]).pop_back() {
            return Some(job);
        }
        let slots = self.deques.len();
        for offset in 1..slots {
            let victim = (idx + offset) % slots;
            if let Some(job) = lock(&self.deques[victim]).pop_front() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        let mut injector = lock(&self.injector);
        let available = injector.len();
        if available == 0 {
            return None;
        }
        // Take a batch: one job to run now, the rest into our own deque
        // so other workers can steal from it. The batch size splits the
        // backlog evenly across slots. A single-slot pool takes jobs one
        // at a time, which keeps it strictly FIFO in spawn order.
        let batch = if slots == 1 {
            1
        } else {
            (available / slots).clamp(1, available)
        };
        // demt-lint: allow(P1, available > 0 was checked under the same injector lock)
        let job = injector.pop_front().expect("available > 0");
        if batch > 1 {
            let mut own = lock(&self.deques[idx]);
            for _ in 1..batch {
                // demt-lint: allow(P1, batch ≤ available so the injector still holds these jobs under the held lock)
                own.push_back(injector.pop_front().expect("within len"));
            }
            drop(own);
            drop(injector);
            // New stealable work appeared outside `spawn`: publish it.
            lock(&self.state).epoch += 1;
            self.cv.notify_all();
        }
        Some(job)
    }

    /// Runs one job, catching panics (first payload wins) and updating
    /// the pending count.
    fn run_job(&self, job: Job<'env>) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(job)) {
            let mut slot = lock(&self.panic);
            if slot.is_none() {
                *slot = Some(payload);
            }
        }
        let mut state = lock(&self.state);
        state.pending -= 1;
        if state.pending == 0 {
            self.cv.notify_all();
        }
    }

    /// Worker loop for slot `idx`: execute until shutdown.
    fn worker(&self, idx: usize) {
        let mut seen_epoch = 0u64;
        loop {
            if let Some(job) = self.find_job(idx) {
                self.run_job(job);
                continue;
            }
            let state = lock(&self.state);
            if state.shutdown {
                return;
            }
            if state.epoch != seen_epoch {
                seen_epoch = state.epoch;
                continue; // work appeared while we were scanning
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, IDLE_RESCAN)
                .unwrap_or_else(|e| e.into_inner());
            seen_epoch = guard.epoch;
        }
    }

    /// The submitting thread's tail: help execute until everything
    /// spawned in this scope has finished, then release the workers.
    fn drain_and_shutdown(&self) {
        let mut seen_epoch = 0u64;
        loop {
            if let Some(job) = self.find_job(0) {
                self.run_job(job);
                continue;
            }
            let mut state = lock(&self.state);
            if state.pending == 0 {
                state.shutdown = true;
                self.cv.notify_all();
                return;
            }
            if state.epoch != seen_epoch {
                seen_epoch = state.epoch;
                continue;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(state, IDLE_RESCAN)
                .unwrap_or_else(|e| e.into_inner());
            seen_epoch = guard.epoch;
        }
    }
}

/// Releases the workers even when the scope body panics before the
/// normal drain runs. No cancellation is implied: helper threads only
/// observe the shutdown flag once their queues come up empty, so jobs
/// already queued still execute while the panic unwinds (on a pool
/// with no helper threads they are dropped instead — nobody drains).
/// Callers needing abort semantics must gate their jobs themselves.
struct ShutdownGuard<'a, 'env>(&'a Shared<'env>);

impl Drop for ShutdownGuard<'_, '_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        if !state.shutdown {
            state.shutdown = true;
            self.0.cv.notify_all();
        }
    }
}

/// Spawn handle passed to the closure of [`Pool::scope`].
///
/// `'env` is the lifetime of the environment the scope's jobs may
/// borrow: everything declared before the `scope` call is fair game.
/// Jobs cannot themselves spawn into the same scope (the borrow rules
/// enforce it); nested parallelism goes through a nested
/// [`Pool::scope`] call instead, which the tests exercise.
pub struct Scope<'p, 'env> {
    shared: &'p Shared<'env>,
}

impl<'env> Scope<'_, 'env> {
    /// Queues `f` for execution by the scope's workers. Returns
    /// immediately; the job finishes before [`Pool::scope`] returns.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'env) {
        // Account for the job before it becomes visible: a worker may
        // pop and finish it the instant it lands in the injector, and
        // the completion decrement must never see a stale count.
        lock(&self.shared.state).pending += 1;
        lock(&self.shared.injector).push_back(Box::new(f));
        lock(&self.shared.state).epoch += 1;
        self.shared.cv.notify_one();
    }
}

/// A work-stealing executor.
///
/// The pool is cheap to construct: worker threads live only for the
/// duration of each [`Pool::scope`] call (via [`std::thread::scope`]),
/// which is what lets jobs borrow the caller's stack without `unsafe`.
/// Configuration (worker count) and statistics (cumulative steals)
/// persist across scopes, so one pool can serve a whole sweep.
pub struct Pool {
    workers: usize,
    steals: AtomicUsize,
}

impl Pool {
    /// Creates a pool with `workers` execution slots (clamped to ≥ 1).
    /// Slot 0 is the thread calling [`Pool::scope`]; `workers - 1`
    /// helper threads are spawned per scope. `Pool::new(1)` is fully
    /// sequential: jobs run on the caller, in spawn order.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            steals: AtomicUsize::new(0),
        }
    }

    /// Number of execution slots (including the submitting thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Total successful steals across every scope run on this pool.
    /// A positive count is the observable signature of work actually
    /// migrating between workers (the skewed-cost tests assert on it).
    pub fn steal_count(&self) -> usize {
        self.steals.load(Ordering::Relaxed)
    }

    /// Runs `f` with a [`Scope`] whose jobs may borrow everything that
    /// outlives this call. Returns once every spawned job has finished.
    /// If a job panicked, the first panic payload is re-raised here.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let shared: Shared<'env> = Shared::new(self.workers);
        let result = std::thread::scope(|ts| {
            let guard = ShutdownGuard(&shared);
            for idx in 1..self.workers {
                let sh = &shared;
                ts.spawn(move || sh.worker(idx));
            }
            let r = f(&Scope { shared: &shared });
            shared.drain_and_shutdown();
            drop(guard);
            r
        });
        self.steals
            .fetch_add(shared.steals.load(Ordering::Relaxed), Ordering::Relaxed);
        if let Some(payload) = lock(&shared.panic).take() {
            resume_unwind(payload);
        }
        result
    }

    /// Applies `f` to every item in parallel and returns the results
    /// **in item order** — deterministic for any worker count. With at
    /// most one item there is nothing to share, so `f` runs inline on
    /// the caller and no thread starts.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let f = &f;
        self.scope(|s| {
            for (i, (item, slot)) in items.iter().zip(&slots).enumerate() {
                s.spawn(move || {
                    let r = f(i, item);
                    *lock(slot) = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    // demt-lint: allow(P1, the scope joins every worker so each result slot was written exactly once)
                    .expect("scope ran every job")
            })
            .collect()
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("steals", &self.steal_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn par_map_returns_results_in_item_order() {
        let pool = Pool::new(4);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_completes_immediately() {
        let pool = Pool::new(4);
        let out: Vec<u32> = pool.par_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn a_single_item_runs_inline_on_the_caller() {
        let pool = Pool::new(4);
        let caller = std::thread::current().id();
        let ids = pool.par_map(&[7u32], |_, _| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
    }

    #[test]
    fn single_worker_is_sequential_in_spawn_order() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..10 {
                let order = &order;
                s.spawn(move || lock(order).push(i));
            }
            // Nothing has run yet: with one slot, the caller drains the
            // queue only after the scope closure returns.
            assert!(lock(&order).is_empty());
        });
        assert_eq!(*lock(&order), (0..10).collect::<Vec<_>>());
        assert_eq!(pool.steal_count(), 0, "no one to steal from");
    }

    #[test]
    fn scope_jobs_borrow_the_environment() {
        let pool = Pool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..50 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn skewed_costs_trigger_stealing() {
        // One long job buried in a batch of short ones: the worker that
        // grabs the batch containing it stalls, and the others must
        // steal the remainder of its deque to finish.
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..48).collect();
        let out = pool.par_map(&items, |i, &x| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(60));
            } else {
                std::thread::sleep(Duration::from_millis(1));
            }
            x + 1
        });
        assert_eq!(out, (1..=48).collect::<Vec<_>>());
        assert!(
            pool.steal_count() > 0,
            "skewed batch must migrate between workers (steals = {})",
            pool.steal_count()
        );
    }

    #[test]
    fn float_reduction_is_identical_across_worker_counts() {
        let items: Vec<f64> = (0..200).map(|i| 0.1 + i as f64 * 0.317).collect();
        // `par_map` returns results in item order, so a sequential fold
        // over them adds the floats in the same order for any pool size.
        let reduce = |workers: usize| {
            let mapped = Pool::new(workers).par_map(&items, |_, &x| x.sin());
            mapped.iter().fold(0.0f64, |a, r| a + r)
        };
        let reference = reduce(1);
        for workers in [2, 3, 8] {
            let got = reduce(workers);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "workers = {workers} drifted"
            );
        }
    }

    #[test]
    fn nested_scopes_compose() {
        let outer = Pool::new(2);
        let inner = Pool::new(2);
        let totals = Mutex::new(Vec::new());
        outer.scope(|s| {
            for base in [0u64, 100, 200] {
                let inner = &inner;
                let totals = &totals;
                s.spawn(move || {
                    let xs: Vec<u64> = (base..base + 10).collect();
                    let sum: u64 = inner.par_map(&xs, |_, &x| x).iter().sum();
                    lock(totals).push(sum);
                });
            }
        });
        let mut got = lock(&totals).clone();
        got.sort_unstable();
        let expect = |b: u64| (b..b + 10).sum::<u64>();
        assert_eq!(got, vec![expect(0), expect(100), expect(200)]);
    }

    #[test]
    fn panic_in_a_job_propagates_and_pool_survives() {
        let pool = Pool::new(3);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&[0u32, 1, 2, 3, 4, 5, 6, 7], |i, _| {
                if i == 3 {
                    panic!("job three exploded");
                }
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert!(msg.contains("job three exploded"), "got {msg:?}");

        // The pool is still usable after a panicked scope.
        let out = pool.par_map(&[1u32, 2, 3], |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn panic_in_the_scope_body_releases_the_workers() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|_s| -> () { panic!("scope body bailed") });
        }));
        assert!(result.is_err());
        // No deadlock and the pool still works.
        assert_eq!(pool.par_map(&[9u32, 10], |_, &x| x), vec![9, 10]);
    }
}
