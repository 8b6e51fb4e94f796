//! The pool: scoped threads that claim items from one shared counter.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// An ordered data-parallel map over a fixed number of threads.
///
/// The pool holds only its worker count. Each [`Pool::par_map`] call
/// starts its helper threads inside [`std::thread::scope`], so `f` may
/// borrow the caller's stack, and joins them before it returns.
#[derive(Debug)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// Creates a pool of `workers` threads (clamped to ≥ 1), the
    /// calling thread included. `Pool::new(1)` runs everything on the
    /// caller, in item order.
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// Applies `f` to every item in parallel and returns the results
    /// **in item order**, so the output is the same for any worker
    /// count.
    ///
    /// `min(workers, items.len())` threads take part: the caller and
    /// that many helpers less one. Each claims the next unclaimed index
    /// until none is left, so a thread that finishes early takes the
    /// next item and skewed costs even out at the tail. With one thread
    /// `f` runs inline and nothing starts. A panic in `f` reaches the
    /// caller with its own payload once every thread has stopped.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let threads = self.workers.min(items.len());
        if threads <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(i, item)));
            }
        };
        let mut pairs = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim)).collect();
            let mut pairs = claim();
            for helper in helpers {
                match helper.join() {
                    Ok(done) => pairs.extend(done),
                    Err(payload) => resume_unwind(payload),
                }
            }
            pairs
        });
        pairs.sort_unstable_by_key(|&(i, _)| i);
        pairs.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
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
        let caller = std::thread::current().id();
        let ids = Pool::new(4).par_map(&[7u32], |_, _| std::thread::current().id());
        assert_eq!(ids, vec![caller]);
        // One worker runs many items inline too, in item order.
        let items: Vec<u32> = (0..50).collect();
        let seen = Pool::new(1).par_map(&items, |i, _| (i, std::thread::current().id()));
        assert_eq!(seen, (0..50).map(|i| (i, caller)).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_costs_finish_in_item_order() {
        // One long item among short ones: whoever claims it stalls,
        // and the other threads claim the rest around it.
        let pool = Pool::new(4);
        let items: Vec<u64> = (0..48).collect();
        let out = pool.par_map(&items, |i, &x| {
            let ms = if i == 0 { 60 } else { 1 };
            std::thread::sleep(Duration::from_millis(ms));
            x + 1
        });
        assert_eq!(out, (1..=48).collect::<Vec<_>>());
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
    fn nested_par_map_composes() {
        let outer = Pool::new(2);
        let inner = Pool::new(2);
        let sums = outer.par_map(&[0u64, 100, 200], |_, &base| {
            let xs: Vec<u64> = (base..base + 10).collect();
            inner.par_map(&xs, |_, &x| x).iter().sum::<u64>()
        });
        let expect = |b: u64| (b..b + 10).sum::<u64>();
        assert_eq!(sums, vec![expect(0), expect(100), expect(200)]);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_survives() {
        // The caller holds its first item until a helper has claimed
        // one, so the panic is raised on a helper thread, not inline.
        let pool = Pool::new(3);
        let caller = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&[0u32; 8], |_, _| {
                if std::thread::current().id() != caller {
                    helper_ran.store(true, Ordering::Relaxed);
                    panic!("helper exploded");
                }
                while !helper_ran.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        }));
        let payload = result.expect_err("panic must propagate to the caller");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("<non-str payload>");
        assert_eq!(msg, "helper exploded");

        let out = pool.par_map(&[1u32, 2, 3], |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }
}
