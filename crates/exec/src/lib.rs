//! # demt-exec — vendored work-stealing executor
//!
//! The experiment harness runs grids of independent `(figure, point,
//! run)` cells whose costs are skewed (large-`n` cells dominate). A
//! flat atomic-counter loop shards work at a fixed granularity and
//! leaves cores idle at the tail of every batch; this crate provides
//! the rayon-style alternative the ROADMAP calls for: a **work-stealing
//! thread pool** with per-worker deques and a global injector, plus a
//! small deterministic data-parallel API on top.
//!
//! ## Structure
//!
//! * [`Pool`] — a reusable executor configured with a worker count.
//!   Every [`Pool::scope`] call spins up its workers inside
//!   [`std::thread::scope`], so submitted closures may borrow from the
//!   caller's stack; the pool object itself carries configuration and
//!   cumulative statistics.
//! * Per-worker **deques** with the Chase–Lev access discipline — the
//!   owner pushes and pops at the back, thieves steal from the front —
//!   backed by mutexes rather than lock-free buffers because this
//!   workspace forbids `unsafe` (`unsafe_code = "deny"`); jobs here are
//!   experiment cells costing micro- to milliseconds, so a mutex per
//!   deque operation is noise.
//! * A **global injector** queue: [`Scope::spawn`] pushes there, idle
//!   workers pull *batches* into their own deque (the batch is what
//!   makes stealing meaningful), and whatever remains is up for grabs.
//! * A **deterministic** data-parallel layer: [`Pool::par_map`] writes
//!   each result into its item's slot and returns them in item order,
//!   so a caller that folds them sequentially gets output that is
//!   byte-identical regardless of the worker count or the interleaving
//!   of the workers. This is what lets `repro --workers 8` emit the
//!   same JSON as `--workers 1`.
//!
//! Panics inside jobs are caught, the remaining jobs are drained, and
//! the first payload is re-raised on the caller once the scope ends —
//! matching [`std::thread::scope`]'s "a panic is never lost" contract.
//!
//! ## Example
//!
//! ```
//! use demt_exec::Pool;
//!
//! let pool = Pool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

mod pool;

pub use pool::{Pool, Scope};
