//! # demt-exec — one shared pool for ordered parallel maps
//!
//! The experiment harness runs grids of independent `(figure, point,
//! run)` cells whose costs are skewed (large-`n` cells dominate). The
//! LP horizon sweep, serve's lift and serialize steps and replaybench's
//! serialize step fan out the same way.
//!
//! [`Pool::par_map`] is the one operation: the caller and its scoped
//! helper threads claim items one at a time from a shared counter, so
//! an idle thread always takes the next unclaimed cell, and the
//! results come back in item order. A caller that folds them
//! sequentially gets byte-identical output for any worker count; this
//! is what lets `repro --workers 8` emit the same JSON as
//! `--workers 1`.
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

pub use pool::Pool;
