//! # demt-workload — synthetic moldable-job workloads
//!
//! Reimplements the generators of the SPAA'04 experimental setting
//! (§4.1): the uniform and mixed sequential-time models, the recursive
//! parallelism model with weakly/highly parallel degree laws, and a
//! Cirne–Berman-style moldable-job model built on Downey's analytic
//! speed-up curves (see DESIGN.md for the substitution rationale).
//!
//! Everything is deterministic given a [`WorkloadSpec`] (family, `n`,
//! `m`, seed), which is what the experiment harness sweeps.
//!
//! ```
//! use demt_workload::{generate, WorkloadKind};
//! let inst = generate(WorkloadKind::Cirne, 50, 64, 42);
//! assert_eq!(inst.len(), 50);
//! assert!(inst.check_monotonic().is_ok());
//! ```

#![warn(missing_docs)]

mod downey;
mod recursive;
mod spec;
mod tracegen;

pub use downey::{downey_speedup, downey_times};
pub use recursive::{recursive_times, recursive_times_const};
pub use spec::{generate, WorkloadKind, WorkloadSpec, MIN_SEQ_TIME};
pub use tracegen::{TraceGen, TraceJob, TraceSpec};
