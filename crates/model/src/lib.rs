//! # demt-model — moldable parallel-task model
//!
//! Data model shared by every crate of the `demt` workspace: *moldable*
//! parallel tasks in the sense of Feitelson's classification, i.e. tasks
//! whose processor allotment is chosen by the scheduler **before**
//! execution and stays constant until completion (paper §2.1).
//!
//! A task is described by the vector of its processing times
//! `p(1), p(2), …, p(m)` — `p(k)` being the execution time on `k`
//! processors — together with a positive weight used by the
//! `Σ wᵢ Cᵢ` (minsum) criterion.
//!
//! The generators of `demt-workload` only produce **monotonic** tasks:
//! `p(k)` is non-increasing in `k` while the work `k·p(k)` is
//! non-decreasing (adding processors never slows the task down but never
//! pays off super-linearly either). Monotony is the standard assumption
//! of the dual-approximation substrate (\[7\], \[17\] of the paper) and the
//! model crate both *checks* it ([`MoldableTask::is_monotonic`]) and can
//! *restore* it for arbitrary vectors ([`MoldableTask::monotonized`]).
//!
//! The two canonical queries used throughout the paper are provided on
//! every task:
//!
//! * [`MoldableTask::min_alloc_within`] — the paper's `allotᵢ`: the
//!   smallest allotment whose processing time fits a deadline `t`;
//! * [`MoldableTask::min_area_within`] — the paper's `S_{i,j}`: the
//!   smallest *area* (processors × time) achievable under a deadline.

#![warn(missing_docs)]

mod error;
mod hierarchy;
mod instance;
mod procset;
mod task;

pub use error::ModelError;
pub use hierarchy::{Hierarchy, HierarchyError};
pub use instance::{Instance, InstanceBuilder, InstanceStats};
pub use procset::{ProcSet, ProcSetIter};
pub use task::{MoldableTask, TaskId};

/// Relative tolerance used by floating-point comparisons throughout the
/// workspace (monotony checks, schedule validation, bound sandwiches).
pub const REL_EPS: f64 = 1e-9;

/// `a ≤ b` up to the workspace relative tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + REL_EPS * b.abs().max(a.abs()).max(1.0)
}

/// `a == b` up to the workspace relative tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_EPS * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod approx_tests {
    use super::*;

    #[test]
    fn approx_le_accepts_equal_values() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(0.0, 0.0));
    }

    #[test]
    fn approx_le_accepts_tiny_overshoot() {
        assert!(approx_le(1.0 + 1e-12, 1.0));
    }

    #[test]
    fn approx_le_rejects_clear_violation() {
        assert!(!approx_le(1.01, 1.0));
        assert!(!approx_le(1e-3, 0.0));
    }

    #[test]
    fn approx_eq_symmetry() {
        assert!(approx_eq(3.0, 3.0 + 1e-12));
        assert!(approx_eq(3.0 + 1e-12, 3.0));
        assert!(!approx_eq(3.0, 3.1));
    }
}
