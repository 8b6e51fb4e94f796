//! # demt-lp — revised simplex with warm starts
//!
//! The paper's minsum lower bound (§3.3) is the optimum of a relaxed
//! interval-indexed linear program, re-solved at every horizon of the
//! `demt-bounds` sweep. No LP solver is in the sanctioned dependency
//! set, so this crate implements one from scratch: a **revised primal
//! simplex** over a compressed-sparse-column ([`CscMatrix`]) constraint
//! matrix, with
//!
//! * an explicitly maintained [`Basis`] whose inverse is represented by
//!   a sparse LU factorization plus an **eta file** of product-form
//!   updates, refactorized periodically (every 64 pivots, or sooner on
//!   a suspicious pivot);
//! * Dantzig pricing with the Bland first-index fallback for
//!   anti-cycling, and explicit infeasible/unbounded detection;
//! * one solve method per start: [`LinearProgram::solve`] runs the
//!   cold two-phase start, and the **warm start**
//!   [`LinearProgram::solve_from`] seeds the solve with a
//!   caller-supplied basis and returns the optimal basis alongside the
//!   [`Solution`], so a sweep of nearby programs pays for phase 1 once;
//!   [`LinearProgram::try_solve_from`] is the same warm start with no
//!   cold fallback, for a caller that has a better second seed.
//!
//! The dense full-tableau predecessor survives as a test-only module;
//! a differential property suite keeps the two solvers agreeing to
//! `1e-9` on random feasible, infeasible and degenerate programs.
//!
//! ## Cold and warm solves
//!
//! ```
//! use demt_lp::{LinearProgram, Relation};
//! // min x + 2y  s.t.  x + y ≥ 1, y ≤ 3
//! let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
//! lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
//! lp.constrain(vec![(1, 1.0)], Relation::Le, 3.0);
//!
//! // Cold: two-phase solve, optimal basis returned for reuse.
//! let (sol, basis) = lp.solve().unwrap();
//! assert!((sol.objective - 1.0).abs() < 1e-9); // x = 1, y = 0
//! assert!(!sol.warm_started);
//!
//! // Warm: the same structure with a shifted right-hand side starts
//! // from the previous optimum and prices out in O(few) iterations.
//! let mut shifted = LinearProgram::minimize(vec![1.0, 2.0]);
//! shifted.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
//! shifted.constrain(vec![(1, 1.0)], Relation::Le, 3.0);
//! let (warm, _basis2) = shifted.solve_from(&basis).unwrap();
//! assert!(warm.warm_started);
//! assert!((warm.objective - 2.0).abs() < 1e-9); // x = 2
//! ```
//!
//! ## Warm-start semantics
//!
//! A seed basis is *validated, never trusted*:
//! [`solve_from`](LinearProgram::solve_from) rejects a
//! stale basis — wrong row count, out-of-range or duplicate columns,
//! an [`Basis::ARTIFICIAL`] slot, a singular basis matrix — and
//! silently falls back to the cold two-phase start. A valid basis
//! whose basic point went infeasible (the normal state after a
//! right-hand-side change) is repaired in place by a **dual simplex**
//! phase before primal pricing resumes; only a failed repair falls
//! back to phase 1 (or, under
//! [`try_solve_from`](LinearProgram::try_solve_from), hands the choice
//! back as `Ok(None)`). [`Solution::warm_started`] reports which path ran,
//! and [`Solution::iterations`] / [`Solution::refactorizations`] make
//! the cost of either path observable to callers (the `demt bound`
//! CLI surfaces them as JSON).
//!
//! Basis column indices follow the standard-form layout documented on
//! [`LinearProgram::slack_column`], which is stable across programs
//! with the same row/variable structure — exactly what the horizon
//! sweep in `demt-bounds` exploits.

#![warn(missing_docs)]

#[cfg(test)]
mod dense;
#[cfg(test)]
mod difftests;
mod problem;
mod simplex;

pub use problem::{Constraint, CscMatrix, LinearProgram, Relation};
pub use simplex::{Basis, LpError, Solution};
