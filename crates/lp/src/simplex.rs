//! Revised primal simplex over sparse columns.
//!
//! The solver keeps the constraint matrix in CSC form and represents
//! the basis inverse implicitly: a sparse LU factorization of the basis
//! matrix (left-looking, partial pivoting) plus an **eta file** of
//! product-form updates, refactorized every [`REFACTOR_EVERY`] pivots.
//! Each iteration prices with BTRAN (`y = B⁻ᵀ c_B`, reduced costs
//! `dⱼ = cⱼ − y·Aⱼ` via sparse dots), Dantzig rule with the Bland
//! fallback for anti-cycling, then FTRAN's `w = B⁻¹ A_q` feeds the
//! ratio test and becomes the next eta vector. Against the dense
//! full-tableau predecessor (kept as the test-only [`crate::dense`]
//! reference) this turns the per-iteration cost from `O(m·N)` into
//! `O(nnz + |LU| + |etas|)`.
//!
//! Cold solves run the textbook two phases: phase 1 minimizes the sum
//! of artificial variables introduced for `≥`/`=` rows (and `≤` rows
//! with negative right-hand sides, which are normalized first); a
//! positive phase-1 optimum certifies infeasibility, and artificials
//! are barred from re-entering in phase 2.
//! [`solve_from`](LinearProgram::solve_from) skips phase 1 entirely
//! when the caller supplies a starting [`Basis`] that is still valid
//! for this program — the warm-start path that makes repeated
//! solves over nearby right-hand sides (the `demt-bounds` horizon
//! sweep) cheap.

use crate::problem::{CscMatrix, LinearProgram, Relation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Solver outcome for an LP that has an optimum.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal objective value.
    pub objective: f64,
    /// Optimal point (structural variables only).
    pub x: Vec<f64>,
    /// Simplex iterations spent over both phases.
    pub iterations: usize,
    /// Iterations spent in phase 1 (zero for accepted warm starts).
    pub phase1_iterations: usize,
    /// Basis refactorizations performed (excluding the initial one).
    pub refactorizations: usize,
    /// Whether a caller-supplied basis was accepted and used. `false`
    /// for [`solve`](LinearProgram::solve) and for
    /// [`solve_from`](LinearProgram::solve_from) calls whose seed was
    /// stale or infeasible and fell back to the cold two-phase start.
    pub warm_started: bool,
}

/// Solver failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpError {
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration cap was hit (should not happen with Bland's rule;
    /// kept as a defensive failure mode rather than an infinite loop).
    IterationLimit {
        /// The cap that was exhausted, `200·(rows + columns)` at least.
        limit: usize,
    },
    /// A refactorization found the basis matrix numerically singular —
    /// accumulated roundoff destroyed the factorization (defensive; a
    /// simplex basis is nonsingular in exact arithmetic).
    SingularBasis,
}

impl std::fmt::Display for LpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LpError::Infeasible => write!(f, "infeasible linear program"),
            LpError::Unbounded => write!(f, "unbounded linear program"),
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit reached ({limit} iterations)")
            }
            LpError::SingularBasis => {
                write!(f, "basis matrix numerically singular at refactorization")
            }
        }
    }
}

impl std::error::Error for LpError {}

/// A simplex basis: one standard-form column per constraint row.
///
/// Column indices follow the layout documented on
/// [`LinearProgram::slack_column`]: `0..num_vars()` are the structural
/// variables, followed by one slack/surplus column per inequality row
/// in row order. A basis returned by the solver can be fed back to
/// [`solve_from`](LinearProgram::solve_from) on the *same or a
/// structurally similar* program; the solver validates it first and
/// silently falls back to a cold start when it is stale (see
/// [`solve_from`](LinearProgram::solve_from) for the exact rules).
///
/// Positions where the optimal basis still held an artificial variable
/// (possible only for redundant constraint rows) are recorded as
/// [`Basis::ARTIFICIAL`]; such a basis is not reusable and is rejected
/// by [`solve_from`](LinearProgram::solve_from).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    cols: Vec<usize>,
}

impl Basis {
    /// Marker for a basis slot held by an artificial variable.
    pub const ARTIFICIAL: usize = usize::MAX;

    /// Wraps an explicit column list (one per constraint row).
    pub fn new(cols: Vec<usize>) -> Self {
        Self { cols }
    }

    /// The basis columns, one per constraint row.
    pub fn columns(&self) -> &[usize] {
        &self.cols
    }

    /// Number of basis slots (the row count of the originating LP).
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether the basis has no slots (an LP without constraints).
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// `true` when no slot is [`Basis::ARTIFICIAL`] — the precondition
    /// for the basis to be a valid
    /// [`solve_from`](LinearProgram::solve_from) seed.
    pub fn is_complete(&self) -> bool {
        self.cols.iter().all(|&c| c != Self::ARTIFICIAL)
    }
}

const EPS: f64 = 1e-9;

/// Eta-file length that triggers a refactorization.
const REFACTOR_EVERY: usize = 64;
/// Pivot magnitude below which we refactorize before trusting the eta.
const PIVOT_TOL: f64 = 1e-7;

// ---------------------------------------------------------------------------
// Standard form
// ---------------------------------------------------------------------------

/// The normalized standard form `min c·x, A x = b, x ≥ 0` with columns
/// `[structural | slack/surplus]`; artificial columns are implicit unit
/// vectors appended by the cold start.
struct Form {
    m: usize,
    n_struct: usize,
    /// Structural + slack columns (everything a reusable basis may hold).
    n_real: usize,
    a: CscMatrix,
    b: Vec<f64>,
    /// Rows whose cold start needs an artificial (normalized `≥`/`=`).
    needs_artificial: Vec<bool>,
    slack_of_row: Vec<Option<usize>>,
}

/// `-1` for a row whose right-hand side is negated into `b ≥ 0`.
fn row_sign(rhs: f64) -> f64 {
    if rhs < 0.0 {
        -1.0
    } else {
        1.0
    }
}

fn build_form(lp: &LinearProgram) -> Form {
    let n = lp.num_vars();
    let m = lp.num_constraints();
    let n_real = n + lp.num_slacks();
    let mut b = vec![0.0; m];
    let mut needs_artificial = vec![false; m];
    let mut slack_of_row = vec![None; m];
    let mut next_slack = n;
    for (i, c) in lp.constraints().iter().enumerate() {
        b[i] = c.rhs * row_sign(c.rhs);
        let relation = match (c.relation, c.rhs < 0.0) {
            (Relation::Le, true) => Relation::Ge,
            (Relation::Ge, true) => Relation::Le,
            (r, _) => r,
        };
        if relation != Relation::Le {
            needs_artificial[i] = true;
        }
        if relation != Relation::Eq {
            slack_of_row[i] = Some(next_slack);
            next_slack += 1;
        }
    }
    // Each normalized row, then its slack (`+1`) or surplus (`-1`).
    let a = CscMatrix::from_rows(m, n_real, |i| {
        let c = &lp.constraints()[i];
        let sign = row_sign(c.rhs);
        let slack = slack_of_row[i].map(|s| (s, if needs_artificial[i] { -1.0 } else { 1.0 }));
        c.coeffs
            .iter()
            .map(move |&(j, a)| (j, a * sign))
            .chain(slack)
    });
    Form {
        m,
        n_struct: n,
        n_real,
        a,
        b,
        needs_artificial,
        slack_of_row,
    }
}

/// The standard-form matrix as the per-column build that
/// [`CscMatrix::from_rows`] replaced assembles it, for the tests that
/// pin [`build_form`] to it bit for bit.
#[cfg(test)]
pub(crate) fn form_matrices(lp: &LinearProgram) -> (CscMatrix, CscMatrix) {
    let form = build_form(lp);
    let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); form.n_real];
    for (i, c) in lp.constraints().iter().enumerate() {
        let sign = row_sign(c.rhs);
        for &(j, a) in &c.coeffs {
            columns[j].push((i, a * sign));
        }
        if let Some(s) = form.slack_of_row[i] {
            columns[s].push((i, if form.needs_artificial[i] { -1.0 } else { 1.0 }));
        }
    }
    (form.a, CscMatrix::from_columns(form.m, columns))
}

/// Standard-form column `j` as parallel `(rows, values)` slices.
/// Columns `>= n_real` are the implicit artificial unit vectors.
fn column<'a>(form: &'a Form, art_row: &'a [usize], j: usize) -> (&'a [usize], &'a [f64]) {
    if j < form.n_real {
        form.a.col(j)
    } else {
        (std::slice::from_ref(&art_row[j - form.n_real]), &[1.0])
    }
}

/// Scatters standard-form column `j` into a dense row-indexed buffer.
fn scatter_column(form: &Form, art_row: &[usize], j: usize, out: &mut [f64]) {
    let (rows, vals) = column(form, art_row, j);
    for (&r, &v) in rows.iter().zip(vals) {
        out[r] += v;
    }
}

/// `y · Aⱼ` for standard-form column `j` (the pricing kernel).
#[inline]
fn column_dot(form: &Form, art_row: &[usize], j: usize, y: &[f64]) -> f64 {
    if j < form.n_real {
        form.a.dot_col(j, y)
    } else {
        y[art_row[j - form.n_real]]
    }
}

// ---------------------------------------------------------------------------
// Basis factorization: sparse LU + eta file
// ---------------------------------------------------------------------------

/// One product-form update: after the pivot at basis position `r` with
/// FTRAN'd entering column `w`, `B⁻¹_new = E·B⁻¹_old` with
/// `E = I − (w − e_r)·e_rᵀ / w_r`.
struct Eta {
    r: usize,
    pivot: f64,
    /// The nonzero entries of `w` other than position `r`, as a range of
    /// [`Etas::entries`].
    lo: usize,
    hi: usize,
}

/// The eta file: the updates since the last refactorization, with all
/// their entries in one buffer that a refactorization empties but does
/// not free.
#[derive(Default)]
struct Etas {
    etas: Vec<Eta>,
    entries: Vec<(usize, f64)>,
}

impl Etas {
    fn len(&self) -> usize {
        self.etas.len()
    }

    fn is_empty(&self) -> bool {
        self.etas.is_empty()
    }

    fn clear(&mut self) {
        self.etas.clear();
        self.entries.clear();
    }

    /// Appends the update of a pivot at position `r` on FTRAN'd `w`.
    fn push(&mut self, r: usize, w: &[f64]) {
        let lo = self.entries.len();
        self.entries.extend(
            w.iter()
                .enumerate()
                .filter(|&(i, &v)| i != r && v.abs() > 1e-13)
                .map(|(i, &v)| (i, v)),
        );
        self.etas.push(Eta {
            r,
            pivot: w[r],
            lo,
            hi: self.entries.len(),
        });
    }

    /// Applies every `E` in order, in place (FTRAN direction).
    fn apply(&self, x: &mut [f64]) {
        for e in &self.etas {
            let t = x[e.r] / e.pivot;
            // demt-lint: allow(F1, exact zero skips a structurally absent sparse entry; no tolerance is intended)
            if t != 0.0 {
                for &(i, v) in &self.entries[e.lo..e.hi] {
                    x[i] -= v * t;
                }
            }
            x[e.r] = t;
        }
    }

    /// Applies every `Eᵀ` in reverse order, in place (BTRAN direction).
    fn apply_transposed(&self, y: &mut [f64]) {
        for e in self.etas.iter().rev() {
            let mut acc = y[e.r];
            for &(i, v) in &self.entries[e.lo..e.hi] {
                acc -= v * y[i];
            }
            y[e.r] = acc / e.pivot;
        }
    }
}

/// Sparse LU factors of the basis matrix, `P·B = L·U` with partial
/// pivoting, built left-looking (Gilbert–Peierls). Each column's solve
/// visits only the positions its nonzeros reach through `L`, so a
/// factorization costs in proportion to the nonzeros of the basis and
/// its factors, not to `m²`.
struct Factor {
    /// Column `k` of unit-lower `L`: `(original row, multiplier)` for
    /// rows pivoted after position `k`, in ascending row order.
    l_cols: Vec<Vec<(usize, f64)>>,
    /// Column `j` of `U`: `(position k < j, value)`, in ascending
    /// position order.
    u_cols: Vec<Vec<(usize, f64)>>,
    u_diag: Vec<f64>,
    /// Position → original row of its pivot.
    rperm: Vec<usize>,
    /// Original row → position (inverse of `rperm`; `usize::MAX` while
    /// the row is not pivoted).
    pinv: Vec<usize>,
}

impl Factor {
    fn with_capacity(m: usize) -> Factor {
        Factor {
            l_cols: Vec::with_capacity(m),
            u_cols: Vec::with_capacity(m),
            u_diag: Vec::with_capacity(m),
            rperm: Vec::with_capacity(m),
            pinv: vec![usize::MAX; m],
        }
    }

    /// The factors of the `m × m` identity, with every position
    /// pivoted on its own row: what [`Factor::new`] makes of a basis of
    /// unit columns in row order, such as the cold start's.
    fn identity(m: usize) -> Factor {
        Factor {
            l_cols: vec![Vec::new(); m],
            u_cols: vec![Vec::new(); m],
            u_diag: vec![1.0; m],
            rperm: (0..m).collect(),
            pinv: (0..m).collect(),
        }
    }

    /// Records the pivot of the column at the next position.
    fn push(&mut self, piv: usize, d: f64, ucol: Vec<(usize, f64)>, lcol: Vec<(usize, f64)>) {
        self.pinv[piv] = self.rperm.len();
        self.rperm.push(piv);
        self.u_diag.push(d);
        self.u_cols.push(ucol);
        self.l_cols.push(lcol);
    }

    /// Factorizes the basis columns, each given as its sparse
    /// `(rows, values)`; `None` when numerically singular.
    ///
    /// Each column is scattered into a dense accumulator whose touched
    /// rows (its pattern) are tracked. The left-looking solve then runs
    /// over the pivoted rows of the pattern in ascending position
    /// order, drawn from a min-heap: the rows of `l_cols[k]` are pivoted
    /// after `k`, so every position the solve reaches is larger than the
    /// one it came from. Positions it never reaches hold an exact zero,
    /// which the dense loop over `0..pos` skips as well, so the same
    /// floating-point operations run in the same order and the factors
    /// come out bit for bit as the dense loop's.
    fn new<'a>(
        m: usize,
        basis: &[usize],
        column: impl Fn(usize) -> (&'a [usize], &'a [f64]),
    ) -> Option<Factor> {
        debug_assert_eq!(basis.len(), m);
        let mut f = Factor::with_capacity(m);
        let mut work = vec![0.0; m];
        let mut in_pattern = vec![false; m];
        let mut pattern: Vec<usize> = Vec::new();
        let mut reach: BinaryHeap<Reverse<usize>> = BinaryHeap::new();
        for &bj in basis {
            let (rows, vals) = column(bj);
            for (&r, &v) in rows.iter().zip(vals) {
                work[r] += v;
                if !in_pattern[r] {
                    in_pattern[r] = true;
                    pattern.push(r);
                    if f.pinv[r] != usize::MAX {
                        reach.push(Reverse(f.pinv[r]));
                    }
                }
            }
            let col_max = pattern.iter().fold(0.0f64, |a, &r| a.max(work[r].abs()));
            // Left-looking solve against the columns factored so far. A
            // position's value is final when it is popped: later
            // positions only update rows pivoted after them.
            let mut ucol = Vec::new();
            while let Some(Reverse(k)) = reach.pop() {
                let t = work[f.rperm[k]];
                // demt-lint: allow(F1, exact zero skips a structurally absent sparse entry; no tolerance is intended)
                if t == 0.0 {
                    continue;
                }
                for &(i, lv) in &f.l_cols[k] {
                    work[i] -= lv * t;
                    if !in_pattern[i] {
                        in_pattern[i] = true;
                        pattern.push(i);
                        if f.pinv[i] != usize::MAX {
                            reach.push(Reverse(f.pinv[i]));
                        }
                    }
                }
                ucol.push((k, t));
            }
            // Partial pivoting over the not-yet-pivoted rows, in
            // ascending row order so ties go to the lowest row.
            pattern.sort_unstable();
            let mut piv = usize::MAX;
            let mut best = 0.0f64;
            for &i in &pattern {
                if f.pinv[i] == usize::MAX && work[i].abs() > best {
                    best = work[i].abs();
                    piv = i;
                }
            }
            if best <= 1e-10 * col_max.max(1.0) {
                return None; // dependent column: singular basis
            }
            let d = work[piv];
            let mut lcol = Vec::new();
            for &i in &pattern {
                // demt-lint: allow(F1, exact zero skips a structurally absent sparse entry; no tolerance is intended)
                if f.pinv[i] == usize::MAX && i != piv && work[i] != 0.0 {
                    lcol.push((i, work[i] / d));
                }
                work[i] = 0.0;
                in_pattern[i] = false;
            }
            pattern.clear();
            f.push(piv, d, ucol, lcol);
        }
        Some(f)
    }

    /// The dense-accumulator factorization the sparse [`Factor::new`]
    /// replaced: every column pays `O(m)` for its solve over `0..pos`,
    /// its `U` gather, its pivot search and its `L` gather. Kept as the
    /// reference the differential tests pin `new` against bit for bit.
    #[cfg(test)]
    fn new_dense<'a>(
        m: usize,
        basis: &[usize],
        column: impl Fn(usize) -> (&'a [usize], &'a [f64]),
    ) -> Option<Factor> {
        let mut f = Factor::with_capacity(m);
        let mut work = vec![0.0; m];
        let mut pivoted = vec![false; m];
        for (pos, &bj) in basis.iter().enumerate() {
            let (rows, vals) = column(bj);
            for (&r, &v) in rows.iter().zip(vals) {
                work[r] += v;
            }
            let col_max = work.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            for k in 0..pos {
                let t = work[f.rperm[k]];
                if t != 0.0 {
                    for &(i, lv) in &f.l_cols[k] {
                        work[i] -= lv * t;
                    }
                }
            }
            let mut ucol = Vec::new();
            for (k, &row) in f.rperm.iter().enumerate() {
                let v = work[row];
                if v != 0.0 {
                    ucol.push((k, v));
                }
                work[row] = 0.0;
            }
            let mut piv = usize::MAX;
            let mut best = 0.0f64;
            for (i, w) in work.iter().enumerate() {
                if !pivoted[i] && w.abs() > best {
                    best = w.abs();
                    piv = i;
                }
            }
            if best <= 1e-10 * col_max.max(1.0) {
                return None;
            }
            let d = work[piv];
            let mut lcol = Vec::new();
            for (i, w) in work.iter_mut().enumerate() {
                if !pivoted[i] && i != piv && *w != 0.0 {
                    lcol.push((i, *w / d));
                }
                *w = 0.0;
            }
            f.push(piv, d, ucol, lcol);
            pivoted[piv] = true;
        }
        Some(f)
    }

    /// FTRAN: overwrites a dense row-indexed right-hand side with
    /// `B⁻¹·rhs`, indexed by basis position. `spare` is a scratch
    /// buffer of the same length; the two are swapped on return.
    fn ftran(&self, etas: &Etas, w: &mut Vec<f64>, spare: &mut Vec<f64>) {
        let m = self.rperm.len();
        let y = spare;
        // L-solve in pivot order; it writes every position of `y`.
        for (k, &row) in self.rperm.iter().enumerate() {
            let t = w[row];
            y[k] = t;
            // demt-lint: allow(F1, exact zero skips a structurally absent sparse entry; no tolerance is intended)
            if t != 0.0 {
                for &(i, lv) in &self.l_cols[k] {
                    w[i] -= lv * t;
                }
            }
        }
        // U back-substitution, column-oriented.
        for j in (0..m).rev() {
            y[j] /= self.u_diag[j];
            let t = y[j];
            // demt-lint: allow(F1, exact zero skips a structurally absent sparse entry; no tolerance is intended)
            if t != 0.0 {
                for &(k, uv) in &self.u_cols[j] {
                    y[k] -= uv * t;
                }
            }
        }
        etas.apply(y);
        std::mem::swap(w, y);
    }

    /// BTRAN: writes `B⁻ᵀ·c` into `y` (indexed by original row) from `c`
    /// in `z` (indexed by basis position), which it overwrites.
    fn btran(&self, etas: &Etas, z: &mut [f64], y: &mut [f64]) {
        let m = self.rperm.len();
        etas.apply_transposed(z);
        // Uᵀ forward solve.
        for j in 0..m {
            let mut acc = z[j];
            for &(k, uv) in &self.u_cols[j] {
                acc -= uv * z[k];
            }
            z[j] = acc / self.u_diag[j];
        }
        // Lᵀ backward solve (positions above `k` are already final).
        for k in (0..m).rev() {
            let mut acc = z[k];
            for &(i, lv) in &self.l_cols[k] {
                acc -= lv * z[self.pinv[i]];
            }
            z[k] = acc;
        }
        for (k, &row) in self.rperm.iter().enumerate() {
            y[row] = z[k];
        }
    }
}

/// A factorization's `(l_cols, u_cols, u_diag, rperm)` with every float
/// as its bit pattern, so two factorizations compare bit for bit.
#[cfg(test)]
pub(crate) type FactorBits = (
    Vec<Vec<(usize, u64)>>,
    Vec<Vec<(usize, u64)>>,
    Vec<u64>,
    Vec<usize>,
);

/// `f`'s factors as [`FactorBits`].
#[cfg(test)]
fn factor_bits(f: Factor) -> FactorBits {
    let cols = |c: &[Vec<(usize, f64)>]| -> Vec<Vec<(usize, u64)>> {
        c.iter()
            .map(|v| v.iter().map(|&(i, x)| (i, x.to_bits())).collect())
            .collect()
    };
    (
        cols(&f.l_cols),
        cols(&f.u_cols),
        f.u_diag.iter().map(|x| x.to_bits()).collect(),
        f.rperm,
    )
}

/// Factorizes `basis` (standard-form columns of `lp`, structural or
/// slack) with [`Factor::new`] and with the dense reference
/// [`Factor::new_dense`], in that order.
#[cfg(test)]
pub(crate) fn factor_both(
    lp: &LinearProgram,
    basis: &[usize],
) -> (Option<FactorBits>, Option<FactorBits>) {
    let form = build_form(lp);
    let col = |j| column(&form, &[], j);
    (
        Factor::new(form.m, basis, col).map(factor_bits),
        Factor::new_dense(form.m, basis, col).map(factor_bits),
    )
}

/// The cold start of `lp` factorized as the solve builds it,
/// [`Factor::identity`], and by [`Factor::new`], in that order.
#[cfg(test)]
pub(crate) fn cold_factors(lp: &LinearProgram) -> (FactorBits, Option<FactorBits>) {
    let form = build_form(lp);
    let (basis, art_row) = cold_start(&form);
    (
        factor_bits(Factor::identity(form.m)),
        Factor::new(form.m, &basis, |j| column(&form, &art_row, j)).map(factor_bits),
    )
}

// ---------------------------------------------------------------------------
// The revised simplex driver
// ---------------------------------------------------------------------------

struct Rev<'a> {
    lp: &'a LinearProgram,
    form: Form,
    /// Artificial column `n_real + k` covers row `art_row[k]`.
    art_row: Vec<usize>,
    /// Current phase's cost per standard-form column.
    cost: Vec<f64>,
    enterable: Vec<bool>,
    in_basis: Vec<bool>,
    basis: Vec<usize>,
    /// Cost of the basic column at each position.
    cb: Vec<f64>,
    x_b: Vec<f64>,
    factor: Factor,
    etas: Etas,
    /// Row-length buffers every iteration reuses: the duals `y`, the
    /// dual-simplex pivot row `rho`, BTRAN's input `z`, the FTRAN'd
    /// entering column `w` and FTRAN's `spare`.
    y: Vec<f64>,
    rho: Vec<f64>,
    z: Vec<f64>,
    w: Vec<f64>,
    spare: Vec<f64>,
    iterations: usize,
    phase1_iterations: usize,
    refactorizations: usize,
    max_iters: usize,
}

impl<'a> Rev<'a> {
    /// A driver on `basis` with `x_B = b`, before any phase's costs
    /// reach `cb`. `cost` has one entry per standard-form column.
    fn new(
        lp: &'a LinearProgram,
        form: Form,
        art_row: Vec<usize>,
        basis: Vec<usize>,
        factor: Factor,
        cost: Vec<f64>,
    ) -> Self {
        let m = form.m;
        let total = cost.len();
        let mut in_basis = vec![false; total];
        for &b in &basis {
            in_basis[b] = true;
        }
        Rev {
            lp,
            x_b: form.b.clone(),
            form,
            art_row,
            cost,
            enterable: vec![true; total],
            in_basis,
            basis,
            cb: vec![0.0; m],
            factor,
            etas: Etas::default(),
            y: vec![0.0; m],
            rho: vec![0.0; m],
            z: vec![0.0; m],
            w: vec![0.0; m],
            spare: vec![0.0; m],
            iterations: 0,
            phase1_iterations: 0,
            refactorizations: 0,
            max_iters: max_iters_for(m, total),
        }
    }

    fn total_cols(&self) -> usize {
        self.form.n_real + self.art_row.len()
    }

    fn objective_now(&self) -> f64 {
        self.cb.iter().zip(&self.x_b).map(|(c, x)| c * x).sum()
    }

    fn reset_cb(&mut self) {
        for (p, &b) in self.basis.iter().enumerate() {
            self.cb[p] = self.cost[b];
        }
    }

    fn refactorize(&mut self) -> Result<(), LpError> {
        self.etas.clear();
        let (form, art_row) = (&self.form, &self.art_row);
        self.factor = Factor::new(form.m, &self.basis, |j| column(form, art_row, j))
            .ok_or(LpError::SingularBasis)?;
        self.x_b.copy_from_slice(&self.form.b);
        self.factor
            .ftran(&self.etas, &mut self.x_b, &mut self.spare);
        for v in &mut self.x_b {
            if *v < 0.0 && *v > -PIVOT_TOL {
                *v = 0.0; // roundoff clamp
            }
        }
        self.refactorizations += 1;
        Ok(())
    }

    /// `y = B⁻ᵀ·c_B`, the duals of the current basis.
    fn price(&mut self) {
        self.z.copy_from_slice(&self.cb);
        self.factor.btran(&self.etas, &mut self.z, &mut self.y);
    }

    /// `rho = B⁻ᵀ·e_r`, row `r` of the basis inverse.
    fn inverse_row(&mut self, r: usize) {
        self.z.fill(0.0);
        self.z[r] = 1.0;
        self.factor.btran(&self.etas, &mut self.z, &mut self.rho);
    }

    /// `w = B⁻¹·A_q`, the entering column `q` in basis coordinates.
    fn entering_column(&mut self, q: usize) {
        self.w.fill(0.0);
        scatter_column(&self.form, &self.art_row, q, &mut self.w);
        self.factor.ftran(&self.etas, &mut self.w, &mut self.spare);
    }

    /// Replaces the basic column at position `r` with column `q`, given
    /// the FTRAN'd entering column in `w` and the step `theta`.
    fn pivot(&mut self, r: usize, q: usize, theta: f64) {
        for (i, v) in self.w.iter().enumerate() {
            if i != r {
                self.x_b[i] -= theta * v;
            }
        }
        self.x_b[r] = theta;
        self.etas.push(r, &self.w);
        self.in_basis[self.basis[r]] = false;
        self.in_basis[q] = true;
        self.basis[r] = q;
        self.cb[r] = self.cost[q];
        self.iterations += 1;
    }

    /// Runs the simplex loop on the current cost vector to optimality.
    fn optimize(&mut self) -> Result<(), LpError> {
        const POOL: usize = 32;
        let mut stall = 0usize;
        let mut last_obj = self.objective_now();
        // Multiple pricing: a full Dantzig pass refills a small pool of
        // the most negative reduced-cost columns; between full passes
        // only the pool is re-priced (with fresh duals, so the values
        // are exact — only the membership ages). Optimality is only
        // ever declared by a full pass; Bland's first-index rule (full
        // pass) takes over when the objective stalls.
        // Once the pool is full, `worst` is the slot a new candidate
        // would replace; it is recomputed only after a replacement.
        let mut pool: Vec<(usize, f64)> = Vec::with_capacity(POOL);
        let mut worst = 0;
        loop {
            if self.iterations > self.max_iters {
                return Err(LpError::IterationLimit {
                    limit: self.max_iters,
                });
            }
            self.price();
            let y = &self.y;
            let bland = stall > 64;
            let mut enter: Option<usize> = None;
            let mut best = -EPS;
            if bland {
                for j in 0..self.total_cols() {
                    if self.in_basis[j] || !self.enterable[j] {
                        continue;
                    }
                    if self.cost[j] - column_dot(&self.form, &self.art_row, j, y) < -EPS {
                        enter = Some(j);
                        break;
                    }
                }
            } else {
                pool.retain(|&(j, _)| !self.in_basis[j]);
                for &(j, _) in &pool {
                    let d = self.cost[j] - column_dot(&self.form, &self.art_row, j, y);
                    if d < best {
                        best = d;
                        enter = Some(j);
                    }
                }
                if enter.is_none() {
                    pool.clear();
                    for j in 0..self.total_cols() {
                        if self.in_basis[j] || !self.enterable[j] {
                            continue;
                        }
                        let d = self.cost[j] - column_dot(&self.form, &self.art_row, j, y);
                        if d < best {
                            best = d;
                            enter = Some(j);
                        }
                        if d < -EPS {
                            if pool.len() < POOL {
                                pool.push((j, d));
                                if pool.len() == POOL {
                                    worst = worst_slot(&pool);
                                }
                            } else if d < pool[worst].1 {
                                pool[worst] = (j, d);
                                worst = worst_slot(&pool);
                            }
                        }
                    }
                }
            }
            let Some(q) = enter else { return Ok(()) };
            self.entering_column(q);
            // Ratio test; Bland tie-break on the leaving basis index.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, &wi) in self.w.iter().enumerate() {
                if wi > EPS {
                    let ratio = self.x_b[i] / wi;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && leave.is_none_or(|l| self.basis[i] < self.basis[l]));
                    if better {
                        best_ratio = ratio;
                        leave = Some(i);
                    }
                }
            }
            let Some(r) = leave else {
                return Err(LpError::Unbounded);
            };
            // A tiny pivot on a long eta file is the classic instability:
            // refactorize and re-derive the iteration from clean factors.
            if self.w[r].abs() < PIVOT_TOL && !self.etas.is_empty() {
                self.refactorize()?;
                continue;
            }
            self.pivot(r, q, best_ratio.max(0.0));
            if self.etas.len() >= REFACTOR_EVERY {
                self.refactorize()?;
            }
            let obj = self.objective_now();
            if (last_obj - obj).abs() <= EPS * last_obj.abs().max(1.0) {
                stall += 1;
            } else {
                stall = 0;
                last_obj = obj;
            }
        }
    }

    /// Dual simplex: restores primal feasibility of a warm-started
    /// basis whose reduced costs are (near-)nonnegative — the textbook
    /// repair after a right-hand-side change, where the previous
    /// optimal basis stays dual-feasible. Leaving row: most negative
    /// basic value; entering column: dual ratio test on the BTRAN'd
    /// pivot row. Returns `Ok(true)` once primal feasible, `Ok(false)`
    /// when it cannot proceed (the caller then falls back to a cold
    /// phase-1 start).
    fn dual_optimize(&mut self) -> Result<bool, LpError> {
        let m = self.form.m;
        let feas_tol = 1e-7 * (1.0 + self.form.b.iter().fold(0.0f64, |a, &v| a.max(v.abs())));
        let budget = self.iterations + 4 * m + 64;
        loop {
            if self.iterations > self.max_iters {
                return Err(LpError::IterationLimit {
                    limit: self.max_iters,
                });
            }
            if self.iterations > budget {
                return Ok(false); // not converging; let phase 1 handle it
            }
            let mut leave: Option<usize> = None;
            let mut most = -feas_tol;
            for (i, &v) in self.x_b.iter().enumerate() {
                if v < most {
                    most = v;
                    leave = Some(i);
                }
            }
            let Some(r) = leave else { return Ok(true) };
            self.price();
            self.inverse_row(r);
            let (y, rho) = (&self.y, &self.rho);
            // Dual ratio test: among columns that would increase the
            // infeasible basic value (row entry < 0), the one whose
            // reduced cost degrades least per unit; clamping mildly
            // negative reduced costs to zero lets slightly
            // dual-infeasible seeds through (primal phase 2 cleans up).
            let mut enter: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..self.total_cols() {
                if self.in_basis[j] || !self.enterable[j] {
                    continue;
                }
                let alpha = column_dot(&self.form, &self.art_row, j, rho);
                if alpha < -EPS {
                    let d = (self.cost[j] - column_dot(&self.form, &self.art_row, j, y)).max(0.0);
                    let ratio = d / -alpha;
                    if ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS && enter.is_none_or(|q| j < q))
                    {
                        best_ratio = ratio;
                        enter = Some(j);
                    }
                }
            }
            let Some(q) = enter else {
                // No column can raise this basic value: the program is
                // infeasible in exact arithmetic, but let the cold
                // phase-1 start certify that from clean factors.
                return Ok(false);
            };
            self.entering_column(q);
            if self.w[r].abs() < EPS {
                if !self.etas.is_empty() {
                    self.refactorize()?;
                    continue;
                }
                return Ok(false); // FTRAN disagrees with BTRAN: bail
            }
            let theta = self.x_b[r] / self.w[r];
            if !theta.is_finite() || theta < -feas_tol {
                return Ok(false);
            }
            self.pivot(r, q, theta.max(0.0));
            if self.etas.len() >= REFACTOR_EVERY {
                self.refactorize()?;
            }
        }
    }

    /// After phase 1: pivot still-basic artificials onto real columns
    /// where possible (degenerate pivots); rows whose artificial cannot
    /// leave are redundant and keep it pinned at zero, which is
    /// harmless — the FTRAN'd entry of every real column is zero there.
    fn drive_out_artificials(&mut self) {
        let m = self.form.m;
        for p in 0..m {
            if self.basis[p] < self.form.n_real {
                continue;
            }
            self.inverse_row(p);
            let candidate = (0..self.form.n_real).find(|&j| {
                !self.in_basis[j]
                    && column_dot(&self.form, &self.art_row, j, &self.rho).abs() > 1e-7
            });
            if let Some(j) = candidate {
                self.entering_column(j);
                if self.w[p].abs() > 1e-9 {
                    let theta = (self.x_b[p] / self.w[p]).max(0.0);
                    self.pivot(p, j, theta);
                }
            }
        }
    }

    fn finish(self, warm_started: bool) -> (Solution, Basis) {
        let n = self.form.n_struct;
        let mut x = vec![0.0; n];
        for (p, &b) in self.basis.iter().enumerate() {
            if b < n {
                x[b] = self.x_b[p].max(0.0);
            }
        }
        let cols = self
            .basis
            .iter()
            .map(|&b| {
                if b < self.form.n_real {
                    b
                } else {
                    Basis::ARTIFICIAL
                }
            })
            .collect();
        (
            Solution {
                objective: self.lp.objective_value(&x),
                x,
                iterations: self.iterations,
                phase1_iterations: self.phase1_iterations,
                refactorizations: self.refactorizations,
                warm_started,
            },
            Basis { cols },
        )
    }
}

/// The pool slot `max_by` on reduced cost picks: the last of equal maxima.
fn worst_slot(pool: &[(usize, f64)]) -> usize {
    let mut worst = 0;
    for (s, &(_, d)) in pool.iter().enumerate().skip(1) {
        if d.total_cmp(&pool[worst].1).is_ge() {
            worst = s;
        }
    }
    worst
}

fn max_iters_for(m: usize, total_cols: usize) -> usize {
    200 * (m + total_cols + 1).max(64)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// The cold start basis, each row's slack or else a new artificial (the
/// unit vectors of the rows in order), and the row of each artificial.
fn cold_start(form: &Form) -> (Vec<usize>, Vec<usize>) {
    let mut art_row = Vec::new();
    let mut basis = Vec::with_capacity(form.m);
    for i in 0..form.m {
        match (form.needs_artificial[i], form.slack_of_row[i]) {
            (false, Some(slack)) => basis.push(slack),
            _ => {
                basis.push(form.n_real + art_row.len());
                art_row.push(i);
            }
        }
    }
    (basis, art_row)
}

impl LinearProgram {
    /// Solves the program from a cold two-phase start and returns the
    /// optimal [`Basis`] too, ready to seed
    /// [`solve_from`](LinearProgram::solve_from) on a nearby program.
    pub fn solve(&self) -> Result<(Solution, Basis), LpError> {
        let form = build_form(self);
        let (basis, art_row) = cold_start(&form);
        let total = form.n_real + art_row.len();
        // The unit start basis is its own inverse: `x_B = b`.
        let factor = Factor::identity(form.m);
        let mut rev = Rev::new(self, form, art_row, basis, factor, vec![0.0; total]);

        // Phase 1: minimize the artificial sum.
        if !rev.art_row.is_empty() {
            for j in rev.form.n_real..total {
                rev.cost[j] = 1.0;
            }
            rev.reset_cb();
            rev.optimize()?;
            let scale = 1.0 + rev.form.b.iter().map(|v| v.abs()).sum::<f64>();
            if rev.objective_now() > 1e-7 * scale {
                return Err(LpError::Infeasible);
            }
            rev.phase1_iterations = rev.iterations;
            rev.drive_out_artificials();
            for j in rev.form.n_real..total {
                rev.enterable[j] = false;
                rev.cost[j] = 0.0;
            }
        }

        // Phase 2: the real objective.
        rev.cost[..rev.form.n_struct].copy_from_slice(self.objective());
        rev.reset_cb();
        rev.optimize()?;
        Ok(rev.finish(false))
    }

    /// Solves the LP starting from a caller-supplied basis (warm start),
    /// returning the optimal basis alongside the solution.
    ///
    /// The seed is **validated, not trusted**. It is rejected — and the
    /// solve silently falls back to the cold two-phase start of
    /// [`solve`](LinearProgram::solve), reported via
    /// [`warm_started`](Solution::warm_started)` == false` — when it is
    /// stale for this program:
    ///
    /// * wrong length (the LP has a different number of rows),
    /// * any column index out of range for this LP's `[structural | slack]`
    ///   layout, an [`Basis::ARTIFICIAL`] marker, or a duplicate, or
    /// * the basis matrix is numerically singular.
    ///
    /// A structurally valid seed whose basic point `B⁻¹b` is **infeasible**
    /// (the usual state after a right-hand-side change) is first repaired
    /// with a **dual simplex** phase — the seed stays dual-feasible, so a
    /// few dual pivots restore primal feasibility far cheaper than phase 1.
    /// Only when that repair stalls (or the program is infeasible) does the
    /// solve fall back to the cold phase-1 start.
    ///
    /// An accepted seed skips phase 1 entirely: the solver prices the real
    /// objective immediately, so a near-optimal seed (e.g. the optimal
    /// basis of the same LP with a nearby right-hand side) finishes in a
    /// handful of iterations.
    pub fn solve_from(&self, seed: &Basis) -> Result<(Solution, Basis), LpError> {
        match self.try_solve_from(seed)? {
            Some(solved) => Ok(solved),
            None => self.solve(),
        }
    }

    /// [`solve_from`](LinearProgram::solve_from) without its cold
    /// fallback: `Ok(None)` where that would start phase 1, when the seed
    /// is stale for this program or its dual-simplex repair fails. A
    /// caller with a better second seed than the cold start (the
    /// `demt-bounds` horizon sweep restarts from its structural basis)
    /// tries that next.
    pub fn try_solve_from(&self, seed: &Basis) -> Result<Option<(Solution, Basis)>, LpError> {
        let form = build_form(self);
        let m = form.m;
        let acceptable = seed.cols.len() == m && {
            let mut seen = vec![false; form.n_real];
            seed.cols.iter().all(|&c| {
                let ok = c < form.n_real && !seen[c];
                if ok {
                    seen[c] = true;
                }
                ok
            })
        };
        if !acceptable {
            return Ok(None);
        }
        let basis = seed.cols.clone();
        let Some(factor) = Factor::new(m, &basis, |j| column(&form, &[], j)) else {
            return Ok(None);
        };
        let mut cost = vec![0.0; form.n_real];
        cost[..form.n_struct].copy_from_slice(self.objective());
        let mut rev = Rev::new(self, form, Vec::new(), basis, factor, cost);
        rev.factor.ftran(&rev.etas, &mut rev.x_b, &mut rev.spare);
        let scale = 1.0 + rev.form.b.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
        let mut needs_repair = false;
        for v in &mut rev.x_b {
            if *v < 0.0 {
                if *v < -1e-7 * scale {
                    needs_repair = true; // genuinely infeasible seed
                } else {
                    *v = 0.0; // roundoff clamp
                }
            }
        }
        rev.reset_cb();
        if needs_repair {
            // Dual-simplex repair: the usual state after a right-hand-side
            // change. If it cannot restore feasibility, give the seed up.
            match rev.dual_optimize() {
                Ok(true) => {}
                Ok(false) | Err(LpError::SingularBasis) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
        rev.optimize()?;
        Ok(Some(rev.finish(true)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!(
            (a - b).abs() <= 1e-7 * a.abs().max(b.abs()).max(1.0),
            "{a} vs {b}"
        );
    }

    #[test]
    fn unconstrained_minimum_is_zero() {
        // min x + y with x, y ≥ 0 → 0 at the origin.
        let lp = LinearProgram::minimize(vec![1.0, 1.0]);
        let (s, _) = lp.solve().unwrap();
        assert_close(s.objective, 0.0);
    }

    #[test]
    fn simple_covering_lp() {
        // min x + 2y s.t. x + y ≥ 1 → x = 1.
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        let (s, _) = lp.solve().unwrap();
        assert_close(s.objective, 1.0);
        assert_close(s.x[0], 1.0);
        assert_close(s.x[1], 0.0);
    }

    #[test]
    fn textbook_two_phase() {
        // min 2x + 3y s.t. x + y = 4, x ≥ 1, y ≤ 5: the equality binds
        // and the cheaper x takes it all → x = 4, obj = 8.
        let mut lp = LinearProgram::minimize(vec![2.0, 3.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 4.0);
        lp.constrain(vec![(0, 1.0)], Relation::Ge, 1.0);
        lp.constrain(vec![(1, 1.0)], Relation::Le, 5.0);
        let (s, _) = lp.solve().unwrap();
        assert_close(s.objective, 8.0);
        assert_close(s.x[0], 4.0);
    }

    #[test]
    fn detects_infeasibility() {
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(0, 1.0)], Relation::Ge, 5.0);
        lp.constrain(vec![(0, 1.0)], Relation::Le, 3.0);
        assert_eq!(lp.solve(), Err(LpError::Infeasible));
    }

    #[test]
    fn detects_unboundedness() {
        // min -x, x ≥ 0 free to grow.
        let lp = LinearProgram::minimize(vec![-1.0]);
        assert_eq!(lp.solve(), Err(LpError::Unbounded));
    }

    #[test]
    fn bounded_maximization_via_negation() {
        // max x + y s.t. x + 2y ≤ 4, 3x + y ≤ 6 ⇒ min -(x+y).
        // Optimum at intersection: x = 8/5, y = 6/5, value 14/5.
        let mut lp = LinearProgram::minimize(vec![-1.0, -1.0]);
        lp.constrain(vec![(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
        lp.constrain(vec![(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
        let (s, _) = lp.solve().unwrap();
        assert_close(-s.objective, 14.0 / 5.0);
        assert_close(s.x[0], 8.0 / 5.0);
        assert_close(s.x[1], 6.0 / 5.0);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // -x ≤ -2  ⇔  x ≥ 2.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(0, -1.0)], Relation::Le, -2.0);
        let (s, _) = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn redundant_equalities_are_tolerated() {
        // x + y = 2 stated twice (linearly dependent artificials).
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 2.0);
        let (s, _) = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn duplicate_coefficients_are_summed() {
        // (x + x) ≥ 4 ⇒ x ≥ 2.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(0, 1.0), (0, 1.0)], Relation::Ge, 4.0);
        let (s, _) = lp.solve().unwrap();
        assert_close(s.objective, 2.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic cycling-prone degenerate LP (Beale-like); Bland must
        // terminate it.
        let mut lp = LinearProgram::minimize(vec![-0.75, 150.0, -0.02, 6.0]);
        lp.constrain(
            vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.constrain(
            vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.constrain(vec![(2, 1.0)], Relation::Le, 1.0);
        let (s, _) = lp.solve().unwrap();
        assert_close(s.objective, -0.05);
    }

    #[test]
    fn reports_iteration_counts() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        let (s, _) = lp.solve().unwrap();
        assert!(s.iterations >= 1);
        assert!(s.phase1_iterations <= s.iterations);
        assert!(!s.warm_started);
    }

    #[test]
    fn warm_restart_from_own_optimum_takes_no_iterations() {
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0, 0.5]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        lp.constrain(vec![(1, 1.0), (2, 1.0)], Relation::Ge, 1.0);
        lp.constrain(vec![(0, 1.0), (2, 2.0)], Relation::Le, 8.0);
        let (s1, basis) = lp.solve().unwrap();
        assert!(basis.is_complete());
        let (s2, _) = lp.solve_from(&basis).unwrap();
        assert!(s2.warm_started);
        assert_eq!(s2.iterations, 0);
        assert_close(s1.objective, s2.objective);
    }

    #[test]
    fn warm_start_tracks_a_shifted_rhs() {
        let build = |rhs: f64| {
            let mut lp = LinearProgram::minimize(vec![3.0, 1.0, 2.0]);
            lp.constrain(vec![(0, 1.0), (1, 2.0)], Relation::Ge, rhs);
            lp.constrain(vec![(1, 1.0), (2, 1.0)], Relation::Ge, rhs * 0.5);
            lp.constrain(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Le, 10.0);
            lp
        };
        let (_, basis) = build(2.0).solve().unwrap();
        let shifted = build(2.5);
        let (warm, _) = shifted.solve_from(&basis).unwrap();
        let (cold, _) = shifted.solve().unwrap();
        assert!(warm.warm_started);
        assert_close(warm.objective, cold.objective);
    }

    #[test]
    fn stale_seed_falls_back_to_cold_start() {
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        // Wrong length → rejected.
        let (s, _) = lp.solve_from(&Basis::new(vec![0, 1, 2])).unwrap();
        assert!(!s.warm_started);
        assert_close(s.objective, 1.0);
        // Out-of-range column → rejected.
        let (s, _) = lp.solve_from(&Basis::new(vec![99])).unwrap();
        assert!(!s.warm_started);
        // Artificial marker → rejected.
        let (s, _) = lp.solve_from(&Basis::new(vec![Basis::ARTIFICIAL])).unwrap();
        assert!(!s.warm_started);
        // Without the fallback, each is handed back instead.
        for cols in [vec![0, 1, 2], vec![99], vec![Basis::ARTIFICIAL]] {
            assert_eq!(lp.try_solve_from(&Basis::new(cols)), Ok(None));
        }
    }

    #[test]
    fn infeasible_seed_is_repaired_by_dual_simplex() {
        // Basis {slack} prices x_slack = B⁻¹b = -1 for the ≥ row
        // (surplus has coefficient -1): an infeasible vertex, repaired
        // by one dual pivot rather than a cold phase-1 restart.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(0, 1.0)], Relation::Ge, 1.0);
        let slack = lp.slack_column(0).unwrap();
        let (s, basis) = lp.solve_from(&Basis::new(vec![slack])).unwrap();
        assert!(s.warm_started);
        assert_eq!(s.iterations, 1);
        assert_close(s.objective, 1.0);
        assert_eq!(basis.columns(), &[0]);
    }

    #[test]
    fn infeasible_program_with_seed_still_reports_infeasible() {
        // x ≥ 5 ∧ x ≤ 3: no repair can help; the cold phase-1 fallback
        // must certify infeasibility.
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(0, 1.0)], Relation::Ge, 5.0);
        lp.constrain(vec![(0, 1.0)], Relation::Le, 3.0);
        let seed = Basis::new(vec![0, lp.slack_column(1).unwrap()]);
        assert_eq!(lp.solve_from(&seed), Err(LpError::Infeasible));
    }

    #[test]
    fn crafted_feasible_seed_is_accepted() {
        // min x + 2y s.t. x + y ≥ 1: the basis {x} is feasible (x = 1)
        // and optimal; the warm solve accepts it and stops immediately.
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        let (s, basis) = lp.solve_from(&Basis::new(vec![0])).unwrap();
        assert!(s.warm_started);
        assert_eq!(s.iterations, 0);
        assert_close(s.objective, 1.0);
        assert_eq!(basis.columns(), &[0]);
    }

    #[test]
    fn refactorization_stats_are_reported() {
        // A chain long enough to cross the eta cap at least never
        // reports a negative count; the structured LP in the
        // integration suite exercises real refactorizations.
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        let (s, _) = lp.solve().unwrap();
        assert_eq!(s.refactorizations, 0);
    }

    #[test]
    fn error_display_carries_the_limit() {
        let e = LpError::IterationLimit { limit: 1234 };
        assert!(e.to_string().contains("1234"));
        assert!(LpError::SingularBasis.to_string().contains("singular"));
    }
}
