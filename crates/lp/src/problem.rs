//! Linear-program description: `min c·x` s.t. sparse rows, `x ≥ 0`,
//! plus the compressed-sparse-column ([`CscMatrix`]) view the revised
//! simplex prices and factorizes against.

/// Relation of one constraint row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `Σ aⱼ xⱼ ≤ b`.
    Le,
    /// `Σ aⱼ xⱼ ≥ b`.
    Ge,
    /// `Σ aⱼ xⱼ = b`.
    Eq,
}

/// One constraint: sparse coefficients, relation, right-hand side.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// `(variable index, coefficient)` pairs; duplicate indices are
    /// summed at solve time.
    pub coeffs: Vec<(usize, f64)>,
    /// Relation to the right-hand side.
    pub relation: Relation,
    /// Right-hand side.
    pub rhs: f64,
}

/// A minimization LP over non-negative variables.
///
/// ```
/// use demt_lp::{LinearProgram, Relation};
/// // min x + 2y  s.t.  x + y ≥ 1, y ≤ 3
/// let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
/// lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
/// lp.constrain(vec![(1, 1.0)], Relation::Le, 3.0);
/// let sol = lp.solve().unwrap();
/// assert!((sol.objective - 1.0).abs() < 1e-9); // x = 1, y = 0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearProgram {
    objective: Vec<f64>,
    constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Starts `min c·x` with the given cost vector (one entry per
    /// variable; all variables are implicitly `≥ 0`).
    pub fn minimize(objective: Vec<f64>) -> Self {
        assert!(
            objective.iter().all(|c| c.is_finite()),
            "objective coefficients must be finite"
        );
        Self {
            objective,
            constraints: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Number of constraint rows.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The cost vector.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint row.
    pub fn constrain(&mut self, coeffs: Vec<(usize, f64)>, relation: Relation, rhs: f64) {
        assert!(rhs.is_finite(), "right-hand side must be finite");
        for &(j, a) in &coeffs {
            assert!(j < self.num_vars(), "variable index {j} out of range");
            assert!(a.is_finite(), "coefficient must be finite");
        }
        self.constraints.push(Constraint {
            coeffs,
            relation,
            rhs,
        });
    }

    /// Evaluates `c·x` for a candidate point.
    pub fn objective_value(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_vars());
        self.objective.iter().zip(x).map(|(c, v)| c * v).sum()
    }

    /// Number of slack/surplus columns the standard form adds: one per
    /// inequality row ([`Relation::Le`] or [`Relation::Ge`]).
    pub fn num_slacks(&self) -> usize {
        self.constraints
            .iter()
            .filter(|c| c.relation != Relation::Eq)
            .count()
    }

    /// Standard-form column index of the slack (or surplus) variable of
    /// constraint `row`, or `None` for an equality row.
    ///
    /// The solver's standard form lays columns out as
    /// `[structural | slack/surplus | artificial]`: structural variables
    /// keep their indices `0..num_vars()`, and each inequality row gets
    /// one slack column, assigned in row order starting at `num_vars()`.
    /// This layout is stable (it does not depend on right-hand-side
    /// signs), so callers can craft warm-start bases against it — see
    /// [`Basis`](crate::Basis).
    pub fn slack_column(&self, row: usize) -> Option<usize> {
        assert!(row < self.num_constraints(), "row {row} out of range");
        if self.constraints[row].relation == Relation::Eq {
            return None;
        }
        let before = self.constraints[..row]
            .iter()
            .filter(|c| c.relation != Relation::Eq)
            .count();
        Some(self.num_vars() + before)
    }

    /// The constraint matrix as a [`CscMatrix`] over the structural
    /// columns (rows exactly as stated — no sign normalization, no
    /// slacks; duplicate coefficients are summed).
    #[cfg(test)]
    pub fn csc(&self) -> CscMatrix {
        let mut columns: Vec<Vec<(usize, f64)>> = vec![Vec::new(); self.num_vars()];
        for (i, c) in self.constraints.iter().enumerate() {
            for &(j, a) in &c.coeffs {
                columns[j].push((i, a));
            }
        }
        CscMatrix::from_columns(self.num_constraints(), columns)
    }

    /// Checks primal feasibility of a candidate point to tolerance
    /// `tol` (used by tests for weak-duality arguments).
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        if x.len() != self.num_vars() || x.iter().any(|&v| v < -tol) {
            return false;
        }
        for c in &self.constraints {
            let lhs: f64 = c.coeffs.iter().map(|&(j, a)| a * x[j]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

/// A column-compressed (CSC) sparse matrix.
///
/// The revised simplex works column-wise — pricing takes `y·Aⱼ` per
/// column, the basis factorization gathers the basic columns — so the
/// constraint matrix is stored as contiguous `(row, value)` runs per
/// column. Entries within a column are sorted by row and duplicates are
/// summed at construction; exact zeros are dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    rows: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds the matrix from per-column `(row, value)` triplet lists.
    /// Duplicate rows within a column are summed; exact zeros dropped.
    pub fn from_columns(rows: usize, columns: Vec<Vec<(usize, f64)>>) -> Self {
        let mut col_ptr = Vec::with_capacity(columns.len() + 1);
        let mut row_idx = Vec::new();
        let mut values = Vec::new();
        col_ptr.push(0);
        for mut col in columns {
            col.sort_by_key(|&(r, _)| r);
            let mut k = 0;
            while k < col.len() {
                let (r, mut v) = col[k];
                assert!(r < rows, "row index {r} out of range");
                k += 1;
                while k < col.len() && col[k].0 == r {
                    v += col[k].1;
                    k += 1;
                }
                // demt-lint: allow(F1, exact zero after summing duplicates means the entry is structurally absent)
                if v != 0.0 {
                    row_idx.push(r);
                    values.push(v);
                }
            }
            col_ptr.push(row_idx.len());
        }
        Self {
            rows,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.col_ptr.len() - 1
    }

    /// Column `j` as parallel `(row indices, values)` slices.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[lo..hi], &self.values[lo..hi])
    }

    /// Sparse dot product `y · Aⱼ` of a dense row-indexed vector with
    /// column `j` (the pricing kernel).
    #[inline]
    pub fn dot_col(&self, j: usize, y: &[f64]) -> f64 {
        let (rows, vals) = self.col(j);
        rows.iter().zip(vals).map(|(&r, &v)| y[r] * v).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accumulates_rows() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 2.0)], Relation::Le, 4.0);
        lp.constrain(vec![(1, 1.0)], Relation::Ge, 1.0);
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 2);
    }

    #[test]
    fn feasibility_probe() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        assert!(lp.is_feasible(&[0.5, 0.6], 1e-9));
        assert!(!lp.is_feasible(&[0.2, 0.2], 1e-9));
        assert!(!lp.is_feasible(&[-0.1, 1.5], 1e-9));
        assert!((lp.objective_value(&[0.5, 0.6]) - 1.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_variable_index() {
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.constrain(vec![(3, 1.0)], Relation::Le, 1.0);
    }

    #[test]
    fn csc_sums_duplicates_and_sorts_rows() {
        let m = CscMatrix::from_columns(
            3,
            vec![
                vec![(2, 1.0), (0, 2.0), (2, 3.0)],
                vec![],
                vec![(1, 5.0), (1, -5.0)],
            ],
        );
        assert_eq!((m.rows(), m.cols(), m.row_idx.len()), (3, 3, 2));
        assert_eq!(m.col(0), (&[0usize, 2][..], &[2.0, 4.0][..]));
        assert_eq!(m.col(1), (&[][..], &[][..]));
        // The exactly-cancelling duplicate is dropped.
        assert_eq!(m.col(2), (&[][..], &[][..]));
        assert_eq!(m.dot_col(0, &[1.0, 10.0, 100.0]), 402.0);
    }

    #[test]
    fn slack_columns_follow_row_order_skipping_equalities() {
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.constrain(vec![(0, 1.0)], Relation::Le, 4.0);
        lp.constrain(vec![(1, 1.0)], Relation::Eq, 1.0);
        lp.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 1.0);
        assert_eq!(lp.num_slacks(), 2);
        assert_eq!(lp.slack_column(0), Some(2));
        assert_eq!(lp.slack_column(1), None);
        assert_eq!(lp.slack_column(2), Some(3));
    }

    #[test]
    fn csc_view_matches_rows() {
        let mut lp = LinearProgram::minimize(vec![1.0, 2.0]);
        lp.constrain(vec![(0, 1.0), (1, -2.0)], Relation::Le, -3.0);
        lp.constrain(vec![(1, 4.0)], Relation::Ge, 1.0);
        let a = lp.csc();
        assert_eq!((a.rows(), a.cols()), (2, 2));
        // No sign normalization: row 0 keeps its stated coefficients.
        assert_eq!(a.col(0), (&[0usize][..], &[1.0][..]));
        assert_eq!(a.col(1), (&[0usize, 1][..], &[-2.0, 4.0][..]));
    }
}
