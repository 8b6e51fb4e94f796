//! Differential property suite: the revised simplex against the dense
//! full-tableau reference ([`crate::dense`]) on random feasible,
//! infeasible, unbounded and degenerate programs, plus warm-vs-cold
//! agreement. Two independent implementations agreeing on the optimum
//! (within `1e-9`) is the crate's main correctness argument.
//!
//! The sparse LU factorization is pinned bit for bit against its dense
//! accumulator reference on random sparse bases and on the seed and
//! optimal bases of real §3.3 minsum programs, the cold start's
//! identity factors against the factorization of its unit basis, and
//! the counting-sort CSC constructor against the per-column build it
//! replaced.

use crate::problem::{CscMatrix, LinearProgram, Relation};
use crate::simplex::{cold_factors, factor_both, form_matrices, LpError};
use crate::{dense, Basis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(objective, rows)` where each row is `(coeffs, relation, rhs)`.
type RawLp = (Vec<f64>, Vec<(Vec<f64>, usize, f64)>);

fn build(raw: &RawLp) -> LinearProgram {
    let (c, rows) = raw;
    let mut lp = LinearProgram::minimize(c.clone());
    for (coeffs, rel, rhs) in rows {
        let rel = match rel % 3 {
            0 => Relation::Le,
            1 => Relation::Ge,
            _ => Relation::Eq,
        };
        let sparse: Vec<(usize, f64)> = coeffs.iter().cloned().enumerate().collect();
        lp.constrain(sparse, rel, *rhs);
    }
    lp
}

fn arb_lp() -> impl Strategy<Value = RawLp> {
    (1usize..=4, 1usize..=6).prop_flat_map(|(n, m)| {
        let objective = prop::collection::vec(-1.0f64..4.0, n..=n);
        let rows = prop::collection::vec(
            (
                prop::collection::vec(-2.0f64..3.0, n..=n),
                0usize..3,
                -3.0f64..6.0,
            ),
            m..=m,
        );
        (objective, rows)
    })
}

/// Same shape but with right-hand sides drawn from `{0, 1}` and
/// non-negative costs: lots of exactly-degenerate vertices, the
/// territory where anti-cycling rules earn their keep.
fn arb_degenerate_lp() -> impl Strategy<Value = RawLp> {
    (1usize..=3, 1usize..=5).prop_flat_map(|(n, m)| {
        let objective = prop::collection::vec(0.0f64..3.0, n..=n);
        let rows = prop::collection::vec(
            (
                prop::collection::vec(-1.0f64..2.0, n..=n),
                0usize..3,
                (0usize..2).prop_map(|b| b as f64),
            ),
            m..=m,
        );
        (objective, rows)
    })
}

fn assert_agree(
    revised: &Result<crate::Solution, LpError>,
    reference: Result<(f64, Vec<f64>, usize), LpError>,
    lp: &LinearProgram,
) {
    match (revised, reference) {
        (Ok(s), Ok((obj, _, _))) => {
            assert!(
                (s.objective - obj).abs() <= 1e-9 * s.objective.abs().max(obj.abs()).max(1.0),
                "revised {} vs dense {obj}",
                s.objective
            );
            assert!(lp.is_feasible(&s.x, 1e-6), "revised point infeasible");
        }
        (Err(LpError::Infeasible), Err(LpError::Infeasible)) => {}
        (Err(LpError::Unbounded), Err(LpError::Unbounded)) => {}
        (a, b) => panic!("revised {a:?} vs dense {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn revised_matches_dense_on_random_lps(raw in arb_lp()) {
        let lp = build(&raw);
        assert_agree(&lp.solve().map(|(s, _)| s), dense::solve(&lp), &lp);
    }

    #[test]
    fn revised_matches_dense_on_degenerate_lps(raw in arb_degenerate_lp()) {
        let lp = build(&raw);
        assert_agree(&lp.solve().map(|(s, _)| s), dense::solve(&lp), &lp);
    }

    #[test]
    fn warm_start_agrees_with_cold_on_shifted_rhs(
        raw in arb_lp(),
        scale in 0.5f64..1.5,
    ) {
        let lp1 = build(&raw);
        let Ok((_, basis)) = lp1.solve() else { return Ok(()); };
        if !basis.is_complete() {
            return Ok(());
        }
        // The same program with every right-hand side scaled: close
        // enough that the warm basis is often still feasible, far
        // enough that the optimum moves.
        let (c, rows) = &raw;
        let shifted: RawLp = (
            c.clone(),
            rows.iter()
                .map(|(a, r, b)| (a.clone(), *r, b * scale))
                .collect(),
        );
        let lp2 = build(&shifted);
        let warm = lp2.solve_from(&basis).map(|(s, _)| s);
        let cold = lp2.solve().map(|(s, _)| s);
        match (&warm, &cold) {
            (Ok(w), Ok(c)) => prop_assert!(
                (w.objective - c.objective).abs()
                    <= 1e-9 * w.objective.abs().max(c.objective.abs()).max(1.0),
                "warm {} vs cold {}", w.objective, c.objective
            ),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "warm {:?} vs cold {:?}", a, b),
        }
    }

    #[test]
    fn returned_basis_reproduces_the_optimum(raw in arb_lp()) {
        let lp = build(&raw);
        let Ok((s1, basis)) = lp.solve() else { return Ok(()); };
        if !basis.is_complete() {
            return Ok(());
        }
        let (s2, _) = lp.solve_from(&basis).expect("optimal basis re-solves");
        prop_assert!(s2.warm_started);
        prop_assert_eq!(s2.iterations, 0, "optimal seed must price out immediately");
        prop_assert!(
            (s1.objective - s2.objective).abs()
                <= 1e-9 * s1.objective.abs().max(1.0)
        );
    }
}

#[test]
fn stale_dimension_seed_matches_dense_result() {
    // A seed from a 2-row program fed to a 3-row program: rejected,
    // cold fallback, and the answer still matches the dense reference.
    let mut small = LinearProgram::minimize(vec![1.0, 1.0]);
    small.constrain(vec![(0, 1.0)], Relation::Ge, 1.0);
    small.constrain(vec![(1, 1.0)], Relation::Ge, 1.0);
    let (_, stale) = small.solve().unwrap();

    let mut big = LinearProgram::minimize(vec![1.0, 1.0]);
    big.constrain(vec![(0, 1.0)], Relation::Ge, 1.0);
    big.constrain(vec![(1, 1.0)], Relation::Ge, 2.0);
    big.constrain(vec![(0, 1.0), (1, 1.0)], Relation::Le, 10.0);
    let (warm, _) = big.solve_from(&stale).unwrap();
    assert!(!warm.warm_started);
    let (obj, _, _) = dense::solve(&big).unwrap();
    assert!((warm.objective - obj).abs() <= 1e-9 * obj.abs().max(1.0));
}

#[test]
fn minsum_shaped_chain_warm_starts_match_dense() {
    // A miniature of the bounds horizon sweep: the same covering/
    // packing structure re-solved under shifted caps, each solve seeded
    // with the previous optimal basis and cross-checked against the
    // dense reference.
    let tasks = 12usize;
    let intervals = 4usize;
    let build = |cap: f64| {
        let mut cost = Vec::with_capacity(tasks * intervals);
        for i in 0..tasks {
            for j in 0..intervals {
                cost.push((1 + i % 5) as f64 * (1u32 << j) as f64);
            }
        }
        let mut lp = LinearProgram::minimize(cost);
        for i in 0..tasks {
            let coeffs = (0..intervals).map(|j| (i * intervals + j, 1.0)).collect();
            lp.constrain(coeffs, Relation::Ge, 1.0);
        }
        for j in 0..intervals - 1 {
            let mut coeffs = Vec::new();
            for i in 0..tasks {
                for l in 0..=j {
                    coeffs.push((i * intervals + l, ((i % 3) + 1) as f64));
                }
            }
            lp.constrain(coeffs, Relation::Le, cap * (1u32 << j) as f64);
        }
        lp
    };
    let mut seed: Option<Basis> = None;
    let mut warm_hits = 0usize;
    for step in 0..6 {
        let lp = build(6.0 + step as f64);
        let (sol, basis) = match &seed {
            Some(b) => lp.solve_from(b).unwrap(),
            None => lp.solve().unwrap(),
        };
        warm_hits += usize::from(sol.warm_started);
        let (obj, _, _) = dense::solve(&lp).unwrap();
        assert!(
            (sol.objective - obj).abs() <= 1e-9 * obj.abs().max(1.0),
            "step {step}: revised {} vs dense {obj}",
            sol.objective
        );
        seed = Some(basis);
    }
    assert!(warm_hits >= 4, "chain failed to warm start: {warm_hits}");
}

/// A random sparse square basis: `m` structural columns holding about
/// `density·m` entries each from `{±1, ±2, ±0.5}` (so exact cancellation
/// and dependent columns happen), every other row `≤` so its slack unit
/// column joins the pool, and `m` distinct columns of that pool drawn
/// as the basis.
fn random_square_basis(m: usize, density: f64, seed: u64) -> (LinearProgram, Vec<usize>) {
    const VALUES: [f64; 6] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for j in 0..m {
        for (i, row) in rows.iter_mut().enumerate() {
            if rng.random_range(0.0..1.0) < density || (i == j && rng.random_range(0u32..4) > 0) {
                row.push((j, VALUES[rng.random_range(0..VALUES.len())]));
            }
        }
    }
    let mut lp = LinearProgram::minimize(vec![1.0; m]);
    for (i, coeffs) in rows.into_iter().enumerate() {
        let relation = if i % 2 == 0 {
            Relation::Le
        } else {
            Relation::Eq
        };
        lp.constrain(coeffs, relation, 1.0);
    }
    let pool = m + lp.num_slacks();
    let mut keyed: Vec<(u64, usize)> = (0..pool).map(|c| (rng.random::<u64>(), c)).collect();
    keyed.sort_unstable();
    (lp, keyed.into_iter().take(m).map(|(_, c)| c).collect())
}

/// Factorizes `basis` both ways, asserts bit-identical factors (or
/// `None` from both), and reports whether it was nonsingular.
fn assert_same_factors(lp: &LinearProgram, basis: &[usize], what: &str) -> bool {
    let (sparse, dense) = factor_both(lp, basis);
    assert!(
        sparse == dense,
        "{what}: sparse LU differs from the dense reference"
    );
    sparse.is_some()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sparse_lu_matches_dense_on_random_bases(
        m in 1usize..=200,
        density in 0.0f64..0.2,
        seed in 0u64..1 << 40,
    ) {
        let (lp, basis) = random_square_basis(m, density, seed);
        assert_same_factors(&lp, &basis, &format!("m={m} density={density} seed={seed}"));
    }
}

#[test]
fn random_bases_reach_both_singular_and_nonsingular_factorizations() {
    let (mut singular, mut regular) = (0usize, 0usize);
    for m in [1, 2, 3, 5, 8, 13, 30, 60, 120, 200] {
        for density in [0.0, 0.01, 0.05, 0.15, 0.4] {
            for seed in 0..4 {
                let (lp, basis) = random_square_basis(m, density, seed);
                let what = format!("m={m} density={density} seed={seed}");
                if assert_same_factors(&lp, &basis, &what) {
                    regular += 1;
                } else {
                    singular += 1;
                }
            }
        }
    }
    assert!(
        singular > 0 && regular > 0,
        "{singular} singular, {regular} regular"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cold_start_identity_matches_its_factorization(raw in arb_lp()) {
        // Random relations and right-hand-side signs mix slack and
        // artificial columns in the unit start basis.
        let lp = build(&raw);
        let (identity, factored) = cold_factors(&lp);
        prop_assert_eq!(Some(identity), factored);
    }
}

#[test]
fn cold_start_identity_matches_its_factorization_on_minsum_programs() {
    use demt_workload::{generate, WorkloadKind};
    for kind in WorkloadKind::ALL {
        let inst = generate(kind, 100, 200, 3);
        let cmax = demt_dual::dual_approx(&inst, &demt_dual::DualConfig::default()).cmax_estimate;
        let lp = rebuild(&demt_bounds::assemble_minsum_lp(&inst, cmax));
        let (identity, factored) = cold_factors(&lp);
        assert_eq!(Some(identity), factored, "{kind}");
    }
}

/// Rebuilds a `demt-lp` program handed over by `demt-bounds`, whose
/// types come from this crate's non-test build.
fn rebuild(lp: &demt_bounds::MinsumLp) -> LinearProgram {
    let mut out = LinearProgram::minimize(lp.lp.objective().to_vec());
    for c in lp.lp.constraints() {
        let relation = match format!("{:?}", c.relation).as_str() {
            "Le" => Relation::Le,
            "Ge" => Relation::Ge,
            "Eq" => Relation::Eq,
            other => panic!("unknown relation {other}"),
        };
        out.constrain(c.coeffs.clone(), relation, c.rhs);
    }
    out
}

#[test]
fn sparse_lu_matches_dense_on_minsum_bases() {
    use demt_workload::{generate, WorkloadKind};
    for kind in WorkloadKind::ALL {
        for n in [25, 100, 400] {
            let inst = generate(kind, n, 200, 3);
            let cmax =
                demt_dual::dual_approx(&inst, &demt_dual::DualConfig::default()).cmax_estimate;
            let ml = demt_bounds::assemble_minsum_lp(&inst, cmax);
            let lp = rebuild(&ml);
            let greedy = ml.greedy_basis();
            let (_, optimal) = lp
                .solve_from(&Basis::new(greedy.columns().to_vec()))
                .expect("the greedy seed is feasible");
            for (name, basis) in [
                ("greedy", greedy.columns()),
                ("all-last", ml.seed_basis().columns()),
                ("optimal", optimal.columns()),
            ] {
                let what = format!("{kind} n={n} {name} basis");
                assert!(assert_same_factors(&lp, basis, &what), "{what} is singular");
            }
        }
    }
}

/// Sparse rows over `cols` columns, in row order: values from a set
/// whose duplicates can cancel exactly (or a zero, or any value), with
/// repeated `(row, column)` pairs common because the columns are few.
/// `cols` runs past the columns entries can reach, so the trailing
/// columns are always empty.
fn arb_sparse_rows() -> impl Strategy<Value = (usize, Vec<Vec<(usize, f64)>>)> {
    (1usize..=6, 0usize..=12).prop_flat_map(|(reach, rows)| {
        const SET: [f64; 5] = [1.0, -1.0, 0.5, -0.5, 0.0];
        let value =
            (0usize..7, -3.0f64..3.0).prop_map(|(pick, any)| SET.get(pick).copied().unwrap_or(any));
        let row = prop::collection::vec((0..reach, value), 0..=8);
        (Just(reach + 2), prop::collection::vec(row, rows..=rows))
    })
}

/// The per-column lists the old build gathered from row-ordered rows.
fn columns_of(cols: usize, rows: &[Vec<(usize, f64)>]) -> Vec<Vec<(usize, f64)>> {
    let mut columns = vec![Vec::new(); cols];
    for (i, row) in rows.iter().enumerate() {
        for &(j, v) in row {
            columns[j].push((i, v));
        }
    }
    columns
}

fn assert_same_csc(a: &CscMatrix, b: &CscMatrix) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
    assert_eq!(a.entry_bits(), b.entry_bits());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn counting_sort_csc_matches_the_per_column_build(
        (cols, rows) in arb_sparse_rows(),
        cancel in prop::collection::vec((0usize..12, 0usize..6, 0.25f64..4.0), 0..=4),
    ) {
        // Exactly cancelling pairs on top of the random entries.
        let mut rows = rows;
        for (i, j, v) in cancel {
            if let Some(row) = rows.get_mut(i) {
                row.push((j % cols, v));
                row.push((j % cols, -v));
            }
        }
        let counted = CscMatrix::from_rows(rows.len(), cols, |i| rows[i].iter().copied());
        let reference = CscMatrix::from_columns(rows.len(), columns_of(cols, &rows));
        assert_same_csc(&counted, &reference);
    }

    #[test]
    fn standard_form_matrix_matches_the_per_column_build(
        (cols, rows) in arb_sparse_rows(),
        shape in prop::collection::vec((0usize..3, -3.0f64..6.0), 12..=12),
    ) {
        // Negative right-hand sides flip their row's signs and turn `≤`
        // into `≥` (and back), so slack and surplus columns both occur.
        let mut lp = LinearProgram::minimize(vec![1.0; cols]);
        for (row, &(rel, rhs)) in rows.iter().zip(&shape) {
            let relation = [Relation::Le, Relation::Ge, Relation::Eq][rel];
            lp.constrain(row.clone(), relation, rhs);
        }
        let (counted, reference) = form_matrices(&lp);
        assert_same_csc(&counted, &reference);
    }
}
