//! Property tests for the simplex: agreement with brute-force vertex
//! enumeration on random small LPs, plus structural optimality checks.

use demt_lp::{LinearProgram, Relation};
use proptest::prelude::*;

/// Brute-force optimum of `min c·x, A x ≥ b, x ≥ 0` (covering form) by
/// enumerating all candidate vertices: every subset of `n` constraints
/// (including the axes `xⱼ = 0`) that yields an invertible system.
/// Exponential — usable only for n ≤ 3, m ≤ 4.
#[allow(clippy::needless_range_loop)]
fn brute_force_covering(c: &[f64], rows: &[(Vec<f64>, f64)]) -> Option<f64> {
    let n = c.len();
    // Build the full list of halfplanes: A x ≥ b plus x_j ≥ 0.
    let mut planes: Vec<(Vec<f64>, f64)> = rows.to_vec();
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        planes.push((e, 0.0));
    }
    let k = planes.len();
    let mut best: Option<f64> = None;
    // Choose n planes to be tight; solve the linear system by Gaussian
    // elimination; keep feasible solutions.
    let mut idx = vec![0usize; n];
    fn combos(
        k: usize,
        n: usize,
        start: usize,
        idx: &mut Vec<usize>,
        pos: usize,
        out: &mut Vec<Vec<usize>>,
    ) {
        if pos == n {
            out.push(idx.clone());
            return;
        }
        for i in start..k {
            idx[pos] = i;
            combos(k, n, i + 1, idx, pos + 1, out);
        }
    }
    let mut all = Vec::new();
    combos(k, n, 0, &mut idx, 0, &mut all);
    for combo in all {
        // Solve the n×n system.
        let mut a: Vec<Vec<f64>> = combo.iter().map(|&i| planes[i].0.clone()).collect();
        let mut b: Vec<f64> = combo.iter().map(|&i| planes[i].1).collect();
        let mut x = vec![0.0; n];
        let mut ok = true;
        // Gaussian elimination with partial pivoting.
        for col in 0..n {
            let piv = (col..n)
                .max_by(|&r1, &r2| a[r1][col].abs().partial_cmp(&a[r2][col].abs()).unwrap())
                .unwrap();
            if a[piv][col].abs() < 1e-9 {
                ok = false;
                break;
            }
            a.swap(col, piv);
            b.swap(col, piv);
            for r in col + 1..n {
                let f = a[r][col] / a[col][col];
                for cc in col..n {
                    a[r][cc] -= f * a[col][cc];
                }
                b[r] -= f * b[col];
            }
        }
        if !ok {
            continue;
        }
        for col in (0..n).rev() {
            let mut v = b[col];
            for cc in col + 1..n {
                v -= a[col][cc] * x[cc];
            }
            x[col] = v / a[col][col];
        }
        // Feasibility of the vertex.
        let feas = x.iter().all(|&v| v >= -1e-7)
            && rows.iter().all(|(row, rhs)| {
                row.iter().zip(&x).map(|(a, v)| a * v).sum::<f64>() >= rhs - 1e-7
            });
        if feas {
            let obj = c.iter().zip(&x).map(|(a, v)| a * v).sum::<f64>();
            best = Some(best.map_or(obj, |b: f64| b.min(obj)));
        }
    }
    best
}

fn covering_lp() -> impl Strategy<Value = (Vec<f64>, Vec<(Vec<f64>, f64)>)> {
    (1usize..=3, 1usize..=4).prop_flat_map(|(n, m)| {
        let c = prop::collection::vec(0.1f64..5.0, n..=n);
        let rows = prop::collection::vec(
            (prop::collection::vec(0.0f64..4.0, n..=n), 0.5f64..6.0),
            m..=m,
        );
        (c, rows)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn simplex_matches_vertex_enumeration((c, rows) in covering_lp()) {
        // Skip rows that make the LP infeasible (all-zero row with
        // positive rhs): brute force and simplex must then agree on
        // infeasibility.
        let mut lp = LinearProgram::minimize(c.clone());
        for (row, rhs) in &rows {
            let coeffs: Vec<(usize, f64)> =
                row.iter().enumerate().map(|(j, &a)| (j, a)).collect();
            lp.constrain(coeffs, Relation::Ge, *rhs);
        }
        let bf = brute_force_covering(&c, &rows);
        match lp.solve() {
            Ok((sol, _)) => {
                let bf = bf.expect("simplex found a solution, brute force must too");
                prop_assert!((sol.objective - bf).abs() <= 1e-6 * bf.abs().max(1.0),
                    "simplex {} vs brute force {bf}", sol.objective);
                prop_assert!(lp.is_feasible(&sol.x, 1e-6));
            }
            Err(demt_lp::LpError::Infeasible) => prop_assert!(bf.is_none()),
            Err(e) => prop_assert!(false, "unexpected error {e:?}"),
        }
    }

    #[test]
    fn optimum_is_no_worse_than_any_feasible_probe(
        (c, rows) in covering_lp(),
        probe in prop::collection::vec(0.0f64..10.0, 3),
    ) {
        let n = c.len();
        let mut lp = LinearProgram::minimize(c.clone());
        for (row, rhs) in &rows {
            let coeffs: Vec<(usize, f64)> =
                row.iter().enumerate().map(|(j, &a)| (j, a)).collect();
            lp.constrain(coeffs, Relation::Ge, *rhs);
        }
        let probe = &probe[..n];
        if lp.is_feasible(probe, 1e-9) {
            let (sol, _) = lp.solve().expect("a feasible point exists");
            prop_assert!(sol.objective <= lp.objective_value(probe) + 1e-6);
        }
    }
}

#[test]
fn moderately_sized_structured_lp() {
    // A covering LP with the shape of the minsum bound: 60 "tasks" × 6
    // "intervals" = 360 vars, 66 rows. Exercises phase 1 + 2 at scale.
    let tasks = 60usize;
    let intervals = 6usize;
    let mut cost = Vec::with_capacity(tasks * intervals);
    for i in 0..tasks {
        for j in 0..intervals {
            cost.push((1 + i % 7) as f64 * (1 << j) as f64);
        }
    }
    let mut lp = LinearProgram::minimize(cost);
    for i in 0..tasks {
        let coeffs = (0..intervals).map(|j| (i * intervals + j, 1.0)).collect();
        lp.constrain(coeffs, Relation::Ge, 1.0);
    }
    for j in 0..intervals {
        let mut coeffs = Vec::new();
        for i in 0..tasks {
            for l in 0..=j {
                coeffs.push((i * intervals + l, ((i % 5) + 1) as f64));
            }
        }
        lp.constrain(coeffs, Relation::Le, 40.0 * (1 << j) as f64);
    }
    let (sol, _) = lp.solve().expect("structured LP is feasible");
    assert!(sol.objective > 0.0);
    assert!(lp.is_feasible(&sol.x, 1e-6));
}
