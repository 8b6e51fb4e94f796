//! Executable reproduction claims.
//!
//! This module encodes every §4.2 claim as a predicate over
//! [`FigureResult`]s so the reproduction verdict is *checked*, not just
//! narrated: `repro verify` runs the sweeps and fails loudly if any
//! directional claim of the paper stops holding.
//!
//! Claims are deliberately directional and scale-robust (winner
//! orderings, growth trends, stability envelopes) rather than absolute
//! ratio values, which depend on lower-bound tightness.

use crate::algorithms::Algorithm;
use crate::experiment::FigureResult;
use demt_workload::WorkloadKind;

/// Outcome of one claim.
#[derive(Debug, Clone)]
pub struct Claim {
    /// Which paper statement this encodes.
    pub name: String,
    /// Did the sweep satisfy it?
    pub pass: bool,
    /// Measured evidence (printed either way).
    pub detail: String,
}

fn avg(fig: &FigureResult, alg: Algorithm, crit: &str, point: usize) -> f64 {
    // A missing series yields NaN, which fails every claim comparison —
    // the right outcome for a truncated report.
    let Some(s) = fig.points[point].series_of(alg) else {
        return f64::NAN;
    };
    if crit == "cmax" {
        s.cmax.average()
    } else {
        s.minsum.average()
    }
}

fn last(fig: &FigureResult) -> usize {
    fig.points.len() - 1
}

fn claim(name: &str, pass: bool, detail: String) -> Claim {
    Claim {
        name: name.to_string(),
        pass,
        detail,
    }
}

/// Checks the §4.2 claims attached to one figure. `figs` must contain
/// the matching workload family.
pub fn check_figure(fig: &FigureResult) -> Vec<Claim> {
    let mut out = Vec::new();
    let n_pts = fig.points.len();
    assert!(n_pts >= 2, "claims need at least two sweep points");
    let l = last(fig);

    // Universal claims (§3.3 soundness + §4.2 envelopes).
    let mut min_ratio = f64::INFINITY;
    for p in &fig.points {
        for (_, s) in &p.series {
            min_ratio = min_ratio.min(s.minsum.min_ratio).min(s.cmax.min_ratio);
        }
    }
    out.push(claim(
        "bounds are genuine lower bounds (all ratios ≥ 1)",
        min_ratio >= 1.0 - 1e-6,
        format!("smallest observed ratio {min_ratio:.4}"),
    ));

    let demt_cmax_worst = (0..n_pts)
        .map(|p| avg(fig, Algorithm::Demt, "cmax", p))
        .fold(0.0, f64::max);
    out.push(claim(
        "DEMT Cmax ratio stays below ~2 (paper: 'no more than 2', avg 1.9)",
        demt_cmax_worst < 2.7,
        format!("worst DEMT Cmax ratio {demt_cmax_worst:.3}"),
    ));

    let demt_wici_worst = (0..n_pts)
        .map(|p| avg(fig, Algorithm::Demt, "wici", p))
        .fold(0.0, f64::max);
    out.push(claim(
        "DEMT minsum ratio never blows up (paper: 'never more than 2.5')",
        demt_wici_worst < 3.2,
        format!("worst DEMT minsum ratio {demt_wici_worst:.3}"),
    ));

    // DEMT stability (the paper's headline on Figs. 5/6: 'quite stable',
    // 'the only one to keep a stable ratio for any number of tasks').
    let demt_first = avg(fig, Algorithm::Demt, "wici", 0);
    let spread = demt_wici_worst
        / (0..n_pts)
            .map(|p| avg(fig, Algorithm::Demt, "wici", p))
            .fold(f64::INFINITY, f64::min);
    out.push(claim(
        "DEMT minsum ratio is stable across n (max/min ≤ 2)",
        spread <= 2.0,
        format!("spread {spread:.2} (first point {demt_first:.2})"),
    ));

    match fig.kind {
        WorkloadKind::WeaklyParallel => {
            // "Gang always has a very big ratio in this case."
            let gang = avg(fig, Algorithm::Gang, "cmax", l);
            let demt = avg(fig, Algorithm::Demt, "cmax", l);
            out.push(claim(
                "Fig3: Gang Cmax is off the chart vs DEMT",
                gang > 2.0 * demt,
                format!("gang {gang:.2} vs demt {demt:.2}"),
            ));
            // "Worse than all other algorithms except Gang" — SAF beats
            // DEMT on minsum here.
            let saf = avg(fig, Algorithm::ListSaf, "wici", l);
            let demt_w = avg(fig, Algorithm::Demt, "wici", l);
            out.push(claim(
                "Fig3: SAF beats DEMT on minsum (DEMT's worst case)",
                saf <= demt_w + 1e-9,
                format!("saf {saf:.2} vs demt {demt_w:.2}"),
            ));
        }
        WorkloadKind::HighlyParallel => {
            // "Gang being good with a small number of tasks and
            // sequential good for a large number of tasks only."
            let gang_growth =
                avg(fig, Algorithm::Gang, "wici", l) / avg(fig, Algorithm::Gang, "wici", 0);
            out.push(claim(
                "Fig4: Gang degrades as n grows",
                gang_growth > 1.2,
                format!("gang ratio grows ×{gang_growth:.2}"),
            ));
            let seq_drop = avg(fig, Algorithm::Sequential, "wici", 0)
                / avg(fig, Algorithm::Sequential, "wici", l);
            out.push(claim(
                "Fig4: Sequential improves as n grows",
                seq_drop > 1.2,
                format!("sequential ratio shrinks ×{seq_drop:.2}"),
            ));
            // "Our algorithm is clearly the best one" vs the list orders
            // the paper plots (List/LPTF; SAF may catch up at large n).
            let demt = avg(fig, Algorithm::Demt, "wici", l);
            let list = avg(fig, Algorithm::ListShelf, "wici", l);
            let lptf = avg(fig, Algorithm::ListWlptf, "wici", l);
            out.push(claim(
                "Fig4: DEMT beats List and LPTF on minsum",
                demt < list && demt < lptf,
                format!("demt {demt:.2} vs list {list:.2}, lptf {lptf:.2}"),
            ));
        }
        WorkloadKind::Mixed => {
            // "The ratio of the two other list algorithms greatly
            // increases with the number of tasks."
            let list_growth = avg(fig, Algorithm::ListShelf, "wici", l)
                / avg(fig, Algorithm::ListShelf, "wici", 0);
            out.push(claim(
                "Fig5: List minsum ratio grows with n",
                list_growth > 1.3,
                format!("list ratio grows ×{list_growth:.2}"),
            ));
            // "However SAF is better than our algorithm."
            let saf = avg(fig, Algorithm::ListSaf, "wici", l);
            let demt = avg(fig, Algorithm::Demt, "wici", l);
            out.push(claim(
                "Fig5: SAF beats DEMT on minsum",
                saf <= demt + 1e-9,
                format!("saf {saf:.2} vs demt {demt:.2}"),
            ));
            // DEMT beats the growing lists at the large end.
            let list = avg(fig, Algorithm::ListShelf, "wici", l);
            out.push(claim(
                "Fig5: DEMT beats the degraded lists at large n",
                demt < list,
                format!("demt {demt:.2} vs list {list:.2}"),
            ));
        }
        WorkloadKind::Cirne => {
            // "Our algorithm clearly outperforms the other ones for the
            // minsum criterion."
            let demt = avg(fig, Algorithm::Demt, "wici", l);
            let best_other = [
                Algorithm::Gang,
                Algorithm::Sequential,
                Algorithm::ListShelf,
                Algorithm::ListWlptf,
                Algorithm::ListSaf,
            ]
            .iter()
            .map(|&a| avg(fig, a, "wici", l))
            .fold(f64::INFINITY, f64::min);
            out.push(claim(
                "Fig6: DEMT clearly best on minsum",
                demt < best_other,
                format!("demt {demt:.2} vs best competitor {best_other:.2}"),
            ));
        }
    }
    out
}

/// Renders a claim table; returns `true` when everything passed.
pub fn render_claims(claims: &[Claim]) -> (String, bool) {
    let mut all = true;
    let mut s = String::new();
    for c in claims {
        all &= c.pass;
        s.push_str(&format!(
            "  [{}] {} — {}\n",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    (s, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_figures_on, ExperimentConfig};
    use demt_exec::Pool;

    /// Mid-scale deterministic sweep: big enough for every directional
    /// claim to hold, small enough for CI.
    fn sweep(kind: WorkloadKind) -> FigureResult {
        let mut cfg = ExperimentConfig::paper();
        cfg.procs = 100;
        cfg.task_counts = vec![25, 100, 220];
        cfg.runs = 2;
        let mut figs = run_figures_on(&Pool::new(1), &cfg, &[kind], &|_msg| {});
        figs.pop().expect("one kind in, one figure out")
    }

    #[test]
    fn all_paper_claims_hold_at_mid_scale() {
        for kind in WorkloadKind::ALL {
            let fig = sweep(kind);
            let claims = check_figure(&fig);
            let (table, ok) = render_claims(&claims);
            assert!(ok, "figure {} claims failed:\n{table}", kind.figure());
            assert!(claims.len() >= 5);
        }
    }

    #[test]
    fn render_marks_failures() {
        let claims = vec![
            Claim {
                name: "a".into(),
                pass: true,
                detail: "x".into(),
            },
            Claim {
                name: "b".into(),
                pass: false,
                detail: "y".into(),
            },
        ];
        let (s, ok) = render_claims(&claims);
        assert!(!ok);
        assert!(s.contains("[PASS] a"));
        assert!(s.contains("[FAIL] b"));
    }
}
