//! Output rendering: CSV series matching the paper's gnuplot data, and
//! ASCII tables/plots for the terminal.

use crate::algorithms::Algorithm;
use crate::experiment::FigureResult;
use std::fmt::Write as _;

/// CSV with one row per task count and, per algorithm, the average /
/// min / max ratios for both criteria — the exact series of the paper's
/// two-panel figures.
pub fn figure_csv(fig: &FigureResult) -> String {
    let mut s = String::new();
    s.push('n');
    for alg in Algorithm::ALL {
        for crit in ["wici", "cmax"] {
            for stat in ["avg", "min", "max"] {
                let _ = write!(s, ",{}_{crit}_{stat}", alg.name());
            }
        }
    }
    s.push('\n');
    for p in &fig.points {
        let _ = write!(s, "{}", p.tasks);
        for alg in Algorithm::ALL {
            let Some(series) = p.series_of(alg) else {
                continue;
            };
            for acc in [&series.minsum, &series.cmax] {
                let _ = write!(
                    s,
                    ",{:.6},{:.6},{:.6}",
                    acc.average(),
                    acc.min_ratio,
                    acc.max_ratio
                );
            }
        }
        s.push('\n');
    }
    s
}

/// CSV for the Figure 7 timing series (`n, seconds`).
pub fn timing_csv(series: &[(String, Vec<(usize, f64)>)]) -> String {
    let mut s = String::from("workload,n,seconds\n");
    for (name, points) in series {
        for (n, secs) in points {
            let _ = writeln!(s, "{name},{n},{secs:.6}");
        }
    }
    s
}

/// Terminal table of average ratios for one criterion.
pub fn ratio_table(fig: &FigureResult, criterion: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure {} ({}) — average {} ratio vs lower bound ({} runs/point, m={})",
        fig.kind.figure(),
        fig.kind.name(),
        criterion,
        fig.runs,
        fig.procs
    );
    let _ = write!(s, "{:>6}", "n");
    for alg in Algorithm::ALL {
        let _ = write!(s, "{:>12}", alg.name());
    }
    s.push('\n');
    for p in &fig.points {
        let _ = write!(s, "{:>6}", p.tasks);
        for alg in Algorithm::ALL {
            let Some(series) = p.series_of(alg) else {
                continue;
            };
            let acc = if criterion == "cmax" {
                &series.cmax
            } else {
                &series.minsum
            };
            let _ = write!(s, "{:>12.3}", acc.average());
        }
        s.push('\n');
    }
    s
}

/// Crude ASCII plot of the average-ratio curves (one letter per
/// algorithm), mirroring the paper's panel layout for eyeballing shape.
pub fn ascii_plot(fig: &FigureResult, criterion: &str, y_max: f64) -> String {
    const HEIGHT: usize = 18;
    const MARKS: [char; 6] = ['D', 'G', 'Q', 'L', 'P', 'S']; // Demt Gang seQuential List lPtf Saf
    let width = fig.points.len().max(1) * 6;
    let y_min = 1.0;
    let mut grid = vec![vec![' '; width]; HEIGHT];
    for (pi, p) in fig.points.iter().enumerate() {
        for (ai, alg) in Algorithm::ALL.iter().enumerate() {
            let Some(series) = p.series_of(*alg) else {
                continue;
            };
            let acc = if criterion == "cmax" {
                &series.cmax
            } else {
                &series.minsum
            };
            let v = acc.average().clamp(y_min, y_max);
            let row = ((y_max - v) / (y_max - y_min) * (HEIGHT - 1) as f64).round() as usize;
            let col = pi * 6 + 3;
            if grid[row][col] == ' ' {
                grid[row][col] = MARKS[ai];
            } else {
                // Collision: mark as multiple.
                grid[row][col] = '*';
            }
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure {} ({}) — {} ratio [D=DEMT G=Gang Q=Sequential L=List P=LPTF S=SAF, *=overlap]",
        fig.kind.figure(),
        fig.kind.name(),
        criterion
    );
    for (r, row) in grid.iter().enumerate() {
        let y = y_max - (y_max - y_min) * r as f64 / (HEIGHT - 1) as f64;
        let line: String = row.iter().collect();
        let _ = writeln!(s, "{y:>5.2} |{line}");
    }
    let _ = write!(s, "      +");
    for _ in 0..width {
        s.push('-');
    }
    s.push('\n');
    let _ = write!(s, "       ");
    for p in &fig.points {
        let _ = write!(s, "{:^6}", p.tasks);
    }
    s.push('\n');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_figures_on, ExperimentConfig};
    use demt_exec::Pool;
    use demt_workload::WorkloadKind;

    fn tiny_fig() -> FigureResult {
        let mut cfg = ExperimentConfig::quick();
        cfg.task_counts = vec![8, 16];
        cfg.runs = 1;
        let mut figs = run_figures_on(&Pool::new(1), &cfg, &[WorkloadKind::Mixed], &|_msg| {});
        figs.pop().expect("one kind in, one figure out")
    }

    #[test]
    fn csv_has_header_and_rows() {
        let fig = tiny_fig();
        let csv = figure_csv(&fig);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("n,demt_wici_avg"));
        assert_eq!(lines[0].split(',').count(), 1 + 6 * 6);
        assert!(lines[1].starts_with("8,"));
    }

    #[test]
    fn tables_and_plots_render() {
        let fig = tiny_fig();
        let t = ratio_table(&fig, "wici");
        assert!(t.contains("demt"));
        assert!(t.contains("Figure 5"));
        let p = ascii_plot(&fig, "cmax", 3.5);
        assert!(p.contains('D') || p.contains('*'));
    }

    #[test]
    fn timing_csv_renders() {
        let csv = timing_csv(&[("weakly".into(), vec![(25, 0.01), (50, 0.02)])]);
        assert!(csv.contains("weakly,25,0.010000"));
        assert_eq!(csv.lines().count(), 3);
    }
}
