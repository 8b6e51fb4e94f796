//! The bi-criteria trade-off that motivates the paper: single-criterion
//! schedulers sacrifice the other criterion, DEMT balances both.
//!
//! Sweeps the four workload families on one mid-size instance each and
//! prints the (Cmax ratio, Σ wᵢCᵢ ratio) pair per algorithm, plus a
//! DEMT ablation showing what each §3.2 design ingredient buys.
//!
//! ```text
//! cargo run --release --example bicriteria_tradeoff
//! ```

use demt::prelude::*;

fn main() {
    let m = 64;
    let n = 120;
    for kind in WorkloadKind::ALL {
        let inst = generate(kind, n, m, 555);
        let bounds = instance_bounds(&inst, &BoundConfig::default());
        let dual = dual_approx(&inst, &DualConfig::default());

        println!(
            "=== {} workload (paper Fig. {}) — n={n}, m={m} ===",
            kind.name(),
            kind.figure()
        );
        println!(
            "{:<26} {:>11} {:>11}",
            "algorithm", "Cmax ratio", "ΣwᵢCᵢ ratio"
        );
        let show = |name: &str, s: &Schedule| {
            validate(&inst, s).unwrap();
            let c = Criteria::evaluate(&inst, s);
            println!(
                "{:<26} {:>11.2} {:>11.2}",
                name,
                c.makespan / bounds.cmax,
                c.weighted_completion / bounds.minsum
            );
        };

        show(
            "DEMT (paper default)",
            &demt_schedule(&inst, &DemtConfig::default()).schedule,
        );
        show("Gang", &gang(&inst));
        show("Sequential LPTF", &sequential_lptf(&inst));
        show("List [7] order", &list_shelf(&inst, &dual));
        show("List weighted-LPTF", &list_wlptf(&inst, &dual));
        show("List SAF", &list_saf(&inst, &dual));

        // DEMT ablation: peel the pipeline back one stage at a time.
        let stages: [(&str, DemtConfig); 4] = [
            (
                "DEMT raw batches",
                DemtConfig {
                    compaction: Compaction::None,
                    ..DemtConfig::default()
                },
            ),
            (
                "DEMT + pull-earlier",
                DemtConfig {
                    compaction: Compaction::PullEarlier,
                    ..DemtConfig::default()
                },
            ),
            (
                "DEMT + list compaction",
                DemtConfig {
                    compaction: Compaction::List,
                    ..DemtConfig::default()
                },
            ),
            ("DEMT + shuffles (full)", DemtConfig::default()),
        ];
        for (name, cfg) in &stages {
            show(name, &demt_schedule(&inst, cfg).schedule);
        }
        println!();
    }
}
