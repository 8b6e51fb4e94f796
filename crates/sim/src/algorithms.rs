//! The six algorithms compared in the paper's figures (DEMT plus the
//! five baselines of §4.1), as a serializable enum for CSV/JSON series
//! bookkeeping. Execution dispatches exclusively through the workspace
//! [`SchedulerRegistry`](demt_api::SchedulerRegistry)
//! (`demt_baselines::registry`).

use demt_api::Scheduler;
use demt_baselines::registry;
use serde::{Deserialize, Serialize};

/// Algorithms plotted in Figures 3–6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Algorithm {
    /// The paper's contribution (legend "DEMT").
    Demt,
    /// Gang scheduling (legend "Gang").
    Gang,
    /// Sequential LPTF (legend "Sequential").
    Sequential,
    /// Graham list, \[7\] shelf order (legend "List Scheduling").
    ListShelf,
    /// Graham list, weighted LPTF (legend "LPTF").
    ListWlptf,
    /// Graham list, smallest area first (legend "SAF").
    ListSaf,
}

impl Algorithm {
    /// All six algorithms in the paper's legend order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Demt,
        Algorithm::Gang,
        Algorithm::Sequential,
        Algorithm::ListShelf,
        Algorithm::ListWlptf,
        Algorithm::ListSaf,
    ];

    /// Legend label as printed in the paper's figures.
    pub fn legend(self) -> &'static str {
        match self {
            Algorithm::Demt => "DEMT",
            Algorithm::Gang => "Gang",
            Algorithm::Sequential => "Sequential",
            Algorithm::ListShelf => "List Scheduling",
            Algorithm::ListWlptf => "LPTF",
            Algorithm::ListSaf => "SAF",
        }
    }

    /// Short machine name for CSV columns.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Demt => "demt",
            Algorithm::Gang => "gang",
            Algorithm::Sequential => "sequential",
            Algorithm::ListShelf => "list",
            Algorithm::ListWlptf => "lptf",
            Algorithm::ListSaf => "saf",
        }
    }

    /// The registry entry backing this algorithm; `None` only if the
    /// registry lost the entry of this name (the tests pin all six).
    /// DEMT and the three list baselines share a context's
    /// dual-approximation result, so the dual runs at most once per
    /// instance across a whole sweep cell.
    pub fn scheduler(self) -> Option<&'static dyn Scheduler> {
        registry().by_name(self.name())
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.legend())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_api::SchedulerContext;
    use demt_platform::validate;
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn registry_runs_everything_validly_with_one_dual() {
        let inst = generate(WorkloadKind::Mixed, 30, 8, 2);
        let mut ctx = SchedulerContext::new();
        for alg in Algorithm::ALL {
            let report = alg.scheduler().unwrap().schedule(&inst, &mut ctx);
            validate(&inst, &report.schedule).unwrap_or_else(|e| panic!("{alg}: {e}"));
        }
        assert_eq!(ctx.dual_runs(), 1, "one dual per instance across all six");
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn enum_matches_its_registry_entry() {
        for alg in Algorithm::ALL {
            let s = alg.scheduler().unwrap();
            assert_eq!(s.name(), alg.name());
            assert_eq!(s.legend(), alg.legend());
        }
    }
}
