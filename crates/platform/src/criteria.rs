//! The two criteria of the paper and auxiliary schedule metrics.

use crate::Schedule;
use demt_model::Instance;
use serde::{Deserialize, Serialize};

/// Evaluation of a schedule under both criteria (§2.2) plus auxiliary
/// metrics used by the harness and examples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Criteria {
    /// Makespan `Cmax = max Cᵢ` — the administrator's criterion.
    pub makespan: f64,
    /// Weighted minsum `Σ wᵢ Cᵢ` — the users' criterion.
    pub weighted_completion: f64,
    /// Unweighted `Σ Cᵢ`.
    pub sum_completion: f64,
    /// Mean completion time.
    pub mean_completion: f64,
    /// Total busy area Σ kᵢ·pᵢ(kᵢ).
    pub busy_area: f64,
    /// Idle area `m·Cmax − busy_area`.
    pub idle_area: f64,
    /// Utilization `busy_area / (m·Cmax)` (1.0 for an empty schedule).
    pub utilization: f64,
}

impl Criteria {
    /// Evaluates `schedule` against `instance`. The schedule must place
    /// every task exactly once (validated separately); completion times
    /// are read from the placements.
    pub fn evaluate(instance: &Instance, schedule: &Schedule) -> Self {
        let n = instance.len();
        let completions = schedule.completions(n);
        let mut sum = 0.0;
        let weighted = weighted_completion(
            instance,
            completions.iter().enumerate().map(|(i, c)| {
                // demt-lint: allow(P1, documented contract: evaluate requires a schedule covering the instance)
                let c = c.unwrap_or_else(|| panic!("task {i} missing from schedule"));
                sum += c;
                c
            }),
        );
        let makespan = schedule.makespan();
        let busy = schedule.total_area();
        let cap = instance.procs() as f64 * makespan;
        Criteria {
            makespan,
            weighted_completion: weighted,
            sum_completion: sum,
            mean_completion: if n == 0 { 0.0 } else { sum / n as f64 },
            busy_area: busy,
            idle_area: (cap - busy).max(0.0),
            utilization: if cap > 0.0 { busy / cap } else { 1.0 },
        }
    }
}

/// `Σ wᵢ Cᵢ` of `completions` given in task-id order, folded left to
/// right from 0 — the one fold behind [`Criteria::evaluate`]'s
/// `weighted_completion`, so a caller scoring completions without a
/// schedule (DEMT's compaction, on [`crate::list_completions`]) gets
/// the same bits.
pub fn weighted_completion(instance: &Instance, completions: impl IntoIterator<Item = f64>) -> f64 {
    let mut weighted = 0.0;
    for (task, c) in instance.tasks().iter().zip(completions) {
        weighted += task.weight() * c;
    }
    weighted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Placement;
    use demt_model::{InstanceBuilder, TaskId};

    fn inst_and_schedule() -> (Instance, Schedule) {
        let mut b = InstanceBuilder::new(3);
        b.push_times(2.0, vec![4.0, 2.0, 1.5]).unwrap(); // task 0
        b.push_times(1.0, vec![3.0, 2.0, 2.0]).unwrap(); // task 1
        let inst = b.build().unwrap();
        let mut s = Schedule::new(3);
        // task 0 on 2 procs from t=0 (C=2), task 1 on 1 proc from t=1 (C=4).
        s.push(Placement {
            task: TaskId(0),
            start: 0.0,
            duration: 2.0,
            procs: vec![0, 1].into(),
        });
        s.push(Placement {
            task: TaskId(1),
            start: 1.0,
            duration: 3.0,
            procs: vec![2].into(),
        });
        (inst, s)
    }

    #[test]
    fn criteria_arithmetic() {
        let (inst, s) = inst_and_schedule();
        let c = Criteria::evaluate(&inst, &s);
        assert_eq!(c.makespan, 4.0);
        assert_eq!(c.weighted_completion, 2.0 * 2.0 + 1.0 * 4.0);
        assert_eq!(c.sum_completion, 6.0);
        assert_eq!(c.mean_completion, 3.0);
        assert_eq!(c.busy_area, 4.0 + 3.0);
        assert_eq!(c.idle_area, 12.0 - 7.0);
        assert!((c.utilization - 7.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "missing from schedule")]
    fn missing_task_is_detected() {
        let (inst, mut s) = inst_and_schedule();
        s.placements_mut().swap(0, 1);
        let truncated = Schedule::from_placements(3, vec![s.placements()[0].clone()]);
        let _ = Criteria::evaluate(&inst, &truncated);
    }
}
