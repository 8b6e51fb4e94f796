//! [`Scheduler`] adapter: DEMT behind the workspace-wide scheduling
//! interface. [`demt_schedule`](crate::demt_schedule) stays exported as
//! the thin direct entry point; this adapter is what the registry, the
//! CLI, the on-line wrapper, and the experiment harness dispatch on.

use crate::{demt_schedule_with_dual, DemtConfig};
use demt_api::{ReportTimer, ScheduleReport, Scheduler, SchedulerContext};
use demt_model::Instance;
use demt_platform::Schedule;

/// The paper's algorithm as a registry entry (name `"demt"`): DEMT with
/// [`DemtConfig::default`].
///
/// The dual-approximation step is drawn from the [`SchedulerContext`]
/// (shared with the Graham-list baselines) with the default
/// `DualConfig`. Ablation variants call
/// [`demt_schedule`](crate::demt_schedule) with their own config.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemtScheduler;

impl Scheduler for DemtScheduler {
    fn name(&self) -> &str {
        "demt"
    }

    fn legend(&self) -> &str {
        "DEMT"
    }

    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        let mut timer = ReportTimer::start();
        if inst.is_empty() {
            // The dual approximation is undefined on empty instances.
            return timer.finish(self.name(), inst, Schedule::new(inst.procs()));
        }
        let dual = timer.phase("dual", || ctx.dual(inst));
        let result = timer.phase("batch+compact", || {
            demt_schedule_with_dual(inst, &DemtConfig::default(), dual)
        });
        timer.finish_with(self.name(), result.schedule, result.criteria)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demt_schedule;
    use demt_model::InstanceBuilder;
    use demt_platform::{validate, Criteria};
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn adapter_matches_the_free_function() {
        let inst = generate(WorkloadKind::Mixed, 30, 8, 5);
        let direct = demt_schedule(&inst, &DemtConfig::default());
        let mut ctx = SchedulerContext::new();
        let report = DemtScheduler.schedule(&inst, &mut ctx);
        assert_eq!(report.schedule, direct.schedule);
        assert_eq!(report.criteria, direct.criteria);
        assert_eq!(report.algorithm, "demt");
        assert_eq!(ctx.dual_runs(), 1);
    }

    #[test]
    fn adapter_reuses_the_context_dual() {
        let inst = generate(WorkloadKind::Cirne, 25, 8, 2);
        let mut ctx = SchedulerContext::new();
        let s = DemtScheduler;
        s.schedule(&inst, &mut ctx);
        s.schedule(&inst, &mut ctx);
        assert_eq!(ctx.dual_runs(), 1, "second run must hit the dual cache");
    }

    #[test]
    fn empty_instance_reports_empty_schedule() {
        let inst = InstanceBuilder::new(3).build().unwrap();
        let report = DemtScheduler.schedule(&inst, &mut SchedulerContext::new());
        assert!(report.schedule.is_empty());
        assert_eq!(report.criteria.makespan, 0.0);
        validate(&inst, &report.schedule).unwrap();
    }

    #[test]
    fn report_criteria_match_reevaluation() {
        let inst = generate(WorkloadKind::HighlyParallel, 20, 8, 4);
        let report = DemtScheduler.schedule(&inst, &mut SchedulerContext::new());
        assert_eq!(report.criteria, Criteria::evaluate(&inst, &report.schedule));
    }
}
