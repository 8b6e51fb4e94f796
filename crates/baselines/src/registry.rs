//! [`Scheduler`] adapters for the five baselines and the canonical
//! workspace registry (DEMT + baselines): this crate sits downstream of
//! every algorithm, so it is where the paper's full §4.1 line-up
//! assembles into one [`SchedulerRegistry`].

use crate::{gang, list_saf, list_shelf, list_wlptf, sequential_lptf};
use demt_api::{ReportTimer, ScheduleReport, Scheduler, SchedulerContext, SchedulerRegistry};
use demt_core::DemtScheduler;
use demt_dual::DualResult;
use demt_model::Instance;
use demt_platform::Schedule;
use std::sync::OnceLock;

/// The canonical registry: DEMT plus the five §4.1 baselines, in the
/// paper's legend order. Every dispatch site (CLI `schedule`, the
/// experiment harness, the on-line wrapper's callers, the front-end
/// simulator) resolves algorithms here.
///
/// ```
/// use demt_baselines::registry;
/// assert_eq!(registry().by_name("lptf").unwrap().legend(), "LPTF");
/// assert_eq!(registry().len(), 6);
/// ```
pub fn registry() -> &'static SchedulerRegistry {
    static REGISTRY: OnceLock<SchedulerRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = SchedulerRegistry::new();
        reg.register(Box::new(DemtScheduler));
        reg.register(Box::new(GangScheduler));
        reg.register(Box::new(SequentialScheduler));
        reg.register(Box::new(ListShelfScheduler));
        reg.register(Box::new(ListWlptfScheduler));
        reg.register(Box::new(ListSafScheduler));
        reg
    })
}

/// Shared shape of the dual-free baselines (gang, sequential).
fn direct_report(
    name: &str,
    inst: &Instance,
    run: impl FnOnce(&Instance) -> Schedule,
) -> ScheduleReport {
    let mut timer = ReportTimer::start();
    let schedule = timer.phase("list", || run(inst));
    timer.finish(name, inst, schedule)
}

/// Shared shape of the three Graham-list baselines: dual phase from the
/// context, then the list pass.
fn dual_list_report(
    name: &str,
    inst: &Instance,
    ctx: &mut SchedulerContext,
    run: impl FnOnce(&Instance, &DualResult) -> Schedule,
) -> ScheduleReport {
    let mut timer = ReportTimer::start();
    if inst.is_empty() {
        // The dual approximation is undefined on empty instances.
        return timer.finish(name, inst, Schedule::new(inst.procs()));
    }
    let dual = timer.phase("dual", || ctx.dual(inst));
    let schedule = timer.phase("list", || run(inst, dual));
    timer.finish(name, inst, schedule)
}

/// [`gang`] as a registry entry (name `"gang"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct GangScheduler;

impl Scheduler for GangScheduler {
    fn name(&self) -> &str {
        "gang"
    }
    fn legend(&self) -> &str {
        "Gang"
    }
    fn schedule(&self, inst: &Instance, _ctx: &mut SchedulerContext) -> ScheduleReport {
        direct_report(self.name(), inst, gang)
    }
}

/// [`sequential_lptf`] as a registry entry (name `"sequential"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialScheduler;

impl Scheduler for SequentialScheduler {
    fn name(&self) -> &str {
        "sequential"
    }
    fn legend(&self) -> &str {
        "Sequential"
    }
    fn schedule(&self, inst: &Instance, _ctx: &mut SchedulerContext) -> ScheduleReport {
        direct_report(self.name(), inst, sequential_lptf)
    }
}

/// [`list_shelf`] as a registry entry (name `"list"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ListShelfScheduler;

impl Scheduler for ListShelfScheduler {
    fn name(&self) -> &str {
        "list"
    }
    fn legend(&self) -> &str {
        "List Scheduling"
    }
    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        dual_list_report(self.name(), inst, ctx, list_shelf)
    }
}

/// [`list_wlptf`] as a registry entry (name `"lptf"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ListWlptfScheduler;

impl Scheduler for ListWlptfScheduler {
    fn name(&self) -> &str {
        "lptf"
    }
    fn legend(&self) -> &str {
        "LPTF"
    }
    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        dual_list_report(self.name(), inst, ctx, list_wlptf)
    }
}

/// [`list_saf`] as a registry entry (name `"saf"`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ListSafScheduler;

impl Scheduler for ListSafScheduler {
    fn name(&self) -> &str {
        "saf"
    }
    fn legend(&self) -> &str {
        "SAF"
    }
    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        dual_list_report(self.name(), inst, ctx, list_saf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_dual::{dual_approx, DualConfig};
    use demt_platform::validate;
    use demt_workload::{generate, WorkloadKind};

    #[test]
    fn registry_holds_all_six_in_legend_order() {
        let names: Vec<&str> = registry().names();
        assert_eq!(
            names,
            vec!["demt", "gang", "sequential", "list", "lptf", "saf"]
        );
    }

    #[test]
    fn adapters_match_the_free_functions() {
        let inst = generate(WorkloadKind::Mixed, 30, 8, 2);
        let dual = dual_approx(&inst, &DualConfig::default());
        let mut ctx = SchedulerContext::new();
        let expect: Vec<(&str, Schedule)> = vec![
            ("gang", gang(&inst)),
            ("sequential", sequential_lptf(&inst)),
            ("list", list_shelf(&inst, &dual)),
            ("lptf", list_wlptf(&inst, &dual)),
            ("saf", list_saf(&inst, &dual)),
        ];
        for (name, want) in expect {
            let report = registry()
                .by_name(name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .schedule(&inst, &mut ctx);
            assert_eq!(report.schedule, want, "{name} diverged from free fn");
            validate(&inst, &report.schedule).unwrap();
        }
        assert_eq!(
            ctx.dual_runs(),
            1,
            "the three list baselines share one dual"
        );
    }

    #[test]
    fn list_adapters_handle_empty_instances() {
        let inst = demt_model::InstanceBuilder::new(4).build().unwrap();
        let mut ctx = SchedulerContext::new();
        for s in registry().all() {
            let report = s.schedule(&inst, &mut ctx);
            assert!(report.schedule.is_empty(), "{}", s.name());
        }
        assert_eq!(ctx.dual_runs(), 0, "no dual on empty instances");
    }
}
