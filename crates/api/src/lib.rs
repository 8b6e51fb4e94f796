//! # demt-api — the workspace-wide scheduling interface
//!
//! The paper's §2.2 argument — any off-line batch scheduler with a
//! performance guarantee lifts to the on-line setting — is an interface
//! statement: schedulers are interchangeable values. This crate is that
//! interface, shared by every dispatch layer of the workspace (the CLI,
//! the experiment harness, the on-line wrapper, and the front-end
//! simulator):
//!
//! * [`Scheduler`] — the polymorphic algorithm: a name, a figure
//!   legend, and `schedule(instance, context) → report`;
//! * [`SchedulerContext`] — per-run shared state. It owns a
//!   lazily-computed [`DualResult`] so DEMT and the three Graham-list
//!   baselines stop recomputing the dual approximation for the same
//!   instance, and counts how often the dual actually ran
//!   ([`SchedulerContext::dual_runs`]) so tests can pin "at most once
//!   per instance";
//! * [`ScheduleReport`] — the uniform output: schedule + criteria +
//!   wall-clock + per-phase timings, replacing the previous mix of bare
//!   `Schedule`s and algorithm-specific result structs;
//! * [`SchedulerRegistry`] — string-keyed lookup and iteration over a
//!   set of boxed schedulers (the canonical six-algorithm registry
//!   lives in `demt-baselines::registry`, downstream of the adapters);
//! * [`FnScheduler`] — closure adapter so ad-hoc algorithms plug into
//!   the same plumbing.

#![warn(missing_docs)]

pub mod clock;
pub mod flags;
mod hierarchy;

pub use hierarchy::HierarchicalScheduler;

use clock::Stopwatch;
use demt_dual::{dual_approx, DualConfig, DualResult};
use demt_model::{Instance, MoldableTask};
use demt_platform::{Criteria, Schedule};
use serde::{Deserialize, Serialize};

/// A batch scheduler: maps an off-line [`Instance`] to a
/// [`ScheduleReport`], drawing shared per-run state (today: the dual
/// approximation) from the [`SchedulerContext`].
///
/// Implementations must be stateless across calls (configuration is
/// fine, mutation is not) so one boxed instance can serve a whole
/// process from a registry.
pub trait Scheduler: Send + Sync {
    /// Short machine name — CLI `--algorithm` value, CSV column,
    /// registry key. Must be unique within a registry.
    fn name(&self) -> &str;

    /// Legend label as printed in the paper's figures.
    fn legend(&self) -> &str;

    /// Schedules the instance. The context carries the shared dual
    /// approximation; schedulers that need it call
    /// [`SchedulerContext::dual`] instead of running their own.
    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport;
}

/// Any shared reference to a scheduler is a scheduler — so registry
/// lookups (`&dyn Scheduler`) plug straight into wrappers like
/// [`HierarchicalScheduler`] without re-boxing.
impl<S: Scheduler + ?Sized> Scheduler for &S {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn legend(&self) -> &str {
        (**self).legend()
    }

    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        (**self).schedule(inst, ctx)
    }
}

/// Boxed schedulers delegate too, so owned `Box<dyn Scheduler>` values
/// compose with the same wrappers.
impl<S: Scheduler + ?Sized> Scheduler for Box<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn legend(&self) -> &str {
        (**self).legend()
    }

    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        (**self).schedule(inst, ctx)
    }
}

/// Shared per-run state handed to every [`Scheduler::schedule`] call.
///
/// The context caches the dual-approximation result keyed by an
/// instance fingerprint: running several schedulers (or the same one
/// twice) on one instance computes the dual once. Switching to another
/// instance — the on-line wrapper feeds one sub-instance per batch —
/// transparently recomputes.
#[derive(Debug, Clone, Default)]
pub struct SchedulerContext {
    cache: Option<(u64, DualResult)>,
    dual_runs: usize,
}

impl SchedulerContext {
    /// An empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared dual-approximation result for `inst` under the
    /// default [`DualConfig`], computed on first use and cached for
    /// subsequent calls with the same instance. Panics if `inst` is
    /// empty (the dual approximation is undefined there — schedulers
    /// must special-case empty instances before asking for it).
    pub fn dual(&mut self, inst: &Instance) -> &DualResult {
        let fp = fingerprint(inst);
        if !matches!(&self.cache, Some((key, _)) if *key == fp) {
            self.dual_runs += 1;
            self.cache = None;
        }
        &self
            .cache
            .get_or_insert_with(|| (fp, dual_approx(inst, &DualConfig::default())))
            .1
    }

    /// How many times [`SchedulerContext::dual`] actually ran the dual
    /// approximation (cache misses). The sharing contract is "at most
    /// once per instance per run"; tests pin this counter.
    pub fn dual_runs(&self) -> usize {
        self.dual_runs
    }
}

/// The dual cache's key: FNV-1a over the processor count, each task's
/// content hash in task order, and the task count. Ids never enter it
/// (the on-line loop re-ids every batch densely). Collisions between
/// instances met by one context are astronomically unlikely; a miss
/// only costs a redundant dual run.
fn fingerprint(inst: &Instance) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_mix(h, inst.procs() as u64);
    for t in inst.tasks() {
        h = fnv_mix(h, task_hash(t));
    }
    fnv_mix(h, inst.len() as u64)
}

/// FNV-1a over one task's numeric content: for explicit tasks the
/// weight and every execution-time point, for compactly-stored rigid
/// tasks the three numbers that define the virtual vector, under a
/// tag, in `O(1)`. A rigid task therefore keys apart from its explicit
/// twin; both keys are deterministic in the task content, which is all
/// the cache needs.
fn task_hash(task: &MoldableTask) -> u64 {
    let mut h = fnv_mix(FNV_OFFSET, task.weight().to_bits());
    if let Some((width, time)) = task.rigid_shape() {
        // The tag keeps a crafted explicit vector from aliasing the
        // compact encoding's field layout.
        for v in [
            0x5249_4749_445f_5631, // "RIGID_V1"
            width as u64,
            time.to_bits(),
            task.max_procs() as u64,
        ] {
            h = fnv_mix(h, v);
        }
    } else {
        for &x in task.times() {
            h = fnv_mix(h, x.to_bits());
        }
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv_mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Wall-clock of one named phase inside a scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase label (e.g. `"dual"`, `"list"`, `"compaction"`).
    pub phase: String,
    /// Elapsed wall-clock, seconds.
    pub seconds: f64,
}

/// Uniform scheduler output: the schedule, its evaluation under both
/// criteria, and timing diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleReport {
    /// Name of the scheduler that produced this report
    /// ([`Scheduler::name`]).
    pub algorithm: String,
    /// The schedule itself.
    pub schedule: Schedule,
    /// Both criteria plus auxiliary metrics, evaluated on `schedule`.
    pub criteria: Criteria,
    /// Total scheduling wall-clock, seconds.
    pub wall_seconds: f64,
    /// Per-phase wall-clock breakdown, in execution order.
    pub phases: Vec<PhaseTiming>,
}

/// Builder for [`ScheduleReport`]s: started when the scheduler begins,
/// phases recorded along the way, finished with the schedule.
///
/// ```
/// use demt_api::ReportTimer;
/// use demt_model::Instance;
/// use demt_platform::Schedule;
/// let inst = demt_workload::generate(demt_workload::WorkloadKind::Mixed, 5, 4, 1);
/// let mut timer = ReportTimer::start();
/// let schedule = timer.phase("noop", || Schedule::new(inst.procs()));
/// # let _ = &inst; // a real scheduler would place every task
/// ```
#[derive(Debug)]
pub struct ReportTimer {
    clock: Stopwatch,
    phases: Vec<PhaseTiming>,
}

impl ReportTimer {
    /// Starts the overall wall-clock.
    pub fn start() -> Self {
        Self {
            clock: Stopwatch::start(),
            phases: Vec::new(),
        }
    }

    /// Runs `f` as a named phase, recording its wall-clock.
    pub fn phase<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let clock = Stopwatch::start();
        let out = f();
        self.record(name, clock.seconds());
        out
    }

    /// Records an externally-timed phase.
    pub fn record(&mut self, name: &str, seconds: f64) {
        self.phases.push(PhaseTiming {
            phase: name.to_string(),
            seconds,
        });
    }

    /// Finishes the report, evaluating [`Criteria`] on the schedule.
    pub fn finish(self, algorithm: &str, inst: &Instance, schedule: Schedule) -> ScheduleReport {
        let criteria = Criteria::evaluate(inst, &schedule);
        self.finish_with(algorithm, schedule, criteria)
    }

    /// Finishes the report with criteria the scheduler already
    /// evaluated (avoids a redundant evaluation pass).
    pub fn finish_with(
        self,
        algorithm: &str,
        schedule: Schedule,
        criteria: Criteria,
    ) -> ScheduleReport {
        ScheduleReport {
            algorithm: algorithm.to_string(),
            schedule,
            criteria,
            wall_seconds: self.clock.seconds(),
            phases: self.phases,
        }
    }
}

/// String-keyed registry of boxed schedulers: `by_name` lookup for
/// dispatch sites, `all` iteration for sweeps and conformance tests.
#[derive(Default)]
pub struct SchedulerRegistry {
    entries: Vec<Box<dyn Scheduler>>,
}

impl SchedulerRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a scheduler. Panics if its name is already registered —
    /// duplicate names would make string dispatch ambiguous.
    pub fn register(&mut self, scheduler: Box<dyn Scheduler>) {
        // demt-lint: allow(P1, names are unique by construction: every registry is built from one fixed list of distinct built-in schedulers)
        assert!(
            self.by_name(scheduler.name()).is_none(),
            "scheduler {:?} registered twice",
            scheduler.name()
        );
        self.entries.push(scheduler);
    }

    /// Looks a scheduler up by its [`Scheduler::name`].
    pub fn by_name(&self, name: &str) -> Option<&dyn Scheduler> {
        self.entries
            .iter()
            .find(|s| s.name() == name)
            .map(|s| s.as_ref())
    }

    /// Every registered scheduler, in registration order.
    pub fn all(&self) -> impl Iterator<Item = &dyn Scheduler> + '_ {
        self.entries.iter().map(|s| s.as_ref())
    }

    /// Registered names, in registration order (CLI accepted-values
    /// lists and error messages derive from this).
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|s| s.name()).collect()
    }

    /// Number of registered schedulers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl std::fmt::Debug for SchedulerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchedulerRegistry")
            .field("names", &self.names())
            .finish()
    }
}

/// Closure adapter: wraps any `Fn(&Instance, &mut SchedulerContext) →
/// Schedule` into a [`Scheduler`], timing it as a single phase and
/// evaluating criteria — the migration path for ad-hoc algorithms.
pub struct FnScheduler<F> {
    name: String,
    legend: String,
    f: F,
}

impl<F> FnScheduler<F>
where
    F: Fn(&Instance, &mut SchedulerContext) -> Schedule + Send + Sync,
{
    /// Wraps `f` under the given registry name and figure legend.
    pub fn new(name: impl Into<String>, legend: impl Into<String>, f: F) -> Self {
        Self {
            name: name.into(),
            legend: legend.into(),
            f,
        }
    }
}

impl<F> Scheduler for FnScheduler<F>
where
    F: Fn(&Instance, &mut SchedulerContext) -> Schedule + Send + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn legend(&self) -> &str {
        &self.legend
    }

    fn schedule(&self, inst: &Instance, ctx: &mut SchedulerContext) -> ScheduleReport {
        let mut timer = ReportTimer::start();
        let schedule = timer.phase("schedule", || (self.f)(inst, ctx));
        timer.finish(self.name(), inst, schedule)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_platform::Placement;
    use demt_workload::{generate, WorkloadKind};

    /// A toy sequential scheduler for exercising the plumbing.
    fn one_proc_chain(inst: &Instance, _ctx: &mut SchedulerContext) -> Schedule {
        let mut s = Schedule::new(inst.procs());
        let mut t0 = 0.0;
        for t in inst.tasks() {
            let d = t.seq_time();
            s.push(Placement {
                task: t.id(),
                start: t0,
                duration: d,
                procs: vec![0].into(),
            });
            t0 += d;
        }
        s
    }

    #[test]
    fn context_dual_is_computed_once_per_instance() {
        let inst = generate(WorkloadKind::Mixed, 20, 8, 1);
        let mut ctx = SchedulerContext::new();
        let lb = ctx.dual(&inst).lower_bound;
        assert_eq!(ctx.dual_runs(), 1);
        // Same instance again: cache hit, identical result.
        assert_eq!(ctx.dual(&inst).lower_bound, lb);
        assert_eq!(ctx.dual_runs(), 1);
    }

    #[test]
    fn context_detects_instance_change() {
        let a = generate(WorkloadKind::Mixed, 20, 8, 1);
        let b = generate(WorkloadKind::Mixed, 20, 8, 2); // same shape, new seed
        let mut ctx = SchedulerContext::new();
        ctx.dual(&a);
        ctx.dual(&b);
        assert_eq!(ctx.dual_runs(), 2, "different instances must recompute");
        ctx.dual(&b);
        assert_eq!(ctx.dual_runs(), 2);
        // Going back to `a` recomputes — the cache holds one entry.
        ctx.dual(&a);
        assert_eq!(ctx.dual_runs(), 3);
    }

    #[test]
    fn dual_key_distinguishes_shape_and_content() {
        use demt_model::{MoldableTask, TaskId};
        let rigid = |id, procs, time, m| MoldableTask::rigid(TaskId(id), 1.0, procs, time, m);
        let inst = |m: usize, tasks: &[(usize, f64)]| {
            let tasks = tasks
                .iter()
                .enumerate()
                .map(|(id, &(procs, time))| rigid(id, procs, time, m).unwrap())
                .collect();
            Instance::new(m, tasks).unwrap()
        };
        // Runs of the dual over `a` then `b` on one fresh context: 1
        // when both share a key, 2 when they key apart.
        let runs = |a: &Instance, b: &Instance| {
            let mut ctx = SchedulerContext::new();
            ctx.dual(a);
            ctx.dual(b);
            ctx.dual_runs()
        };
        let (a, b) = ((2, 3.0), (1, 5.0));
        assert_eq!(runs(&inst(4, &[a, b]), &inst(4, &[a, b])), 1);
        assert_eq!(
            runs(&inst(4, &[a, b]), &inst(4, &[b, a])),
            2,
            "order-sensitive"
        );
        assert_eq!(
            runs(&inst(4, &[a]), &inst(4, &[a, a])),
            2,
            "count-sensitive"
        );
        assert_eq!(runs(&inst(4, &[a]), &inst(8, &[a])), 2, "machine-sensitive");
        // Ids do not enter the key: a derived instance re-ids its tasks
        // densely and still hits the entry of the same content.
        let mut second = inst(4, &[a, b]).tasks()[1].clone();
        second.set_id(TaskId(0));
        let tail = Instance::new(4, vec![second]).unwrap();
        assert_eq!(runs(&tail, &inst(4, &[b])), 1, "id-blind");
        let moved = rigid(7, 1, 5.0, 4).unwrap();
        assert_eq!(task_hash(&moved), task_hash(&tail.tasks()[0]));
        // A compact rigid task keys apart from its explicit twin.
        let twin = MoldableTask::new(TaskId(0), 1.0, tail.tasks()[0].times().to_vec()).unwrap();
        let explicit = Instance::new(4, vec![twin]).unwrap();
        assert_eq!(runs(&tail, &explicit), 2, "rigid keys apart from explicit");
    }

    #[test]
    fn fn_scheduler_produces_conforming_reports() {
        let inst = generate(WorkloadKind::WeaklyParallel, 10, 4, 3);
        let s = FnScheduler::new("chain", "Chain", one_proc_chain);
        let mut ctx = SchedulerContext::new();
        let report = s.schedule(&inst, &mut ctx);
        assert_eq!(report.algorithm, "chain");
        demt_platform::validate(&inst, &report.schedule).unwrap();
        let c = Criteria::evaluate(&inst, &report.schedule);
        assert_eq!(report.criteria, c);
        assert!(report.wall_seconds >= 0.0);
        assert_eq!(report.phases.len(), 1);
        assert_eq!(report.phases[0].phase, "schedule");
    }

    #[test]
    fn registry_lookup_and_iteration() {
        let mut reg = SchedulerRegistry::new();
        reg.register(Box::new(FnScheduler::new("a", "A", one_proc_chain)));
        reg.register(Box::new(FnScheduler::new("b", "B", one_proc_chain)));
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.names(), vec!["a", "b"]);
        assert_eq!(reg.by_name("b").unwrap().legend(), "B");
        assert!(reg.by_name("c").is_none());
        let legends: Vec<&str> = reg.all().map(|s| s.legend()).collect();
        assert_eq!(legends, vec!["A", "B"]);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn registry_rejects_duplicate_names() {
        let mut reg = SchedulerRegistry::new();
        reg.register(Box::new(FnScheduler::new("a", "A", one_proc_chain)));
        reg.register(Box::new(FnScheduler::new("a", "A again", one_proc_chain)));
    }

    #[test]
    fn report_round_trips_through_json() {
        let inst = generate(WorkloadKind::Cirne, 6, 4, 9);
        let s = FnScheduler::new("chain", "Chain", one_proc_chain);
        let report = s.schedule(&inst, &mut SchedulerContext::new());
        let json = serde_json::to_string(&report).unwrap();
        let back: ScheduleReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
