//! # demt — bi-criteria moldable-job scheduling for cluster platforms
//!
//! A from-scratch Rust reproduction of *Dutot, Eyraud-Dubois, Mounié,
//! Trystram, "Bi-criteria Algorithm for Scheduling Jobs on Cluster
//! Platforms", SPAA 2004*: the **DEMT** batch scheduling algorithm that
//! optimizes the makespan (`Cmax`) and the weighted sum of completion
//! times (`Σ wᵢ Cᵢ`) simultaneously for moldable parallel tasks, plus
//! every substrate its evaluation depends on.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`api`] | `demt-api` | the `Scheduler` trait, shared context, `ScheduleReport`, registry |
//! | [`model`] | `demt-model` | moldable tasks, instances, canonical queries |
//! | [`distr`] | `demt-distr` | seeded random variates (Box–Muller, log-uniform) |
//! | [`workload`] | `demt-workload` | the four SPAA'04 workload families |
//! | [`platform`] | `demt-platform` | schedules, criteria, validation, greedy list engine, Gantt |
//! | [`kernels`] | `demt-kernels` | knapsack DPs, chain packing, bisection |
//! | [`lp`] | `demt-lp` | revised simplex with warm-start API (LU + eta-file basis) |
//! | [`dual`] | `demt-dual` | dual-approximation makespan substrate & bound |
//! | [`bounds`] | `demt-bounds` | minsum LP lower bound, warm-started horizon sweeps |
//! | [`core`] | `demt-core` | the DEMT algorithm |
//! | [`baselines`] | `demt-baselines` | Gang, Sequential, three Graham lists |
//! | [`online`] | `demt-online` | on-line batch framework over release dates, incremental `BatchLoop` core |
//! | [`serve`] | `demt-serve` | event-driven scheduling daemon: JSONL job events in, placements + rolling stats out (`demt serve`) |
//! | [`exec`] | `demt-exec` | one shared pool: ordered, deterministic `par_map` |
//! | [`sim`] | `demt-sim` | experiment harness regenerating Figures 3–7 (cell-parallel on the `exec` pool) |
//! | [`exact`] | `demt-exact` | exact branch-and-bound oracle for tiny instances |
//! | [`frontend`] | `demt-frontend` | cluster front-end simulation: job streams, FCFS/EASY queues, SWF traces, response metrics |
//! | [`lint`] | `demt-lint` | workspace static analyzer: parser + symbol table + call graph; determinism, panic-freedom and transitive panic reachability, float equality, crate layering, unsafe, stale suppressions (`demt lint`) |
//! | [`bench`](mod@bench) | `demt-bench` | archive-scale replay benchmark harness (`demt replaybench`) |
//!
//! `ARCHITECTURE.md` at the repository root maps the paper's structure
//! (dual approximation, shelf partition, Graham lists, LP lower bounds,
//! experiment figures) onto these crates, with the workspace layering
//! and the `Instance → Scheduler → ScheduleReport → repro` data-flow
//! diagram — read it first when navigating the codebase.
//!
//! ## Quickstart
//!
//! ```
//! use demt::prelude::*;
//!
//! // A 16-processor cluster and 30 moldable jobs from the paper's
//! // Cirne–Berman workload model.
//! let inst = generate(WorkloadKind::Cirne, 30, 16, 42);
//!
//! // Schedule with the paper's algorithm, resolved from the registry
//! // (any of "demt", "gang", "sequential", "list", "lptf", "saf").
//! let mut ctx = SchedulerContext::new();
//! let demt = registry().by_name("demt").expect("registered");
//! let report = demt.schedule(&inst, &mut ctx);
//! validate(&inst, &report.schedule).expect("a feasible schedule");
//!
//! // …and check both criteria against certified lower bounds.
//! let bounds = instance_bounds(&inst, &BoundConfig::default());
//! assert!(report.criteria.makespan >= bounds.cmax);
//! assert!(report.criteria.weighted_completion >= bounds.minsum);
//!
//! // The classic free functions remain as thin wrappers:
//! let result = demt_schedule(&inst, &DemtConfig::default());
//! assert_eq!(result.schedule, report.schedule);
//! ```

#![warn(missing_docs)]

pub use demt_api as api;
pub use demt_baselines as baselines;
pub use demt_bench as bench;
pub use demt_bounds as bounds;
pub use demt_core as core;
pub use demt_distr as distr;
pub use demt_dual as dual;
pub use demt_exact as exact;
pub use demt_exec as exec;
pub use demt_frontend as frontend;
pub use demt_kernels as kernels;
pub use demt_lint as lint;
pub use demt_lp as lp;
pub use demt_model as model;
pub use demt_online as online;
pub use demt_platform as platform;
pub use demt_serve as serve;
pub use demt_sim as sim;
pub use demt_workload as workload;

/// One-stop imports for the common workflow: generate → resolve from
/// the registry → schedule → validate → bound.
pub mod prelude {
    pub use demt_api::{
        FnScheduler, HierarchicalScheduler, PhaseTiming, ReportTimer, ScheduleReport, Scheduler,
        SchedulerContext, SchedulerRegistry,
    };
    pub use demt_baselines::{
        gang, list_saf, list_shelf, list_wlptf, registry, sequential_lptf, GangScheduler,
        ListSafScheduler, ListShelfScheduler, ListWlptfScheduler, SequentialScheduler,
    };
    pub use demt_bounds::{
        assemble_minsum_lp, instance_bounds, minsum_bounds_for_horizons_on, minsum_lower_bound,
        BoundConfig, InstanceBounds, MinsumLp,
    };
    pub use demt_core::{
        demt_schedule, demt_schedule_with_dual, Compaction, DemtConfig, DemtResult, DemtScheduler,
    };
    pub use demt_dual::{dual_approx, DualConfig, DualResult};
    pub use demt_exec::Pool;
    pub use demt_model::{
        Hierarchy, HierarchyError, Instance, InstanceBuilder, MoldableTask, ProcSet, TaskId,
    };
    pub use demt_online::{
        try_online_batch_schedule, BatchLoop, OnlineError, OnlineJob, OnlineResult,
    };
    pub use demt_platform::{
        list_schedule, render_gantt, try_list_schedule, validate, validate_no_overlap,
        validate_with_releases, Criteria, ListError, ListTask, Placement, Schedule,
    };
    pub use demt_serve::{run_events, JobEvent, ServeConfig, ServeError, ServeStats};
    pub use demt_workload::{generate, WorkloadKind, WorkloadSpec};
}
