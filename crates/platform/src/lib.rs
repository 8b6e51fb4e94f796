//! # demt-platform — cluster scheduling substrate
//!
//! Everything a moldable-task scheduler needs besides the scheduling
//! decision itself:
//!
//! * [`Schedule`] / [`Placement`] — explicit start times and processor
//!   sets (§2.2's `σ` and `nbproc` functions);
//! * [`Criteria`] — the paper's two objectives (`Cmax`, `Σ wᵢ Cᵢ`) plus
//!   auxiliary metrics;
//! * [`validate`] — a full feasibility audit run on every algorithm
//!   output in tests and the harness;
//! * [`list_schedule`] / [`try_list_schedule`] — the Graham-style
//!   event-driven list engine used by the baselines and by DEMT's
//!   compaction, running on the skyline structures below;
//! * [`Skyline`] / [`Frontier`] — event-ordered free-processor profiles
//!   keyed by time: the count skyline (earliest-fit queries, backfill
//!   pre-filtering) and the availability frontier (strict-order
//!   placement), see [`mod@skyline`]'s module docs for the complexity
//!   table;
//! * [`pull_earlier`] — the "slide left on idle processors" compaction
//!   pass;
//! * [`backfill_schedule`] — conservative backfilling around node
//!   [`Reservation`]s (the §5 open problem / MAUI-style discipline),
//!   skyline-accelerated;
//! * [`render_gantt`] — ASCII Gantt charts for the examples.

#![warn(missing_docs)]

mod compact;
mod criteria;
#[cfg(test)]
mod difftests;
mod gantt;
mod list;
mod reserve;
mod schedule;
pub mod skyline;
mod validate;

pub use compact::pull_earlier;
pub use criteria::Criteria;
pub use gantt::render_gantt;
pub use list::{
    bench_grid, list_schedule, try_list_schedule, FreeSet, ListError, ListPolicy, ListTask,
};
pub use reserve::{backfill_schedule, Reservation};
pub use schedule::{Placement, Schedule};
pub use skyline::{Frontier, Skyline};
pub use validate::{
    assert_valid, validate, validate_no_overlap, validate_with_releases, ValidationError,
};
