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
//!   event-driven list engine behind every placement (baselines, DEMT's
//!   compaction, the dual's shelves, the on-line batches), running on a
//!   leftmost-fit tree and a [`FreeSet`] of free processor intervals;
//! * [`Skyline`] — the free-processor count as an event-ordered profile
//!   keyed by time (earliest-fit queries, backfill pre-filtering, the
//!   EASY queue's head reservation), see [`mod@skyline`]'s module docs;
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
pub use gantt::{render_gantt, MAX_GANTT_WIDTH};
pub use list::{bench_grid, list_schedule, try_list_schedule, FreeSet, ListError, ListTask};
pub use reserve::{backfill_schedule, Reservation};
pub use schedule::{Placement, Schedule};
pub use skyline::Skyline;
pub use validate::{validate, validate_no_overlap, validate_with_releases, ValidationError};
