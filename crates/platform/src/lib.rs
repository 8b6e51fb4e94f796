//! # demt-platform — cluster scheduling substrate
//!
//! Everything a moldable-task scheduler needs besides the scheduling
//! decision itself:
//!
//! * [`Schedule`] / [`Placement`] — explicit start times and processor
//!   sets (§2.2's `σ` and `nbproc` functions);
//! * [`Criteria`] — the paper's two objectives (`Cmax`, `Σ wᵢ Cᵢ`) plus
//!   auxiliary metrics; [`weighted_completion`] is its `Σ wᵢ Cᵢ` fold;
//! * [`validate`] — a full feasibility audit run on every algorithm
//!   output in tests and the harness;
//! * [`list_schedule`] / [`try_list_schedule`] — the Graham-style
//!   event-driven list engine behind every placement (baselines, DEMT's
//!   compaction, the dual's shelves, the on-line batches), running on a
//!   leftmost-fit tree and a [`FreeSet`] of free processor intervals;
//!   [`list_completions`] runs the same loop on a bare free count and
//!   returns only completion times (how DEMT scores a list order);
//! * [`pull_earlier`] — the "slide left on idle processors" compaction
//!   pass;
//! * [`render_gantt`] — ASCII Gantt charts for the examples.

#![warn(missing_docs)]

mod compact;
mod criteria;
#[cfg(test)]
mod difftests;
mod gantt;
mod list;
mod schedule;
mod validate;

pub use compact::pull_earlier;
pub use criteria::{weighted_completion, Criteria};
pub use gantt::{render_gantt, MAX_GANTT_WIDTH};
pub use list::{
    bench_grid, list_completions, list_schedule, try_list_schedule, FreeSet, ListError, ListTask,
};
pub use schedule::{Placement, Schedule};
pub use validate::{validate, validate_no_overlap, validate_with_releases, ValidationError};
