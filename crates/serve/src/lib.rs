//! # demt-serve — the event-driven scheduling daemon
//!
//! The paper's Fig. 1 pictures the scheduler as a *resident service*
//! behind the cluster front-end: jobs arrive one by one, the scheduler
//! re-plans, placements flow back. This crate is that service around
//! the workspace's incremental Shmoys–Wein–Williamson core
//! ([`demt_online::BatchLoop`]): newline-delimited JSON job events in
//! (stdin, a Unix socket, or an SWF replay), one JSON placement line
//! out per decision, rolling stats (throughput, decision-latency
//! histogram, utilization) on the side.
//!
//! Layering of one event's life:
//!
//! ```text
//!  stdin / socket / trace      crates/serve/src/event.rs  (EventReader)
//!        │  JobEvent
//!        ▼
//!  cohort admission + lift     demt-online::Admission, driven by
//!        │  MoldableTask                run_events (daemon.rs); cohorts
//!        │                              lifted on demt-exec's pool
//!        ▼
//!  incremental re-planning     demt-online::BatchLoop (pending set
//!        │  PlannedBatch               + per-batch dual cache)
//!        ▼
//!  JSON placement line         stdout / socket   (stats → stderr/file)
//! ```
//!
//! **Memory.** The loop hands each batch out by value and keeps no
//! history; the daemon writes the batch and drops it. Resident memory
//! is the pending jobs plus one batch in flight, flat over any number
//! of decisions. Only `--oracle` ([`ServeConfig::oracle`]) holds O(n)
//! state for its end-of-stream check.
//!
//! **Determinism.** Replaying an event log produces placements
//! byte-identical to [`demt_online::try_online_batch_schedule`] on the
//! equivalent batch feed, for any `--workers` count. The daemon admits
//! events with the same [`demt_online::Admission`] rule as
//! [`demt_online::stream_batch_schedule`], so the two cannot drift
//! apart. The contract is checked in-process
//! by `--oracle`, by this crate's differential proptests, and by the CI
//! smoke job (`cmp` of two independent runs). Wall-clock readings are
//! confined to [`stats`]; they feed the stats stream only, never a
//! scheduling decision.

#![warn(missing_docs)]

mod cli;
mod daemon;
mod event;
pub mod stats;

pub use cli::serve_cli;
pub use daemon::{greedy_scheduler, resolve_scheduler, run_events, ServeConfig, ServeSummary};
pub use event::{grid_events, EventReader, JobEvent, ServeError};
pub use stats::{ServeStats, StatsSnapshot};
