//! # demt-core — the DEMT bi-criteria batch scheduler
//!
//! The paper's contribution (§3): a fast algorithm optimizing the
//! makespan and the weighted sum of completion times *simultaneously*
//! for moldable tasks on a homogeneous cluster.
//!
//! Pipeline (all steps from the §3.2 pseudo-code):
//!
//! 1. **Horizon** — a dual-approximation run (`demt-dual`) estimates the
//!    optimal makespan `C*max`;
//! 2. **Geometry** — batch boundaries `t_j = C*max / 2^(K-j)`,
//!    `K = ⌊log₂(C*max / tmin)⌋`: doubling batches so small tasks get
//!    early slots (the minsum intuition of §3.1);
//! 3. **Selection** — per batch: tasks fitting the batch length are
//!    (optionally) merged into single-processor chains by decreasing
//!    weight, then a max-weight knapsack (`O(mn)`) picks the content
//!    under the `m`-processor budget;
//! 4. **Compaction** — pull-earlier, then the Graham list engine with
//!    the batch ordering, then several batch-order shuffles; the best
//!    `(Σ wᵢ Cᵢ, Cmax)` schedule wins.
//!
//! The overall complexity is `O(mnK)` as the paper states (plus the
//! compaction's `O(n² )` worst-case list scans, negligible in practice).
//!
//! ```
//! use demt_core::{demt_schedule, DemtConfig};
//! use demt_workload::{generate, WorkloadKind};
//! let inst = generate(WorkloadKind::Cirne, 30, 16, 7);
//! let result = demt_schedule(&inst, &DemtConfig::default());
//! demt_platform::validate(&inst, &result.schedule).unwrap();
//! assert!(result.criteria.makespan >= result.cmax_lower_bound);
//! ```

#![warn(missing_docs)]

mod algorithm;
mod batches;
mod config;
mod scheduler;

pub use algorithm::{demt_schedule, demt_schedule_with_dual, DemtResult};
pub use batches::{build_batches, Batch, BatchEntry, BatchPlan};
pub use config::{Compaction, DemtConfig};
pub use scheduler::DemtScheduler;
