//! # demt-bounds — lower bounds on the minsum criterion
//!
//! Implements the paper's §3.3 lower bound: a relaxation of an
//! interval-indexed linear program whose constraints are satisfied by
//! every feasible schedule, so its optimum under-estimates the optimal
//! `Σ wᵢ Cᵢ`. The time horizon is cut at the geometric points
//! `t_j = C*max / 2^(K-j)` of §3.2; `x_{i,j} ∈ [0,1]` says task `i` ends
//! within interval `j`, costing `wᵢ·(interval floor)`, and prefix
//! *surface* constraints cap the minimal areas of everything finishing
//! by each boundary at the machine capacity.
//!
//! The prefix caps are nested — an interval-`ℓ` variable counts against
//! every cap from `ℓ` on — so they are stated telescoped: one
//! cumulative slack `s_ℓ` per bounded interval carries the room left
//! under cap `ℓ` into row `ℓ+1`, and each variable sits in one surface
//! row ([`MinsumLp`] has the row layout). The program is the nested one
//! after row operations, so the solver takes the same pivots on it.
//!
//! ## Soundness fixes over the paper's sketch
//!
//! The printed formulation leaves two small gaps that would break the
//! lower-bound property; both are closed here (see DESIGN.md):
//!
//! * tasks may complete **before `t_0`** — we prepend the interval
//!   `(0, t_0]` with cost floor 0 (the paper's first interval would
//!   charge `wᵢ t_0`, an over-estimate);
//! * an optimal-minsum schedule may stretch **beyond `t_{K+1}`** — the
//!   last interval is treated as `(t_K, ∞)` and excluded from surface
//!   constraints, so every schedule maps to a feasible LP point.
//!
//! Both changes only *weaken* the bound, preserving soundness.
//!
//! The returned bound is `max(LP optimum, Σᵢ wᵢ·min_k pᵢ(k))` — the
//! second term is the trivial per-task bound, which also covers the
//! degenerate single-interval cases.
//!
//! ## Solver usage
//!
//! Every solve is warm-started. The single-horizon bound seeds the
//! revised simplex with the **greedy structural basis**
//! ([`MinsumLp::greedy_basis`]: earliest-fitting interval per task
//! under the prefix caps), which skips phase 1 outright and lands
//! within a few dozen pivots of the optimum; the horizon sweeps
//! additionally chain each solve from the neighbouring horizon's
//! optimal basis in fixed-size, worker-count-independent chunks, so
//! `--workers 1` and `--workers N` produce byte-identical results.
//! [`MinsumLp::seed_basis`] is the simpler guaranteed-feasible vertex
//! (every task in its unbounded last interval), kept as the fallback
//! reference the tests pin the greedy seed against.

#![warn(missing_docs)]

use demt_dual::{dual_approx, DualConfig};
use demt_lp::{Basis, LinearProgram, Relation};
use demt_model::{Instance, MoldableTask};

/// Horizons per warm-start chain in the sweep APIs. Chunks are cut at
/// this fixed size — *independent of the worker count* — so the warm
/// chains, and therefore every float in the output, are identical
/// whether the sweep runs sequentially or on any pool size.
const WARM_CHUNK: usize = 8;

/// Hard cap on the number of doubling intervals (the paper's `K` is
/// `⌊log₂(C*max/tmin)⌋`; extreme `tmin` values would explode the LP
/// otherwise). 24 covers a 10⁷ dynamic range.
const MAX_INTERVALS: usize = 24;

/// Configuration of the minsum bound.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BoundConfig {
    /// Bisection tolerance forwarded to the dual approximation that
    /// provides the horizon estimate `C*max`.
    pub dual: DualConfig,
}

/// Result of the minsum lower bound.
#[derive(Debug, Clone, PartialEq)]
pub struct MinsumBound {
    /// The certified lower bound on `Σ wᵢ Cᵢ`.
    pub value: f64,
    /// The LP optimum before taking the max with the trivial bound.
    pub lp_value: f64,
    /// Σᵢ wᵢ·min_k pᵢ(k), the trivial per-task bound.
    pub trivial_value: f64,
    /// Interval boundaries `τ_0 = 0 < τ_1 = t_0 < … < τ_{K+2} = t_{K+1}`.
    pub boundaries: Vec<f64>,
    /// Simplex iterations spent.
    pub lp_iterations: usize,
    /// Basis refactorizations performed by the solver.
    pub lp_refactorizations: usize,
    /// Whether the LP accepted a warm-start basis (the structural seed
    /// or, in sweeps, the neighbouring horizon's optimum).
    pub lp_warm_started: bool,
}

/// Builds the interval boundaries: `0, t_0, …, t_{K+1}` with
/// `t_j = cmax / 2^(K-j)` and `K = ⌊log₂(cmax/tmin)⌋`, clamped to 24.
pub fn interval_boundaries(cmax: f64, tmin: f64) -> Vec<f64> {
    // demt-lint: allow(P1, callers pass a dual estimate and the tmin of a non-empty instance, both positive)
    assert!(
        cmax > 0.0 && tmin > 0.0,
        "horizon and tmin must be positive"
    );
    let k = if cmax <= tmin {
        0
    } else {
        ((cmax / tmin).log2().floor() as usize).min(MAX_INTERVALS)
    };
    let mut b = Vec::with_capacity(k + 3);
    b.push(0.0);
    for j in 0..=(k + 1) {
        b.push(cmax / (1u64 << (k - j.min(k))) as f64 * if j > k { 2.0 } else { 1.0 });
    }
    b
}

/// Computes the §3.3 lower bound on `Σ wᵢ Cᵢ`.
///
/// Runs the dual approximation for the horizon, assembles the
/// interval-indexed LP and solves its continuous relaxation with the
/// `demt-lp` simplex.
///
/// ```
/// use demt_bounds::{minsum_lower_bound, BoundConfig};
/// let inst = demt_workload::generate(demt_workload::WorkloadKind::Cirne, 15, 8, 2);
/// let b = minsum_lower_bound(&inst, &BoundConfig::default());
/// assert!(b.value >= b.trivial_value);     // the max never loses to either term
/// assert!(b.value >= b.lp_value);
/// assert!(b.boundaries[0] == 0.0);         // leading zero-cost interval
/// ```
pub fn minsum_lower_bound(inst: &Instance, cfg: &BoundConfig) -> MinsumBound {
    // demt-lint: allow(P1, documented precondition: a non-empty instance; `demt bound` rejects an empty one with exit 2 before calling)
    assert!(!inst.is_empty(), "bound of an empty instance");
    let dual = dual_approx(inst, &cfg.dual);
    minsum_lower_bound_with_horizon(inst, dual.cmax_estimate, cfg)
}

/// Same as [`minsum_lower_bound`] but with the horizon estimate
/// supplied by the caller (the harness reuses one dual-approximation run
/// across algorithms). No dual runs here, so the config is unused; the
/// parameter keeps the signature of [`minsum_lower_bound`].
pub fn minsum_lower_bound_with_horizon(
    inst: &Instance,
    cmax_estimate: f64,
    _cfg: &BoundConfig,
) -> MinsumBound {
    let ml = assemble_minsum_lp(inst, cmax_estimate);
    solve_assembled(inst, ml, None).0
}

/// The assembled §3.3 interval-indexed LP for one horizon, plus the
/// variable layout needed to craft warm-start bases against it.
///
/// Column layout: the interval variables `x_{i,ℓ}` (see
/// [`MinsumLp::owner`]), then one cumulative slack `s_ℓ ≥ 0` per
/// bounded interval `ℓ = 0..K` (cost 0), then the solver's surplus
/// column of each coverage row.
///
/// Row layout: one coverage row (`Σ_ℓ x_{i,ℓ} ≥ 1`) per task, in task
/// order, followed by one surface row per bounded interval. The prefix
/// cap `Σ_{l≤ℓ} Σ_i S_{i,l}·x_{i,l} ≤ m·τ_{ℓ+1}` is stated telescoped:
/// row `ℓ` is `Σ_i S_{i,ℓ}·x_{i,ℓ} + s_ℓ − s_{ℓ−1} = m·τ_{ℓ+1} − m·τ_ℓ`,
/// the nested row `ℓ` minus row `ℓ−1`, so `s_ℓ` is the room left under
/// cap `ℓ`. Every `x` has two entries (one for the last interval) and
/// every `s` at most two, where the nested rows put an interval-`ℓ`
/// variable in every cap from `ℓ` on. The row operations leave `B⁻¹A`
/// and `B⁻¹b` as they were, so the simplex takes the same pivots; and
/// the right-hand sides are exact, because `τ_{ℓ+1} = 2·τ_ℓ`.
///
/// The structural seeds exploit the layout: assigning every task one
/// interval and making every `s_ℓ` basic is always a vertex basis (each
/// `x` column holds the single coverage-row entry of its task, and the
/// `s` columns are unit lower bidiagonal on the surface rows), so a
/// "cold" horizon solve skips phase 1 entirely —
/// [`MinsumLp::greedy_basis`] picks near-optimal intervals,
/// [`MinsumLp::seed_basis`] the trivially feasible last interval.
#[derive(Debug, Clone)]
pub struct MinsumLp {
    /// The relaxation itself.
    pub lp: LinearProgram,
    /// Interval boundaries `0, t_0, …, t_{K+1}`.
    pub boundaries: Vec<f64>,
    /// Interval variable → `(task, interval)`; its length is the column
    /// of `s_0`.
    pub owner: Vec<(usize, usize)>,
    /// Per task, the column of its unbounded last-interval variable.
    last_var_of_task: Vec<usize>,
    /// `(task, interval)` → variable (`usize::MAX` when absent).
    var_of: Vec<Vec<usize>>,
    /// Per variable, its surface coefficient `S_{i,ℓ}`.
    surfaces: Vec<f64>,
    /// Per bounded interval `ℓ`, the cumulative cap `m·τ_{ℓ+1}`.
    caps: Vec<f64>,
    /// Per task, its weight (for the greedy seed's Smith ratio).
    weights: Vec<f64>,
}

impl MinsumLp {
    /// The columns of the cumulative slacks `s_0, …, s_{K−1}`.
    fn slack_columns(&self) -> std::ops::Range<usize> {
        self.owner.len()..self.owner.len() + self.caps.len()
    }

    /// The structural warm-start basis of the all-last-interval vertex
    /// — the simplest guaranteed-feasible seed (phase 1 never runs).
    /// The solve path prefers [`MinsumLp::greedy_basis`], which is
    /// equally feasible-by-construction but lands far closer to the
    /// optimum; this one is the reference the tests pin it against.
    pub fn seed_basis(&self) -> Basis {
        let mut cols = self.last_var_of_task.clone();
        cols.extend(self.slack_columns());
        Basis::new(cols)
    }

    /// A greedy warm-start basis: assigns each task the earliest
    /// interval that still fits under the prefix surface caps, filling
    /// each interval by descending Smith ratio `wᵢ / S_{i,ℓ}` (heavy,
    /// small tasks first). Feasible by construction — every prefix cap
    /// is respected as it fills — and usually within a few dozen pivots
    /// of the LP optimum, against several hundred from the
    /// all-last-interval vertex of [`MinsumLp::seed_basis`].
    pub fn greedy_basis(&self) -> Basis {
        let mut cols = self.greedy_assignment();
        cols.extend(self.slack_columns());
        Basis::new(cols)
    }

    /// The interval variable [`MinsumLp::greedy_basis`] makes basic for
    /// each task.
    fn greedy_assignment(&self) -> Vec<usize> {
        let n = self.last_var_of_task.len();
        let mut assigned: Vec<usize> = self.last_var_of_task.clone();
        let mut placed = vec![false; n];
        let mut used = 0.0f64;
        let mut cand: Vec<(f64, usize)> = Vec::new();
        for (l, &cap) in self.caps.iter().enumerate() {
            cand.clear();
            cand.extend((0..n).filter_map(|i| {
                let v = self.var_of[i][l];
                (!placed[i] && v != usize::MAX).then(|| (self.weights[i] / self.surfaces[v], i))
            }));
            // Descending w/S; ties by task index, so the order is total.
            cand.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
            for &(_, i) in &cand {
                let v = self.var_of[i][l];
                if used + self.surfaces[v] <= cap {
                    used += self.surfaces[v];
                    assigned[i] = v;
                    placed[i] = true;
                }
            }
        }
        assigned
    }
}

/// Assembles the interval-indexed LP relaxation for one horizon.
pub fn assemble_minsum_lp(inst: &Instance, cmax_estimate: f64) -> MinsumLp {
    let n = inst.len();
    let m = inst.procs() as f64;
    let tmin = inst.min_min_time();
    let boundaries = interval_boundaries(cmax_estimate, tmin);
    // Intervals ℓ = 0 .. boundaries.len()-2; interval ℓ = (τ_ℓ, τ_{ℓ+1}],
    // the last one treated as (τ_last-1, ∞).
    let n_intervals = boundaries.len() - 1;
    let last = n_intervals - 1;

    // Variable registry: x_{i,ℓ} exists iff the task can finish in the
    // interval, i.e. S_i(τ_{ℓ+1}) is finite (always true for the last).
    let mut var_of = vec![vec![usize::MAX; n_intervals]; n];
    let mut objective: Vec<f64> = Vec::new();
    let mut surfaces: Vec<f64> = Vec::new(); // per variable, S_{i,ℓ}
    let mut owner: Vec<(usize, usize)> = Vec::new(); // var → (task, interval)
    let mut last_var_of_task = vec![usize::MAX; n];
    let deadlines = &boundaries[1..n_intervals];
    let mut surf = vec![f64::INFINITY; last];
    for (i, t) in inst.tasks().iter().enumerate() {
        let first = task_surfaces(t, deadlines, &mut surf);
        for l in 0..n_intervals {
            let surface = if l == last {
                // The unbounded interval meets every allotment.
                Some(t.min_work())
            } else {
                (l >= first).then_some(surf[l])
            };
            if let Some(s) = surface {
                var_of[i][l] = objective.len();
                if l == last {
                    last_var_of_task[i] = objective.len();
                }
                objective.push(t.weight() * boundaries[l]);
                surfaces.push(s);
                owner.push((i, l));
            }
        }
    }

    // The cumulative slacks s_ℓ follow the interval variables.
    let n_x = objective.len();
    objective.resize(n_x + last, 0.0);
    let mut lp = LinearProgram::minimize(objective);
    // Coverage: every task finishes somewhere.
    for vars in var_of.iter().take(n) {
        let coeffs: Vec<(usize, f64)> = vars
            .iter()
            .filter(|&&v| v != usize::MAX)
            .map(|&v| (v, 1.0))
            .collect();
        debug_assert!(
            !coeffs.is_empty(),
            "the unbounded last interval always fits"
        );
        lp.constrain(coeffs, Relation::Ge, 1.0);
    }
    // Telescoped surface rows for the bounded intervals ℓ = 0..last-1:
    // Σ_i S_{i,ℓ} x_{i,ℓ} + s_ℓ − s_{ℓ−1} = m τ_{ℓ+1} − m τ_ℓ, built in
    // one pass over the variables.
    let caps: Vec<f64> = boundaries[1..=last].iter().map(|&t| m * t).collect();
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); last];
    for (v, &(_, l)) in owner.iter().enumerate() {
        if l < last {
            rows[l].push((v, surfaces[v]));
        }
    }
    for (l, mut coeffs) in rows.into_iter().enumerate() {
        coeffs.push((n_x + l, 1.0));
        let mut rhs = caps[l];
        if l > 0 {
            coeffs.push((n_x + l - 1, -1.0));
            rhs -= caps[l - 1];
        }
        lp.constrain(coeffs, Relation::Eq, rhs);
    }
    MinsumLp {
        lp,
        boundaries,
        owner,
        last_var_of_task,
        var_of,
        surfaces,
        caps,
        weights: inst.tasks().iter().map(|t| t.weight()).collect(),
    }
}

/// Every bounded surface coefficient of a task, one
/// [`MoldableTask::min_area_within`] query per deadline: `O(1)` each on
/// a rigid task, a binary search on an exactly monotone one, a scan on
/// any other vector. On return `surf[ℓ]` equals
/// `min_area_within(deadlines[ℓ])` for every `ℓ ≥ first`, the returned
/// index, and no allotment meets `deadlines[ℓ]` for `ℓ < first`. The
/// deadlines go from the last down and stop at the first that no
/// allotment meets: `deadlines` is ascending and `approx_le(p, ·)` is
/// monotone in the deadline, so none before it fits either.
fn task_surfaces(task: &MoldableTask, deadlines: &[f64], surf: &mut [f64]) -> usize {
    let mut first = deadlines.len();
    for (l, &d) in deadlines.iter().enumerate().rev() {
        let Some(area) = task.min_area_within(d) else {
            break;
        };
        surf[l] = area;
        first = l;
    }
    first
}

/// What a basis column *meant* in its originating horizon LP, so it can
/// be re-identified in a neighbour's LP whose raw column indices have
/// shifted (the variable registry grows/shrinks as boundaries move).
struct SeedMap {
    owner: Vec<(usize, usize)>,
    n_vars: usize,
    n_rows: usize,
}

impl SeedMap {
    fn of(ml: &MinsumLp) -> Self {
        Self {
            owner: ml.owner.clone(),
            n_vars: ml.lp.num_vars(),
            n_rows: ml.lp.num_constraints(),
        }
    }
}

/// Translates a neighbouring horizon's optimal basis into this LP's
/// column indices: interval variables by `(task, interval)` identity,
/// cumulative slacks by interval, coverage surpluses by task. `None`
/// when the grids are incompatible (row count changed, or a basic
/// variable has no counterpart here) — the chain then restarts from the
/// structural seed instead of paying for a cold two-phase solve.
fn remap_seed(basis: &Basis, prev: &SeedMap, ml: &MinsumLp) -> Option<Basis> {
    if prev.n_rows != ml.lp.num_constraints() || !basis.is_complete() {
        return None;
    }
    let n_intervals = ml.boundaries.len() - 1;
    let slack0 = ml.slack_columns().start;
    let mut cols = Vec::with_capacity(basis.len());
    for &c in basis.columns() {
        if c < prev.owner.len() {
            let (i, l) = prev.owner[c];
            if l >= n_intervals {
                return None;
            }
            let v = ml.var_of[i][l];
            if v == usize::MAX {
                return None;
            }
            cols.push(v);
        } else if c < prev.n_vars {
            // Equal row counts mean equally many bounded intervals.
            cols.push(slack0 + (c - prev.owner.len()));
        } else {
            // Coverage rows come first, so task i's surplus is column
            // `num_vars + i`.
            cols.push(ml.lp.num_vars() + (c - prev.n_vars));
        }
    }
    Some(Basis::new(cols))
}

/// Solves an assembled horizon LP, seeded by `seed` when given, and
/// returns the bound plus the optimal basis for the next horizon in a
/// warm-start chain. A missing seed, or one whose dual-simplex repair
/// fails, gives way to the structural basis, never to a cold two-phase
/// start.
fn solve_assembled(inst: &Instance, ml: MinsumLp, seed: Option<&Basis>) -> (MinsumBound, Basis) {
    let (sol, basis) = seed
        .and_then(|b| ml.lp.try_solve_from(b).transpose())
        .unwrap_or_else(|| ml.lp.solve_from(&ml.greedy_basis()))
        // demt-lint: allow(P1, seed_basis/greedy_basis build feasible vertices by construction)
        .expect("a structural seed basis is always feasible");
    let trivial: f64 = inst.tasks().iter().map(|t| t.weight() * t.min_time()).sum();
    (
        MinsumBound {
            value: sol.objective.max(trivial),
            lp_value: sol.objective,
            trivial_value: trivial,
            boundaries: ml.boundaries,
            lp_iterations: sol.iterations,
            lp_refactorizations: sol.refactorizations,
            lp_warm_started: sol.warm_started,
        },
        basis,
    )
}

/// Evaluates one warm-start chain: consecutive horizons seed each other
/// with the previous optimal basis, falling back to the structural seed
/// when the interval grid changed shape or the dual-simplex repair of
/// the remapped basis fails.
fn sweep_chunk(inst: &Instance, horizons: &[f64]) -> Vec<MinsumBound> {
    let mut prev: Option<(Basis, SeedMap)> = None;
    horizons
        .iter()
        .map(|&h| {
            let ml = assemble_minsum_lp(inst, h);
            let seed = prev.take().and_then(|(b, map)| remap_seed(&b, &map, &ml));
            let map = SeedMap::of(&ml);
            let (bound, basis) = solve_assembled(inst, ml, seed.as_ref());
            prev = Some((basis, map));
            bound
        })
        .collect()
}

/// Evaluates the minsum bound at every horizon in `horizons`,
/// **warm-starting** each solve from its left neighbour, on a
/// `demt-exec` pool.
///
/// The horizon estimate `C*max` steers where the doubling intervals
/// fall, and a shifted horizon sometimes tightens the LP optimum; this
/// sweep is the sensitivity probe behind `demt bound --sweep`. Horizons
/// are processed in fixed-size chains of `WARM_CHUNK`, one chain per
/// pool cell: the first solve of a chain starts from the greedy
/// structural basis ([`MinsumLp::greedy_basis`]), every later one from
/// the previous optimal basis (repaired by the solver's dual-simplex
/// phase when the shifted right-hand sides left it infeasible, or
/// replaced by the structural seed when the interval grid changed
/// shape or that repair fails). The chains are cut regardless of pool size and the reduction
/// is index-ordered, so the result is **byte-identical** for any worker
/// count; `Pool::new(1)` is the sequential path.
pub fn minsum_bounds_for_horizons_on(
    pool: &demt_exec::Pool,
    inst: &Instance,
    horizons: &[f64],
) -> Vec<MinsumBound> {
    let chunks: Vec<&[f64]> = horizons.chunks(WARM_CHUNK).collect();
    pool.par_map(&chunks, |_, chunk| sweep_chunk(inst, chunk))
        .into_iter()
        .flatten()
        .collect()
}

/// Weighted squashed-area lower bound on `Σ wᵢCᵢ` — combinatorial,
/// independent of the LP.
///
/// In any schedule, list tasks by completion order; the `j`-th to
/// finish satisfies `C_(j) ≥ (Σ of the j smallest minimal works) / m`
/// (all that work must fit the machine area before it, and taking the
/// `j` smallest works only weakens the right side). The weighted sum is
/// therefore at least the minimum over all pairings of weights to these
/// prefix bounds which, by the rearrangement inequality, pairs the
/// *largest* weights with the *smallest* prefixes. Each task also obeys
/// `Cᵢ ≥ min_k pᵢ(k)`, handled by the caller's `max` with the trivial
/// bound.
pub fn squashed_minsum_bound(inst: &Instance) -> f64 {
    let m = inst.procs() as f64;
    let mut works: Vec<f64> = inst.tasks().iter().map(|t| t.min_work()).collect();
    works.sort_by(|a, b| a.total_cmp(b));
    let mut weights: Vec<f64> = inst.tasks().iter().map(|t| t.weight()).collect();
    weights.sort_by(|a, b| b.total_cmp(a));
    let mut prefix = 0.0;
    let mut bound = 0.0;
    for (w, work) in weights.iter().zip(&works) {
        prefix += work;
        bound += w * prefix / m;
    }
    bound
}

/// Bundle of both criteria bounds for one instance, as used by the
/// experiment harness (§4.1: ratios are computed against these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceBounds {
    /// Lower bound on the optimal makespan (dual approximation).
    pub cmax: f64,
    /// Lower bound on the optimal weighted minsum (LP relaxation).
    pub minsum: f64,
}

/// Computes both lower bounds, sharing one dual-approximation run.
/// The minsum side is the max of the LP relaxation, the trivial
/// per-task bound and the combinatorial squashed-area bound.
pub fn instance_bounds(inst: &Instance, cfg: &BoundConfig) -> InstanceBounds {
    instance_bounds_detailed(inst, cfg).0
}

/// Like [`instance_bounds`], but also returns the [`MinsumBound`]
/// backing the minsum side, so callers (e.g. `demt bound`) can report
/// the LP's phase cost — iterations, refactorizations, warm-start
/// status — alongside the bound values.
pub fn instance_bounds_detailed(
    inst: &Instance,
    cfg: &BoundConfig,
) -> (InstanceBounds, MinsumBound) {
    let dual = dual_approx(inst, &cfg.dual);
    let minsum = minsum_lower_bound_with_horizon(inst, dual.cmax_estimate, cfg);
    let bounds = InstanceBounds {
        // The dual result's own lower bound is the certified one.
        cmax: dual.lower_bound,
        minsum: minsum.value.max(squashed_minsum_bound(inst)),
    };
    (bounds, minsum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use demt_exec::Pool;
    use demt_model::{approx_le, InstanceBuilder, TaskId, REL_EPS};
    use demt_platform::{list_schedule, Criteria, ListTask};
    use demt_workload::{generate, WorkloadKind};
    use proptest::prelude::*;

    /// Per task and interval, the bits of `S_{i,ℓ}` when `x_{i,ℓ}` exists,
    /// as the assembled LP records them.
    fn assembled_surfaces(ml: &MinsumLp) -> Vec<Vec<Option<u64>>> {
        ml.var_of
            .iter()
            .map(|vars| {
                vars.iter()
                    .map(|&v| (v != usize::MAX).then(|| ml.surfaces[v].to_bits()))
                    .collect()
            })
            .collect()
    }

    /// `S_i(t)` by scanning the whole vector: the least area `k·p(k)`
    /// over the allotments meeting `t`.
    fn scanned_min_area(t: &MoldableTask, deadline: f64) -> Option<f64> {
        t.times()
            .iter()
            .enumerate()
            .filter(|&(_, &p)| approx_le(p, deadline))
            .map(|(i, &p)| (i + 1) as f64 * p)
            .reduce(f64::min)
    }

    /// The same table from one scan per bounded interval and the
    /// scanned least work for the unbounded last one.
    fn scanned_surfaces(inst: &Instance, boundaries: &[f64]) -> Vec<Vec<Option<u64>>> {
        let last = boundaries.len() - 2;
        inst.tasks()
            .iter()
            .map(|t| {
                (0..=last)
                    .map(|l| {
                        let s = if l == last {
                            scanned_min_area(t, f64::INFINITY)
                        } else {
                            scanned_min_area(t, boundaries[l + 1])
                        };
                        s.map(f64::to_bits)
                    })
                    .collect()
            })
            .collect()
    }

    /// The assembled surfaces, read off the task queries, against the
    /// scans.
    fn assert_surfaces_match_scans(inst: &Instance, cmax: f64) {
        let ml = assemble_minsum_lp(inst, cmax);
        assert_eq!(
            assembled_surfaces(&ml),
            scanned_surfaces(inst, &ml.boundaries),
            "horizon {cmax}, boundaries {:?}",
            ml.boundaries
        );
    }

    #[test]
    fn surfaces_match_per_interval_scans_on_every_family() {
        for kind in WorkloadKind::ALL {
            for (n, m) in [(25, 200), (60, 16), (12, 3)] {
                let inst = generate(kind, n, m, 5);
                assert!(inst.tasks().iter().all(MoldableTask::is_exactly_monotone));
                let cmax = dual_approx(&inst, &DualConfig::default()).cmax_estimate;
                for scale in [0.5, 1.0, 1.7, 4.0] {
                    assert_surfaces_match_scans(&inst, cmax * scale);
                }
            }
        }
    }

    /// Five rigid tasks of widths 1 to 12 on 12 processors, and the
    /// horizons the tests probe it at.
    fn rigid_instance() -> (Instance, [f64; 5]) {
        let m = 12;
        let mut b = InstanceBuilder::new(m);
        for (i, &(width, time)) in [(1, 3.0), (4, 0.75), (12, 5.0), (7, 1.5), (2, 0.25)]
            .iter()
            .enumerate()
        {
            let id = b.next_id();
            b.push_task(MoldableTask::rigid(id, 1.0 + i as f64, width, time, m).unwrap())
                .unwrap();
        }
        (b.build().unwrap(), [0.3, 1.0, 5.0, 6.0, 40.0])
    }

    #[test]
    fn surfaces_match_per_interval_scans_on_rigid_tasks() {
        // Rigid tasks answer in closed form at every width.
        let (inst, horizons) = rigid_instance();
        for cmax in horizons {
            assert_surfaces_match_scans(&inst, cmax);
        }
    }

    /// The nested program the telescoped rows replaced, with the greedy
    /// seed in its layout: the same interval variables and coverage
    /// rows, then prefix row `ℓ` as `Σ_{l≤ℓ} Σ_i S_{i,l}·x_{i,l} ≤
    /// m·τ_{ℓ+1}`, whose solver slack stands where `s_ℓ` stands now.
    fn nested(ml: &MinsumLp) -> (LinearProgram, Basis) {
        let (n, n_x) = (ml.last_var_of_task.len(), ml.owner.len());
        let mut lp = LinearProgram::minimize(ml.lp.objective()[..n_x].to_vec());
        for c in &ml.lp.constraints()[..n] {
            lp.constrain(c.coeffs.clone(), c.relation, c.rhs);
        }
        for (l_cap, &cap) in ml.caps.iter().enumerate() {
            let coeffs = (0..n_x)
                .filter(|&v| ml.owner[v].1 <= l_cap)
                .map(|v| (v, ml.surfaces[v]))
                .collect();
            lp.constrain(coeffs, Relation::Le, cap);
        }
        let mut cols = ml.greedy_assignment();
        cols.extend((0..ml.caps.len()).map(|l| n_x + n + l));
        (lp, Basis::new(cols))
    }

    /// The point of the greedy basis: its interval variables at 1 and
    /// each `s_ℓ` at the room left under cap `ℓ`.
    fn greedy_point(ml: &MinsumLp) -> Vec<f64> {
        let mut x = vec![0.0; ml.lp.num_vars()];
        let mut used = vec![0.0; ml.caps.len()];
        for v in ml.greedy_assignment() {
            x[v] = 1.0;
            if let Some(u) = used.get_mut(ml.owner[v].1) {
                *u += ml.surfaces[v];
            }
        }
        let mut cumulative = 0.0;
        for (l, s) in ml.slack_columns().enumerate() {
            cumulative += used[l];
            x[s] = ml.caps[l] - cumulative;
        }
        x
    }

    #[test]
    fn telescoped_rows_take_the_nested_pivot_path() {
        let mut cases: Vec<(String, Instance, f64)> = Vec::new();
        for kind in WorkloadKind::ALL {
            for n in [25, 100, 400] {
                let inst = generate(kind, n, 200, 3);
                let cmax = dual_approx(&inst, &DualConfig::default()).cmax_estimate;
                cases.push((format!("{kind} n={n}"), inst, cmax));
            }
        }
        let (rigid, horizons) = rigid_instance();
        for cmax in horizons {
            cases.push((format!("rigid cmax={cmax}"), rigid.clone(), cmax));
        }
        for (what, inst, cmax) in &cases {
            let ml = assemble_minsum_lp(inst, *cmax);
            let scale = ml.caps.last().copied().unwrap_or(1.0).max(1.0);
            assert!(
                ml.lp.is_feasible(&greedy_point(&ml), 1e-9 * scale),
                "{what}: the greedy point is infeasible"
            );
            let (tele, _) = ml.lp.solve_from(&ml.greedy_basis()).expect("feasible");
            let (lp, seed) = nested(&ml);
            let (nest, _) = lp.solve_from(&seed).expect("feasible");
            assert!(tele.warm_started && nest.warm_started, "{what}");
            assert_eq!(
                (tele.iterations, tele.refactorizations),
                (nest.iterations, nest.refactorizations),
                "{what}: iterations and refactorizations"
            );
            let rel = (tele.objective - nest.objective).abs() / nest.objective.abs().max(1e-300);
            assert!(
                rel <= 1e-12,
                "{what}: telescoped {} vs nested {}",
                tele.objective,
                nest.objective
            );
        }
    }

    /// A processing time: uniform over three decades, or a boundary
    /// `cmax/2^j` (`j ≤ 6`, or `2·cmax`) moved by a few `REL_EPS`, where
    /// `approx_le` flips.
    fn arb_time(cmax: f64) -> impl Strategy<Value = f64> {
        (0usize..3, 0.01f64..10.0, 0usize..8, -3i32..=3).prop_map(
            move |(pick, uniform, j, shift)| {
                if pick == 0 {
                    uniform * cmax
                } else {
                    let boundary = if j == 7 {
                        2.0 * cmax
                    } else {
                        cmax / (1u32 << j) as f64
                    };
                    boundary * (1.0 + f64::from(shift) * 0.5 * REL_EPS)
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn surfaces_match_per_interval_scans_on_arbitrary_vectors(
            (cmax, tasks) in (1usize..=9, 0.05f64..50.0).prop_flat_map(|(m, cmax)| {
                let task = (0.1f64..5.0, prop::collection::vec(arb_time(cmax), m..=m));
                (Just(cmax), prop::collection::vec(task, 1..=6))
            }),
        ) {
            // The raw vectors mostly scan; their monotonized twins take
            // the binary searches.
            let m = tasks[0].1.len();
            let mut b = InstanceBuilder::new(m);
            for (w, times) in tasks {
                let t = MoldableTask::new(TaskId(0), w, times).unwrap();
                b.push_times(w, t.times().to_vec()).unwrap();
                b.push_times(w, t.monotonized().times().to_vec()).unwrap();
            }
            assert_surfaces_match_scans(&b.build().unwrap(), cmax);
        }
    }

    #[test]
    fn boundaries_are_doubling_and_anchored() {
        let b = interval_boundaries(16.0, 1.0);
        // K = 4: 0, 1, 2, 4, 8, 16, 32.
        assert_eq!(b, vec![0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]);
        let b = interval_boundaries(10.0, 3.0);
        // K = 1: 0, 5, 10, 20.
        assert_eq!(b, vec![0.0, 5.0, 10.0, 20.0]);
    }

    #[test]
    fn boundaries_respect_interval_cap() {
        let b = interval_boundaries(1e9, 1e-9);
        assert_eq!(b.len(), MAX_INTERVALS + 3);
    }

    #[test]
    fn gang_optimum_on_linear_tasks_respects_bound() {
        // Perfectly moldable tasks: optimal minsum = gang schedule in
        // increasing area order (paper §3.1). The bound must sit below.
        let works = [4.0, 8.0, 12.0, 20.0];
        let m = 4usize;
        let mut b = InstanceBuilder::new(m);
        for &w in &works {
            b.push_linear(1.0, w).unwrap();
        }
        let inst = b.build().unwrap();
        let mut acc = 0.0;
        let mut opt = 0.0;
        for &w in &works {
            acc += w / m as f64;
            opt += acc; // weight 1
        }
        let bound = minsum_lower_bound(&inst, &BoundConfig::default());
        assert!(
            bound.value <= opt + 1e-6,
            "bound {} vs optimum {opt}",
            bound.value
        );
        assert!(
            bound.value >= 0.2 * opt,
            "bound {} uselessly weak vs {opt}",
            bound.value
        );
    }

    #[test]
    fn bound_is_below_any_valid_schedule_on_workloads() {
        for kind in WorkloadKind::ALL {
            for seed in 0..3 {
                let inst = generate(kind, 30, 8, seed);
                let bound = minsum_lower_bound(&inst, &BoundConfig::default());
                // Candidate schedules: sequential list and gang-like.
                let seq: Vec<ListTask> = inst
                    .ids()
                    .map(|id| ListTask::new(id, 1, inst.task(id).seq_time()))
                    .collect();
                let s1 = list_schedule(inst.procs(), &seq);
                let c1 = Criteria::evaluate(&inst, &s1);
                assert!(
                    bound.value <= c1.weighted_completion + 1e-6,
                    "{kind}/{seed}: bound {} above sequential schedule {}",
                    bound.value,
                    c1.weighted_completion
                );
                let gang: Vec<ListTask> = inst
                    .ids()
                    .map(|id| ListTask::new(id, inst.procs(), inst.task(id).min_time()))
                    .collect();
                let s2 = list_schedule(inst.procs(), &gang);
                let c2 = Criteria::evaluate(&inst, &s2);
                assert!(
                    bound.value <= c2.weighted_completion + 1e-6,
                    "{kind}/{seed}: bound {} above gang schedule {}",
                    bound.value,
                    c2.weighted_completion
                );
            }
        }
    }

    #[test]
    fn trivial_term_kicks_in() {
        // Single task: bound must be at least w·min_time (the LP's first
        // interval has cost 0, so the trivial term is what certifies it).
        let mut b = InstanceBuilder::new(2);
        b.push_times(3.0, vec![4.0, 2.5]).unwrap();
        let inst = b.build().unwrap();
        let bound = minsum_lower_bound(&inst, &BoundConfig::default());
        assert!(bound.value >= 3.0 * 2.5 - 1e-9);
        assert_eq!(inst.task(TaskId(0)).min_time(), 2.5);
    }

    #[test]
    fn instance_bounds_are_positive_and_consistent() {
        let inst = generate(WorkloadKind::Cirne, 40, 16, 5);
        let b = instance_bounds(&inst, &BoundConfig::default());
        assert!(b.cmax > 0.0);
        assert!(b.minsum > 0.0);
        // Weighted minsum of any schedule ≥ total weight × (fraction of
        // cmax)… no direct relation, but minsum ≥ min-weight × cmax bound
        // is too weak to assert; instead: minsum ≥ max single-task term.
        let best_single = inst
            .tasks()
            .iter()
            .map(|t| t.weight() * t.min_time())
            .fold(0.0, f64::max);
        assert!(b.minsum >= best_single - 1e-9);
    }

    #[test]
    fn squashed_bound_is_exact_for_linear_unit_weight_tasks() {
        // Linear tasks, unit weights: gang in increasing work order is
        // optimal and equals the squashed bound exactly.
        let works = [4.0, 8.0, 12.0, 20.0];
        let m = 4usize;
        let mut b = InstanceBuilder::new(m);
        for &w in &works {
            b.push_linear(1.0, w).unwrap();
        }
        let inst = b.build().unwrap();
        let mut acc = 0.0;
        let mut opt = 0.0;
        for &w in &works {
            acc += w / m as f64;
            opt += acc;
        }
        let sq = squashed_minsum_bound(&inst);
        assert!(
            (sq - opt).abs() < 1e-9,
            "squashed {sq} vs gang optimum {opt}"
        );
    }

    #[test]
    fn squashed_bound_below_any_schedule() {
        for kind in WorkloadKind::ALL {
            let inst = generate(kind, 25, 8, 2);
            let sq = squashed_minsum_bound(&inst);
            let seq: Vec<ListTask> = inst
                .ids()
                .map(|id| ListTask::new(id, 1, inst.task(id).seq_time()))
                .collect();
            let s = list_schedule(inst.procs(), &seq);
            let c = Criteria::evaluate(&inst, &s);
            assert!(
                sq <= c.weighted_completion + 1e-6,
                "{kind}: {sq} vs {}",
                c.weighted_completion
            );
        }
    }

    #[test]
    fn horizon_sweep_parallel_path_matches_sequential() {
        let inst = generate(WorkloadKind::Cirne, 30, 12, 4);
        let dual = demt_dual::dual_approx(&inst, &demt_dual::DualConfig::default());
        // Candidate horizons bracketing the dual estimate, the natural
        // warm-start exploration grid.
        let horizons: Vec<f64> = (0..6)
            .map(|i| dual.lower_bound * (1.0 + 0.25 * i as f64))
            .collect();
        let seq = minsum_bounds_for_horizons_on(&Pool::new(1), &inst, &horizons);
        let par = minsum_bounds_for_horizons_on(&Pool::new(4), &inst, &horizons);
        assert_eq!(seq, par);
        assert_eq!(seq.len(), horizons.len());
        // Soundness: every swept bound stays a lower bound of the one
        // computed at the canonical horizon (they all under-estimate
        // the same optimum, so each must respect a valid schedule; the
        // cheap sanity check here is positivity + finiteness).
        for b in &seq {
            assert!(b.value.is_finite() && b.value > 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let inst = generate(WorkloadKind::Mixed, 25, 8, 11);
        let a = minsum_lower_bound(&inst, &BoundConfig::default());
        let b = minsum_lower_bound(&inst, &BoundConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn structural_seed_skips_phase_one() {
        // The greedy structural basis is feasible by construction, so
        // every single-shot bound reports an accepted warm start.
        let inst = generate(WorkloadKind::Cirne, 35, 12, 3);
        let b = minsum_lower_bound(&inst, &BoundConfig::default());
        assert!(b.lp_warm_started);
    }

    #[test]
    fn greedy_seed_matches_all_last_seed_and_saves_iterations() {
        // Both structural seeds are feasible vertices of the same LP:
        // the optima must agree, and the greedy one must not pivot
        // more than the trivial all-last-interval vertex.
        let inst = generate(WorkloadKind::Cirne, 50, 20, 7);
        let dual = demt_dual::dual_approx(&inst, &demt_dual::DualConfig::default());
        let ml = assemble_minsum_lp(&inst, dual.cmax_estimate);
        let (from_last, _) = ml.lp.solve_from(&ml.seed_basis()).expect("feasible");
        let (from_greedy, _) = ml.lp.solve_from(&ml.greedy_basis()).expect("feasible");
        assert!(from_last.warm_started && from_greedy.warm_started);
        assert!(
            (from_last.objective - from_greedy.objective).abs()
                <= 1e-9 * from_last.objective.abs().max(1.0),
            "{} vs {}",
            from_last.objective,
            from_greedy.objective
        );
        assert!(
            from_greedy.iterations <= from_last.iterations,
            "greedy seed took {} iterations vs {} from the last-interval vertex",
            from_greedy.iterations,
            from_last.iterations
        );
    }

    #[test]
    fn warm_sweep_matches_independent_cold_solves() {
        // The tentpole equality check: every bound produced by the
        // warm-start chain agrees (to 1e-9) with a from-scratch
        // two-phase solve of the same horizon LP.
        let inst = generate(WorkloadKind::Mixed, 40, 16, 7);
        let dual = demt_dual::dual_approx(&inst, &demt_dual::DualConfig::default());
        let horizons: Vec<f64> = (0..10)
            .map(|i| dual.lower_bound * (1.0 + 0.15 * i as f64))
            .collect();
        let warm = minsum_bounds_for_horizons_on(&Pool::new(1), &inst, &horizons);
        // A link whose dual-simplex repair fails restarts from the
        // structural seed, itself a warm start, so every link is one.
        let hits = warm.iter().filter(|b| b.lp_warm_started).count();
        assert_eq!(
            hits,
            warm.len(),
            "only {hits}/{} links warm started",
            warm.len()
        );
        for (h, w) in horizons.iter().zip(&warm) {
            let ml = assemble_minsum_lp(&inst, *h);
            let (cold, _) = ml.lp.solve().expect("feasible by construction");
            assert!(
                (w.lp_value - cold.objective).abs() <= 1e-9 * cold.objective.abs().max(1.0),
                "horizon {h}: warm {} vs cold {}",
                w.lp_value,
                cold.objective
            );
        }
    }

    #[test]
    fn failed_repairs_restart_from_the_structural_seed() {
        // `demt bound --sweep 12` on this instance has three links whose
        // remapped neighbour basis the dual simplex cannot repair.
        let inst = generate(WorkloadKind::Mixed, 100, 64, 1);
        let dual = demt_dual::dual_approx(&inst, &demt_dual::DualConfig::default());
        let horizons: Vec<f64> = (0..12)
            .map(|i| dual.lower_bound * (1.0 + 0.25 * i as f64))
            .collect();
        let swept = minsum_bounds_for_horizons_on(&Pool::new(1), &inst, &horizons);
        let mut failed = 0;
        for (chunk, bounds) in horizons.chunks(WARM_CHUNK).zip(swept.chunks(WARM_CHUNK)) {
            let mut prev: Option<(Basis, SeedMap)> = None;
            for (&h, swept) in chunk.iter().zip(bounds) {
                let ml = assemble_minsum_lp(&inst, h);
                let seed = prev.take().and_then(|(b, map)| remap_seed(&b, &map, &ml));
                let repaired = seed.as_ref().map(|b| ml.lp.try_solve_from(b).unwrap());
                if let Some(None) = repaired {
                    failed += 1;
                    let (greedy, _) = ml.lp.solve_from(&ml.greedy_basis()).unwrap();
                    assert_eq!(swept.lp_iterations, greedy.iterations, "horizon {h}");
                    assert_eq!(swept.lp_value.to_bits(), greedy.objective.to_bits());
                }
                assert!(swept.lp_warm_started, "horizon {h}");
                let map = SeedMap::of(&ml);
                prev = Some((solve_assembled(&inst, ml, seed.as_ref()).1, map));
            }
        }
        assert_eq!(failed, 3);
    }

    #[test]
    fn chained_seeds_cut_iterations() {
        // Within a chunk, later horizons start from the neighbour's
        // optimum; their iteration counts must collapse relative to
        // structural-seed solves of the same horizons.
        let inst = generate(WorkloadKind::Cirne, 60, 24, 5);
        let dual = demt_dual::dual_approx(&inst, &demt_dual::DualConfig::default());
        let horizons: Vec<f64> = (0..6)
            .map(|i| dual.cmax_estimate * (1.0 + 0.02 * i as f64))
            .collect();
        let cfg = BoundConfig::default();
        let chained = minsum_bounds_for_horizons_on(&Pool::new(1), &inst, &horizons);
        let solo: usize = horizons
            .iter()
            .map(|&h| minsum_lower_bound_with_horizon(&inst, h, &cfg).lp_iterations)
            .sum();
        let warm: usize = chained.iter().map(|b| b.lp_iterations).sum();
        assert!(
            warm < solo,
            "chained sweep spent {warm} iterations vs {solo} for independent solves"
        );
    }
}
