//! Approximate Pareto-front generation by sweeping the trade-off
//! parameter ∆ — **incrementally**.
//!
//! The paper deliberately chooses the *absolute approximation* route over
//! Pareto-set approximation (Section 6), arguing that a human decision
//! maker is needed to pick from a Pareto set but that "all algorithms we
//! provide can be tuned using the ∆ parameter". This module operationalizes
//! that remark: it sweeps ∆ over a geometric grid, runs SBO∆ (independent
//! tasks) or RLS∆ (DAGs) for every value, and keeps the non-dominated
//! objective points. The result is a practical approximate trade-off
//! curve a user can pick from — exactly the decision-support tool the
//! paper's discussion implies, without any additional theory.
//!
//! Since the incremental rework, adjacent grid points share their work
//! instead of re-running the schedulers from scratch:
//!
//! * **RLS∆** — the memory cap `∆·LB` grows monotonically along the
//!   sorted grid, so [`SweepEngine`] runs the first ∆ cold and warm-starts
//!   the rest from it ([`crate::rls::RlsEngine`] on top of the kernel's
//!   checkpoint/resume support): a resume replays only from the first
//!   scheduling round whose admissibility verdict changes, and a ∆ whose
//!   cap changes no verdict is answered by the recorded run itself, with
//!   no kernel round. RLS∆ caps rarely bind above ∆ = 2, so the first
//!   run usually answers the whole grid (docs/PERFORMANCE.md).
//! * **SBO∆** — the two inner schedules `π₁`/`π₂` do not depend on ∆ at
//!   all, so [`crate::sbo::SboEngine`] computes them once and each grid
//!   point costs only the `O(n)` threshold routing.
//!
//! The rayon fan-out distributes **chunks of consecutive ∆ values** (at
//! most one chain per worker) and merges the chunk results at the
//! barrier in grid order, so the produced curve is bit-identical to the
//! serial from-scratch loop — the retained
//! [`rls_sweep_cold`]/[`sbo_sweep_cold`] oracles, which the differential
//! suite checks point for point. An RLS∆ sweep fans out only the ∆
//! values its first run cannot answer, each chain forked from that run.
//!
//! Relation to the portfolio layer (`crate::portfolio`): a sweep is a
//! *chain* of bi-objective solves sharing warm state, so it deliberately
//! stays on the engines instead of issuing one `SolveRequest` per grid
//! point — per-request routing would forfeit the checkpoint/resume
//! speedups. One-shot callers should go through the portfolio; sweep
//! callers come here.
//!
//! **Front merge policy:** points are merged through
//! [`ParetoFront::offer_with`] with the tie-break "prefer the smaller ∆"
//! — among runs achieving the same objective point (up to tolerance) the
//! curve reports the smallest parameter. Merging always happens in grid
//! order (then the limit runs), so the curve is reproducible even in
//! sub-tolerance corner cases where the tolerant equivalence relation is
//! not transitive. The
//! π₁-only/π₂-only limit schedules are recorded as explicit
//! [`SweepProvenance`] limit runs with ∆ = 0 / ∆ = ∞, never as fake grid
//! values that could collide with a user-supplied range.

use rayon::prelude::*;

use sws_dag::DagInstance;
use sws_listsched::KernelWorkspace;
use sws_model::error::ModelError;
use sws_model::numeric::finite_gt;
use sws_model::objectives::ObjectivePoint;
use sws_model::pareto::ParetoFront;
use sws_model::schedule::{Assignment, TimedSchedule};
use sws_model::Instance;

use crate::rls::{rls_in, PriorityOrder, RlsConfig, RlsEngine, RlsResult};
use crate::sbo::{sbo, InnerAlgorithm, SboConfig, SboEngine};

/// How a sweep point was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepProvenance {
    /// A regular run at a ∆ value of the requested grid.
    Grid,
    /// The `∆ → 0⁺` limit run (π₁ only, reported with ∆ = 0).
    CmaxLimit,
    /// The `∆ → ∞` limit run (π₂ only, reported with ∆ = ∞).
    MmaxLimit,
}

/// One point of an approximate trade-off curve, tagged with the parameter
/// that produced it.
#[derive(Debug, Clone)]
pub struct SweepPoint<S> {
    /// The ∆ value that produced this schedule (`0` / `∞` for the two
    /// limit runs — see [`SweepPoint::provenance`]). Among runs achieving
    /// the same objective point, the smallest ∆ is reported.
    pub delta: f64,
    /// Whether the point came from the grid or from a limit run.
    pub provenance: SweepProvenance,
    /// The achieved objective values.
    pub point: ObjectivePoint,
    /// The schedule itself (an [`Assignment`] for independent tasks, a
    /// [`TimedSchedule`] for DAGs).
    pub schedule: S,
}

/// Validates that `[delta_min, delta_max]` is a finite positive range.
fn validate_bounds(delta_min: f64, delta_max: f64) -> Result<(), ModelError> {
    if !finite_gt(delta_min, 0.0) {
        return Err(ModelError::InvalidParameter {
            name: "delta_min",
            value: delta_min,
            constraint: "finite and > 0",
        });
    }
    if !delta_max.is_finite() || delta_max < delta_min {
        return Err(ModelError::InvalidParameter {
            name: "delta_max",
            value: delta_max,
            constraint: "finite and ≥ ∆min",
        });
    }
    Ok(())
}

/// A geometric grid of at most `samples` strictly increasing values of ∆
/// spanning `[delta_min, delta_max]`.
///
/// The endpoints are pinned to **exactly** `delta_min` and `delta_max`
/// (the interior points go through `ln`/`exp`, whose round-trip error
/// must not leak into the bounds), and adjacent equal values — possible
/// when the range is so tight the geometric spacing underflows — are
/// deduplicated. Rejects non-finite or non-positive bounds, an inverted
/// range, and `samples == 0`.
pub fn delta_grid(delta_min: f64, delta_max: f64, samples: usize) -> Result<Vec<f64>, ModelError> {
    validate_bounds(delta_min, delta_max)?;
    if samples == 0 {
        return Err(ModelError::InvalidParameter {
            name: "samples",
            value: samples as f64,
            constraint: "≥ 1",
        });
    }
    if samples == 1 {
        return Ok(vec![delta_min]);
    }
    let lo = delta_min.ln();
    let hi = delta_max.ln();
    let mut grid: Vec<f64> = (0..samples)
        .map(|j| {
            if j == 0 {
                delta_min
            } else if j == samples - 1 {
                delta_max
            } else {
                (lo + j as f64 / (samples - 1) as f64 * (hi - lo))
                    .exp()
                    .clamp(delta_min, delta_max)
            }
        })
        .collect();
    grid.dedup();
    Ok(grid)
}

/// Runs `run_chunk` over every chunk and flattens the results in input
/// order — inline on the calling thread when there is at most one chunk
/// (zero rayon dispatch overhead for single-worker runs), across the
/// rayon pool otherwise. Shared by the sweep engines and the batch
/// scheduler so the dispatch policy lives in one place.
pub(crate) fn run_chunks<T, R, F>(chunks: Vec<T>, run_chunk: F) -> Result<Vec<R>, ModelError>
where
    T: Send,
    R: Send,
    F: Fn(T) -> Result<Vec<R>, ModelError> + Sync,
{
    let per_chunk: Result<Vec<Vec<R>>, ModelError> = if chunks.len() <= 1 {
        chunks.into_iter().map(&run_chunk).collect()
    } else {
        chunks.into_par_iter().map(run_chunk).collect()
    };
    Ok(per_chunk?.into_iter().flatten().collect())
}

/// Warm-started ∆-sweep runner: splits the part of a sorted ∆ grid it
/// cannot answer up front into chunks of consecutive values — at most
/// `workers` warm chains — runs every chain independently, and returns
/// the per-∆ results **in grid order**, bit-identical to a serial
/// from-scratch loop over the same grid.
#[derive(Debug, Clone, Copy)]
pub struct SweepEngine {
    workers: usize,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// At most one chain per rayon worker thread.
    pub fn new() -> Self {
        Self::with_workers(rayon::current_num_threads().max(1))
    }

    /// An upper bound (≥ 1) on the chains a sweep fans out to; the
    /// produced results do not depend on it, only the wall-clock does.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        SweepEngine { workers }
    }

    /// Contiguous chunks of the grid, at most one per worker.
    fn chunked(&self, deltas: &[f64]) -> Vec<Vec<f64>> {
        if deltas.is_empty() {
            return Vec::new();
        }
        let chunk_len = deltas.len().div_ceil(self.workers);
        deltas.chunks(chunk_len).map(<[f64]>::to_vec).collect()
    }

    /// Runs RLS∆ for every ∆ of `deltas`, in three parts:
    ///
    /// 1. **The first run**: the first ∆ runs cold on the calling thread,
    ///    through one [`RlsEngine`] that records it.
    /// 2. **The answered prefix**: that engine answers, in grid order,
    ///    every following ∆ the first run already answers (a cap at or
    ///    above its cap and below its smallest recorded rejection). Each
    ///    answer shares the first run's schedule; no kernel round runs.
    /// 3. **The fanned-out suffix**: the remaining ∆ values are split
    ///    into at most `workers` chunks of consecutive values, and each
    ///    chunk runs as a warm chain on a fork of the first engine, so
    ///    its first step resumes the first run instead of running cold.
    ///    One chunk runs inline; more go through the rayon pool.
    ///
    /// A grid the first run answers completely runs the kernel once and
    /// starts no thread. Any grid is valid: ascending steps warm-start,
    /// and a step below a chain's kept cap runs cold. The priority rank
    /// and the CSR instance mirror are computed once and shared by every
    /// chain.
    pub fn run_rls(
        &self,
        inst: &DagInstance,
        order: PriorityOrder,
        deltas: &[f64],
    ) -> Result<Vec<(f64, RlsResult)>, ModelError> {
        let csr = std::sync::Arc::new(inst.csr());
        let rank = std::sync::Arc::new(order.rank_csr(inst.graph(), &csr));
        let mut engine = RlsEngine::with_parts(inst, order, rank, csr);
        let mut runs = Vec::with_capacity(deltas.len());
        let mut rest = deltas;
        while let Some((&delta, tail)) = rest.split_first() {
            if !runs.is_empty() && !engine.answers(delta) {
                break;
            }
            runs.push((delta, engine.run(delta)?));
            rest = tail;
        }
        runs.extend(run_chunks(self.chunked(rest), |chunk| {
            let mut chain = engine.fork();
            chunk
                .into_iter()
                .map(|delta| Ok((delta, chain.run(delta)?)))
                .collect()
        })?);
        Ok(runs)
    }

    /// Runs SBO∆'s threshold routing for every ∆ of `deltas` on a shared
    /// [`SboEngine`] (inner schedules already computed). Returns the
    /// combined assignments only — one `O(n)` routing pass per point,
    /// no per-point `π₁`/`π₂` clones. One chunk runs inline without
    /// rayon dispatch, like [`SweepEngine::run_rls`].
    pub fn run_sbo(
        &self,
        engine: &SboEngine<'_>,
        deltas: &[f64],
    ) -> Result<Vec<(f64, Assignment)>, ModelError> {
        run_chunks(self.chunked(deltas), |chunk| {
            chunk
                .into_iter()
                .map(|delta| Ok((delta, engine.assignment_at(delta)?)))
                .collect()
        })
    }
}

/// Payload stored in the sweep fronts: the producing ∆, its provenance
/// and the schedule.
type Tagged<S> = (f64, SweepProvenance, S);

/// Offers a run to the front under the documented merge policy: among
/// equivalent points the smaller ∆ wins (limit runs use 0 / ∞).
fn offer_run<S>(
    front: &mut ParetoFront<Tagged<S>>,
    delta: f64,
    provenance: SweepProvenance,
    point: ObjectivePoint,
    schedule: S,
) {
    front.offer_with(point, (delta, provenance, schedule), |new, old| {
        new.0 < old.0
    });
}

/// Offers the two SBO limit runs (π₁-only / π₂-only, the exact ∆ limits
/// of the threshold rule) to a sweep front. Shared by the warm and cold
/// entry points so they cannot drift apart.
fn offer_sbo_limit_runs(
    front: &mut ParetoFront<Tagged<Assignment>>,
    inst: &Instance,
    engine: &SboEngine<'_>,
) -> Result<(), ModelError> {
    for (delta, provenance, assignment) in [
        (0.0, SweepProvenance::CmaxLimit, engine.cmax_limit()?),
        (
            f64::INFINITY,
            SweepProvenance::MmaxLimit,
            engine.mmax_limit()?,
        ),
    ] {
        let point = ObjectivePoint::of_assignment(inst, &assignment);
        offer_run(front, delta, provenance, point, assignment);
    }
    Ok(())
}

/// Consumes a sweep front into the curve, sorted by increasing makespan.
fn into_curve<S>(front: ParetoFront<Tagged<S>>) -> Vec<SweepPoint<S>> {
    front
        .into_sorted()
        .into_iter()
        .map(|(point, (delta, provenance, schedule))| SweepPoint {
            delta,
            provenance,
            point,
            schedule,
        })
        .collect()
}

/// Sweeps SBO∆ over a geometric ∆ grid and returns the non-dominated
/// achieved points, sorted by increasing makespan.
///
/// The two pure single-objective schedules (the exact `∆ → 0` and
/// `∆ → ∞` limits of the threshold rule) are always included as explicit
/// limit runs — tagged [`SweepProvenance::CmaxLimit`] /
/// [`SweepProvenance::MmaxLimit`] with ∆ = 0 / ∆ = ∞ — so the curve
/// spans the full trade-off range the inner algorithm can reach without
/// injecting sentinel ∆ values that could collide with (or invert) the
/// user-supplied range.
pub fn sbo_sweep(
    inst: &Instance,
    inner: InnerAlgorithm,
    delta_min: f64,
    delta_max: f64,
    samples: usize,
) -> Result<Vec<SweepPoint<Assignment>>, ModelError> {
    let grid = delta_grid(delta_min, delta_max, samples)?;
    let engine = SboEngine::new(inst, inner)?;
    // Fan chunks of the ∆ grid out across cores; merge at the barrier in
    // grid order so the front matches the serial loop exactly.
    let runs = SweepEngine::new().run_sbo(&engine, &grid)?;
    let mut front: ParetoFront<Tagged<Assignment>> = ParetoFront::new();
    for (delta, assignment) in runs {
        let point = ObjectivePoint::of_assignment(inst, &assignment);
        offer_run(&mut front, delta, SweepProvenance::Grid, point, assignment);
    }
    offer_sbo_limit_runs(&mut front, inst, &engine)?;
    Ok(into_curve(front))
}

/// From-scratch serial SBO∆ sweep: one full [`sbo`] run per grid point,
/// merged in grid order. Differential oracle (and bench baseline) for
/// the engine-backed [`sbo_sweep`] — produces bit-identical curves while
/// recomputing the inner schedules for every point.
pub fn sbo_sweep_cold(
    inst: &Instance,
    inner: InnerAlgorithm,
    delta_min: f64,
    delta_max: f64,
    samples: usize,
) -> Result<Vec<SweepPoint<Assignment>>, ModelError> {
    let grid = delta_grid(delta_min, delta_max, samples)?;
    let mut front: ParetoFront<Tagged<Assignment>> = ParetoFront::new();
    for &delta in &grid {
        let result = sbo(inst, &SboConfig::new(delta, inner))?;
        let point = result.objective(inst);
        offer_run(
            &mut front,
            delta,
            SweepProvenance::Grid,
            point,
            result.assignment,
        );
    }
    let engine = SboEngine::new(inst, inner)?;
    offer_sbo_limit_runs(&mut front, inst, &engine)?;
    Ok(into_curve(front))
}

/// Validates the RLS-specific lower bound `∆min > 2`.
fn validate_rls_delta_min(delta_min: f64) -> Result<(), ModelError> {
    if !finite_gt(delta_min, 2.0) {
        return Err(ModelError::InvalidParameter {
            name: "delta_min",
            value: delta_min,
            constraint: "finite and ∆ > 2",
        });
    }
    Ok(())
}

/// Sweeps RLS∆ over a geometric ∆ grid (all values must exceed 2) and
/// returns the non-dominated achieved points, sorted by increasing
/// makespan. Adjacent grid points are warm-started through the kernel's
/// checkpoint/resume support; the curve is bit-identical to
/// [`rls_sweep_cold`]'s. A grid point whose warm run replayed nothing
/// shares its schedule's storage with the previous point's, and reuses
/// that point's objective values instead of re-folding the schedule.
pub fn rls_sweep(
    inst: &DagInstance,
    config: &RlsConfig,
    delta_min: f64,
    delta_max: f64,
    samples: usize,
) -> Result<Vec<SweepPoint<TimedSchedule>>, ModelError> {
    validate_rls_delta_min(delta_min)?;
    let grid = delta_grid(delta_min, delta_max, samples)?;
    let runs = SweepEngine::new().run_rls(inst, config.order, &grid)?;
    let mut front: ParetoFront<Tagged<TimedSchedule>> = ParetoFront::new();
    let mut prev: Option<(TimedSchedule, ObjectivePoint)> = None;
    for (delta, result) in runs {
        let point = match &prev {
            Some((schedule, point)) if schedule.shares_storage(&result.schedule) => *point,
            _ => ObjectivePoint::of_timed_tasks(inst.tasks(), &result.schedule),
        };
        prev = Some((result.schedule.clone(), point));
        offer_run(
            &mut front,
            delta,
            SweepProvenance::Grid,
            point,
            result.schedule,
        );
    }
    Ok(into_curve(front))
}

/// From-scratch serial RLS∆ sweep: one cold [`rls_in`] run per grid
/// point (one kernel workspace for the whole sweep), merged in grid
/// order. Differential oracle (and bench baseline) for
/// the warm-started [`rls_sweep`].
pub fn rls_sweep_cold(
    inst: &DagInstance,
    config: &RlsConfig,
    delta_min: f64,
    delta_max: f64,
    samples: usize,
) -> Result<Vec<SweepPoint<TimedSchedule>>, ModelError> {
    validate_rls_delta_min(delta_min)?;
    let grid = delta_grid(delta_min, delta_max, samples)?;
    let order = config.order;
    let mut front: ParetoFront<Tagged<TimedSchedule>> = ParetoFront::new();
    let mut ws = KernelWorkspace::new();
    for &delta in &grid {
        let result = rls_in(inst, &RlsConfig { delta, order }, &mut ws)?;
        let point = ObjectivePoint::of_timed_tasks(inst.tasks(), &result.schedule);
        offer_run(
            &mut front,
            delta,
            SweepProvenance::Grid,
            point,
            result.schedule,
        );
    }
    Ok(into_curve(front))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_exact::pareto_enum::pareto_front;
    use sws_model::validate::validate_assignment;
    use sws_workloads::dagsets::{dag_workload, DagFamily};
    use sws_workloads::random::random_instance;
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    #[test]
    fn delta_grid_spans_the_requested_range_geometrically() {
        let grid = delta_grid(0.25, 4.0, 5).unwrap();
        assert_eq!(grid.len(), 5);
        // Endpoints are *exact*, not ln/exp round-trips.
        assert_eq!(grid[0], 0.25);
        assert_eq!(grid[4], 4.0);
        assert!((grid[2] - 1.0).abs() < 1e-9);
        assert!(grid.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(delta_grid(3.0, 8.0, 1).unwrap(), vec![3.0]);
        assert!(delta_grid(2.0, 1.0, 3).is_err());
    }

    #[test]
    fn delta_grid_dedupes_a_degenerate_range() {
        let grid = delta_grid(3.0, 3.0, 9).unwrap();
        assert_eq!(grid, vec![3.0]);
    }

    #[test]
    fn delta_grid_rejects_invalid_parameters() {
        for (lo, hi) in [
            (f64::NAN, 4.0),
            (1.0, f64::NAN),
            (0.0, 4.0),
            (-1.0, 4.0),
            (f64::INFINITY, 4.0),
            (1.0, f64::INFINITY),
            (4.0, 1.0),
        ] {
            match delta_grid(lo, hi, 5) {
                Err(ModelError::InvalidParameter { .. }) => {}
                other => panic!("({lo}, {hi}) must be rejected, got {other:?}"),
            }
        }
        assert!(matches!(
            delta_grid(1.0, 2.0, 0),
            Err(ModelError::InvalidParameter {
                name: "samples",
                ..
            })
        ));
    }

    #[test]
    fn sbo_sweep_returns_a_mutually_non_dominated_curve() {
        let inst = random_instance(30, 4, TaskDistribution::AntiCorrelated, &mut seeded_rng(51));
        let curve = sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.125, 8.0, 9).unwrap();
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[0].point.cmax <= w[1].point.cmax + 1e-9);
            if w[1].point.cmax > w[0].point.cmax + 1e-9 {
                assert!(
                    w[0].point.mmax + 1e-9 >= w[1].point.mmax,
                    "curve must trade memory for time"
                );
            }
        }
        for p in &curve {
            validate_assignment(&inst, &p.schedule, None).unwrap();
        }
    }

    #[test]
    fn sbo_sweep_endpoints_match_the_single_objective_schedules() {
        let inst = random_instance(25, 3, TaskDistribution::Uncorrelated, &mut seeded_rng(52));
        let curve = sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.25, 4.0, 7).unwrap();
        let lpt_c = ObjectivePoint::of_assignment(&inst, &sws_listsched::lpt_cmax(&inst));
        let lpt_m = ObjectivePoint::of_assignment(&inst, &sws_listsched::lpt_mmax(&inst));
        // The best makespan on the curve is at least as good as the pure
        // makespan schedule's (it is included in the sweep), and likewise
        // for memory.
        assert!(curve.first().unwrap().point.cmax <= lpt_c.cmax + 1e-9);
        assert!(curve.last().unwrap().point.mmax <= lpt_m.mmax + 1e-9);
    }

    #[test]
    fn sbo_sweep_limit_runs_are_recorded_as_such() {
        let inst = random_instance(20, 3, TaskDistribution::AntiCorrelated, &mut seeded_rng(56));
        let curve = sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.25, 4.0, 7).unwrap();
        for p in &curve {
            match p.provenance {
                SweepProvenance::Grid => {
                    assert!(
                        (0.25..=4.0).contains(&p.delta),
                        "grid ∆ {} off-range",
                        p.delta
                    )
                }
                SweepProvenance::CmaxLimit => assert_eq!(p.delta, 0.0),
                SweepProvenance::MmaxLimit => assert_eq!(p.delta, f64::INFINITY),
            }
        }
    }

    /// The old implementation appended sentinel ∆s `1e-9`/`1e9` to the
    /// grid, colliding with (or inverting) user ranges around `1e9`; the
    /// explicit limit runs must keep such ranges valid.
    #[test]
    fn sbo_sweep_supports_extreme_user_ranges() {
        let inst = random_instance(15, 3, TaskDistribution::Uncorrelated, &mut seeded_rng(57));
        let curve = sbo_sweep(&inst, InnerAlgorithm::Lpt, 1e-10, 1e12, 5).unwrap();
        assert!(!curve.is_empty());
        for p in &curve {
            if p.provenance == SweepProvenance::Grid {
                assert!((1e-10..=1e12).contains(&p.delta));
            }
        }
    }

    #[test]
    fn sweeps_reject_non_finite_bounds() {
        let inst = random_instance(10, 2, TaskDistribution::Uncorrelated, &mut seeded_rng(58));
        for (lo, hi) in [(f64::NAN, 8.0), (0.125, f64::NAN), (0.125, f64::INFINITY)] {
            assert!(
                sbo_sweep(&inst, InnerAlgorithm::Lpt, lo, hi, 5).is_err(),
                "({lo}, {hi}) must be rejected"
            );
        }
        let mut rng = seeded_rng(59);
        let dag = dag_workload(
            DagFamily::Diamond,
            20,
            2,
            TaskDistribution::Correlated,
            &mut rng,
        );
        for (lo, hi) in [
            (f64::NAN, 8.0),
            (f64::INFINITY, 8.0),
            (2.5, f64::NAN),
            (2.5, f64::INFINITY),
        ] {
            assert!(
                rls_sweep(&dag, &RlsConfig::new(3.0), lo, hi, 5).is_err(),
                "({lo}, {hi}) must be rejected"
            );
        }
    }

    #[test]
    fn sbo_sweep_is_dominated_by_the_exact_front_but_not_absurdly_far() {
        let inst = random_instance(10, 2, TaskDistribution::AntiCorrelated, &mut seeded_rng(53));
        let exact = pareto_front(&inst);
        let curve = sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.125, 8.0, 17).unwrap();
        for p in &curve {
            // Every heuristic point is covered by (weakly dominated by a
            // member of) the exact front.
            assert!(exact.covers(&p.point));
        }
    }

    #[test]
    fn rls_sweep_produces_feasible_trade_offs_on_dags() {
        let mut rng = seeded_rng(54);
        let inst = dag_workload(
            DagFamily::GaussianElimination,
            80,
            4,
            TaskDistribution::Bimodal,
            &mut rng,
        );
        let curve = rls_sweep(&inst, &RlsConfig::new(3.0), 2.1, 10.0, 8).unwrap();
        assert!(!curve.is_empty());
        for w in curve.windows(2) {
            assert!(w[0].point.cmax <= w[1].point.cmax + 1e-9);
            if w[1].point.cmax > w[0].point.cmax + 1e-9 {
                assert!(w[0].point.mmax + 1e-9 >= w[1].point.mmax);
            }
        }
        // Every point came from an admissible parameter value.
        assert!(curve.iter().all(|p| p.delta > 2.0));
        assert!(curve.iter().all(|p| p.provenance == SweepProvenance::Grid));
    }

    #[test]
    fn rls_sweep_rejects_delta_min_at_or_below_two() {
        let mut rng = seeded_rng(55);
        let inst = dag_workload(
            DagFamily::Diamond,
            30,
            3,
            TaskDistribution::Correlated,
            &mut rng,
        );
        assert!(rls_sweep(&inst, &RlsConfig::new(3.0), 2.0, 5.0, 4).is_err());
    }

    /// Fast parity smoke test (the full family × order × m sweep lives in
    /// tests/differential_sweep.rs): the warm-started parallel sweeps
    /// must be bit-identical to the serial from-scratch oracles.
    #[test]
    fn warm_sweeps_match_the_cold_oracles() {
        let mut rng = seeded_rng(60);
        let dag = dag_workload(
            DagFamily::LayeredRandom,
            50,
            4,
            TaskDistribution::AntiCorrelated,
            &mut rng,
        );
        let warm = rls_sweep(&dag, &RlsConfig::new(3.0), 2.1, 12.0, 9).unwrap();
        let cold = rls_sweep_cold(&dag, &RlsConfig::new(3.0), 2.1, 12.0, 9).unwrap();
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.delta, c.delta);
            assert_eq!(w.provenance, c.provenance);
            assert_eq!(w.schedule, c.schedule);
        }

        let inst = random_instance(25, 3, TaskDistribution::AntiCorrelated, &mut rng);
        let warm = sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.125, 8.0, 9).unwrap();
        let cold = sbo_sweep_cold(&inst, InnerAlgorithm::Lpt, 0.125, 8.0, 9).unwrap();
        assert_eq!(warm.len(), cold.len());
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.delta, c.delta);
            assert_eq!(w.provenance, c.provenance);
            assert_eq!(w.schedule, c.schedule);
        }
    }

    /// Chunking must not leak into the results: one chain over the whole
    /// grid and one chain per point produce the same runs.
    #[test]
    fn sweep_engine_results_do_not_depend_on_the_chunking() {
        let mut rng = seeded_rng(61);
        let dag = dag_workload(
            DagFamily::ForkJoin,
            40,
            4,
            TaskDistribution::Bimodal,
            &mut rng,
        );
        let grid = delta_grid(2.2, 9.0, 7).unwrap();
        let single = SweepEngine::with_workers(1)
            .run_rls(&dag, PriorityOrder::Index, &grid)
            .unwrap();
        let many = SweepEngine::with_workers(grid.len())
            .run_rls(&dag, PriorityOrder::Index, &grid)
            .unwrap();
        assert_eq!(single.len(), many.len());
        for ((da, ra), (db, rb)) in single.iter().zip(&many) {
            assert_eq!(da, db);
            assert_eq!(ra.schedule, rb.schedule);
            assert_eq!(ra.marked, rb.marked);
        }
    }
}
