//! RLS∆ — Restricted List Scheduling (Algorithm 2 of the paper) for
//! precedence-constrained tasks.
//!
//! The algorithm first computes the Graham lower bound on the optimal
//! memory consumption, `LB = max(max_i s_i, Σ s_i / m)`, and then never
//! lets a processor's cumulative memory exceed `∆·LB`. Subject to that
//! restriction it behaves like Graham list scheduling: among the ready
//! tasks it repeatedly schedules the one that can start the soonest on the
//! least-loaded *admissible* processor.
//!
//! The analysis (Lemmas 4 and 5, Corollaries 2 and 3) shows that for
//! `∆ > 2`
//!
//! * at most `⌊m/(∆−1)⌋` processors are ever "marked" (passed over because
//!   of the memory restriction),
//! * the schedule is `∆`-approximate on `Mmax`, and
//! * the schedule is `(2 + 1/(∆−2) − (∆−1)/(m(∆−2)))`-approximate on
//!   `Cmax`.
//!
//! The paper's pseudo-code leaves the order in which ties between equally
//! ready tasks are broken free ("an arbitrary total ordering of tasks");
//! [`PriorityOrder`] exposes the orderings used by the evaluation,
//! including the SPT order required by the Section 5.2 tri-objective
//! extension.
//!
//! Every cold run — [`rls_in`] on a DAG, [`rls_independent_in`] on
//! independent tasks and [`RlsEngine::run_detached`] — goes through one
//! private routine: the shared scheduling kernel
//! (`sws_listsched::kernel`) with the memory restriction supplied as an
//! admissibility predicate. That costs `O((n + E)·log n + n·log m)`, plus
//! `O(log n)` per pending tie group a contested round pops, as long as
//! memory rejections on the least-loaded processor stay rare (they are,
//! on every measured workload; the kernel's module docs state both
//! costs and the worst case) instead of the original `O(n²·m)` scan, which
//! survives as the differential oracle `sws_oracle::rls` (a dev-only
//! crate next to the tests that use it). Warm ∆ chains
//! resume a recorded run instead ([`RlsEngine::run`]); one-off requests
//! go through the portfolio (`crate::portfolio`).

use sws_dag::{CsrDag, DagInstance, TaskGraph};
use sws_listsched::kernel::{
    event_driven_schedule_csr, CheckpointedRun, KernelWorkspace, MemoryCapAdmission,
};
use sws_listsched::priority::{
    hlf_priority, index_priority, largest_storage_priority_csr, lpt_priority_csr, spt_priority_csr,
    PriorityRank,
};
use sws_model::bounds::mmax_lower_bound;
use sws_model::error::ModelError;
use sws_model::numeric::{exceeds, finite_gt};
use sws_model::objectives::ObjectivePoint;
use sws_model::schedule::TimedSchedule;
use sws_model::solve::{BackendId, BoundReport, Guarantee, Solution, SolveStats};
use sws_model::task::TaskSet;
use sws_model::Instance;

/// Tie-breaking order used by RLS∆ when several tasks can start at the
/// same earliest time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PriorityOrder {
    /// Task index order — the paper's "arbitrary total ordering".
    #[default]
    Index,
    /// Shortest Processing Time first — the order required by the
    /// tri-objective extension (Corollary 4).
    Spt,
    /// Longest Processing Time first.
    Lpt,
    /// Highest (bottom) Level First — critical-path-aware priority,
    /// the classical HLF/HLFET rule.
    BottomLevel,
    /// Largest storage requirement first — packs memory-hungry tasks
    /// early, an ablation of the memory restriction.
    LargestStorage,
}

impl PriorityOrder {
    /// Every order, in the order used by the experiment tables.
    pub fn all() -> [PriorityOrder; 5] {
        [
            PriorityOrder::Index,
            PriorityOrder::Spt,
            PriorityOrder::Lpt,
            PriorityOrder::BottomLevel,
            PriorityOrder::LargestStorage,
        ]
    }

    /// A short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            PriorityOrder::Index => "index",
            PriorityOrder::Spt => "spt",
            PriorityOrder::Lpt => "lpt",
            PriorityOrder::BottomLevel => "bottom-level",
            PriorityOrder::LargestStorage => "largest-storage",
        }
    }

    /// Builds the rank vector (lower rank = preferred) from a prebuilt
    /// CSR mirror: cost-keyed orders sort the cost arrays' bit patterns
    /// (see [`sws_listsched::priority::spt_priority_csr`]). Bottom-level
    /// priorities derive summed levels from the graph, so that arm
    /// walks the nested graph.
    pub fn rank_csr(&self, graph: &TaskGraph, csr: &CsrDag) -> PriorityRank {
        match self {
            PriorityOrder::BottomLevel => hlf_priority(graph),
            _ => self.rank_edge_free(csr),
        }
    }

    /// The rank over an edge-free CSR, which needs no graph: a task
    /// without successors has bottom level `p_i`, so bottom-level
    /// priority is LPT there (same comparator, same index tie-break).
    fn rank_edge_free(&self, csr: &CsrDag) -> PriorityRank {
        match self {
            PriorityOrder::Index => index_priority(csr.n()),
            PriorityOrder::Spt => spt_priority_csr(csr),
            PriorityOrder::Lpt | PriorityOrder::BottomLevel => lpt_priority_csr(csr),
            PriorityOrder::LargestStorage => largest_storage_priority_csr(csr),
        }
    }
}

/// Configuration of one RLS∆ run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RlsConfig {
    /// The memory degradation factor `∆ > 2`: no processor may use more
    /// than `∆·LB` memory.
    pub delta: f64,
    /// Tie-breaking order among equally ready tasks.
    pub order: PriorityOrder,
}

impl RlsConfig {
    /// Creates a configuration with the paper's arbitrary (index) order.
    pub fn new(delta: f64) -> Self {
        RlsConfig {
            delta,
            order: PriorityOrder::Index,
        }
    }

    /// Replaces the tie-breaking order.
    pub fn with_order(mut self, order: PriorityOrder) -> Self {
        self.order = order;
        self
    }

    /// The Corollary 4 configuration: SPT tie-breaking.
    pub fn spt(delta: f64) -> Self {
        RlsConfig {
            delta,
            order: PriorityOrder::Spt,
        }
    }
}

/// The output of RLS∆.
#[derive(Debug, Clone)]
pub struct RlsResult {
    /// The produced schedule `(π, σ)`.
    pub schedule: TimedSchedule,
    /// The Graham memory lower bound `LB = max(max_i s_i, Σ s_i / m)`.
    pub lb: f64,
    /// The memory cap enforced on every processor, `∆·LB`.
    pub memory_cap: f64,
    /// Which processors were marked during the run (passed over at least
    /// once because placing the candidate task would exceed the cap).
    pub marked: Vec<bool>,
    /// The proven guarantee `(2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆)` — ratios
    /// to `C*max` and `M*max` (Corollary 3).
    pub guarantee: (f64, f64),
    /// The configuration the result was produced with.
    pub config: RlsConfig,
}

impl RlsResult {
    /// Objective values of the schedule against a task set.
    pub fn objective(&self, tasks: &TaskSet) -> ObjectivePoint {
        ObjectivePoint::of_timed_tasks(tasks, &self.schedule)
    }

    /// Number of marked processors.
    pub fn marked_count(&self) -> usize {
        self.marked.iter().filter(|&&b| b).count()
    }

    /// The Lemma 4 bound on the number of marked processors,
    /// `⌊m/(∆−1)⌋`.
    pub fn marked_bound(&self) -> usize {
        lemma4_marked_bound(self.schedule.m(), self.config.delta)
    }

    /// Packages the run in the unified solver vocabulary
    /// (`sws_model::solve`): schedule, achieved point, the Corollary 3
    /// guarantee and the solve provenance. Consumes the result so the
    /// schedule moves instead of cloning — the portfolio backends build
    /// their `Solution` from a local temporary, and the batch serving
    /// path must stay free of per-item copies.
    pub fn into_solution(
        self,
        tasks: &TaskSet,
        backend: BackendId,
        bounds: BoundReport,
        workspace_reused: bool,
    ) -> Solution {
        let point = self.objective(tasks);
        Solution {
            point,
            sum_ci: None,
            achieved: Guarantee::PaperRatio,
            ratio_bound: Some(self.guarantee),
            stats: SolveStats {
                backend,
                rounds: self.schedule.n(),
                workspace_reused,
                bounds,
                cost: None,
                attempts: 1,
            },
            schedule: self.schedule,
        }
    }
}

/// The Lemma 4 bound on the number of marked processors: `⌊m/(∆−1)⌋`.
pub fn lemma4_marked_bound(m: usize, delta: f64) -> usize {
    (m as f64 / (delta - 1.0)).floor() as usize
}

/// The Corollary 3 guarantee of RLS∆ on `m` processors:
/// `(2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆)` for `∆ > 2`.
pub fn rls_guarantee(delta: f64, m: usize) -> (f64, f64) {
    assert!(exceeds(delta, 2.0), "the RLS guarantee requires ∆ > 2");
    let m = m as f64;
    (
        2.0 + 1.0 / (delta - 2.0) - (delta - 1.0) / (m * (delta - 2.0)),
        delta,
    )
}

/// Validates the RLS parameter `∆ > 2` (finite).
fn validate_rls_delta(delta: f64) -> Result<(), ModelError> {
    if !finite_gt(delta, 2.0) {
        return Err(ModelError::InvalidParameter {
            name: "delta",
            value: delta,
            constraint: "∆ > 2",
        });
    }
    Ok(())
}

/// The Graham memory lower bound `LB = max(max_i s_i, Σ s_i / m)`
/// (`0` for an empty instance) — the value `DagInstance` caches.
fn memory_lb(tasks: &TaskSet, m: usize) -> f64 {
    if tasks.is_empty() {
        0.0
    } else {
        mmax_lower_bound(tasks, m)
    }
}

/// The one cold RLS∆ run behind every entry point: checks `∆ > 2`,
/// caps memory at `∆·LB`, resets `admission` to that cap, runs the
/// kernel over `csr` with the buffers of `ws` and packages the
/// [`RlsResult`].
///
/// The kernel marks processors from the winning probe only (the
/// paper's "for analysis only" semantics); the `sws_oracle::rls` oracle
/// marks conservatively while evaluating every candidate, so the
/// kernel's marked set is a subset of the oracle's and both satisfy the
/// Lemma 4 bound.
fn run_cold(
    csr: &CsrDag,
    m: usize,
    lb: f64,
    rank: &PriorityRank,
    config: RlsConfig,
    admission: &mut MemoryCapAdmission,
    ws: &mut KernelWorkspace,
) -> Result<RlsResult, ModelError> {
    validate_rls_delta(config.delta)?;
    let cap = config.delta * lb;
    admission.reset(m, cap);
    let outcome = event_driven_schedule_csr(csr, m, rank, admission, ws)?;
    Ok(RlsResult {
        schedule: outcome.schedule,
        lb,
        memory_cap: cap,
        marked: outcome.marked,
        guarantee: rls_guarantee(config.delta, m),
        config,
    })
}

/// Runs RLS∆ (Algorithm 2) on a precedence-constrained instance,
/// drawing every kernel buffer from `ws`; the CSR mirror, the priority
/// rank and the `O(m)` admission vector are built per call. Callers
/// that re-run one instance should hold an [`RlsEngine`] instead.
///
/// Returns an error when `∆ ≤ 2`: Lemma 4 shows that smaller values may
/// mark every processor, leaving some task impossible to place.
pub fn rls_in(
    inst: &DagInstance,
    config: &RlsConfig,
    ws: &mut KernelWorkspace,
) -> Result<RlsResult, ModelError> {
    let m = inst.m();
    let csr = inst.csr();
    let rank = config.order.rank_csr(inst.graph(), &csr);
    let mut admission = MemoryCapAdmission::new(m, f64::INFINITY);
    let lb = inst.mmax_lower_bound();
    run_cold(&csr, m, lb, &rank, *config, &mut admission, ws)
}

/// Runs RLS∆ on an *independent-task* instance (the tri-objective
/// setting of Section 5.2 and the constrained-problem procedure of
/// Section 7): the kernel runs over an edge-free CSR built straight
/// from the task set, so the schedule is the one [`rls_in`] produces
/// for the same tasks as an edgeless DAG.
pub fn rls_independent_in(
    inst: &Instance,
    config: &RlsConfig,
    ws: &mut KernelWorkspace,
) -> Result<RlsResult, ModelError> {
    let m = inst.m();
    let csr = CsrDag::edge_free(inst.tasks());
    let rank = config.order.rank_edge_free(&csr);
    let mut admission = MemoryCapAdmission::new(m, f64::INFINITY);
    let lb = memory_lb(inst.tasks(), m);
    run_cold(&csr, m, lb, &rank, *config, &mut admission, ws)
}

/// Warm-startable RLS∆ engine over one instance: runs a *chain* of ∆
/// values, warm-starting each run from a kept recorded run through the
/// kernel's checkpoint/resume support ([`CheckpointedRun`]).
///
/// The memory cap `∆·LB` grows with ∆, so at a larger ∆ the admissible
/// processor sets only grow and a run replays the kept one from the
/// first scheduling round whose admissibility verdict changes. A ∆ whose
/// cap changes no verdict replays nothing: the engine keeps its run and
/// answers from it. Every run's output is **bit-identical** to a
/// from-scratch [`rls_in`] call at the same ∆ (the differential suite
/// checks this schedule for schedule); any order of ∆ values is valid,
/// a step below the kept run's cap just runs cold.
///
/// This is the building block of the incremental ∆-sweeps in
/// [`crate::pareto_sweep`].
#[derive(Debug)]
pub struct RlsEngine {
    m: usize,
    order: PriorityOrder,
    rank: std::sync::Arc<PriorityRank>,
    /// Flat CSR mirror of the instance, built once per engine and shared
    /// with every checkpointed run of the chain.
    csr: std::sync::Arc<CsrDag>,
    /// The Graham memory lower bound, computed once (it only depends on
    /// the instance).
    lb: f64,
    /// Reusable kernel buffers: every run of this engine — warm or
    /// detached — draws its per-run state from here.
    ws: KernelWorkspace,
    /// Reusable admissibility predicate for detached runs.
    admission: MemoryCapAdmission,
    /// The recorded run warm steps start from, kept for as long as it
    /// answers them ([`CheckpointedRun::shares_at`]).
    last: Option<CheckpointedRun>,
    /// Rounds the kernel executed for the most recent
    /// [`RlsEngine::run`] (`None` before it).
    replayed: Option<usize>,
}

impl RlsEngine {
    /// An engine with no warm state yet; the first [`RlsEngine::run`]
    /// is a cold run.
    pub fn new(inst: &DagInstance, order: PriorityOrder) -> Self {
        let csr = std::sync::Arc::new(inst.csr());
        let rank = std::sync::Arc::new(order.rank_csr(inst.graph(), &csr));
        Self::with_parts(inst, order, rank, csr)
    }

    /// Like [`RlsEngine::new`], but with a precomputed priority rank for
    /// `order` on this instance and a prebuilt CSR instance mirror —
    /// lets a sweep rank and flatten the instance once for all its
    /// per-worker chains. The engine keeps no reference to `inst`.
    pub fn with_parts(
        inst: &DagInstance,
        order: PriorityOrder,
        rank: std::sync::Arc<PriorityRank>,
        csr: std::sync::Arc<CsrDag>,
    ) -> Self {
        assert_eq!(csr.n(), inst.n(), "CSR mirror must match the instance");
        let m = inst.m();
        RlsEngine {
            m,
            order,
            rank,
            csr,
            lb: inst.mmax_lower_bound(),
            ws: KernelWorkspace::with_capacity(inst.n(), m),
            admission: MemoryCapAdmission::new(m, f64::INFINITY),
            last: None,
            replayed: None,
        }
    }

    /// A second engine over the same instance that starts from this
    /// one's kept run: the same CSR, rank and lower bound, its own
    /// workspace. Its first [`RlsEngine::run`] resumes the kept run
    /// instead of running cold, which replays no more rounds than the
    /// cold run would.
    pub(crate) fn fork(&self) -> Self {
        RlsEngine {
            m: self.m,
            order: self.order,
            rank: std::sync::Arc::clone(&self.rank),
            csr: std::sync::Arc::clone(&self.csr),
            lb: self.lb,
            ws: KernelWorkspace::with_capacity(self.csr.n(), self.m),
            admission: MemoryCapAdmission::new(self.m, f64::INFINITY),
            last: self.last.clone(),
            replayed: None,
        }
    }

    /// Whether the kept run already answers `delta`: a
    /// [`RlsEngine::run`] at it would replay nothing.
    pub(crate) fn answers(&self, delta: f64) -> bool {
        let cap = delta * self.lb;
        self.last.as_ref().is_some_and(|kept| kept.shares_at(cap))
    }

    /// Runs RLS∆ at `delta`. The first run is cold. A later step at or
    /// above the kept run's cap resumes that run, replaying from the
    /// first round whose verdict changes; a step below it runs cold.
    /// When the kept run already answers `delta`, the engine keeps it
    /// and the result shares its schedule buffers: no `O(n)` copy, no
    /// kernel entry.
    pub fn run(&mut self, delta: f64) -> Result<RlsResult, ModelError> {
        validate_rls_delta(delta)?;
        let cap = delta * self.lb;
        let kept = match self.last.as_ref().filter(|kept| kept.shares_at(cap)) {
            Some(kept) => {
                self.replayed = Some(0);
                kept
            }
            None => {
                let run = match &self.last {
                    Some(kept) => kept.resume_in(cap, &mut self.ws)?,
                    None => CheckpointedRun::cold_in(
                        std::sync::Arc::clone(&self.csr),
                        self.m,
                        std::sync::Arc::clone(&self.rank),
                        cap,
                        &mut self.ws,
                    )?,
                };
                self.replayed = Some(run.replayed_rounds());
                self.last.insert(run)
            }
        };
        Ok(RlsResult {
            schedule: kept.outcome().schedule.clone(),
            lb: self.lb,
            memory_cap: cap,
            marked: kept.outcome().marked.clone(),
            guarantee: rls_guarantee(delta, self.m),
            config: RlsConfig {
                delta,
                order: self.order,
            },
        })
    }

    /// A **full from-scratch** RLS∆ run at `delta` that reuses the
    /// engine's CSR mirror, priority rank, cached lower bound and kernel
    /// workspace, but neither consults nor records the warm chain (no
    /// checkpointing overhead). This is the steady-state serving path —
    /// every scheduling round executes, with zero per-run buffer
    /// allocation. Bit-identical to [`rls_in`].
    pub fn run_detached(&mut self, delta: f64) -> Result<RlsResult, ModelError> {
        let config = RlsConfig {
            delta,
            order: self.order,
        };
        run_cold(
            &self.csr,
            self.m,
            self.lb,
            &self.rank,
            config,
            &mut self.admission,
            &mut self.ws,
        )
    }

    /// Rounds the kernel actually executed for the most recent
    /// [`RlsEngine::run`] (`n` for a cold run, `0` for a step the kept
    /// run answers); `None` before the first run. Exposed for tests and
    /// sweep telemetry.
    pub fn replayed_rounds(&self) -> Option<usize> {
        self.replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_dag::generators::{chain::chain, forkjoin::fork_join, gauss::gaussian_elimination};
    use sws_model::bounds::cmax_lower_bound_prec;
    use sws_model::validate::validate_timed;
    use sws_workloads::dagsets::{dag_workload, DagFamily};
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    fn check_feasible(inst: &DagInstance, result: &RlsResult) {
        validate_timed(
            inst.tasks(),
            inst.m(),
            &result.schedule,
            inst.graph().all_preds(),
            Some(result.memory_cap.max(result.lb)),
        )
        .expect("RLS schedule must be feasible and respect the memory cap");
    }

    #[test]
    fn rejects_delta_at_or_below_two() {
        let inst = DagInstance::new(chain(3), 2).unwrap();
        for delta in [2.0, 1.0, 0.0, -3.0, f64::NAN] {
            assert!(
                rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).is_err(),
                "∆ = {delta} must be rejected"
            );
        }
        assert!(rls_in(
            &inst,
            &RlsConfig::new(2.0 + 1e-9),
            &mut KernelWorkspace::new()
        )
        .is_ok());
    }

    #[test]
    fn chain_is_executed_sequentially_regardless_of_the_cap() {
        let inst = DagInstance::new(chain(6), 3).unwrap();
        let result = rls_in(&inst, &RlsConfig::new(3.0), &mut KernelWorkspace::new()).unwrap();
        check_feasible(&inst, &result);
        assert!((result.schedule.cmax(inst.tasks()) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn memory_cap_is_respected_on_every_processor() {
        let mut rng = seeded_rng(11);
        for family in DagFamily::all() {
            let inst = dag_workload(family, 80, 4, TaskDistribution::AntiCorrelated, &mut rng);
            for &delta in &[2.25, 3.0, 4.5] {
                let result =
                    rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
                check_feasible(&inst, &result);
                let mmax = result.objective(inst.tasks()).mmax;
                assert!(
                    mmax <= delta * result.lb + 1e-9,
                    "{}: Mmax {} exceeds ∆·LB {}",
                    family.label(),
                    mmax,
                    delta * result.lb
                );
            }
        }
    }

    #[test]
    fn corollary_3_makespan_bound_holds_against_the_lower_bound() {
        let mut rng = seeded_rng(12);
        for family in [
            DagFamily::LayeredRandom,
            DagFamily::GaussianElimination,
            DagFamily::Fft,
        ] {
            for &m in &[2usize, 4, 8] {
                let inst = dag_workload(family, 120, m, TaskDistribution::Uncorrelated, &mut rng);
                for &delta in &[2.5, 3.0, 5.0] {
                    let result =
                        rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
                    let cp = inst.critical_path_length();
                    let lb_c = cmax_lower_bound_prec(inst.tasks(), m, cp);
                    let cmax = result.schedule.cmax(inst.tasks());
                    let (gc, _gm) = result.guarantee;
                    assert!(
                        cmax <= gc * lb_c * (1.0 + 1e-9) + 1e-9,
                        "{} m={m} ∆={delta}: cmax {cmax} > {gc}·{lb_c}",
                        family.label()
                    );
                }
            }
        }
    }

    #[test]
    fn lemma_4_marked_processor_bound_holds() {
        let mut rng = seeded_rng(13);
        for &m in &[3usize, 6, 12] {
            let inst = dag_workload(
                DagFamily::LayeredRandom,
                150,
                m,
                TaskDistribution::Bimodal,
                &mut rng,
            );
            for &delta in &[2.25, 2.5, 3.0, 4.0] {
                let result =
                    rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
                assert!(
                    result.marked_count() <= result.marked_bound(),
                    "m={m} ∆={delta}: {} marked > bound {}",
                    result.marked_count(),
                    result.marked_bound()
                );
            }
        }
    }

    #[test]
    fn large_delta_reduces_to_plain_list_scheduling() {
        // With an enormous cap the restriction never bites, so the result
        // must match the unrestricted Graham DAG list scheduler.
        let inst = DagInstance::new(gaussian_elimination(6), 3).unwrap();
        let result = rls_in(&inst, &RlsConfig::new(1e9), &mut KernelWorkspace::new()).unwrap();
        let unrestricted = sws_listsched::dag_list_schedule(
            &inst,
            &sws_listsched::priority::index_priority(inst.n()),
        );
        assert!(
            (result.schedule.cmax(inst.tasks()) - unrestricted.cmax(inst.tasks())).abs() < 1e-9
        );
        assert_eq!(result.marked_count(), 0);
    }

    /// The edge-free CSR path must reproduce the DAG path on the same
    /// tasks as an edgeless graph, under every priority order (the
    /// bottom-level order maps to LPT there).
    #[test]
    fn independent_wrapper_matches_the_dag_path() {
        let inst = Instance::from_ps(
            &[5.0, 3.0, 8.0, 1.0, 2.0, 7.0],
            &[2.0, 9.0, 1.0, 6.0, 4.0, 3.0],
            3,
        )
        .unwrap();
        let dag = DagInstance::new(TaskGraph::new(inst.tasks().clone()), 3).unwrap();
        let mut ws = KernelWorkspace::new();
        for order in PriorityOrder::all() {
            let config = RlsConfig::new(3.0).with_order(order);
            let via_wrapper = rls_independent_in(&inst, &config, &mut ws).unwrap();
            let via_dag = rls_in(&dag, &config, &mut ws).unwrap();
            assert_eq!(via_wrapper.schedule, via_dag.schedule, "{}", order.label());
            assert_eq!(via_wrapper.marked, via_dag.marked, "{}", order.label());
            assert_eq!(via_wrapper.lb, via_dag.lb);
            let point = via_wrapper.objective(inst.tasks());
            assert!(point.mmax <= 3.0 * via_wrapper.lb + 1e-9);
        }
    }

    #[test]
    fn spt_order_schedules_short_tasks_first_on_independent_tasks() {
        let inst = Instance::from_ps(&[9.0, 1.0, 5.0], &[1.0, 1.0, 1.0], 1).unwrap();
        let result =
            rls_independent_in(&inst, &RlsConfig::spt(4.0), &mut KernelWorkspace::new()).unwrap();
        // On a single machine SPT starts the shortest task first.
        assert_eq!(result.schedule.start(1), 0.0);
        assert!(result.schedule.start(0) > result.schedule.start(2));
    }

    #[test]
    fn fork_join_respects_precedence_under_a_tight_cap() {
        let graph = fork_join(2, 5).with_costs(|i| sws_model::task::Task {
            p: 1.0 + (i % 3) as f64,
            s: 1.0 + (i % 4) as f64,
        });
        let inst = DagInstance::new(graph, 3).unwrap();
        let result = rls_in(&inst, &RlsConfig::new(2.25), &mut KernelWorkspace::new()).unwrap();
        check_feasible(&inst, &result);
    }

    #[test]
    fn guarantee_formula_matches_the_paper() {
        // ∆ = 3, m = 4: 2 + 1 − 2/(4·1) = 2.5.
        let (gc, gm) = rls_guarantee(3.0, 4);
        assert!((gc - 2.5).abs() < 1e-12);
        assert_eq!(gm, 3.0);
        // Substituting ∆ = 2 + ∆' must match the alternative form
        // (2 + 1/∆' − (∆'+1)/(m·∆'), 2 + ∆').
        let dprime = 1.5;
        let (gc2, gm2) = rls_guarantee(2.0 + dprime, 5);
        assert!((gc2 - (2.0 + 1.0 / dprime - (dprime + 1.0) / (5.0 * dprime))).abs() < 1e-12);
        assert!((gm2 - (2.0 + dprime)).abs() < 1e-12);
    }

    #[test]
    fn marked_bound_formula() {
        assert_eq!(lemma4_marked_bound(10, 3.0), 5);
        assert_eq!(lemma4_marked_bound(10, 6.0), 2);
        assert_eq!(lemma4_marked_bound(4, 2.5), 2);
    }

    #[test]
    fn empty_instance_yields_an_empty_schedule() {
        let inst =
            DagInstance::new(TaskGraph::new(TaskSet::from_ps(&[], &[]).unwrap()), 2).unwrap();
        let result = rls_in(&inst, &RlsConfig::new(3.0), &mut KernelWorkspace::new()).unwrap();
        assert_eq!(result.schedule.n(), 0);
        assert_eq!(result.lb, 0.0);
    }

    #[test]
    fn all_priority_orders_produce_feasible_schedules() {
        let mut rng = seeded_rng(14);
        let inst = dag_workload(DagFamily::Lu, 60, 4, TaskDistribution::Correlated, &mut rng);
        for order in PriorityOrder::all() {
            let result = rls_in(
                &inst,
                &RlsConfig::new(3.0).with_order(order),
                &mut KernelWorkspace::new(),
            )
            .unwrap();
            check_feasible(&inst, &result);
        }
    }

    /// A warm ∆ chain must reproduce the from-scratch runs bit for bit,
    /// and skip the whole replay once the cap stops binding.
    #[test]
    fn warm_chain_matches_cold_runs_exactly() {
        let mut rng = seeded_rng(16);
        let inst = dag_workload(
            DagFamily::LayeredRandom,
            90,
            4,
            TaskDistribution::AntiCorrelated,
            &mut rng,
        );
        let mut engine = RlsEngine::new(&inst, PriorityOrder::BottomLevel);
        for &delta in &[2.1, 2.25, 2.5, 3.0, 4.0, 8.0, 64.0, 65.0] {
            let warm = engine.run(delta).unwrap();
            let cold = rls_in(
                &inst,
                &RlsConfig::new(delta).with_order(PriorityOrder::BottomLevel),
                &mut KernelWorkspace::new(),
            )
            .unwrap();
            assert_eq!(warm.schedule, cold.schedule, "∆={delta}");
            assert_eq!(warm.marked, cold.marked, "∆={delta}");
            assert_eq!(warm.lb, cold.lb);
            assert_eq!(warm.memory_cap, cold.memory_cap);
        }
        // By ∆ = 65 the cap is far beyond any rejection recorded at
        // ∆ = 64, so the final resume replays nothing.
        assert_eq!(engine.replayed_rounds(), Some(0));
    }

    /// A warm run that replays nothing hands out the previous run's
    /// schedule buffers instead of a copy; a detached run builds its own.
    #[test]
    fn zero_replay_warm_runs_share_the_previous_schedule() {
        let inst = DagInstance::new(gaussian_elimination(8), 3).unwrap();
        let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
        let first = engine.run(60.0).unwrap();
        let second = engine.run(64.0).unwrap();
        assert_eq!(engine.replayed_rounds(), Some(0));
        assert!(second.schedule.shares_storage(&first.schedule));
        let detached = engine.run_detached(64.0).unwrap();
        assert_eq!(detached.schedule, second.schedule);
        assert!(!detached.schedule.shares_storage(&second.schedule));
    }

    /// A shared workspace and the detached-engine path must be
    /// bit-identical to a fresh-workspace run, including when one
    /// workspace is shared across runs over different instances.
    #[test]
    fn workspace_paths_match_the_one_shot_entry_point() {
        let mut rng = seeded_rng(17);
        let a = dag_workload(
            DagFamily::LayeredRandom,
            80,
            4,
            TaskDistribution::AntiCorrelated,
            &mut rng,
        );
        let b = dag_workload(
            DagFamily::ForkJoin,
            30,
            6,
            TaskDistribution::Bimodal,
            &mut rng,
        );
        let mut ws = sws_listsched::KernelWorkspace::new();
        for inst in [&a, &b, &a] {
            for &delta in &[2.25, 3.0, 8.0] {
                let config = RlsConfig::new(delta);
                let one_shot = rls_in(inst, &config, &mut KernelWorkspace::new()).unwrap();
                let via_ws = rls_in(inst, &config, &mut ws).unwrap();
                assert_eq!(via_ws.schedule, one_shot.schedule, "∆={delta}");
                assert_eq!(via_ws.marked, one_shot.marked, "∆={delta}");
                assert_eq!(via_ws.lb, one_shot.lb);
            }
        }
        let mut engine = RlsEngine::new(&a, PriorityOrder::Index);
        for &delta in &[2.25, 3.0, 8.0, 2.5] {
            let detached = engine.run_detached(delta).unwrap();
            let one_shot = rls_in(&a, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
            assert_eq!(detached.schedule, one_shot.schedule, "∆={delta}");
            assert_eq!(detached.marked, one_shot.marked, "∆={delta}");
        }
        // Detached runs and warm runs can interleave on one engine
        // without corrupting either path.
        let warm = engine.run(3.0).unwrap();
        let detached = engine.run_detached(3.0).unwrap();
        assert_eq!(warm.schedule, detached.schedule);
        let warm2 = engine.run(4.0).unwrap();
        assert_eq!(
            warm2.schedule,
            rls_in(&a, &RlsConfig::new(4.0), &mut KernelWorkspace::new())
                .unwrap()
                .schedule
        );
    }

    /// A step the kept run answers replays nothing and says so, also
    /// right after a step that replayed.
    #[test]
    fn a_step_after_a_replay_reports_zero_replayed_rounds() {
        let inst = dag_workload(
            DagFamily::LayeredRandom,
            120,
            16,
            TaskDistribution::Bimodal,
            &mut seeded_rng(0xBEEF),
        );
        let grid = crate::pareto_sweep::delta_grid(2.01, 16.0, 200).unwrap();
        let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
        engine.run(grid[0]).unwrap();
        let replaying = grid[1..]
            .iter()
            .copied()
            .find(|&delta| {
                engine.run(delta).unwrap();
                engine.replayed_rounds() > Some(0)
            })
            .expect("some step of the grid replays");
        let again = engine.run(replaying).unwrap();
        assert_eq!(engine.replayed_rounds(), Some(0));
        let cold = rls_in(
            &inst,
            &RlsConfig::new(replaying),
            &mut KernelWorkspace::new(),
        )
        .unwrap();
        assert_eq!(again.schedule, cold.schedule);
        assert_eq!(again.marked, cold.marked);
    }

    /// The engine keeps its run while that run answers, so a descending
    /// step that stays at or above the kept run's cap is answered warm.
    #[test]
    fn a_descending_step_above_the_kept_cap_matches_a_cold_run() {
        let inst = DagInstance::new(gaussian_elimination(8), 3).unwrap();
        let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
        let first = engine.run(60.0).unwrap();
        engine.run(64.0).unwrap();
        let down = engine.run(62.0).unwrap();
        assert_eq!(engine.replayed_rounds(), Some(0));
        assert!(down.schedule.shares_storage(&first.schedule));
        let cold = rls_in(&inst, &RlsConfig::new(62.0), &mut KernelWorkspace::new()).unwrap();
        assert_eq!(down.schedule, cold.schedule);
        assert_eq!(down.marked, cold.marked);
        assert_eq!(down.memory_cap, cold.memory_cap);
    }

    #[test]
    fn warm_chain_rejects_invalid_deltas_without_corrupting_state() {
        let inst = DagInstance::new(gaussian_elimination(5), 3).unwrap();
        let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
        let before = engine.run(3.0).unwrap();
        for bad in [2.0, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(engine.run(bad).is_err(), "∆ = {bad} must be rejected");
        }
        // The failed runs left the chain untouched.
        let after = engine.run(3.0).unwrap();
        assert_eq!(before.schedule, after.schedule);
    }
}
