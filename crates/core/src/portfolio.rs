//! The unified `Solver` backend layer and the portfolio that
//! auto-selects among the workspace's schedulers.
//!
//! Every algorithm in the workspace — the event-driven kernel
//! list-schedulers, the exact solvers, the Hochbaum–Shmoys PTAS and the
//! classic single-objective heuristics — is wrapped as a [`Solver`]
//! speaking the model-layer vocabulary of
//! `sws_model::solve`: a [`SolveRequest`] in, a [`Solution`] out. The
//! [`Portfolio`] routes each request to the *cheapest registered backend
//! that satisfies the required guarantee*, so callers never hardcode an
//! algorithm again.
//!
//! # Selection policy
//!
//! Selection is a two-step filter-then-rank, deterministic and
//! documented (see also `docs/ALGORITHMS.md`):
//!
//! 1. **Filter.** A backend *qualifies* when it structurally serves the
//!    request: objective mode, instance kind (independent / DAG), the
//!    required [`Guarantee`] level, and its own feasibility gates —
//!    `∆ > 2` for the RLS∆ backends, `m^n ≤ 2^20` for the exhaustive
//!    enumerator ([`EXACT_ENUM_WORK_LIMIT`]), `n ≤ 18` for the
//!    branch-and-bound ([`EXACT_BNB_MAX_N`]), and an affordable
//!    configuration-DP estimate for the PTAS
//!    (`sws_ptas::dp_work_affordable`, mirroring `DP_WORK_LIMIT`).
//! 2. **Rank.** Among qualifying backends the lowest rank wins (ties:
//!    registration order). Ranks encode the documented cost ladder:
//!
//!    | rank | backends |
//!    |-----:|----------|
//!    | 10   | exact, when the instance is *tiny* (`m^n ≤ 2^12`, [`EXACT_AUTO_WORK`]) — optimal answers are then cheaper than arguing about ratios |
//!    | 20–28 | classic `O(n log n)` heuristics (LPT, then MULTIFIT, then Graham) |
//!    | 30–35 | kernel schedulers (SBO∆ / RLS∆ / tri-objective RLS / DAG list / constrained search) |
//!    | 50   | PTAS (only route that *proves* `1 + ε` short of exact) |
//!    | 90   | exact, non-tiny but still inside its feasibility gates |
//!
//!    The naive `O(n²m)` RLS∆ scan is not a backend: the differential
//!    suites call it directly from the dev-only `sws_oracle` crate.
//!
//! When no backend qualifies the portfolio returns
//! [`ModelError::NoQualifiedBackend`] — e.g. an `Exact` request on a
//! 1000-task instance, an ε-optimal request whose rounding DP would not
//! fit the work limit, or any guarantee-demanding request on objective
//! modes that are provably inapproximable (the independent-task
//! memory-budget mode, Section 2.2 of the paper).
//!
//! # Zero-cost discipline
//!
//! The trait layer resolves the backend **once per request** (one
//! virtual call), never inside scheduling rounds; the kernel backends
//! delegate to the monomorphized `rls_in`/`rls_independent_in`/
//! `tri_objective_rls_in` entry points, threading a caller-supplied
//! [`KernelWorkspace`] through [`Portfolio::solve_in`] exactly like the
//! batch serving path. `tests/differential_portfolio.rs` enforces that
//! the kernel-backend path is bit-identical to calling `rls_in`
//! directly.
//!
//! The portfolio is the one serving entry: the batch path
//! (`crate::batch::BatchScheduler::run_requests`), the `sws_service`
//! runtime and the evaluation pipeline (`crate::pipeline`) all route
//! through it, and no pre-portfolio twin of a backend remains.

use sws_dag::{DagInstance, TaskGraph};
use sws_listsched::kernel::Unrestricted;
// Re-exported so downstream crates (e.g. the service layer's fault
// harness) can implement [`Solver`] without depending on the kernel
// crate directly.
pub use sws_listsched::kernel::KernelWorkspace;
use sws_listsched::priority::index_priority;
use sws_listsched::{
    event_driven_schedule_csr, graham_cmax, lpt_cmax, multifit_cmax, spt_schedule,
};
use sws_model::bounds::mmax_lower_bound;
use sws_model::error::ModelError;
use sws_model::numeric::{exceeds, finite_gt};
use sws_model::objectives::ObjectivePoint;
use sws_model::schedule::Assignment;
use sws_model::solve::{
    BackendId, BoundReport, BoundSource, CostEstimate, CostModel, Guarantee, ObjectiveMode,
    PrecedenceInstance, RequestInstance, Solution, SolveRequest, SolveStats,
};
use sws_model::Instance;

use crate::constrained::{
    solve_dag_with_memory_budget_in, solve_with_memory_budget, ConstrainedOutcome,
    DagConstrainedOutcome,
};
use crate::rls::{rls_in, rls_independent_in, RlsConfig};
use crate::sbo::{sbo, InnerAlgorithm, SboConfig};
use crate::tri::tri_objective_rls_in;

/// Exhaustive Pareto enumeration qualifies only while `m^n` stays at or
/// below this bound (`2^20 ≈ 10^6` visited assignments before symmetry
/// pruning).
pub const EXACT_ENUM_WORK_LIMIT: u64 = 1 << 20;

/// Below this `m^n` the exact solvers are preferred over every heuristic
/// (`2^12 = 4096` assignments — cheaper than reasoning about ratios).
pub const EXACT_AUTO_WORK: u64 = 1 << 12;

/// The branch-and-bound single-objective optimum qualifies up to this
/// many tasks (the `sws_exact` crate documents `n ≈ 16–20` as its
/// practical envelope).
pub const EXACT_BNB_MAX_N: usize = 18;

/// The accuracy the PTAS backend uses when a request does not pin one
/// (i.e. the required guarantee is below `EpsilonOptimal`).
pub const DEFAULT_PTAS_EPS: f64 = 0.2;

// Selection ranks — see the module docs table.
const RANK_EXACT_TINY: u32 = 10;
const RANK_LPT: u32 = 20;
const RANK_MULTIFIT: u32 = 24;
const RANK_GRAHAM: u32 = 28;
const RANK_KERNEL: u32 = 30;
const RANK_KERNEL_ALT: u32 = 35;
const RANK_PTAS: u32 = 50;
const RANK_EXACT: u32 = 90;
const RANK_SPT: u32 = 200;

/// A scheduler backend speaking the unified solver vocabulary.
///
/// [`Solver::solve_in`] is the required entry point: it threads a
/// reusable [`KernelWorkspace`] through kernel-backed algorithms
/// (backends that do not use the kernel simply ignore it and report
/// `workspace_reused = false`). [`Solver::solve`] is the one-shot
/// convenience wrapper.
pub trait Solver: Send + Sync {
    /// The backend's identity, echoed in [`SolveStats::backend`].
    fn id(&self) -> BackendId;

    /// `Some(rank)` when this backend can serve the request at its
    /// required guarantee (lower rank = preferred), `None` otherwise.
    /// Ranks follow the documented selection table; parameter *validity*
    /// (e.g. a negative ∆) is not checked here — the solve reports it.
    fn bid(&self, req: &SolveRequest) -> Option<u32>;

    /// The backend's pre-dispatch work estimate for this request, in the
    /// shared abstract work units of [`CostEstimate`] — the same scale
    /// the documented feasibility gates use (`m^n` for the exact
    /// solvers, `states × configs` for the PTAS configuration DP,
    /// `(n + e)·log n` for the kernel). Admission layers gate and rank
    /// on this *before* dispatch ([`Portfolio::plan`]); the estimate is
    /// meaningful whether or not the backend bid on the request.
    ///
    /// The default is linearithmic in `n` — the honest guess for a
    /// foreign backend that did not override it.
    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        CostEstimate::linearithmic(req.n())
    }

    /// Solves the request, drawing kernel buffers from `ws`.
    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError>;

    /// One-shot [`Solver::solve_in`] with a fresh workspace.
    fn solve(&self, req: &SolveRequest) -> Result<Solution, ModelError> {
        let mut ws = KernelWorkspace::new();
        let mut solution = self.solve_in(req, &mut ws)?;
        solution.stats.workspace_reused = false;
        Ok(solution)
    }
}

/// `m^n`, saturating — the exhaustive-enumeration work estimate the
/// exact gates use.
fn enum_work(n: usize, m: usize) -> u64 {
    let mut work: u64 = 1;
    for _ in 0..n {
        work = work.saturating_mul(m as u64);
    }
    work
}

/// A resolved precedence instance: borrowed when the request carried a
/// `DagInstance` (the common case — zero copies), rebuilt from the
/// predecessor lists for foreign [`PrecedenceInstance`] implementations.
pub(crate) enum DagRef<'a> {
    Borrowed(&'a DagInstance),
    Owned(Box<DagInstance>),
}

impl std::ops::Deref for DagRef<'_> {
    type Target = DagInstance;
    fn deref(&self) -> &DagInstance {
        match self {
            DagRef::Borrowed(d) => d,
            DagRef::Owned(d) => d,
        }
    }
}

/// An independent-task view of a request's instance: borrowed for
/// `Independent` requests, built for *edge-free* precedence requests
/// (the batch path ships independent tasks as edge-free `DagInstance`s;
/// the independent-only backends must still qualify for them, or
/// per-item selection in a mixed batch stream could never reach SBO∆ or
/// the exact solvers).
enum IndependentRef<'a> {
    Borrowed(&'a Instance),
    Owned(Box<Instance>),
}

impl std::ops::Deref for IndependentRef<'_> {
    type Target = Instance;
    fn deref(&self) -> &Instance {
        match self {
            IndependentRef::Borrowed(i) => i,
            IndependentRef::Owned(i) => i,
        }
    }
}

/// Whether the request's instance is independent-task shaped (either
/// genuinely independent or a DAG with no edges). `O(n)` for DAGs.
fn independent_shaped(req: &SolveRequest) -> bool {
    match req.instance {
        RequestInstance::Independent(_) => true,
        RequestInstance::Precedence(p) => p.preds().iter().all(|preds| preds.is_empty()),
    }
}

/// The independent-task view of the request, when one exists (see
/// [`independent_shaped`]). Edge-free DAGs cost one `TaskSet` clone.
fn independent_view<'a>(req: &SolveRequest<'a>) -> Option<IndependentRef<'a>> {
    match req.instance {
        RequestInstance::Independent(inst) => Some(IndependentRef::Borrowed(inst)),
        RequestInstance::Precedence(p) => {
            if !p.preds().iter().all(|preds| preds.is_empty()) {
                return None;
            }
            Instance::new(p.tasks().clone(), p.m())
                .ok()
                .map(|inst| IndependentRef::Owned(Box::new(inst)))
        }
    }
}

/// Number of precedence edges the request carries (`0` for independent
/// instances). `O(n)` — predecessor lists expose their lengths.
fn edge_count(req: &SolveRequest) -> usize {
    match req.instance {
        RequestInstance::Independent(_) => 0,
        RequestInstance::Precedence(p) => p.preds().iter().map(Vec::len).sum(),
    }
}

/// Recovers a concrete [`DagInstance`] from the model-layer trait object
/// (downcast first, rebuild as a fallback). Shared with the pipeline's
/// solver-generic evaluation path.
pub(crate) fn resolve_dag<'a>(p: &'a dyn PrecedenceInstance) -> Result<DagRef<'a>, ModelError> {
    if let Some(dag) = p.as_any().downcast_ref::<DagInstance>() {
        return Ok(DagRef::Borrowed(dag));
    }
    let mut edges = Vec::new();
    for (task, preds) in p.preds().iter().enumerate() {
        for &pred in preds {
            edges.push((pred, task));
        }
    }
    let graph = TaskGraph::from_edges(p.tasks().clone(), &edges)?;
    Ok(DagRef::Owned(Box::new(DagInstance::new(graph, p.m())?)))
}

/// The precedence-aware bound report for a DAG instance (critical-path
/// strengthened makespan bound), read from the bounds the instance
/// cached at construction: no traversal or fold per solve. Field for
/// field equal to
/// `BoundReport::with_critical_path(tasks, m, critical_path_length())`.
fn dag_bounds(dag: &DagInstance) -> BoundReport {
    BoundReport {
        cmax: dag.cmax_lower_bound(),
        mmax: dag.mmax_lower_bound(),
        source: BoundSource::CriticalPath,
    }
}

/// Packages an assignment-producing backend's output as a [`Solution`].
fn assignment_solution(
    inst: &Instance,
    assignment: &Assignment,
    achieved: Guarantee,
    ratio_bound: Option<(f64, f64)>,
    stats: SolveStats,
) -> Solution {
    Solution {
        schedule: assignment.into_timed(inst.tasks()),
        point: ObjectivePoint::of_assignment(inst, assignment),
        sum_ci: None,
        achieved,
        ratio_bound,
        stats,
    }
}

// ---------------------------------------------------------------------------
// Kernel backends
// ---------------------------------------------------------------------------

/// RLS∆ (Algorithm 2) on the event-driven kernel — the workhorse for
/// bi-objective requests. Serves DAGs natively and independent tasks
/// over an edge-free CSR; requires `∆ > 2` (Lemma 4).
pub struct KernelRlsBackend;

impl Solver for KernelRlsBackend {
    fn id(&self) -> BackendId {
        BackendId::KernelRls
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        let ObjectiveMode::BiObjective { delta } = req.objective else {
            return None;
        };
        if !exceeds(delta, 2.0) {
            return None;
        }
        if !Guarantee::PaperRatio.satisfies(&req.guarantee) {
            return None;
        }
        // Preferred for real DAGs (SBO∆ cannot serve them); the cheaper
        // SBO∆ routing wins on independent-shaped instances.
        Some(if independent_shaped(req) {
            RANK_KERNEL_ALT
        } else {
            RANK_KERNEL
        })
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        CostEstimate::kernel(req.n(), edge_count(req))
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let ObjectiveMode::BiObjective { delta } = req.objective else {
            return Err(req.no_backend_error());
        };
        let config = RlsConfig::new(delta);
        match req.instance {
            RequestInstance::Independent(inst) => {
                let result = rls_independent_in(inst, &config, ws)?;
                Ok(result.into_solution(
                    inst.tasks(),
                    self.id(),
                    BoundReport::identical(inst.tasks(), inst.m()),
                    true,
                ))
            }
            RequestInstance::Precedence(p) => {
                let dag = resolve_dag(p)?;
                let result = rls_in(&dag, &config, ws)?;
                Ok(result.into_solution(dag.tasks(), self.id(), dag_bounds(&dag), true))
            }
        }
    }
}

/// SBO∆ (Algorithm 1) — the preferred bi-objective backend on
/// independent tasks (any `∆ > 0`, guarantee `((1+∆)ρ, (1+1/∆)ρ)`).
pub struct SboBackend {
    /// The single-objective scheduler used for both inner schedules.
    pub inner: InnerAlgorithm,
}

impl SboBackend {
    /// The standard-registry configuration (LPT inner schedules).
    pub fn lpt() -> Self {
        SboBackend {
            inner: InnerAlgorithm::Lpt,
        }
    }
}

impl Solver for SboBackend {
    fn id(&self) -> BackendId {
        BackendId::Sbo
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        if !matches!(req.objective, ObjectiveMode::BiObjective { .. })
            || !independent_shaped(req)
            || !Guarantee::PaperRatio.satisfies(&req.guarantee)
        {
            return None;
        }
        Some(RANK_KERNEL)
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        // Two inner single-objective schedules plus the O(n) threshold
        // routing.
        let inner = CostEstimate::linearithmic(req.n());
        CostEstimate {
            work: 2.0 * inner.work + req.n() as f64,
            model: CostModel::Linearithmic,
        }
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        _ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let ObjectiveMode::BiObjective { delta } = req.objective else {
            return Err(req.no_backend_error());
        };
        let inst = independent_view(req).ok_or_else(|| req.no_backend_error())?;
        let result = sbo(&inst, &SboConfig::new(delta, self.inner))?;
        Ok(result.into_solution(&inst))
    }
}

/// RLS∆ with SPT tie-breaking (Section 5.2) — the tri-objective backend
/// on independent tasks (`∆ > 2`, Corollary 4).
pub struct KernelTriBackend;

impl Solver for KernelTriBackend {
    fn id(&self) -> BackendId {
        BackendId::KernelTriRls
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        let ObjectiveMode::TriObjective { delta } = req.objective else {
            return None;
        };
        if !exceeds(delta, 2.0)
            || !independent_shaped(req)
            || !Guarantee::PaperRatio.satisfies(&req.guarantee)
        {
            return None;
        }
        Some(RANK_KERNEL)
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        CostEstimate::kernel(req.n(), edge_count(req))
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let ObjectiveMode::TriObjective { delta } = req.objective else {
            return Err(req.no_backend_error());
        };
        let inst = independent_view(req).ok_or_else(|| req.no_backend_error())?;
        let result = tri_objective_rls_in(&inst, delta, ws)?;
        Ok(result.into_solution(&inst, true))
    }
}

/// Unrestricted Graham DAG list scheduling on the event-driven kernel —
/// the makespan-only backend for precedence-constrained instances
/// (`2 − 1/m` holds under precedence constraints).
pub struct KernelDagListBackend;

impl Solver for KernelDagListBackend {
    fn id(&self) -> BackendId {
        BackendId::KernelDagList
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        if !matches!(req.objective, ObjectiveMode::CmaxOnly)
            || !matches!(req.instance, RequestInstance::Precedence(_))
            || !Guarantee::PaperRatio.satisfies(&req.guarantee)
        {
            return None;
        }
        Some(RANK_KERNEL)
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        CostEstimate::kernel(req.n(), edge_count(req))
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let RequestInstance::Precedence(p) = req.instance else {
            return Err(req.no_backend_error());
        };
        let dag = resolve_dag(p)?;
        let csr = dag.csr();
        let rank = index_priority(dag.n());
        let outcome = event_driven_schedule_csr(&csr, dag.m(), &rank, &mut Unrestricted, ws)?;
        let m = dag.m() as f64;
        let point = ObjectivePoint::of_timed_tasks(dag.tasks(), &outcome.schedule);
        Ok(Solution {
            point,
            sum_ci: None,
            achieved: Guarantee::PaperRatio,
            ratio_bound: Some((2.0 - 1.0 / m, f64::INFINITY)),
            stats: SolveStats {
                backend: self.id(),
                rounds: outcome.schedule.n(),
                workspace_reused: true,
                bounds: dag_bounds(&dag),
                cost: None,
                attempts: 1,
            },
            schedule: outcome.schedule,
        })
    }
}

// ---------------------------------------------------------------------------
// Classic heuristics
// ---------------------------------------------------------------------------

/// Which classic single-objective heuristic a [`ClassicBackend`] wraps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassicAlgorithm {
    /// Longest Processing Time first, `4/3 − 1/(3m)`.
    Lpt,
    /// Graham list scheduling in index order, `2 − 1/m`.
    Graham,
    /// MULTIFIT, `13/11`.
    Multifit,
    /// Shortest Processing Time first — optimal on `ΣC_i`, no makespan
    /// guarantee (registered for explicit use; never auto-selected).
    Spt,
}

/// The classic `P ∥ Cmax` heuristics as portfolio backends (independent
/// tasks, makespan-only requests).
pub struct ClassicBackend {
    algorithm: ClassicAlgorithm,
}

impl ClassicBackend {
    /// Wraps the given heuristic.
    pub fn new(algorithm: ClassicAlgorithm) -> Self {
        ClassicBackend { algorithm }
    }
}

impl Solver for ClassicBackend {
    fn id(&self) -> BackendId {
        match self.algorithm {
            ClassicAlgorithm::Lpt => BackendId::Lpt,
            ClassicAlgorithm::Graham => BackendId::Graham,
            ClassicAlgorithm::Multifit => BackendId::Multifit,
            ClassicAlgorithm::Spt => BackendId::Spt,
        }
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        if !matches!(req.objective, ObjectiveMode::CmaxOnly) || !independent_shaped(req) {
            return None;
        }
        let (rank, level) = match self.algorithm {
            ClassicAlgorithm::Lpt => (RANK_LPT, Guarantee::PaperRatio),
            ClassicAlgorithm::Multifit => (RANK_MULTIFIT, Guarantee::PaperRatio),
            ClassicAlgorithm::Graham => (RANK_GRAHAM, Guarantee::PaperRatio),
            ClassicAlgorithm::Spt => (RANK_SPT, Guarantee::None),
        };
        if !level.satisfies(&req.guarantee) {
            return None;
        }
        Some(rank)
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        CostEstimate::linearithmic(req.n())
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        _ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let inst = independent_view(req).ok_or_else(|| req.no_backend_error())?;
        let inst = &*inst;
        let m = inst.m() as f64;
        let stats = SolveStats::new(self.id(), inst.n(), inst.tasks(), inst.m());
        match self.algorithm {
            ClassicAlgorithm::Lpt => Ok(assignment_solution(
                inst,
                &lpt_cmax(inst),
                Guarantee::PaperRatio,
                Some((4.0 / 3.0 - 1.0 / (3.0 * m), f64::INFINITY)),
                stats,
            )),
            ClassicAlgorithm::Graham => Ok(assignment_solution(
                inst,
                &graham_cmax(inst),
                Guarantee::PaperRatio,
                Some((2.0 - 1.0 / m, f64::INFINITY)),
                stats,
            )),
            ClassicAlgorithm::Multifit => Ok(assignment_solution(
                inst,
                &multifit_cmax(inst),
                Guarantee::PaperRatio,
                Some((13.0 / 11.0, f64::INFINITY)),
                stats,
            )),
            ClassicAlgorithm::Spt => {
                let schedule = spt_schedule(inst);
                let point = ObjectivePoint::of_timed_tasks(inst.tasks(), &schedule);
                let sum_ci = schedule.sum_completion(inst.tasks());
                Ok(Solution {
                    schedule,
                    point,
                    sum_ci: Some(sum_ci),
                    achieved: Guarantee::None,
                    ratio_bound: None,
                    stats,
                })
            }
        }
    }
}

// ---------------------------------------------------------------------------
// PTAS backend
// ---------------------------------------------------------------------------

/// The Hochbaum–Shmoys dual-approximation PTAS — the only polynomial
/// route to a *proven* `1 + ε` on the makespan. Bids for ε-optimal
/// requests only when the configuration-DP work estimate is affordable
/// (otherwise the run would silently fall back to FFD and lose the
/// guarantee — the portfolio reports `NoQualifiedBackend` instead).
pub struct PtasBackend;

impl PtasBackend {
    fn eps_for(req: &SolveRequest) -> f64 {
        match req.guarantee {
            Guarantee::EpsilonOptimal(eps) => eps,
            _ => DEFAULT_PTAS_EPS,
        }
    }
}

impl Solver for PtasBackend {
    fn id(&self) -> BackendId {
        BackendId::Ptas
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        if !matches!(req.objective, ObjectiveMode::CmaxOnly) || !independent_shaped(req) {
            return None;
        }
        match req.guarantee {
            Guarantee::Exact => None,
            Guarantee::EpsilonOptimal(eps) => {
                if !(exceeds(eps, 0.0) && exceeds(1.0, eps)) {
                    return None;
                }
                let tasks = req.tasks();
                let weights: Vec<f64> = tasks.as_slice().iter().map(|t| t.p).collect();
                if sws_ptas::dp_work_affordable(&weights, req.m(), eps) {
                    Some(RANK_PTAS)
                } else {
                    None
                }
            }
            _ => Some(RANK_PTAS),
        }
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        // The same states × configs × classes estimate the feasibility
        // gate uses (at the most conservative deadline d = LB), plus the
        // n log n sort-and-bisection scaffolding around the DP.
        let eps = Self::eps_for(req);
        let tasks = req.tasks();
        let weights: Vec<f64> = tasks.as_slice().iter().map(|t| t.p).collect();
        let dp = sws_ptas::dp_work_estimate_for(&weights, req.m().max(1), eps) as f64;
        CostEstimate {
            work: dp + CostEstimate::linearithmic(req.n()).work,
            model: CostModel::ConfigDp,
        }
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let inst = independent_view(req).ok_or_else(|| req.no_backend_error())?;
        let inst = &*inst;
        let eps = Self::eps_for(req);
        // The workspace carries the cancellation probe even though the
        // PTAS draws no buffers from it: the search polls before each
        // dual test.
        let outcome = sws_ptas::ptas_cmax_probed(inst, eps, ws.probe())?;
        // The deadline search certifies Cmax ≤ (1+ε)·d with d found in
        // [LB, 2·LB]; with exact packing throughout, d converges to (a
        // hair above) the optimum and the ε guarantee holds. An FFD
        // fallback keeps only the coarse 2(1+ε) bracket bound.
        let (achieved, ratio) = if outcome.exact_packing {
            (Guarantee::EpsilonOptimal(eps), (1.0 + eps) * (1.0 + 1e-9))
        } else {
            (Guarantee::PaperRatio, 2.0 * (1.0 + eps))
        };
        Ok(assignment_solution(
            inst,
            &outcome.assignment,
            achieved,
            Some((ratio, f64::INFINITY)),
            SolveStats::new(self.id(), inst.n(), inst.tasks(), inst.m()),
        ))
    }
}

// ---------------------------------------------------------------------------
// Exact backend
// ---------------------------------------------------------------------------

/// Exact rank for a request whose enumeration work is `work`: preferred
/// outright on tiny instances, last-resort (but available) otherwise.
fn exact_rank(work: u64) -> u32 {
    if work <= EXACT_AUTO_WORK {
        RANK_EXACT_TINY
    } else {
        RANK_EXACT
    }
}

/// Branch-and-bound optimal partitioning — the exact backend for
/// makespan-only requests on independent tasks, gated at
/// [`EXACT_BNB_MAX_N`] tasks.
pub struct ExactBnbBackend;

impl Solver for ExactBnbBackend {
    fn id(&self) -> BackendId {
        BackendId::ExactBranchBound
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        if !matches!(req.objective, ObjectiveMode::CmaxOnly)
            || req.n() > EXACT_BNB_MAX_N
            || !independent_shaped(req)
        {
            return None;
        }
        Some(exact_rank(enum_work(req.n(), req.m())))
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        CostEstimate::enumeration(enum_work(req.n(), req.m()))
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let inst = independent_view(req).ok_or_else(|| req.no_backend_error())?;
        let inst = &*inst;
        let weights: Vec<f64> = (0..inst.n()).map(|i| inst.p(i)).collect();
        let (value, assignment) =
            sws_exact::optimal_partition_probed(&weights, inst.m(), ws.probe())?;
        // The memory optimum is a second branch-and-bound over the
        // storage weights — affordable inside the same n ≤ 18 gate, and
        // it keeps the `ExactOptimum` provenance tag literally true for
        // both components of the report.
        let bounds = BoundReport {
            cmax: value,
            mmax: if inst.n() == 0 {
                0.0
            } else {
                sws_exact::optimal_mmax_probed(inst, ws.probe())?
            },
            source: BoundSource::ExactOptimum,
        };
        Ok(assignment_solution(
            inst,
            &assignment,
            Guarantee::Exact,
            Some((1.0, f64::INFINITY)),
            SolveStats {
                backend: self.id(),
                rounds: enum_work(inst.n(), inst.m()).min(usize::MAX as u64) as usize,
                workspace_reused: false,
                bounds,
                cost: None,
                attempts: 1,
            },
        ))
    }
}

/// Exhaustive bi-objective Pareto enumeration — the exact backend for
/// bi-objective and memory-budget requests on independent tasks, gated
/// at [`EXACT_ENUM_WORK_LIMIT`] assignments.
///
/// Bi-objective semantics mirror RLS∆'s cap: the returned point
/// minimizes `Cmax` subject to `Mmax ≤ ∆·LB`; when even the
/// memory-optimal point exceeds that cap, the memory-optimal point is
/// returned (the closest exact answer to the requested trade-off).
pub struct ExactEnumBackend;

impl Solver for ExactEnumBackend {
    fn id(&self) -> BackendId {
        BackendId::ExactParetoEnum
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        if !matches!(
            req.objective,
            ObjectiveMode::BiObjective { .. } | ObjectiveMode::MemoryBudget { .. }
        ) {
            return None;
        }
        let work = enum_work(req.n(), req.m());
        if work > EXACT_ENUM_WORK_LIMIT || !independent_shaped(req) {
            return None;
        }
        Some(exact_rank(work))
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        CostEstimate::enumeration(enum_work(req.n(), req.m()))
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let inst = independent_view(req).ok_or_else(|| req.no_backend_error())?;
        let inst = &*inst;
        // One enumeration serves both the budget query and the bound
        // report below.
        let front = sws_exact::pareto_front_probed(inst, ws.probe())?;
        // The per-objective exact optima are the extreme points of the
        // front — these are the bounds an exact solution reports, so
        // the `ExactOptimum` provenance tag is literally true.
        let bounds = BoundReport {
            cmax: front.best_cmax().map_or(0.0, |(pt, _)| pt.cmax),
            mmax: front.best_mmax().map_or(0.0, |(pt, _)| pt.mmax),
            source: BoundSource::ExactOptimum,
        };
        let stats = SolveStats {
            backend: BackendId::ExactParetoEnum,
            rounds: enum_work(inst.n(), inst.m()).min(usize::MAX as u64) as usize,
            workspace_reused: false,
            bounds,
            cost: None,
            attempts: 1,
        };
        match req.objective {
            ObjectiveMode::BiObjective { delta } => {
                if !finite_gt(delta, 0.0) {
                    return Err(ModelError::InvalidParameter {
                        name: "delta",
                        value: delta,
                        constraint: "∆ > 0",
                    });
                }
                let cap = delta * mmax_lower_bound_or_zero(inst);
                // Best Cmax within the cap, falling back to the
                // memory-optimal point when even it exceeds the cap.
                let chosen = sws_exact::best_in_front(&front, cap)
                    .or_else(|| front.best_mmax().map(|(pt, asg)| (*pt, asg.clone())));
                // The solution's point is recomputed from the assignment
                // (the front's accumulated point can differ in the last
                // ulps from the recomputed sums).
                let (_, assignment) = chosen.ok_or(ModelError::NoTasks)?;
                Ok(assignment_solution(
                    inst,
                    &assignment,
                    Guarantee::Exact,
                    None,
                    stats,
                ))
            }
            ObjectiveMode::MemoryBudget { budget } => {
                match sws_exact::best_in_front(&front, budget) {
                    Some((_, assignment)) => Ok(assignment_solution(
                        inst,
                        &assignment,
                        Guarantee::Exact,
                        None,
                        stats,
                    )),
                    None => Err(ModelError::BudgetNotMet {
                        best_mmax: front.best_mmax().map_or(f64::INFINITY, |(pt, _)| pt.mmax),
                        budget,
                    }),
                }
            }
            ObjectiveMode::CmaxOnly | ObjectiveMode::TriObjective { .. } => {
                Err(req.no_backend_error())
            }
        }
    }
}

/// The Graham memory bound, `0` for empty instances.
fn mmax_lower_bound_or_zero(inst: &Instance) -> f64 {
    if inst.n() == 0 {
        0.0
    } else {
        mmax_lower_bound(inst.tasks(), inst.m())
    }
}

// ---------------------------------------------------------------------------
// Constrained-search backend
// ---------------------------------------------------------------------------

/// The Section 7 budget procedures: `∆ = budget/LB` + RLS∆ on DAGs
/// (paper-ratio makespan guarantee when `budget > 2·LB`), the SBO∆
/// binary search on independent tasks (best effort — the constrained
/// problem is inapproximable, Section 2.2). Infeasibility surfaces as
/// [`ModelError::MemoryExceeded`] (provably impossible) or
/// [`ModelError::BudgetNotMet`] (not found / `∆ ≤ 2`).
pub struct ConstrainedBackend;

impl Solver for ConstrainedBackend {
    fn id(&self) -> BackendId {
        BackendId::ConstrainedSearch
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        let ObjectiveMode::MemoryBudget { budget } = req.objective else {
            return None;
        };
        let level = match req.instance {
            // The derived ∆ = budget/LB must exceed 2 for Corollary 3 to
            // apply; below that the procedure is best effort only.
            RequestInstance::Precedence(p) => {
                let tasks = p.tasks();
                let lb = if tasks.is_empty() {
                    0.0
                } else {
                    mmax_lower_bound(tasks, p.m())
                };
                if exceeds(budget, 2.0 * lb) {
                    Guarantee::PaperRatio
                } else {
                    Guarantee::None
                }
            }
            RequestInstance::Independent(_) => Guarantee::None,
        };
        if !level.satisfies(&req.guarantee) {
            return None;
        }
        Some(RANK_KERNEL)
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        match req.instance {
            // The ∆ binary search evaluates one SBO∆ run per step.
            RequestInstance::Independent(_) => {
                let per_eval = 2.0 * CostEstimate::linearithmic(req.n()).work;
                CostEstimate {
                    work: (1 + crate::constrained::BINARY_SEARCH_STEPS) as f64 * per_eval,
                    model: CostModel::InnerSearch,
                }
            }
            // The DAG procedure derives ∆ = budget/LB and runs RLS∆ once.
            RequestInstance::Precedence(_) => CostEstimate::kernel(req.n(), edge_count(req)),
        }
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let ObjectiveMode::MemoryBudget { budget } = req.objective else {
            return Err(req.no_backend_error());
        };
        match req.instance {
            RequestInstance::Independent(inst) => {
                match solve_with_memory_budget(inst, budget, InnerAlgorithm::Lpt)? {
                    ConstrainedOutcome::Feasible {
                        assignment,
                        evaluations,
                        ..
                    } => Ok(assignment_solution(
                        inst,
                        &assignment,
                        Guarantee::None,
                        None,
                        SolveStats {
                            backend: self.id(),
                            rounds: evaluations,
                            workspace_reused: false,
                            bounds: BoundReport::identical(inst.tasks(), inst.m()),
                            cost: None,
                            attempts: 1,
                        },
                    )),
                    ConstrainedOutcome::ProvablyInfeasible { max_storage } => {
                        Err(ModelError::MemoryExceeded {
                            proc: 0,
                            used: max_storage,
                            capacity: budget,
                        })
                    }
                    ConstrainedOutcome::NotFound { best_mmax, .. } => {
                        Err(ModelError::BudgetNotMet { best_mmax, budget })
                    }
                }
            }
            RequestInstance::Precedence(p) => {
                let dag = resolve_dag(p)?;
                match solve_dag_with_memory_budget_in(&dag, budget, ws)? {
                    DagConstrainedOutcome::Feasible {
                        schedule,
                        point,
                        delta,
                        makespan_guarantee,
                    } => Ok(Solution {
                        point,
                        sum_ci: None,
                        achieved: Guarantee::PaperRatio,
                        ratio_bound: Some((makespan_guarantee, delta)),
                        stats: SolveStats {
                            backend: self.id(),
                            rounds: schedule.n(),
                            workspace_reused: true,
                            bounds: dag_bounds(&dag),
                            cost: None,
                            attempts: 1,
                        },
                        schedule,
                    }),
                    DagConstrainedOutcome::ProvablyInfeasible { max_storage } => {
                        Err(ModelError::MemoryExceeded {
                            proc: 0,
                            used: max_storage,
                            capacity: budget,
                        })
                    }
                    // ∆ = budget/LB ≤ 2: RLS∆ cannot even run (Lemma 4);
                    // no schedule was evaluated.
                    DagConstrainedOutcome::NoGuarantee { .. } => Err(ModelError::BudgetNotMet {
                        best_mmax: f64::INFINITY,
                        budget,
                    }),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The portfolio
// ---------------------------------------------------------------------------

/// The routing layer's resolved plan for one request: which backend will
/// serve it, at what selection rank, and at what estimated pre-dispatch
/// cost. This is what admission layers gate on *before* any scheduling
/// work is spent (see `sws_model::policy` and the `sws_service` crate).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolvePlan {
    /// The backend [`Portfolio::select`] resolves for the request.
    pub backend: BackendId,
    /// Its selection rank (the documented cost-ladder position).
    pub rank: u32,
    /// Its pre-dispatch work estimate ([`Solver::estimate_cost`]).
    pub cost: CostEstimate,
}

/// A registry of [`Solver`] backends with guarantee-aware auto-selection
/// (see the module docs for the policy).
pub struct Portfolio {
    backends: Vec<Box<dyn Solver>>,
}

impl Default for Portfolio {
    fn default() -> Self {
        Self::standard()
    }
}

impl Portfolio {
    /// An empty registry (for custom builds).
    pub fn empty() -> Self {
        Portfolio {
            backends: Vec::new(),
        }
    }

    /// The standard registry: every scheduler of the workspace, in the
    /// documented rank order.
    pub fn standard() -> Self {
        let mut p = Portfolio::empty();
        p.register(Box::new(ExactBnbBackend));
        p.register(Box::new(ExactEnumBackend));
        p.register(Box::new(ClassicBackend::new(ClassicAlgorithm::Lpt)));
        p.register(Box::new(ClassicBackend::new(ClassicAlgorithm::Multifit)));
        p.register(Box::new(ClassicBackend::new(ClassicAlgorithm::Graham)));
        p.register(Box::new(ClassicBackend::new(ClassicAlgorithm::Spt)));
        p.register(Box::new(SboBackend::lpt()));
        p.register(Box::new(KernelRlsBackend));
        p.register(Box::new(KernelTriBackend));
        p.register(Box::new(KernelDagListBackend));
        p.register(Box::new(ConstrainedBackend));
        p.register(Box::new(PtasBackend));
        p
    }

    /// Adds a backend to the registry.
    pub fn register(&mut self, backend: Box<dyn Solver>) {
        self.backends.push(backend);
    }

    /// Rebuilds the portfolio with every backend passed through `f`,
    /// preserving registration order (selection ties keep breaking the
    /// same way). This is the instrumentation hook: wrap each backend in
    /// a decorator — e.g. the fault-injecting `FaultySolver` of the
    /// service layer's chaos harness — without re-deriving the registry.
    pub fn map_backends(self, f: impl Fn(Box<dyn Solver>) -> Box<dyn Solver>) -> Portfolio {
        Portfolio {
            backends: self.backends.into_iter().map(f).collect(),
        }
    }

    /// The registered backend with the given id, if any.
    pub fn backend(&self, id: BackendId) -> Option<&dyn Solver> {
        self.backends
            .iter()
            .map(|b| b.as_ref())
            .find(|b| b.id() == id)
    }

    /// Ids of every registered backend, in registration order.
    pub fn backend_ids(&self) -> Vec<BackendId> {
        self.backends.iter().map(|b| b.id()).collect()
    }

    /// Selects the backend that will serve `req`: the lowest-ranked
    /// qualifying bid, ties broken by registration order. Errors with
    /// [`ModelError::NoQualifiedBackend`] when nothing qualifies.
    pub fn select(&self, req: &SolveRequest) -> Result<&dyn Solver, ModelError> {
        self.select_with_rank(req).map(|(_, b)| b)
    }

    /// [`Portfolio::select`] plus the winning rank.
    fn select_with_rank(&self, req: &SolveRequest) -> Result<(u32, &dyn Solver), ModelError> {
        let mut best: Option<(u32, &dyn Solver)> = None;
        for backend in &self.backends {
            if let Some(rank) = backend.bid(req) {
                let better = match best {
                    None => true,
                    Some((best_rank, _)) => rank < best_rank,
                };
                if better {
                    best = Some((rank, backend.as_ref()));
                }
            }
        }
        best.ok_or_else(|| req.no_backend_error())
    }

    /// The id of the backend [`Portfolio::select`] would pick.
    pub fn selected(&self, req: &SolveRequest) -> Result<BackendId, ModelError> {
        self.select(req).map(|b| b.id())
    }

    /// Resolves the request **without solving it**: the selected backend
    /// plus its pre-dispatch cost estimate. This is the admission hook —
    /// a serving front calls it to gate or degrade a request before any
    /// scheduling work is spent, and the estimate is later echoed in the
    /// routed solution's [`SolveStats::cost`].
    pub fn plan(&self, req: &SolveRequest) -> Result<SolvePlan, ModelError> {
        let (rank, solver) = self.select_with_rank(req)?;
        Ok(SolvePlan {
            backend: solver.id(),
            rank,
            cost: solver.estimate_cost(req),
        })
    }

    /// Routes the request to the selected backend (one-shot workspace).
    /// The schedule is bit-identical to `self.select(req)?.solve(req)`;
    /// the routed path additionally stamps the pre-dispatch
    /// [`SolvePlan::cost`] into [`SolveStats::cost`].
    pub fn solve(&self, req: &SolveRequest) -> Result<Solution, ModelError> {
        let (_, solver) = self.select_with_rank(req)?;
        let cost = solver.estimate_cost(req);
        let mut solution = solver.solve(req)?;
        solution.stats.cost = Some(cost);
        Ok(solution)
    }

    /// Routes the request to the selected backend, threading a reusable
    /// kernel workspace — the allocation-free serving path. The schedule
    /// is bit-identical to `self.select(req)?.solve_in(req, ws)`; the
    /// routed path additionally stamps the pre-dispatch
    /// [`SolvePlan::cost`] into [`SolveStats::cost`].
    pub fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let (_, solver) = self.select_with_rank(req)?;
        let cost = solver.estimate_cost(req);
        let mut solution = solver.solve_in(req, ws)?;
        solution.stats.cost = Some(cost);
        Ok(solution)
    }

    /// [`Portfolio::solve_in`] with the selection already resolved:
    /// dispatches straight to `plan.backend` and stamps `plan.cost`,
    /// skipping the bid and estimate passes. For a `plan` produced by
    /// [`Portfolio::plan`] on the *same* request this is bit-identical
    /// to [`Portfolio::solve_in`] (selection is deterministic) — it is
    /// the admission-then-dispatch path of the service runtime, which
    /// plans every request once at admission and must not pay selection
    /// twice. Errors with the request's `NoQualifiedBackend` when the
    /// planned backend is not registered.
    pub fn solve_planned_in(
        &self,
        req: &SolveRequest,
        plan: &SolvePlan,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let solver = self
            .backend(plan.backend)
            .ok_or_else(|| req.no_backend_error())?;
        let mut solution = solver.solve_in(req, ws)?;
        solution.stats.cost = Some(plan.cost);
        Ok(solution)
    }

    /// Opens an incremental replanning session over `csr` (see
    /// [`crate::replan::ReplanEngine`]): the cold solve happens here,
    /// and every subsequent `CsrDelta` is served by warm-starting the
    /// kernel from the first affected round instead of re-routing a
    /// from-scratch request through the registry. The session's cap is
    /// fixed at open (`None` = unrestricted Graham list scheduling).
    pub fn open_replan(
        &self,
        csr: sws_dag::CsrDag,
        m: usize,
        cap: Option<f64>,
    ) -> Result<crate::replan::ReplanEngine, ModelError> {
        crate::replan::ReplanEngine::open(csr, m, cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_workloads::dagsets::{dag_workload, DagFamily};
    use sws_workloads::random::random_instance;
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    fn independent(n: usize, m: usize, seed: u64) -> Instance {
        random_instance(
            n,
            m,
            TaskDistribution::AntiCorrelated,
            &mut seeded_rng(seed),
        )
    }

    #[test]
    fn selection_follows_the_documented_thresholds() {
        let portfolio = Portfolio::standard();
        let small = independent(6, 2, 1); // 2^6 = 64 ≤ EXACT_AUTO_WORK
        let mid = independent(40, 4, 2);
        let big = independent(400, 8, 3);

        // Tiny instances route to exact even without a demanded guarantee.
        let req = SolveRequest::independent(&small, ObjectiveMode::CmaxOnly);
        assert_eq!(
            portfolio.selected(&req).unwrap(),
            BackendId::ExactBranchBound
        );

        // Mid-size makespan requests take the cheapest proven heuristic.
        let req = SolveRequest::independent(&mid, ObjectiveMode::CmaxOnly);
        assert_eq!(portfolio.selected(&req).unwrap(), BackendId::Lpt);

        // ε-optimal demands route to the PTAS when the DP is affordable.
        let req = SolveRequest::independent(&mid, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::EpsilonOptimal(0.25));
        assert_eq!(portfolio.selected(&req).unwrap(), BackendId::Ptas);

        // Exact demands outside the gates are refused.
        let req = SolveRequest::independent(&big, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::Exact);
        assert!(matches!(
            portfolio.selected(&req),
            Err(ModelError::NoQualifiedBackend { .. })
        ));

        // Bi-objective independent requests take SBO∆; ∆ > 2 keeps SBO
        // (rank 30) ahead of the independent RLS route (rank 35).
        let req = SolveRequest::independent(&mid, ObjectiveMode::BiObjective { delta: 1.0 });
        assert_eq!(portfolio.selected(&req).unwrap(), BackendId::Sbo);
        let req = SolveRequest::independent(&mid, ObjectiveMode::BiObjective { delta: 3.0 });
        assert_eq!(portfolio.selected(&req).unwrap(), BackendId::Sbo);

        // Tri-objective routes to the SPT-tie RLS kernel.
        let req = SolveRequest::independent(&mid, ObjectiveMode::TriObjective { delta: 3.0 });
        assert_eq!(portfolio.selected(&req).unwrap(), BackendId::KernelTriRls);
    }

    #[test]
    fn dag_requests_route_to_the_kernel() {
        let portfolio = Portfolio::standard();
        let mut rng = seeded_rng(7);
        let dag = dag_workload(
            DagFamily::LayeredRandom,
            80,
            4,
            TaskDistribution::AntiCorrelated,
            &mut rng,
        );
        let req = SolveRequest::precedence(&dag, ObjectiveMode::BiObjective { delta: 3.0 });
        assert_eq!(portfolio.selected(&req).unwrap(), BackendId::KernelRls);
        let req = SolveRequest::precedence(&dag, ObjectiveMode::CmaxOnly);
        assert_eq!(portfolio.selected(&req).unwrap(), BackendId::KernelDagList);
        // DAG bi-objective below ∆ = 2 has no algorithm (Lemma 4).
        let req = SolveRequest::precedence(&dag, ObjectiveMode::BiObjective { delta: 1.5 });
        assert!(portfolio.selected(&req).is_err());
        // Exact demands on DAGs are refused.
        let req = SolveRequest::precedence(&dag, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::Exact);
        assert!(portfolio.selected(&req).is_err());
    }

    #[test]
    fn portfolio_solve_matches_the_selected_backend() {
        let portfolio = Portfolio::standard();
        let inst = independent(30, 3, 11);
        for objective in [
            ObjectiveMode::CmaxOnly,
            ObjectiveMode::BiObjective { delta: 1.0 },
            ObjectiveMode::TriObjective { delta: 3.0 },
        ] {
            let req = SolveRequest::independent(&inst, objective);
            let via_portfolio = portfolio.solve(&req).unwrap();
            let direct = portfolio.select(&req).unwrap().solve(&req).unwrap();
            assert_eq!(via_portfolio.schedule, direct.schedule);
            assert_eq!(via_portfolio.point, direct.point);
            assert_eq!(via_portfolio.stats.backend, direct.stats.backend);
        }
    }

    #[test]
    fn memory_budget_requests_route_by_size_and_guarantee() {
        let portfolio = Portfolio::standard();
        let tiny = independent(6, 2, 21);
        let large = independent(60, 4, 22);
        let budget = 10.0 * mmax_lower_bound(large.tasks(), large.m());

        let req = SolveRequest::independent(&tiny, ObjectiveMode::MemoryBudget { budget });
        assert_eq!(
            portfolio.selected(&req).unwrap(),
            BackendId::ExactParetoEnum
        );

        let req = SolveRequest::independent(&large, ObjectiveMode::MemoryBudget { budget });
        assert_eq!(
            portfolio.selected(&req).unwrap(),
            BackendId::ConstrainedSearch
        );

        // The independent constrained problem is inapproximable: a
        // paper-ratio demand must be refused on non-tiny instances.
        let req = SolveRequest::independent(&large, ObjectiveMode::MemoryBudget { budget })
            .with_guarantee(Guarantee::PaperRatio);
        assert!(portfolio.selected(&req).is_err());
    }

    /// `dag_bounds` reads the bounds the instance cached; they must be
    /// the bits `BoundReport::with_critical_path` computes, on every DAG
    /// family and on an empty DAG.
    #[test]
    fn dag_bounds_match_the_critical_path_report() {
        let mut rng = seeded_rng(41);
        let mut dags: Vec<DagInstance> = DagFamily::all()
            .into_iter()
            .map(|family| dag_workload(family, 60, 4, TaskDistribution::Bimodal, &mut rng))
            .collect();
        let empty = sws_model::task::TaskSet::from_ps(&[], &[]).unwrap();
        dags.push(DagInstance::new(TaskGraph::new(empty), 3).unwrap());
        for dag in &dags {
            let cached = dag_bounds(dag);
            let computed =
                BoundReport::with_critical_path(dag.tasks(), dag.m(), dag.critical_path_length());
            assert_eq!(cached.cmax.to_bits(), computed.cmax.to_bits());
            assert_eq!(cached.mmax.to_bits(), computed.mmax.to_bits());
            assert_eq!(cached.source, computed.source);
        }
    }

    #[test]
    fn every_standard_solution_validates() {
        use sws_model::validate::validate_timed;
        let portfolio = Portfolio::standard();
        let inst = independent(24, 3, 31);
        let preds: Vec<Vec<usize>> = vec![Vec::new(); inst.n()];
        for (objective, guarantee) in [
            (ObjectiveMode::CmaxOnly, Guarantee::None),
            (ObjectiveMode::CmaxOnly, Guarantee::EpsilonOptimal(0.3)),
            (ObjectiveMode::BiObjective { delta: 1.0 }, Guarantee::None),
            (
                ObjectiveMode::BiObjective { delta: 2.5 },
                Guarantee::PaperRatio,
            ),
            (ObjectiveMode::TriObjective { delta: 3.0 }, Guarantee::None),
        ] {
            let req = SolveRequest::independent(&inst, objective).with_guarantee(guarantee);
            let solution = portfolio.solve(&req).unwrap();
            validate_timed(inst.tasks(), inst.m(), &solution.schedule, &preds, None)
                .unwrap_or_else(|e| panic!("{}: invalid schedule: {e}", solution.stats.backend));
            assert!(solution.achieved.satisfies(&guarantee));
        }
    }
}
