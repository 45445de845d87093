//! The unified solver vocabulary: one request type in, one solution type
//! out, regardless of which algorithm serves it.
//!
//! Three PRs of kernel work left the workspace with a dozen bespoke entry
//! points (`rls`/`rls_in`/`rls_independent_in`/`tri_objective_rls_in`,
//! `sbo`, the exact solvers, the PTAS, the classic heuristics), each with
//! its own signature. Serving heterogeneous request streams requires a
//! shared vocabulary instead: a [`SolveRequest`] names the instance, the
//! objective mode and the *required* [`Guarantee`]; a [`Solution`] carries
//! the schedule, the achieved objective point, the guarantee that was
//! actually delivered and the [`SolveStats`] provenance (which backend
//! ran, how many rounds, whether a caller-supplied workspace was reused,
//! and which lower bounds the ratios are reported against).
//!
//! This module is deliberately *model-level*: it depends on nothing but
//! the problem vocabulary, so every algorithm crate can speak it. The
//! portfolio layer that routes requests to backends lives in
//! `sws_core::portfolio`; precedence-constrained instances reach this
//! layer through the [`PrecedenceInstance`] trait (implemented by
//! `sws_dag::DagInstance`) so the model crate never needs to know the
//! concrete DAG types.

use std::any::Any;
use std::fmt;

use crate::bounds::{cmax_lower_bound, cmax_lower_bound_prec, mmax_lower_bound};
use crate::error::ModelError;
use crate::instance::Instance;
use crate::objectives::ObjectivePoint;
use crate::schedule::TimedSchedule;
use crate::task::TaskSet;

/// Which objectives a request asks the solver to optimize.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ObjectiveMode {
    /// Minimize the makespan only (`P ∥ Cmax` / `P | prec | Cmax`).
    CmaxOnly,
    /// The paper's bi-objective trade-off `(Cmax, Mmax)`, tuned by the
    /// trade-off parameter ∆ (SBO∆ needs `∆ > 0`, RLS∆ needs `∆ > 2`).
    BiObjective {
        /// The trade-off parameter ∆.
        delta: f64,
    },
    /// The Section 5.2 tri-objective extension `(Cmax, Mmax, ΣC_i)`,
    /// tuned by ∆ (`∆ > 2`).
    TriObjective {
        /// The trade-off parameter ∆.
        delta: f64,
    },
    /// The original industrial problem of Section 7: minimize `Cmax`
    /// subject to `Mmax ≤ budget`.
    MemoryBudget {
        /// The hard per-processor memory budget.
        budget: f64,
    },
}

impl ObjectiveMode {
    /// A short label for reports and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            ObjectiveMode::CmaxOnly => "cmax",
            ObjectiveMode::BiObjective { .. } => "bi-objective",
            ObjectiveMode::TriObjective { .. } => "tri-objective",
            ObjectiveMode::MemoryBudget { .. } => "memory-budget",
        }
    }
}

/// The guarantee level a request requires — and the level a solution
/// actually achieved.
///
/// Levels form a ladder: [`Guarantee::Exact`] satisfies every request,
/// [`Guarantee::EpsilonOptimal`] satisfies any request for a looser (or
/// equal) ε as well as `PaperRatio` and `None`, [`Guarantee::PaperRatio`]
/// satisfies `PaperRatio` and `None`, and [`Guarantee::None`] only
/// satisfies `None`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// Best effort: no proven bound required (or delivered).
    None,
    /// The paper's proven constant-factor bounds (e.g. Corollary 1 for
    /// SBO∆, Corollary 3 for RLS∆, `4/3 − 1/(3m)` for LPT).
    PaperRatio,
    /// Within `1 + ε` of the optimum on every optimized objective.
    EpsilonOptimal(f64),
    /// Provably optimal.
    Exact,
}

impl Guarantee {
    /// Whether a solution at level `self` satisfies a request demanding
    /// `required`.
    pub fn satisfies(&self, required: &Guarantee) -> bool {
        match (self, required) {
            (_, Guarantee::None) => true,
            (Guarantee::Exact, _) => true,
            (Guarantee::PaperRatio, Guarantee::PaperRatio) => true,
            (Guarantee::EpsilonOptimal(_), Guarantee::PaperRatio) => true,
            (Guarantee::EpsilonOptimal(got), Guarantee::EpsilonOptimal(want)) => got <= want,
            _ => false,
        }
    }

    /// A short label for reports and error messages.
    pub fn label(&self) -> &'static str {
        match self {
            Guarantee::None => "none",
            Guarantee::PaperRatio => "paper-ratio",
            Guarantee::EpsilonOptimal(_) => "epsilon-optimal",
            Guarantee::Exact => "exact",
        }
    }
}

/// A precedence-constrained instance, as seen by the solver layer.
///
/// `sws_dag::DagInstance` implements this; [`PrecedenceInstance::as_any`]
/// lets DAG-aware backends downcast back to the concrete type and reuse
/// its CSR mirror instead of rebuilding the graph from the predecessor
/// lists (foreign implementations fall back to the rebuild path).
///
/// `Sync` is a supertrait so that requests over borrowed instances can
/// be fanned out across worker threads (the batch serving path chunks
/// `&[SolveRequest]` across a thread pool); implementors are immutable
/// views, so this costs nothing.
pub trait PrecedenceInstance: Sync {
    /// The task set.
    fn tasks(&self) -> &TaskSet;
    /// Number of processors.
    fn m(&self) -> usize;
    /// Predecessor lists, indexed by task.
    fn preds(&self) -> &[Vec<usize>];
    /// Escape hatch for concrete-type recovery (see trait docs).
    fn as_any(&self) -> &dyn Any;
}

/// The instance a request names: independent tasks or a task DAG.
#[derive(Clone, Copy)]
pub enum RequestInstance<'a> {
    /// Independent tasks on identical processors.
    Independent(&'a Instance),
    /// Precedence-constrained tasks (see [`PrecedenceInstance`]).
    Precedence(&'a dyn PrecedenceInstance),
}

impl fmt::Debug for RequestInstance<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestInstance::Independent(inst) => f
                .debug_struct("Independent")
                .field("n", &inst.n())
                .field("m", &inst.m())
                .finish(),
            RequestInstance::Precedence(dag) => f
                .debug_struct("Precedence")
                .field("n", &dag.tasks().len())
                .field("m", &dag.m())
                .finish(),
        }
    }
}

impl<'a> RequestInstance<'a> {
    /// The task set.
    pub fn tasks(&self) -> &'a TaskSet {
        match self {
            RequestInstance::Independent(inst) => inst.tasks(),
            RequestInstance::Precedence(dag) => dag.tasks(),
        }
    }

    /// Number of tasks.
    pub fn n(&self) -> usize {
        self.tasks().len()
    }

    /// Number of processors.
    pub fn m(&self) -> usize {
        match self {
            RequestInstance::Independent(inst) => inst.m(),
            RequestInstance::Precedence(dag) => dag.m(),
        }
    }

    /// Whether the instance carries precedence constraints.
    pub fn has_precedence(&self) -> bool {
        matches!(self, RequestInstance::Precedence(_))
    }
}

/// One solve request: the instance, the objective mode and the required
/// guarantee. This is the single entry vocabulary of the portfolio layer.
#[derive(Debug, Clone, Copy)]
pub struct SolveRequest<'a> {
    /// The instance to schedule.
    pub instance: RequestInstance<'a>,
    /// Which objectives to optimize.
    pub objective: ObjectiveMode,
    /// The minimum guarantee level the caller accepts.
    pub guarantee: Guarantee,
}

impl<'a> SolveRequest<'a> {
    /// A request over independent tasks, with no required guarantee.
    pub fn independent(inst: &'a Instance, objective: ObjectiveMode) -> Self {
        SolveRequest {
            instance: RequestInstance::Independent(inst),
            objective,
            guarantee: Guarantee::None,
        }
    }

    /// A request over a precedence-constrained instance, with no required
    /// guarantee.
    pub fn precedence(dag: &'a dyn PrecedenceInstance, objective: ObjectiveMode) -> Self {
        SolveRequest {
            instance: RequestInstance::Precedence(dag),
            objective,
            guarantee: Guarantee::None,
        }
    }

    /// Replaces the required guarantee.
    pub fn with_guarantee(mut self, guarantee: Guarantee) -> Self {
        self.guarantee = guarantee;
        self
    }

    /// Number of tasks.
    pub fn n(&self) -> usize {
        self.instance.n()
    }

    /// Number of processors.
    pub fn m(&self) -> usize {
        self.instance.m()
    }

    /// The task set.
    pub fn tasks(&self) -> &'a TaskSet {
        self.instance.tasks()
    }

    /// The [`ModelError`] reported when no registered backend can serve
    /// this request at the required guarantee.
    pub fn no_backend_error(&self) -> ModelError {
        ModelError::NoQualifiedBackend {
            objective: self.objective.label(),
            guarantee: self.guarantee.label(),
            n: self.n(),
            m: self.m(),
        }
    }
}

/// Identifies the algorithm backend that produced a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendId {
    /// Event-driven kernel, unrestricted Graham DAG list scheduling.
    KernelDagList,
    /// Event-driven kernel, RLS∆ (Algorithm 2).
    KernelRls,
    /// Event-driven kernel, RLS∆ with SPT ties (Section 5.2).
    KernelTriRls,
    /// Event-driven kernel warm-started across instance deltas (the
    /// incremental replanning engine, `sws_core::replan`).
    KernelReplan,
    /// SBO∆ (Algorithm 1) over single-objective inner schedules.
    Sbo,
    /// Longest Processing Time first.
    Lpt,
    /// Graham list scheduling in index order.
    Graham,
    /// MULTIFIT.
    Multifit,
    /// Shortest Processing Time first (optimal for `P ∥ ΣC_i`).
    Spt,
    /// Hochbaum–Shmoys dual-approximation PTAS.
    Ptas,
    /// Branch-and-bound single-objective optimum.
    ExactBranchBound,
    /// Exhaustive bi-objective Pareto enumeration.
    ExactParetoEnum,
    /// Section 7 budget procedure (RLS∆ with derived ∆, or the SBO∆
    /// binary search).
    ConstrainedSearch,
}

impl BackendId {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BackendId::KernelDagList => "kernel-dag-list",
            BackendId::KernelRls => "kernel-rls",
            BackendId::KernelTriRls => "kernel-tri-rls",
            BackendId::KernelReplan => "kernel-replan",
            BackendId::Sbo => "sbo",
            BackendId::Lpt => "lpt",
            BackendId::Graham => "graham",
            BackendId::Multifit => "multifit",
            BackendId::Spt => "spt",
            BackendId::Ptas => "ptas",
            BackendId::ExactBranchBound => "exact-branch-bound",
            BackendId::ExactParetoEnum => "exact-pareto-enum",
            BackendId::ConstrainedSearch => "constrained-search",
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where a reported lower bound comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundSource {
    /// The Graham bounds on identical machines:
    /// `Cmax ≥ max(max p_i, Σp_i/m)`, `Mmax ≥ max(max s_i, Σs_i/m)`.
    GrahamIdentical,
    /// Identical machines with the critical-path strengthening
    /// `Cmax ≥ critical path length`.
    CriticalPath,
    /// The bound is the exact optimum (exact backends).
    ExactOptimum,
}

impl BoundSource {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            BoundSource::GrahamIdentical => "graham-identical",
            BoundSource::CriticalPath => "critical-path",
            BoundSource::ExactOptimum => "exact-optimum",
        }
    }
}

/// The lower bounds a solution's ratios are reported against, tagged with
/// their provenance so every backend reports comparable numbers through
/// one code path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// Lower bound on the optimal makespan.
    pub cmax: f64,
    /// Lower bound on the optimal maximum memory.
    pub mmax: f64,
    /// How the bounds were derived.
    pub source: BoundSource,
}

impl BoundReport {
    /// The Graham bounds on `m` identical machines.
    pub fn identical(tasks: &TaskSet, m: usize) -> Self {
        if tasks.is_empty() {
            return BoundReport {
                cmax: 0.0,
                mmax: 0.0,
                source: BoundSource::GrahamIdentical,
            };
        }
        BoundReport {
            cmax: cmax_lower_bound(tasks, m),
            mmax: mmax_lower_bound(tasks, m),
            source: BoundSource::GrahamIdentical,
        }
    }

    /// The identical-machine bounds strengthened by a known critical-path
    /// length (precedence-constrained instances).
    pub fn with_critical_path(tasks: &TaskSet, m: usize, critical_path: f64) -> Self {
        if tasks.is_empty() {
            return BoundReport {
                cmax: 0.0,
                mmax: 0.0,
                source: BoundSource::CriticalPath,
            };
        }
        BoundReport {
            cmax: cmax_lower_bound_prec(tasks, m, critical_path),
            mmax: mmax_lower_bound(tasks, m),
            source: BoundSource::CriticalPath,
        }
    }

    /// Achieved makespan over the reported bound (`1` when the bound is
    /// zero — an empty or zero-work instance is trivially optimal).
    pub fn cmax_ratio(&self, achieved_cmax: f64) -> f64 {
        if self.cmax > 0.0 {
            achieved_cmax / self.cmax
        } else {
            1.0
        }
    }

    /// Achieved maximum memory over the reported bound (`1` when the
    /// bound is zero).
    pub fn mmax_ratio(&self, achieved_mmax: f64) -> f64 {
        if self.mmax > 0.0 {
            achieved_mmax / self.mmax
        } else {
            1.0
        }
    }
}

/// The asymptotic cost model behind a [`CostEstimate`], tagged so
/// admission logs can explain *why* a request was considered cheap or
/// expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// `O(n log n)` sort-and-place heuristics (LPT, MULTIFIT, Graham,
    /// SPT) and the default for foreign backends.
    Linearithmic,
    /// The event-driven kernel's `O((n + e) log n)` loop.
    KernelEventDriven,
    /// Exhaustive assignment enumeration, `m^n` states (the exact
    /// backends' gate).
    Enumeration,
    /// The Hochbaum–Shmoys configuration DP, `states × configs`
    /// (`sws_ptas::Rounding::dp_work_estimate`).
    ConfigDp,
    /// An outer search multiplying an inner schedule cost (the SBO∆
    /// binary search of Section 7).
    InnerSearch,
}

impl CostModel {
    /// A short label for reports and admission logs.
    pub fn label(&self) -> &'static str {
        match self {
            CostModel::Linearithmic => "linearithmic",
            CostModel::KernelEventDriven => "kernel-event-driven",
            CostModel::Enumeration => "enumeration",
            CostModel::ConfigDp => "config-dp",
            CostModel::InnerSearch => "inner-search",
        }
    }
}

/// A backend's pre-dispatch work estimate for one request, in abstract
/// *work units* (roughly: elementary scheduling operations). Estimates
/// are comparable **across backends** — the same scale the documented
/// feasibility gates already use (`m^n` for the exact solvers,
/// `states × configs` for the PTAS configuration DP, `(n + e)·log n` for
/// the kernel) — which is what lets a service front rank backends by
/// cost and refuse or degrade a request *before* dispatching it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated work units.
    pub work: f64,
    /// The asymptotic model the estimate comes from.
    pub model: CostModel,
}

impl CostEstimate {
    /// An `n log n` estimate (the classic heuristics and the default for
    /// foreign backends).
    pub fn linearithmic(n: usize) -> Self {
        let n = n as f64;
        CostEstimate {
            work: n * (n.max(2.0)).log2(),
            model: CostModel::Linearithmic,
        }
    }

    /// The kernel's `(n + e)·log n` estimate.
    pub fn kernel(n: usize, edges: usize) -> Self {
        let size = (n + edges) as f64;
        CostEstimate {
            work: size * ((n as f64).max(2.0)).log2(),
            model: CostModel::KernelEventDriven,
        }
    }

    /// An `m^n` enumeration estimate (saturating, as the exact gates
    /// compute it).
    pub fn enumeration(states: u64) -> Self {
        CostEstimate {
            work: states as f64,
            model: CostModel::Enumeration,
        }
    }
}

/// Provenance of one solve: which backend ran and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// The backend that produced the solution.
    pub backend: BackendId,
    /// Units of work the backend reports: scheduling rounds for the
    /// kernel backends, inner-algorithm evaluations for SBO and the
    /// constrained search, dual tests for the PTAS, visited assignments
    /// for the exact solvers.
    pub rounds: usize,
    /// Whether the run drew its buffers from a caller-supplied reusable
    /// workspace (the allocation-free serving discipline of the kernel).
    pub workspace_reused: bool,
    /// The lower bounds (and their provenance) ratios are reported
    /// against.
    pub bounds: BoundReport,
    /// The pre-dispatch work estimate the routing layer gated this solve
    /// on (`None` when the backend was called directly, outside any
    /// routed path).
    pub cost: Option<CostEstimate>,
    /// How many dispatch attempts this solution took, counting the
    /// first: `1` everywhere except on a service path whose
    /// `RetryPolicy` recovered from a transient failure.
    pub attempts: u32,
}

impl SolveStats {
    /// Stats for a backend run with identical-machine Graham bounds and
    /// no reused workspace.
    pub fn new(backend: BackendId, rounds: usize, tasks: &TaskSet, m: usize) -> Self {
        SolveStats {
            backend,
            rounds,
            workspace_reused: false,
            bounds: BoundReport::identical(tasks, m),
            cost: None,
            attempts: 1,
        }
    }
}

/// The unified output: schedule, objective values, achieved guarantee and
/// provenance — regardless of which backend produced it.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The produced schedule. Assignment-only backends (SBO, the exact
    /// solvers, the classic heuristics) pack their assignment into start
    /// times processor by processor; the objective values are unaffected.
    pub schedule: TimedSchedule,
    /// Achieved `(Cmax, Mmax)`.
    pub point: ObjectivePoint,
    /// Achieved `ΣC_i`, reported by tri-objective runs.
    pub sum_ci: Option<f64>,
    /// The guarantee level the backend actually delivered (e.g. a PTAS
    /// run that had to fall back to FFD packing reports
    /// [`Guarantee::PaperRatio`] instead of the requested ε).
    pub achieved: Guarantee,
    /// The proven `(Cmax, Mmax)` approximation factors backing
    /// [`Solution::achieved`], when a ratio-style bound exists. An
    /// unconstrained objective reports `f64::INFINITY`.
    pub ratio_bound: Option<(f64, f64)>,
    /// Provenance: backend, work, workspace reuse, lower bounds.
    pub stats: SolveStats,
}

impl Solution {
    /// Achieved makespan over the reported lower bound.
    pub fn cmax_over_lb(&self) -> f64 {
        self.stats.bounds.cmax_ratio(self.point.cmax)
    }

    /// Achieved maximum memory over the reported lower bound.
    pub fn mmax_over_lb(&self) -> f64 {
        self.stats.bounds.mmax_ratio(self.point.mmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_ladder_is_ordered() {
        let exact = Guarantee::Exact;
        let eps1 = Guarantee::EpsilonOptimal(0.1);
        let eps2 = Guarantee::EpsilonOptimal(0.3);
        let paper = Guarantee::PaperRatio;
        let none = Guarantee::None;
        for g in [exact, eps1, eps2, paper, none] {
            assert!(g.satisfies(&none), "{} must satisfy none", g.label());
        }
        assert!(exact.satisfies(&eps1) && exact.satisfies(&paper) && exact.satisfies(&exact));
        assert!(eps1.satisfies(&eps2) && !eps2.satisfies(&eps1));
        assert!(eps1.satisfies(&paper) && !paper.satisfies(&eps1));
        assert!(!paper.satisfies(&exact) && !eps1.satisfies(&exact));
        assert!(!none.satisfies(&paper));
    }

    #[test]
    fn ratios_guard_zero_bounds() {
        let tasks = TaskSet::from_ps(&[], &[]).unwrap();
        let report = BoundReport::identical(&tasks, 2);
        assert_eq!(report.cmax_ratio(0.0), 1.0);
        assert_eq!(report.mmax_ratio(0.0), 1.0);
        let tasks = TaskSet::from_ps(&[2.0], &[3.0]).unwrap();
        let report = BoundReport::identical(&tasks, 2);
        assert!((report.cmax_ratio(4.0) - 2.0).abs() < 1e-12);
        assert!((report.mmax_ratio(3.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn request_accessors_and_error() {
        let inst = Instance::from_ps(&[1.0, 2.0], &[3.0, 4.0], 2).unwrap();
        let req = SolveRequest::independent(&inst, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::Exact);
        assert_eq!(req.n(), 2);
        assert_eq!(req.m(), 2);
        assert!(!req.instance.has_precedence());
        match req.no_backend_error() {
            ModelError::NoQualifiedBackend {
                objective,
                guarantee,
                n,
                m,
            } => {
                assert_eq!(objective, "cmax");
                assert_eq!(guarantee, "exact");
                assert_eq!(n, 2);
                assert_eq!(m, 2);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }
}
