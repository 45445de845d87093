//! End-to-end evaluation shared by the examples, the integration tests
//! and the benchmark harness.
//!
//! [`evaluate_solution`] takes a [`Solution`] of any portfolio
//! [`Solver`] for a [`SolveRequest`], replays its schedule through the
//! discrete-event simulator (which independently re-checks feasibility,
//! precedence and — for the RLS∆ family — the memory cap), computes the
//! reference point — exact optimum when the instance is small enough
//! for the exhaustive solvers, Graham lower bounds otherwise — and
//! packages everything into an [`EvaluationReport`] with
//! achieved-versus-guaranteed ratios. [`evaluate_request`] solves with a
//! named backend first, [`evaluate_routed`] with whatever the
//! [`Portfolio`] selects; callers that already hold a result (a warm
//! sweep point, an SBO∆ run) package it with `into_solution` and call
//! [`evaluate_solution`] directly.

use sws_exact::branch_bound::optimal_point;
use sws_model::bounds::LowerBounds;
use sws_model::error::ModelError;
use sws_model::objectives::{ObjectivePoint, TriObjectivePoint};
use sws_model::ratio::{RatioReport, Reference};
use sws_model::solve::{BackendId, RequestInstance, Solution, SolveRequest};
use sws_model::Instance;
use sws_simulator::{simulate_dag_schedule, simulate_timed};

use crate::portfolio::{resolve_dag, Portfolio, Solver};

/// Instances with at most this many tasks (and a manageable `m^n`) use
/// the exact branch-and-bound optimum as the reference point.
const EXACT_REFERENCE_MAX_N: usize = 14;
/// Upper limit on `m^n` for the exact reference.
const EXACT_REFERENCE_MAX_STATES: f64 = 1e7;

/// The aggregate outcome of one evaluated algorithm run.
#[derive(Debug, Clone)]
pub struct EvaluationReport {
    /// Short algorithm label (`"sbo"`, `"rls"`, …) plus its parameters.
    pub algorithm: String,
    /// Achieved objective values.
    pub point: ObjectivePoint,
    /// Achieved tri-objective values (sum of completion times included)
    /// when the schedule carries timing information.
    pub tri: Option<TriObjectivePoint>,
    /// Lower bounds of the instance (`ΣC_i` entry is the exact SPT value
    /// for independent tasks).
    pub lower_bounds: LowerBounds,
    /// Achieved-versus-reference ratios with the proven guarantee attached.
    pub ratio: RatioReport,
    /// Average processor utilization reported by the simulator.
    pub utilization: f64,
    /// Peak memory reported by the simulator (must equal `point.mmax`).
    pub simulated_peak_memory: f64,
    /// Number of tasks and processors, for experiment logs.
    pub n: usize,
    /// Number of processors.
    pub m: usize,
}

impl EvaluationReport {
    /// True when the achieved ratios respect the proven guarantee.
    pub fn within_guarantee(&self) -> bool {
        self.ratio.within_guarantee()
    }

    /// One CSV-ish line for experiment logs.
    pub fn summary_line(&self) -> String {
        format!(
            "{}, n={}, m={}, Cmax={:.4}, Mmax={:.4}, ratios=({:.4}, {:.4}), guarantee={}",
            self.algorithm,
            self.n,
            self.m,
            self.point.cmax,
            self.point.mmax,
            self.ratio.cmax_ratio,
            self.ratio.mmax_ratio,
            match self.ratio.guarantee {
                Some((gc, gm)) => format!("({gc:.4}, {gm:.4})"),
                None => "none".to_string(),
            }
        )
    }
}

/// Chooses the reference point of an independent-task instance: the exact
/// per-objective optimum when the exhaustive solver is affordable, the
/// Graham lower bounds otherwise.
pub fn reference_point(inst: &Instance) -> (ObjectivePoint, Reference) {
    let states = (inst.m() as f64).powi(inst.n() as i32);
    if inst.n() <= EXACT_REFERENCE_MAX_N && states <= EXACT_REFERENCE_MAX_STATES {
        (optimal_point(inst), Reference::Optimum)
    } else {
        let lb = LowerBounds::of_instance(inst);
        (ObjectivePoint::new(lb.cmax, lb.mmax), Reference::LowerBound)
    }
}

/// The memory cap a precedence solution was scheduled under, for the
/// simulator to re-check: its memory ratio bound × LB. The RLS∆
/// backends enforce exactly `∆·LB` in the kernel, and the budget
/// procedure runs RLS∆ at `∆ = budget/LB`. Every other backend either
/// claims no memory bound or bounds memory against the optimum rather
/// than LB (SBO∆ serves edge-free DAG requests), so it gets no cap.
fn scheduled_memory_cap(solution: &Solution, lb: f64) -> Option<f64> {
    let kernel_capped = matches!(
        solution.stats.backend,
        BackendId::KernelRls | BackendId::KernelTriRls | BackendId::ConstrainedSearch
    );
    let cap = solution.ratio_bound?.1 * lb;
    (kernel_capped && cap.is_finite()).then_some(cap)
}

/// Evaluates a [`Solution`] produced by any portfolio [`Solver`] for
/// `req`: replays the schedule through the discrete-event simulator
/// (re-checking feasibility — and, for DAG requests, precedence and the
/// memory cap the solution was scheduled under), computes the reference
/// point (independent tasks: exact optimum when affordable, Graham
/// lower bounds otherwise; DAGs: critical-path-aware lower bounds) and
/// packages everything into an [`EvaluationReport`] whose ratio
/// guarantee is the solution's proven [`Solution::ratio_bound`].
pub fn evaluate_solution(
    req: &SolveRequest,
    solution: &Solution,
) -> Result<EvaluationReport, ModelError> {
    let algorithm = format!(
        "{}({})",
        solution.stats.backend.label(),
        req.objective.label()
    );
    match req.instance {
        RequestInstance::Independent(inst) => {
            let sim = simulate_timed(inst, &solution.schedule, None)?;
            let (reference, kind) = reference_point(inst);
            let ratio = RatioReport::new(solution.point, reference, kind, solution.ratio_bound);
            Ok(EvaluationReport {
                algorithm,
                point: solution.point,
                tri: Some(TriObjectivePoint::new(
                    solution.point.cmax,
                    solution.point.mmax,
                    sim.sum_completion,
                )),
                lower_bounds: LowerBounds::of_instance(inst),
                ratio,
                utilization: sim.utilization,
                simulated_peak_memory: sim.peak_memory,
                n: inst.n(),
                m: inst.m(),
            })
        }
        RequestInstance::Precedence(p) => {
            let dag = resolve_dag(p)?;
            let cap = scheduled_memory_cap(solution, dag.mmax_lower_bound());
            let sim = simulate_dag_schedule(&dag, &solution.schedule, cap)?;
            let cp = dag.critical_path_length();
            let lower_bounds = LowerBounds::with_critical_path(dag.tasks(), dag.m(), cp);
            let reference = ObjectivePoint::new(lower_bounds.cmax, lower_bounds.mmax);
            let ratio = RatioReport::new(
                solution.point,
                reference,
                Reference::LowerBound,
                solution.ratio_bound,
            );
            Ok(EvaluationReport {
                algorithm,
                point: solution.point,
                tri: Some(TriObjectivePoint::new(
                    solution.point.cmax,
                    solution.point.mmax,
                    sim.sum_completion,
                )),
                lower_bounds,
                ratio,
                utilization: sim.utilization,
                simulated_peak_memory: sim.peak_memory,
                n: dag.n(),
                m: dag.m(),
            })
        }
    }
}

/// Runs any portfolio [`Solver`] on a [`SolveRequest`] and evaluates the
/// outcome end to end.
pub fn evaluate_request(
    solver: &dyn Solver,
    req: &SolveRequest,
) -> Result<(EvaluationReport, Solution), ModelError> {
    let solution = solver.solve(req)?;
    let report = evaluate_solution(req, &solution)?;
    Ok((report, solution))
}

/// [`evaluate_request`] through the portfolio's auto-selection: the
/// evaluated backend is whatever [`Portfolio::select`] resolves for the
/// request.
pub fn evaluate_routed(
    portfolio: &Portfolio,
    req: &SolveRequest,
) -> Result<(EvaluationReport, Solution), ModelError> {
    let solution = portfolio.solve(req)?;
    let report = evaluate_solution(req, &solution)?;
    Ok((report, solution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rls::{rls_in, RlsConfig};
    use crate::sbo::{sbo, InnerAlgorithm, SboConfig};
    use sws_dag::{DagInstance, TaskGraph};
    use sws_listsched::KernelWorkspace;
    use sws_model::schedule::TimedSchedule;
    use sws_model::solve::{BoundReport, Guarantee, ObjectiveMode};
    use sws_workloads::dagsets::{dag_workload, DagFamily};
    use sws_workloads::random::random_instance;
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    fn bi(delta: f64) -> ObjectiveMode {
        ObjectiveMode::BiObjective { delta }
    }

    /// Solves with the named backend of the standard portfolio and
    /// evaluates the outcome.
    fn evaluate_with(
        backend: BackendId,
        req: &SolveRequest,
    ) -> Result<(EvaluationReport, Solution), ModelError> {
        let portfolio = Portfolio::standard();
        let solver = portfolio.backend(backend).expect("registered backend");
        evaluate_request(solver, req)
    }

    #[test]
    fn small_instances_get_an_exact_reference() {
        let inst = random_instance(8, 2, TaskDistribution::Uncorrelated, &mut seeded_rng(1));
        let (_, kind) = reference_point(&inst);
        assert_eq!(kind, Reference::Optimum);
        let big = random_instance(200, 8, TaskDistribution::Uncorrelated, &mut seeded_rng(1));
        let (_, kind) = reference_point(&big);
        assert_eq!(kind, Reference::LowerBound);
    }

    #[test]
    fn sbo_report_is_internally_consistent() {
        let inst = random_instance(10, 3, TaskDistribution::AntiCorrelated, &mut seeded_rng(2));
        let req = SolveRequest::independent(&inst, bi(1.0));
        let (report, _) = evaluate_with(BackendId::Sbo, &req).unwrap();
        // Simulator and analytic evaluation must agree.
        assert!((report.simulated_peak_memory - report.point.mmax).abs() < 1e-9);
        assert_eq!(report.n, 10);
        assert_eq!(report.m, 3);
        assert!(report.utilization > 0.0 && report.utilization <= 1.0 + 1e-12);
        let direct = sbo(&inst, &SboConfig::new(1.0, InnerAlgorithm::Lpt)).unwrap();
        assert_eq!(report.point, direct.objective(&inst));
        assert!(report.summary_line().contains("sbo"));
    }

    #[test]
    fn sbo_guarantee_is_respected_against_the_exact_optimum() {
        // With the exact reference the within_guarantee check is a true
        // approximation-ratio verification of Properties 1 and 2.
        for seed in 0..8u64 {
            let inst = random_instance(
                9,
                3,
                TaskDistribution::AntiCorrelated,
                &mut seeded_rng(seed),
            );
            for &delta in &[0.5, 1.0, 2.0] {
                let req = SolveRequest::independent(&inst, bi(delta));
                let (report, _) = evaluate_with(BackendId::Sbo, &req).unwrap();
                assert_eq!(report.ratio.reference_kind, Reference::Optimum);
                assert!(
                    report.within_guarantee(),
                    "seed {seed}, ∆ {delta}: {}",
                    report.summary_line()
                );
            }
        }
    }

    #[test]
    fn rls_report_checks_the_memory_cap_through_the_simulator() {
        let mut rng = seeded_rng(3);
        let inst = dag_workload(
            DagFamily::ForkJoin,
            60,
            4,
            TaskDistribution::Bimodal,
            &mut rng,
        );
        let req = SolveRequest::precedence(&inst, bi(2.5));
        let (report, solution) = evaluate_with(BackendId::KernelRls, &req).unwrap();
        let lb = inst.mmax_lower_bound();
        assert!(report.point.mmax <= 2.5 * lb + 1e-9);
        assert!(report.within_guarantee(), "{}", report.summary_line());
        assert!(report.tri.unwrap().sum_ci > 0.0);

        // The same tasks run back to back on processor 0 in topological
        // order: precedence-feasible, but far above ∆·LB — the
        // simulator must reject it.
        let order = inst.graph().topological_order().unwrap();
        let mut start = vec![0.0; inst.n()];
        let mut t = 0.0;
        for &i in &order {
            start[i] = t;
            t += inst.tasks().get(i).p;
        }
        let serial = TimedSchedule::new(vec![0; inst.n()], start, inst.m()).unwrap();
        assert!(inst.tasks().total_storage() > 2.5 * lb);
        let overloaded = Solution {
            schedule: serial,
            ..solution
        };
        assert!(matches!(
            evaluate_solution(&req, &overloaded),
            Err(ModelError::MemoryExceeded { .. })
        ));
    }

    #[test]
    fn sbo_on_an_edge_free_dag_is_not_held_to_a_cap_against_lb() {
        // SBO∆ bounds memory against the optimum, not LB: three unit
        // storages on two processors give LB = 1.5 but Mmax ≥ 2, above
        // its memory factor × LB at ∆ = 10. Ten storage-free tasks keep
        // the instance out of the tiny exact regime.
        let mut s = vec![0.0; 13];
        s[..3].fill(1.0);
        let tasks = sws_model::task::TaskSet::from_ps(&[1.0; 13], &s).unwrap();
        let dag = DagInstance::new(TaskGraph::new(tasks), 2).unwrap();
        let req = SolveRequest::precedence(&dag, bi(10.0));
        let (report, solution) = evaluate_with(BackendId::Sbo, &req).unwrap();
        let (_, gm) = solution.ratio_bound.unwrap();
        assert!(report.point.mmax > gm * dag.mmax_lower_bound());
    }

    #[test]
    fn rls_reports_hold_across_dag_families() {
        let mut rng = seeded_rng(4);
        for family in DagFamily::all() {
            let inst = dag_workload(family, 50, 3, TaskDistribution::Uncorrelated, &mut rng);
            let req = SolveRequest::precedence(&inst, bi(3.0));
            let (report, _) = evaluate_with(BackendId::KernelRls, &req).unwrap();
            assert!(
                report.within_guarantee(),
                "{}: {}",
                family.label(),
                report.summary_line()
            );
        }
    }

    #[test]
    fn solver_generic_path_matches_the_fixed_sbo_runner() {
        let portfolio = crate::portfolio::Portfolio::standard();
        // Large enough that the reference point is the lower bound on
        // both paths (either would switch to the exact reference at
        // n ≤ 14).
        let inst = random_instance(40, 3, TaskDistribution::AntiCorrelated, &mut seeded_rng(9));
        let delta = 1.5;
        let req = SolveRequest::independent(&inst, bi(delta)).with_guarantee(Guarantee::PaperRatio);
        let (generic, solution) = evaluate_routed(&portfolio, &req).unwrap();
        let direct = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Lpt)).unwrap();
        let fixed = evaluate_solution(&req, &direct.into_solution(&inst)).unwrap();
        assert_eq!(generic.point, fixed.point);
        assert_eq!(generic.ratio.cmax_ratio, fixed.ratio.cmax_ratio);
        assert_eq!(generic.ratio.mmax_ratio, fixed.ratio.mmax_ratio);
        assert_eq!(generic.ratio.guarantee, fixed.ratio.guarantee);
        assert_eq!(generic.simulated_peak_memory, fixed.simulated_peak_memory);
        assert_eq!(generic.utilization, fixed.utilization);
        assert_eq!(generic.tri.unwrap().sum_ci, fixed.tri.unwrap().sum_ci);
        assert_eq!(solution.stats.backend, BackendId::Sbo);
    }

    #[test]
    fn solver_generic_path_matches_the_fixed_rls_runner() {
        let portfolio = crate::portfolio::Portfolio::standard();
        let mut rng = seeded_rng(10);
        let dag = dag_workload(
            DagFamily::LayeredRandom,
            70,
            4,
            TaskDistribution::AntiCorrelated,
            &mut rng,
        );
        let delta = 3.0;
        let req = SolveRequest::precedence(&dag, bi(delta)).with_guarantee(Guarantee::PaperRatio);
        let (generic, solution) = evaluate_routed(&portfolio, &req).unwrap();
        assert_eq!(solution.stats.backend, BackendId::KernelRls);
        let direct = rls_in(&dag, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
        let bounds =
            BoundReport::with_critical_path(dag.tasks(), dag.m(), dag.critical_path_length());
        let direct = direct.into_solution(dag.tasks(), BackendId::KernelRls, bounds, false);
        let fixed = evaluate_solution(&req, &direct).unwrap();
        assert_eq!(generic.point, fixed.point);
        assert_eq!(generic.ratio.cmax_ratio, fixed.ratio.cmax_ratio);
        assert_eq!(generic.ratio.mmax_ratio, fixed.ratio.mmax_ratio);
        assert_eq!(generic.ratio.guarantee, fixed.ratio.guarantee);
        assert_eq!(generic.lower_bounds.cmax, fixed.lower_bounds.cmax);
        assert_eq!(generic.simulated_peak_memory, fixed.simulated_peak_memory);
        assert_eq!(generic.utilization, fixed.utilization);
        assert!(generic.within_guarantee());
    }

    #[test]
    fn invalid_parameters_propagate_as_errors() {
        let inst = random_instance(6, 2, TaskDistribution::Correlated, &mut seeded_rng(5));
        let req = SolveRequest::independent(&inst, bi(0.0));
        assert!(evaluate_with(BackendId::Sbo, &req).is_err());
        let mut rng = seeded_rng(6);
        let dag = dag_workload(
            DagFamily::Diamond,
            20,
            2,
            TaskDistribution::Correlated,
            &mut rng,
        );
        let req = SolveRequest::precedence(&dag, bi(2.0));
        assert!(evaluate_with(BackendId::KernelRls, &req).is_err());
    }
}
