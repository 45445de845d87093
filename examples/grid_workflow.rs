//! Grid-computing workflow scenario (the paper's scientific-computation
//! motivation: tasks store their results, users also want early results).
//!
//! Run with:
//! ```text
//! cargo run --release --example grid_workflow
//! ```
//!
//! Part 1 schedules a precedence-constrained workflow (a layered random
//! DAG standing in for a physics production pipeline) with RLS∆ and shows
//! how the makespan/memory trade-off moves with ∆. Part 2 schedules an
//! independent batch with the tri-objective algorithm of Section 5.2,
//! which additionally keeps the mean completion time low so early results
//! come back quickly.

use sws_core::pipeline::{evaluate_request, evaluate_solution};
use sws_core::prelude::*;
use sws_core::rls::{PriorityOrder, RlsEngine};
use sws_core::tri::corollary4_guarantee;
use sws_model::solve::{BackendId, BoundReport, ObjectiveMode, SolveRequest};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::grid::grid_workload;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

fn main() {
    // ----- Part 1: the workflow DAG -------------------------------------
    let mut rng = seeded_rng(77);
    let workflow = dag_workload(
        DagFamily::LayeredRandom,
        120,
        8,
        TaskDistribution::AntiCorrelated,
        &mut rng,
    );
    println!(
        "Workflow DAG: {} tasks, {} dependencies, {} processors, critical path {:.1}",
        workflow.n(),
        workflow.graph().edge_count(),
        workflow.m(),
        workflow.graph().critical_path_length()
    );
    println!("RLS∆ sweep (bottom-level priority):");
    println!(
        "  {:>6}  {:>10}  {:>10}  {:>12}  {:>12}",
        "∆", "Cmax", "Mmax", "Cmax ratio", "Mmax ratio"
    );
    let mut engine = RlsEngine::new(&workflow, PriorityOrder::BottomLevel);
    let bounds = BoundReport::with_critical_path(
        workflow.tasks(),
        workflow.m(),
        workflow.critical_path_length(),
    );
    for &delta in &[2.25, 2.5, 3.0, 4.0, 6.0, 10.0] {
        let result = engine.run(delta).expect("∆ > 2 is valid");
        let solution = result.into_solution(workflow.tasks(), BackendId::KernelRls, bounds, true);
        let req = SolveRequest::precedence(&workflow, ObjectiveMode::BiObjective { delta });
        let report = evaluate_solution(&req, &solution).expect("a valid schedule");
        println!(
            "  {:>6.2}  {:>10.1}  {:>10.1}  {:>12.3}  {:>12.3}",
            delta,
            report.point.cmax,
            report.point.mmax,
            report.ratio.cmax_ratio,
            report.ratio.mmax_ratio
        );
    }
    println!();

    // ----- Part 2: the independent analysis batch -----------------------
    let batch = grid_workload(16, &mut rng);
    let lb = LowerBounds::of_instance(&batch);
    println!(
        "Analysis batch: {} independent jobs on {} workers (ΣCi optimum = {:.1})",
        batch.n(),
        batch.m(),
        lb.sum_ci
    );

    // A plain bi-objective schedule ignores the mean completion time...
    let portfolio = Portfolio::standard();
    let sbo_backend = portfolio.backend(BackendId::Sbo).expect("registered");
    let req = SolveRequest::independent(&batch, ObjectiveMode::BiObjective { delta: 1.0 });
    let (sbo_report, _) = evaluate_request(sbo_backend, &req).expect("valid parameters");
    println!(
        "  SBO∆=1 (LPT):        Cmax = {:.1}, Mmax = {:.1}, ΣCi = {:.1}",
        sbo_report.point.cmax,
        sbo_report.point.mmax,
        sbo_report.tri.map(|t| t.sum_ci).unwrap_or(0.0)
    );

    // ...while the tri-objective algorithm also guarantees ΣCi. The
    // requests go through the unified portfolio, which routes them to
    // the SPT-tie RLS∆ kernel backend.
    for &delta in &[2.5, 4.0] {
        let req = SolveRequest::independent(&batch, ObjectiveMode::TriObjective { delta })
            .with_guarantee(Guarantee::PaperRatio);
        let solution = portfolio.solve(&req).expect("∆ > 2 is valid");
        let sum_ci = solution.sum_ci.expect("tri backends report ΣCi");
        let guarantee = corollary4_guarantee(delta, batch.m());
        println!(
            "  tri-RLS ∆={delta:<4}:      Cmax = {:.1}, Mmax = {:.1}, ΣCi = {:.1}  (ratios {:.3}, {:.3}, {:.3}; guarantees {:.2}, {:.2}, {:.2})",
            solution.point.cmax,
            solution.point.mmax,
            sum_ci,
            solution.cmax_over_lb(),
            solution.mmax_over_lb(),
            if lb.sum_ci > 0.0 { sum_ci / lb.sum_ci } else { 1.0 },
            guarantee.0,
            guarantee.1,
            guarantee.2,
        );
    }
}
