//! Quickstart: the paper's algorithms on a small hand-built instance.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example builds a small independent-task instance whose processing
//! times and memory requirements are anti-correlated (the regime where the
//! bi-objective trade-off matters), runs SBO∆ for several values of ∆,
//! compares the achieved points with the exact Pareto front, and finishes
//! with RLS∆ on a small task graph.

use sws_core::prelude::*;
use sws_core::rls::{rls_in, RlsConfig};
use sws_core::sbo::{sbo, InnerAlgorithm, SboConfig};
use sws_dag::generators::gauss::gaussian_elimination;
use sws_dag::DagInstance;
use sws_exact::pareto_enum::pareto_front;

fn main() {
    // An instance with anti-correlated time and memory requirements: long
    // tasks are cheap to store, short tasks are expensive.
    let inst = Instance::from_ps(
        &[8.0, 6.0, 1.0, 1.0, 4.0, 2.0, 7.0, 3.0],
        &[1.0, 2.0, 7.0, 9.0, 3.0, 5.0, 1.5, 6.0],
        3,
    )
    .expect("valid instance");
    let lb = LowerBounds::of_instance(&inst);
    println!("Instance: n = {}, m = {}", inst.n(), inst.m());
    println!(
        "Graham lower bounds: Cmax ≥ {:.3}, Mmax ≥ {:.3}\n",
        lb.cmax, lb.mmax
    );

    // The exact bi-objective Pareto front (affordable at this size).
    let front = pareto_front(&inst);
    println!("Exact Pareto front ({} points):", front.len());
    for (pt, _) in front.iter() {
        println!("  {pt}");
    }
    println!();

    // SBO∆ trades the two objectives through the single parameter ∆.
    println!("SBO∆ with LPT inner schedules:");
    for &delta in &[0.25, 0.5, 1.0, 2.0, 4.0] {
        let result =
            sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Lpt)).expect("∆ > 0 is valid");
        let point = result.objective(&inst);
        let (gc, gm) = result.guarantee;
        println!(
            "  ∆ = {delta:<5} -> {point}   guarantee ({gc:.2}, {gm:.2}), {} task(s) routed to the memory schedule",
            result.memory_routed_count()
        );
    }
    println!();

    // RLS∆ handles precedence constraints: schedule a Gaussian-elimination
    // task graph under a memory cap of 3·LB.
    let dag = DagInstance::new(gaussian_elimination(5), 3).expect("valid DAG instance");
    let mut ws = KernelWorkspace::new();
    let result = rls_in(&dag, &RlsConfig::new(3.0), &mut ws).expect("∆ > 2 is valid");
    let point = ObjectivePoint::of_timed_tasks(dag.tasks(), &result.schedule);
    let (gc, gm) = result.guarantee;
    println!(
        "RLS∆ on a Gaussian-elimination DAG (n = {}, m = {}):",
        dag.n(),
        dag.m()
    );
    println!(
        "  memory lower bound LB = {:.3}, cap ∆·LB = {:.3}",
        result.lb, result.memory_cap
    );
    println!("  achieved {point}");
    println!(
        "  guarantee ({gc:.3}, {gm:.3}); marked processors: {} (bound {})",
        result.marked_count(),
        result.marked_bound()
    );
    println!();

    // The unified entry point: a `SolveRequest` names the instance, the
    // objective mode and the required guarantee; the portfolio picks the
    // cheapest backend that satisfies it. At n = 8, m = 3 the instance
    // sits just above the auto-exact threshold (3^8 > 2^12), so best
    // effort routes to the cheap heuristics and exactness must be asked
    // for explicitly — see docs/ALGORITHMS.md for the full policy.
    let portfolio = Portfolio::standard();
    println!("Portfolio routing for the same 8-task instance:");
    for (label, request) in [
        (
            "Cmax, best effort     ",
            SolveRequest::independent(&inst, ObjectiveMode::CmaxOnly),
        ),
        (
            "Cmax, exact           ",
            SolveRequest::independent(&inst, ObjectiveMode::CmaxOnly)
                .with_guarantee(Guarantee::Exact),
        ),
        (
            "bi-objective ∆ = 1    ",
            SolveRequest::independent(&inst, ObjectiveMode::BiObjective { delta: 1.0 }),
        ),
    ] {
        let solution = portfolio.solve(&request).expect("a backend qualifies");
        println!(
            "  {label} -> {:<18} {}   (achieved guarantee: {})",
            solution.stats.backend.label(),
            solution.point,
            solution.achieved.label()
        );
    }
    let dag_request = SolveRequest::precedence(&dag, ObjectiveMode::BiObjective { delta: 3.0 });
    let solution = portfolio.solve(&dag_request).expect("∆ > 2 is valid");
    println!(
        "  DAG, bi-objective ∆ = 3 -> {:<14} {}   (same schedule as rls_in(): {})",
        solution.stats.backend.label(),
        solution.point,
        solution.schedule == result.schedule
    );
}
