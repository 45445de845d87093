//! Trade-off exploration: approximate Pareto fronts from the ∆ sweep.
//!
//! Run with:
//! ```text
//! cargo run --release --example tradeoff_explorer
//! ```
//!
//! The paper argues for absolute approximation ("the ∆ parameter tunes
//! the algorithm") rather than Pareto-set approximation. This example
//! shows what a practitioner gets by sweeping ∆: an approximate
//! trade-off curve for an independent-task batch (compared against the
//! exact Pareto front on a small instance) and for a task-graph
//! workload.

use sws_core::prelude::*;
use sws_core::rls::RlsConfig;
use sws_core::sbo::InnerAlgorithm;
use sws_exact::pareto_enum::pareto_front;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

fn main() {
    let mut rng = seeded_rng(2024);

    // ----- Small instance: the sweep vs the exact front -----------------
    let small = random_instance(12, 3, TaskDistribution::AntiCorrelated, &mut rng);
    let exact = pareto_front(&small);
    println!(
        "Exact Pareto front of a 12-task instance ({} points):",
        exact.len()
    );
    for (pt, _) in exact.iter() {
        println!("  exact   {pt}");
    }
    let curve = sbo_sweep(&small, InnerAlgorithm::Lpt, 0.125, 8.0, 17).expect("valid sweep");
    println!(
        "SBO∆ sweep (17 values of ∆) keeps {} non-dominated points:",
        curve.len()
    );
    for p in &curve {
        println!("  ∆ = {:<8.3} {}", p.delta, p.point);
    }
    println!();

    // ----- Large independent batch ---------------------------------------
    let batch = random_instance(300, 8, TaskDistribution::AntiCorrelated, &mut rng);
    let curve = sbo_sweep(&batch, InnerAlgorithm::Lpt, 0.125, 8.0, 13).expect("valid sweep");
    let lb = LowerBounds::of_instance(&batch);
    println!("Trade-off curve for a 300-task batch on 8 processors (ratios to the lower bounds):");
    for p in &curve {
        println!(
            "  ∆ = {:<8.3} Cmax/LB = {:.3}   Mmax/LB = {:.3}",
            p.delta,
            p.point.cmax / lb.cmax,
            p.point.mmax / lb.mmax
        );
    }
    println!();

    // ----- DAG workload ---------------------------------------------------
    let dag = dag_workload(
        DagFamily::GaussianElimination,
        150,
        6,
        TaskDistribution::Bimodal,
        &mut rng,
    );
    let curve = rls_sweep(&dag, &RlsConfig::new(3.0), 2.05, 12.0, 10).expect("valid sweep");
    println!(
        "RLS∆ trade-off curve for a Gaussian-elimination DAG ({} tasks, 6 processors):",
        dag.n()
    );
    for p in &curve {
        println!("  ∆ = {:<8.3} {}", p.delta, p.point);
    }
}
