//! Integration test: the full SBO∆ pipeline across crates — workload
//! generation (`sws-workloads`), inner schedulers (`sws-listsched`,
//! `sws-ptas`), the algorithm (`sws-core`), exact references
//! (`sws-exact`), simulation (`sws-simulator`) and the experiment harness
//! (`sws-bench`).

use sws_bench::e1_sbo::{run as run_e1, E1Config};
use sws_core::pipeline::evaluate_solution;
use sws_core::sbo::{corollary1_guarantee, sbo, InnerAlgorithm, SboConfig};
use sws_exact::branch_bound::{optimal_cmax, optimal_mmax};
use sws_model::objectives::ObjectivePoint;
use sws_model::solve::{ObjectiveMode, SolveRequest};
use sws_model::validate::validate_assignment;
use sws_model::Instance;
use sws_simulator::simulate_assignment;
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

fn anti_correlated(n: usize, m: usize, seed: u64) -> Instance {
    random_instance(
        n,
        m,
        TaskDistribution::AntiCorrelated,
        &mut seeded_rng(seed),
    )
}

#[test]
fn sbo_schedules_are_feasible_and_simulate_to_the_same_objectives() {
    for seed in 0..5u64 {
        let inst = anti_correlated(40, 4, seed);
        for inner in [
            InnerAlgorithm::Graham,
            InnerAlgorithm::Lpt,
            InnerAlgorithm::Multifit,
        ] {
            for &delta in &[0.25, 1.0, 4.0] {
                let result = sbo(&inst, &SboConfig::new(delta, inner)).unwrap();
                validate_assignment(&inst, &result.assignment, None).unwrap();
                let analytic = result.objective(&inst);
                let sim = simulate_assignment(&inst, &result.assignment, None).unwrap();
                assert!((sim.makespan - analytic.cmax).abs() < 1e-9);
                assert!((sim.peak_memory - analytic.mmax).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn properties_1_and_2_hold_against_the_exact_optima() {
    // On instances small enough for branch and bound, the guarantee
    // ((1+∆)ρ1, (1+1/∆)ρ2) is verified against the true optima.
    for seed in 0..6u64 {
        let inst = anti_correlated(10, 3, seed);
        let c_star = optimal_cmax(&inst);
        let m_star = optimal_mmax(&inst);
        for &delta in &[0.5, 1.0, 2.0] {
            let result = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Lpt)).unwrap();
            let point = result.objective(&inst);
            let (gc, gm) = result.guarantee;
            assert!(point.cmax <= gc * c_star + 1e-9, "seed {seed} ∆ {delta}");
            assert!(point.mmax <= gm * m_star + 1e-9, "seed {seed} ∆ {delta}");
        }
    }
}

#[test]
fn corollary_1_with_the_ptas_inner_algorithm() {
    // The (1 + ∆ + ε, 1 + 1/∆ + ε) family of Corollary 1: the PTAS-backed
    // SBO must respect the headline guarantee against the exact optima.
    let eps = 0.25;
    for seed in 0..3u64 {
        let inst = anti_correlated(12, 2, seed);
        let c_star = optimal_cmax(&inst);
        let m_star = optimal_mmax(&inst);
        for &delta in &[0.5, 1.0, 2.0] {
            let result = sbo(&inst, &SboConfig::corollary1(delta, eps)).unwrap();
            let point = result.objective(&inst);
            let (gc, gm) = corollary1_guarantee(delta, eps);
            assert!(
                point.cmax <= gc * c_star + 1e-9,
                "seed {seed} ∆ {delta}: {} > {gc}·{c_star}",
                point.cmax
            );
            assert!(
                point.mmax <= gm * m_star + 1e-9,
                "seed {seed} ∆ {delta}: {} > {gm}·{m_star}",
                point.mmax
            );
        }
    }
}

#[test]
fn the_symmetry_of_the_independent_task_problem_is_preserved() {
    // Swapping p and s and replacing ∆ by 1/∆ mirrors the objective point
    // (Section 2.1: with independent tasks the objectives are exchangeable).
    let inst = anti_correlated(30, 3, 11);
    for &delta in &[0.25, 1.0, 4.0] {
        let a = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Graham)).unwrap();
        let b = sbo(
            &inst.swapped(),
            &SboConfig::new(1.0 / delta, InnerAlgorithm::Graham),
        )
        .unwrap();
        let pa = a.objective(&inst);
        let pb = b.objective(&inst.swapped());
        assert!((pa.cmax - pb.mmax).abs() < 1e-9);
        assert!((pa.mmax - pb.cmax).abs() < 1e-9);
    }
}

#[test]
fn extreme_deltas_recover_the_single_objective_schedules() {
    let inst = anti_correlated(25, 4, 13);
    let tiny = sbo(&inst, &SboConfig::new(1e-9, InnerAlgorithm::Lpt)).unwrap();
    assert_eq!(tiny.assignment, tiny.pi1);
    let huge = sbo(&inst, &SboConfig::new(1e9, InnerAlgorithm::Lpt)).unwrap();
    assert_eq!(huge.assignment, huge.pi2);
    // And the corresponding objectives coincide with the dedicated
    // single-objective runs.
    let lpt_c = ObjectivePoint::of_assignment(&inst, &sws_listsched::lpt_cmax(&inst));
    assert!(
        (ObjectivePoint::of_assignment(&inst, &tiny.assignment).cmax - lpt_c.cmax).abs() < 1e-9
    );
}

#[test]
fn the_e1_experiment_harness_reports_guarantees_respected() {
    let rows = run_e1(&E1Config::smoke());
    assert!(!rows.is_empty());
    assert!(rows.iter().all(|r| r.within_guarantee));
    // The evaluation pipeline agrees with a direct call on one cell.
    let inst = anti_correlated(12, 2, 99);
    let result = sbo(&inst, &SboConfig::new(1.0, InnerAlgorithm::Lpt)).unwrap();
    let point = result.objective(&inst);
    let req = SolveRequest::independent(&inst, ObjectiveMode::BiObjective { delta: 1.0 });
    let report = evaluate_solution(&req, &result.into_solution(&inst)).unwrap();
    assert_eq!(report.point, point);
    assert!(report.within_guarantee());
}
