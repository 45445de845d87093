//! Integration test: the full RLS∆ pipeline across crates — DAG
//! generation, the restricted list scheduler, the simulator's independent
//! feasibility re-check and the experiment harness.

use sws_bench::e2_rls::{run as run_e2, E2Config};
use sws_core::pipeline::evaluate_solution;
use sws_core::rls::{lemma4_marked_bound, rls_in, rls_independent_in, PriorityOrder, RlsConfig};
use sws_dag::{DagInstance, TaskGraph};
use sws_listsched::dag_list_schedule;
use sws_listsched::priority::index_priority;
use sws_listsched::KernelWorkspace;
use sws_model::bounds::{cmax_lower_bound_prec, mmax_lower_bound};
use sws_model::objectives::ObjectivePoint;
use sws_model::solve::{BackendId, BoundReport, ObjectiveMode, SolveRequest};
use sws_model::validate::validate_timed;
use sws_model::Instance;
use sws_simulator::simulate_dag_schedule;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

#[test]
fn rls_schedules_every_dag_family_feasibly_and_caps_memory() {
    let mut rng = seeded_rng(21);
    for family in DagFamily::all() {
        let inst = dag_workload(family, 100, 4, TaskDistribution::Bimodal, &mut rng);
        for &delta in &[2.25, 3.0, 6.0] {
            let result =
                rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
            validate_timed(
                inst.tasks(),
                inst.m(),
                &result.schedule,
                inst.graph().all_preds(),
                Some(delta * result.lb),
            )
            .unwrap_or_else(|e| panic!("{}: ∆ = {delta}: {e}", family.label()));
            // The simulator re-checks precedence and memory independently.
            let sim = simulate_dag_schedule(&inst, &result.schedule, Some(delta * result.lb))
                .unwrap_or_else(|e| {
                    panic!("{}: simulator rejected the schedule: {e}", family.label())
                });
            assert!((sim.makespan - result.schedule.cmax(inst.tasks())).abs() < 1e-9);
        }
    }
}

#[test]
fn corollary_2_and_3_hold_across_the_grid() {
    let mut rng = seeded_rng(22);
    for family in [DagFamily::LayeredRandom, DagFamily::Fft, DagFamily::Diamond] {
        for &m in &[2usize, 4, 8] {
            let inst = dag_workload(family, 120, m, TaskDistribution::Uncorrelated, &mut rng);
            let cp = inst.graph().critical_path_length();
            let lb_c = cmax_lower_bound_prec(inst.tasks(), m, cp);
            let lb_m = mmax_lower_bound(inst.tasks(), m);
            for &delta in &[2.5, 3.0, 4.0] {
                let result =
                    rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
                let point = ObjectivePoint::of_timed_tasks(inst.tasks(), &result.schedule);
                let (gc, gm) = result.guarantee;
                assert!(
                    point.cmax <= gc * lb_c + 1e-9,
                    "{} m={m} ∆={delta}",
                    family.label()
                );
                assert!(
                    point.mmax <= gm * lb_m + 1e-9,
                    "{} m={m} ∆={delta}",
                    family.label()
                );
                assert!(result.marked_count() <= lemma4_marked_bound(m, delta));
            }
        }
    }
}

#[test]
fn restriction_costs_at_most_the_proven_factor_over_the_unrestricted_baseline() {
    // RLS∆ can be slower than plain Graham list scheduling (it refuses
    // memory-heavy placements), but never beyond the proven ratio between
    // their respective bounds.
    let mut rng = seeded_rng(23);
    let inst = dag_workload(
        DagFamily::LayeredRandom,
        150,
        6,
        TaskDistribution::AntiCorrelated,
        &mut rng,
    );
    let baseline = dag_list_schedule(&inst, &index_priority(inst.n()));
    let baseline_cmax = baseline.cmax(inst.tasks());
    for &delta in &[2.25, 3.0, 10.0] {
        let result = rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
        let cmax = result.schedule.cmax(inst.tasks());
        let (gc, _) = result.guarantee;
        // Both are ≥ LB, and RLS is within gc·LB, so it is within
        // gc × the baseline as well.
        assert!(cmax <= gc * baseline_cmax + 1e-9, "∆ = {delta}");
    }
    // With an effectively unlimited cap the two coincide.
    let unlimited = rls_in(&inst, &RlsConfig::new(1e9), &mut KernelWorkspace::new()).unwrap();
    assert!((unlimited.schedule.cmax(inst.tasks()) - baseline_cmax).abs() < 1e-9);
}

#[test]
fn independent_tasks_are_a_special_case_of_the_dag_path() {
    let inst = Instance::from_ps(
        &[4.0, 2.0, 9.0, 3.0, 7.0, 1.0, 5.0],
        &[3.0, 8.0, 1.0, 6.0, 2.0, 9.0, 4.0],
        3,
    )
    .unwrap();
    let dag = DagInstance::new(TaskGraph::new(inst.tasks().clone()), 3).unwrap();
    for order in PriorityOrder::all() {
        let config = RlsConfig::new(2.5).with_order(order);
        let via_instance = rls_independent_in(&inst, &config, &mut KernelWorkspace::new()).unwrap();
        let via_dag = rls_in(&dag, &config, &mut KernelWorkspace::new()).unwrap();
        assert_eq!(via_instance.schedule, via_dag.schedule, "{}", order.label());
        assert_eq!(via_instance.marked, via_dag.marked, "{}", order.label());
    }
}

#[test]
fn all_priority_orders_meet_the_same_guarantees() {
    let mut rng = seeded_rng(24);
    let inst = dag_workload(
        DagFamily::GaussianElimination,
        90,
        4,
        TaskDistribution::Correlated,
        &mut rng,
    );
    let req = SolveRequest::precedence(&inst, ObjectiveMode::BiObjective { delta: 3.0 });
    let bounds =
        BoundReport::with_critical_path(inst.tasks(), inst.m(), inst.critical_path_length());
    for order in PriorityOrder::all() {
        let config = RlsConfig::new(3.0).with_order(order);
        let result = rls_in(&inst, &config, &mut KernelWorkspace::new()).unwrap();
        assert!(result.marked_count() <= result.marked_bound());
        let solution = result.into_solution(inst.tasks(), BackendId::KernelRls, bounds, false);
        let report = evaluate_solution(&req, &solution).unwrap();
        assert!(
            report.within_guarantee(),
            "order {}: {}",
            order.label(),
            report.summary_line()
        );
    }
}

#[test]
fn the_e2_experiment_harness_reports_guarantees_respected() {
    let rows = run_e2(&E2Config::smoke());
    assert!(!rows.is_empty());
    for row in &rows {
        assert!(row.within_guarantee, "{row:?}");
        assert!(row.mmax_ratio <= row.delta + 1e-9);
        assert!(row.marked_mean <= row.marked_bound as f64 + 1e-9);
    }
}
