//! Integration test: the discrete-event simulator as an independent
//! referee — every schedule produced by any algorithm in the workspace
//! must replay cleanly, and the simulator must agree with the analytic
//! objective evaluation while rejecting corrupted schedules.

use sws_core::rls::{rls_in, RlsConfig};
use sws_core::sbo::{sbo, InnerAlgorithm, SboConfig};
use sws_core::tri::tri_objective_rls_in;
use sws_dag::DagInstance;
use sws_listsched::priority::hlf_priority;
use sws_listsched::{dag_list_schedule, graham_cmax, lpt_cmax, spt_schedule, KernelWorkspace};
use sws_model::objectives::ObjectivePoint;
use sws_model::schedule::TimedSchedule;
use sws_model::Instance;
use sws_simulator::gantt::GanttOptions;
use sws_simulator::{render_gantt, simulate_assignment, simulate_dag_schedule, simulate_timed};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

#[test]
fn every_independent_task_algorithm_replays_to_its_analytic_objectives() {
    let inst = random_instance(30, 4, TaskDistribution::Uncorrelated, &mut seeded_rng(31));
    let assignments = vec![
        ("graham", graham_cmax(&inst)),
        ("lpt", lpt_cmax(&inst)),
        (
            "sbo",
            sbo(&inst, &SboConfig::new(1.0, InnerAlgorithm::Lpt))
                .unwrap()
                .assignment,
        ),
    ];
    for (label, asg) in assignments {
        let analytic = ObjectivePoint::of_assignment(&inst, &asg);
        let sim = simulate_assignment(&inst, &asg, None).unwrap();
        assert!((sim.makespan - analytic.cmax).abs() < 1e-9, "{label}");
        assert!((sim.peak_memory - analytic.mmax).abs() < 1e-9, "{label}");
        assert!(
            sim.utilization > 0.0 && sim.utilization <= 1.0 + 1e-12,
            "{label}"
        );
        // Busy time conservation: the simulator accounts every task once.
        let busy: f64 = sim.busy.iter().sum();
        assert!((busy - inst.total_work()).abs() < 1e-9, "{label}");
    }
}

#[test]
fn timed_schedules_report_sum_completion_consistently() {
    let inst = random_instance(20, 3, TaskDistribution::Correlated, &mut seeded_rng(32));
    let spt = spt_schedule(&inst);
    let sim = simulate_timed(&inst, &spt, None).unwrap();
    assert!((sim.sum_completion - spt.sum_completion(inst.tasks())).abs() < 1e-9);

    let tri = tri_objective_rls_in(&inst, 3.0, &mut KernelWorkspace::new()).unwrap();
    let sim = simulate_timed(&inst, &tri.rls.schedule, Some(tri.rls.memory_cap)).unwrap();
    assert!((sim.sum_completion - tri.point.sum_ci).abs() < 1e-9);
    assert!((sim.peak_memory - tri.point.mmax).abs() < 1e-9);
}

#[test]
fn dag_schedules_replay_with_precedence_checking() {
    let mut rng = seeded_rng(33);
    for family in [DagFamily::Lu, DagFamily::Fft, DagFamily::Erdos] {
        let inst = dag_workload(family, 80, 4, TaskDistribution::Uncorrelated, &mut rng);
        let graham = dag_list_schedule(&inst, &hlf_priority(inst.graph()));
        let restricted = rls_in(&inst, &RlsConfig::new(3.0), &mut KernelWorkspace::new()).unwrap();
        for (label, sched) in [("graham", &graham), ("rls", &restricted.schedule)] {
            let sim = simulate_dag_schedule(&inst, sched, None)
                .unwrap_or_else(|e| panic!("{}/{label}: {e}", family.label()));
            assert!((sim.makespan - sched.cmax(inst.tasks())).abs() < 1e-9);
            assert!(sim.trace.peak_concurrency() <= inst.m());
        }
    }
}

#[test]
fn the_simulator_rejects_corrupted_schedules() {
    // Overlap: two tasks at time 0 on the same processor.
    let inst = Instance::from_ps(&[2.0, 2.0], &[1.0, 1.0], 2).unwrap();
    let overlapping = TimedSchedule::new(vec![0, 0], vec![0.0, 0.5], 2).unwrap();
    assert!(simulate_timed(&inst, &overlapping, None).is_err());

    // Precedence violation: the successor starts before its predecessor
    // finishes.
    let dag = DagInstance::new(
        sws_dag::TaskGraph::from_edges(
            sws_model::task::TaskSet::from_ps(&[2.0, 2.0], &[1.0, 1.0]).unwrap(),
            &[(0, 1)],
        )
        .unwrap(),
        2,
    )
    .unwrap();
    let violating = TimedSchedule::new(vec![0, 1], vec![0.0, 1.0], 2).unwrap();
    assert!(simulate_dag_schedule(&dag, &violating, None).is_err());
    let legal = TimedSchedule::new(vec![0, 1], vec![0.0, 2.0], 2).unwrap();
    assert!(simulate_dag_schedule(&dag, &legal, None).is_ok());

    // Memory capacity violation.
    let heavy = Instance::from_ps(&[1.0, 1.0], &[4.0, 4.0], 1).unwrap();
    let packed = TimedSchedule::new(vec![0, 0], vec![0.0, 1.0], 1).unwrap();
    assert!(simulate_timed(&heavy, &packed, Some(10.0)).is_ok());
    assert!(simulate_timed(&heavy, &packed, Some(7.0)).is_err());
}

#[test]
fn memory_profiles_track_cumulative_allocation_over_time() {
    let inst = Instance::from_ps(&[1.0, 1.0, 1.0], &[2.0, 3.0, 4.0], 1).unwrap();
    let sched = TimedSchedule::new(vec![0, 0, 0], vec![0.0, 1.0, 2.0], 1).unwrap();
    let sim = simulate_timed(&inst, &sched, None).unwrap();
    // Cumulative memory: 2 after the first start, 5 after the second, 9 at
    // the end (code/results are never freed in the paper's model).
    assert!((sim.memory_profile.level_at(0, 0.5) - 2.0).abs() < 1e-9);
    assert!((sim.memory_profile.level_at(0, 1.5) - 5.0).abs() < 1e-9);
    assert!((sim.peak_memory - 9.0).abs() < 1e-9);
    assert_eq!(sim.trace.len(), 6, "three start and three finish events");
}

#[test]
fn gantt_rendering_shows_every_task_and_processor() {
    let inst = random_instance(12, 3, TaskDistribution::Bimodal, &mut seeded_rng(34));
    let asg = lpt_cmax(&inst);
    let gantt = render_gantt(
        inst.tasks(),
        &asg.into_timed(inst.tasks()),
        &GanttOptions::default(),
    );
    for t in 0..inst.n() {
        assert!(
            gantt.contains(&format!("t{t}")),
            "task {t} missing from the Gantt chart"
        );
    }
    assert!(gantt.lines().count() >= inst.m());
}
