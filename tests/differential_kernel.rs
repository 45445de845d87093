//! Differential tests: the event-driven scheduling kernel
//! (`sws_listsched::kernel`) against the retained naive `O(n²·m)` oracles
//! (the dev-only `sws_oracle` crate).
//!
//! The kernel claims *schedule-for-schedule* equivalence — same
//! tie-breaking, same placements, identical objective points — across
//! every DAG generator family, every priority order and several
//! processor counts; this suite is the proof. It also re-checks the
//! paper's guarantees (Corollaries 2–4, Lemma 4) on kernel-produced
//! schedules and pins down the kernel's asymptotic advantage with a
//! CI-safe scale smoke test.

use std::time::Instant;

use sws_core::pareto_sweep::{rls_sweep, sbo_sweep};
use sws_core::rls::{rls_guarantee, rls_in, PriorityOrder, RlsConfig};
use sws_core::sbo::InnerAlgorithm;
use sws_core::tri::tri_objective_rls_in;
use sws_dag::DagInstance;
use sws_listsched::priority::{hlf_priority, index_priority};
use sws_listsched::{dag_list_schedule, KernelWorkspace};
use sws_model::bounds::{cmax_lower_bound_prec, mmax_lower_bound};
use sws_model::objectives::ObjectivePoint;
use sws_model::validate::validate_timed;
use sws_oracle::{spt_priority, GraphRank};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

const DIFF_SEED: u64 = 0xD1FF;

fn workload(family: DagFamily, n: usize, m: usize, stream: u64) -> DagInstance {
    let mut rng = seeded_rng(derive_seed(DIFF_SEED, stream));
    dag_workload(family, n, m, TaskDistribution::AntiCorrelated, &mut rng)
}

/// RLS∆: kernel vs naive oracle over every generator family × priority
/// order × m ∈ {2, 4, 8} — schedules must match placement for placement,
/// so the objective points are identical (well within the 1e-9 budget).
#[test]
fn rls_kernel_matches_naive_on_every_family_order_and_m() {
    let mut stream = 0u64;
    for family in DagFamily::all() {
        for order in PriorityOrder::all() {
            for &m in &[2usize, 4, 8] {
                stream += 1;
                let inst = workload(family, 64, m, stream);
                for &delta in &[2.25, 3.0, 6.0] {
                    let config = RlsConfig::new(delta).with_order(order);
                    let fast = rls_in(&inst, &config, &mut KernelWorkspace::new()).unwrap();
                    let slow = sws_oracle::rls(&inst, &config).unwrap();
                    assert_eq!(
                        fast.schedule,
                        slow.schedule,
                        "{}/{} m={m} ∆={delta}: schedules differ",
                        family.label(),
                        order.label()
                    );
                    let pf = ObjectivePoint::of_timed_tasks(inst.tasks(), &fast.schedule);
                    let ps = ObjectivePoint::of_timed_tasks(inst.tasks(), &slow.schedule);
                    assert!(
                        (pf.cmax - ps.cmax).abs() <= 1e-9 && (pf.mmax - ps.mmax).abs() <= 1e-9,
                        "{}/{} m={m} ∆={delta}: objective points differ",
                        family.label(),
                        order.label()
                    );
                    // The kernel's lazily computed marked set is a subset
                    // of the oracle's conservative one and respects the
                    // Lemma 4 bound.
                    for q in 0..m {
                        assert!(!fast.marked[q] || slow.marked[q]);
                    }
                    assert!(fast.marked_count() <= fast.marked_bound());
                }
            }
        }
    }
}

/// The CSR + reused-workspace serving path vs the one-shot kernel entry
/// point over every generator family × priority order × m — one
/// `KernelWorkspace` threaded through the whole stream, so any state
/// leaking between runs of different instances fails the comparison.
/// (The one-shot path is itself checked against the naive oracle above,
/// so this transitively pins the serving path to the original scans.)
#[test]
fn csr_workspace_reuse_matches_the_kernel_on_every_family_order_and_m() {
    let mut ws = sws_listsched::KernelWorkspace::new();
    let mut stream = 300u64;
    for family in DagFamily::all() {
        for order in PriorityOrder::all() {
            for &m in &[2usize, 4, 8] {
                stream += 1;
                let inst = workload(family, 56, m, stream);
                for &delta in &[2.25, 3.0, 6.0] {
                    let config = RlsConfig::new(delta).with_order(order);
                    let reused = sws_core::rls::rls_in(&inst, &config, &mut ws).unwrap();
                    let one_shot = rls_in(&inst, &config, &mut KernelWorkspace::new()).unwrap();
                    assert_eq!(
                        reused.schedule,
                        one_shot.schedule,
                        "{}/{} m={m} ∆={delta}: workspace-reuse schedule differs",
                        family.label(),
                        order.label()
                    );
                    assert_eq!(reused.marked, one_shot.marked);
                    assert_eq!(reused.lb, one_shot.lb);
                    assert_eq!(reused.memory_cap, one_shot.memory_cap);
                }
            }
        }
    }
}

/// Interleaves instances of every family through ONE `KernelWorkspace`
/// under the cost-keyed orders: `rank_csr`'s integer sort of the cost
/// bits must produce the permutation of the `TaskGraph` comparators,
/// and the kernel must produce bit-identical schedules through the
/// shared buffers under either rank, regardless of which ran before.
/// Alternating the order per stream step makes state leaks visible.
#[test]
fn saturated_and_quantized_tables_interleave_through_one_workspace() {
    use sws_listsched::kernel::event_driven_schedule_csr;
    use sws_listsched::kernel::MemoryCapAdmission;
    use sws_listsched::priority::PriorityRank;

    let mut ws = sws_listsched::KernelWorkspace::new();
    let mut stream = 900u64;
    for family in DagFamily::all() {
        for order in [
            PriorityOrder::Spt,
            PriorityOrder::Lpt,
            PriorityOrder::LargestStorage,
        ] {
            stream += 1;
            let inst = workload(family, 48, 4, stream);
            let csr = inst.csr();

            // Integer sort of the cost bits vs the `TaskGraph`
            // comparators (`spt_priority`, `lpt_priority`,
            // `largest_storage_priority`): same permutation.
            let rank = order.rank_csr(inst.graph(), &csr);
            let compared = order.rank(inst.graph());
            assert_eq!(
                rank,
                compared,
                "{}/{}: bit-sorted rank differs from the f64 comparator",
                family.label(),
                order.label()
            );

            let cap = 3.0 * inst.mmax_lower_bound();
            let run = |rank: &PriorityRank, ws: &mut sws_listsched::KernelWorkspace| {
                let mut admission = MemoryCapAdmission::new(inst.m(), cap);
                event_driven_schedule_csr(&csr, inst.m(), rank, &mut admission, ws)
                    .unwrap()
                    .schedule
            };
            // Alternate which rank touches the shared workspace first.
            let (a, b) = if stream.is_multiple_of(2) {
                (run(&rank, &mut ws), run(&compared, &mut ws))
            } else {
                let b = run(&compared, &mut ws);
                (run(&rank, &mut ws), b)
            };
            assert_eq!(
                a,
                b,
                "{}/{}: comparator-ranked schedule differs through the shared workspace",
                family.label(),
                order.label()
            );
            let config = RlsConfig::new(3.0).with_order(order);
            assert_eq!(
                a,
                rls_in(&inst, &config, &mut KernelWorkspace::new())
                    .unwrap()
                    .schedule
            );
        }
    }
}

/// The batch serving API vs per-instance direct solves: same schedules,
/// in input order, independent of the worker count.
#[test]
fn batch_scheduler_matches_one_shot_runs() {
    use sws_core::batch::BatchScheduler;
    use sws_core::portfolio::Portfolio;
    use sws_model::solve::{ObjectiveMode, SolveRequest};

    let mut stream = 400u64;
    let mut instances = Vec::new();
    for family in DagFamily::all() {
        for &(n, m) in &[(30usize, 2usize), (48, 4), (64, 8)] {
            stream += 1;
            instances.push(workload(family, n, m, stream));
        }
    }
    let requests = |objective: ObjectiveMode| -> Vec<SolveRequest> {
        instances
            .iter()
            .map(|inst| SolveRequest::precedence(inst, objective))
            .collect()
    };
    let rls_items = requests(ObjectiveMode::BiObjective { delta: 3.0 });
    let list_items = requests(ObjectiveMode::CmaxOnly);
    let portfolio = Portfolio::standard();
    for workers in [1usize, 2, instances.len() + 3] {
        let scheduler = BatchScheduler::with_workers(workers);
        let rls_outcomes = scheduler.run_requests(&portfolio, &rls_items).unwrap();
        let list_outcomes = scheduler.run_requests(&portfolio, &list_items).unwrap();
        assert_eq!(rls_outcomes.len(), instances.len());
        for ((inst, rls_out), list_out) in instances.iter().zip(&rls_outcomes).zip(&list_outcomes) {
            let direct = rls_in(inst, &RlsConfig::new(3.0), &mut KernelWorkspace::new()).unwrap();
            let rls_out = rls_out.as_ref().unwrap();
            assert_eq!(rls_out.schedule, direct.schedule, "workers={workers}");
            let direct_list = dag_list_schedule(inst, &index_priority(inst.n()));
            let list_out = list_out.as_ref().unwrap();
            assert_eq!(list_out.schedule, direct_list, "workers={workers}");
        }
    }
}

/// Unrestricted DAG list scheduling: kernel vs naive oracle over every
/// family and priority rank.
#[test]
fn dag_list_kernel_matches_naive_on_every_family() {
    let mut stream = 100u64;
    for family in DagFamily::all() {
        for &m in &[2usize, 4, 8] {
            stream += 1;
            let inst = workload(family, 72, m, stream);
            for rank in [
                index_priority(inst.n()),
                hlf_priority(inst.graph()),
                spt_priority(inst.graph()),
            ] {
                let fast = dag_list_schedule(&inst, &rank);
                let slow = sws_oracle::dag_list_schedule(&inst, &rank);
                assert_eq!(fast, slow, "{} m={m}: schedules differ", family.label());
            }
        }
    }
}

/// Graham scheduling of independent weighted tasks: the heap-based
/// `list_schedule` must place every task exactly as the naive argmin scan.
#[test]
fn graham_heap_matches_naive_argmin() {
    use rand::Rng;
    let mut rng = seeded_rng(derive_seed(DIFF_SEED, 777));
    // One processor heap threaded through every call — the reuse path of
    // `list_schedule_with` must reset completely between task lists of
    // different sizes and processor counts.
    let mut procs = sws_listsched::ProcHeap::new(1);
    for &(n, m) in &[
        (1usize, 1usize),
        (10, 3),
        (100, 7),
        (500, 16),
        (20, 2),
        // The benchmark workloads' m, and heavily padded trees.
        (300, 8),
        (300, 33),
        (2_000, 512),
    ] {
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..50.0)).collect();
        let order: Vec<usize> = (0..n).collect();
        let fast = sws_listsched::list_schedule(&weights, m, &order);
        let slow = sws_oracle::list_schedule(&weights, m, &order);
        assert_eq!(fast, slow, "n={n} m={m}: assignments differ");
        let reused = sws_listsched::list_schedule_with(&weights, m, &order, &mut procs);
        assert_eq!(reused, slow, "n={n} m={m}: reused-heap assignment differs");
        // Duplicate weights exercise the lowest-index tie-break.
        let tied = vec![1.0; n];
        assert_eq!(
            sws_listsched::list_schedule_with(&tied, m, &order, &mut procs),
            sws_oracle::list_schedule(&tied, m, &order)
        );
    }
}

/// The paper's guarantees must keep holding on kernel-produced schedules:
/// feasibility, the ∆·LB memory cap (Corollary 2), the Corollary 3
/// makespan bound and the Lemma 4 marked bound.
#[test]
fn paper_guarantees_hold_on_kernel_schedules() {
    let mut stream = 200u64;
    for family in DagFamily::all() {
        for &m in &[2usize, 4, 8] {
            stream += 1;
            let inst = workload(family, 90, m, stream);
            for &delta in &[2.5, 3.0, 5.0] {
                let result =
                    rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
                validate_timed(
                    inst.tasks(),
                    m,
                    &result.schedule,
                    inst.graph().all_preds(),
                    Some(result.memory_cap.max(result.lb)),
                )
                .unwrap();
                let point = result.objective(inst.tasks());
                let lb_m = mmax_lower_bound(inst.tasks(), m);
                assert!(
                    point.mmax <= delta * lb_m + 1e-9,
                    "{} m={m} ∆={delta}: Corollary 2 violated",
                    family.label()
                );
                let cp = inst.graph().critical_path_length();
                let lb_c = cmax_lower_bound_prec(inst.tasks(), m, cp);
                let (gc, _) = rls_guarantee(delta, m);
                assert!(
                    point.cmax <= gc * lb_c * (1.0 + 1e-9) + 1e-9,
                    "{} m={m} ∆={delta}: Corollary 3 violated",
                    family.label()
                );
                assert!(result.marked_count() <= result.marked_bound());
            }
        }
    }
}

/// The tri-objective path (Corollary 4) rides on the kernel through
/// `rls_independent_in`; its schedule must match the naive oracle's on the
/// independent-task relaxation with SPT tie-breaking.
#[test]
fn tri_objective_matches_naive_oracle() {
    let inst = random_instance(
        60,
        4,
        TaskDistribution::Bimodal,
        &mut seeded_rng(derive_seed(DIFF_SEED, 888)),
    );
    for &delta in &[2.5, 3.0, 4.0] {
        let tri = tri_objective_rls_in(&inst, delta, &mut KernelWorkspace::new()).unwrap();
        let graph = sws_dag::TaskGraph::new(inst.tasks().clone());
        let dag = DagInstance::new(graph, inst.m()).unwrap();
        let slow = sws_oracle::rls(&dag, &RlsConfig::spt(delta)).unwrap();
        assert_eq!(tri.rls.schedule, slow.schedule, "∆={delta}");
    }
}

/// The parallelized sweeps must produce exactly the curve the serial
/// per-∆ loop produces.
#[test]
fn parallel_sweeps_match_serial_recomputation() {
    let mut rng = seeded_rng(derive_seed(DIFF_SEED, 999));
    let dag = dag_workload(
        DagFamily::GaussianElimination,
        60,
        4,
        TaskDistribution::Bimodal,
        &mut rng,
    );
    let curve = rls_sweep(&dag, &RlsConfig::new(3.0), 2.1, 10.0, 8).unwrap();
    assert!(!curve.is_empty());
    for p in &curve {
        // Each point must be reproduced by a direct serial run at its ∆.
        let direct = rls_in(
            &dag,
            &RlsConfig {
                delta: p.delta,
                order: PriorityOrder::Index,
            },
            &mut KernelWorkspace::new(),
        )
        .unwrap();
        assert_eq!(p.schedule, direct.schedule, "∆={}", p.delta);
    }

    let inst = random_instance(40, 4, TaskDistribution::AntiCorrelated, &mut rng);
    let sbo_curve = sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.125, 8.0, 9).unwrap();
    assert!(!sbo_curve.is_empty());
    for w in sbo_curve.windows(2) {
        assert!(w[0].point.cmax <= w[1].point.cmax + 1e-9);
    }
}

/// Scale smoke test: the kernel must schedule a 10 000-task layered DAG
/// on 32 processors well inside a CI-safe budget (the naive oracle takes
/// minutes at this size — that asymmetry is the whole point of the
/// rework; the measured gap is recorded in docs/PERFORMANCE.md).
#[test]
fn kernel_handles_10k_tasks_within_ci_budget() {
    let mut rng = seeded_rng(derive_seed(DIFF_SEED, 4242));
    let inst = dag_workload(
        DagFamily::LayeredRandom,
        10_000,
        32,
        TaskDistribution::Uncorrelated,
        &mut rng,
    );
    assert!(inst.n() >= 9_000, "generator produced {} tasks", inst.n());

    let t0 = Instant::now();
    let result = rls_in(&inst, &RlsConfig::new(3.0), &mut KernelWorkspace::new()).unwrap();
    let rls_elapsed = t0.elapsed();

    let t1 = Instant::now();
    let sched = dag_list_schedule(&inst, &hlf_priority(inst.graph()));
    let list_elapsed = t1.elapsed();

    // Generous even for debug builds on slow CI machines; release builds
    // finish both in well under a second.
    assert!(
        rls_elapsed.as_secs_f64() < 30.0,
        "kernel RLS took {rls_elapsed:?} on n=10k, m=32"
    );
    assert!(
        list_elapsed.as_secs_f64() < 30.0,
        "kernel list scheduling took {list_elapsed:?} on n=10k, m=32"
    );

    // Sanity: the schedules are feasible and respect the cap.
    let point = result.objective(inst.tasks());
    assert!(point.mmax <= result.memory_cap + 1e-6);
    assert!(sched.cmax(inst.tasks()) > 0.0);
}
