//! Differential coverage of the unified solver layer.
//!
//! Three contracts (the PR 4 acceptance criteria):
//!
//! 1. every backend's [`Solution`] validates through `sws_model::validate`
//!    and reports an achieved guarantee satisfying the requested one;
//! 2. declared guarantees hold on the adversarial workloads — checked
//!    against exact optima on instances small enough to enumerate;
//! 3. [`Portfolio::solve`] is bit-identical to calling the selected
//!    backend directly (including through a shared [`KernelWorkspace`]
//!    stream), and the kernel-backend path is bit-identical to the
//!    direct `rls_in`/`sbo`/`tri_objective_rls_in` entry points.

use sws_core::portfolio::Portfolio;
use sws_core::rls::{rls_in, RlsConfig};
use sws_core::sbo::{sbo, InnerAlgorithm, SboConfig};
use sws_core::tri::tri_objective_rls_in;
use sws_dag::{DagInstance, TaskGraph};
use sws_exact::branch_bound::{optimal_cmax, optimal_mmax};
use sws_listsched::KernelWorkspace;
use sws_model::bounds::mmax_lower_bound;
use sws_model::error::ModelError;
use sws_model::solve::{BackendId, Guarantee, ObjectiveMode, Solution, SolveRequest};
use sws_model::validate::validate_timed;
use sws_model::Instance;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::{lemma1_instance, lemma2_instance, lemma3_instance, TaskDistribution};

const TOL: f64 = 1e-9;

/// Adversarial and random independent instances small enough for the
/// exact solvers — the workloads every declared guarantee is checked on.
fn small_adversarial_instances() -> Vec<Instance> {
    let mut out = vec![
        lemma1_instance(1e-3),
        lemma2_instance(2, 2, 1e-3),
        lemma3_instance(0.25),
    ];
    for seed in 0..4u64 {
        out.push(random_instance(
            9,
            3,
            TaskDistribution::AntiCorrelated,
            &mut seeded_rng(900 + seed),
        ));
        out.push(random_instance(
            10,
            2,
            TaskDistribution::Bimodal,
            &mut seeded_rng(950 + seed),
        ));
    }
    out
}

fn validate_independent(inst: &Instance, solution: &Solution) {
    let preds: Vec<Vec<usize>> = vec![Vec::new(); inst.n()];
    validate_timed(inst.tasks(), inst.m(), &solution.schedule, &preds, None).unwrap_or_else(|e| {
        panic!(
            "backend {} produced an invalid schedule: {e}",
            solution.stats.backend
        )
    });
}

/// Requests that collectively exercise every auto-selectable backend on
/// an independent instance.
fn independent_requests(inst: &Instance) -> Vec<SolveRequest<'_>> {
    vec![
        SolveRequest::independent(inst, ObjectiveMode::CmaxOnly),
        SolveRequest::independent(inst, ObjectiveMode::CmaxOnly).with_guarantee(Guarantee::Exact),
        SolveRequest::independent(inst, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::EpsilonOptimal(0.25)),
        SolveRequest::independent(inst, ObjectiveMode::BiObjective { delta: 1.0 }),
        SolveRequest::independent(inst, ObjectiveMode::BiObjective { delta: 3.0 })
            .with_guarantee(Guarantee::PaperRatio),
        SolveRequest::independent(inst, ObjectiveMode::TriObjective { delta: 3.0 }),
        SolveRequest::independent(
            inst,
            ObjectiveMode::MemoryBudget {
                budget: inst.total_storage(),
            },
        ),
    ]
}

/// Contract 1: every backend that serves a request returns a feasible,
/// complete schedule whose achieved guarantee satisfies the requested
/// one — checked for every registered backend, not just the selected
/// ones (the never-preferred heuristics included).
#[test]
fn every_backend_solution_validates_and_satisfies_its_request() {
    let portfolio = Portfolio::standard();
    let inst = random_instance(
        12,
        3,
        TaskDistribution::AntiCorrelated,
        &mut seeded_rng(2024),
    );
    let mut exercised = Vec::new();
    for req in independent_requests(&inst) {
        for id in portfolio.backend_ids() {
            let backend = portfolio.backend(id).unwrap();
            if backend.bid(&req).is_none() {
                continue;
            }
            let solution = backend
                .solve(&req)
                .unwrap_or_else(|e| panic!("{}: solve failed: {e}", id.label()));
            validate_independent(&inst, &solution);
            assert!(
                solution.achieved.satisfies(&req.guarantee),
                "{}: achieved {} does not satisfy requested {}",
                id.label(),
                solution.achieved.label(),
                req.guarantee.label()
            );
            assert_eq!(solution.schedule.n(), inst.n());
            exercised.push(solution.stats.backend);
        }
    }
    // The request matrix must have reached every family of backends.
    for required in [
        BackendId::Lpt,
        BackendId::Graham,
        BackendId::Multifit,
        BackendId::Sbo,
        BackendId::KernelRls,
        BackendId::KernelTriRls,
        BackendId::Ptas,
        BackendId::ExactBranchBound,
        BackendId::ExactParetoEnum,
        BackendId::ConstrainedSearch,
    ] {
        assert!(
            exercised.contains(&required),
            "backend {} never exercised",
            required.label()
        );
    }
}

/// Contract 2: declared guarantees hold against exact optima on the
/// adversarial workloads.
#[test]
fn declared_guarantees_hold_on_adversarial_workloads() {
    let portfolio = Portfolio::standard();
    for (idx, inst) in small_adversarial_instances().iter().enumerate() {
        let opt_c = optimal_cmax(inst);
        let opt_m = optimal_mmax(inst);

        // Exact demand: the optimum itself.
        let req = SolveRequest::independent(inst, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::Exact);
        let exact = portfolio.solve(&req).unwrap();
        assert!(
            (exact.point.cmax - opt_c).abs() <= TOL,
            "instance {idx}: exact backend returned {} but OPT is {opt_c}",
            exact.point.cmax
        );

        // ε-optimal demand.
        let eps = 0.25;
        let req = SolveRequest::independent(inst, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::EpsilonOptimal(eps));
        if let Ok(solution) = portfolio.solve(&req) {
            assert!(
                solution.point.cmax <= (1.0 + eps) * opt_c + TOL,
                "instance {idx}: {} exceeded (1+ε)·OPT",
                solution.stats.backend
            );
        }

        // Paper-ratio backends, checked against the true optima through
        // the ratio bound each solution itself declares.
        for (req, against_mmax) in [
            (
                SolveRequest::independent(inst, ObjectiveMode::CmaxOnly)
                    .with_guarantee(Guarantee::PaperRatio),
                false,
            ),
            (
                SolveRequest::independent(inst, ObjectiveMode::BiObjective { delta: 1.0 })
                    .with_guarantee(Guarantee::PaperRatio),
                true,
            ),
            (
                SolveRequest::independent(inst, ObjectiveMode::BiObjective { delta: 2.5 })
                    .with_guarantee(Guarantee::PaperRatio),
                true,
            ),
        ] {
            // Pin the paper-ratio tier explicitly: auto-selection would
            // route these tiny instances to the exact backends, whose
            // bound (1, ·) is trivially satisfied.
            for id in [BackendId::Lpt, BackendId::Multifit, BackendId::Sbo] {
                let backend = portfolio.backend(id).unwrap();
                if backend.bid(&req).is_none() {
                    continue;
                }
                let solution = backend.solve(&req).unwrap();
                let (gc, gm) = solution
                    .ratio_bound
                    .expect("paper-ratio solutions declare their factors");
                assert!(
                    solution.point.cmax <= gc * opt_c * (1.0 + TOL) + TOL,
                    "instance {idx}, {}: Cmax {} > {gc}·{opt_c}",
                    id.label(),
                    solution.point.cmax
                );
                if against_mmax && gm.is_finite() {
                    assert!(
                        solution.point.mmax <= gm * opt_m * (1.0 + TOL) + TOL,
                        "instance {idx}, {}: Mmax {} > {gm}·{opt_m}",
                        id.label(),
                        solution.point.mmax
                    );
                }
            }
        }

        // The RLS∆ memory guarantee is unconditional: Mmax ≤ ∆·LB, for
        // the kernel backend and for the naive oracle on the same tasks
        // as an edgeless DAG.
        let edgeless = DagInstance::new(TaskGraph::new(inst.tasks().clone()), inst.m()).unwrap();
        for delta in [2.25, 3.0, 6.0] {
            let req = SolveRequest::independent(inst, ObjectiveMode::BiObjective { delta });
            let kernel = portfolio
                .backend(BackendId::KernelRls)
                .unwrap()
                .solve(&req)
                .unwrap();
            let oracle = sws_oracle::rls(&edgeless, &RlsConfig::new(delta)).unwrap();
            for (label, mmax) in [
                (BackendId::KernelRls.label(), kernel.point.mmax),
                ("oracle", oracle.objective(inst.tasks()).mmax),
            ] {
                let lb = mmax_lower_bound(inst.tasks(), inst.m());
                assert!(
                    mmax <= delta * lb + TOL,
                    "instance {idx}, {label}: Mmax {mmax} exceeds ∆·LB {}",
                    delta * lb
                );
            }
        }
    }
}

/// Contract 3a: the portfolio's routed solve is bit-identical to calling
/// the selected backend directly, for every request shape.
#[test]
fn portfolio_solve_is_bit_identical_to_the_selected_backend() {
    let portfolio = Portfolio::standard();
    let instances = [
        random_instance(8, 2, TaskDistribution::Correlated, &mut seeded_rng(31)),
        random_instance(40, 4, TaskDistribution::AntiCorrelated, &mut seeded_rng(32)),
        random_instance(150, 8, TaskDistribution::Uncorrelated, &mut seeded_rng(33)),
    ];
    for inst in &instances {
        for req in independent_requests(inst) {
            let Ok(selected) = portfolio.select(&req) else {
                continue;
            };
            let direct = selected.solve(&req).unwrap();
            let routed = portfolio.solve(&req).unwrap();
            assert_eq!(routed.schedule, direct.schedule, "{}", selected.id());
            assert_eq!(routed.point, direct.point);
            assert_eq!(routed.achieved, direct.achieved);
            assert_eq!(routed.ratio_bound, direct.ratio_bound);
            assert_eq!(routed.stats.backend, direct.stats.backend);
        }
    }
}

/// Contract 3b: one shared kernel workspace across a mixed stream of
/// instances and request shapes changes nothing — every solve through
/// `solve_in` matches the fresh-workspace solve bit for bit.
#[test]
fn shared_workspace_stream_is_bit_identical_to_fresh_solves() {
    let portfolio = Portfolio::standard();
    let mut rng = seeded_rng(77);
    let dag_a = dag_workload(
        DagFamily::LayeredRandom,
        90,
        4,
        TaskDistribution::AntiCorrelated,
        &mut rng,
    );
    let dag_b = dag_workload(
        DagFamily::ForkJoin,
        40,
        6,
        TaskDistribution::Bimodal,
        &mut rng,
    );
    let ind = random_instance(60, 4, TaskDistribution::AntiCorrelated, &mut rng);

    let mut ws = KernelWorkspace::new();
    // Interleave DAG and independent requests of different shapes through
    // one workspace, twice, to stress buffer reuse across shapes.
    for _ in 0..2 {
        for delta in [2.5, 3.0, 8.0] {
            for dag in [&dag_a, &dag_b] {
                let req = SolveRequest::precedence(dag, ObjectiveMode::BiObjective { delta });
                let streamed = portfolio.solve_in(&req, &mut ws).unwrap();
                let fresh = portfolio.solve(&req).unwrap();
                assert_eq!(streamed.schedule, fresh.schedule, "∆={delta}");
                assert_eq!(streamed.point, fresh.point);
                assert!(streamed.stats.workspace_reused);
                assert!(!fresh.stats.workspace_reused);
            }
            let req = SolveRequest::independent(&ind, ObjectiveMode::TriObjective { delta });
            let streamed = portfolio.solve_in(&req, &mut ws).unwrap();
            let fresh = portfolio.solve(&req).unwrap();
            assert_eq!(streamed.schedule, fresh.schedule, "tri ∆={delta}");
        }
        let req = SolveRequest::precedence(&dag_a, ObjectiveMode::CmaxOnly);
        let streamed = portfolio.solve_in(&req, &mut ws).unwrap();
        assert_eq!(streamed.schedule, portfolio.solve(&req).unwrap().schedule);
    }
}

/// Contract 3c: the kernel-backend path is bit-identical to the
/// pre-refactor entry points, across DAG families, sizes and ∆ values.
#[test]
fn kernel_backend_path_matches_pre_refactor_entry_points() {
    let portfolio = Portfolio::standard();
    let mut rng = seeded_rng(123);
    let mut ws = KernelWorkspace::new();
    for family in [
        DagFamily::LayeredRandom,
        DagFamily::GaussianElimination,
        DagFamily::Fft,
        DagFamily::Erdos,
    ] {
        for m in [2usize, 4, 8] {
            let inst = dag_workload(family, 70, m, TaskDistribution::AntiCorrelated, &mut rng);
            for delta in [2.25, 3.0, 6.0] {
                let req = SolveRequest::precedence(&inst, ObjectiveMode::BiObjective { delta })
                    .with_guarantee(Guarantee::PaperRatio);
                assert_eq!(portfolio.selected(&req).unwrap(), BackendId::KernelRls);
                let solution = portfolio.solve(&req).unwrap();
                let config = RlsConfig::new(delta);
                let direct = rls_in(&inst, &config, &mut KernelWorkspace::new()).unwrap();
                assert_eq!(
                    solution.schedule,
                    direct.schedule,
                    "{} m={m} ∆={delta}",
                    family.label()
                );
                assert_eq!(solution.ratio_bound, Some(direct.guarantee));
                let via_ws = portfolio.solve_in(&req, &mut ws).unwrap();
                assert_eq!(
                    via_ws.schedule,
                    rls_in(&inst, &config, &mut ws).unwrap().schedule
                );
            }
        }
    }

    // SBO∆ and tri-objective one-shots behind the portfolio.
    let ind = random_instance(80, 4, TaskDistribution::AntiCorrelated, &mut rng);
    for delta in [0.5, 1.0, 2.0] {
        let req = SolveRequest::independent(&ind, ObjectiveMode::BiObjective { delta });
        let solution = portfolio.solve(&req).unwrap();
        assert_eq!(solution.stats.backend, BackendId::Sbo);
        let direct = sbo(&ind, &SboConfig::new(delta, InnerAlgorithm::Lpt)).unwrap();
        assert_eq!(
            solution.schedule.assignment(),
            direct.assignment,
            "∆={delta}"
        );
    }
    for delta in [2.5, 4.0] {
        let req = SolveRequest::independent(&ind, ObjectiveMode::TriObjective { delta });
        let solution = portfolio.solve(&req).unwrap();
        let direct = tri_objective_rls_in(&ind, delta, &mut KernelWorkspace::new()).unwrap();
        assert_eq!(solution.schedule, direct.rls.schedule, "tri ∆={delta}");
        assert_eq!(solution.sum_ci, Some(direct.point.sum_ci));
    }
}

/// Refusals: requests no backend can serve fail with the typed error,
/// never a wrong-guarantee solution.
#[test]
fn unservable_requests_are_refused_with_the_typed_error() {
    let portfolio = Portfolio::standard();
    let big = random_instance(500, 8, TaskDistribution::Uncorrelated, &mut seeded_rng(5));
    let mut rng = seeded_rng(6);
    let dag = dag_workload(
        DagFamily::LayeredRandom,
        60,
        4,
        TaskDistribution::Uncorrelated,
        &mut rng,
    );

    let refused = [
        // Exact on 500 tasks: outside every exact gate.
        SolveRequest::independent(&big, ObjectiveMode::CmaxOnly).with_guarantee(Guarantee::Exact),
        // Exact tri-objective: no exact solver exists at any size.
        SolveRequest::independent(&big, ObjectiveMode::TriObjective { delta: 3.0 })
            .with_guarantee(Guarantee::Exact),
        // Paper-ratio on the independent constrained problem:
        // inapproximable (Section 2.2).
        SolveRequest::independent(&big, ObjectiveMode::MemoryBudget { budget: 1e12 })
            .with_guarantee(Guarantee::PaperRatio),
        // DAG bi-objective below ∆ = 2: Lemma 4 leaves no algorithm.
        SolveRequest::precedence(&dag, ObjectiveMode::BiObjective { delta: 1.5 }),
        // ε-optimal on a DAG: no PTAS under precedence constraints.
        SolveRequest::precedence(&dag, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::EpsilonOptimal(0.1)),
    ];
    for req in refused {
        match portfolio.solve(&req) {
            Err(ModelError::NoQualifiedBackend { .. }) => {}
            other => panic!(
                "{:?}/{} must be refused, got {other:?}",
                req.objective,
                req.guarantee.label()
            ),
        }
    }

    // The ε gate mirrors the PTAS work estimate: when the configuration
    // DP is unaffordable the request is refused rather than silently
    // served with an FFD fallback.
    let weights: Vec<f64> = (0..big.n()).map(|i| big.p(i)).collect();
    let eps = 0.02;
    if !sws_ptas::dp_work_affordable(&weights, big.m(), eps) {
        let req = SolveRequest::independent(&big, ObjectiveMode::CmaxOnly)
            .with_guarantee(Guarantee::EpsilonOptimal(eps));
        assert!(matches!(
            portfolio.solve(&req),
            Err(ModelError::NoQualifiedBackend { .. })
        ));
    }
}

/// The edge-free-DAG bridge: a precedence request whose graph has no
/// edges is served by the independent-task backends, identically to the
/// genuinely independent request.
#[test]
fn edge_free_dags_are_served_as_independent_instances() {
    let portfolio = Portfolio::standard();
    let ind = random_instance(30, 3, TaskDistribution::AntiCorrelated, &mut seeded_rng(91));
    let dag = DagInstance::new(sws_dag::TaskGraph::new(ind.tasks().clone()), ind.m()).unwrap();
    for (objective, guarantee) in [
        (ObjectiveMode::CmaxOnly, Guarantee::None),
        (ObjectiveMode::BiObjective { delta: 1.0 }, Guarantee::None),
        (
            ObjectiveMode::BiObjective { delta: 0.5 },
            Guarantee::PaperRatio,
        ),
        (ObjectiveMode::TriObjective { delta: 3.0 }, Guarantee::None),
    ] {
        let as_dag = SolveRequest::precedence(&dag, objective).with_guarantee(guarantee);
        let as_ind = SolveRequest::independent(&ind, objective).with_guarantee(guarantee);
        let a = portfolio.solve(&as_dag).unwrap();
        let b = portfolio.solve(&as_ind).unwrap();
        assert_eq!(a.stats.backend, b.stats.backend, "{objective:?}");
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.point, b.point);
    }
}
