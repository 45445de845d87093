//! Property-based integration test: the paper's guarantees as invariants
//! over arbitrary randomly generated instances.
//!
//! Each property draws instances directly from proptest strategies (not
//! from the workload generators) so shrinking can home in on minimal
//! counterexamples if an algorithm ever violates a proven bound.

use proptest::collection::vec;
use proptest::prelude::*;

use sws_core::bounds::violates_impossibility;
use sws_core::constrained::{solve_with_memory_budget, ConstrainedOutcome};
use sws_core::rls::{lemma4_marked_bound, rls_in, rls_independent_in, PriorityOrder, RlsConfig};
use sws_core::sbo::{sbo, sbo_guarantee, InnerAlgorithm, SboConfig};
use sws_core::tri::tri_objective_rls_in;
use sws_dag::{DagInstance, TaskGraph};
use sws_exact::branch_bound::optimal_point;
use sws_listsched::spt::optimal_sum_completion;
use sws_listsched::KernelWorkspace;
use sws_model::bounds::{cmax_lower_bound, cmax_lower_bound_prec, mmax_lower_bound};
use sws_model::objectives::ObjectivePoint;
use sws_model::task::TaskSet;
use sws_model::validate::{validate_assignment, validate_timed};
use sws_model::Instance;

/// Strategy: a non-trivial independent-task instance with positive costs.
fn arb_instance(max_n: usize, max_m: usize) -> impl Strategy<Value = Instance> {
    (2usize..=max_m, 1usize..=max_n).prop_flat_map(move |(m, n)| {
        (vec(0.1f64..50.0, n), vec(0.1f64..50.0, n), Just(m))
            .prop_map(|(p, s, m)| Instance::from_ps(&p, &s, m).expect("valid draws"))
    })
}

/// Strategy: a random DAG instance built from a task list plus a subset of
/// forward edges (i -> j with i < j), which is acyclic by construction.
fn arb_dag(max_n: usize, max_m: usize) -> impl Strategy<Value = DagInstance> {
    (2usize..=max_m, 2usize..=max_n).prop_flat_map(move |(m, n)| {
        (
            vec(0.1f64..20.0, n),
            vec(0.1f64..20.0, n),
            vec(any::<bool>(), n * (n - 1) / 2),
            Just(m),
        )
            .prop_map(|(p, s, edge_mask, m)| {
                let tasks = TaskSet::from_ps(&p, &s).expect("valid draws");
                let mut graph = TaskGraph::new(tasks);
                let mut idx = 0usize;
                for i in 0..p.len() {
                    for j in (i + 1)..p.len() {
                        // Keep the graph sparse so schedules stay interesting.
                        if edge_mask[idx] && (i + j) % 3 == 0 {
                            graph.add_edge(i, j).expect("forward edges are acyclic");
                        }
                        idx += 1;
                    }
                }
                DagInstance::new(graph, m).expect("m > 0")
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Properties 1 and 2: the SBO schedule is within (1+∆)·C of the
    /// makespan reference and (1+1/∆)·M of the memory reference, and the
    /// assignment is always complete and valid.
    #[test]
    fn sbo_respects_properties_1_and_2(
        inst in arb_instance(40, 6),
        delta in 0.05f64..8.0,
    ) {
        let result = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Lpt)).unwrap();
        validate_assignment(&inst, &result.assignment, None).unwrap();
        let point = result.objective(&inst);
        prop_assert!(point.cmax <= (1.0 + delta) * result.reference_cmax + 1e-9);
        prop_assert!(point.mmax <= (1.0 + 1.0 / delta) * result.reference_mmax + 1e-9);
    }

    /// On small instances the full SBO guarantee holds against the exact
    /// per-objective optima.
    #[test]
    fn sbo_guarantee_holds_against_exact_optima(
        inst in arb_instance(8, 3),
        delta in 0.25f64..4.0,
    ) {
        let result = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Lpt)).unwrap();
        let point = result.objective(&inst);
        let opt = optimal_point(&inst);
        let (gc, gm) = result.guarantee;
        prop_assert!(point.cmax <= gc * opt.cmax + 1e-9);
        prop_assert!(point.mmax <= gm * opt.mmax + 1e-9);
        // The guarantee pair itself must never claim something the paper
        // proves impossible.
        let (tc, tm) = sbo_guarantee(delta, 1.0, 1.0);
        prop_assert!(!violates_impossibility(tc, tm, 6, 32));
    }

    /// RLS∆ always produces a feasible schedule whose memory stays within
    /// ∆·LB and whose makespan respects Corollary 3 against the Graham
    /// lower bound; Lemma 4 bounds the marked processors.
    #[test]
    fn rls_respects_corollaries_2_and_3_and_lemma_4(
        inst in arb_dag(25, 6),
        delta in 2.05f64..8.0,
    ) {
        let result = rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
        validate_timed(
            inst.tasks(),
            inst.m(),
            &result.schedule,
            inst.graph().all_preds(),
            Some(delta * result.lb),
        ).unwrap();
        let point = ObjectivePoint::of_timed_tasks(inst.tasks(), &result.schedule);
        prop_assert!(point.mmax <= delta * result.lb + 1e-9);
        let cp = inst.graph().critical_path_length();
        let lb_c = cmax_lower_bound_prec(inst.tasks(), inst.m(), cp);
        if delta > 2.0 {
            let (gc, _) = result.guarantee;
            prop_assert!(point.cmax <= gc * lb_c + 1e-9,
                "cmax {} > {} * {}", point.cmax, gc, lb_c);
        }
        prop_assert!(result.marked_count() <= lemma4_marked_bound(inst.m(), delta));
    }

    /// Corollary 4: the tri-objective SPT-ordered RLS respects all three
    /// bounds, with the ΣCi reference being the exact SPT optimum.
    #[test]
    fn tri_objective_respects_corollary_4(
        inst in arb_instance(30, 5),
        delta in 2.1f64..6.0,
    ) {
        let result = tri_objective_rls_in(&inst, delta, &mut KernelWorkspace::new()).unwrap();
        let (gc, gm, gs) = result.guarantee;
        let lb_c = cmax_lower_bound(inst.tasks(), inst.m());
        let lb_m = mmax_lower_bound(inst.tasks(), inst.m());
        let opt_sum = optimal_sum_completion(&inst);
        prop_assert!(result.point.cmax <= gc * lb_c + 1e-9);
        prop_assert!(result.point.mmax <= gm * lb_m + 1e-9);
        prop_assert!(result.point.sum_ci <= gs * opt_sum + 1e-9,
            "ΣCi {} > {} * {}", result.point.sum_ci, gs, opt_sum);
    }

    /// The independent-task RLS path (an edge-free CSR built from the
    /// task set) and the DAG path agree on instances without edges,
    /// under every priority order.
    #[test]
    fn rls_independent_equals_rls_on_edgeless_graphs(
        inst in arb_instance(20, 4),
        delta in 2.1f64..5.0,
        order in 0usize..5,
    ) {
        let config = RlsConfig::new(delta).with_order(PriorityOrder::all()[order]);
        let a = rls_independent_in(&inst, &config, &mut KernelWorkspace::new()).unwrap();
        let dag = DagInstance::new(TaskGraph::new(inst.tasks().clone()), inst.m()).unwrap();
        let b = rls_in(&dag, &config, &mut KernelWorkspace::new()).unwrap();
        prop_assert_eq!(a.schedule, b.schedule);
    }

    /// The constrained-problem solver never returns a schedule that
    /// exceeds the budget, and "provably infeasible" is only claimed when
    /// a single task exceeds the budget.
    #[test]
    fn constrained_solver_respects_the_budget(
        inst in arb_instance(25, 5),
        beta in 1.0f64..4.0,
    ) {
        let lb = mmax_lower_bound(inst.tasks(), inst.m());
        let budget = beta * lb;
        match solve_with_memory_budget(&inst, budget, InnerAlgorithm::Lpt).unwrap() {
            ConstrainedOutcome::Feasible { assignment, point, .. } => {
                validate_assignment(&inst, &assignment, Some(budget)).unwrap();
                prop_assert!(point.mmax <= budget + 1e-9);
            }
            ConstrainedOutcome::ProvablyInfeasible { max_storage } => {
                prop_assert!(max_storage > budget);
            }
            ConstrainedOutcome::NotFound { best_mmax, .. } => {
                prop_assert!(best_mmax > budget);
            }
        }
    }

    /// The SBO objective point is symmetric under swapping the two task
    /// dimensions together with inverting ∆ (Section 2.1 symmetry).
    #[test]
    fn sbo_symmetry_under_dimension_swap(
        inst in arb_instance(20, 4),
        delta in 0.1f64..4.0,
    ) {
        let a = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Graham)).unwrap();
        let b = sbo(&inst.swapped(), &SboConfig::new(1.0 / delta, InnerAlgorithm::Graham)).unwrap();
        let pa = a.objective(&inst);
        let pb = b.objective(&inst.swapped());
        prop_assert!((pa.cmax - pb.mmax).abs() < 1e-6);
        prop_assert!((pa.mmax - pb.cmax).abs() < 1e-6);
    }
}
