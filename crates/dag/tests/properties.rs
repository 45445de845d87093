//! Property-based tests of the task-graph substrate: every generator
//! yields a structurally sound acyclic graph, topological orders are
//! valid, the level/critical-path computations are mutually
//! consistent, and an arrival spliced into a CSR in place leaves it
//! equal to a rebuild.

use proptest::prelude::*;

use sws_dag::analysis::{level_width, levels_by_depth, structurally_sound, GraphStats};
use sws_dag::generators::chain::{chain, parallel_chains};
use sws_dag::generators::diamond::diamond_grid;
use sws_dag::generators::erdos::layered_erdos;
use sws_dag::generators::fft::fft_butterfly;
use sws_dag::generators::forkjoin::fork_join;
use sws_dag::generators::gauss::gaussian_elimination;
use sws_dag::generators::independent::independent;
use sws_dag::generators::layered::layered_random;
use sws_dag::generators::lu::lu_factorization;
use sws_dag::generators::tree::{in_tree, out_tree};
use sws_dag::levels::{bottom_levels, critical_path, critical_path_tasks, depth, top_levels};
use sws_dag::topo::{is_acyclic, is_topological_order, topological_order};
use sws_dag::{CsrDag, CsrDelta, TaskGraph};
use sws_model::task::{Task, TaskSet};

/// Checks the invariants every generated graph must satisfy.
fn check_graph(graph: &TaskGraph) {
    assert!(is_acyclic(graph), "generator produced a cycle");
    assert!(
        structurally_sound(graph),
        "pred/succ adjacency is inconsistent"
    );
    let order = topological_order(graph).expect("acyclic graphs have a topological order");
    assert_eq!(order.len(), graph.n());
    assert!(is_topological_order(graph, &order));

    // Level consistency: the critical path equals both the maximum
    // bottom level and the maximum top level + the sink's own cost.
    let top = top_levels(graph);
    let bottom = bottom_levels(graph);
    let cp = critical_path(graph);
    let max_bottom = bottom.iter().cloned().fold(0.0, f64::max);
    assert!(
        (cp - max_bottom).abs() < 1e-9,
        "critical path {cp} != max bottom level {max_bottom}"
    );
    let max_total = (0..graph.n())
        .map(|i| top[i] + graph.task(i).p)
        .fold(0.0f64, f64::max);
    assert!((cp - max_total).abs() < 1e-9);
    assert!((cp - graph.critical_path_length()).abs() < 1e-9);

    // Every edge respects the level ordering.
    for (u, v) in graph.edges() {
        assert!(
            top[v] + 1e-12 >= top[u] + graph.task(u).p,
            "edge ({u},{v}) breaks top levels"
        );
        assert!(
            bottom[u] + 1e-12 >= bottom[v] + graph.task(u).p,
            "edge ({u},{v}) breaks bottom levels"
        );
    }

    // The critical-path task list is a chain whose total cost is the
    // critical path length.
    let cp_tasks = critical_path_tasks(graph);
    let cp_cost: f64 = cp_tasks.iter().map(|&i| graph.task(i).p).sum();
    assert!((cp_cost - cp).abs() < 1e-9);

    // Depth-based levels partition the node set and bound the width.
    let levels = levels_by_depth(graph);
    let total: usize = levels.iter().map(|l| l.len()).sum();
    assert_eq!(total, graph.n());
    assert_eq!(levels.len(), depth(graph));
    assert_eq!(
        level_width(graph),
        levels.iter().map(|l| l.len()).max().unwrap_or(0)
    );

    // Graph statistics agree with direct counts.
    let stats = GraphStats::of(graph);
    let _ = stats; // constructing them must not panic; field names vary
}

#[test]
fn structured_generators_are_sound() {
    check_graph(&chain(1));
    check_graph(&chain(17));
    check_graph(&parallel_chains(4, 6));
    check_graph(&independent(9));
    check_graph(&fork_join(3, 5));
    check_graph(&diamond_grid(5, 7));
    check_graph(&out_tree(4, 2));
    check_graph(&in_tree(3, 3));
    check_graph(&gaussian_elimination(6));
    check_graph(&lu_factorization(4));
    check_graph(&fft_butterfly(4));
}

#[test]
fn chain_critical_path_is_its_length() {
    let g = chain(12);
    assert_eq!(g.n(), 12);
    assert!((critical_path(&g) - 12.0).abs() < 1e-12);
    assert_eq!(depth(&g), 12);
    assert_eq!(level_width(&g), 1);
}

#[test]
fn independent_graph_has_unit_depth() {
    let g = independent(20);
    assert_eq!(g.edge_count(), 0);
    assert_eq!(depth(&g), 1);
    assert_eq!(level_width(&g), 20);
    assert!(g.is_independent());
}

#[test]
fn fork_join_counts_match_the_construction() {
    // Each stage: 1 fork + width parallel tasks, plus a final join.
    let g = fork_join(3, 4);
    assert!(g.n() >= 3 * 5);
    assert!(!g.sources().is_empty());
    assert!(!g.sinks().is_empty());
}

/// Asserts two CSRs agree on every field: `PartialEq` covers the
/// adjacency arrays (and the costs up to `-0.0 == 0.0`), the bit
/// patterns cover the costs exactly.
fn assert_same_csr(spliced: &CsrDag, rebuilt: &CsrDag, ctx: &str) {
    assert_eq!(spliced, rebuilt, "{ctx}");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(spliced.proc_times()),
        bits(rebuilt.proc_times()),
        "{ctx}: p"
    );
    assert_eq!(
        bits(spliced.mem_sizes()),
        bits(rebuilt.mem_sizes()),
        "{ctx}: s"
    );
}

/// Applies `count` random arrivals to `csr`, the CSR of `base`, and
/// checks after each one that it equals `CsrDag::from_graph` of `base`
/// rebuilt with every arrival's edges appended. An arrival has 0–4
/// distinct predecessors in draw (so mostly unsorted) order, with task 0
/// and the newest task drawn often, so the first and the last successor
/// lists take splices too; its costs include both signed zeros.
fn check_arrivals(base: &TaskGraph, mut csr: CsrDag, count: usize, rng: &mut impl rand::Rng) {
    let mut tasks = base.tasks().as_slice().to_vec();
    let mut edges: Vec<(usize, usize)> = base.edges().collect();
    let rebuild = |tasks: &[Task], edges: &[(usize, usize)]| {
        let tasks = TaskSet::new(tasks.to_vec()).unwrap();
        CsrDag::from_graph(&TaskGraph::from_edges(tasks, edges).unwrap())
    };
    assert_same_csr(
        &csr,
        &rebuild(&tasks, &edges),
        "the base rebuilds as itself",
    );
    let costs = [0.0, -0.0, 0.5, 3.0, f64::MIN_POSITIVE];
    for k in 0..count {
        let j = tasks.len();
        let mut preds: Vec<u32> = Vec::new();
        for _ in 0..if j == 0 { 0 } else { rng.gen_range(0..=4usize) } {
            let u = match rng.gen_range(0..4u32) {
                0 => 0,
                1 => j - 1,
                _ => rng.gen_range(0..j),
            } as u32;
            if !preds.contains(&u) {
                preds.push(u);
            }
        }
        let p = costs[rng.gen_range(0..costs.len())];
        let s = costs[rng.gen_range(0..costs.len())];
        let delta = CsrDelta::AddTask {
            preds: preds.clone(),
            p,
            s,
        };
        csr.apply_delta(&delta).unwrap();
        tasks.push(Task::new_unchecked(p, s));
        edges.extend(preds.iter().map(|&u| (u as usize, j)));
        assert_same_csr(
            &csr,
            &rebuild(&tasks, &edges),
            &format!("arrival {k}: {preds:?}"),
        );
    }
}

#[test]
fn arrivals_splice_an_empty_csr_like_a_rebuild() {
    let base = TaskGraph::new(TaskSet::from_ps(&[], &[]).unwrap());
    check_arrivals(&base, CsrDag::from_graph(&base), 8, &mut rand_seed(1));
}

#[test]
fn arrivals_splice_an_edge_free_csr_like_a_rebuild() {
    let base = independent(9);
    check_arrivals(&base, CsrDag::edge_free(base.tasks()), 8, &mut rand_seed(2));
}

#[test]
fn cycles_are_rejected() {
    let tasks = sws_model::task::TaskSet::from_ps(&[1.0; 3], &[1.0; 3]).unwrap();
    let mut g = TaskGraph::from_edges(tasks, &[(0, 1), (1, 2)]).unwrap();
    // Adding the closing edge either fails immediately or is caught by the
    // acyclicity check / topological sort.
    let closed = g.add_edge(2, 0);
    if closed.is_ok() {
        assert!(!is_acyclic(&g));
        assert!(topological_order(&g).is_err());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random layered DAGs are sound for any admissible parameter choice.
    #[test]
    fn layered_random_is_sound(
        n in 1usize..80,
        layer_divisor in 1usize..8,
        edge_prob in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let layers = (n / layer_divisor).clamp(1, n);
        let mut rng = rand_seed(seed);
        let g = layered_random(n, layers, edge_prob, &mut rng);
        prop_assert_eq!(g.n(), n);
        check_graph(&g);
        prop_assert!(depth(&g) <= layers.max(1));
    }

    /// Ordered Erdős–Rényi DAGs are sound for any edge probability.
    #[test]
    fn layered_erdos_is_sound(
        n in 1usize..60,
        edge_prob in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let mut rng = rand_seed(seed);
        let g = layered_erdos(n, edge_prob, &mut rng);
        prop_assert_eq!(g.n(), n);
        check_graph(&g);
    }

    /// Structured families scale with their parameters and stay sound.
    #[test]
    fn structured_families_scale(k in 2usize..9) {
        check_graph(&gaussian_elimination(k));
        check_graph(&lu_factorization(k.min(6)));
        check_graph(&fft_butterfly(k.min(6)));
        check_graph(&diamond_grid(k, k));
        check_graph(&out_tree(k.min(6), 2));
    }

    /// One to eight arrivals spliced into a random layered DAG's CSR in
    /// place leave it equal, field for field, to a rebuild of the graph
    /// with their edges appended.
    #[test]
    fn arrivals_splice_the_csr_like_a_rebuild(
        n in 1usize..60,
        layer_divisor in 1usize..8,
        edge_prob in 0.0f64..1.0,
        arrivals in 1usize..9,
        seed in 0u64..1000,
    ) {
        let layers = (n / layer_divisor).clamp(1, n);
        let mut rng = rand_seed(seed);
        let base = layered_random(n, layers, edge_prob, &mut rng);
        check_arrivals(&base, CsrDag::from_graph(&base), arrivals, &mut rng);
    }

    /// `with_costs` preserves the structure while replacing the costs.
    #[test]
    fn with_costs_preserves_structure(k in 2usize..8, cost in 0.5f64..10.0) {
        let g = gaussian_elimination(k);
        let relabelled = g.with_costs(|_| sws_model::task::Task { p: cost, s: cost * 2.0 });
        prop_assert_eq!(relabelled.n(), g.n());
        prop_assert_eq!(relabelled.edge_count(), g.edge_count());
        check_graph(&relabelled);
        for i in 0..relabelled.n() {
            prop_assert!((relabelled.task(i).p - cost).abs() < 1e-12);
            prop_assert!((relabelled.task(i).s - 2.0 * cost).abs() < 1e-12);
        }
    }
}

fn rand_seed(seed: u64) -> impl rand::Rng {
    use rand::SeedableRng;
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}
