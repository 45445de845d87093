//! Priority orders for list scheduling under precedence constraints.
//!
//! The paper's RLS∆ uses "an arbitrary total ordering of tasks to break
//! ties"; this module provides the classical choices so the evaluation can
//! compare them (and so the Section 5.2 tri-objective variant can plug in
//! SPT).
//!
//! Ranks are `u32` (the CSR layer guarantees `n < u32::MAX`), which
//! halves the rank-array cache traffic in the kernel's hot loop. The
//! cost-keyed orders (SPT/LPT/largest-storage) read the flat CSR cost
//! arrays and sort the costs' IEEE-754 bit patterns instead of calling
//! an `f64` comparator: costs are finite and non-negative, where the bit
//! pattern orders like the value, so the permutation is that of the
//! comparator (integer sort keys packed with the tie-break index into
//! one `u128`). The comparator versions over the nested `TaskGraph`
//! survive as references in the dev-only `sws_oracle` crate.

use sws_dag::{CsrDag, TaskGraph};
use sws_model::numeric::finite_ge;

/// A total order over tasks, expressed as a rank per task: the task with
/// the *smallest* rank wins ties.
pub type PriorityRank = Vec<u32>;

/// Converts an explicit order (first = highest priority) into ranks.
/// Tasks missing from the order get the sentinel `u32::MAX` (lowest
/// priority).
pub fn rank_of_order(order: &[usize]) -> PriorityRank {
    assert!(order.len() < u32::MAX as usize, "ranks fit in u32");
    let mut rank = vec![u32::MAX; order.len()];
    for (r, &task) in order.iter().enumerate() {
        rank[task] = r as u32;
    }
    rank
}

/// Index order: task 0 first. This is the "arbitrary" order of the paper.
pub fn index_priority(n: usize) -> PriorityRank {
    assert!(n < u32::MAX as usize, "ranks fit in u32");
    (0..n as u32).collect()
}

/// Highest Level First (critical-path priority): tasks with the largest
/// bottom level first — the classical DAG list-scheduling heuristic.
/// (Bottom levels are derived sums over the graph, so this order has no
/// `_csr` variant.)
pub fn hlf_priority(graph: &TaskGraph) -> PriorityRank {
    let bottom = sws_dag::levels::bottom_levels(graph);
    let mut order: Vec<usize> = (0..graph.n()).collect();
    order.sort_by(|&a, &b| sws_model::numeric::total_cmp(bottom[b], bottom[a]).then(a.cmp(&b)));
    rank_of_order(&order)
}

/// Ranks tasks by packed `((cost bits << 32) | task)` integer sort
/// keys: one `u128` sort, ties broken towards the lower task index. On
/// finite non-negative costs the bit pattern orders like the value, and
/// `+ 0.0` folds `-0.0` onto `0.0` (the two compare equal, so they tie
/// like equal costs); `descending` complements the bits, which reverses
/// their order.
fn rank_by_cost_bits(costs: &[f64], descending: bool) -> PriorityRank {
    assert!(costs.len() < u32::MAX as usize, "ranks fit in u32");
    let flip = if descending { u64::MAX } else { 0 };
    let mut packed: Vec<u128> = costs
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            debug_assert!(finite_ge(v, 0.0), "costs are finite and non-negative");
            ((((v + 0.0).to_bits() ^ flip) as u128) << 32) | i as u128
        })
        .collect();
    packed.sort_unstable();
    let mut rank = vec![u32::MAX; packed.len()];
    for (r, &pk) in packed.iter().enumerate() {
        rank[pk as u32 as usize] = r as u32;
    }
    rank
}

/// Shortest Processing Time priority (used by the tri-objective
/// extension on independent tasks, Corollary 4) over the flat instance
/// mirror: tasks by increasing processing time, ties by index, from an
/// integer sort of the processing times' bit patterns.
pub fn spt_priority_csr(csr: &CsrDag) -> PriorityRank {
    rank_by_cost_bits(csr.proc_times(), false)
}

/// Longest Processing Time priority over the flat instance mirror (see
/// [`spt_priority_csr`]).
pub fn lpt_priority_csr(csr: &CsrDag) -> PriorityRank {
    rank_by_cost_bits(csr.proc_times(), true)
}

/// Largest storage requirement first — a memory-aware tie break that
/// tends to spread big-memory tasks before processors fill up — over the
/// flat instance mirror (see [`spt_priority_csr`]).
pub fn largest_storage_priority_csr(csr: &CsrDag) -> PriorityRank {
    rank_by_cost_bits(csr.mem_sizes(), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::task::{Task, TaskSet};

    fn weighted_chain() -> TaskGraph {
        let tasks = TaskSet::new(vec![
            Task::new_unchecked(1.0, 5.0),
            Task::new_unchecked(3.0, 1.0),
            Task::new_unchecked(2.0, 3.0),
        ])
        .unwrap();
        TaskGraph::from_edges(tasks, &[(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn rank_of_order_inverts_the_permutation() {
        let rank = rank_of_order(&[2, 0, 1]);
        assert_eq!(rank, vec![1, 2, 0]);
    }

    #[test]
    fn index_priority_is_identity() {
        assert_eq!(index_priority(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn hlf_priority_follows_bottom_levels() {
        let g = weighted_chain();
        // Bottom levels: task0 = 6, task1 = 5, task2 = 2 -> order 0, 1, 2.
        let rank = hlf_priority(&g);
        assert_eq!(rank, vec![0, 1, 2]);
    }
}
