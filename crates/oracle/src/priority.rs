//! Priority ranks computed with `f64` comparators over the nested
//! [`TaskGraph`] — the references for the bit-sorted CSR ranks of
//! `sws_listsched::priority` (`spt_priority_csr`, `lpt_priority_csr`,
//! `largest_storage_priority_csr`), which must produce the same
//! permutation.

use sws_core::rls::PriorityOrder;
use sws_dag::TaskGraph;
use sws_listsched::priority::{hlf_priority, index_priority, rank_of_order, PriorityRank};

/// Shortest Processing Time priority (used by the tri-objective extension
/// on independent tasks, Corollary 4).
pub fn spt_priority(graph: &TaskGraph) -> PriorityRank {
    let mut order: Vec<usize> = (0..graph.n()).collect();
    order.sort_by(|&a, &b| {
        sws_model::numeric::total_cmp(graph.task(a).p, graph.task(b).p).then(a.cmp(&b))
    });
    rank_of_order(&order)
}

/// Longest Processing Time priority.
pub fn lpt_priority(graph: &TaskGraph) -> PriorityRank {
    let mut order: Vec<usize> = (0..graph.n()).collect();
    order.sort_by(|&a, &b| {
        sws_model::numeric::total_cmp(graph.task(b).p, graph.task(a).p).then(a.cmp(&b))
    });
    rank_of_order(&order)
}

/// Largest storage requirement first — a memory-aware tie break that tends
/// to spread big-memory tasks before processors fill up.
pub fn largest_storage_priority(graph: &TaskGraph) -> PriorityRank {
    let mut order: Vec<usize> = (0..graph.n()).collect();
    order.sort_by(|&a, &b| {
        sws_model::numeric::total_cmp(graph.task(b).s, graph.task(a).s).then(a.cmp(&b))
    });
    rank_of_order(&order)
}

/// The rank of a [`PriorityOrder`] built from the graph's comparators;
/// `PriorityOrder::rank_csr` must return the same vector.
pub trait GraphRank {
    /// Builds the rank vector (lower rank = preferred) for a graph.
    fn rank(&self, graph: &TaskGraph) -> PriorityRank;
}

impl GraphRank for PriorityOrder {
    fn rank(&self, graph: &TaskGraph) -> PriorityRank {
        match self {
            PriorityOrder::Index => index_priority(graph.n()),
            PriorityOrder::Spt => spt_priority(graph),
            PriorityOrder::Lpt => lpt_priority(graph),
            PriorityOrder::BottomLevel => hlf_priority(graph),
            PriorityOrder::LargestStorage => largest_storage_priority(graph),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_listsched::priority::{
        largest_storage_priority_csr, lpt_priority_csr, spt_priority_csr,
    };
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
    fn spt_and_lpt_priorities_are_reversed() {
        let g = weighted_chain();
        let spt = spt_priority(&g);
        let lpt = lpt_priority(&g);
        // p = [1, 3, 2]: SPT order 0, 2, 1 -> ranks [0, 2, 1];
        // LPT order 1, 2, 0 -> ranks [2, 0, 1].
        assert_eq!(spt, vec![0, 2, 1]);
        assert_eq!(lpt, vec![2, 0, 1]);
    }

    #[test]
    fn storage_priority_prefers_heavy_tasks() {
        let g = weighted_chain();
        // s = [5, 1, 3] -> order 0, 2, 1 -> ranks [0, 2, 1].
        assert_eq!(largest_storage_priority(&g), vec![0, 2, 1]);
    }

    #[test]
    fn csr_priorities_match_the_graph_versions() {
        let g = weighted_chain();
        let csr = g.csr();
        assert_eq!(spt_priority_csr(&csr), spt_priority(&g));
        assert_eq!(lpt_priority_csr(&csr), lpt_priority(&g));
        assert_eq!(
            largest_storage_priority_csr(&csr),
            largest_storage_priority(&g)
        );
    }

    #[test]
    fn csr_priorities_match_on_duplicate_costs_and_saturated_tables() {
        // Duplicate p/s values force index tie-breaks, and zeros of both
        // signs must tie like the equal costs they are.
        let zero = |i: usize| if i.is_multiple_of(2) { 0.0 } else { -0.0 };
        let tasks = TaskSet::new(
            (0..16)
                .map(|i| Task::new_unchecked(1.0 + (i % 3) as f64, 4.0 - (i % 2) as f64))
                .chain((0..6).map(|i| Task::new_unchecked(zero(i), zero(i / 2))))
                .collect(),
        )
        .unwrap();
        let g = TaskGraph::new(tasks);
        let csr = g.csr();
        assert_eq!(spt_priority_csr(&csr), spt_priority(&g));
        assert_eq!(lpt_priority_csr(&csr), lpt_priority(&g));
        assert_eq!(
            largest_storage_priority_csr(&csr),
            largest_storage_priority(&g)
        );
    }
}
