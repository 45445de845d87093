//! Flat CSR (compressed sparse row) representation of a task graph.
//!
//! The pointer-rich [`crate::TaskGraph`] (`Vec<Vec<usize>>` adjacency,
//! tasks behind a `TaskSet`) is convenient to build and mutate, but the
//! scheduling kernel walks adjacency lists and task costs on every round
//! of its hot loop, where the per-list heap indirection and the
//! interleaved `(p, s)` pairs cost real cache misses. [`CsrDag`] is the
//! read-only flat mirror the kernel borrows instead:
//!
//! * both directions of the adjacency as classic CSR — an `offsets`
//!   array of `n + 1` entries plus a single contiguous `edges` array —
//!   with `u32` indices (half the memory traffic of `usize` on 64-bit
//!   targets);
//! * the task costs as structure-of-arrays `f64` slices (`proc_time`,
//!   `mem_size`), so passes that only touch storage requirements (the
//!   admissibility probes) or only processing times (placement) stream
//!   one array instead of striding over pairs.
//!
//! A `CsrDag` is built **once per instance** ([`TaskGraph::csr`] /
//! [`crate::DagInstance::csr`], or [`CsrDag::edge_free`] straight from
//! the task set of independent tasks) and shared by every run over that
//! instance; the edge order within each list is preserved exactly, so a
//! kernel run over the CSR form visits neighbours in the same order as
//! one over the nested-`Vec` form.

use crate::graph::TaskGraph;
use crate::keys::KeyTable;
use sws_model::task::TaskSet;
use sws_model::validate::CsrPreds;

/// Flat, read-only mirror of a [`TaskGraph`]: CSR adjacency in both
/// directions plus structure-of-arrays task costs.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrDag {
    n: usize,
    /// `pred_edges[pred_offsets[i]..pred_offsets[i+1]]` = predecessors of `i`.
    pred_offsets: Vec<u32>,
    pred_edges: Vec<u32>,
    /// `succ_edges[succ_offsets[i]..succ_offsets[i+1]]` = successors of `i`.
    succ_offsets: Vec<u32>,
    succ_edges: Vec<u32>,
    /// Processing time `p_i` per task.
    proc_time: Vec<f64>,
    /// Storage requirement `s_i` per task.
    mem_size: Vec<f64>,
    /// Order-preserving rank table over the pooled distinct cost values
    /// (`p` and `s` together); `None` when the instance has more
    /// distinct values than fit in `u32` ranks — consumers then fall
    /// back to the `f64` comparators.
    cost_keys: Option<KeyTable>,
    /// `p_rank[i]` = `cost_keys.rank_of(p_i)`; empty when saturated.
    p_rank: Vec<u32>,
    /// `s_rank[i]` = `cost_keys.rank_of(s_i)`; empty when saturated.
    s_rank: Vec<u32>,
}

impl CsrDag {
    /// Flattens a [`TaskGraph`] into CSR form. Edge order within each
    /// adjacency list is preserved.
    pub fn from_graph(graph: &TaskGraph) -> Self {
        Self::from_graph_with_key_limit(graph, KeyTable::DEFAULT_LIMIT)
    }

    /// [`CsrDag::from_graph`] with an explicit distinct-cost-value limit
    /// for the quantization table — tests lower it to exercise the
    /// saturated (`cost_keys = None`) fallback without 2³² floats.
    pub fn from_graph_with_key_limit(graph: &TaskGraph, key_limit: usize) -> Self {
        let n = graph.n();
        assert!(
            n < u32::MAX as usize && graph.edge_count() <= u32::MAX as usize,
            "CSR representation uses u32 indices"
        );
        let mut pred_offsets = Vec::with_capacity(n + 1);
        let mut succ_offsets = Vec::with_capacity(n + 1);
        let mut pred_edges = Vec::with_capacity(graph.edge_count());
        let mut succ_edges = Vec::with_capacity(graph.edge_count());
        let mut proc_time = Vec::with_capacity(n);
        let mut mem_size = Vec::with_capacity(n);
        pred_offsets.push(0);
        succ_offsets.push(0);
        for i in 0..n {
            pred_edges.extend(graph.preds(i).iter().map(|&u| u as u32));
            succ_edges.extend(graph.succs(i).iter().map(|&v| v as u32));
            pred_offsets.push(pred_edges.len() as u32);
            succ_offsets.push(succ_edges.len() as u32);
            let t = graph.task(i);
            proc_time.push(t.p);
            mem_size.push(t.s);
        }
        CsrDag {
            n,
            pred_offsets,
            pred_edges,
            succ_offsets,
            succ_edges,
            proc_time,
            mem_size,
            cost_keys: None,
            p_rank: Vec::new(),
            s_rank: Vec::new(),
        }
        .quantized(key_limit)
    }

    /// The edge-free CSR of independent tasks: equal to
    /// `CsrDag::from_graph(&TaskGraph::new(tasks.clone()))`, without
    /// cloning the task set into a nested graph first.
    pub fn edge_free(tasks: &TaskSet) -> Self {
        Self::edge_free_with_key_limit(tasks, KeyTable::DEFAULT_LIMIT)
    }

    fn edge_free_with_key_limit(tasks: &TaskSet, key_limit: usize) -> Self {
        let n = tasks.len();
        assert!(n < u32::MAX as usize, "CSR representation uses u32 indices");
        let offsets = vec![0u32; n + 1];
        CsrDag {
            n,
            pred_offsets: offsets.clone(),
            pred_edges: Vec::new(),
            succ_offsets: offsets,
            succ_edges: Vec::new(),
            proc_time: tasks.as_slice().iter().map(|t| t.p).collect(),
            mem_size: tasks.as_slice().iter().map(|t| t.s).collect(),
            cost_keys: None,
            p_rank: Vec::new(),
            s_rank: Vec::new(),
        }
        .quantized(key_limit)
    }

    /// Builds the quantization table over the pooled `p` and `s` values
    /// and the per-task ranks, or leaves both empty when the values
    /// saturate `key_limit`.
    fn quantized(mut self, key_limit: usize) -> Self {
        let costs = self.proc_time.iter().chain(&self.mem_size).copied();
        self.cost_keys = KeyTable::build_with_limit(costs, key_limit);
        if let Some(table) = &self.cost_keys {
            let rank = |v: f64| {
                table
                    .rank_of(v)
                    .expect("the table was built over exactly these values")
            };
            self.p_rank = self.proc_time.iter().map(|&p| rank(p)).collect();
            self.s_rank = self.mem_size.iter().map(|&s| rank(s)).collect();
        }
        self
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succ_edges.len()
    }

    /// Predecessors of task `i`.
    #[inline]
    pub fn preds(&self, i: usize) -> &[u32] {
        &self.pred_edges[self.pred_offsets[i] as usize..self.pred_offsets[i + 1] as usize]
    }

    /// Successors of task `i`.
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ_edges[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize]
    }

    /// In-degree of task `i`.
    #[inline]
    pub fn in_degree(&self, i: usize) -> usize {
        (self.pred_offsets[i + 1] - self.pred_offsets[i]) as usize
    }

    /// Out-degree of task `i`.
    #[inline]
    pub fn out_degree(&self, i: usize) -> usize {
        (self.succ_offsets[i + 1] - self.succ_offsets[i]) as usize
    }

    /// Processing time `p_i`.
    #[inline]
    pub fn p(&self, i: usize) -> f64 {
        self.proc_time[i]
    }

    /// Storage requirement `s_i`.
    #[inline]
    pub fn s(&self, i: usize) -> f64 {
        self.mem_size[i]
    }

    /// All processing times, indexed by task.
    #[inline]
    pub fn proc_times(&self) -> &[f64] {
        &self.proc_time
    }

    /// All storage requirements, indexed by task.
    #[inline]
    pub fn mem_sizes(&self) -> &[f64] {
        &self.mem_size
    }

    /// The quantization table over the instance's distinct cost values,
    /// or `None` when the instance saturated it (more distinct values
    /// than `u32` ranks — impossible below 2³² tasks in practice, but
    /// the fallback is kept honest by tests with a lowered limit).
    #[inline]
    pub fn cost_keys(&self) -> Option<&KeyTable> {
        self.cost_keys.as_ref()
    }

    /// Per-task `u32` ranks of the processing times (`rank order` =
    /// `f64 order`), or `None` when the table is saturated.
    #[inline]
    pub fn p_ranks(&self) -> Option<&[u32]> {
        self.cost_keys.as_ref().map(|_| self.p_rank.as_slice())
    }

    /// Per-task `u32` ranks of the storage requirements, or `None` when
    /// the table is saturated.
    #[inline]
    pub fn s_ranks(&self) -> Option<&[u32]> {
        self.cost_keys.as_ref().map(|_| self.s_rank.as_slice())
    }

    /// The predecessor lists as the borrowed CSR view accepted by
    /// [`sws_model::validate::validate_timed_preds`] — validation without
    /// materializing nested `Vec<Vec<usize>>` lists.
    #[inline]
    pub fn pred_lists(&self) -> CsrPreds<'_> {
        CsrPreds::new(&self.pred_offsets, &self.pred_edges)
    }

    /// Drops to the saturated exact-`f64` mode: the quantization table
    /// is discarded whole rather than renumbered (lossy re-bucketing is
    /// forbidden — see [`crate::keys`]). Consumers fall back to the
    /// `f64` comparators, which produce bit-identical schedules.
    fn saturate_keys(&mut self) {
        self.cost_keys = None;
        self.p_rank = Vec::new();
        self.s_rank = Vec::new();
    }

    /// Re-ranks one mutated cost value through
    /// [`KeyTable::rank_or_append`], saturating when the value breaks
    /// the existing rank order. `write` stores the fresh rank (assign
    /// for recosts, push for arrivals).
    fn requantize(&mut self, v: f64, write: impl FnOnce(&mut Self, u32)) {
        let Some(table) = &mut self.cost_keys else {
            return;
        };
        match table.rank_or_append(v) {
            Some(r) => write(self, r),
            None => self.saturate_keys(),
        }
    }

    /// In-place `Recost` (see [`crate::delta::CsrDelta`]): rewrites the
    /// cost arrays and maintains the quantized ranks. The key table may
    /// keep the superseded value — a superset table ranks every live
    /// value correctly, so nothing is rebuilt.
    pub(crate) fn recost(&mut self, i: usize, p: Option<f64>, s: Option<f64>) {
        if let Some(v) = p {
            self.proc_time[i] = v;
            self.requantize(v, |d, r| d.p_rank[i] = r);
        }
        if let Some(v) = s {
            self.mem_size[i] = v;
            self.requantize(v, |d, r| d.s_rank[i] = r);
        }
    }

    /// In-place `AddTask` (see [`crate::delta::CsrDelta`]): the new
    /// task takes index `n`, its predecessor list is appended to the
    /// pred CSR, and each predecessor's successor list gains the new
    /// task at its end in one `O(n + E)` splice — exactly where a
    /// from-scratch build with the edges appended last would put it.
    pub(crate) fn add_task(&mut self, preds: &[u32], p: f64, s: f64) {
        let j = self.n;
        assert!(
            j + 1 < u32::MAX as usize && self.pred_edges.len() + preds.len() <= u32::MAX as usize,
            "CSR representation uses u32 indices"
        );
        self.pred_edges.extend_from_slice(preds);
        self.pred_offsets.push(self.pred_edges.len() as u32);

        let mut is_pred = vec![false; j];
        for &u in preds {
            is_pred[u as usize] = true;
        }
        let mut succ_offsets = Vec::with_capacity(j + 2);
        let mut succ_edges = Vec::with_capacity(self.succ_edges.len() + preds.len());
        succ_offsets.push(0u32);
        for (i, &was_pred) in is_pred.iter().enumerate() {
            succ_edges.extend_from_slice(
                &self.succ_edges[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize],
            );
            if was_pred {
                succ_edges.push(j as u32);
            }
            succ_offsets.push(succ_edges.len() as u32);
        }
        succ_offsets.push(succ_edges.len() as u32); // the arrival has no successors yet
        self.succ_offsets = succ_offsets;
        self.succ_edges = succ_edges;

        self.proc_time.push(p);
        self.mem_size.push(s);
        self.n = j + 1;
        self.requantize(p, |d, r| d.p_rank.push(r));
        self.requantize(s, |d, r| d.s_rank.push(r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::task::{Task, TaskSet};

    fn diamond() -> TaskGraph {
        let tasks = TaskSet::new(
            (0..4)
                .map(|i| Task::new_unchecked(1.0 + i as f64, 2.0 * i as f64))
                .collect(),
        )
        .unwrap();
        TaskGraph::from_edges(tasks, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn csr_mirrors_the_nested_adjacency_exactly() {
        let g = diamond();
        let csr = CsrDag::from_graph(&g);
        assert_eq!(csr.n(), g.n());
        assert_eq!(csr.edge_count(), g.edge_count());
        for i in 0..g.n() {
            let preds: Vec<usize> = csr.preds(i).iter().map(|&u| u as usize).collect();
            let succs: Vec<usize> = csr.succs(i).iter().map(|&v| v as usize).collect();
            assert_eq!(preds, g.preds(i), "preds of {i}");
            assert_eq!(succs, g.succs(i), "succs of {i}");
            assert_eq!(csr.in_degree(i), g.in_degree(i));
            assert_eq!(csr.out_degree(i), g.out_degree(i));
            assert_eq!(csr.p(i), g.task(i).p);
            assert_eq!(csr.s(i), g.task(i).s);
        }
    }

    #[test]
    fn empty_graph_flattens_to_empty_csr() {
        let g = TaskGraph::new(TaskSet::from_ps(&[], &[]).unwrap());
        let csr = CsrDag::from_graph(&g);
        assert_eq!(csr.n(), 0);
        assert_eq!(csr.edge_count(), 0);
    }

    #[test]
    fn cost_ranks_mirror_the_f64_order() {
        let g = diamond();
        let csr = CsrDag::from_graph(&g);
        let table = csr.cost_keys().expect("tiny instance never saturates");
        let p_rank = csr.p_ranks().unwrap();
        let s_rank = csr.s_ranks().unwrap();
        for i in 0..g.n() {
            assert_eq!(table.value_of(p_rank[i]), csr.p(i));
            assert_eq!(table.value_of(s_rank[i]), csr.s(i));
            for j in 0..g.n() {
                assert_eq!(p_rank[i] < p_rank[j], csr.p(i) < csr.p(j));
                assert_eq!(s_rank[i] < s_rank[j], csr.s(i) < csr.s(j));
            }
        }
    }

    #[test]
    fn saturated_key_limit_disables_quantization_only() {
        let g = diamond();
        let full = CsrDag::from_graph(&g);
        let capped = CsrDag::from_graph_with_key_limit(&g, 2);
        assert!(capped.cost_keys().is_none());
        assert!(capped.p_ranks().is_none());
        assert!(capped.s_ranks().is_none());
        // The structural mirror is untouched by the refusal.
        for i in 0..g.n() {
            assert_eq!(capped.preds(i), full.preds(i));
            assert_eq!(capped.succs(i), full.succs(i));
            assert_eq!(capped.p(i), full.p(i));
            assert_eq!(capped.s(i), full.s(i));
        }
    }

    fn assert_same_fields(a: &CsrDag, b: &CsrDag) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.pred_offsets, b.pred_offsets);
        assert_eq!(a.pred_edges, b.pred_edges);
        assert_eq!(a.succ_offsets, b.succ_offsets);
        assert_eq!(a.succ_edges, b.succ_edges);
        assert_eq!(a.proc_time, b.proc_time);
        assert_eq!(a.mem_size, b.mem_size);
        assert_eq!(a.cost_keys, b.cost_keys);
        assert_eq!(a.p_rank, b.p_rank);
        assert_eq!(a.s_rank, b.s_rank);
        assert_eq!(a, b);
    }

    #[test]
    fn edge_free_equals_the_flattened_edgeless_graph() {
        let tasks =
            TaskSet::from_ps(&[3.0, 1.0, 3.0, 0.0, 2.5], &[2.0, 2.0, 7.0, 1.0, 0.0]).unwrap();
        let empty = TaskSet::from_ps(&[], &[]).unwrap();
        for tasks in [tasks, empty] {
            let graph = TaskGraph::new(tasks.clone());
            let csr = CsrDag::edge_free(&tasks);
            assert_same_fields(&csr, &CsrDag::from_graph(&graph));
            assert!(csr.cost_keys().is_some());
            // Six distinct cost values cannot fit two ranks: both
            // constructors refuse the table the same way.
            let capped = CsrDag::edge_free_with_key_limit(&tasks, 2);
            assert_same_fields(&capped, &CsrDag::from_graph_with_key_limit(&graph, 2));
            assert_eq!(capped.cost_keys().is_none(), !tasks.is_empty());
        }
    }

    #[test]
    fn pred_lists_view_iterates_like_the_nested_lists() {
        let g = diamond();
        let csr = CsrDag::from_graph(&g);
        let view = csr.pred_lists();
        use sws_model::validate::PredecessorLists;
        assert_eq!(view.len(), g.n());
        for i in 0..g.n() {
            let via_view: Vec<usize> = view.preds_of(i).collect();
            assert_eq!(via_view, g.preds(i));
        }
    }
}
