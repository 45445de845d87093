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
}

impl CsrDag {
    /// Flattens a [`TaskGraph`] into CSR form. Edge order within each
    /// adjacency list is preserved.
    pub fn from_graph(graph: &TaskGraph) -> Self {
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
        }
    }

    /// The edge-free CSR of independent tasks: equal to
    /// `CsrDag::from_graph(&TaskGraph::new(tasks.clone()))`, without
    /// cloning the task set into a nested graph first.
    pub fn edge_free(tasks: &TaskSet) -> Self {
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
        }
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

    /// The predecessor lists as the borrowed CSR view accepted by
    /// [`sws_model::validate::validate_timed_preds`] — validation without
    /// materializing nested `Vec<Vec<usize>>` lists.
    #[inline]
    pub fn pred_lists(&self) -> CsrPreds<'_> {
        CsrPreds::new(&self.pred_offsets, &self.pred_edges)
    }

    /// In-place `Recost` (see [`crate::delta::CsrDelta`]): rewrites the
    /// cost arrays.
    pub(crate) fn recost(&mut self, i: usize, p: Option<f64>, s: Option<f64>) {
        if let Some(v) = p {
            self.proc_time[i] = v;
        }
        if let Some(v) = s {
            self.mem_size[i] = v;
        }
    }

    /// In-place `AddTask` (see [`crate::delta::CsrDelta`]): the new
    /// task takes index `n`, its predecessor list is appended to the
    /// pred CSR, and each predecessor's successor list gains the new
    /// task at its end — exactly where a from-scratch build with the
    /// edges appended last would put it. `preds` must be distinct
    /// (`CsrDelta::validate` checks it).
    ///
    /// The successor splice works in place on the existing arrays:
    /// `succ_edges` grows by `k = preds.len()`, and walking the
    /// predecessors from the highest index down, each block of lists
    /// behind one moves right by the number of predecessors at or below
    /// it (one `copy_within`), leaving the slot for the new index at the
    /// end of that predecessor's list. The offsets after the lowest
    /// predecessor then take range adds. That is `k` block moves and
    /// `O(n − u_min)` offset adds, with nothing rebuilt and no
    /// allocation beyond a sorted copy of the `k` predecessors and the
    /// arrays' amortized growth.
    pub(crate) fn add_task(&mut self, preds: &[u32], p: f64, s: f64) {
        let j = self.n;
        assert!(
            j + 1 < u32::MAX as usize && self.pred_edges.len() + preds.len() <= u32::MAX as usize,
            "CSR representation uses u32 indices"
        );
        self.pred_edges.extend_from_slice(preds);
        self.pred_offsets.push(self.pred_edges.len() as u32);

        let mut sorted = preds.to_vec();
        sorted.sort_unstable();
        // `end` is the end of the block still to move: the lists behind
        // the predecessor `u` being spliced, up to the next one's block.
        let mut end = self.succ_edges.len();
        self.succ_edges.resize(end + sorted.len(), 0);
        for (below, &u) in sorted.iter().enumerate().rev() {
            let at = self.succ_offsets[u as usize + 1] as usize;
            self.succ_edges.copy_within(at..end, at + below + 1);
            self.succ_edges[at + below] = j as u32;
            end = at;
        }
        // List `i` now starts one entry later per predecessor below it:
        // the offsets from the `k`-th (0-based) predecessor's successor
        // up to the next predecessor take `k + 1`.
        for (k, &u) in sorted.iter().enumerate() {
            let upto = sorted.get(k + 1).map_or(j, |&next| next as usize);
            for off in &mut self.succ_offsets[u as usize + 1..=upto] {
                *off += k as u32 + 1;
            }
        }
        self.succ_offsets.push(self.succ_edges.len() as u32); // the arrival has no successors yet

        self.proc_time.push(p);
        self.mem_size.push(s);
        self.n = j + 1;
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

    fn assert_same_fields(a: &CsrDag, b: &CsrDag) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.pred_offsets, b.pred_offsets);
        assert_eq!(a.pred_edges, b.pred_edges);
        assert_eq!(a.succ_offsets, b.succ_offsets);
        assert_eq!(a.succ_edges, b.succ_edges);
        assert_eq!(a.proc_time, b.proc_time);
        assert_eq!(a.mem_size, b.mem_size);
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
