//! The task-graph adjacency structure and DAG instances.

use sws_model::error::ModelError;
use sws_model::task::{Task, TaskSet};

/// A directed task graph: tasks (with processing time and storage
/// requirement) plus precedence edges `u → v` meaning "v cannot start
/// before u completes".
///
/// The structure stores both predecessor and successor adjacency lists so
/// the list scheduler can query readiness in O(in-degree).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    tasks: TaskSet,
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    edge_count: usize,
}

impl TaskGraph {
    /// Creates a graph with the given tasks and no edges.
    pub fn new(tasks: TaskSet) -> Self {
        let n = tasks.len();
        TaskGraph {
            tasks,
            preds: vec![Vec::new(); n],
            succs: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Creates a graph of `n` unit tasks (`p = s = 1`) and no edges;
    /// convenient for structural tests.
    pub fn unit(n: usize) -> Self {
        let tasks = TaskSet::new(vec![Task::new_unchecked(1.0, 1.0); n])
            .expect("unit tasks are always valid");
        TaskGraph::new(tasks)
    }

    /// Builds a graph from tasks and an edge list.
    pub fn from_edges(tasks: TaskSet, edges: &[(usize, usize)]) -> Result<Self, ModelError> {
        let mut g = TaskGraph::new(tasks);
        for &(u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.tasks.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The task set.
    #[inline]
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// Task by index.
    #[inline]
    pub fn task(&self, i: usize) -> Task {
        self.tasks.get(i)
    }

    /// Predecessors of task `i`.
    #[inline]
    pub fn preds(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Successors of task `i`.
    #[inline]
    pub fn succs(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// The full predecessor lists, in the shape expected by
    /// `sws_model::validate::validate_timed`.
    #[inline]
    pub fn all_preds(&self) -> &[Vec<usize>] {
        &self.preds
    }

    /// Adds the precedence edge `u → v`. Self-loops are rejected; parallel
    /// edges are ignored (idempotent).
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<(), ModelError> {
        let n = self.n();
        if u >= n {
            return Err(ModelError::ProcessorOutOfRange {
                task: u,
                proc: u,
                m: n,
            });
        }
        if v >= n {
            return Err(ModelError::ProcessorOutOfRange {
                task: v,
                proc: v,
                m: n,
            });
        }
        if u == v {
            return Err(ModelError::CyclicPrecedence);
        }
        if self.succs[u].contains(&v) {
            return Ok(());
        }
        self.succs[u].push(v);
        self.preds[v].push(u);
        self.edge_count += 1;
        Ok(())
    }

    /// Iterates over every edge `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(u, vs)| vs.iter().map(move |&v| (u, v)))
    }

    /// Tasks with no predecessors.
    pub fn sources(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&i| self.preds[i].is_empty())
            .collect()
    }

    /// Tasks with no successors.
    pub fn sinks(&self) -> Vec<usize> {
        (0..self.n())
            .filter(|&i| self.succs[i].is_empty())
            .collect()
    }

    /// In-degree of task `i`.
    #[inline]
    pub fn in_degree(&self, i: usize) -> usize {
        self.preds[i].len()
    }

    /// Out-degree of task `i`.
    #[inline]
    pub fn out_degree(&self, i: usize) -> usize {
        self.succs[i].len()
    }

    /// Whether the graph has no edges at all (independent tasks).
    pub fn is_independent(&self) -> bool {
        self.edge_count == 0
    }

    /// A topological order of the tasks, or an error if the graph has a
    /// cycle (delegates to [`crate::topo::topological_order`]).
    pub fn topological_order(&self) -> Result<Vec<usize>, ModelError> {
        crate::topo::topological_order(self)
    }

    /// Length of the critical path (delegates to
    /// [`crate::levels::critical_path`]); `0.0` for an empty graph.
    pub fn critical_path_length(&self) -> f64 {
        crate::levels::critical_path(self)
    }

    /// Flattens the graph into the kernel-friendly CSR form
    /// ([`crate::csr::CsrDag`]). Build it once per instance and share it
    /// across runs — the flat mirror is immutable.
    pub fn csr(&self) -> crate::csr::CsrDag {
        crate::csr::CsrDag::from_graph(self)
    }

    /// Returns a copy of the graph with new task costs but the same
    /// structure. `f(i)` provides the task for node `i`.
    pub fn with_costs<F: FnMut(usize) -> Task>(&self, f: F) -> TaskGraph {
        let tasks: Vec<Task> = (0..self.n()).map(f).collect();
        let tasks = TaskSet::new(tasks).expect("cost function produced invalid task");
        TaskGraph {
            tasks,
            preds: self.preds.clone(),
            succs: self.succs.clone(),
            edge_count: self.edge_count,
        }
    }
}

/// A precedence-constrained instance: a task graph plus the number of
/// identical processors.
#[derive(Debug, Clone, PartialEq)]
pub struct DagInstance {
    graph: TaskGraph,
    m: usize,
    /// The critical-path length, computed once at construction (the
    /// cycle check already produces the topological order it needs).
    /// Serving paths report the `Cmax ≥ |CP|` bound on every solve, so
    /// this must not cost a graph traversal per request.
    critical_path: f64,
    /// The critical-path-aware Graham makespan lower bound
    /// `max(|CP|, max_i p_i, Σp_i/m)`, cached for the same reason.
    cmax_lb: f64,
    /// The Graham memory lower bound `max(max_i s_i, Σs_i/m)` — the
    /// `LB` whose `∆·LB` cap RLS∆ enforces — cached for the same
    /// reason.
    mmax_lb: f64,
}

impl DagInstance {
    /// Builds an instance; fails when `m = 0` or the graph is cyclic.
    pub fn new(graph: TaskGraph, m: usize) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::NoProcessors);
        }
        let order = crate::topo::topological_order(&graph)?;
        let critical_path = crate::levels::bottom_levels_with_order(&graph, &order)
            .into_iter()
            .fold(0.0, f64::max);
        let tasks = graph.tasks();
        let (cmax_lb, mmax_lb) = if tasks.is_empty() {
            (0.0, 0.0)
        } else {
            (
                sws_model::bounds::cmax_lower_bound_prec(tasks, m, critical_path),
                sws_model::bounds::mmax_lower_bound(tasks, m),
            )
        };
        Ok(DagInstance {
            graph,
            m,
            critical_path,
            cmax_lb,
            mmax_lb,
        })
    }

    /// The critical-path length of the instance's graph, cached at
    /// construction. Equal to `self.graph().critical_path_length()`
    /// without the per-call traversal.
    #[inline]
    pub fn critical_path_length(&self) -> f64 {
        self.critical_path
    }

    /// The critical-path-aware Graham makespan lower bound, cached at
    /// construction. Equal to
    /// `cmax_lower_bound_prec(tasks, m, critical_path)` (`0` for an
    /// empty task set).
    #[inline]
    pub fn cmax_lower_bound(&self) -> f64 {
        self.cmax_lb
    }

    /// The Graham memory lower bound `LB`, cached at construction.
    /// Equal to `mmax_lower_bound(tasks, m)` (`0` for an empty task
    /// set) — the value RLS∆ derives its `∆·LB` cap from.
    #[inline]
    pub fn mmax_lower_bound(&self) -> f64 {
        self.mmax_lb
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of processors.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The task graph.
    #[inline]
    pub fn graph(&self) -> &TaskGraph {
        &self.graph
    }

    /// The task set.
    #[inline]
    pub fn tasks(&self) -> &TaskSet {
        self.graph.tasks()
    }

    /// Flattens the instance's graph into the kernel-friendly CSR form
    /// (see [`TaskGraph::csr`]).
    pub fn csr(&self) -> crate::csr::CsrDag {
        self.graph.csr()
    }
}

/// The solver-layer view of a precedence-constrained instance: lets a
/// [`DagInstance`] travel inside `sws_model::solve::SolveRequest`.
/// DAG-aware backends recover the concrete type through `as_any` and
/// reuse the instance's CSR mirror without rebuilding the graph.
impl sws_model::solve::PrecedenceInstance for DagInstance {
    fn tasks(&self) -> &TaskSet {
        self.graph.tasks()
    }

    fn m(&self) -> usize {
        self.m
    }

    fn preds(&self) -> &[Vec<usize>] {
        self.graph.all_preds()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut g = TaskGraph::unit(4);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 2).unwrap();
        g.add_edge(1, 3).unwrap();
        g.add_edge(2, 3).unwrap();
        g
    }

    #[test]
    fn adjacency_lists_are_consistent() {
        let g = diamond();
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.succs(0), &[1, 2]);
        assert_eq!(g.preds(3), &[1, 2]);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.sources(), vec![0]);
        assert_eq!(g.sinks(), vec![3]);
    }

    #[test]
    fn parallel_edges_are_idempotent() {
        let mut g = TaskGraph::unit(2);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn self_loops_and_out_of_range_edges_are_rejected() {
        let mut g = TaskGraph::unit(2);
        assert!(g.add_edge(0, 0).is_err());
        assert!(g.add_edge(0, 5).is_err());
        assert!(g.add_edge(7, 1).is_err());
    }

    #[test]
    fn edges_iterator_lists_every_edge_once() {
        let g = diamond();
        let mut edges: Vec<(usize, usize)> = g.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn with_costs_preserves_structure() {
        let g = diamond();
        let g2 = g.with_costs(|i| Task::new_unchecked(i as f64 + 1.0, 2.0));
        assert_eq!(g2.edge_count(), g.edge_count());
        assert_eq!(g2.task(2).p, 3.0);
        assert_eq!(g2.task(2).s, 2.0);
    }

    #[test]
    fn dag_instance_rejects_zero_processors_and_cycles() {
        let g = diamond();
        assert!(DagInstance::new(g.clone(), 0).is_err());
        assert!(DagInstance::new(g, 2).is_ok());
    }

    #[test]
    fn from_edges_builds_the_same_graph_as_incremental_insertion() {
        let a = diamond();
        let b =
            TaskGraph::from_edges(a.tasks().clone(), &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_graph_is_independent() {
        let g = TaskGraph::unit(5);
        assert!(g.is_independent());
        assert_eq!(g.sources().len(), 5);
        assert_eq!(g.sinks().len(), 5);
    }
}
