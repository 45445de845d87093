//! # sws-dag
//!
//! Task-graph (DAG) substrate for the precedence-constrained problem
//! `P | p_j, s_j, prec | Cmax, Mmax` studied in Section 5 of
//! *Scheduling with Storage Constraints* (Saule, Dutot, Mounié, IPDPS'08).
//!
//! The crate is self-contained (no external graph library):
//!
//! * [`graph`] — the [`TaskGraph`] adjacency structure and
//!   [`DagInstance`] (graph + processor count),
//! * [`topo`] — topological ordering and cycle detection,
//! * [`levels`] — top/bottom levels and the critical-path lower bound,
//! * [`analysis`] — structural statistics (depth, width, degrees),
//! * [`generators`] — synthetic task-graph families used by the
//!   evaluation harness (layered random graphs, fork–join, trees,
//!   diamond/stencil grids, Gaussian elimination, LU, FFT butterflies,
//!   chains and independent sets).
//!
//! # Example
//!
//! ```
//! use sws_dag::prelude::*;
//! use sws_model::task::{Task, TaskSet};
//!
//! // A small fork-join: 0 -> {1,2} -> 3.
//! let tasks = TaskSet::new(vec![Task::new_unchecked(1.0, 1.0); 4]).unwrap();
//! let mut g = TaskGraph::new(tasks);
//! g.add_edge(0, 1).unwrap();
//! g.add_edge(0, 2).unwrap();
//! g.add_edge(1, 3).unwrap();
//! g.add_edge(2, 3).unwrap();
//! assert!(g.topological_order().is_ok());
//! assert_eq!(g.critical_path_length(), 3.0);
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod csr;
pub mod delta;
pub mod generators;
pub mod graph;
pub mod levels;
pub mod topo;

pub use csr::CsrDag;
pub use delta::CsrDelta;
pub use graph::{DagInstance, TaskGraph};

/// Frequently used items.
pub mod prelude {
    pub use crate::analysis::GraphStats;
    pub use crate::csr::CsrDag;
    pub use crate::generators::{
        chain::chain,
        diamond::diamond_grid,
        erdos::layered_erdos,
        fft::fft_butterfly,
        forkjoin::fork_join,
        gauss::gaussian_elimination,
        independent::independent,
        layered::layered_random,
        lu::lu_factorization,
        tree::{in_tree, out_tree},
    };
    pub use crate::graph::{DagInstance, TaskGraph};
    pub use crate::levels::{bottom_levels, critical_path, top_levels};
    pub use crate::topo::{is_acyclic, topological_order};
}
