//! Instance deltas: the mutation vocabulary of the incremental
//! replanning engine.
//!
//! Everything below PR 10 solves a *frozen* DAG. Online workloads are
//! not frozen: tasks arrive, tasks finish, cost estimates get revised.
//! A [`CsrDelta`] names one such event in terms of the flat
//! [`CsrDag`] mirror the scheduling kernel actually
//! consumes, so a mutation can be applied **in place** — no graph
//! rebuild, no re-flattening — and the kernel's checkpoint/replay
//! machinery can resume from the first affected round instead of
//! re-solving from scratch.
//!
//! The delta layer keeps every `CsrDag` invariant intact:
//!
//! * **Adjacency**: an arrival appends its predecessor list to the pred
//!   CSR (a pure append) and splices itself onto the *end* of each
//!   predecessor's successor list in place — one block move per
//!   predecessor inside the existing successor array and range adds on
//!   the offsets behind the lowest one, with no array rebuilt — at the
//!   same position a [`TaskGraph`](crate::TaskGraph) built with the edge
//!   appended last would produce, so a replan and a from-scratch solve
//!   of the mutated instance see identical edge orders.
//! * **Costs**: a re-estimate overwrites the task's entries in the cost
//!   arrays and an arrival appends its own, bit for bit as given.
//!
//! `CompleteTask` deliberately mutates nothing: completion pins a task
//! against future `Recost`/re-planning (enforced by the engines that
//! track completion), but the already-scheduled instance is unchanged —
//! which is exactly why completion events replay zero rounds.

use crate::csr::CsrDag;
use sws_model::error::ModelError;

/// One mutation of a live instance, in CSR vocabulary.
///
/// Validation happens in [`CsrDag::apply_delta`]; the enum itself is a
/// plain value so event generators (`sws_workloads`) and services can
/// build streams of them without holding the instance.
#[derive(Debug, Clone, PartialEq)]
pub enum CsrDelta {
    /// A new task arrives. It takes the next index (`n`), its
    /// predecessors must already exist, and its costs must be finite
    /// and non-negative (the same domain the task constructors accept).
    AddTask {
        /// Indices of the tasks this one depends on (no duplicates).
        preds: Vec<u32>,
        /// Processing time of the new task.
        p: f64,
        /// Storage requirement of the new task.
        s: f64,
    },
    /// A task finished executing. Structurally a no-op — the schedule
    /// of the instance is unchanged — but it pins the task: engines
    /// refuse later `Recost`s of a completed task, and completed
    /// prefixes anchor the replay machinery.
    CompleteTask {
        /// The finished task.
        task: u32,
    },
    /// A cost re-estimate for an existing task. `None` keeps the
    /// current value.
    Recost {
        /// The re-estimated task.
        task: u32,
        /// New processing time, when it changed.
        p: Option<f64>,
        /// New storage requirement, when it changed.
        s: Option<f64>,
    },
}

impl CsrDelta {
    /// Validates the delta against an instance of `n` tasks, without
    /// applying it.
    pub fn validate(&self, n: usize) -> Result<(), ModelError> {
        let check_p = |task: usize, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(ModelError::InvalidProcessingTime { task, value: v })
            }
        };
        let check_s = |task: usize, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(ModelError::InvalidStorage { task, value: v })
            }
        };
        match self {
            CsrDelta::AddTask { preds, p, s } => {
                check_p(n, *p)?;
                check_s(n, *s)?;
                for (k, &u) in preds.iter().enumerate() {
                    if u as usize >= n {
                        return Err(ModelError::PrecedenceViolation {
                            pred: u as usize,
                            task: n,
                        });
                    }
                    // Duplicate predecessor edges would double-count in
                    // the kernel's readiness bookkeeping; arrivals are
                    // small, so the quadratic scan beats allocating.
                    if preds[..k].contains(&u) {
                        return Err(ModelError::PrecedenceViolation {
                            pred: u as usize,
                            task: n,
                        });
                    }
                }
                Ok(())
            }
            CsrDelta::CompleteTask { task } | CsrDelta::Recost { task, .. } => {
                let t = *task as usize;
                if t >= n {
                    return Err(ModelError::IncompleteAssignment {
                        expected: n,
                        got: t,
                    });
                }
                if let CsrDelta::Recost { p, s, .. } = self {
                    if let Some(v) = p {
                        check_p(t, *v)?;
                    }
                    if let Some(v) = s {
                        check_s(t, *v)?;
                    }
                }
                Ok(())
            }
        }
    }
}

impl CsrDag {
    /// Applies a delta **in place**, maintaining every CSR invariant
    /// (see the module docs). An arrival with `k` predecessors costs `k`
    /// block moves in the successor array plus range adds on the
    /// offsets behind its lowest predecessor, and allocates nothing
    /// instance-sized; recosts cost `O(1)`; completions cost nothing.
    ///
    /// On error the instance is unchanged.
    pub fn apply_delta(&mut self, delta: &CsrDelta) -> Result<(), ModelError> {
        delta.validate(self.n())?;
        match delta {
            CsrDelta::CompleteTask { .. } => Ok(()),
            CsrDelta::Recost { task, p, s } => {
                self.recost(*task as usize, *p, *s);
                Ok(())
            }
            CsrDelta::AddTask { preds, p, s } => {
                self.add_task(preds, *p, *s);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaskGraph;
    use sws_model::task::TaskSet;

    fn diamond_graph() -> TaskGraph {
        let tasks = TaskSet::from_ps(&[1.0, 2.0, 3.0, 4.0], &[4.0, 3.0, 2.0, 1.0]).unwrap();
        TaskGraph::from_edges(tasks, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    /// The mutated CSR must match a CSR built from the equivalently
    /// mutated graph — adjacency, costs and edge order all identical.
    #[test]
    fn arrival_matches_rebuilt_graph() {
        let g = diamond_graph();
        let mut csr = g.csr();
        csr.apply_delta(&CsrDelta::AddTask {
            preds: vec![1, 3],
            p: 5.0,
            s: 0.5,
        })
        .unwrap();

        let mut tasks: Vec<_> = g.tasks().as_slice().to_vec();
        tasks.push(sws_model::task::Task::new(5.0, 0.5).unwrap());
        let g2 = TaskGraph::from_edges(
            TaskSet::new(tasks).unwrap(),
            &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (3, 4)],
        )
        .unwrap();
        let rebuilt = g2.csr();

        assert_eq!(csr.n(), rebuilt.n());
        assert_eq!(csr.edge_count(), rebuilt.edge_count());
        for i in 0..csr.n() {
            assert_eq!(csr.preds(i), rebuilt.preds(i), "preds of {i}");
            assert_eq!(csr.succs(i), rebuilt.succs(i), "succs of {i}");
            assert_eq!(csr.p(i).to_bits(), rebuilt.p(i).to_bits());
            assert_eq!(csr.s(i).to_bits(), rebuilt.s(i).to_bits());
        }
    }

    /// A `-0.0` cost is stored as given, exactly as construction
    /// stores it; consumers that order costs fold it onto `0.0`.
    #[test]
    fn negative_zero_storage_is_normalized_like_construction() {
        let mut csr = diamond_graph().csr();
        csr.apply_delta(&CsrDelta::AddTask {
            preds: vec![],
            p: 1.0,
            s: -0.0,
        })
        .unwrap();
        assert_eq!(csr.s(4).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn invalid_deltas_leave_the_instance_untouched() {
        let mut csr = diamond_graph().csr();
        let before = csr.clone();
        assert!(csr
            .apply_delta(&CsrDelta::AddTask {
                preds: vec![9],
                p: 1.0,
                s: 1.0
            })
            .is_err());
        assert!(csr
            .apply_delta(&CsrDelta::AddTask {
                preds: vec![0, 0],
                p: 1.0,
                s: 1.0
            })
            .is_err());
        assert!(csr
            .apply_delta(&CsrDelta::Recost {
                task: 0,
                p: Some(f64::NAN),
                s: None
            })
            .is_err());
        assert!(csr
            .apply_delta(&CsrDelta::Recost {
                task: 7,
                p: None,
                s: None
            })
            .is_err());
        assert_eq!(csr, before);
    }

    #[test]
    fn complete_task_is_a_structural_noop() {
        let mut csr = diamond_graph().csr();
        let before = csr.clone();
        csr.apply_delta(&CsrDelta::CompleteTask { task: 2 })
            .unwrap();
        assert_eq!(csr, before);
    }
}
