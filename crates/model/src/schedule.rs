//! Schedules: pure assignments (mapping only) and timed schedules.
//!
//! For independent tasks the paper only needs the *assignment* `π : T → Q`
//! (Section 2.1): makespan and memory consumption are per-processor sums,
//! so start times are irrelevant. With precedence constraints the starting
//! time `σ(i)` matters and we use [`TimedSchedule`].

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::instance::Instance;
use crate::numeric::kahan_sum;
use crate::task::TaskSet;

/// A pure assignment of tasks to processors, `π : T → Q`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Assignment {
    proc_of: Vec<usize>,
    m: usize,
}

impl Assignment {
    /// Builds an assignment from the processor index of each task.
    pub fn new(proc_of: Vec<usize>, m: usize) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::NoProcessors);
        }
        for (task, &proc) in proc_of.iter().enumerate() {
            if proc >= m {
                return Err(ModelError::ProcessorOutOfRange { task, proc, m });
            }
        }
        Ok(Assignment { proc_of, m })
    }

    /// An assignment with every slot unassigned — used by algorithms that
    /// fill it task by task via [`Assignment::assign`]. All tasks initially
    /// map to processor 0.
    pub fn zeroed(n: usize, m: usize) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::NoProcessors);
        }
        Ok(Assignment {
            proc_of: vec![0; n],
            m,
        })
    }

    /// Number of tasks covered.
    #[inline]
    pub fn n(&self) -> usize {
        self.proc_of.len()
    }

    /// Number of processors.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Processor of task `i`.
    #[inline]
    pub fn proc_of(&self, i: usize) -> usize {
        self.proc_of[i]
    }

    /// Raw mapping.
    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.proc_of
    }

    /// Reassigns task `i` to processor `proc`.
    pub fn assign(&mut self, i: usize, proc: usize) -> Result<(), ModelError> {
        if proc >= self.m {
            return Err(ModelError::ProcessorOutOfRange {
                task: i,
                proc,
                m: self.m,
            });
        }
        self.proc_of[i] = proc;
        Ok(())
    }

    /// Per-processor total processing time (`load` in the paper's
    /// pseudo-code).
    pub fn loads(&self, tasks: &TaskSet) -> Vec<f64> {
        let mut loads = vec![0.0; self.m];
        for (i, &q) in self.proc_of.iter().enumerate() {
            loads[q] += tasks.get(i).p;
        }
        loads
    }

    /// Per-processor total storage (`memsize` in the paper's pseudo-code).
    pub fn memory(&self, tasks: &TaskSet) -> Vec<f64> {
        let mut mem = vec![0.0; self.m];
        for (i, &q) in self.proc_of.iter().enumerate() {
            mem[q] += tasks.get(i).s;
        }
        mem
    }

    /// Tasks assigned to each processor, preserving task order.
    pub fn tasks_per_processor(&self) -> Vec<Vec<usize>> {
        let mut per = vec![Vec::new(); self.m];
        for (i, &q) in self.proc_of.iter().enumerate() {
            per[q].push(i);
        }
        per
    }

    /// Converts the assignment into a timed schedule for *independent*
    /// tasks by executing each processor's tasks back to back in index
    /// order. Start times are irrelevant for the paper's objectives on
    /// independent tasks but are needed by the simulator and the ΣCi
    /// objective.
    pub fn into_timed(&self, tasks: &TaskSet) -> TimedSchedule {
        let mut clock = vec![0.0; self.m];
        // Index order is the packing order, so the starts stream straight
        // into the shared buffer.
        let start = self
            .proc_of
            .iter()
            .enumerate()
            .map(|(i, &q)| {
                let s = clock[q];
                clock[q] += tasks.get(i).p;
                s
            })
            .collect();
        TimedSchedule {
            proc_of: Arc::from(&self.proc_of[..]),
            start,
            m: self.m,
        }
    }

    /// Converts the assignment into a timed schedule where each processor
    /// executes its tasks in the given global priority order (e.g. SPT).
    pub fn into_timed_ordered(&self, tasks: &TaskSet, order: &[usize]) -> TimedSchedule {
        let mut start = vec![0.0; self.proc_of.len()];
        let mut clock = vec![0.0; self.m];
        for &i in order {
            let q = self.proc_of[i];
            start[i] = clock[q];
            clock[q] += tasks.get(i).p;
        }
        TimedSchedule {
            proc_of: Arc::from(&self.proc_of[..]),
            start: start.into(),
            m: self.m,
        }
    }
}

/// A timed schedule: processor assignment `π` plus starting times `σ`.
///
/// A schedule is **immutable once built**, and its `π`/`σ` buffers are
/// **shared**: `clone` bumps two reference counts instead of copying
/// `O(n)` data, so a warm ∆-sweep chain can hand the same schedule to
/// every grid point it did not change. Equality still compares
/// contents; [`TimedSchedule::shares_storage`] tells whether two
/// schedules are the same buffers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedSchedule {
    proc_of: Arc<[usize]>,
    start: Arc<[f64]>,
    m: usize,
}

impl TimedSchedule {
    /// Builds a timed schedule from the processor and start time of every
    /// task.
    pub fn new(proc_of: Vec<usize>, start: Vec<f64>, m: usize) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::NoProcessors);
        }
        if proc_of.len() != start.len() {
            return Err(ModelError::LengthMismatch {
                left: proc_of.len(),
                right: start.len(),
            });
        }
        for (task, &proc) in proc_of.iter().enumerate() {
            if proc >= m {
                return Err(ModelError::ProcessorOutOfRange { task, proc, m });
            }
        }
        for (task, &s) in start.iter().enumerate() {
            if !s.is_finite() || s < 0.0 {
                return Err(ModelError::NegativeStart { task, start: s });
            }
        }
        Ok(TimedSchedule {
            proc_of: proc_of.into(),
            start: start.into(),
            m,
        })
    }

    /// Builds a timed schedule without the `O(n)` validation passes, for
    /// construction sites whose invariants hold by construction (the
    /// scheduling kernel emits one schedule per run on its throughput
    /// path, writing straight into already shared buffers, which are
    /// taken as they are). Debug builds still assert the
    /// [`TimedSchedule::new`] invariants.
    pub fn new_unchecked(
        proc_of: impl Into<Arc<[usize]>>,
        start: impl Into<Arc<[f64]>>,
        m: usize,
    ) -> Self {
        let (proc_of, start) = (proc_of.into(), start.into());
        debug_assert!(m >= 1);
        debug_assert_eq!(proc_of.len(), start.len());
        debug_assert!(proc_of.iter().all(|&q| q < m));
        debug_assert!(start.iter().all(|&s| s.is_finite() && s >= 0.0));
        TimedSchedule { proc_of, start, m }
    }

    /// Whether `self` and `other` are the same buffers (one a clone of
    /// the other), not just equal contents. `O(1)`: callers use it to
    /// skip recomputing anything derived from an unchanged schedule.
    #[inline]
    pub fn shares_storage(&self, other: &TimedSchedule) -> bool {
        Arc::ptr_eq(&self.proc_of, &other.proc_of) && Arc::ptr_eq(&self.start, &other.start)
    }

    /// Number of tasks.
    #[inline]
    pub fn n(&self) -> usize {
        self.proc_of.len()
    }

    /// Number of processors.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Processor of task `i` (`π(i)`).
    #[inline]
    pub fn proc_of(&self, i: usize) -> usize {
        self.proc_of[i]
    }

    /// Starting time of task `i` (`σ(i)`).
    #[inline]
    pub fn start(&self, i: usize) -> f64 {
        self.start[i]
    }

    /// Completion time `C_i = σ(i) + p_i`.
    #[inline]
    pub fn completion(&self, i: usize, tasks: &TaskSet) -> f64 {
        self.start[i] + tasks.get(i).p
    }

    /// The underlying assignment (dropping start times).
    pub fn assignment(&self) -> Assignment {
        Assignment {
            proc_of: self.proc_of.to_vec(),
            m: self.m,
        }
    }

    /// Per-processor total storage.
    pub fn memory(&self, tasks: &TaskSet) -> Vec<f64> {
        self.assignment().memory(tasks)
    }

    /// Per-processor busy time (sum of processing times assigned).
    pub fn busy(&self, tasks: &TaskSet) -> Vec<f64> {
        self.assignment().loads(tasks)
    }

    /// Completion time of the last task, `Cmax = max_i C_i`.
    pub fn cmax(&self, tasks: &TaskSet) -> f64 {
        crate::numeric::max_or_zero((0..self.n()).map(|i| self.completion(i, tasks)))
    }

    /// Sum of completion times `Σ C_i`.
    pub fn sum_completion(&self, tasks: &TaskSet) -> f64 {
        kahan_sum((0..self.n()).map(|i| self.completion(i, tasks)))
    }

    /// Tasks on each processor sorted by start time — useful for Gantt
    /// rendering and overlap checks.
    pub fn timeline(&self) -> Vec<Vec<usize>> {
        let mut per: Vec<Vec<usize>> = vec![Vec::new(); self.m];
        for (i, &q) in self.proc_of.iter().enumerate() {
            per[q].push(i);
        }
        for lane in &mut per {
            lane.sort_by(|&a, &b| crate::numeric::total_cmp(self.start[a], self.start[b]));
        }
        per
    }

    /// Idle time of the schedule: `m · Cmax − Σ p_i` measured against this
    /// schedule's own makespan.
    pub fn total_idle(&self, tasks: &TaskSet) -> f64 {
        self.m as f64 * self.cmax(tasks) - tasks.total_work()
    }
}

/// Convenience: evaluate a schedule produced for a given instance.
impl TimedSchedule {
    /// Makespan against the instance's task set.
    pub fn cmax_for(&self, inst: &Instance) -> f64 {
        self.cmax(inst.tasks())
    }

    /// Maximum cumulative memory against the instance's task set.
    pub fn mmax_for(&self, inst: &Instance) -> f64 {
        crate::numeric::max_or_zero(self.memory(inst.tasks()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSet;

    fn tasks() -> TaskSet {
        TaskSet::from_ps(&[1.0, 0.5, 0.5], &[0.1, 1.0, 1.0]).unwrap()
    }

    #[test]
    fn assignment_validates_processor_range() {
        assert!(Assignment::new(vec![0, 1, 2], 2).is_err());
        assert!(Assignment::new(vec![0, 1, 1], 2).is_ok());
        assert!(Assignment::new(vec![], 0).is_err());
    }

    #[test]
    fn loads_and_memory_are_per_processor_sums() {
        let ts = tasks();
        let asg = Assignment::new(vec![0, 1, 1], 2).unwrap();
        let loads = asg.loads(&ts);
        let mem = asg.memory(&ts);
        assert!((loads[0] - 1.0).abs() < 1e-12);
        assert!((loads[1] - 1.0).abs() < 1e-12);
        assert!((mem[0] - 0.1).abs() < 1e-12);
        assert!((mem[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn into_timed_packs_tasks_back_to_back() {
        let ts = tasks();
        let asg = Assignment::new(vec![0, 0, 1], 2).unwrap();
        let timed = asg.into_timed(&ts);
        assert_eq!(timed.start(0), 0.0);
        assert!((timed.start(1) - 1.0).abs() < 1e-12);
        assert_eq!(timed.start(2), 0.0);
        assert!((timed.cmax(&ts) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn into_timed_ordered_respects_priority_order() {
        let ts = TaskSet::from_ps(&[2.0, 1.0], &[1.0, 1.0]).unwrap();
        let asg = Assignment::new(vec![0, 0], 1).unwrap();
        // SPT order: task 1 (p=1) before task 0 (p=2).
        let timed = asg.into_timed_ordered(&ts, &[1, 0]);
        assert_eq!(timed.start(1), 0.0);
        assert!((timed.start(0) - 1.0).abs() < 1e-12);
        // Sum of completion times 1 + 3 = 4, better than the FIFO order's 2 + 3 = 5.
        assert!((timed.sum_completion(&ts) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn timed_schedule_validates_inputs() {
        assert!(TimedSchedule::new(vec![0], vec![-1.0], 1).is_err());
        assert!(TimedSchedule::new(vec![0, 1], vec![0.0], 2).is_err());
        assert!(TimedSchedule::new(vec![3], vec![0.0], 2).is_err());
        assert!(TimedSchedule::new(vec![0], vec![0.0], 1).is_ok());
    }

    #[test]
    fn timeline_sorts_by_start_time() {
        let ts = tasks();
        let sched = TimedSchedule::new(vec![0, 0, 1], vec![0.5, 0.0, 0.0], 2).unwrap();
        let tl = sched.timeline();
        assert_eq!(tl[0], vec![1, 0]);
        assert_eq!(tl[1], vec![2]);
        let _ = ts; // silence unused in case of future edits
    }

    #[test]
    fn idle_time_accounts_for_all_processors() {
        let ts = TaskSet::from_ps(&[2.0, 1.0], &[1.0, 1.0]).unwrap();
        let asg = Assignment::new(vec![0, 1], 2).unwrap();
        let timed = asg.into_timed(&ts);
        // Cmax = 2, total work = 3, so idle = 2*2 - 3 = 1.
        assert!((timed.total_idle(&ts) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn assignment_round_trips_through_timed_schedule() {
        let ts = tasks();
        let asg = Assignment::new(vec![1, 0, 1], 2).unwrap();
        let timed = asg.into_timed(&ts);
        assert_eq!(timed.assignment(), asg);
    }

    #[test]
    fn zeroed_assignment_then_assign() {
        let mut asg = Assignment::zeroed(3, 2).unwrap();
        asg.assign(2, 1).unwrap();
        assert_eq!(asg.proc_of(2), 1);
        assert!(asg.assign(0, 5).is_err());
    }
}
