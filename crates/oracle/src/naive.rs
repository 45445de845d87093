//! Naive reference oracles for the event-driven kernel.
//!
//! These are the original `O(n²·m)` implementations: every round rescans
//! all unscheduled tasks and all processors. They are kept verbatim (only
//! the ad-hoc float tolerances were replaced by the shared
//! [`sws_model::numeric`] helpers) as *differential-testing oracles* for
//! `sws_listsched::kernel`: the kernel must produce schedule-for-schedule
//! identical results. Production callers use
//! `sws_listsched::dag_list_schedule` / `sws_listsched::list_schedule`,
//! which run on the kernel.

use sws_dag::DagInstance;
use sws_listsched::priority::PriorityRank;
use sws_model::numeric::better_candidate;
use sws_model::schedule::{Assignment, TimedSchedule};

/// Index of the minimum element (ties broken by the lowest index, which
/// keeps the algorithm deterministic).
fn argmin(values: &[f64]) -> usize {
    let mut best = 0usize;
    for (i, &v) in values.iter().enumerate().skip(1) {
        if v < values[best] {
            best = i;
        }
    }
    best
}

/// Naive Graham list scheduling of independent weighted tasks: a full
/// `O(m)` `argmin` scan per task.
pub fn list_schedule(weights: &[f64], m: usize, order: &[usize]) -> Assignment {
    let mut asg = Assignment::zeroed(weights.len(), m).expect("m >= 1 required");
    let mut load = vec![0.0f64; m];
    for &i in order {
        let q = argmin(&load);
        asg.assign(i, q).expect("q < m by construction");
        load[q] += weights[i];
    }
    asg
}

/// Naive DAG list scheduling: each of the `n` rounds rescans every
/// unscheduled task (`O(n)`) and every processor (`O(m)`), yielding
/// `O(n²·m)` total.
pub fn dag_list_schedule(inst: &DagInstance, priority: &PriorityRank) -> TimedSchedule {
    let graph = inst.graph();
    let n = graph.n();
    let m = inst.m();
    assert_eq!(priority.len(), n, "priority rank must cover every task");

    let mut load = vec![0.0f64; m];
    let mut completion = vec![0.0f64; n];
    let mut scheduled = vec![false; n];
    let mut remaining_preds: Vec<usize> = (0..n).map(|i| graph.in_degree(i)).collect();
    let mut proc_of = vec![0usize; n];
    let mut start = vec![0.0f64; n];

    for _round in 0..n {
        // Among ready (all predecessors completed, not yet scheduled)
        // tasks, compute the earliest possible start on the least loaded
        // processor and keep the task minimizing it.
        let mut best: Option<(f64, u32, usize)> = None; // (start, rank, task)
        for i in 0..n {
            if scheduled[i] || remaining_preds[i] != 0 {
                continue;
            }
            let q = argmin(&load);
            let pred_ready = graph
                .preds(i)
                .iter()
                .map(|&p| completion[p])
                .fold(0.0f64, f64::max);
            let ready = pred_ready.max(load[q]);
            let candidate = (ready, priority[i], i);
            let better = match best {
                None => true,
                Some(cur) => {
                    better_candidate(candidate.0, candidate.1 as usize, cur.0, cur.1 as usize)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        let (ready, _rank, i) = best.expect("an acyclic graph always has a ready task");
        let q = argmin(&load);
        proc_of[i] = q;
        start[i] = ready;
        completion[i] = ready + graph.task(i).p;
        load[q] = completion[i];
        scheduled[i] = true;
        for &v in graph.succs(i) {
            remaining_preds[v] -= 1;
        }
    }

    TimedSchedule::new(proc_of, start, m).expect("constructed schedule is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_dag::prelude::*;
    use sws_listsched::priority::{hlf_priority, index_priority};

    #[test]
    fn argmin_prefers_the_lowest_index_on_ties() {
        assert_eq!(argmin(&[2.0, 1.0, 1.0]), 1);
        assert_eq!(argmin(&[0.0]), 0);
        assert_eq!(argmin(&[3.0, 3.0, 3.0]), 0);
    }

    #[test]
    fn naive_oracle_matches_known_small_results() {
        let asg = list_schedule(&[4.0, 3.0, 2.0], 2, &[0, 1, 2]);
        assert_eq!(asg.proc_of(0), 0);
        assert_eq!(asg.proc_of(1), 1);
        assert_eq!(asg.proc_of(2), 1);

        let inst = DagInstance::new(chain(4), 2).unwrap();
        let sched = dag_list_schedule(&inst, &index_priority(4));
        assert!((sched.cmax(inst.tasks()) - 4.0).abs() < 1e-9);
    }

    /// The kernel path must agree schedule-for-schedule with the naive
    /// oracle (broader coverage lives in tests/differential_kernel.rs).
    #[test]
    fn kernel_matches_the_naive_oracle_on_structured_graphs() {
        for g in [
            gaussian_elimination(6),
            fft_butterfly(4),
            diamond_grid(4, 6),
        ] {
            for &m in &[2usize, 3, 5] {
                let inst = DagInstance::new(g.clone(), m).unwrap();
                for rank in [index_priority(inst.n()), hlf_priority(inst.graph())] {
                    let kernel = sws_listsched::dag_list_schedule(&inst, &rank);
                    let naive = dag_list_schedule(&inst, &rank);
                    assert_eq!(kernel, naive, "kernel/naive mismatch at m={m}");
                }
            }
        }
    }
}
