//! The dual-approximation test: "is there a schedule of makespan at most
//! `(1 + ε)·d`?"

use sws_listsched::ProcHeap;
use sws_model::schedule::Assignment;

use crate::config_dp::{pack_large_ffd, pack_large_min_bins};
use crate::rounding::Rounding;

/// Above this estimated DP work (states × configurations × classes, see
/// [`Rounding::dp_work_estimate`]) the packing falls back to FFD (the
/// guarantee then degrades gracefully; callers are told through
/// [`crate::search::PtasOutcome::exact_packing`]). The estimate is
/// always at least the raw state-space size, so this single gate
/// subsumes the state-space cap this module used to apply — that cap
/// alone admitted regimes whose BFS-layer × configuration product ran
/// for hours.
pub const DP_WORK_LIMIT: usize = 2_000_000;

/// Result of one dual test.
#[derive(Debug, Clone)]
pub struct DualResult {
    /// The produced assignment.
    pub assignment: Assignment,
    /// Whether the large jobs were packed by the exact configuration DP
    /// (`true`) or by the FFD fallback (`false`).
    pub exact_packing: bool,
}

/// Tries to build a schedule of makespan at most `(1 + ε)·d` for the given
/// weights on `m` machines. Returns `None` when the test certifies that no
/// schedule of makespan `d` exists (hence `d < OPT`).
pub fn dual_test(weights: &[f64], m: usize, d: f64, eps: f64) -> Option<DualResult> {
    assert!(m > 0, "need at least one machine");
    let r = Rounding::new(weights, d, eps);

    // Pack the large jobs into at most m bins of (rounded) capacity d.
    let (bins, exact_packing) = if r.dp_work_estimate() <= DP_WORK_LIMIT {
        match pack_large_min_bins(&r, m) {
            Some(b) => (b, true),
            None => return None,
        }
    } else {
        // FFD on the true weights with capacity (1+eps)·d: if even this
        // relaxed packing fails, reject the deadline. (FFD never uses more
        // than (11/9)OPT + 1 bins, so rejections here are still sound for
        // the binary search in the sense that they only make the final
        // deadline slightly larger.)
        match pack_large_ffd(weights, &r, d * (1.0 + eps), m) {
            Some(b) => (b, false),
            None => return None,
        }
    };

    let mut asg = Assignment::zeroed(weights.len(), m).expect("m > 0");
    let mut procs = ProcHeap::new(m);
    for (q, bin) in bins.iter().enumerate() {
        let mut load = 0.0;
        for &job in bin {
            asg.assign(job, q)
                .expect("q < m because at most m bins were used");
            load += weights[job];
        }
        procs.set_load(q, load);
    }

    // Greedily add the small jobs: always to the machine with the smallest
    // load, but only machines whose load is still at most d may receive
    // new work. If every machine exceeds d the total volume proves d < OPT.
    // Loads are sums of non-negative weights, so the processor heap's
    // `(load, index)` order is the argmin scan's, lowest index first.
    for &job in &r.small {
        let q = procs.min();
        if procs.load(q) > d + 1e-12 {
            return None;
        }
        asg.assign(job, q).expect("q < m");
        procs.set_load(q, procs.load(q) + weights[job]);
    }

    Some(DualResult {
        assignment: asg,
        exact_packing,
    })
}

/// The makespan bound certified by a successful dual test: `(1 + ε)·d`.
pub fn certified_makespan(d: f64, eps: f64) -> f64 {
    (1.0 + eps) * d
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::objectives::cmax_of_assignment;
    use sws_model::task::TaskSet;

    fn makespan(weights: &[f64], asg: &Assignment) -> f64 {
        let tasks = TaskSet::from_ps(weights, &vec![0.0; weights.len()]).unwrap();
        cmax_of_assignment(&tasks, asg)
    }

    #[test]
    fn accepts_a_feasible_deadline_and_respects_the_bound() {
        let weights = [3.0, 3.0, 2.0, 2.0, 1.0, 1.0];
        // OPT on 2 machines is 6.
        let res = dual_test(&weights, 2, 6.0, 0.25).expect("6 is feasible");
        assert!(res.exact_packing);
        assert!(makespan(&weights, &res.assignment) <= certified_makespan(6.0, 0.25) + 1e-9);
    }

    #[test]
    fn rejects_an_infeasible_deadline() {
        let weights = [4.0, 4.0, 4.0];
        // Two machines cannot reach makespan 4 with three jobs of size 4.
        assert!(dual_test(&weights, 2, 4.0, 0.25).is_none());
        assert!(dual_test(&weights, 2, 8.0, 0.25).is_some());
    }

    #[test]
    fn all_small_jobs_are_spread_evenly() {
        let weights = [0.5; 8];
        let res = dual_test(&weights, 4, 1.0, 0.5).expect("feasible");
        let ms = makespan(&weights, &res.assignment);
        assert!((ms - 1.0).abs() < 1e-9);
    }

    /// The small-job fill places each job on the least loaded machine,
    /// lowest index first among ties: the argmin scan's assignment.
    #[test]
    fn small_jobs_fill_the_least_loaded_machine_lowest_index_first() {
        // ε·d = 1.25: the three 2.0 jobs are large, one per bin (capacity
        // 2.5), the 0.5 jobs small. After the bins every machine is tied
        // at 2.0, and after three small jobs at 2.5 (still at most d).
        let weights = [2.0, 2.0, 2.0, 0.5, 0.5, 0.5, 0.5, 0.5];
        let res = dual_test(&weights, 3, 2.5, 0.5).expect("feasible");
        let asg = &res.assignment;
        let bins: Vec<usize> = (0..3).map(|job| asg.proc_of(job)).collect();
        let mut sorted = bins.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2], "one large job per machine");
        let small: Vec<usize> = (3..8).map(|job| asg.proc_of(job)).collect();
        assert_eq!(small, vec![0, 1, 2, 0, 1]);

        // Equal small jobs only: round robin from machine 0.
        let res = dual_test(&[0.25; 7], 3, 1.0, 0.5).expect("feasible");
        let small: Vec<usize> = (0..7).map(|job| res.assignment.proc_of(job)).collect();
        assert_eq!(small, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn certified_makespan_formula() {
        assert!((certified_makespan(10.0, 0.2) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn single_machine_always_accepts_total_work() {
        let weights = [1.0, 2.0, 3.0];
        let res = dual_test(&weights, 1, 6.0, 0.5).expect("total work fits");
        assert!((makespan(&weights, &res.assignment) - 6.0).abs() < 1e-9);
    }
}
