//! Graham list scheduling for independent tasks.
//!
//! The algorithm considers the tasks in a given order and assigns each one
//! to the processor with the smallest current total weight. Graham proved
//! it is a `2 − 1/m` approximation of `P ∥ Cmax` for any order; because
//! makespan and cumulative memory are structurally identical objectives on
//! independent tasks (Section 2.1 of the paper), the very same procedure
//! run on the storage requirements `s_i` is a `2 − 1/m` approximation of
//! the optimal `Mmax`.

use sws_model::schedule::Assignment;
use sws_model::Instance;

use crate::kernel::ProcHeap;

/// Assigns tasks (in the given `order`) greedily to the processor with the
/// smallest accumulated weight. `weights[i]` is the weight of task `i`
/// (its processing time for makespan scheduling, its storage requirement
/// for memory scheduling). Tasks not present in `order` keep the default
/// processor 0, but normal callers pass a permutation of `0..n`.
///
/// Runs on the event-driven kernel's processor-load tournament tree
/// ([`crate::kernel::ProcHeap`]): `O(n·log m)` instead of the naive
/// `O(n·m)` scan (kept as `sws_oracle::list_schedule`), with the same
/// lowest-index tie-break.
pub fn list_schedule(weights: &[f64], m: usize, order: &[usize]) -> Assignment {
    // Empty heap: `list_schedule_with` sizes it, so the one-shot path
    // initializes the processor state exactly once.
    let mut procs = ProcHeap::empty();
    list_schedule_with(weights, m, order, &mut procs)
}

/// [`list_schedule`] with an explicit reusable processor heap: the heap
/// is reset (not reallocated) per call, so a caller scheduling many
/// task lists — the SBO engine's inner schedules, a batch of instances
/// — reuses one allocation. Bit-identical to [`list_schedule`].
pub fn list_schedule_with(
    weights: &[f64],
    m: usize,
    order: &[usize],
    procs: &mut ProcHeap,
) -> Assignment {
    let mut asg = Assignment::zeroed(weights.len(), m).expect("m >= 1 required");
    procs.reset(m);
    for &i in order {
        let q = procs.min();
        asg.assign(i, q).expect("q < m by construction");
        procs.set_load(q, procs.load(q) + weights[i]);
    }
    asg
}

/// Graham list scheduling of an instance for the makespan objective,
/// processing tasks in index order. Guarantee: `Cmax ≤ (2 − 1/m)·C*max`.
pub fn graham_cmax(inst: &Instance) -> Assignment {
    let weights: Vec<f64> = (0..inst.n()).map(|i| inst.p(i)).collect();
    let order: Vec<usize> = (0..inst.n()).collect();
    list_schedule(&weights, inst.m(), &order)
}

/// Graham list scheduling of an instance for the memory objective,
/// processing tasks in index order. Guarantee: `Mmax ≤ (2 − 1/m)·M*max`.
pub fn graham_mmax(inst: &Instance) -> Assignment {
    let weights: Vec<f64> = (0..inst.n()).map(|i| inst.s(i)).collect();
    let order: Vec<usize> = (0..inst.n()).collect();
    list_schedule(&weights, inst.m(), &order)
}

/// The Graham guarantee `2 − 1/m` for `m` processors.
pub fn graham_guarantee(m: usize) -> f64 {
    2.0 - 1.0 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::bounds::{cmax_lower_bound, mmax_lower_bound};
    use sws_model::objectives::{cmax_of_assignment, mmax_of_assignment};
    use sws_model::validate::validate_assignment;

    fn instance() -> Instance {
        Instance::from_ps(
            &[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0],
            &[2.0, 7.0, 1.0, 8.0, 2.0, 8.0, 1.0, 8.0],
            3,
        )
        .unwrap()
    }

    #[test]
    fn produces_a_complete_valid_assignment() {
        let inst = instance();
        let asg = graham_cmax(&inst);
        assert!(validate_assignment(&inst, &asg, None).is_ok());
    }

    #[test]
    fn respects_the_graham_bound_on_cmax() {
        let inst = instance();
        let asg = graham_cmax(&inst);
        let cmax = cmax_of_assignment(inst.tasks(), &asg);
        let lb = cmax_lower_bound(inst.tasks(), inst.m());
        assert!(cmax <= graham_guarantee(inst.m()) * lb + 1e-9);
    }

    #[test]
    fn respects_the_graham_bound_on_mmax() {
        let inst = instance();
        let asg = graham_mmax(&inst);
        let mmax = mmax_of_assignment(inst.tasks(), &asg);
        let lb = mmax_lower_bound(inst.tasks(), inst.m());
        assert!(mmax <= graham_guarantee(inst.m()) * lb + 1e-9);
    }

    #[test]
    fn least_loaded_processor_receives_the_next_task() {
        // Weights 4, 3, 2 on two machines: 4 -> P0, 3 -> P1, 2 -> P1 (load 3 < 4).
        let asg = list_schedule(&[4.0, 3.0, 2.0], 2, &[0, 1, 2]);
        assert_eq!(asg.proc_of(0), 0);
        assert_eq!(asg.proc_of(1), 1);
        assert_eq!(asg.proc_of(2), 1);
    }

    #[test]
    fn order_changes_the_schedule_but_not_its_feasibility() {
        let inst = instance();
        let weights: Vec<f64> = (0..inst.n()).map(|i| inst.p(i)).collect();
        let forward: Vec<usize> = (0..inst.n()).collect();
        let backward: Vec<usize> = (0..inst.n()).rev().collect();
        let a = list_schedule(&weights, inst.m(), &forward);
        let b = list_schedule(&weights, inst.m(), &backward);
        assert!(validate_assignment(&inst, &a, None).is_ok());
        assert!(validate_assignment(&inst, &b, None).is_ok());
    }

    #[test]
    fn single_processor_schedules_everything_there() {
        let inst = Instance::from_ps(&[1.0, 2.0], &[1.0, 1.0], 1).unwrap();
        let asg = graham_cmax(&inst);
        assert_eq!(asg.proc_of(0), 0);
        assert_eq!(asg.proc_of(1), 0);
        let cmax = cmax_of_assignment(inst.tasks(), &asg);
        assert!((cmax - 3.0).abs() < 1e-12);
    }

    #[test]
    fn classic_graham_anomaly_instance_stays_within_the_bound() {
        // The textbook worst case for list scheduling: m(m-1) unit tasks
        // followed by one task of length m.
        let m = 4usize;
        let mut p = vec![1.0; m * (m - 1)];
        p.push(m as f64);
        let s = vec![1.0; p.len()];
        let inst = Instance::from_ps(&p, &s, m).unwrap();
        let asg = graham_cmax(&inst);
        let cmax = cmax_of_assignment(inst.tasks(), &asg);
        // Optimal is m; list scheduling in this order yields 2m - 1.
        assert!((cmax - (2.0 * m as f64 - 1.0)).abs() < 1e-9);
        assert!(cmax <= graham_guarantee(m) * m as f64 + 1e-9);
    }

    #[test]
    fn empty_instance_yields_empty_assignment() {
        let inst = Instance::from_ps(&[], &[], 2).unwrap();
        let asg = graham_cmax(&inst);
        assert_eq!(asg.n(), 0);
    }

    #[test]
    fn guarantee_value_matches_formula() {
        assert!((graham_guarantee(1) - 1.0).abs() < 1e-12);
        assert!((graham_guarantee(2) - 1.5).abs() < 1e-12);
        assert!((graham_guarantee(4) - 1.75).abs() < 1e-12);
    }
}
