//! Shortest Processing Time first (SPT).
//!
//! List scheduling in SPT order is optimal for `P ∥ ΣC_i` on any number of
//! identical processors — the fact Section 5.2 of the paper builds on
//! ("Recall that a List Scheduling using SPT is optimal on ΣCi").

use sws_model::schedule::TimedSchedule;
use sws_model::Instance;

use crate::graham::list_schedule;

/// Indices of the tasks sorted by increasing weight (ties by index).
pub fn spt_order(weights: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| sws_model::numeric::total_cmp(weights[a], weights[b]).then(a.cmp(&b)));
    order
}

/// SPT timed schedule: tasks are executed on their processor in SPT order,
/// which makes the schedule optimal for `ΣC_i`.
pub fn spt_schedule(inst: &Instance) -> TimedSchedule {
    let weights: Vec<f64> = (0..inst.n()).map(|i| inst.p(i)).collect();
    let order = spt_order(&weights);
    let asg = list_schedule(&weights, inst.m(), &order);
    asg.into_timed_ordered(inst.tasks(), &order)
}

/// The optimal `ΣC_i` value for the instance (the value of the SPT
/// schedule).
pub fn optimal_sum_completion(inst: &Instance) -> f64 {
    spt_schedule(inst).sum_completion(inst.tasks())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::bounds::sum_ci_lower_bound;
    use sws_model::validate::validate_timed;

    #[test]
    fn order_is_increasing() {
        let order = spt_order(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn single_machine_spt_is_the_classic_optimum() {
        let inst = Instance::from_ps(&[3.0, 1.0, 2.0], &[1.0; 3], 1).unwrap();
        let sched = spt_schedule(&inst);
        // Completions: task1 at 1, task2 at 3, task0 at 6 -> 10.
        assert!((sched.sum_completion(inst.tasks()) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn spt_value_matches_the_model_lower_bound_formula() {
        let inst = Instance::from_ps(&[4.0, 2.0, 7.0, 1.0, 3.0, 5.0, 6.0], &[1.0; 7], 3).unwrap();
        let spt_value = optimal_sum_completion(&inst);
        let bound = sum_ci_lower_bound(inst.tasks(), inst.m());
        assert!((spt_value - bound).abs() < 1e-9);
    }

    #[test]
    fn schedules_are_feasible_timed_schedules() {
        let inst = Instance::from_ps(&[4.0, 2.0, 7.0, 1.0, 3.0], &[1.0; 5], 2).unwrap();
        let sched = spt_schedule(&inst);
        let preds: Vec<Vec<usize>> = vec![Vec::new(); inst.n()];
        assert!(validate_timed(inst.tasks(), inst.m(), &sched, &preds, None).is_ok());
    }

    #[test]
    fn more_processors_never_hurt_sum_completion() {
        let inst2 = Instance::from_ps(&[4.0, 2.0, 7.0, 1.0, 3.0], &[1.0; 5], 2).unwrap();
        let inst3 = inst2.with_processors(3).unwrap();
        assert!(optimal_sum_completion(&inst3) <= optimal_sum_completion(&inst2) + 1e-12);
    }

    #[test]
    fn empty_instance_has_zero_sum_completion() {
        let inst = Instance::from_ps(&[], &[], 2).unwrap();
        assert_eq!(optimal_sum_completion(&inst), 0.0);
    }
}
