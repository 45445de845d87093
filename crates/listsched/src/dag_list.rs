//! Graham list scheduling under precedence constraints.
//!
//! This is the unconstrained ancestor of the paper's RLS∆ (Algorithm 2):
//! repeatedly pick, among the ready tasks, the one that can start the
//! soonest (ties broken by a priority rank) and place it on the least
//! loaded processor. Graham's classical analysis gives a `2 − 1/m`
//! guarantee on the makespan against `max(Σp_i/m, critical path)`.
//!
//! The implementation runs on the shared event-driven kernel
//! ([`crate::kernel`]), which mirrors the structure of Algorithm 2 in the
//! paper (without the memory restriction) so that RLS∆ in `sws-core`
//! differs from it only by the `memsize[j] + s_i ≤ ∆·LB` admissibility
//! predicate. The original `O(n²·m)` scan survives as the differential
//! oracle `sws_oracle::dag_list_schedule`.

use sws_dag::{CsrDag, DagInstance};
use sws_model::schedule::TimedSchedule;

use crate::kernel::{
    event_driven_schedule, event_driven_schedule_csr, KernelWorkspace, Unrestricted,
};
use crate::priority::PriorityRank;

/// List scheduling with precedence constraints.
///
/// `priority` gives the tie-break rank of every task (lower = preferred);
/// pass [`crate::priority::index_priority`] for the paper's "arbitrary"
/// order or [`crate::priority::hlf_priority`] for critical-path first.
pub fn dag_list_schedule(inst: &DagInstance, priority: &PriorityRank) -> TimedSchedule {
    event_driven_schedule(inst, priority, &mut Unrestricted)
        .expect("unrestricted admission never rejects, the schedule is well formed")
        .schedule
}

/// [`dag_list_schedule`] over a prebuilt CSR instance mirror with a
/// reusable workspace — the allocation-free serving path (the CSR form
/// is built once per instance, the workspace once per worker).
/// Bit-identical to [`dag_list_schedule`].
pub fn dag_list_schedule_csr(
    csr: &CsrDag,
    m: usize,
    priority: &PriorityRank,
    ws: &mut KernelWorkspace,
) -> TimedSchedule {
    event_driven_schedule_csr(csr, m, priority, &mut Unrestricted, ws)
        .expect("unrestricted admission never rejects, the schedule is well formed")
        .schedule
}

/// The Graham guarantee for precedence-constrained list scheduling,
/// measured against `Σp_i/m + critical path ≤ 2·C*max`: the makespan is at
/// most `(2 − 1/m)·C*max`.
pub fn dag_list_guarantee(m: usize) -> f64 {
    2.0 - 1.0 / m as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::{hlf_priority, index_priority};
    use sws_dag::prelude::*;
    use sws_model::bounds::cmax_lower_bound_prec;
    use sws_model::validate::validate_timed;

    fn check(inst: &DagInstance, sched: &TimedSchedule) {
        let preds = inst.graph().all_preds();
        validate_timed(inst.tasks(), inst.m(), sched, preds, None)
            .expect("list schedule must be feasible");
    }

    #[test]
    fn chain_is_executed_sequentially() {
        let inst = DagInstance::new(chain(5), 3).unwrap();
        let sched = dag_list_schedule(&inst, &index_priority(5));
        check(&inst, &sched);
        assert!((sched.cmax(inst.tasks()) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn independent_tasks_reduce_to_graham() {
        let inst = DagInstance::new(independent(8), 4).unwrap();
        let sched = dag_list_schedule(&inst, &index_priority(8));
        check(&inst, &sched);
        assert!((sched.cmax(inst.tasks()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fork_join_uses_the_available_parallelism() {
        // 1 fork + 4 parallel + 1 join on 2 processors: 1 + 2 + 1 = 4.
        let inst = DagInstance::new(fork_join(1, 4), 2).unwrap();
        let sched = dag_list_schedule(&inst, &index_priority(inst.n()));
        check(&inst, &sched);
        assert!((sched.cmax(inst.tasks()) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn respects_graham_bound_on_every_generator_family() {
        let graphs = vec![
            gaussian_elimination(5),
            lu_factorization(3),
            fft_butterfly(3),
            diamond_grid(4, 4),
            out_tree(4, 2),
        ];
        for g in graphs {
            for &m in &[2usize, 4, 8] {
                let inst = DagInstance::new(g.clone(), m).unwrap();
                let priority = hlf_priority(inst.graph());
                let sched = dag_list_schedule(&inst, &priority);
                check(&inst, &sched);
                let cp = inst.graph().critical_path_length();
                let lb = cmax_lower_bound_prec(inst.tasks(), m, cp);
                let cmax = sched.cmax(inst.tasks());
                assert!(
                    cmax <= dag_list_guarantee(m) * lb * (1.0 + 1e-9) + 1e-9,
                    "Graham bound violated: cmax = {cmax}, lb = {lb}, m = {m}"
                );
            }
        }
    }

    #[test]
    fn hlf_priority_never_worse_than_graham_bound_on_diamond() {
        let inst = DagInstance::new(diamond_grid(6, 6), 3).unwrap();
        let sched = dag_list_schedule(&inst, &hlf_priority(inst.graph()));
        check(&inst, &sched);
        let cp = inst.graph().critical_path_length();
        let lb = cmax_lower_bound_prec(inst.tasks(), 3, cp);
        assert!(sched.cmax(inst.tasks()) <= dag_list_guarantee(3) * lb + 1e-9);
    }

    #[test]
    fn no_processor_is_idle_while_work_is_ready() {
        // Structural check of the Graham property on a small instance:
        // with independent tasks and m = 2, both processors must be busy
        // until the last task starts.
        let inst = DagInstance::new(independent(6), 2).unwrap();
        let sched = dag_list_schedule(&inst, &index_priority(6));
        let busy: f64 = sched.busy(inst.tasks()).iter().sum();
        assert!((busy - inst.tasks().total_work()).abs() < 1e-9);
        assert!((sched.cmax(inst.tasks()) - 3.0).abs() < 1e-9);
    }

    /// Regression for the duplicated-argmin wart of the old scan (the
    /// selected task must land on the least loaded processor at the time
    /// of its placement): replay the schedule and check every placement
    /// against the load vector.
    #[test]
    fn every_placement_targets_the_least_loaded_processor() {
        let inst = DagInstance::new(diamond_grid(5, 5), 3).unwrap();
        let sched = dag_list_schedule(&inst, &hlf_priority(inst.graph()));
        // Replay placements in start-time order (ties by task index, the
        // kernel's scheduling order on this instance).
        let mut order: Vec<usize> = (0..inst.n()).collect();
        order.sort_by(|&a, &b| {
            sws_model::numeric::total_cmp(sched.start(a), sched.start(b)).then(a.cmp(&b))
        });
        let mut load = vec![0.0f64; inst.m()];
        for &i in &order {
            let q = sched.proc_of(i);
            let min = load.iter().cloned().fold(f64::INFINITY, f64::min);
            assert!(
                load[q] <= min + 1e-9,
                "task {i} placed on processor {q} with load {} > min load {min}",
                load[q]
            );
            load[q] = sched.start(i) + inst.tasks().get(i).p;
        }
    }
}
