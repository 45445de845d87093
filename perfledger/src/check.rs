//! Output checks. They run outside every timed region; a mismatch
//! counts as a wrong output and fails the run.

use sws_core::rls::rls_guarantee;
use sws_dag::{CsrDag, DagInstance};
use sws_model::schedule::TimedSchedule;
use sws_model::solve::{BoundReport, Solution};
use sws_model::task::TaskSet;
use sws_model::validate::{validate_timed, validate_timed_preds};
use sws_model::Instance;

/// Relative slack for the ratio checks (the bounds are real-valued).
const TOL: f64 = 1e-9;

/// A cheap order-sensitive digest of a schedule's bits: equal digests
/// stand in for bit-identity between repeats of the same request.
pub fn schedule_digest(schedule: &TimedSchedule) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325 ^ schedule.n() as u64;
    let mut mix = |v: u64| {
        h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
    };
    for i in 0..schedule.n() {
        mix(schedule.proc_of(i) as u64);
        mix(schedule.start(i).to_bits());
    }
    h
}

/// Digest of a whole solution: schedule, objective point and backend.
pub fn solution_digest(solution: &Solution) -> u64 {
    schedule_digest(&solution.schedule)
        ^ solution.point.cmax.to_bits().rotate_left(7)
        ^ solution.point.mmax.to_bits().rotate_left(29)
        ^ (solution.stats.backend as u64).rotate_left(51)
}

/// Bit-identity of two schedules (`to_bits` on every start time).
pub fn same_schedule(a: &TimedSchedule, b: &TimedSchedule) -> bool {
    a.n() == b.n()
        && a.m() == b.m()
        && (0..a.n())
            .all(|i| a.proc_of(i) == b.proc_of(i) && a.start(i).to_bits() == b.start(i).to_bits())
}

/// Bit-identity of two solutions on every field a client reads.
pub fn same_solution(a: &Solution, b: &Solution) -> bool {
    same_schedule(&a.schedule, &b.schedule)
        && a.point.cmax.to_bits() == b.point.cmax.to_bits()
        && a.point.mmax.to_bits() == b.point.mmax.to_bits()
        && a.achieved == b.achieved
        && a.ratio_bound == b.ratio_bound
        && a.stats.backend == b.stats.backend
        && a.stats.bounds == b.stats.bounds
        && a.stats.cost == b.stats.cost
}

/// A served RLS∆ solution on a DAG: precedence, no overlap, the `∆·LB`
/// memory cap, the instance's bound report, and the Corollary 3 ratio
/// against that report.
pub fn rls_dag_solution(dag: &DagInstance, delta: f64, solution: &Solution) -> Result<(), String> {
    let cap = delta * dag.mmax_lower_bound();
    validate_timed(
        dag.tasks(),
        dag.m(),
        &solution.schedule,
        dag.graph().all_preds(),
        Some(cap),
    )
    .map_err(|e| format!("invalid schedule: {e}"))?;
    let bounds = BoundReport::with_critical_path(dag.tasks(), dag.m(), dag.critical_path_length());
    if solution.stats.bounds != bounds {
        return Err(format!(
            "bound report {:?} differs from the instance's {bounds:?}",
            solution.stats.bounds
        ));
    }
    let (ratio_c, ratio_m) = rls_guarantee(delta, dag.m());
    if solution.ratio_bound != Some((ratio_c, ratio_m)) {
        return Err(format!(
            "declared ratio {:?} is not Corollary 3's",
            solution.ratio_bound
        ));
    }
    let (got_c, got_m) = (solution.cmax_over_lb(), solution.mmax_over_lb());
    if got_c > ratio_c * (1.0 + TOL) || got_m > ratio_m * (1.0 + TOL) {
        return Err(format!(
            "ratio ({got_c}, {got_m}) exceeds Corollary 3's ({ratio_c}, {ratio_m})"
        ));
    }
    Ok(())
}

/// A served solution on independent tasks: complete and overlap-free.
pub fn independent_solution(inst: &Instance, solution: &Solution) -> Result<(), String> {
    validate_timed(inst.tasks(), inst.m(), &solution.schedule, &[], None)
        .map_err(|e| format!("invalid schedule: {e}"))
}

/// A session schedule against the live CSR: complete, overlap-free and
/// precedence-feasible.
pub fn csr_schedule(csr: &CsrDag, m: usize, schedule: &TimedSchedule) -> Result<(), String> {
    let tasks =
        TaskSet::from_ps(csr.proc_times(), csr.mem_sizes()).map_err(|e| format!("costs: {e}"))?;
    validate_timed_preds(&tasks, m, schedule, csr.pred_lists(), None)
        .map_err(|e| format!("invalid schedule: {e}"))
}

/// Bytes held by a DAG instance in both representations, computed from
/// array lengths: the nested `TaskGraph` (task costs, two adjacency
/// `Vec`s per task) and the flat `CsrDag` a serve builds from it (two
/// CSR directions, cost arrays, quantized cost ranks and their table).
pub fn dag_bytes(dag: &DagInstance) -> u64 {
    let n = dag.n() as u64;
    let e = dag.graph().edge_count() as u64;
    let vec_header = std::mem::size_of::<Vec<usize>>() as u64;
    let graph = n * 16 + 2 * (n * vec_header + e * std::mem::size_of::<usize>() as u64);
    let keys = dag.graph().tasks().len() as u64 * 2;
    let csr = 2 * (n + 1) * 4 + 2 * e * 4 + 2 * n * 8 + 2 * n * 4 + keys * 8;
    graph + csr
}

/// Bytes of an independent-task instance (task costs only).
pub fn instance_bytes(inst: &Instance) -> u64 {
    inst.n() as u64 * 16
}
