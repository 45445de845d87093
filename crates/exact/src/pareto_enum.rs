//! Exhaustive enumeration of the bi-objective Pareto front.
//!
//! Enumerates every assignment of the instance's tasks to its processors
//! (with first-use symmetry breaking so permuting identical machines is
//! not re-explored) and maintains the Pareto front of `(Cmax, Mmax)`
//! points. This is the tool used to regenerate the paper's Figures 1
//! and 2 and to compute true Pareto fronts for the ratio experiments on
//! small instances.

use sws_model::cancel::CancelProbe;
use sws_model::error::ModelError;
use sws_model::objectives::ObjectivePoint;
use sws_model::pareto::ParetoFront;
use sws_model::schedule::Assignment;
use sws_model::Instance;

/// Practical size guard: `m^n` explodes quickly; the enumerator refuses
/// clearly hopeless inputs instead of hanging.
const MAX_STATES: f64 = 5e7;

/// Enumeration nodes between cancellation-probe polls.
const PROBE_NODE_STRIDE: u64 = 256;

/// Enumerates every assignment (up to machine renaming) and returns the
/// Pareto front of objective points, each tagged with one assignment that
/// achieves it.
///
/// # Panics
/// Panics when `m^n` exceeds an internal safety limit (~5·10⁷ states).
pub fn pareto_front(inst: &Instance) -> ParetoFront<Assignment> {
    pareto_front_probed(inst, &CancelProbe::never())
        .expect("an unarmed probe cannot interrupt the enumeration")
}

/// [`pareto_front`] with a cooperative cancellation probe, polled every
/// `PROBE_NODE_STRIDE` enumeration nodes. A tripped probe stops the
/// enumeration with `ModelError::Interrupted`.
///
/// # Panics
/// Panics when `m^n` exceeds an internal safety limit (~5·10⁷ states).
pub fn pareto_front_probed(
    inst: &Instance,
    probe: &CancelProbe,
) -> Result<ParetoFront<Assignment>, ModelError> {
    let n = inst.n();
    let m = inst.m();
    let states = (m as f64).powi(n as i32);
    assert!(
        states <= MAX_STATES,
        "exhaustive enumeration would need {states:.2e} states; reduce n or m"
    );

    let mut front: ParetoFront<Assignment> = ParetoFront::new();
    if n == 0 {
        let asg = Assignment::zeroed(0, m).expect("m > 0");
        front.offer(ObjectivePoint::new(0.0, 0.0), asg);
        return Ok(front);
    }

    let mut current = vec![0usize; n];
    let mut loads = vec![0.0f64; m];
    let mut mems = vec![0.0f64; m];

    /// The enumeration's shared state: buffers, the front under
    /// construction, and the cancellation bookkeeping.
    struct Enumeration<'a> {
        inst: &'a Instance,
        probe: &'a CancelProbe,
        nodes: u64,
        front: ParetoFront<Assignment>,
    }

    impl Enumeration<'_> {
        fn recurse(
            &mut self,
            k: usize,
            used: usize,
            current: &mut [usize],
            loads: &mut [f64],
            mems: &mut [f64],
        ) -> Result<(), ModelError> {
            self.nodes += 1;
            if self.nodes.is_multiple_of(PROBE_NODE_STRIDE) {
                self.probe.poll()?;
            }
            let n = self.inst.n();
            let m = self.inst.m();
            if k == n {
                let point = ObjectivePoint::new(
                    loads.iter().copied().fold(0.0, f64::max),
                    mems.iter().copied().fold(0.0, f64::max),
                );
                if !self.front.covers(&point) {
                    let mut asg = Assignment::zeroed(n, m).expect("m > 0");
                    for (i, &q) in current.iter().enumerate() {
                        asg.assign(i, q).expect("q < m");
                    }
                    self.front.offer(point, asg);
                }
                return Ok(());
            }
            // Symmetry breaking: the next task may go to any machine already
            // used, or to exactly one fresh machine (machine index `used`).
            let limit = (used + 1).min(m);
            for q in 0..limit {
                current[k] = q;
                loads[q] += self.inst.p(k);
                mems[q] += self.inst.s(k);
                self.recurse(k + 1, used.max(q + 1), current, loads, mems)?;
                loads[q] -= self.inst.p(k);
                mems[q] -= self.inst.s(k);
            }
            Ok(())
        }
    }

    let mut enumeration = Enumeration {
        inst,
        probe,
        nodes: 0,
        front,
    };
    enumeration.recurse(0, 0, &mut current, &mut loads, &mut mems)?;
    Ok(enumeration.front)
}

/// The best makespan achievable when the memory consumption is constrained
/// to stay at or below `budget` — computed from the exhaustive front.
/// Returns `None` when no schedule satisfies the budget (which cannot
/// happen for `budget ≥ Σ s_i`).
pub fn best_cmax_under_memory_budget(inst: &Instance, budget: f64) -> Option<f64> {
    best_assignment_under_memory_budget(inst, budget).map(|(pt, _)| pt.cmax)
}

/// Like [`best_cmax_under_memory_budget`], but also returns an assignment
/// achieving the constrained optimum — the witness the portfolio layer's
/// exact backend hands back as a schedule.
pub fn best_assignment_under_memory_budget(
    inst: &Instance,
    budget: f64,
) -> Option<(ObjectivePoint, Assignment)> {
    best_in_front(&pareto_front(inst), budget)
}

/// The budget query over an **already-computed** front: the point
/// minimizing `Cmax` among those with `Mmax ≤ budget` (one shared
/// tolerance and tie-break for every caller that holds the front —
/// callers needing several queries enumerate once and ask many times).
pub fn best_in_front(
    front: &ParetoFront<Assignment>,
    budget: f64,
) -> Option<(ObjectivePoint, Assignment)> {
    front
        .iter()
        .filter(|(pt, _)| pt.mmax <= budget + 1e-12)
        .min_by(|(a, _), (b, _)| sws_model::numeric::total_cmp(a.cmax, b.cmax))
        .map(|(pt, asg)| (*pt, asg.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::numeric::approx_eq;

    #[test]
    fn reproduces_the_two_pareto_points_of_figure_1() {
        // Section 4.1: p = [1, 1/2, 1/2], s = [eps, 1, 1], m = 2.
        let eps = 0.001;
        let inst = Instance::from_ps(&[1.0, 0.5, 0.5], &[eps, 1.0, 1.0], 2).unwrap();
        let front = pareto_front(&inst);
        let points = front.points();
        assert_eq!(points.len(), 2);
        assert!(approx_eq(points[0].cmax, 1.0) && approx_eq(points[0].mmax, 2.0));
        assert!(approx_eq(points[1].cmax, 1.5) && approx_eq(points[1].mmax, 1.0 + eps));
    }

    #[test]
    fn reproduces_the_three_pareto_points_of_figure_2() {
        // Section 4.3: p = [1, eps, 1 - eps], s = [eps, 1, 1 - eps], m = 2.
        let eps = 0.25;
        let inst = Instance::from_ps(&[1.0, eps, 1.0 - eps], &[eps, 1.0, 1.0 - eps], 2).unwrap();
        let front = pareto_front(&inst);
        let points = front.points();
        assert_eq!(points.len(), 3);
        // (1, 2 - eps), (1 + eps, 1 + eps), (2 - eps, 1).
        assert!(approx_eq(points[0].cmax, 1.0) && approx_eq(points[0].mmax, 2.0 - eps));
        assert!(approx_eq(points[1].cmax, 1.0 + eps) && approx_eq(points[1].mmax, 1.0 + eps));
        assert!(approx_eq(points[2].cmax, 2.0 - eps) && approx_eq(points[2].mmax, 1.0));
    }

    #[test]
    fn front_extremes_match_the_single_objective_optima() {
        let inst =
            Instance::from_ps(&[3.0, 1.0, 4.0, 1.0, 5.0], &[2.0, 7.0, 1.0, 8.0, 2.0], 2).unwrap();
        let front = pareto_front(&inst);
        let best_c = front.best_cmax().unwrap().0.cmax;
        let best_m = front.best_mmax().unwrap().0.mmax;
        assert!(approx_eq(best_c, crate::branch_bound::optimal_cmax(&inst)));
        assert!(approx_eq(best_m, crate::branch_bound::optimal_mmax(&inst)));
    }

    #[test]
    fn every_front_assignment_achieves_its_point() {
        let inst = Instance::from_ps(&[2.0, 1.0, 3.0, 1.5], &[1.0, 2.0, 1.0, 2.5], 2).unwrap();
        let front = pareto_front(&inst);
        for (pt, asg) in front.iter() {
            let actual = ObjectivePoint::of_assignment(&inst, asg);
            assert!(approx_eq(actual.cmax, pt.cmax));
            assert!(approx_eq(actual.mmax, pt.mmax));
        }
    }

    #[test]
    fn memory_budget_query_interpolates_the_front() {
        let eps = 0.001;
        let inst = Instance::from_ps(&[1.0, 0.5, 0.5], &[eps, 1.0, 1.0], 2).unwrap();
        // Loose budget: the makespan-optimal point (1, 2) qualifies.
        assert!(approx_eq(
            best_cmax_under_memory_budget(&inst, 2.5).unwrap(),
            1.0
        ));
        // Tight budget: only the (3/2, 1 + eps) point qualifies.
        assert!(approx_eq(
            best_cmax_under_memory_budget(&inst, 1.5).unwrap(),
            1.5
        ));
        // Infeasible budget: nothing fits below the max task size.
        assert!(best_cmax_under_memory_budget(&inst, 0.5).is_none());
    }

    #[test]
    fn empty_instance_has_a_single_zero_point() {
        let inst = Instance::from_ps(&[], &[], 2).unwrap();
        let front = pareto_front(&inst);
        assert_eq!(front.len(), 1);
        assert_eq!(front.points()[0], ObjectivePoint::new(0.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn unreasonably_large_enumerations_are_refused() {
        let inst = Instance::from_ps(&[1.0; 40], &[1.0; 40], 8).unwrap();
        let _ = pareto_front(&inst);
    }
}
