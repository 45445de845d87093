//! SBO∆ — the Symmetric Bi-Objective algorithm (Algorithm 1 of the
//! paper) for independent tasks.
//!
//! The algorithm runs two single-objective schedulers on the *whole* task
//! set: `π₁` optimizes the makespan (within a factor `ρ₁`) and `π₂`
//! optimizes the memory consumption (within a factor `ρ₂`). Writing `C`
//! for the makespan of `π₁` and `M` for the memory of `π₂`, each task is
//! then routed by the threshold rule
//!
//! ```text
//! if p_i / C < ∆ · s_i / M   then  π∆(i) = π₂(i)   else  π∆(i) = π₁(i)
//! ```
//!
//! Intuitively, a task that needs a lot of memory per unit of execution
//! time is placed where the memory schedule wanted it, and conversely.
//! Properties 1 and 2 of the paper show the combined schedule is
//! `((1 + ∆)·ρ₁, (1 + 1/∆)·ρ₂)`-approximate; with the PTAS of
//! Hochbaum–Shmoys as both inner algorithms this gives the
//! `(1 + ∆ + ε, 1 + 1/∆ + ε)` family of Corollary 1.

use sws_model::error::ModelError;
use sws_model::numeric::{exactly_zero, exceeds, finite_gt};
use sws_model::objectives::{cmax_of_assignment, mmax_of_assignment};
use sws_model::schedule::Assignment;
use sws_model::solve::{BackendId, BoundReport, Guarantee, Solution, SolveStats};
use sws_model::Instance;

/// The single-objective scheduler used for the two inner schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InnerAlgorithm {
    /// Graham list scheduling in index order, `ρ = 2 − 1/m`.
    Graham,
    /// Longest Processing Time first, `ρ = 4/3 − 1/(3m)`.
    Lpt,
    /// MULTIFIT with 10 bisection rounds, `ρ = 13/11` (classical bound).
    Multifit,
    /// Hochbaum–Shmoys dual-approximation PTAS, `ρ = 1 + ε`.
    Ptas {
        /// Accuracy parameter `ε ∈ (0, 1)`.
        eps: f64,
    },
}

impl InnerAlgorithm {
    /// The proven approximation factor of the inner algorithm on `m`
    /// machines.
    pub fn rho(&self, m: usize) -> f64 {
        match self {
            InnerAlgorithm::Graham => 2.0 - 1.0 / m as f64,
            InnerAlgorithm::Lpt => 4.0 / 3.0 - 1.0 / (3.0 * m as f64),
            InnerAlgorithm::Multifit => 13.0 / 11.0,
            InnerAlgorithm::Ptas { eps } => 1.0 + eps,
        }
    }

    /// A short label for experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            InnerAlgorithm::Graham => "graham",
            InnerAlgorithm::Lpt => "lpt",
            InnerAlgorithm::Multifit => "multifit",
            InnerAlgorithm::Ptas { .. } => "ptas",
        }
    }

    /// Schedules the instance for the makespan objective.
    fn schedule_cmax(&self, inst: &Instance) -> Assignment {
        match self {
            InnerAlgorithm::Graham => sws_listsched::graham_cmax(inst),
            InnerAlgorithm::Lpt => sws_listsched::lpt_cmax(inst),
            InnerAlgorithm::Multifit => sws_listsched::multifit_cmax(inst),
            InnerAlgorithm::Ptas { eps } => sws_ptas::ptas_cmax(inst, *eps).assignment,
        }
    }

    /// Schedules the instance for the memory objective.
    fn schedule_mmax(&self, inst: &Instance) -> Assignment {
        match self {
            InnerAlgorithm::Graham => sws_listsched::graham_mmax(inst),
            InnerAlgorithm::Lpt => sws_listsched::lpt_mmax(inst),
            InnerAlgorithm::Multifit => sws_listsched::multifit::multifit_mmax(inst),
            InnerAlgorithm::Ptas { eps } => sws_ptas::ptas_mmax(inst, *eps).assignment,
        }
    }
}

/// Configuration of one SBO∆ run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SboConfig {
    /// The trade-off parameter `∆ > 0`: a task goes to the memory
    /// schedule π₂ when `p_i·M < ∆·s_i·C`, so a larger ∆ sends more tasks
    /// there and favours memory, a smaller one favours the makespan (the
    /// guarantee `((1 + ∆)·ρ₁, (1 + 1/∆)·ρ₂)` moves the same way).
    pub delta: f64,
    /// The single-objective scheduler used for both inner schedules.
    pub inner: InnerAlgorithm,
}

impl SboConfig {
    /// Creates a configuration.
    pub fn new(delta: f64, inner: InnerAlgorithm) -> Self {
        SboConfig { delta, inner }
    }

    /// The Corollary 1 configuration: PTAS inner algorithms with accuracy
    /// `ε`.
    pub fn corollary1(delta: f64, eps: f64) -> Self {
        SboConfig {
            delta,
            inner: InnerAlgorithm::Ptas { eps },
        }
    }
}

/// The output of SBO∆.
#[derive(Debug, Clone)]
pub struct SboResult {
    /// The combined assignment `π∆`.
    pub assignment: Assignment,
    /// The makespan-oriented inner schedule `π₁`.
    pub pi1: Assignment,
    /// The memory-oriented inner schedule `π₂`.
    pub pi2: Assignment,
    /// `C = Cmax(π₁)`, the reference makespan of the threshold rule.
    pub reference_cmax: f64,
    /// `M = Mmax(π₂)`, the reference memory of the threshold rule.
    pub reference_mmax: f64,
    /// For each task, whether it was routed to `π₂` (the set `S₂` of the
    /// proofs).
    pub routed_to_memory: Vec<bool>,
    /// The proven guarantee `((1 + ∆)·ρ₁, (1 + 1/∆)·ρ₂)` — ratios to the
    /// *optimal* `C*max` and `M*max`.
    pub guarantee: (f64, f64),
    /// The parameter the result was produced with.
    pub config: SboConfig,
}

impl SboResult {
    /// Objective values of the combined schedule.
    pub fn objective(&self, inst: &Instance) -> sws_model::ObjectivePoint {
        sws_model::ObjectivePoint::of_assignment(inst, &self.assignment)
    }

    /// Number of tasks routed to the memory schedule.
    pub fn memory_routed_count(&self) -> usize {
        self.routed_to_memory.iter().filter(|&&b| b).count()
    }

    /// Packages the run in the unified solver vocabulary
    /// (`sws_model::solve`): the combined assignment packed into start
    /// times, the achieved point, the Properties 1–2 guarantee and the
    /// solve provenance (`rounds` counts the two inner schedules).
    /// Consumes the result, mirroring the other backends' conversions.
    pub fn into_solution(self, inst: &Instance) -> Solution {
        Solution {
            schedule: self.assignment.into_timed(inst.tasks()),
            point: self.objective(inst),
            sum_ci: None,
            achieved: Guarantee::PaperRatio,
            ratio_bound: Some(self.guarantee),
            stats: SolveStats {
                backend: BackendId::Sbo,
                rounds: 2,
                workspace_reused: false,
                bounds: BoundReport::identical(inst.tasks(), inst.m()),
                cost: None,
                attempts: 1,
            },
        }
    }
}

/// The guarantee of Properties 1 and 2: `((1 + ∆)·ρ₁, (1 + 1/∆)·ρ₂)`.
pub fn sbo_guarantee(delta: f64, rho1: f64, rho2: f64) -> (f64, f64) {
    ((1.0 + delta) * rho1, (1.0 + 1.0 / delta) * rho2)
}

/// The guarantee of Corollary 1 (PTAS inner algorithms):
/// `(1 + ∆ + ε, 1 + 1/∆ + ε)` — the paper absorbs the cross terms into
/// `ε`, which is valid for any fixed `∆` by rescaling the PTAS accuracy;
/// this function reports the paper's headline form.
pub fn corollary1_guarantee(delta: f64, eps: f64) -> (f64, f64) {
    (1.0 + delta + eps, 1.0 + 1.0 / delta + eps)
}

/// Reusable SBO∆ engine over one instance: computes the two inner
/// schedules `π₁` and `π₂` **once** and re-runs only the `O(n)`
/// threshold routing per ∆ value.
///
/// The inner schedules do not depend on ∆, so a ∆-sweep that calls
/// [`sbo`] per grid point re-solves the same two single-objective
/// problems over and over — with the PTAS inner algorithm that is
/// essentially the entire cost. [`SboEngine::run`] produces output
/// bit-identical to [`sbo`] at the same ∆; the engine additionally
/// exposes the exact `∆ → 0⁺` / `∆ → ∞` limit schedules the sweeps
/// record as explicit single-objective runs.
///
/// Unlike the DAG kernel, the engine needs no separate reusable
/// workspace: the inner schedules are computed once at construction,
/// and the only per-∆ buffer of [`SboEngine::assignment_at`] is the
/// returned assignment itself.
#[derive(Debug, Clone)]
pub struct SboEngine<'a> {
    inst: &'a Instance,
    inner: InnerAlgorithm,
    pi1: Assignment,
    pi2: Assignment,
    reference_cmax: f64,
    reference_mmax: f64,
}

impl<'a> SboEngine<'a> {
    /// Builds the engine: validates the inner algorithm's parameters and
    /// computes the two reference schedules.
    pub fn new(inst: &'a Instance, inner: InnerAlgorithm) -> Result<Self, ModelError> {
        if let InnerAlgorithm::Ptas { eps } = inner {
            if !(exceeds(eps, 0.0) && exceeds(1.0, eps)) {
                return Err(ModelError::InvalidParameter {
                    name: "eps",
                    value: eps,
                    constraint: "0 < ε < 1",
                });
            }
        }
        let pi1 = inner.schedule_cmax(inst);
        let pi2 = inner.schedule_mmax(inst);
        let reference_cmax = cmax_of_assignment(inst.tasks(), &pi1);
        let reference_mmax = mmax_of_assignment(inst.tasks(), &pi2);
        Ok(SboEngine {
            inst,
            inner,
            pi1,
            pi2,
            reference_cmax,
            reference_mmax,
        })
    }

    /// The makespan-oriented inner schedule `π₁`.
    pub fn pi1(&self) -> &Assignment {
        &self.pi1
    }

    /// The memory-oriented inner schedule `π₂`.
    pub fn pi2(&self) -> &Assignment {
        &self.pi2
    }

    /// Runs the threshold routing at `delta` on the precomputed inner
    /// schedules. Bit-identical to [`sbo`] with the same configuration.
    pub fn run(&self, delta: f64) -> Result<SboResult, ModelError> {
        validate_delta(delta)?;
        // The paper's test is p_i/C < ∆·s_i/M. Cross-multiplying keeps it
        // well defined when C or M is zero (a zero reference means the
        // corresponding objective is already trivially optimal).
        let (assignment, routed_to_memory) = self.route(|inst, i| {
            inst.p(i) * self.reference_mmax < delta * inst.s(i) * self.reference_cmax
        })?;
        let rho = self.inner.rho(self.inst.m());
        Ok(SboResult {
            assignment,
            pi1: self.pi1.clone(),
            pi2: self.pi2.clone(),
            reference_cmax: self.reference_cmax,
            reference_mmax: self.reference_mmax,
            routed_to_memory,
            guarantee: sbo_guarantee(delta, rho, rho),
            config: SboConfig {
                delta,
                inner: self.inner,
            },
        })
    }

    /// The combined assignment at `delta`, without materializing a full
    /// [`SboResult`] (no `π₁`/`π₂` clones, no routing-flag vector): the
    /// sweep hot path, where each grid point must cost exactly one
    /// `O(n)` routing pass. Identical to `run(delta)?.assignment`.
    pub fn assignment_at(&self, delta: f64) -> Result<Assignment, ModelError> {
        validate_delta(delta)?;
        let (assignment, _) = self.route(|inst, i| {
            inst.p(i) * self.reference_mmax < delta * inst.s(i) * self.reference_cmax
        })?;
        Ok(assignment)
    }

    /// The exact `∆ → 0⁺` limit of the threshold rule: a task follows
    /// `π₂` only when the rule routes it there for *every* positive ∆
    /// (`p_i·M = 0 < s_i·C`), and `π₁` otherwise. This is the π₁-only
    /// schedule of the sweep endpoints — computed as a limit, not by
    /// abusing a tiny sentinel ∆ that could collide with a user grid.
    pub fn cmax_limit(&self) -> Result<Assignment, ModelError> {
        let (assignment, _) = self.route(|inst, i| {
            exactly_zero(inst.p(i) * self.reference_mmax)
                && exceeds(inst.s(i) * self.reference_cmax, 0.0)
        })?;
        Ok(assignment)
    }

    /// The exact `∆ → ∞` limit of the threshold rule: a task follows
    /// `π₂` whenever `s_i·C > 0` (for large enough ∆ the rule routes it
    /// there), and `π₁` otherwise. The π₂-only sweep endpoint.
    pub fn mmax_limit(&self) -> Result<Assignment, ModelError> {
        let (assignment, _) =
            self.route(|inst, i| exceeds(inst.s(i) * self.reference_cmax, 0.0))?;
        Ok(assignment)
    }

    /// Routes every task by `to_memory(inst, i)` over the precomputed
    /// inner schedules, returning the combined assignment and the routing
    /// flags (the set `S₂` of the proofs).
    fn route<F: Fn(&Instance, usize) -> bool>(
        &self,
        to_memory: F,
    ) -> Result<(Assignment, Vec<bool>), ModelError> {
        let inst = self.inst;
        let mut assignment = Assignment::zeroed(inst.n(), inst.m())?;
        let mut routed_to_memory = vec![false; inst.n()];
        for (i, routed) in routed_to_memory.iter_mut().enumerate() {
            let to_mem = to_memory(inst, i);
            let target = if to_mem {
                self.pi2.proc_of(i)
            } else {
                self.pi1.proc_of(i)
            };
            assignment.assign(i, target)?;
            *routed = to_mem;
        }
        Ok((assignment, routed_to_memory))
    }
}

/// Validates the threshold-rule parameter `∆ > 0` (finite).
fn validate_delta(delta: f64) -> Result<(), ModelError> {
    if !finite_gt(delta, 0.0) {
        return Err(ModelError::InvalidParameter {
            name: "delta",
            value: delta,
            constraint: "∆ > 0",
        });
    }
    Ok(())
}

/// Runs SBO∆ (Algorithm 1).
///
/// Returns an error when `∆ ≤ 0` (the threshold rule needs a positive
/// parameter). One-shot wrapper over [`SboEngine`]; sweeps reuse the
/// engine so the inner schedules are computed once per instance.
pub fn sbo(inst: &Instance, config: &SboConfig) -> Result<SboResult, ModelError> {
    // Validate ∆ before the (possibly expensive) inner schedules are
    // computed, and so the ∆ error takes precedence over the ε one.
    validate_delta(config.delta)?;
    SboEngine::new(inst, config.inner)?.run(config.delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::bounds::{cmax_lower_bound, mmax_lower_bound};
    use sws_model::validate::validate_assignment;

    fn anti_correlated_instance() -> Instance {
        Instance::from_ps(
            &[8.0, 6.0, 1.0, 1.0, 4.0, 2.0, 7.0, 3.0],
            &[1.0, 2.0, 7.0, 9.0, 3.0, 5.0, 1.5, 6.0],
            3,
        )
        .unwrap()
    }

    #[test]
    fn rejects_non_positive_delta() {
        let inst = anti_correlated_instance();
        assert!(sbo(&inst, &SboConfig::new(0.0, InnerAlgorithm::Graham)).is_err());
        assert!(sbo(&inst, &SboConfig::new(-1.0, InnerAlgorithm::Graham)).is_err());
        assert!(sbo(&inst, &SboConfig::new(f64::NAN, InnerAlgorithm::Graham)).is_err());
    }

    #[test]
    fn rejects_invalid_ptas_accuracy() {
        let inst = anti_correlated_instance();
        assert!(sbo(&inst, &SboConfig::corollary1(1.0, 0.0)).is_err());
        assert!(sbo(&inst, &SboConfig::corollary1(1.0, 1.5)).is_err());
    }

    #[test]
    fn produces_a_complete_valid_assignment() {
        let inst = anti_correlated_instance();
        for inner in [
            InnerAlgorithm::Graham,
            InnerAlgorithm::Lpt,
            InnerAlgorithm::Multifit,
            InnerAlgorithm::Ptas { eps: 0.25 },
        ] {
            let result = sbo(&inst, &SboConfig::new(1.0, inner)).unwrap();
            assert!(validate_assignment(&inst, &result.assignment, None).is_ok());
        }
    }

    #[test]
    fn property_1_and_2_hold_against_the_inner_references() {
        // The proofs actually establish Cmax(π∆) ≤ (1 + ∆)·C and
        // Mmax(π∆) ≤ (1 + 1/∆)·M, which is what we verify here; ratios to
        // the optimum follow because C ≤ ρ₁·C*max and M ≤ ρ₂·M*max.
        let inst = anti_correlated_instance();
        for &delta in &[0.25, 0.5, 1.0, 2.0, 4.0] {
            let result = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Lpt)).unwrap();
            let point = result.objective(&inst);
            assert!(
                point.cmax <= (1.0 + delta) * result.reference_cmax + 1e-9,
                "∆ = {delta}: Cmax {} > (1+∆)·C {}",
                point.cmax,
                (1.0 + delta) * result.reference_cmax
            );
            assert!(
                point.mmax <= (1.0 + 1.0 / delta) * result.reference_mmax + 1e-9,
                "∆ = {delta}: Mmax {} > (1+1/∆)·M {}",
                point.mmax,
                (1.0 + 1.0 / delta) * result.reference_mmax
            );
        }
    }

    #[test]
    fn guarantee_holds_against_the_graham_lower_bounds() {
        let inst = anti_correlated_instance();
        let lb_c = cmax_lower_bound(inst.tasks(), inst.m());
        let lb_m = mmax_lower_bound(inst.tasks(), inst.m());
        for &delta in &[0.5, 1.0, 2.0] {
            let result = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Graham)).unwrap();
            let point = result.objective(&inst);
            let (gc, gm) = result.guarantee;
            // The guarantee is against the optimum, which is at least the
            // lower bound, so achieved / LB may exceed achieved / OPT —
            // but achieved must still be below guarantee · OPT ≤ guarantee
            // · (anything ≥ OPT). Use the LB-relative check only as a
            // sanity ceiling with the LB in the right place:
            assert!(point.cmax <= gc * lb_c.max(1e-12) * 2.0 + 1e-9);
            assert!(point.mmax <= gm * lb_m.max(1e-12) * 2.0 + 1e-9);
        }
    }

    #[test]
    fn extreme_deltas_degenerate_to_the_single_objective_schedules() {
        let inst = anti_correlated_instance();
        // Tiny ∆: the threshold p_i/C < ∆·s_i/M is almost never satisfied,
        // so (almost) every task follows π₁.
        let tiny = sbo(&inst, &SboConfig::new(1e-9, InnerAlgorithm::Lpt)).unwrap();
        assert_eq!(tiny.memory_routed_count(), 0);
        assert_eq!(tiny.assignment, tiny.pi1);
        // Huge ∆: every task with positive s follows π₂.
        let huge = sbo(&inst, &SboConfig::new(1e9, InnerAlgorithm::Lpt)).unwrap();
        assert_eq!(huge.memory_routed_count(), inst.n());
        assert_eq!(huge.assignment, huge.pi2);
    }

    #[test]
    fn symmetry_swapping_p_and_s_swaps_the_roles() {
        // With the instance's p/s swapped and ∆ replaced by 1/∆, the
        // objective point of SBO is the mirror of the original (the paper
        // notes all independent-task results are symmetric).
        let inst = anti_correlated_instance();
        let delta = 0.5;
        let a = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Graham)).unwrap();
        let b = sbo(
            &inst.swapped(),
            &SboConfig::new(1.0 / delta, InnerAlgorithm::Graham),
        )
        .unwrap();
        let pa = a.objective(&inst);
        let pb = b.objective(&inst.swapped());
        // Graham index-order scheduling is itself symmetric under the swap,
        // so the points mirror exactly.
        assert!((pa.cmax - pb.mmax).abs() < 1e-9);
        assert!((pa.mmax - pb.cmax).abs() < 1e-9);
    }

    #[test]
    fn guarantee_formulas() {
        let (gc, gm) = sbo_guarantee(2.0, 1.5, 1.5);
        assert!((gc - 4.5).abs() < 1e-12);
        assert!((gm - 2.25).abs() < 1e-12);
        let (c1, m1) = corollary1_guarantee(1.0, 0.1);
        assert!((c1 - 2.1).abs() < 1e-12);
        assert!((m1 - 2.1).abs() < 1e-12);
    }

    #[test]
    fn zero_memory_tasks_always_follow_the_makespan_schedule() {
        let inst = Instance::from_ps(&[3.0, 2.0, 1.0], &[0.0, 0.0, 0.0], 2).unwrap();
        let result = sbo(&inst, &SboConfig::new(1.0, InnerAlgorithm::Graham)).unwrap();
        assert_eq!(result.memory_routed_count(), 0);
        assert_eq!(result.assignment, result.pi1);
    }

    #[test]
    fn engine_matches_the_one_shot_entry_point_exactly() {
        let inst = anti_correlated_instance();
        for inner in [InnerAlgorithm::Graham, InnerAlgorithm::Lpt] {
            let engine = SboEngine::new(&inst, inner).unwrap();
            for &delta in &[0.25, 0.5, 1.0, 2.0, 4.0] {
                let via_engine = engine.run(delta).unwrap();
                let one_shot = sbo(&inst, &SboConfig::new(delta, inner)).unwrap();
                assert_eq!(via_engine.assignment, one_shot.assignment);
                assert_eq!(engine.assignment_at(delta).unwrap(), one_shot.assignment);
                assert_eq!(via_engine.routed_to_memory, one_shot.routed_to_memory);
                assert_eq!(via_engine.reference_cmax, one_shot.reference_cmax);
                assert_eq!(via_engine.reference_mmax, one_shot.reference_mmax);
            }
        }
    }

    #[test]
    fn engine_limits_bound_the_threshold_rule() {
        let inst = anti_correlated_instance();
        let engine = SboEngine::new(&inst, InnerAlgorithm::Lpt).unwrap();
        // All storage requirements are positive, so the ∆ limits are the
        // two inner schedules themselves.
        assert_eq!(engine.cmax_limit().unwrap(), *engine.pi1());
        assert_eq!(engine.mmax_limit().unwrap(), *engine.pi2());
        // Zero-storage tasks stay on π₁ even in the ∆ → ∞ limit.
        let zero_s = Instance::from_ps(&[3.0, 2.0, 1.0], &[0.0, 0.0, 0.0], 2).unwrap();
        let engine = SboEngine::new(&zero_s, InnerAlgorithm::Graham).unwrap();
        assert_eq!(engine.mmax_limit().unwrap(), *engine.pi1());
    }

    #[test]
    fn engine_rejects_invalid_parameters() {
        let inst = anti_correlated_instance();
        assert!(SboEngine::new(&inst, InnerAlgorithm::Ptas { eps: 0.0 }).is_err());
        let engine = SboEngine::new(&inst, InnerAlgorithm::Lpt).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(engine.run(bad).is_err(), "∆ = {bad} must be rejected");
        }
    }

    #[test]
    fn works_on_the_paper_lemma_instances() {
        let inst = sws_workloads::lemma1_instance(1e-3);
        for &delta in &[0.5, 1.0, 2.0] {
            let result = sbo(&inst, &SboConfig::new(delta, InnerAlgorithm::Lpt)).unwrap();
            assert!(validate_assignment(&inst, &result.assignment, None).is_ok());
            let point = result.objective(&inst);
            assert!(point.cmax <= (1.0 + delta) * result.reference_cmax + 1e-9);
            assert!(point.mmax <= (1.0 + 1.0 / delta) * result.reference_mmax + 1e-9);
        }
    }
}
