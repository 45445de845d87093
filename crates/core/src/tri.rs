//! The tri-objective extension of Section 5.2: RLS∆ with SPT
//! tie-breaking on independent tasks.
//!
//! On independent tasks the list-scheduling structure of RLS∆ allows the
//! tasks to be considered in the Shortest Processing Time order. Lemma 6
//! bounds the degradation of `ΣC_i` when a fraction of the processors is
//! forbidden: an SPT schedule on `ρm` processors is within `(1/ρ + 1)` of
//! the SPT schedule on `m` processors. Since RLS∆ always keeps
//! `m(∆−2)/(∆−1)` processors unconstrained and SPT is optimal for
//! `P ∥ ΣC_i`, Corollary 4 follows:
//!
//! ```text
//! RLS∆ with SPT ties is (2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆, 2 + 1/(∆−2))-
//! approximate on (Cmax, Mmax, ΣC_i).
//! ```
//!
//! [`tri_objective_rls_in`] runs RLS∆ over the edge-free CSR of the task
//! set (`crate::rls::rls_independent_in`) and folds the three
//! objectives; requests reach it through the portfolio's tri-objective
//! backend.

use sws_model::bounds::LowerBounds;
use sws_model::error::ModelError;
use sws_model::numeric::{at_most, exceeds};
use sws_model::objectives::TriObjectivePoint;
use sws_model::ratio::{Reference, TriRatioReport};
use sws_model::solve::{BackendId, BoundReport, Guarantee, Solution, SolveStats};
use sws_model::Instance;

use sws_listsched::KernelWorkspace;

use crate::rls::{rls_guarantee, rls_independent_in, RlsConfig, RlsResult};

/// The output of the tri-objective algorithm.
#[derive(Debug, Clone)]
pub struct TriObjectiveResult {
    /// The underlying RLS∆ run (SPT tie-breaking).
    pub rls: RlsResult,
    /// The achieved `(Cmax, Mmax, ΣC_i)` point.
    pub point: TriObjectivePoint,
    /// The Corollary 4 guarantee
    /// `(2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆, 2 + 1/(∆−2))`.
    pub guarantee: (f64, f64, f64),
    /// The parameter the result was produced with.
    pub delta: f64,
}

impl TriObjectiveResult {
    /// Achieved-versus-guaranteed report against the instance's lower
    /// bounds (`ΣC_i` uses the exact SPT optimum).
    pub fn ratio_report(&self, inst: &Instance) -> TriRatioReport {
        let lb = LowerBounds::of_instance(inst);
        TriRatioReport::new(
            self.point,
            TriObjectivePoint::new(lb.cmax, lb.mmax, lb.sum_ci),
            Reference::LowerBound,
            Some(self.guarantee),
        )
    }

    /// Packages the run in the unified solver vocabulary
    /// (`sws_model::solve`); `ΣC_i` travels in [`Solution::sum_ci`] and
    /// the Corollary 4 `(Cmax, Mmax)` factors in the ratio bound.
    /// Consumes the result so the schedule moves instead of cloning
    /// (see [`crate::rls::RlsResult::into_solution`]).
    pub fn into_solution(self, inst: &Instance, workspace_reused: bool) -> Solution {
        Solution {
            point: self.point.bi(),
            sum_ci: Some(self.point.sum_ci),
            achieved: Guarantee::PaperRatio,
            ratio_bound: Some((self.guarantee.0, self.guarantee.1)),
            stats: SolveStats {
                backend: BackendId::KernelTriRls,
                rounds: self.rls.schedule.n(),
                workspace_reused,
                bounds: BoundReport::identical(inst.tasks(), inst.m()),
                cost: None,
                attempts: 1,
            },
            schedule: self.rls.schedule,
        }
    }
}

/// The Corollary 4 guarantee on `m` processors:
/// `(2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆, 2 + 1/(∆−2))` for `∆ > 2`.
pub fn corollary4_guarantee(delta: f64, m: usize) -> (f64, f64, f64) {
    let (gc, gm) = rls_guarantee(delta, m);
    (gc, gm, 2.0 + 1.0 / (delta - 2.0))
}

/// Runs RLS∆ with SPT tie-breaking on an independent-task instance and
/// evaluates all three objectives (Corollary 4), drawing the kernel
/// buffers from `ws` (experiment E3 streams many instances through
/// one). The portfolio serves the same run as its tri-objective
/// backend.
pub fn tri_objective_rls_in(
    inst: &Instance,
    delta: f64,
    ws: &mut KernelWorkspace,
) -> Result<TriObjectiveResult, ModelError> {
    let rls = rls_independent_in(inst, &RlsConfig::spt(delta), ws)?;
    let point = TriObjectivePoint::of_timed(inst, &rls.schedule);
    Ok(TriObjectiveResult {
        point,
        guarantee: corollary4_guarantee(delta, inst.m()),
        delta,
        rls,
    })
}

/// The Lemma 6 degradation factor: an SPT schedule restricted to a
/// fraction `ρ ∈ (0, 1]` of the processors is within `1/ρ + 1` of the SPT
/// value on all processors (and SPT is optimal for `P ∥ ΣC_i`).
pub fn lemma6_degradation(rho: f64) -> f64 {
    assert!(
        exceeds(rho, 0.0) && at_most(rho, 1.0),
        "Lemma 6 requires 0 < ρ ≤ 1"
    );
    1.0 / rho + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_listsched::spt::{optimal_sum_completion, spt_schedule};
    use sws_model::validate::validate_timed;
    use sws_workloads::random::random_instance;
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    fn tri(inst: &Instance, delta: f64) -> Result<TriObjectiveResult, ModelError> {
        tri_objective_rls_in(inst, delta, &mut KernelWorkspace::new())
    }

    fn workload(n: usize, m: usize, seed: u64) -> Instance {
        random_instance(
            n,
            m,
            TaskDistribution::AntiCorrelated,
            &mut seeded_rng(seed),
        )
    }

    #[test]
    fn guarantee_formula_matches_corollary_4() {
        let (gc, gm, gs) = corollary4_guarantee(3.0, 4);
        assert!((gc - 2.5).abs() < 1e-12);
        assert_eq!(gm, 3.0);
        assert!((gs - 3.0).abs() < 1e-12);
        // ∆ = 4: ΣCi guarantee 2 + 1/2 = 2.5.
        assert!((corollary4_guarantee(4.0, 8).2 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn delta_must_exceed_two() {
        let inst = workload(10, 2, 1);
        assert!(tri(&inst, 2.0).is_err());
        assert!(tri(&inst, 2.1).is_ok());
    }

    #[test]
    fn all_three_guarantees_hold_against_their_references() {
        for seed in 0..5u64 {
            let inst = workload(40, 4, seed);
            for &delta in &[2.5, 3.0, 4.0, 6.0] {
                let result = tri(&inst, delta).unwrap();
                let report = result.ratio_report(&inst);
                assert!(report.within_guarantee(), "seed {seed} ∆ {delta}: {report}");
            }
        }
    }

    #[test]
    fn sum_completion_guarantee_holds_against_the_exact_spt_optimum() {
        // ΣCi's reference is exact (SPT is optimal for P ∥ ΣCi), so the
        // 2 + 1/(∆−2) bound is a true approximation-ratio check.
        for seed in 10..15u64 {
            let inst = random_instance(30, 3, TaskDistribution::Bimodal, &mut seeded_rng(seed));
            let opt = optimal_sum_completion(&inst);
            let result = tri(&inst, 3.0).unwrap();
            assert!(
                result.point.sum_ci <= (2.0 + 1.0) * opt + 1e-9,
                "seed {seed}: ΣCi {} > 3·{opt}",
                result.point.sum_ci
            );
        }
    }

    #[test]
    fn produced_schedule_is_feasible_and_caps_memory() {
        let inst = workload(25, 3, 42);
        let result = tri(&inst, 2.5).unwrap();
        let preds: Vec<Vec<usize>> = vec![Vec::new(); inst.n()];
        validate_timed(
            inst.tasks(),
            inst.m(),
            &result.rls.schedule,
            &preds,
            Some(result.rls.memory_cap),
        )
        .unwrap();
        assert!(result.point.mmax <= delta_cap(&result) + 1e-9);
    }

    fn delta_cap(result: &TriObjectiveResult) -> f64 {
        result.delta * result.rls.lb
    }

    #[test]
    fn with_a_huge_cap_sum_ci_matches_plain_spt_list_scheduling() {
        // When the memory restriction never bites, RLS with SPT ties is an
        // SPT list schedule, which is optimal for ΣCi.
        let inst =
            Instance::from_ps(&[4.0, 2.0, 7.0, 1.0, 3.0], &[1.0, 1.0, 1.0, 1.0, 1.0], 2).unwrap();
        let result = tri(&inst, 1e6).unwrap();
        let spt = spt_schedule(&inst);
        assert!((result.point.sum_ci - spt.sum_completion(inst.tasks())).abs() < 1e-9);
        assert!((result.point.sum_ci - optimal_sum_completion(&inst)).abs() < 1e-9);
    }

    #[test]
    fn lemma6_factor() {
        assert!((lemma6_degradation(1.0) - 2.0).abs() < 1e-12);
        assert!((lemma6_degradation(0.5) - 3.0).abs() < 1e-12);
        assert!(std::panic::catch_unwind(|| lemma6_degradation(0.0)).is_err());
        assert!(std::panic::catch_unwind(|| lemma6_degradation(1.5)).is_err());
    }
}
