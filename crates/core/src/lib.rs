//! # sws-core — Scheduling with Storage Constraints
//!
//! Reproduction of the algorithms and bounds of
//! *Scheduling with Storage Constraints* (Érik Saule, Pierre-François
//! Dutot, Grégory Mounié — IPDPS 2008, hal-00396303).
//!
//! The problem is `P | p_j, s_j | Cmax, Mmax`: schedule `n` tasks, each
//! with a processing time `p_i` and a storage requirement `s_i`, on `m`
//! identical processors while minimizing simultaneously the makespan and
//! the maximum per-processor *cumulative* memory occupation. The strictly
//! constrained variant ("`Cmax` subject to `Mmax ≤ M`") cannot be
//! approximated at all (its feasibility question is the NP-complete
//! decision version of `P ∥ Cmax`), which is why the paper turns the
//! constraint into a second objective.
//!
//! This crate provides:
//!
//! * [`mod@sbo`] — **SBO∆** (Algorithm 1), the symmetric bi-objective
//!   combination of a makespan schedule and a memory schedule through the
//!   threshold rule `p_i/C < ∆·s_i/M`, with the
//!   `((1 + ∆)ρ₁, (1 + 1/∆)ρ₂)` guarantee and the `(1 + ∆ + ε, 1 + 1/∆ + ε)`
//!   instantiation on top of the Hochbaum–Shmoys PTAS (Corollary 1);
//! * [`rls`] — **RLS∆** (Algorithm 2), Restricted List Scheduling for
//!   precedence-constrained tasks, which forbids any processor from
//!   exceeding `∆ · LB` memory and achieves
//!   `(2 + 1/(∆−2) − (∆−1)/(m(∆−2)), ∆)` for `∆ > 2` (Corollary 3);
//! * [`tri`] — the Section 5.2 tri-objective extension: RLS∆ with SPT
//!   tie-breaking on independent tasks is additionally
//!   `(2 + 1/(∆−2))`-approximate on `ΣC_i` (Corollary 4);
//! * [`bounds`] — the inapproximability results of Section 4 (Lemmas
//!   1–3) as executable point families, the impossibility frontier of
//!   Figure 3 and the SBO∆ trade-off curve drawn on the same figure;
//! * [`constrained`] — the Section 7 procedure for the original
//!   industrial problem: derive the largest usable `∆` from a memory
//!   budget (precedence case) or binary-search `∆` (independent case);
//! * [`portfolio`] — every algorithm as a `Solver` behind one routing
//!   entry point, served in batches by [`batch`] and evaluated end to
//!   end (simulate, validate, report achieved-versus-guaranteed ratios)
//!   by [`pipeline`].
//!
//! # Quick start
//!
//! ```
//! use sws_core::prelude::*;
//!
//! // An instance with anti-correlated time and memory requirements.
//! let inst = Instance::from_ps(
//!     &[8.0, 6.0, 1.0, 1.0, 4.0, 2.0],
//!     &[1.0, 2.0, 7.0, 9.0, 3.0, 5.0],
//!     2,
//! ).unwrap();
//!
//! // Trade the two objectives with ∆ = 1 on top of LPT schedules.
//! let result = sbo(&inst, &SboConfig::new(1.0, InnerAlgorithm::Lpt)).unwrap();
//! let point = ObjectivePoint::of_assignment(&inst, &result.assignment);
//! let (gc, gm) = result.guarantee;
//! assert!(point.cmax <= gc * result.reference_cmax + 1e-9);
//! assert!(point.mmax <= gm * result.reference_mmax + 1e-9);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod bounds;
pub mod constrained;
pub mod dispatch;
pub mod pareto_sweep;
pub mod pipeline;
pub mod portfolio;
pub mod replan;
pub mod rls;
pub mod sbo;
pub mod tri;

pub use batch::BatchScheduler;
pub use bounds::{impossibility_frontier, lemma3_point, sbo_tradeoff_curve};
pub use constrained::{solve_dag_with_memory_budget, solve_with_memory_budget};
pub use dispatch::DispatchWorker;
pub use pareto_sweep::{
    rls_sweep, rls_sweep_cold, sbo_sweep, sbo_sweep_cold, SweepEngine, SweepProvenance,
};
pub use portfolio::{KernelWorkspace, Portfolio, SolvePlan, Solver};
pub use replan::{solve_from_scratch, ReplanEngine};
pub use rls::{
    rls_guarantee, rls_in, rls_independent_in, PriorityOrder, RlsConfig, RlsEngine, RlsResult,
};
pub use sbo::{
    corollary1_guarantee, sbo, sbo_guarantee, InnerAlgorithm, SboConfig, SboEngine, SboResult,
};
pub use tri::{corollary4_guarantee, tri_objective_rls_in};

/// Frequently used items, including the model-layer vocabulary.
pub mod prelude {
    pub use crate::batch::BatchScheduler;
    pub use crate::bounds::{
        impossibility_frontier, lemma1_points, lemma2_point, lemma3_point, sbo_tradeoff_curve,
        violates_impossibility,
    };
    pub use crate::constrained::{
        solve_dag_with_memory_budget, solve_with_memory_budget, ConstrainedOutcome,
    };
    pub use crate::dispatch::DispatchWorker;
    pub use crate::pareto_sweep::{
        delta_grid, rls_sweep, rls_sweep_cold, sbo_sweep, sbo_sweep_cold, SweepEngine, SweepPoint,
        SweepProvenance,
    };
    pub use crate::pipeline::{
        evaluate_request, evaluate_routed, evaluate_solution, EvaluationReport,
    };
    pub use crate::portfolio::{KernelWorkspace, Portfolio, SolvePlan, Solver};
    pub use crate::replan::{solve_from_scratch, ReplanEngine};
    pub use crate::rls::{
        rls_guarantee, rls_in, rls_independent_in, PriorityOrder, RlsConfig, RlsEngine, RlsResult,
    };
    pub use crate::sbo::{
        corollary1_guarantee, sbo, sbo_guarantee, InnerAlgorithm, SboConfig, SboEngine, SboResult,
    };
    pub use crate::tri::{corollary4_guarantee, tri_objective_rls_in, TriObjectiveResult};
    pub use sws_model::prelude::*;
}
