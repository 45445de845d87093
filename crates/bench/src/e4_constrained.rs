//! Experiment E4 — the Section 7 procedure for the original industrial
//! problem: minimize `Cmax` subject to `Mmax ≤ M`.
//!
//! The budget is expressed as `M = β·LB` where `LB` is the Graham memory
//! lower bound. For independent tasks the SBO-based binary search is used;
//! for DAGs the `∆ = M/LB` derivation feeds RLS∆. Each row records whether
//! a feasible schedule was found, the achieved makespan relative to the
//! (unconstrained) Graham bound, and — on instances small enough for the
//! exhaustive solver — the gap to the true constrained optimum.

use sws_core::portfolio::Portfolio;
use sws_model::bounds::{cmax_lower_bound, mmax_lower_bound};
use sws_model::solve::{BackendId, Guarantee, ObjectiveMode, SolveRequest};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::table::{fmt2, fmt4, Table};
use crate::BASE_SEED;

/// Parameter grid of experiment E4.
#[derive(Debug, Clone)]
pub struct E4Config {
    /// Budget multipliers `β` (budget = `β·LB`).
    pub betas: Vec<f64>,
    /// Independent-task sizes `(n, m)`.
    pub independent_sizes: Vec<(usize, usize)>,
    /// DAG workloads `(family, target n, m)`.
    pub dag_cases: Vec<(DagFamily, usize, usize)>,
    /// `(p, s)` distribution for the independent workloads.
    pub distribution: TaskDistribution,
    /// Independent replications per cell.
    pub replications: usize,
    /// Instances with at most this many tasks also get the exact
    /// constrained optimum as a comparison column.
    pub exact_up_to: usize,
}

impl Default for E4Config {
    fn default() -> Self {
        E4Config {
            betas: vec![1.05, 1.2, 1.5, 2.0, 3.0, 4.0],
            independent_sizes: vec![(10, 2), (20, 4), (50, 4), (100, 8)],
            dag_cases: vec![
                (DagFamily::LayeredRandom, 100, 4),
                (DagFamily::GaussianElimination, 100, 4),
                (DagFamily::ForkJoin, 100, 8),
            ],
            distribution: TaskDistribution::AntiCorrelated,
            replications: 3,
            exact_up_to: 12,
        }
    }
}

impl E4Config {
    /// A small grid for tests and smoke runs.
    pub fn smoke() -> Self {
        E4Config {
            betas: vec![1.2, 2.0],
            independent_sizes: vec![(10, 2), (24, 3)],
            dag_cases: vec![(DagFamily::LayeredRandom, 40, 3)],
            distribution: TaskDistribution::AntiCorrelated,
            replications: 2,
            exact_up_to: 10,
        }
    }
}

/// One averaged cell of the independent-task half of experiment E4.
#[derive(Debug, Clone)]
pub struct E4IndependentRow {
    /// Number of tasks.
    pub n: usize,
    /// Number of processors.
    pub m: usize,
    /// Budget multiplier `β`.
    pub beta: f64,
    /// Fraction of replications for which a feasible schedule was found.
    pub success_rate: f64,
    /// Mean achieved `Cmax / cmax_lower_bound` among the successes.
    pub cmax_over_lb: f64,
    /// Mean achieved `Cmax / exact constrained optimum` among successes on
    /// instances small enough for exhaustive search (0 when unavailable).
    pub cmax_over_opt: f64,
    /// Mean number of SBO evaluations spent by the binary search.
    pub evaluations: f64,
}

/// One averaged cell of the DAG half of experiment E4.
#[derive(Debug, Clone)]
pub struct E4DagRow {
    /// DAG family label.
    pub family: String,
    /// Approximate number of tasks.
    pub n_target: usize,
    /// Number of processors.
    pub m: usize,
    /// Budget multiplier `β`.
    pub beta: f64,
    /// Fraction of replications where RLS∆ could run (`β > 2`) and met the
    /// budget.
    pub success_rate: f64,
    /// Mean achieved `Cmax` over the precedence-aware lower bound among
    /// the successes.
    pub cmax_over_lb: f64,
    /// Mean proven makespan guarantee `2 + 1/(∆−2) − (∆−1)/(m(∆−2))`.
    pub makespan_guarantee: f64,
}

/// The two result tables of experiment E4.
#[derive(Debug, Clone)]
pub struct E4Results {
    /// Independent-task rows.
    pub independent: Vec<E4IndependentRow>,
    /// DAG rows.
    pub dag: Vec<E4DagRow>,
}

/// Runs experiment E4 over the configured grid.
pub fn run(config: &E4Config) -> E4Results {
    E4Results {
        independent: run_independent(config),
        dag: run_dag(config),
    }
}

fn run_independent(config: &E4Config) -> Vec<E4IndependentRow> {
    // The experiment measures the Section 7 heuristic itself, so its
    // runs pin the constrained-search backend (auto-selection would
    // route the tiny instances to the exact enumerator); the exact
    // comparison column *is* auto-selection, with an `Exact` guarantee.
    let portfolio = Portfolio::standard();
    let heuristic = portfolio
        .backend(BackendId::ConstrainedSearch)
        .expect("registered in the standard portfolio");
    let mut rows = Vec::new();
    for &(n, m) in &config.independent_sizes {
        for &beta in &config.betas {
            let mut successes = 0usize;
            let mut cmax_over_lb = Vec::new();
            let mut cmax_over_opt = Vec::new();
            let mut evaluations = Vec::new();
            for rep in 0..config.replications {
                let seed = derive_seed(BASE_SEED ^ 0xE4, (n * 100 + m * 10 + rep) as u64);
                let inst = random_instance(n, m, config.distribution, &mut seeded_rng(seed));
                let lb_m = mmax_lower_bound(inst.tasks(), m);
                let lb_c = cmax_lower_bound(inst.tasks(), m);
                let budget = beta * lb_m;
                let req = SolveRequest::independent(&inst, ObjectiveMode::MemoryBudget { budget });
                if let Ok(solution) = heuristic.solve(&req) {
                    successes += 1;
                    cmax_over_lb.push(solution.point.cmax / lb_c);
                    evaluations.push(solution.stats.rounds as f64);
                    if n <= config.exact_up_to {
                        if let Ok(exact) = portfolio.solve(&req.with_guarantee(Guarantee::Exact)) {
                            cmax_over_opt.push(solution.point.cmax / exact.point.cmax);
                        }
                    }
                }
            }
            rows.push(E4IndependentRow {
                n,
                m,
                beta,
                success_rate: successes as f64 / config.replications as f64,
                cmax_over_lb: mean(&cmax_over_lb),
                cmax_over_opt: mean(&cmax_over_opt),
                evaluations: mean(&evaluations),
            });
        }
    }
    rows
}

fn run_dag(config: &E4Config) -> Vec<E4DagRow> {
    let portfolio = Portfolio::standard();
    let mut rows = Vec::new();
    for &(family, n, m) in &config.dag_cases {
        for &beta in &config.betas {
            let mut successes = 0usize;
            let mut cmax_over_lb = Vec::new();
            let mut guarantees = Vec::new();
            for rep in 0..config.replications {
                let seed = derive_seed(BASE_SEED ^ 0xE4D, (n * 100 + m * 10 + rep) as u64);
                let inst = dag_workload(family, n, m, config.distribution, &mut seeded_rng(seed));
                let lb_m = mmax_lower_bound(inst.tasks(), m);
                let budget = beta * lb_m;
                let req = SolveRequest::precedence(&inst, ObjectiveMode::MemoryBudget { budget });
                // DAG budget requests auto-route to the Section 7
                // procedure; the solution reports the critical-path
                // lower bound through the shared provenance, so the
                // ratio column needs no private re-derivation.
                if let Ok(solution) = portfolio.solve(&req) {
                    successes += 1;
                    cmax_over_lb.push(solution.cmax_over_lb());
                    guarantees.push(
                        solution
                            .ratio_bound
                            .map(|(gc, _)| gc)
                            .expect("the DAG budget procedure proves a makespan factor"),
                    );
                }
            }
            rows.push(E4DagRow {
                family: family.label().to_string(),
                n_target: n,
                m,
                beta,
                success_rate: successes as f64 / config.replications as f64,
                cmax_over_lb: mean(&cmax_over_lb),
                makespan_guarantee: mean(&guarantees),
            });
        }
    }
    rows
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders the independent-task half of E4 as a table.
pub fn independent_table(rows: &[E4IndependentRow]) -> Table {
    let mut t = Table::new(
        "E4 constrained problem independent tasks",
        &[
            "n",
            "m",
            "beta",
            "success_rate",
            "cmax_over_lb",
            "cmax_over_opt",
            "evaluations",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.n.to_string(),
            r.m.to_string(),
            fmt2(r.beta),
            fmt2(r.success_rate),
            fmt4(r.cmax_over_lb),
            fmt4(r.cmax_over_opt),
            fmt2(r.evaluations),
        ]);
    }
    t
}

/// Renders the DAG half of E4 as a table.
pub fn dag_table(rows: &[E4DagRow]) -> Table {
    let mut t = Table::new(
        "E4 constrained problem DAGs",
        &[
            "family",
            "n_target",
            "m",
            "beta",
            "success_rate",
            "cmax_over_lb",
            "guar_cmax",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.family.clone(),
            r.n_target.to_string(),
            r.m.to_string(),
            fmt2(r.beta),
            fmt2(r.success_rate),
            fmt4(r.cmax_over_lb),
            fmt4(r.makespan_guarantee),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_produces_both_tables() {
        let results = run(&E4Config::smoke());
        assert!(!results.independent.is_empty());
        assert!(!results.dag.is_empty());
        assert_eq!(
            independent_table(&results.independent).len(),
            results.independent.len()
        );
        assert_eq!(dag_table(&results.dag).len(), results.dag.len());
    }

    #[test]
    fn generous_budgets_always_succeed() {
        let results = run(&E4Config::smoke());
        for r in results.independent.iter().filter(|r| r.beta >= 2.0) {
            assert_eq!(
                r.success_rate, 1.0,
                "β = {} should always be feasible: {r:?}",
                r.beta
            );
            assert!(r.cmax_over_lb >= 1.0 - 1e-9);
        }
        for r in &results.dag {
            // β > 2 means ∆ > 2, so RLS runs and meets the budget; at or
            // below 2 the procedure declines (NoGuarantee).
            if r.beta > 2.0 {
                assert_eq!(r.success_rate, 1.0, "{r:?}");
            } else {
                assert_eq!(r.success_rate, 0.0, "{r:?}");
            }
        }
    }

    #[test]
    fn dag_budgets_at_or_below_two_lb_never_claim_a_guarantee() {
        let mut cfg = E4Config::smoke();
        cfg.betas = vec![1.0, 1.5, 2.0];
        let results = run(&cfg);
        for r in &results.dag {
            assert_eq!(r.success_rate, 0.0, "β ≤ 2 cannot use RLS: {r:?}");
        }
    }

    #[test]
    fn heuristic_never_beats_the_exact_constrained_optimum() {
        let results = run(&E4Config::smoke());
        for r in results.independent.iter().filter(|r| r.cmax_over_opt > 0.0) {
            assert!(
                r.cmax_over_opt >= 1.0 - 1e-9,
                "heuristic beat the exhaustive optimum: {r:?}"
            );
        }
    }
}
