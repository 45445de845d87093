//! Experiment E3 — empirical check of Corollary 4: the tri-objective
//! `(Cmax, Mmax, ΣC_i)` ratios of RLS∆ with SPT tie-breaking on
//! independent tasks.
//!
//! The `ΣC_i` reference is exact (SPT list scheduling is optimal for
//! `P ∥ ΣC_i`), so that column is a true approximation-ratio measurement;
//! the `Cmax` and `Mmax` references are the Graham lower bounds.

use rayon::prelude::*;

use sws_core::portfolio::Portfolio;
use sws_core::tri::corollary4_guarantee;
use sws_listsched::KernelWorkspace;
use sws_model::bounds::LowerBounds;
use sws_model::objectives::TriObjectivePoint;
use sws_model::ratio::{Reference, TriRatioReport};
use sws_model::solve::{Guarantee, ObjectiveMode, SolveRequest};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::table::{fmt2, fmt4, Table};
use crate::BASE_SEED;

/// Parameter grid of experiment E3.
#[derive(Debug, Clone)]
pub struct E3Config {
    /// Task counts.
    pub task_counts: Vec<usize>,
    /// Processor counts.
    pub processor_counts: Vec<usize>,
    /// ∆ values (all > 2).
    pub deltas: Vec<f64>,
    /// `(p, s)` joint distributions.
    pub distributions: Vec<TaskDistribution>,
    /// Independent replications per cell.
    pub replications: usize,
}

impl Default for E3Config {
    fn default() -> Self {
        E3Config {
            task_counts: vec![20, 50, 100],
            processor_counts: vec![2, 4, 8],
            deltas: vec![2.25, 3.0, 4.0, 6.0],
            distributions: TaskDistribution::all().to_vec(),
            replications: 3,
        }
    }
}

impl E3Config {
    /// A small grid for tests and smoke runs.
    pub fn smoke() -> Self {
        E3Config {
            task_counts: vec![25],
            processor_counts: vec![2, 4],
            deltas: vec![2.5, 4.0],
            distributions: vec![TaskDistribution::Bimodal],
            replications: 2,
        }
    }
}

/// One averaged cell of experiment E3.
#[derive(Debug, Clone)]
pub struct E3Row {
    /// Distribution label.
    pub distribution: String,
    /// Number of tasks.
    pub n: usize,
    /// Number of processors.
    pub m: usize,
    /// The parameter ∆.
    pub delta: f64,
    /// Mean achieved `Cmax` ratio (vs the Graham lower bound).
    pub cmax_ratio: f64,
    /// Mean achieved `Mmax` ratio (vs the Graham memory bound).
    pub mmax_ratio: f64,
    /// Mean achieved `ΣC_i` ratio (vs the exact SPT optimum).
    pub sum_ci_ratio: f64,
    /// Worst achieved `ΣC_i` ratio.
    pub worst_sum_ci_ratio: f64,
    /// The Corollary 4 guarantee on `(Cmax, Mmax, ΣC_i)`.
    pub guarantee: (f64, f64, f64),
    /// True when every replication respected all three guarantees.
    pub within_guarantee: bool,
}

/// Runs experiment E3 over the configured grid.
pub fn run(config: &E3Config) -> Vec<E3Row> {
    let mut cells = Vec::new();
    for &distribution in &config.distributions {
        for &n in &config.task_counts {
            for &m in &config.processor_counts {
                if m >= n {
                    continue;
                }
                for &delta in &config.deltas {
                    cells.push((distribution, n, m, delta));
                }
            }
        }
    }
    // Independent cells fan out across all cores; row order matches the
    // serial nested loops.
    cells
        .into_par_iter()
        .map(|(distribution, n, m, delta)| run_cell(distribution, n, m, delta, config.replications))
        .collect()
}

fn run_cell(
    distribution: TaskDistribution,
    n: usize,
    m: usize,
    delta: f64,
    replications: usize,
) -> E3Row {
    // One portfolio and one reusable kernel workspace per cell: the
    // tri-objective requests route to the SPT-tie RLS∆ kernel backend,
    // which draws its per-run buffers from `ws` across replications.
    let portfolio = Portfolio::standard();
    let mut ws = KernelWorkspace::new();
    let mut rc = Vec::new();
    let mut rm = Vec::new();
    let mut rs = Vec::new();
    let mut within = true;
    let guarantee = corollary4_guarantee(delta, m);
    for rep in 0..replications {
        let seed = derive_seed(BASE_SEED ^ 0xE3, (n * 100 + m * 10 + rep) as u64);
        let inst = random_instance(n, m, distribution, &mut seeded_rng(seed));
        let req = SolveRequest::independent(&inst, ObjectiveMode::TriObjective { delta })
            .with_guarantee(Guarantee::PaperRatio);
        let solution = portfolio
            .solve_in(&req, &mut ws)
            .expect("∆ > 2 by construction");
        let point = TriObjectivePoint::new(
            solution.point.cmax,
            solution.point.mmax,
            solution.sum_ci.expect("tri-objective backends report ΣC_i"),
        );
        let lb = LowerBounds::of_instance(&inst);
        let report = TriRatioReport::new(
            point,
            TriObjectivePoint::new(lb.cmax, lb.mmax, lb.sum_ci),
            Reference::LowerBound,
            Some(guarantee),
        );
        rc.push(report.ratios.0);
        rm.push(report.ratios.1);
        rs.push(report.ratios.2);
        within &= report.within_guarantee();
    }
    E3Row {
        distribution: distribution.label().to_string(),
        n,
        m,
        delta,
        cmax_ratio: mean(&rc),
        mmax_ratio: mean(&rm),
        sum_ci_ratio: mean(&rs),
        worst_sum_ci_ratio: rs.iter().cloned().fold(0.0, f64::max),
        guarantee,
        within_guarantee: within,
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Renders E3 rows as a table.
pub fn to_table(rows: &[E3Row]) -> Table {
    let mut t = Table::new(
        "E3 tri-objective sweep",
        &[
            "distribution",
            "n",
            "m",
            "delta",
            "cmax_ratio",
            "mmax_ratio",
            "sum_ci_ratio",
            "worst_sum_ci",
            "guar_cmax",
            "guar_mmax",
            "guar_sum_ci",
            "within",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.distribution.clone(),
            r.n.to_string(),
            r.m.to_string(),
            fmt2(r.delta),
            fmt4(r.cmax_ratio),
            fmt4(r.mmax_ratio),
            fmt4(r.sum_ci_ratio),
            fmt4(r.worst_sum_ci_ratio),
            fmt4(r.guarantee.0),
            fmt4(r.guarantee.1),
            fmt4(r.guarantee.2),
            r.within_guarantee.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_respects_all_three_guarantees() {
        let rows = run(&E3Config::smoke());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.within_guarantee, "Corollary 4 violated: {r:?}");
            assert!(r.sum_ci_ratio >= 1.0 - 1e-9, "ΣCi ratio below 1: {r:?}");
            assert!(r.mmax_ratio <= r.delta + 1e-9);
        }
    }

    #[test]
    fn sum_ci_stays_close_to_optimal_in_practice() {
        // The guarantee is 2 + 1/(∆−2) but SPT-ordered list scheduling is
        // near-optimal on ΣCi in practice; the measured mean should be
        // well inside the bound.
        let rows = run(&E3Config::smoke());
        for r in &rows {
            assert!(
                r.sum_ci_ratio < r.guarantee.2 * 0.9,
                "measured ΣCi ratio suspiciously close to the bound: {r:?}"
            );
        }
    }

    #[test]
    fn table_round_trips() {
        let rows = run(&E3Config::smoke());
        let t = to_table(&rows);
        assert_eq!(t.len(), rows.len());
        assert_eq!(t.header.len(), 12);
    }
}
