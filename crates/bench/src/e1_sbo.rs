//! Experiment E1 — empirical check of Properties 1–2 and Corollary 1:
//! achieved `(Cmax/C*, Mmax/M*)` ratios of SBO∆ as a function of `∆`, the
//! inner algorithm, the `(p, s)` correlation and the instance size.
//!
//! For small instances the reference is the exact per-objective optimum
//! (branch and bound); for larger ones the Graham lower bounds are used,
//! so the reported ratios are then upper bounds on the true ones. Every
//! row also records the proven guarantee and whether it was respected.

use rayon::prelude::*;

use sws_core::pipeline::evaluate_solution;
use sws_core::sbo::{InnerAlgorithm, SboEngine};
use sws_model::ratio::Reference;
use sws_model::solve::{ObjectiveMode, SolveRequest};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::table::{fmt2, fmt4, Table};
use crate::BASE_SEED;

/// Parameter grid of experiment E1.
#[derive(Debug, Clone)]
pub struct E1Config {
    /// Task counts to sweep.
    pub task_counts: Vec<usize>,
    /// Processor counts to sweep.
    pub processor_counts: Vec<usize>,
    /// ∆ values to sweep.
    pub deltas: Vec<f64>,
    /// Inner single-objective schedulers to compare.
    pub inners: Vec<InnerAlgorithm>,
    /// `(p, s)` joint distributions.
    pub distributions: Vec<TaskDistribution>,
    /// Independent replications per cell.
    pub replications: usize,
}

impl Default for E1Config {
    fn default() -> Self {
        E1Config {
            task_counts: vec![20, 50, 100, 200],
            processor_counts: vec![2, 4, 8, 16],
            deltas: vec![0.25, 0.5, 1.0, 2.0, 4.0],
            inners: vec![InnerAlgorithm::Graham, InnerAlgorithm::Lpt],
            distributions: TaskDistribution::all().to_vec(),
            replications: 3,
        }
    }
}

impl E1Config {
    /// A small grid for tests and smoke runs.
    pub fn smoke() -> Self {
        E1Config {
            task_counts: vec![12, 30],
            processor_counts: vec![2, 4],
            deltas: vec![0.5, 1.0, 2.0],
            inners: vec![InnerAlgorithm::Lpt],
            distributions: vec![TaskDistribution::AntiCorrelated],
            replications: 2,
        }
    }

    /// The Corollary 1 variant: PTAS inner algorithms on a reduced grid
    /// (the PTAS is polynomial but markedly slower).
    pub fn corollary1(eps: f64) -> Self {
        E1Config {
            task_counts: vec![20, 40],
            processor_counts: vec![2, 4],
            deltas: vec![0.5, 1.0, 2.0],
            inners: vec![InnerAlgorithm::Ptas { eps }],
            distributions: vec![
                TaskDistribution::Uncorrelated,
                TaskDistribution::AntiCorrelated,
            ],
            replications: 2,
        }
    }
}

/// One averaged cell of experiment E1.
#[derive(Debug, Clone)]
pub struct E1Row {
    /// Distribution label.
    pub distribution: String,
    /// Inner algorithm label.
    pub inner: String,
    /// Number of tasks.
    pub n: usize,
    /// Number of processors.
    pub m: usize,
    /// The SBO parameter ∆.
    pub delta: f64,
    /// Mean achieved `Cmax` ratio over the replications.
    pub cmax_ratio: f64,
    /// Mean achieved `Mmax` ratio over the replications.
    pub mmax_ratio: f64,
    /// Worst (largest) achieved `Cmax` ratio.
    pub worst_cmax_ratio: f64,
    /// Worst (largest) achieved `Mmax` ratio.
    pub worst_mmax_ratio: f64,
    /// The proven guarantee on `Cmax`.
    pub guarantee_cmax: f64,
    /// The proven guarantee on `Mmax`.
    pub guarantee_mmax: f64,
    /// Fraction of replications whose reference was the exact optimum.
    pub exact_reference_fraction: f64,
    /// True when every replication respected the guarantee.
    pub within_guarantee: bool,
}

/// Runs experiment E1 over the configured grid. Cells — one per
/// `(distribution, inner, n, m)` — are independent (each derives its own
/// seeds), so they fan out across all cores; within a cell all ∆ values
/// share one [`SboEngine`] per replication, so the two inner schedules
/// are computed once instead of once per ∆ (with the PTAS inner
/// algorithm that is essentially the entire cost). The flattened row
/// order and every reported number match the old per-∆ serial loops.
pub fn run(config: &E1Config) -> Vec<E1Row> {
    let mut cells = Vec::new();
    for &distribution in &config.distributions {
        for &inner in &config.inners {
            for &n in &config.task_counts {
                for &m in &config.processor_counts {
                    if m >= n {
                        continue;
                    }
                    cells.push((distribution, inner, n, m));
                }
            }
        }
    }
    let per_cell: Vec<Vec<E1Row>> = cells
        .into_par_iter()
        .map(|(distribution, inner, n, m)| {
            run_cell(
                distribution,
                inner,
                n,
                m,
                &config.deltas,
                config.replications,
            )
        })
        .collect();
    per_cell.into_iter().flatten().collect()
}

/// Per-∆ accumulator of one cell.
#[derive(Clone)]
struct DeltaAccumulator {
    cmax_ratios: Vec<f64>,
    mmax_ratios: Vec<f64>,
    exact: usize,
    within: bool,
    guarantee: (f64, f64),
}

fn run_cell(
    distribution: TaskDistribution,
    inner: InnerAlgorithm,
    n: usize,
    m: usize,
    deltas: &[f64],
    replications: usize,
) -> Vec<E1Row> {
    let mut accs = vec![
        DeltaAccumulator {
            cmax_ratios: Vec::with_capacity(replications),
            mmax_ratios: Vec::with_capacity(replications),
            exact: 0,
            within: true,
            guarantee: (0.0, 0.0),
        };
        deltas.len()
    ];
    for rep in 0..replications {
        let seed = derive_seed(BASE_SEED, (n * 1000 + m * 10 + rep) as u64);
        let inst = random_instance(n, m, distribution, &mut seeded_rng(seed));
        let engine = SboEngine::new(&inst, inner).expect("grid parameters are valid");
        for (acc, &delta) in accs.iter_mut().zip(deltas) {
            let solution = engine
                .run(delta)
                .expect("grid parameters are valid")
                .into_solution(&inst);
            let req = SolveRequest::independent(&inst, ObjectiveMode::BiObjective { delta });
            let report = evaluate_solution(&req, &solution).expect("grid parameters are valid");
            acc.cmax_ratios.push(report.ratio.cmax_ratio);
            acc.mmax_ratios.push(report.ratio.mmax_ratio);
            if report.ratio.reference_kind == Reference::Optimum {
                acc.exact += 1;
                // Against the exact optimum the guarantee is a hard bound.
                acc.within &= report.within_guarantee();
            }
            acc.guarantee = report.ratio.guarantee.unwrap_or(acc.guarantee);
        }
    }
    accs.into_iter()
        .zip(deltas)
        .map(|(acc, &delta)| E1Row {
            distribution: distribution.label().to_string(),
            inner: inner.label().to_string(),
            n,
            m,
            delta,
            cmax_ratio: mean(&acc.cmax_ratios),
            mmax_ratio: mean(&acc.mmax_ratios),
            worst_cmax_ratio: max(&acc.cmax_ratios),
            worst_mmax_ratio: max(&acc.mmax_ratios),
            guarantee_cmax: acc.guarantee.0,
            guarantee_mmax: acc.guarantee.1,
            exact_reference_fraction: acc.exact as f64 / replications as f64,
            within_guarantee: acc.within,
        })
        .collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().cloned().fold(0.0, f64::max)
}

/// Renders E1 rows as a table.
pub fn to_table(rows: &[E1Row]) -> Table {
    let mut t = Table::new(
        "E1 SBO ratio sweep",
        &[
            "distribution",
            "inner",
            "n",
            "m",
            "delta",
            "cmax_ratio",
            "mmax_ratio",
            "worst_cmax",
            "worst_mmax",
            "guar_cmax",
            "guar_mmax",
            "exact_ref",
            "within",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.distribution.clone(),
            r.inner.clone(),
            r.n.to_string(),
            r.m.to_string(),
            fmt2(r.delta),
            fmt4(r.cmax_ratio),
            fmt4(r.mmax_ratio),
            fmt4(r.worst_cmax_ratio),
            fmt4(r.worst_mmax_ratio),
            fmt4(r.guarantee_cmax),
            fmt4(r.guarantee_mmax),
            fmt2(r.exact_reference_fraction),
            r.within_guarantee.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_produces_consistent_rows() {
        let rows = run(&E1Config::smoke());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.cmax_ratio >= 1.0 - 1e-9, "ratio below 1: {r:?}");
            assert!(r.mmax_ratio >= 1.0 - 1e-9, "ratio below 1: {r:?}");
            assert!(r.worst_cmax_ratio + 1e-12 >= r.cmax_ratio);
            assert!(r.within_guarantee, "guarantee violated: {r:?}");
            // The trade-off structure: the guarantee pair follows
            // (1+∆)ρ / (1+1/∆)ρ.
            assert!(r.guarantee_cmax > 1.0 && r.guarantee_mmax > 1.0);
        }
    }

    #[test]
    fn larger_delta_trades_memory_for_makespan_in_the_guarantee() {
        let rows = run(&E1Config::smoke());
        let small: Vec<&E1Row> = rows.iter().filter(|r| r.delta == 0.5).collect();
        let large: Vec<&E1Row> = rows.iter().filter(|r| r.delta == 2.0).collect();
        assert_eq!(small.len(), large.len());
        for (s, l) in small.iter().zip(&large) {
            assert!(l.guarantee_cmax > s.guarantee_cmax);
            assert!(l.guarantee_mmax < s.guarantee_mmax);
        }
    }

    #[test]
    fn table_has_one_row_per_cell() {
        let rows = run(&E1Config::smoke());
        let t = to_table(&rows);
        assert_eq!(t.len(), rows.len());
        assert_eq!(t.header.len(), 13);
    }

    #[test]
    fn corollary1_grid_uses_the_ptas() {
        let mut cfg = E1Config::corollary1(0.3);
        // Shrink further so the test stays fast.
        cfg.task_counts = vec![12];
        cfg.processor_counts = vec![2];
        cfg.deltas = vec![1.0];
        cfg.replications = 1;
        let rows = run(&cfg);
        assert!(rows.iter().all(|r| r.inner == "ptas"));
        assert!(rows.iter().all(|r| r.within_guarantee));
    }
}
