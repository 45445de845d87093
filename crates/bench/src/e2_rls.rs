//! Experiment E2 — empirical check of Corollaries 2–3 and Lemma 4:
//! achieved ratios of RLS∆ on precedence-constrained workloads as a
//! function of `∆`, `m` and the DAG family, plus the marked-processor
//! accounting against the `⌊m/(∆−1)⌋` bound.
//!
//! The makespan reference is the precedence-aware Graham lower bound
//! `max(Σp_i/m, critical path, max_i p_i)` and the memory reference is
//! `LB = max(max_i s_i, Σs_i/m)` — both are lower bounds on the optimum,
//! so achieved ratios are upper bounds on the true approximation ratios
//! and must stay below the proven guarantees.

use rayon::prelude::*;

use sws_core::pipeline::evaluate_solution;
use sws_core::rls::{PriorityOrder, RlsEngine};
use sws_model::solve::{BackendId, BoundReport, ObjectiveMode, SolveRequest};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::table::{fmt2, fmt4, Table};
use crate::BASE_SEED;

/// Parameter grid of experiment E2.
#[derive(Debug, Clone)]
pub struct E2Config {
    /// DAG families to sweep.
    pub families: Vec<DagFamily>,
    /// Approximate task counts.
    pub task_counts: Vec<usize>,
    /// Processor counts.
    pub processor_counts: Vec<usize>,
    /// ∆ values (all > 2).
    pub deltas: Vec<f64>,
    /// Task-cost distribution for the random families.
    pub distribution: TaskDistribution,
    /// Tie-breaking order.
    pub order: PriorityOrder,
    /// Independent replications per cell.
    pub replications: usize,
}

impl Default for E2Config {
    fn default() -> Self {
        E2Config {
            families: DagFamily::all().to_vec(),
            task_counts: vec![100, 400],
            processor_counts: vec![2, 4, 8, 16],
            deltas: vec![2.25, 2.5, 3.0, 4.0, 6.0],
            distribution: TaskDistribution::Uncorrelated,
            order: PriorityOrder::BottomLevel,
            replications: 3,
        }
    }
}

impl E2Config {
    /// A small grid for tests and smoke runs.
    pub fn smoke() -> Self {
        E2Config {
            families: vec![DagFamily::LayeredRandom, DagFamily::GaussianElimination],
            task_counts: vec![60],
            processor_counts: vec![2, 4],
            deltas: vec![2.5, 4.0],
            distribution: TaskDistribution::AntiCorrelated,
            order: PriorityOrder::BottomLevel,
            replications: 2,
        }
    }
}

/// One averaged cell of experiment E2.
#[derive(Debug, Clone)]
pub struct E2Row {
    /// DAG family label.
    pub family: String,
    /// Approximate number of tasks requested.
    pub n_target: usize,
    /// Actual number of tasks of the generated instance (first replication).
    pub n_actual: usize,
    /// Number of processors.
    pub m: usize,
    /// The memory degradation parameter ∆.
    pub delta: f64,
    /// Mean achieved `Cmax` ratio (vs the precedence-aware lower bound).
    pub cmax_ratio: f64,
    /// Mean achieved `Mmax` ratio (vs the Graham memory bound).
    pub mmax_ratio: f64,
    /// Worst achieved `Cmax` ratio.
    pub worst_cmax_ratio: f64,
    /// The proven guarantee on `Cmax` (Corollary 3).
    pub guarantee_cmax: f64,
    /// Mean number of marked processors.
    pub marked_mean: f64,
    /// The Lemma 4 bound `⌊m/(∆−1)⌋`.
    pub marked_bound: usize,
    /// True when every replication respected both guarantees and the
    /// marked-processor bound.
    pub within_guarantee: bool,
}

/// Runs experiment E2 over the configured grid. Cells — one per
/// `(family, n, m)` — are independent (each derives its own seeds), so
/// they fan out across all cores; within a cell each replication's
/// instance walks the whole ∆ grid as **one warm-started
/// [`RlsEngine`] chain** instead of re-running the kernel from scratch
/// per ∆ (the configured grids are ascending, so the chain warm-starts
/// every step). The flattened row order and every reported number match
/// the old per-∆ serial loops.
pub fn run(config: &E2Config) -> Vec<E2Row> {
    let mut cells = Vec::new();
    for &family in &config.families {
        for &n in &config.task_counts {
            for &m in &config.processor_counts {
                cells.push((family, n, m));
            }
        }
    }
    let per_cell: Vec<Vec<E2Row>> = cells
        .into_par_iter()
        .map(|(family, n, m)| run_cell(config, family, n, m))
        .collect();
    per_cell.into_iter().flatten().collect()
}

/// Per-∆ accumulator of one cell.
#[derive(Clone)]
struct DeltaAccumulator {
    cmax_ratios: Vec<f64>,
    mmax_ratios: Vec<f64>,
    marked_counts: Vec<f64>,
    within: bool,
    guarantee_cmax: f64,
    marked_bound: usize,
}

fn run_cell(config: &E2Config, family: DagFamily, n: usize, m: usize) -> Vec<E2Row> {
    let mut accs = vec![
        DeltaAccumulator {
            cmax_ratios: Vec::new(),
            mmax_ratios: Vec::new(),
            marked_counts: Vec::new(),
            within: true,
            guarantee_cmax: 0.0,
            marked_bound: 0,
        };
        config.deltas.len()
    ];
    let mut n_actual = 0usize;
    for rep in 0..config.replications {
        let seed = derive_seed(BASE_SEED ^ 0xE2, (n * 100 + m * 10 + rep) as u64);
        let inst = dag_workload(family, n, m, config.distribution, &mut seeded_rng(seed));
        if rep == 0 {
            n_actual = inst.n();
        }
        let mut engine = RlsEngine::new(&inst, config.order);
        let bounds =
            BoundReport::with_critical_path(inst.tasks(), inst.m(), inst.critical_path_length());
        for (acc, &delta) in accs.iter_mut().zip(&config.deltas) {
            let result = engine.run(delta).expect("∆ > 2 by construction");
            let (marked, marked_bound) = (result.marked_count(), result.marked_bound());
            let solution = result.into_solution(inst.tasks(), BackendId::KernelRls, bounds, true);
            let req = SolveRequest::precedence(&inst, ObjectiveMode::BiObjective { delta });
            let report = evaluate_solution(&req, &solution).expect("∆ > 2 by construction");
            acc.cmax_ratios.push(report.ratio.cmax_ratio);
            acc.mmax_ratios.push(report.ratio.mmax_ratio);
            acc.marked_counts.push(marked as f64);
            acc.marked_bound = marked_bound;
            acc.guarantee_cmax = report.ratio.guarantee.map(|(gc, _)| gc).unwrap_or(0.0);
            acc.within &= report.within_guarantee() && marked <= marked_bound;
        }
    }
    accs.into_iter()
        .zip(&config.deltas)
        .map(|(acc, &delta)| E2Row {
            family: family.label().to_string(),
            n_target: n,
            n_actual,
            m,
            delta,
            cmax_ratio: mean(&acc.cmax_ratios),
            mmax_ratio: mean(&acc.mmax_ratios),
            worst_cmax_ratio: acc.cmax_ratios.iter().cloned().fold(0.0, f64::max),
            guarantee_cmax: acc.guarantee_cmax,
            marked_mean: mean(&acc.marked_counts),
            marked_bound: acc.marked_bound,
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

/// Renders E2 rows as a table.
pub fn to_table(rows: &[E2Row]) -> Table {
    let mut t = Table::new(
        "E2 RLS DAG sweep",
        &[
            "family",
            "n_target",
            "n",
            "m",
            "delta",
            "cmax_ratio",
            "mmax_ratio",
            "worst_cmax",
            "guar_cmax",
            "marked_mean",
            "marked_bound",
            "within",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.family.clone(),
            r.n_target.to_string(),
            r.n_actual.to_string(),
            r.m.to_string(),
            fmt2(r.delta),
            fmt4(r.cmax_ratio),
            fmt4(r.mmax_ratio),
            fmt4(r.worst_cmax_ratio),
            fmt4(r.guarantee_cmax),
            fmt2(r.marked_mean),
            r.marked_bound.to_string(),
            r.within_guarantee.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_grid_respects_all_bounds() {
        let rows = run(&E2Config::smoke());
        assert!(!rows.is_empty());
        for r in &rows {
            assert!(r.within_guarantee, "guarantee or Lemma 4 violated: {r:?}");
            assert!(r.cmax_ratio >= 1.0 - 1e-9);
            assert!(
                r.mmax_ratio <= r.delta + 1e-9,
                "memory ratio above ∆: {r:?}"
            );
            assert!(r.marked_mean <= r.marked_bound as f64 + 1e-9);
        }
    }

    #[test]
    fn guarantee_tightens_as_delta_grows() {
        let rows = run(&E2Config::smoke());
        let tight: Vec<&E2Row> = rows.iter().filter(|r| r.delta == 2.5).collect();
        let loose: Vec<&E2Row> = rows.iter().filter(|r| r.delta == 4.0).collect();
        for (t, l) in tight.iter().zip(&loose) {
            assert!(
                t.guarantee_cmax > l.guarantee_cmax,
                "Cmax guarantee must improve as ∆ grows (more memory slack)"
            );
        }
    }

    #[test]
    fn table_round_trips() {
        let rows = run(&E2Config::smoke());
        let t = to_table(&rows);
        assert_eq!(t.len(), rows.len());
        assert!(t.to_csv().starts_with("family,"));
    }
}
