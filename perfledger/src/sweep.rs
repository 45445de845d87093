//! `pareto_sweep`: `SweepEngine::with_workers(2).run_rls` over a
//! 1 000-point ∆ grid (the `BENCH_sweep` grid, ∆ ∈ [2.1, 16]) on hot,
//! prebuilt n = 2 500, m = 8 DAGs of three families, taken in rotation.

use std::time::Duration;

use sws_core::pareto_sweep::{delta_grid, rls_sweep_cold, SweepEngine};
use sws_core::rls::{PriorityOrder, RlsConfig, RlsEngine, RlsResult};
use sws_dag::DagInstance;
use sws_listsched::kernel::{event_driven_schedule_csr, KernelWorkspace, MemoryCapAdmission};
use sws_model::validate::validate_timed;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::check;
use crate::measure::{median, quantile, repeat_setup, timed, us, SplitMix, Tracer};
use crate::report::Report;
use crate::Args;

const N: usize = 2_500;
const M: usize = 8;
const WORKERS: usize = 2;
const DELTA_MIN: f64 = 2.1;
const DELTA_MAX: f64 = 16.0;
const POINTS: usize = 1_000;
const FAMILIES: [DagFamily; 3] = [
    DagFamily::LayeredRandom,
    DagFamily::ForkJoin,
    DagFamily::Erdos,
];
/// DAGs per family.
const PER_FAMILY: usize = 2;
/// Grid points per DAG checked against the cold oracle.
const CHECKED_POINTS: usize = 6;

fn generate(seed: u64) -> Vec<DagInstance> {
    (0..FAMILIES.len() * PER_FAMILY)
        .map(|j| {
            dag_workload(
                FAMILIES[j % FAMILIES.len()],
                N,
                M,
                TaskDistribution::Uncorrelated,
                &mut seeded_rng(derive_seed(seed, j as u64)),
            )
        })
        .collect()
}

/// Sampled grid points: the first sweep of each DAG is checked against
/// `rls_sweep_cold` at those ∆ values, later sweeps against its digests.
struct Checker {
    points: Vec<usize>,
    digests: Vec<Vec<u64>>,
    wrong: u64,
    checked: u64,
    first_error: Option<String>,
}

impl Checker {
    fn sweep(
        &mut self,
        dag_idx: usize,
        dag: &DagInstance,
        grid: &[f64],
        results: &[(f64, RlsResult)],
    ) {
        if results.len() != grid.len()
            || results
                .iter()
                .zip(grid)
                .any(|((d, _), g)| d.to_bits() != g.to_bits())
        {
            self.wrong(format!(
                "dag {dag_idx}: the sweep did not return the grid in order"
            ));
            return;
        }
        let digests: Vec<u64> = self
            .points
            .iter()
            .map(|&p| check::schedule_digest(&results[p].1.schedule))
            .collect();
        self.checked += self.points.len() as u64;
        if !self.digests[dag_idx].is_empty() {
            if self.digests[dag_idx] != digests {
                self.wrong(format!(
                    "dag {dag_idx}: a repeat sweep served different bits"
                ));
            }
            return;
        }
        for p in self.points.clone() {
            let (delta, result) = &results[p];
            let cap = delta * dag.mmax_lower_bound();
            if let Err(err) = validate_timed(
                dag.tasks(),
                M,
                &result.schedule,
                dag.graph().all_preds(),
                Some(cap),
            ) {
                self.wrong(format!("dag {dag_idx}, ∆ = {delta}: {err}"));
                continue;
            }
            match rls_sweep_cold(dag, &RlsConfig::new(*delta), *delta, *delta, 1) {
                Ok(cold)
                    if cold.len() == 1
                        && check::same_schedule(&cold[0].schedule, &result.schedule) => {}
                Ok(_) => self.wrong(format!("dag {dag_idx}, ∆ = {delta}: warm ≠ rls_sweep_cold")),
                Err(err) => self.wrong(format!(
                    "dag {dag_idx}, ∆ = {delta}: cold oracle failed: {err}"
                )),
            }
        }
        self.digests[dag_idx] = digests;
    }

    fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Whole rotations of sweeps until `budget` is spent; per-sweep
/// seconds in order (sweep `i` ran on DAG `i % dags.len()`) and whether
/// it was traced. With a tracer, every other rotation is traced, so
/// changes in the machine's speed weigh on both kinds alike.
fn sweeps(
    dags: &[DagInstance],
    grid: &[f64],
    budget: Duration,
    checker: &mut Checker,
    mut tracer: Option<&mut Tracer>,
    failed: &mut u64,
) -> (Vec<f64>, Vec<bool>) {
    let engine = SweepEngine::with_workers(WORKERS);
    let (mut times, mut traced) = (Vec::new(), Vec::new());
    let mut spent = Duration::ZERO;
    while times.len() < 2 * dags.len() || spent < budget {
        let trace_rotation = (times.len() / dags.len()) % 2 == 1;
        for (j, dag) in dags.iter().enumerate() {
            let id = times.len() as u64;
            let sweep = || engine.run_rls(dag, PriorityOrder::Index, grid);
            let (results, d) = match tracer.as_deref_mut().filter(|_| trace_rotation) {
                None => timed(sweep),
                Some(t) => t.span(id, "core.pareto_sweep", None, sweep),
            };
            spent += d;
            times.push(d.as_secs_f64());
            traced.push(trace_rotation && tracer.is_some());
            match results {
                Ok(results) => checker.sweep(j, dag, grid, &results),
                Err(_) => *failed += grid.len() as u64,
            }
        }
    }
    (times, traced)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let grid = delta_grid(DELTA_MIN, DELTA_MAX, POINTS).expect("a valid ∆ range");
    let (dags, setups) = repeat_setup(|| generate(args.seed));
    let shapes: Vec<String> = dags
        .iter()
        .zip(FAMILIES.iter().cycle())
        .map(|(d, f)| format!("{} n = {} e = {}", f.label(), d.n(), d.graph().edge_count()))
        .collect();
    report.note(format!(
        "sweeps: {} ∆ points in [{DELTA_MIN}, {DELTA_MAX}], {WORKERS} chains, m = {M}, DAGs: {}",
        grid.len(),
        shapes.join(", ")
    ));
    let mut picks = SplitMix::new(derive_seed(args.seed, 0x5EE9));
    let mut checker = Checker {
        points: picks.sample(grid.len(), CHECKED_POINTS),
        digests: vec![Vec::new(); dags.len()],
        wrong: 0,
        checked: 0,
        first_error: None,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut failed = 0;
    let swept;
    if args.trace {
        let mut tracer = Tracer::new();
        let (times, traced) = sweeps(
            &dags,
            &grid,
            budget.mul_f64(0.6),
            &mut checker,
            Some(&mut tracer),
            &mut failed,
        );
        swept = times.len();
        layers(&dags, &grid, median(&setups), &mut tracer, &mut report);
        let total = |want: bool| -> f64 {
            times
                .iter()
                .zip(&traced)
                .filter(|(_, &t)| t == want)
                .map(|(s, _)| s)
                .sum()
        };
        let count = |want: bool| traced.iter().filter(|&&t| t == want).count().max(1) as f64;
        report.layer(
            "trace.overhead_frac",
            (total(true) / count(true)) / (total(false) / count(false)) - 1.0,
        );
        report.note(tracer.save("pareto_sweep", args.seed));
    } else {
        let (times, _) = sweeps(&dags, &grid, budget, &mut checker, None, &mut failed);
        swept = times.len();
        let sweep_us: Vec<f64> = times.iter().map(|s| s * 1e6).collect();
        // Per DAG: its sweeps in order. Throughput sums the per-DAG
        // median sweep times; drift is the median over DAGs of each
        // DAG's own second-half / first-half ratio.
        let per_dag: Vec<Vec<f64>> = (0..dags.len())
            .map(|j| {
                sweep_us
                    .iter()
                    .skip(j)
                    .step_by(dags.len())
                    .copied()
                    .collect()
            })
            .collect();
        let rotation_us: f64 = per_dag.iter().map(|t| median(t)).sum();
        let drifts: Vec<f64> = per_dag
            .iter()
            .map(|t| median(&t[t.len() / 2..]) / median(&t[..t.len() / 2]))
            .collect();
        report.note(format!(
            "{} sweeps ({} per DAG)",
            times.len(),
            times.len() / dags.len()
        ));
        report.e2e(
            "throughput",
            "sweep.points_per_s",
            (dags.len() * grid.len()) as f64 / (rotation_us / 1e6),
            format!(
                "∆-grid points/s: {} DAGs x {} points over the sum of per-DAG median sweep times",
                dags.len(),
                grid.len()
            ),
        );
        report.e2e(
            "p50_us",
            "sweep.p50_us",
            median(&sweep_us),
            format!("per {}-point sweep, n = {}", grid.len(), times.len()),
        );
        report.e2e(
            "p90_us",
            "sweep.p90_us",
            quantile(&sweep_us, 0.9),
            format!("per sweep, n = {}", times.len()),
        );
        report.note(format!(
            "sweep.p99_us = {} us (per sweep, n = {}; not gated: see perfledger/README.md)",
            quantile(&sweep_us, 0.99),
            times.len()
        ));
        report.note(format!(
            "sweep.drift = {} (median over DAGs of sweep-time p50, second half / first half; not gated: see perfledger/README.md)",
            median(&drifts)
        ));
        report.e2e(
            "setup_s",
            "setup_s",
            median(&setups),
            format!("median of {} set-ups: DAG generation", setups.len()),
        );
        report.e2e(
            "peak_rss_mb",
            "peak_rss_mb",
            crate::measure::peak_rss_mib(),
            "VmHWM",
        );
    }
    report.note(format!("checked {} sampled grid points", checker.checked));
    if let Some(why) = &checker.first_error {
        report.note(format!("first check failure: {why}"));
    }
    report.attempted = (swept * grid.len()) as u64;
    report.failed = failed;
    report.wrong = checker.wrong;
    report
}

fn layers(
    dags: &[DagInstance],
    grid: &[f64],
    gen_s: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    // One warm chain along the whole grid per DAG, point by point.
    let (mut points, mut replayed, mut rounds) = (Vec::new(), 0u64, 0u64);
    for (j, dag) in dags.iter().enumerate() {
        let mut engine = RlsEngine::new(dag, PriorityOrder::Index);
        let id = (1 << 40) + j as u64;
        for &delta in grid {
            let (_, d) = tracer.span(id, "core.sweep_point", None, || engine.run(delta));
            points.push(us(d));
            replayed += engine.replayed_rounds().unwrap_or(0) as u64;
            rounds += dag.n() as u64;
        }
    }
    report.layer_us("core.sweep_point", &points);
    report.layer(
        "core.sweep_replayed_frac",
        replayed as f64 / rounds.max(1) as f64,
    );

    // What each sweep pays once per DAG: flatten, rank, and the cold
    // first run of every chain (then the same run hot).
    let (mut flatten, mut rank, mut cold, mut hot) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut ws = KernelWorkspace::new();
    for rep in 0..16u64 {
        for (j, dag) in dags.iter().enumerate() {
            let id = (2 << 40) + rep * dags.len() as u64 + j as u64;
            let (csr, d) = tracer.span(id, "dag.flatten", None, || dag.csr());
            flatten.push(us(d));
            let (order, d) = tracer.span(id, "listsched.rank", None, || {
                PriorityOrder::Index.rank_csr(dag.graph(), &csr)
            });
            rank.push(us(d));
            let cap = grid[0] * dag.mmax_lower_bound();
            let mut run = || {
                event_driven_schedule_csr(
                    &csr,
                    M,
                    &order,
                    &mut MemoryCapAdmission::new(M, cap),
                    &mut ws,
                )
            };
            let (_, d) = tracer.span(id, "listsched.kernel_cold", None, &mut run);
            cold.push(us(d));
            let (_, d) = tracer.span(id, "listsched.kernel_hot", None, &mut run);
            hot.push(us(d));
        }
    }
    report.layer_us("dag.flatten", &flatten);
    report.layer_us("listsched.rank", &rank);
    report.layer_us("listsched.kernel_cold", &cold);
    report.layer_us("listsched.kernel_hot", &hot);
    let bytes: u64 = dags.iter().map(check::dag_bytes).sum();
    report.layer("dag.instance_bytes", bytes as f64 / dags.len() as f64);
    report.layer("workloads.gen_s", gen_s);
    report.note("listsched.kernel_cold here is the first run of a chain on a freshly flattened CSR (the sweep's cold start), not a rotation through a fleet");
    for what in [
        "service.*: ∆-sweeps bypass the service",
        "core.plan, core.dispatch, core.package, exact.solve, bench.gen_late_p99_us, ledger.unaccounted_frac: no one-shot requests",
        "core.replan_apply, core.replay_fraction, core.replayed_rounds_per_event, dag.apply_delta: no instance mutations",
    ] {
        report.absent(what);
    }
}
