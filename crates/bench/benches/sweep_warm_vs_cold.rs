//! Warm-started incremental ∆-sweeps vs the from-scratch serial loops:
//! the perf story of the checkpoint/resume rework, measured.
//!
//! Groups:
//!
//! * `rls_sweep_warm_vs_cold` — the acceptance point of the rework, a
//!   1000-point RLS∆ front on a layered DAG (n = 2 500, m = 8), plus a
//!   smaller 100-point front; `cold` runs the retained from-scratch
//!   oracle (`rls_sweep_cold`, one full kernel run per grid point),
//!   `warm` the checkpoint/resume chains (`rls_sweep`). Outputs are
//!   bit-identical (tests/differential_sweep.rs), so the ratio is pure
//!   amortization. On this DAG the cap never binds from ∆ = 2.1 up, so
//!   the `warm/*pts` rows measure zero-replay resumes; the
//!   `warm/binding_100caps_2500x8` row is a `CheckpointedRun` chain
//!   over caps 1.01–1.1·LB on the same DAG, where the cap rejects in
//!   the last strides of every run and resumes restore kept snapshots.
//!   `warm/binding_sweep_991x64` is a `SweepEngine` sweep (at most two
//!   chains) over a 200-point grid from ∆ = 2.01 on a bimodal fork-join
//!   DAG (n = 991, m = 64) whose first run does not answer every later
//!   point: 10 of them replay, so the sweep fans out the points after
//!   the answered prefix to chains forked from the first run.
//! * `sbo_sweep_warm_vs_cold` — 1000-point SBO∆ front on independent
//!   tasks (n = 2 000, m = 8): the engine computes the two inner LPT
//!   schedules once instead of once per grid point.
//!
//! Regenerate the committed baseline with:
//!
//! ```text
//! SWS_BENCH_JSON=$(pwd)/BENCH_sweep.json cargo bench --bench sweep_warm_vs_cold
//! ```
//!
//! CI runs the bench in **quick mode** (`SWS_BENCH_QUICK=1`): the
//! `cold` oracle rows are skipped and the `warm` rows take extra
//! samples — their medians feed the 20% `bench_compare` regression
//! gate via `--filter /warm/`. Every `warm` row keeps its full-size
//! instance and its id, so quick-mode medians are directly comparable,
//! row for row, to the committed `BENCH_sweep.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

use sws_core::pareto_sweep::{
    delta_grid, rls_sweep, rls_sweep_cold, sbo_sweep, sbo_sweep_cold, SweepEngine,
};
use sws_core::rls::{PriorityOrder, RlsConfig, RlsEngine};
use sws_core::sbo::InnerAlgorithm;
use sws_dag::DagInstance;
use sws_listsched::kernel::CheckpointedRun;
use sws_listsched::priority::index_priority;
use sws_listsched::KernelWorkspace;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

/// Quick mode (CI): drop the slow cold-oracle rows, keep every warm row
/// at full size so medians stay comparable to the committed JSON.
fn quick() -> bool {
    std::env::var("SWS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn layered(n: usize, m: usize, seed: u64) -> DagInstance {
    dag_workload(
        DagFamily::LayeredRandom,
        n,
        m,
        TaskDistribution::Uncorrelated,
        &mut seeded_rng(seed),
    )
}

fn bench_rls_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("rls_sweep_warm_vs_cold");

    let inst = layered(2_500, 8, 0x5AFE);
    let cfg = RlsConfig::new(3.0);

    group.sample_size(if quick() { 30 } else { 10 });
    for &samples in &[100usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("warm", format!("{samples}pts_2500x8")),
            &inst,
            |b, inst| {
                b.iter(|| black_box(rls_sweep(black_box(inst), &cfg, 2.1, 16.0, samples).unwrap()))
            },
        );
    }

    // A chain whose cap binds: one cold checkpointed run, then 99 warm
    // resumes, over a prebuilt CSR and rank through one workspace.
    let lb = inst.mmax_lower_bound();
    let caps: Vec<f64> = delta_grid(1.01, 1.1, 100)
        .unwrap()
        .into_iter()
        .map(|f| f * lb)
        .collect();
    let csr = Arc::new(inst.csr());
    let rank = Arc::new(index_priority(inst.n()));
    let mut ws = KernelWorkspace::with_capacity(inst.n(), inst.m());
    group.bench_with_input(
        BenchmarkId::new("warm", "binding_100caps_2500x8"),
        &inst,
        |b, inst| {
            b.iter(|| {
                let mut run = CheckpointedRun::cold_in(
                    Arc::clone(&csr),
                    inst.m(),
                    Arc::clone(&rank),
                    caps[0],
                    &mut ws,
                )
                .unwrap();
                let mut replayed = run.replayed_rounds();
                for &cap in &caps[1..] {
                    run = run.resume_in(cap, &mut ws).unwrap();
                    replayed += run.replayed_rounds();
                }
                black_box(replayed)
            })
        },
    );

    // A sweep whose first run does not answer the grid: the points it
    // cannot answer fan out to at most two chains forked from it.
    let binding = dag_workload(
        DagFamily::ForkJoin,
        1_000,
        64,
        TaskDistribution::Bimodal,
        &mut seeded_rng(0xBEEF),
    );
    let grid = delta_grid(2.01, 16.0, 200).unwrap();
    let mut chain = RlsEngine::new(&binding, PriorityOrder::Index);
    chain.run(grid[0]).unwrap();
    assert!(
        grid[1..].iter().any(|&delta| {
            chain.run(delta).unwrap();
            chain.replayed_rounds() > Some(0)
        }),
        "the binding sweep must replay at some later point"
    );
    let engine = SweepEngine::with_workers(2);
    group.bench_with_input(
        BenchmarkId::new("warm", format!("binding_sweep_{}x64", binding.n())),
        &binding,
        |b, inst| b.iter(|| black_box(engine.run_rls(inst, PriorityOrder::Index, &grid).unwrap())),
    );

    if quick() {
        group.finish();
        return;
    }
    // The cold oracle costs one full kernel run per grid point (~0.5 s
    // per iteration at 1 000 points); few samples suffice — the measured
    // quantity is an order-of-magnitude ratio.
    group.sample_size(5);
    for &samples in &[100usize, 1_000] {
        group.bench_with_input(
            BenchmarkId::new("cold", format!("{samples}pts_2500x8")),
            &inst,
            |b, inst| {
                b.iter(|| {
                    black_box(rls_sweep_cold(black_box(inst), &cfg, 2.1, 16.0, samples).unwrap())
                })
            },
        );
    }

    group.finish();
}

fn bench_sbo_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("sbo_sweep_warm_vs_cold");

    let inst = random_instance(
        2_000,
        8,
        TaskDistribution::AntiCorrelated,
        &mut seeded_rng(0x5B0),
    );

    group.sample_size(if quick() { 30 } else { 10 });
    group.bench_with_input(
        BenchmarkId::new("warm", "1000pts_2000x8"),
        &inst,
        |b, inst| {
            b.iter(|| {
                black_box(
                    sbo_sweep(black_box(inst), InnerAlgorithm::Lpt, 0.125, 8.0, 1_000).unwrap(),
                )
            })
        },
    );
    if quick() {
        group.finish();
        return;
    }
    group.sample_size(5);
    group.bench_with_input(
        BenchmarkId::new("cold", "1000pts_2000x8"),
        &inst,
        |b, inst| {
            b.iter(|| {
                black_box(
                    sbo_sweep_cold(black_box(inst), InnerAlgorithm::Lpt, 0.125, 8.0, 1_000)
                        .unwrap(),
                )
            })
        },
    );

    group.finish();
}

criterion_group!(benches, bench_rls_sweep, bench_sbo_sweep);
criterion_main!(benches);
