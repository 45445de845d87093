//! Experiment E5 bench: runtime scaling of the algorithms with the number
//! of tasks and processors — originally backing the paper's `O(n²m)`
//! complexity claim for RLS∆ (that cost now lives in the retained naive
//! oracle) and the list-scheduler-dominated cost of SBO∆.
//!
//! The `scaling_kernel_vs_naive` group tracks the event-driven kernel
//! against the `sws_oracle` scans on the same instances; the fuller
//! comparison (including the 10k×32 acceptance point and sweep thread
//! scaling) lives in `benches/kernel_vs_naive.rs`, whose output is
//! committed as `BENCH_kernel.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sws_core::rls::{rls_in, RlsConfig};
use sws_core::sbo::{sbo, InnerAlgorithm, SboConfig};
use sws_listsched::KernelWorkspace;
use sws_ptas::ptas_cmax;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling");
    group.sample_size(10);

    // SBO/LPT scaling in n.
    for &n in &[100usize, 1_000, 5_000] {
        let inst = random_instance(
            n,
            16,
            TaskDistribution::Uncorrelated,
            &mut seeded_rng(n as u64),
        );
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("sbo_lpt_n", n), &inst, |b, inst| {
            let cfg = SboConfig::new(1.0, InnerAlgorithm::Lpt);
            b.iter(|| black_box(sbo(black_box(inst), &cfg).unwrap()))
        });
    }

    // RLS scaling in n (quadratic) on layered DAGs.
    for &n in &[100usize, 250, 500, 1_000] {
        let inst = dag_workload(
            DagFamily::LayeredRandom,
            n,
            8,
            TaskDistribution::Uncorrelated,
            &mut seeded_rng(1_000 + n as u64),
        );
        group.throughput(Throughput::Elements(inst.n() as u64));
        group.bench_with_input(BenchmarkId::new("rls_n", n), &inst, |b, inst| {
            let cfg = RlsConfig::new(3.0);
            b.iter(|| {
                black_box(rls_in(black_box(inst), &cfg, &mut KernelWorkspace::new()).unwrap())
            })
        });
    }

    // RLS scaling in m at fixed n.
    for &m in &[2usize, 8, 32] {
        let inst = dag_workload(
            DagFamily::LayeredRandom,
            300,
            m,
            TaskDistribution::Uncorrelated,
            &mut seeded_rng(2_000 + m as u64),
        );
        group.bench_with_input(BenchmarkId::new("rls_m", m), &inst, |b, inst| {
            let cfg = RlsConfig::new(3.0);
            b.iter(|| {
                black_box(rls_in(black_box(inst), &cfg, &mut KernelWorkspace::new()).unwrap())
            })
        });
    }

    // PTAS scaling in 1/ε at fixed size (the hidden constant of
    // Corollary 1).
    let small = random_instance(25, 3, TaskDistribution::Uncorrelated, &mut seeded_rng(3));
    for &eps in &[0.5f64, 0.25, 0.15] {
        group.bench_with_input(
            BenchmarkId::new("ptas_eps", eps.to_string()),
            &eps,
            |b, &eps| b.iter(|| black_box(ptas_cmax(black_box(&small), eps))),
        );
    }

    group.finish();
}

fn bench_kernel_vs_naive(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_kernel_vs_naive");
    group.sample_size(10);

    for &n in &[250usize, 500, 1_000] {
        let inst = dag_workload(
            DagFamily::LayeredRandom,
            n,
            8,
            TaskDistribution::Uncorrelated,
            &mut seeded_rng(4_000 + n as u64),
        );
        group.throughput(Throughput::Elements(inst.n() as u64));
        let cfg = RlsConfig::new(3.0);
        group.bench_with_input(BenchmarkId::new("rls_kernel", n), &inst, |b, inst| {
            b.iter(|| {
                black_box(rls_in(black_box(inst), &cfg, &mut KernelWorkspace::new()).unwrap())
            })
        });
        group.bench_with_input(BenchmarkId::new("rls_naive", n), &inst, |b, inst| {
            b.iter(|| black_box(sws_oracle::rls(black_box(inst), &cfg).unwrap()))
        });
    }

    group.finish();
}

criterion_group!(benches, bench_scaling, bench_kernel_vs_naive);
criterion_main!(benches);
