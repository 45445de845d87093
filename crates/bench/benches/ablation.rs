//! Ablation benches for the design choices called out in DESIGN.md:
//!
//! * the tie-breaking priority order inside RLS∆ (the paper allows "an
//!   arbitrary total ordering"; we compare the orders shipped),
//! * the single-objective scheduler plugged into SBO∆ (list scheduler vs
//!   LPT vs MULTIFIT vs the PTAS),
//! * the granularity of the ∆ sweep used to build approximate Pareto
//!   fronts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use sws_core::pareto_sweep::{rls_sweep, sbo_sweep};
use sws_core::rls::{rls_in, PriorityOrder, RlsConfig};
use sws_core::sbo::{sbo, InnerAlgorithm, SboConfig};
use sws_listsched::KernelWorkspace;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
    group.sample_size(20);

    // (a) RLS tie-breaking order.
    let dag = dag_workload(
        DagFamily::LayeredRandom,
        200,
        8,
        TaskDistribution::AntiCorrelated,
        &mut seeded_rng(60),
    );
    for order in PriorityOrder::all() {
        group.bench_with_input(
            BenchmarkId::new("rls_order", order.label()),
            &order,
            |b, &order| {
                let cfg = RlsConfig::new(3.0).with_order(order);
                b.iter(|| {
                    black_box(rls_in(black_box(&dag), &cfg, &mut KernelWorkspace::new()).unwrap())
                })
            },
        );
    }

    // (b) SBO inner algorithm.
    let inst = random_instance(
        150,
        8,
        TaskDistribution::AntiCorrelated,
        &mut seeded_rng(61),
    );
    for inner in [
        InnerAlgorithm::Graham,
        InnerAlgorithm::Lpt,
        InnerAlgorithm::Multifit,
    ] {
        group.bench_with_input(
            BenchmarkId::new("sbo_inner", inner.label()),
            &inner,
            |b, &inner| {
                let cfg = SboConfig::new(1.0, inner);
                b.iter(|| black_box(sbo(black_box(&inst), &cfg).unwrap()))
            },
        );
    }
    let small = random_instance(30, 4, TaskDistribution::AntiCorrelated, &mut seeded_rng(62));
    group.bench_function("sbo_inner/ptas_n30", |b| {
        let cfg = SboConfig::corollary1(1.0, 0.25);
        b.iter(|| black_box(sbo(black_box(&small), &cfg).unwrap()))
    });

    // (c) ∆-sweep granularity for approximate Pareto fronts.
    for &samples in &[5usize, 9, 17] {
        group.bench_with_input(
            BenchmarkId::new("sbo_sweep_samples", samples),
            &samples,
            |b, &samples| {
                b.iter(|| {
                    black_box(
                        sbo_sweep(black_box(&inst), InnerAlgorithm::Lpt, 0.125, 8.0, samples)
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.bench_function("rls_sweep_samples/8", |b| {
        b.iter(|| {
            black_box(rls_sweep(black_box(&dag), &RlsConfig::new(3.0), 2.1, 10.0, 8).unwrap())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
