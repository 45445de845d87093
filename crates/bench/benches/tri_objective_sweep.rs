//! Experiment E3 bench: the tri-objective SPT-ordered RLS∆ on independent
//! tasks, compared against the plain SPT schedule (optimal for `ΣC_i`,
//! oblivious to memory) as the baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sws_core::tri::tri_objective_rls_in;
use sws_listsched::spt::spt_schedule;
use sws_listsched::KernelWorkspace;
use sws_workloads::random::random_instance;
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

fn bench_tri(c: &mut Criterion) {
    let mut group = c.benchmark_group("tri_objective_sweep");

    for &n in &[50usize, 200, 500] {
        let inst = random_instance(
            n,
            4,
            TaskDistribution::AntiCorrelated,
            &mut seeded_rng(300 + n as u64),
        );
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("tri_rls_delta3", n), &inst, |b, inst| {
            b.iter(|| {
                black_box(
                    tri_objective_rls_in(black_box(inst), 3.0, &mut KernelWorkspace::new())
                        .unwrap(),
                )
            })
        });
        group.bench_with_input(BenchmarkId::new("baseline_spt", n), &inst, |b, inst| {
            b.iter(|| black_box(spt_schedule(black_box(inst))))
        });
    }

    let inst = random_instance(100, 8, TaskDistribution::Bimodal, &mut seeded_rng(9));
    for &delta in &[2.25f64, 3.0, 6.0] {
        group.bench_with_input(
            BenchmarkId::new("delta", delta.to_string()),
            &delta,
            |b, &d| {
                b.iter(|| {
                    black_box(
                        tri_objective_rls_in(black_box(&inst), d, &mut KernelWorkspace::new())
                            .unwrap(),
                    )
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_tri);
criterion_main!(benches);
