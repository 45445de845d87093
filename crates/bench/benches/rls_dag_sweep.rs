//! Experiment E2 bench: RLS∆ over the DAG workload families, sweeping the
//! memory degradation factor ∆ and the number of processors, and comparing
//! against the unrestricted Graham DAG list scheduler baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sws_core::rls::{rls_in, PriorityOrder, RlsConfig};
use sws_listsched::priority::hlf_priority;
use sws_listsched::{dag_list_schedule, KernelWorkspace};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

fn bench_rls(c: &mut Criterion) {
    let mut group = c.benchmark_group("rls_dag_sweep");
    group.sample_size(20);

    // Family sweep at a fixed size.
    for family in DagFamily::all() {
        let inst = dag_workload(
            family,
            150,
            4,
            TaskDistribution::Uncorrelated,
            &mut seeded_rng(42),
        );
        group.throughput(Throughput::Elements(inst.n() as u64));
        group.bench_with_input(
            BenchmarkId::new("family", family.label()),
            &inst,
            |b, inst| {
                let cfg = RlsConfig::new(3.0).with_order(PriorityOrder::BottomLevel);
                b.iter(|| {
                    black_box(rls_in(black_box(inst), &cfg, &mut KernelWorkspace::new()).unwrap())
                })
            },
        );
    }

    // ∆ sweep on a layered random DAG.
    let inst = dag_workload(
        DagFamily::LayeredRandom,
        200,
        8,
        TaskDistribution::Bimodal,
        &mut seeded_rng(1),
    );
    for &delta in &[2.25f64, 3.0, 6.0] {
        group.bench_with_input(
            BenchmarkId::new("delta", delta.to_string()),
            &delta,
            |b, &d| {
                let cfg = RlsConfig::new(d);
                b.iter(|| {
                    black_box(rls_in(black_box(&inst), &cfg, &mut KernelWorkspace::new()).unwrap())
                })
            },
        );
    }

    // Baseline: the unrestricted Graham DAG list scheduler on the same
    // instance — the cost of the memory restriction is the difference.
    group.bench_function("baseline_graham_dag_list", |b| {
        let priority = hlf_priority(inst.graph());
        b.iter(|| black_box(dag_list_schedule(black_box(&inst), &priority)))
    });

    group.finish();
}

criterion_group!(benches, bench_rls);
criterion_main!(benches);
