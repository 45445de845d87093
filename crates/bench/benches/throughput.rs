//! Batch serving throughput: schedules per second through
//! `sws_core::batch::BatchScheduler` — the multi-instance entry point of
//! the allocation-free kernel core.
//!
//! Each benchmark pre-builds a fleet of layered-random instances and
//! measures one `run_requests` pass over the whole fleet (per-worker
//! workspaces, per-instance CSR + rank preparation included — that is
//! the real serving cost). The `throughput_elements` field of the JSON
//! records the fleet size, so `schedules/sec = elements /
//! (median_ns / 1e9)`.
//!
//! Ids:
//!
//! * `batch_throughput/rls_requests/<count>x<n>x<m>` — RLS∆ (∆ = 3)
//!   batches served as portfolio `SolveRequest`s through
//!   `BatchScheduler::run_requests` (per-item selection, cost stamping,
//!   `Solution` packaging): the request-serving baseline the
//!   `sws_service` bench (`BENCH_service.json`) compares against —
//!   the delta from here to `service_throughput/serve_rls` is the queue;
//! * `batch_throughput/rls_steady/<n>x<m>` — steady-state single-instance
//!   serving (`RlsEngine::run_detached`, CSR/rank/workspace amortized):
//!   the per-schedule floor the batch path approaches as instance reuse
//!   grows.
//!
//! Regenerate the committed baseline with:
//!
//! ```text
//! SWS_BENCH_JSON=$(pwd)/BENCH_batch.json cargo bench --bench throughput
//! ```
//!
//! CI runs the bench in **quick mode** (`SWS_BENCH_QUICK=1`): smaller
//! fleets and fewer samples, with the fleet shape encoded in the ids —
//! quick-mode results are therefore comparable to other quick-mode
//! artifacts across pushes (not to the committed full-size
//! `BENCH_batch.json` rows), which is what makes throughput drift
//! visible without a long bench job.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sws_core::batch::BatchScheduler;
use sws_core::portfolio::Portfolio;
use sws_core::rls::{PriorityOrder, RlsEngine};
use sws_dag::DagInstance;
use sws_model::solve::{Guarantee, ObjectiveMode, SolveRequest};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

/// Quick mode shrinks fleet sizes and sample counts for CI.
fn quick() -> bool {
    std::env::var("SWS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn fleet(count: usize, n: usize, m: usize, seed: u64) -> Vec<DagInstance> {
    (0..count)
        .map(|k| {
            dag_workload(
                DagFamily::LayeredRandom,
                n,
                m,
                TaskDistribution::Uncorrelated,
                &mut seeded_rng(derive_seed(seed, k as u64)),
            )
        })
        .collect()
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_throughput");
    group.sample_size(if quick() { 3 } else { 10 });

    let shapes: &[(usize, usize, usize)] = if quick() {
        &[(64, 250, 8)]
    } else {
        &[(512, 250, 8), (128, 1_000, 8), (32, 2_500, 16)]
    };

    for &(count, n, m) in shapes {
        let instances = fleet(count, n, m, 0xBA7C + n as u64);
        let total: u64 = instances.len() as u64;
        group.throughput(Throughput::Elements(total));
        let scheduler = BatchScheduler::new();
        let portfolio = Portfolio::standard();
        group.bench_with_input(
            BenchmarkId::new("rls_requests", format!("{count}x{n}x{m}")),
            &instances,
            |b, instances| {
                let items: Vec<SolveRequest> = instances
                    .iter()
                    .map(|inst| {
                        SolveRequest::precedence(inst, ObjectiveMode::BiObjective { delta: 3.0 })
                            .with_guarantee(Guarantee::PaperRatio)
                    })
                    .collect();
                b.iter(|| black_box(scheduler.run_requests(&portfolio, &items).unwrap()))
            },
        );
    }

    // Steady-state single-instance serving: everything per-instance is
    // amortized away, each iteration is one full kernel run through
    // reused buffers. This is the per-schedule floor of the batch path.
    let (n, m) = if quick() { (1_000, 8) } else { (10_000, 32) };
    let inst = fleet(1, n, m, 0x5EED).pop().unwrap();
    group.throughput(Throughput::Elements(1));
    let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
    group.bench_with_input(
        BenchmarkId::new("rls_steady", format!("{n}x{m}")),
        &inst,
        |b, _inst| b.iter(|| black_box(engine.run_detached(3.0).unwrap())),
    );

    group.finish();
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
