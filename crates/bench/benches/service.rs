//! Service throughput and latency: requests per second through the
//! `sws_service` queue-fed runtime, measured against the same fleet
//! shape as the batch baseline so queueing overhead is directly
//! visible.
//!
//! Each benchmark pre-builds a fleet of layered-random DAG instances
//! (shared behind `Arc`s) and a running service with one worker — the
//! single-core configuration the committed `BENCH_batch.json` numbers
//! use — then measures one `run_all` pass: submit every request through
//! admission, wait for every completion. The measured work therefore
//! includes admission planning (backend selection + cost estimate),
//! queue traffic, per-request completion channels and the solve itself.
//!
//! Ids:
//!
//! * `service_throughput/serve_rls/<count>x<n>x<m>` — RLS∆ (∆ = 3)
//!   request streams over DAGs, the service-side analogue of
//!   `batch_throughput/rls_many`; `schedules/sec = elements /
//!   (median_ns / 1e9)` must stay within 10% of the batch baseline
//!   (queueing overhead bounded — see docs/PERFORMANCE.md);
//! * `service_latency/round_trip/<n>x<m>` — one request's full
//!   submit→wait round trip on an idle service (the per-request floor);
//! * `service_fairness/flood_p99/<tenant>` — per-tenant p99 latency
//!   (nanoseconds, read off the `ServiceStats` histograms) from one
//!   flood run where the `flood` tenant bursts at 10× the `victim`
//!   tenant's volume ahead of it. Not a timed closure: the rows are
//!   reported via the shim's `report_duration`, so they ride in the
//!   same JSON artifact. The deficit-round-robin queue keeps the victim
//!   row far below the flood row; the `victim` row is the regression
//!   signal.
//!
//! Regenerate the committed baseline with:
//!
//! ```text
//! SWS_BENCH_JSON=$(pwd)/BENCH_service.json cargo bench --bench service
//! ```
//!
//! CI runs quick mode (`SWS_BENCH_QUICK=1`), which keeps every
//! `service_throughput` and `service_latency` row at its full fleet
//! size, sample count and id, so the fresh medians are comparable row
//! for row to the committed `BENCH_service.json`; CI fails when one
//! regressed by more than 20%. Quick mode only shrinks the fairness
//! flood, whose single-sample rows stay an artifact.

use criterion::{
    criterion_group, criterion_main, report_duration, BenchmarkId, Criterion, Throughput,
};
use std::hint::black_box;
use std::sync::Arc;

use sws_dag::DagInstance;
use sws_model::policy::{OverflowPolicy, TenantPolicy};
use sws_model::solve::{Guarantee, ObjectiveMode};
use sws_service::{SchedulingService, ServiceRequest, Ticket};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

/// Quick mode shrinks the fairness flood for CI.
fn quick() -> bool {
    std::env::var("SWS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The same fleet construction as the batch throughput bench (same
/// seeds, same families), shared behind `Arc`s for the service.
fn fleet(count: usize, n: usize, m: usize, seed: u64) -> Vec<Arc<DagInstance>> {
    (0..count)
        .map(|k| {
            Arc::new(dag_workload(
                DagFamily::LayeredRandom,
                n,
                m,
                TaskDistribution::Uncorrelated,
                &mut seeded_rng(derive_seed(seed, k as u64)),
            ))
        })
        .collect()
}

/// A single-worker service with one unlimited tenant — the single-core
/// serving configuration.
fn single_worker_service(capacity: usize) -> SchedulingService {
    SchedulingService::builder()
        .workers(1)
        .queue_capacity(capacity)
        .tenant(
            "bench",
            TenantPolicy::unlimited().with_overflow(OverflowPolicy::Queue),
        )
        .build()
}

fn bench_service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_throughput");
    group.sample_size(10);

    for &(count, n, m) in &[(512usize, 250usize, 8usize), (128, 1_000, 8)] {
        // Same seed family as batch_throughput so the scheduled
        // instances are identical.
        let instances = fleet(count, n, m, 0xBA7C + n as u64);
        group.throughput(Throughput::Elements(count as u64));
        let service = single_worker_service(count.max(16));
        group.bench_with_input(
            BenchmarkId::new("serve_rls", format!("{count}x{n}x{m}")),
            &instances,
            |b, instances| {
                b.iter(|| {
                    let requests: Vec<ServiceRequest> = instances
                        .iter()
                        .map(|inst| {
                            ServiceRequest::dag(
                                "bench",
                                Arc::clone(inst),
                                ObjectiveMode::BiObjective { delta: 3.0 },
                            )
                            .with_guarantee(Guarantee::PaperRatio)
                        })
                        .collect();
                    let outcomes = service.run_all(requests);
                    assert!(outcomes.iter().all(Result::is_ok));
                    black_box(outcomes)
                })
            },
        );
        drop(service);
    }
    group.finish();

    // Per-request round-trip latency on an idle service: submit one
    // request, wait for it — the floor every queued request pays on
    // top of its position in line.
    let mut group = c.benchmark_group("service_latency");
    group.sample_size(20);
    let (n, m) = (250usize, 8usize);
    let inst = fleet(1, n, m, 0x5E41).pop().unwrap();
    let service = single_worker_service(16);
    let handle = service.handle();
    group.throughput(Throughput::Elements(1));
    group.bench_with_input(
        BenchmarkId::new("round_trip", format!("{n}x{m}")),
        &inst,
        |b, inst| {
            b.iter(|| {
                let ticket = handle
                    .submit(
                        ServiceRequest::dag(
                            "bench",
                            Arc::clone(inst),
                            ObjectiveMode::BiObjective { delta: 3.0 },
                        )
                        .with_guarantee(Guarantee::PaperRatio),
                    )
                    .expect("admissible");
                black_box(ticket.wait().expect("servable"))
            })
        },
    );
    group.finish();
}

/// Per-tenant p99 under flood: one run, two reported rows. A `flood`
/// tenant bursts 10× the `victim` tenant's volume into a single-worker
/// service *before* the victim submits; the deficit-round-robin queue
/// still alternates lanes, so the victim's p99 tracks its own share of
/// the drain while the flood's tail rides the whole backlog. The rows
/// are the JSON-artifact form of the `service_stress` fairness
/// assertion — compare `victim` across pushes to catch fairness
/// regressions without re-deriving a wall-clock bound.
fn bench_fairness(_c: &mut Criterion) {
    let victims = if quick() { 8 } else { 32 };
    let flood_n = 10 * victims;

    let service = SchedulingService::builder()
        .workers(1)
        .queue_capacity(flood_n + victims + 8)
        .tenant("victim", TenantPolicy::unlimited())
        .tenant(
            "flood",
            TenantPolicy::unlimited().with_overflow(OverflowPolicy::Queue),
        )
        .build();
    let handle = service.handle();

    // One shared flat instance: uniform work units, so the rotation
    // alternates one-for-one between the lanes.
    let inst = Arc::new(random_instance(
        16,
        2,
        TaskDistribution::Uncorrelated,
        &mut seeded_rng(derive_seed(0xFA14, 99)),
    ));
    let mk = |tenant: &str| {
        ServiceRequest::independent(tenant, Arc::clone(&inst), ObjectiveMode::CmaxOnly)
    };

    let flood_tickets: Vec<Ticket> = (0..flood_n)
        .map(|_| handle.submit(mk("flood")).expect("flood burst queues"))
        .collect();
    let victim_tickets: Vec<Ticket> = (0..victims)
        .map(|_| handle.submit(mk("victim")).expect("victim submits admit"))
        .collect();
    for ticket in victim_tickets.into_iter().chain(flood_tickets) {
        ticket.wait().expect("flood-run requests complete");
    }

    let stats = service.shutdown();
    for tenant in ["victim", "flood"] {
        let p99 = stats
            .tenant(tenant)
            .and_then(|scope| scope.p99_latency)
            .expect("flood run populates both histograms");
        report_duration(&format!("service_fairness/flood_p99/{tenant}"), p99);
    }
}

criterion_group!(benches, bench_service, bench_fairness);
criterion_main!(benches);
