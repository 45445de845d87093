//! Incremental delta-replan engine vs from-scratch-per-event: the perf
//! story of the warm-start-across-mutations rework, measured.
//!
//! One group, `replan_vs_from_scratch`, on two 500-event stream shapes:
//! the online-serving shape (`DeltaStreamConfig::arrivals_and_completions`,
//! the `500ev_{n}x{m}` rows) and, at `n = 2 500`, the mixed shape that
//! adds processing-time and storage re-estimates
//! (`DeltaStreamConfig::mixed`, the `500ev_mixed_2500x8` rows). A
//! processing-time re-estimate replays from the task's placement round,
//! so the mixed rows are the ones that time long suffix replays:
//!
//! * `replan` rows — a `ReplanEngine` session opened once (one cold
//!   solve, amortized over the stream) and then `apply`ing every delta:
//!   completions answer from the cached run, arrivals and re-estimates
//!   replay only from their first-affected round;
//! * `from_scratch` rows — the differential oracle's cost model: the
//!   same deltas applied to a mutable CSR with one full
//!   `solve_from_scratch` per event through a reused
//!   `KernelWorkspace`.
//!
//! Both sides produce bit-identical solutions for every prefix
//! (`tests/differential_replan.rs`), so the row ratio is pure
//! amortization — the acceptance target of the rework is a ≥ 5× median
//! ratio on the `500ev_2500x8` rows.
//!
//! Regenerate the committed baseline with:
//!
//! ```text
//! SWS_BENCH_JSON=$(pwd)/BENCH_replan.json cargo bench --bench replan
//! ```
//!
//! CI runs the bench in **quick mode** (`SWS_BENCH_QUICK=1`): the
//! `from_scratch` rows (one full kernel run per event) are skipped and
//! the `replan` rows take extra samples — their medians feed the same
//! 20% `bench_compare` regression gate as the kernel rows, via
//! `--filter /replan/`. Every `replan` row keeps its full-size stream
//! and its id, so quick-mode medians are directly comparable, row for
//! row, to the committed `BENCH_replan.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sws_core::replan::{solve_from_scratch, ReplanEngine};
use sws_dag::{CsrDag, CsrDelta};
use sws_listsched::KernelWorkspace;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::deltas::{delta_stream, DeltaStreamConfig};
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

/// Quick mode (CI): drop the slow from-scratch oracle rows, keep every
/// replan row at full size so medians stay comparable to the committed
/// JSON.
fn quick() -> bool {
    std::env::var("SWS_BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

const EVENTS: usize = 500;

fn workload(n: usize, m: usize, shape: &DeltaStreamConfig) -> (CsrDag, Vec<CsrDelta>) {
    let csr = dag_workload(
        DagFamily::LayeredRandom,
        n,
        m,
        TaskDistribution::Uncorrelated,
        &mut seeded_rng(0x9E91A),
    )
    .csr();
    let stream = delta_stream(csr.n(), EVENTS, shape, &mut seeded_rng(0xE7E27));
    (csr, stream)
}

fn bench_replan(c: &mut Criterion) {
    let mut group = c.benchmark_group("replan_vs_from_scratch");

    let rows: [(&str, usize, usize, DeltaStreamConfig); 3] = [
        ("", 500, 8, DeltaStreamConfig::arrivals_and_completions()),
        ("", 2_500, 8, DeltaStreamConfig::arrivals_and_completions()),
        ("mixed_", 2_500, 8, DeltaStreamConfig::mixed()),
    ];
    for (shape, n, m, config) in rows {
        let (csr, stream) = workload(n, m, &config);
        let label = format!("{EVENTS}ev_{shape}{n}x{m}");

        // One iteration = open the session (one cold solve, amortized
        // over the stream) + serve all 500 events warm.
        group.sample_size(if quick() { 20 } else { 10 });
        group.throughput(Throughput::Elements(EVENTS as u64));
        group.bench_with_input(
            BenchmarkId::new("replan", &label),
            &(&csr, &stream),
            |b, (csr, stream)| {
                b.iter(|| {
                    let mut engine = ReplanEngine::open((*csr).clone(), m, None).unwrap();
                    for delta in stream.iter() {
                        black_box(engine.apply(black_box(delta)).unwrap());
                    }
                    engine.events()
                })
            },
        );

        // The oracle's cost model: one full kernel solve per event
        // through a reused workspace (~n rounds each), what a server
        // without the replan layer would pay. Skipped in quick mode.
        if !quick() {
            group.sample_size(10);
            group.bench_with_input(
                BenchmarkId::new("from_scratch", &label),
                &(&csr, &stream),
                |b, (csr, stream)| {
                    b.iter(|| {
                        let mut live = (*csr).clone();
                        let mut ws = KernelWorkspace::with_capacity(live.n() + EVENTS, m);
                        let mut solved = 0u64;
                        for delta in stream.iter() {
                            if !matches!(delta, CsrDelta::CompleteTask { .. }) {
                                live.apply_delta(delta).unwrap();
                            }
                            black_box(solve_from_scratch(&live, m, None, &mut ws).unwrap());
                            solved += 1;
                        }
                        solved
                    })
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_replan);
criterion_main!(benches);
