//! Event-driven kernel vs. naive `O(n²·m)` oracle: the perf story of the
//! scheduling-kernel rework, measured.
//!
//! Groups:
//!
//! * `rls_kernel_vs_naive` — RLS∆ on layered DAGs, growing `n` at `m = 8`
//!   plus the acceptance point `n = 10 000, m = 32`. Since the
//!   allocation-free rework the `kernel` rows measure the **CSR +
//!   workspace-reuse serving path** (`RlsEngine::run_detached`: CSR
//!   mirror, priority rank and kernel workspace built once, every
//!   iteration a full from-scratch run through the reused buffers) —
//!   the steady-state cost of one schedule in a sweep or batch;
//! * `dag_list_kernel_vs_naive` — unrestricted DAG list scheduling,
//!   same serving-path convention (`dag_list_schedule_csr`);
//! * in both groups, `kernel/forkjoin-N` and `kernel/gauss-N` rows
//!   (`n ≈ 250` and `1 000`, `m = 8`): the fork-join and
//!   Gaussian-elimination families, whose forks release many children
//!   with bit-identical ready times — the kernel's tie-group path,
//!   which layered DAGs barely exercise;
//! * `sweep_scaling` — the parallelized `rls_sweep` at 1 thread vs. all
//!   cores, over a 200-point grid from ∆ = 2.01 on a bimodal fork-join
//!   DAG (n = 991, m = 64) whose first run does not answer every later
//!   point: the points it cannot answer fan out to chains forked from
//!   it, one per rayon thread (the first chunk runs inline);
//! * `proc_heap` — the heap-ops microbench behind the 4-ary rework:
//!   a kernel-shaped `min → set_load → sift` loop on the shipped 4-ary
//!   [`ProcHeap`] vs. a bench-local replica of the old binary layout,
//!   at `m = 32` and `m = 512`.
//!
//! Regenerate the committed baseline with:
//!
//! ```text
//! SWS_BENCH_JSON=$(pwd)/BENCH_kernel.json cargo bench --bench kernel_vs_naive
//! ```
//!
//! CI runs the bench in **quick mode** (`SWS_BENCH_QUICK=1`): the
//! `O(n²·m)` naive oracle rows and the sweep-scaling group are skipped,
//! and the cheap `kernel` rows take extra samples (their medians feed a
//! 20% regression gate, so small-row noise matters more than runtime).
//! Every `kernel` row keeps its full-size instance and its id —
//! quick-mode medians are therefore
//! directly comparable, row for row, to the committed
//! `BENCH_kernel.json` (modulo machine speed; the CI gate allows 20%).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use sws_core::pareto_sweep::{delta_grid, rls_sweep};
use sws_core::rls::{PriorityOrder, RlsConfig, RlsEngine};
use sws_dag::DagInstance;
use sws_listsched::kernel::ProcHeap;
use sws_listsched::priority::hlf_priority;
use sws_listsched::{dag_list_schedule_csr, KernelWorkspace};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::rng::seeded_rng;
use sws_workloads::TaskDistribution;

/// Quick mode (CI): drop the slow oracle/sweep rows, keep every kernel
/// row at full size so medians stay comparable to the committed JSON.
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

/// The tied-family instances of the `forkjoin-N`/`gauss-N` rows, with
/// their row ids.
fn tied(seed: u64) -> Vec<(String, DagInstance)> {
    let mut rows = Vec::new();
    for family in [DagFamily::ForkJoin, DagFamily::GaussianElimination] {
        for n in [250usize, 1_000] {
            let rng = &mut seeded_rng(seed + n as u64);
            let inst = dag_workload(family, n, 8, TaskDistribution::Uncorrelated, rng);
            rows.push((format!("{}-{n}", family.label()), inst));
        }
    }
    rows
}

fn bench_rls(c: &mut Criterion) {
    let mut group = c.benchmark_group("rls_kernel_vs_naive");
    group.sample_size(if quick() { 15 } else { 10 });

    for &n in &[250usize, 1_000, 2_500] {
        let inst = layered(n, 8, 0xBE5C + n as u64);
        group.throughput(Throughput::Elements(inst.n() as u64));
        let cfg = RlsConfig::new(3.0);
        let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
        group.bench_with_input(BenchmarkId::new("kernel", n), &inst, |b, _inst| {
            b.iter(|| black_box(engine.run_detached(3.0).unwrap()))
        });
        if !quick() {
            group.bench_with_input(BenchmarkId::new("naive", n), &inst, |b, inst| {
                b.iter(|| black_box(sws_oracle::rls(black_box(inst), &cfg).unwrap()))
            });
        }
    }
    for (id, inst) in tied(0xBE5C) {
        group.throughput(Throughput::Elements(inst.n() as u64));
        let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
        group.bench_with_input(BenchmarkId::new("kernel", id), &inst, |b, _inst| {
            b.iter(|| black_box(engine.run_detached(3.0).unwrap()))
        });
    }

    // The acceptance point of the rework: 10k tasks on 32 processors.
    let big = layered(10_000, 32, 0xB16);
    group.throughput(Throughput::Elements(big.n() as u64));
    let cfg = RlsConfig::new(3.0);
    let mut engine = RlsEngine::new(&big, PriorityOrder::Index);
    group.bench_with_input(BenchmarkId::new("kernel", "10000x32"), &big, |b, _inst| {
        b.iter(|| black_box(engine.run_detached(3.0).unwrap()))
    });
    // The naive oracle needs tens of seconds per run at this size — keep
    // the sample count minimal; the point is the ratio, not the variance.
    if !quick() {
        group.sample_size(2);
        group.bench_with_input(BenchmarkId::new("naive", "10000x32"), &big, |b, inst| {
            b.iter(|| black_box(sws_oracle::rls(black_box(inst), &cfg).unwrap()))
        });
    }

    group.finish();
}

fn bench_dag_list(c: &mut Criterion) {
    let mut group = c.benchmark_group("dag_list_kernel_vs_naive");
    group.sample_size(if quick() { 15 } else { 10 });

    for &n in &[500usize, 2_000, 5_000] {
        let inst = layered(n, 8, 0xDA6 + n as u64);
        let rank = hlf_priority(inst.graph());
        let csr = inst.csr();
        let mut ws = KernelWorkspace::with_capacity(inst.n(), inst.m());
        group.throughput(Throughput::Elements(inst.n() as u64));
        group.bench_with_input(BenchmarkId::new("kernel", n), &inst, |b, inst| {
            b.iter(|| black_box(dag_list_schedule_csr(&csr, inst.m(), &rank, &mut ws)))
        });
        if !quick() {
            group.bench_with_input(BenchmarkId::new("naive", n), &inst, |b, inst| {
                b.iter(|| black_box(sws_oracle::dag_list_schedule(black_box(inst), &rank)))
            });
        }
    }
    for (id, inst) in tied(0xDA6) {
        let rank = hlf_priority(inst.graph());
        let csr = inst.csr();
        let mut ws = KernelWorkspace::with_capacity(inst.n(), inst.m());
        group.throughput(Throughput::Elements(inst.n() as u64));
        group.bench_with_input(BenchmarkId::new("kernel", id), &inst, |b, inst| {
            b.iter(|| black_box(dag_list_schedule_csr(&csr, inst.m(), &rank, &mut ws)))
        });
    }

    group.finish();
}

fn bench_sweep_scaling(c: &mut Criterion) {
    if quick() {
        return;
    }
    let mut group = c.benchmark_group("sweep_scaling");
    group.sample_size(10);

    // A grid the first run does not answer (the sweep bench's
    // `binding_sweep_991x64`): the later points that replay fan out to
    // chains forked from the first run, so the thread count shows.
    let inst = dag_workload(
        DagFamily::ForkJoin,
        1_000,
        64,
        TaskDistribution::Bimodal,
        &mut seeded_rng(0xBEEF),
    );
    let (lo, hi, points) = (2.01, 16.0, 200);
    let grid = delta_grid(lo, hi, points).unwrap();
    let mut chain = RlsEngine::new(&inst, PriorityOrder::Index);
    chain.run(grid[0]).unwrap();
    assert!(
        grid[1..].iter().any(|&delta| {
            chain.run(delta).unwrap();
            chain.replayed_rounds() > Some(0)
        }),
        "the scaling sweep must replay at some later point"
    );
    let cfg = RlsConfig::new(3.0);
    let cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let name = format!("rls_sweep_{points}deltas_{}x64", inst.n());

    // SWS_RAYON_THREADS is the shim's RAYON_NUM_THREADS: read per sweep,
    // so flipping it between benchmarks measures thread scaling. On a
    // single-core machine the two measurements coincide by construction;
    // the serial one then doubles as a no-overhead regression check.
    std::env::set_var("SWS_RAYON_THREADS", "1");
    group.bench_with_input(
        BenchmarkId::new(name.as_str(), "serial-1-thread"),
        &inst,
        |b, inst| b.iter(|| black_box(rls_sweep(black_box(inst), &cfg, lo, hi, points).unwrap())),
    );
    std::env::set_var("SWS_RAYON_THREADS", cores.to_string());
    // Pluralize the id correctly: `parallel-1-thread`, `parallel-8-threads`.
    let plural = if cores == 1 { "" } else { "s" };
    group.bench_with_input(
        BenchmarkId::new(name.as_str(), format!("parallel-{cores}-thread{plural}")),
        &inst,
        |b, inst| b.iter(|| black_box(rls_sweep(black_box(inst), &cfg, lo, hi, points).unwrap())),
    );
    std::env::remove_var("SWS_RAYON_THREADS");

    group.finish();
}

/// Bench-local replica of the pre-rework **binary** indexed heap: packed
/// `(load bits, processor)` keys in `Vec<(u64, u32)>`, children of `i`
/// at `2i+1`/`2i+2`. Kept here (not in the library) purely as the
/// microbench baseline for the 4-ary layout.
struct BinaryProcHeap {
    key: Vec<(u64, u32)>,
    pos: Vec<u32>,
    load: Vec<f64>,
}

impl BinaryProcHeap {
    fn new(m: usize) -> Self {
        BinaryProcHeap {
            key: (0..m).map(|q| (0u64, q as u32)).collect(),
            pos: (0..m as u32).collect(),
            load: vec![0.0; m],
        }
    }

    #[inline]
    fn min(&self) -> usize {
        self.key[0].1 as usize
    }

    fn set_load(&mut self, q: usize, new_load: f64) {
        self.load[q] = new_load;
        let mut at = self.pos[q] as usize;
        self.key[at] = ((new_load + 0.0).to_bits(), q as u32);
        loop {
            let l = 2 * at + 1;
            if l >= self.key.len() {
                return;
            }
            let r = l + 1;
            let best = if r < self.key.len() && self.key[r] < self.key[l] {
                r
            } else {
                l
            };
            if self.key[at] <= self.key[best] {
                return;
            }
            self.key.swap(at, best);
            self.pos[self.key[at].1 as usize] = at as u32;
            self.pos[self.key[best].1 as usize] = best as u32;
            at = best;
        }
    }
}

/// The kernel-shaped heap loop: pop the least-loaded processor, raise
/// its load by the next task weight, sift. One iteration = `rounds`
/// such placements from a zeroed heap.
fn bench_proc_heap(c: &mut Criterion) {
    let mut group = c.benchmark_group("proc_heap");
    group.sample_size(if quick() { 10 } else { 20 });

    // Deterministic pseudo-random weights (the SplitMix64 stream behind
    // `derive_seed`): enough spread to make sift depths realistic.
    let rounds = 10_000usize;
    let weights: Vec<f64> = (0..rounds)
        .map(|i| 0.5 + (sws_workloads::rng::derive_seed(0x4EAF, i as u64) % 1_000) as f64 / 100.0)
        .collect();

    for &m in &[32usize, 512] {
        group.throughput(Throughput::Elements(rounds as u64));
        group.bench_with_input(BenchmarkId::new("sift/binary", m), &m, |b, &m| {
            b.iter(|| {
                let mut heap = BinaryProcHeap::new(m);
                for &w in &weights {
                    let q = heap.min();
                    heap.set_load(q, heap.load[q] + w);
                }
                black_box(heap.min())
            })
        });
        group.bench_with_input(BenchmarkId::new("sift/4ary", m), &m, |b, &m| {
            b.iter(|| {
                let mut heap = ProcHeap::new(m);
                for &w in &weights {
                    let q = heap.min();
                    heap.set_load(q, heap.load(q) + w);
                }
                black_box(heap.min())
            })
        });
    }

    group.finish();
}

criterion_group!(
    benches,
    bench_rls,
    bench_dag_list,
    bench_sweep_scaling,
    bench_proc_heap
);
criterion_main!(benches);
