//! Differential tests: the incremental delta-replan engine
//! (`sws_core::replan::ReplanEngine`) against a from-scratch oracle and
//! the discrete-event simulator.
//!
//! The engine claims *bit-identity*: after every applied [`CsrDelta`]
//! the warm-started schedule, objective point, guarantee and ratio
//! bound equal — bit for bit — what [`solve_from_scratch`] produces on
//! the mutated instance. This suite drives that claim over the
//! stateful delta streams of `sws_workloads::deltas` (arrivals with
//! sampled predecessors, in-order completions, cost re-estimates,
//! including the adversarial signed-zero and extreme-magnitude draws),
//! replays the resulting schedules through the simulator as an
//! independent semantic oracle, and pins down that the pre-existing
//! cap-resume machinery ([`CheckpointedRun`]) is unchanged.

use std::sync::Arc;

use proptest::prelude::*;

use sws_core::replan::{solve_from_scratch, ReplanEngine};
use sws_dag::{CsrDag, CsrDelta, DagInstance};
use sws_listsched::kernel::{CheckpointedRun, KernelWorkspace};
use sws_listsched::priority::index_priority;
use sws_model::error::ModelError;
use sws_model::solve::Solution;
use sws_model::task::TaskSet;
use sws_simulator::SimulationEngine;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::deltas::{delta_stream, DeltaStreamConfig};
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

const DIFF_SEED: u64 = 0xDE17A;

fn base_csr(family: DagFamily, n: usize, m: usize, stream: u64) -> CsrDag {
    let mut rng = seeded_rng(derive_seed(DIFF_SEED, stream));
    dag_workload(family, n, m, TaskDistribution::AntiCorrelated, &mut rng).csr()
}

/// Field-by-field bit-identity: `PartialEq` on the schedule would let
/// `-0.0 == 0.0` slip through, so start times and objectives compare
/// through `to_bits`.
fn assert_bit_identical(warm: &Solution, cold: &Solution, ctx: &str) {
    assert_eq!(warm.schedule.n(), cold.schedule.n(), "{ctx}: task counts");
    for i in 0..warm.schedule.n() {
        assert_eq!(
            warm.schedule.proc_of(i),
            cold.schedule.proc_of(i),
            "{ctx}: task {i} placed on different processors"
        );
        assert_eq!(
            warm.schedule.start(i).to_bits(),
            cold.schedule.start(i).to_bits(),
            "{ctx}: task {i} starts differ ({} vs {})",
            warm.schedule.start(i),
            cold.schedule.start(i)
        );
    }
    assert_eq!(
        warm.point.cmax.to_bits(),
        cold.point.cmax.to_bits(),
        "{ctx}: cmax differs"
    );
    assert_eq!(
        warm.point.mmax.to_bits(),
        cold.point.mmax.to_bits(),
        "{ctx}: mmax differs"
    );
    assert_eq!(warm.achieved, cold.achieved, "{ctx}: guarantee differs");
    assert_eq!(warm.ratio_bound, cold.ratio_bound, "{ctx}: ratio differs");
    let (wb, cb) = (&warm.stats.bounds, &cold.stats.bounds);
    assert_eq!(
        wb.cmax.to_bits(),
        cb.cmax.to_bits(),
        "{ctx}: cmax lower bound differs ({} vs {})",
        wb.cmax,
        cb.cmax
    );
    assert_eq!(
        wb.mmax.to_bits(),
        cb.mmax.to_bits(),
        "{ctx}: mmax lower bound differs ({} vs {})",
        wb.mmax,
        cb.mmax
    );
    assert_eq!(wb.source, cb.source, "{ctx}: bound source differs");
}

/// Replays `solution`'s schedule on the simulator against the mutated
/// instance — the independent semantic oracle: no overlaps, no
/// precedence violations, cap respected, objectives consistent.
fn simulate(csr: &CsrDag, m: usize, cap: Option<f64>, solution: &Solution, ctx: &str) {
    let tasks = TaskSet::from_ps(csr.proc_times(), csr.mem_sizes()).unwrap();
    let preds: Vec<Vec<usize>> = (0..csr.n())
        .map(|i| csr.preds(i).iter().map(|&u| u as usize).collect())
        .collect();
    let report = SimulationEngine::new()
        .replay(&tasks, m, &solution.schedule, &preds, cap)
        .unwrap_or_else(|e| panic!("{ctx}: simulator rejected the replanned schedule: {e}"));
    let tol = |x: f64| 1e-9 * x.abs().max(1.0);
    assert!(
        (report.makespan - solution.point.cmax).abs() <= tol(solution.point.cmax),
        "{ctx}: simulated makespan {} vs reported cmax {}",
        report.makespan,
        solution.point.cmax
    );
    assert!(
        (report.peak_memory - solution.point.mmax).abs() <= tol(solution.point.mmax),
        "{ctx}: simulated peak memory {} vs reported mmax {}",
        report.peak_memory,
        solution.point.mmax
    );
    // The allocation-free trace iterators see every task exactly twice
    // (start + finish) and each processor's events in time order.
    for i in 0..csr.n() {
        assert_eq!(
            report.trace.for_task(i).count(),
            2,
            "{ctx}: task {i} events"
        );
    }
    for q in 0..m {
        let mut last = f64::NEG_INFINITY;
        for ev in report.trace.for_processor(q) {
            assert!(ev.time >= last, "{ctx}: processor {q} trace out of order");
            last = ev.time;
        }
    }
}

/// The engine vs the from-scratch oracle over one stream, every event,
/// through ONE shared oracle workspace. Returns the final solution for
/// further checks.
fn drive_stream(
    csr: CsrDag,
    m: usize,
    cap: Option<f64>,
    stream: &[CsrDelta],
    ws: &mut KernelWorkspace,
    ctx: &str,
) -> Solution {
    let mut engine = ReplanEngine::open(csr, m, cap).unwrap();
    let mut last = engine.solution().unwrap();
    for (k, delta) in stream.iter().enumerate() {
        let warm = engine
            .apply(delta)
            .unwrap_or_else(|e| panic!("{ctx} event {k}: engine refused {delta:?}: {e}"));
        let cold = solve_from_scratch(engine.csr(), m, cap, ws)
            .unwrap_or_else(|e| panic!("{ctx} event {k}: oracle failed: {e}"));
        assert_bit_identical(&warm, &cold, &format!("{ctx} event {k}"));
        last = warm;
    }
    last
}

/// Uncapped sessions: bit-identity across all three stream shapes
/// (serving, mixed, adversarial) and several DAG families, with a
/// simulator replay of the final schedule. The adversarial streams
/// carry `-0.0` storage, `0.0` processing and extreme (≥ 1e290)
/// costs.
#[test]
fn replan_tracks_from_scratch_bit_for_bit_across_stream_shapes() {
    let mut ws = KernelWorkspace::new();
    let configs = [
        ("serving", DeltaStreamConfig::arrivals_and_completions()),
        ("mixed", DeltaStreamConfig::mixed()),
        ("adversarial", DeltaStreamConfig::adversarial()),
    ];
    let mut stream_id = 0u64;
    for (label, cfg) in configs {
        for family in [DagFamily::LayeredRandom, DagFamily::ForkJoin] {
            for &m in &[2usize, 4] {
                stream_id += 1;
                let csr = base_csr(family, 32, m, stream_id);
                let deltas = delta_stream(
                    csr.n(),
                    120,
                    &cfg,
                    &mut seeded_rng(derive_seed(DIFF_SEED, 1000 + stream_id)),
                );
                let ctx = format!("{label}/{} m={m}", family.label());
                let last = drive_stream(csr, m, None, &deltas, &mut ws, &ctx);
                // Adversarial magnitudes make float tolerances
                // meaningless for the semantic replay; bit-identity
                // above already covers those streams.
                if label != "adversarial" {
                    let mut probe = base_csr(family, 32, m, stream_id);
                    for d in &deltas {
                        probe.apply_delta(d).unwrap();
                    }
                    simulate(&probe, m, None, &last, &ctx);
                }
            }
        }
    }
}

/// A cap every prefix of the stream can satisfy: first-fit packs into
/// per-processor budgets of `s_sum/m + s_max`, so track the running
/// worst case over all prefixes of the mutated instance.
fn feasible_cap(csr: &CsrDag, stream: &[CsrDelta], m: usize) -> f64 {
    let mut probe = csr.clone();
    let stats = |c: &CsrDag| {
        let sum: f64 = c.mem_sizes().iter().sum();
        let max = c.mem_sizes().iter().copied().fold(0.0, f64::max);
        sum / m as f64 + max
    };
    let mut cap = stats(&probe);
    for d in stream {
        probe.apply_delta(d).unwrap();
        cap = cap.max(stats(&probe));
    }
    cap
}

/// Capped sessions: same bit-identity, plus the simulator confirms the
/// cap is actually respected by every replayed schedule.
#[test]
fn capped_replan_tracks_from_scratch_and_respects_the_cap() {
    let mut ws = KernelWorkspace::new();
    for &m in &[2usize, 4] {
        let csr = base_csr(DagFamily::LayeredRandom, 24, m, 40 + m as u64);
        let deltas = delta_stream(
            csr.n(),
            80,
            &DeltaStreamConfig::mixed(),
            &mut seeded_rng(derive_seed(DIFF_SEED, 2000 + m as u64)),
        );
        let cap = feasible_cap(&csr, &deltas, m);
        let ctx = format!("capped m={m}");
        let last = drive_stream(csr.clone(), m, Some(cap), &deltas, &mut ws, &ctx);
        let mut probe = csr;
        for d in &deltas {
            probe.apply_delta(d).unwrap();
        }
        simulate(&probe, m, Some(cap), &last, &ctx);
    }
}

/// Errors converge too: when an arrival makes a capped session
/// infeasible, the engine and the from-scratch oracle fail with the
/// same `MemoryExceeded`, and the engine recovers once a re-estimate
/// shrinks the offending task back under the cap.
#[test]
fn capped_infeasibility_strikes_engine_and_oracle_alike() {
    let csr = base_csr(DagFamily::LayeredRandom, 12, 2, 77);
    let cap = feasible_cap(&csr, &[], 2) * 2.0;
    let mut engine = ReplanEngine::open(csr, 2, Some(cap)).unwrap();
    let mut ws = KernelWorkspace::new();

    let huge = CsrDelta::AddTask {
        preds: vec![0, 3],
        p: 1.0,
        s: 4.0 * cap,
    };
    let err = engine.apply(&huge).unwrap_err();
    assert!(matches!(err, ModelError::MemoryExceeded { .. }), "{err}");
    let oracle_err = solve_from_scratch(engine.csr(), 2, Some(cap), &mut ws).unwrap_err();
    assert_eq!(err, oracle_err, "engine and oracle must fail identically");

    // Shrinking the task under the cap restores service, still in
    // lockstep with the oracle.
    let shrink = CsrDelta::Recost {
        task: (engine.n() - 1) as u32,
        p: None,
        s: Some(1.0),
    };
    let warm = engine.apply(&shrink).unwrap();
    let cold = solve_from_scratch(engine.csr(), 2, Some(cap), &mut ws).unwrap();
    assert_bit_identical(&warm, &cold, "post-recovery");
}

/// Completions pin the schedule: the cached solution is returned
/// unchanged (zero rounds), and the oracle on the unchanged instance
/// agrees.
#[test]
fn completions_answer_from_cache_and_stay_bit_identical() {
    let csr = base_csr(DagFamily::LayeredRandom, 16, 4, 90);
    let mut engine = ReplanEngine::open(csr.clone(), 4, None).unwrap();
    let mut ws = KernelWorkspace::new();
    for t in 0..4u32 {
        let warm = engine.apply(&CsrDelta::CompleteTask { task: t }).unwrap();
        assert_eq!(warm.stats.rounds, 0, "completion must replay nothing");
        let cold = solve_from_scratch(&csr, 4, None, &mut ws).unwrap();
        assert_bit_identical(&warm, &cold, "completion");
    }
    assert_eq!(engine.replayed_rounds(), 0);
}

/// Re-estimates that rewrite only `p`, only `s`, or no bit at all,
/// signed-zero rewrites among them, between completions. A session
/// refolds only the bound and objective halves a re-estimate rewrote;
/// every answer, capped and uncapped, still equals the from-scratch
/// oracle bit for bit, bounds and point included.
#[test]
fn partial_and_unchanged_re_estimates_match_from_scratch() {
    let base = base_csr(DagFamily::ForkJoin, 20, 3, 55);
    let n = base.n() as u32;
    let recost = |task, p, s| CsrDelta::Recost { task, p, s };
    let mut stream = Vec::new();
    // Zero every cost, a half at a time, with sign-only rewrites and
    // unchanged re-estimates in between: the totals end as sums of
    // zeros of both signs.
    for task in 0..n {
        stream.extend([
            recost(task, Some(0.0), None),
            recost(task, None, Some(-0.0)),
            recost(task, Some(0.0), Some(-0.0)),
            recost(task, Some(-0.0), None),
            recost(task, None, Some(0.0)),
            recost(task, None, Some(-0.0)),
        ]);
    }
    // Restore the original costs, a half at a time, then re-estimate
    // every task to the bits it already has, completing some.
    for task in 0..n {
        let i = task as usize;
        stream.push(recost(task, Some(base.p(i)), None));
        stream.push(recost(task, None, Some(base.s(i))));
    }
    for task in 0..n {
        let i = task as usize;
        stream.push(recost(task, Some(base.p(i)), Some(base.s(i))));
        if task % 3 == 0 {
            stream.push(CsrDelta::CompleteTask { task });
        }
    }
    let mut ws = KernelWorkspace::new();
    let m = 3;
    drive_stream(base.clone(), m, None, &stream, &mut ws, "uncapped");
    let cap = feasible_cap(&base, &stream, m);
    drive_stream(base, m, Some(cap), &stream, &mut ws, "capped");
}

/// Regression pin for the pre-existing cap-resume machinery: a
/// [`CheckpointedRun`] warm-resumed through increasing caps stays
/// bit-identical to cold runs at each cap — the delta-replan layer must
/// not have disturbed it.
#[test]
fn checkpointed_cap_resume_behaviour_is_unchanged() {
    let mut rng = seeded_rng(derive_seed(DIFF_SEED, 3000));
    let inst: DagInstance = dag_workload(
        DagFamily::LayeredRandom,
        48,
        4,
        TaskDistribution::AntiCorrelated,
        &mut rng,
    );
    let s_sum: f64 = (0..inst.n()).map(|i| inst.tasks().get(i).s).sum();
    let s_max = (0..inst.n())
        .map(|i| inst.tasks().get(i).s)
        .fold(0.0, f64::max);
    let lb = s_sum / 4.0 + s_max;
    let rank = Arc::new(index_priority(inst.n()));
    let mut chain = CheckpointedRun::cold(&inst, Arc::clone(&rank), lb).unwrap();
    for &factor in &[1.25, 1.5, 3.0, 50.0] {
        let cap = factor * lb;
        chain = chain.resume(cap).unwrap();
        let cold = CheckpointedRun::cold(&inst, Arc::clone(&rank), cap).unwrap();
        assert_eq!(
            chain.outcome().schedule,
            cold.outcome().schedule,
            "cap factor {factor}"
        );
        for i in 0..inst.n() {
            assert_eq!(
                chain.outcome().schedule.start(i).to_bits(),
                cold.outcome().schedule.start(i).to_bits(),
                "cap factor {factor}: task {i}"
            );
        }
        assert_eq!(
            chain.outcome().marked,
            cold.outcome().marked,
            "cap factor {factor}"
        );
        assert!(chain.replayed_rounds() <= inst.n());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Property form of the bit-identity claim: random seeds, sizes,
    /// processor counts and stream shapes (benign and adversarial),
    /// every event checked against the from-scratch oracle through one
    /// shared workspace.
    #[test]
    fn replan_equals_from_scratch_on_random_streams(
        seed in 0u64..1 << 48,
        n0 in 4usize..32,
        m in 2usize..6,
        events in 1usize..48,
        adversarial in any::<bool>(),
    ) {
        let cfg = if adversarial {
            DeltaStreamConfig::adversarial()
        } else {
            DeltaStreamConfig::mixed()
        };
        let csr = base_csr(DagFamily::LayeredRandom, n0, m, seed);
        let deltas = delta_stream(csr.n(), events, &cfg, &mut seeded_rng(seed ^ 0xA5A5));
        let mut ws = KernelWorkspace::new();
        drive_stream(
            csr,
            m,
            None,
            &deltas,
            &mut ws,
            &format!("prop seed={seed} n0={n0} m={m} adversarial={adversarial}"),
        );
    }
}
