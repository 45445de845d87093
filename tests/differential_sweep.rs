//! Differential tests for the incremental ∆-sweeps: the warm-started
//! [`sws_core::pareto_sweep`] engines against the retained from-scratch
//! serial oracles (`rls_sweep_cold`, `sbo_sweep_cold`).
//!
//! The warm path claims **bit-identical output**: the kernel's
//! checkpoint/resume machinery replays a previous run up to the first
//! scheduling round whose admissibility verdict changes, so every
//! warm-started run must equal a cold run placement for placement —
//! across every DAG generator family, every priority order and several
//! processor counts. The suite also pins the satellite fixes: exact grid
//! endpoints, explicit limit runs instead of sentinel ∆s, symmetric
//! parameter validation and order-independent front tie-breaking.

use sws_core::pareto_sweep::{
    delta_grid, rls_sweep, rls_sweep_cold, sbo_sweep, sbo_sweep_cold, SweepEngine, SweepProvenance,
};
use sws_core::rls::{rls_in, PriorityOrder, RlsConfig, RlsEngine};
use sws_core::sbo::InnerAlgorithm;
use sws_dag::DagInstance;
use sws_listsched::KernelWorkspace;
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

const SWEEP_SEED: u64 = 0x5EED;

fn workload(family: DagFamily, n: usize, m: usize, stream: u64) -> DagInstance {
    let mut rng = seeded_rng(derive_seed(SWEEP_SEED, stream));
    dag_workload(family, n, m, TaskDistribution::AntiCorrelated, &mut rng)
}

/// Warm-started RLS∆ sweeps vs the from-scratch serial oracle over every
/// generator family × priority order × m ∈ {2, 4, 8}: identical curves,
/// point for point and schedule for schedule.
#[test]
fn warm_rls_sweep_is_bit_identical_to_cold_across_families_orders_and_m() {
    let mut stream = 0u64;
    for family in DagFamily::all() {
        for order in PriorityOrder::all() {
            for &m in &[2usize, 4, 8] {
                stream += 1;
                let inst = workload(family, 42, m, stream);
                let config = RlsConfig::new(3.0).with_order(order);
                let warm = rls_sweep(&inst, &config, 2.1, 12.0, 8).unwrap();
                let cold = rls_sweep_cold(&inst, &config, 2.1, 12.0, 8).unwrap();
                assert_eq!(
                    warm.len(),
                    cold.len(),
                    "{}/{} m={m}: curve lengths differ",
                    family.label(),
                    order.label()
                );
                for (w, c) in warm.iter().zip(&cold) {
                    assert_eq!(
                        w.delta,
                        c.delta,
                        "{}/{} m={m}",
                        family.label(),
                        order.label()
                    );
                    assert_eq!(w.provenance, c.provenance);
                    assert_eq!(
                        w.schedule,
                        c.schedule,
                        "{}/{} m={m} ∆={}: schedules differ",
                        family.label(),
                        order.label(),
                        w.delta
                    );
                    assert_eq!(w.point.cmax, c.point.cmax);
                    assert_eq!(w.point.mmax, c.point.mmax);
                }
            }
        }
    }
}

/// Warm-started SBO∆ sweeps vs the from-scratch oracle over every task
/// distribution and two inner algorithms.
#[test]
fn warm_sbo_sweep_is_bit_identical_to_cold_across_distributions() {
    let mut stream = 100u64;
    for distribution in TaskDistribution::all() {
        for inner in [InnerAlgorithm::Graham, InnerAlgorithm::Lpt] {
            for &m in &[2usize, 4] {
                stream += 1;
                let mut rng = seeded_rng(derive_seed(SWEEP_SEED, stream));
                let inst = random_instance(36, m, distribution, &mut rng);
                let warm = sbo_sweep(&inst, inner, 0.125, 8.0, 11).unwrap();
                let cold = sbo_sweep_cold(&inst, inner, 0.125, 8.0, 11).unwrap();
                assert_eq!(warm.len(), cold.len());
                for (w, c) in warm.iter().zip(&cold) {
                    assert_eq!(w.delta, c.delta);
                    assert_eq!(w.provenance, c.provenance);
                    assert_eq!(w.schedule, c.schedule, "inner={} m={m}", inner.label());
                }
            }
        }
    }
}

/// The per-∆ results of a warm chain (not just the merged front) must
/// equal cold runs, and the chain must actually skip work: once the cap
/// stops binding, resumes replay zero rounds.
#[test]
fn warm_chains_match_cold_runs_and_amortize_replay() {
    let inst = workload(DagFamily::LayeredRandom, 120, 8, 777);
    let grid = delta_grid(2.05, 64.0, 24).unwrap();
    let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
    let mut replayed_total = 0usize;
    for &delta in &grid {
        let warm = engine.run(delta).unwrap();
        let cold = rls_in(&inst, &RlsConfig::new(delta), &mut KernelWorkspace::new()).unwrap();
        assert_eq!(warm.schedule, cold.schedule, "∆={delta}");
        assert_eq!(warm.marked, cold.marked, "∆={delta}");
        replayed_total += engine.replayed_rounds().unwrap();
    }
    let from_scratch_total = grid.len() * inst.n();
    assert!(
        replayed_total < from_scratch_total / 2,
        "warm chain replayed {replayed_total} of {from_scratch_total} rounds — no amortization"
    );
    // The last grid value is deep in the never-rejecting regime.
    assert_eq!(engine.replayed_rounds(), Some(0));
}

/// Chunked parallel fan-out vs a single serial chain: the merged curve
/// must not depend on the chunking (and therefore not on the worker
/// count of the machine).
#[test]
fn sweep_chunking_does_not_change_the_curve() {
    let inst = workload(DagFamily::GaussianElimination, 60, 4, 888);
    let grid = delta_grid(2.2, 10.0, 13).unwrap();
    let one = SweepEngine::with_workers(1)
        .run_rls(&inst, PriorityOrder::BottomLevel, &grid)
        .unwrap();
    for workers in [2usize, 3, 5, 13] {
        let chunked = SweepEngine::with_workers(workers)
            .run_rls(&inst, PriorityOrder::BottomLevel, &grid)
            .unwrap();
        assert_eq!(one.len(), chunked.len());
        for ((da, ra), (db, rb)) in one.iter().zip(&chunked) {
            assert_eq!(da, db, "workers={workers}");
            assert_eq!(ra.schedule, rb.schedule, "workers={workers} ∆={da}");
            assert_eq!(ra.marked, rb.marked);
        }
    }
}

/// Every point of `SweepEngine::run_rls` over `grid` equals a cold
/// `rls_in` at its ∆, for every chain bound from one chain to one per
/// point.
fn assert_sweep_points_match_cold_runs(inst: &DagInstance, grid: &[f64], label: &str) {
    let mut ws = KernelWorkspace::new();
    let cold: Vec<_> = grid
        .iter()
        .map(|&delta| rls_in(inst, &RlsConfig::new(delta), &mut ws).unwrap())
        .collect();
    for workers in [1usize, 2, 3, 5, grid.len()] {
        let runs = SweepEngine::with_workers(workers)
            .run_rls(inst, PriorityOrder::Index, grid)
            .unwrap();
        assert_eq!(runs.len(), grid.len(), "{label} workers={workers}");
        for ((delta, warm), (&want, cold)) in runs.iter().zip(grid.iter().zip(&cold)) {
            assert_eq!(*delta, want, "{label} workers={workers}");
            assert_eq!(
                warm.schedule, cold.schedule,
                "{label} workers={workers} ∆={delta}: schedules differ"
            );
            assert_eq!(
                warm.marked, cold.marked,
                "{label} workers={workers} ∆={delta}"
            );
        }
    }
}

/// Grids the first run does not answer: its recorded rejections bind
/// for some later ∆, so those points fan out to chains forked from it.
/// On a bimodal layered DAG at m = 16, a chain over the 200-point grid
/// replays at some later points; the suite also runs a grid whose
/// second point already diverges, one with a descending step, and one
/// with an invalid ∆ after a valid prefix, which must fail with the
/// error a single chain reports.
#[test]
fn sweep_points_the_first_run_cannot_answer_match_cold_runs() {
    let inst = dag_workload(
        DagFamily::LayeredRandom,
        120,
        16,
        TaskDistribution::Bimodal,
        &mut seeded_rng(0xBEEF),
    );
    let grid = delta_grid(2.01, 16.0, 200).unwrap();
    let mut engine = RlsEngine::new(&inst, PriorityOrder::Index);
    let replaying: Vec<usize> = (0..grid.len())
        .filter(|&k| {
            engine.run(grid[k]).unwrap();
            k > 0 && engine.replayed_rounds() > Some(0)
        })
        .collect();
    assert!(
        !replaying.is_empty(),
        "the grid must bind after its first ∆"
    );
    assert_sweep_points_match_cold_runs(&inst, &grid, "binding grid");

    let diverging: Vec<f64> = std::iter::once(grid[0])
        .chain(grid[replaying[0]..].iter().copied())
        .collect();
    assert_sweep_points_match_cold_runs(&inst, &diverging, "second point diverges");

    let mut descending = grid[..40].to_vec();
    descending.swap(1, 30);
    descending.swap(5, 20);
    assert_sweep_points_match_cold_runs(&inst, &descending, "descending steps");

    let invalid = [grid[0], grid[replaying[0]], 3.0, 2.0, 4.0, 1.5];
    let serial = SweepEngine::with_workers(1)
        .run_rls(&inst, PriorityOrder::Index, &invalid)
        .unwrap_err();
    for workers in [2usize, 3, 5, invalid.len()] {
        let fanned = SweepEngine::with_workers(workers)
            .run_rls(&inst, PriorityOrder::Index, &invalid)
            .unwrap_err();
        assert_eq!(fanned, serial, "workers={workers}");
    }
}

/// A grid the first run answers completely runs the kernel once: every
/// point shares the first point's schedule storage, also when the
/// engine may fan out to two chains.
#[test]
fn a_grid_the_first_run_answers_shares_one_schedule() {
    let inst = workload(DagFamily::LayeredRandom, 300, 8, 1002);
    let grid = delta_grid(2.1, 16.0, 64).unwrap();
    let runs = SweepEngine::with_workers(2)
        .run_rls(&inst, PriorityOrder::Index, &grid)
        .unwrap();
    let first = &runs[0].1.schedule;
    for (delta, run) in &runs {
        assert!(
            run.schedule.shares_storage(first),
            "∆={delta} did not share the first run's schedule"
        );
    }
}

/// Exact grid endpoints: no ln/exp round-trip drift on either bound.
#[test]
fn delta_grid_endpoints_are_exact() {
    for (lo, hi, samples) in [
        (2.1, 16.0, 1000),
        (0.125, 8.0, 17),
        (3.0, 1e9, 7),
        (1e-10, 1e12, 9),
    ] {
        let grid = delta_grid(lo, hi, samples).unwrap();
        assert_eq!(grid[0], lo, "first grid point drifted off ∆min");
        assert_eq!(
            *grid.last().unwrap(),
            hi,
            "last grid point drifted off ∆max"
        );
        assert!(
            grid.windows(2).all(|w| w[0] < w[1]),
            "grid must be ascending"
        );
    }
}

/// Symmetric validation: all three entry points reject NaN/∞/non-positive
/// bounds with `InvalidParameter` instead of panicking or producing
/// garbage grids.
#[test]
fn sweep_entry_points_reject_invalid_bounds_symmetrically() {
    use sws_model::error::ModelError;
    let check = |r: Result<Vec<f64>, ModelError>| {
        assert!(matches!(r, Err(ModelError::InvalidParameter { .. })));
    };
    check(delta_grid(f64::NAN, 4.0, 5));
    check(delta_grid(1.0, f64::NAN, 5));
    check(delta_grid(-2.0, 4.0, 5));
    check(delta_grid(1.0, f64::INFINITY, 5));

    let inst = random_instance(
        12,
        3,
        TaskDistribution::Uncorrelated,
        &mut seeded_rng(derive_seed(SWEEP_SEED, 999)),
    );
    assert!(sbo_sweep(&inst, InnerAlgorithm::Lpt, f64::NAN, 8.0, 5).is_err());
    assert!(sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.0, 8.0, 5).is_err());
    assert!(sbo_sweep(&inst, InnerAlgorithm::Lpt, 0.5, f64::INFINITY, 5).is_err());

    let dag = workload(DagFamily::Diamond, 20, 3, 1000);
    assert!(rls_sweep(&dag, &RlsConfig::new(3.0), f64::NAN, 8.0, 5).is_err());
    assert!(rls_sweep(&dag, &RlsConfig::new(3.0), f64::INFINITY, 8.0, 5).is_err());
    assert!(rls_sweep(&dag, &RlsConfig::new(3.0), 2.5, f64::NAN, 5).is_err());
    assert!(rls_sweep(&dag, &RlsConfig::new(3.0), 2.0, 8.0, 5).is_err());
}

/// Sentinel regression: ranges at or beyond the old `1e9` sentinel work,
/// and the single-objective endpoints arrive as tagged limit runs.
#[test]
fn sbo_sweep_limit_runs_replace_the_old_sentinels() {
    let inst = random_instance(
        18,
        3,
        TaskDistribution::AntiCorrelated,
        &mut seeded_rng(derive_seed(SWEEP_SEED, 1001)),
    );
    let curve = sbo_sweep(&inst, InnerAlgorithm::Lpt, 1e8, 1e10, 5).unwrap();
    assert!(!curve.is_empty());
    for p in &curve {
        match p.provenance {
            SweepProvenance::Grid => assert!((1e8..=1e10).contains(&p.delta)),
            SweepProvenance::CmaxLimit => assert_eq!(p.delta, 0.0),
            SweepProvenance::MmaxLimit => assert_eq!(p.delta, f64::INFINITY),
        }
    }
    // The ∆ → 0 limit (π₁ only) survives merging: it has the best
    // makespan of the whole sweep, which at ∆min = 1e8 no grid point
    // can beat (they all route essentially everything to π₂).
    assert!(curve
        .iter()
        .any(|p| p.provenance == SweepProvenance::CmaxLimit));
}

/// Front tie determinism: merging the same runs in opposite orders keeps
/// the same reported ∆ (the smallest achieving the point).
#[test]
fn front_merge_reports_the_smallest_delta_regardless_of_order() {
    use sws_model::pareto::ParetoFront;
    use sws_model::ObjectivePoint;

    let point = ObjectivePoint::new(10.0, 5.0);
    let prefer = |new: &f64, old: &f64| new < old;
    let mut forward: ParetoFront<f64> = ParetoFront::new();
    let mut backward: ParetoFront<f64> = ParetoFront::new();
    let deltas = [2.5, 3.0, 4.0, 8.0];
    for &d in &deltas {
        forward.offer_with(point, d, prefer);
    }
    for &d in deltas.iter().rev() {
        backward.offer_with(point, d, prefer);
    }
    assert_eq!(forward.len(), 1);
    assert_eq!(forward.iter().next().unwrap().1, &2.5);
    assert_eq!(backward.iter().next().unwrap().1, &2.5);
}
