//! Incremental replanning: warm-starting the scheduling kernel across
//! **instance mutations**, not just cap changes.
//!
//! Everything below this module solves a frozen DAG: any task arrival,
//! completion or cost re-estimate forces a from-scratch solve. The
//! checkpoint/replay machinery of `sws_listsched::kernel` already
//! proves (for cap deltas) that replaying only from the first affected
//! round is bit-identical and an order of magnitude cheaper; a
//! [`ReplanEngine`] carries that machinery across
//! [`CsrDelta`](sws_dag::CsrDelta) streams:
//!
//! * the instance mutates **in place** (`CsrDag::apply_delta` — no
//!   graph rebuild, no re-flattening),
//! * the kernel run warm-starts from the first affected round
//!   ([`ReplanRun::replan`] — see its docs for the round math),
//! * the produced [`Solution`] is **bit-identical** to a from-scratch
//!   solve of the mutated instance ([`solve_from_scratch`], the
//!   differential oracle the simulator suite replays against).
//!
//! Graham's classic anomaly results are exactly about what happens to
//! list schedules under such perturbations — a shorter task list or a
//! faster task can *lengthen* the schedule. The engine sidesteps
//! anomaly reasoning entirely by contract: the replanned schedule is
//! the schedule the full solver would have produced, so every guarantee
//! the backend carries (the `2 − 1/m` Graham ratio for open sessions)
//! transfers verbatim to the replanned front.
//!
//! The engine reports its work honestly: `stats.rounds` of each
//! returned `Solution` is the number of *replayed* rounds, and
//! [`ReplanEngine::replay_fraction`] exposes the running average the
//! serving layer uses to admission-cost replan events as incremental
//! work rather than full solves.

use std::sync::Arc;

use sws_dag::{CsrDag, CsrDelta};
use sws_listsched::kernel::{CostShift, KernelWorkspace, ReplanDelta, ReplanRun};
use sws_listsched::priority::{index_priority, PriorityRank};
use sws_model::error::ModelError;
use sws_model::numeric::max_or_zero;
use sws_model::objectives::ObjectivePoint;
use sws_model::solve::{
    BackendId, BoundReport, BoundSource, CostEstimate, Guarantee, Solution, SolveStats,
};

/// A live incremental-replanning session over one mutating instance.
///
/// Holds the instance (`Arc<CsrDag>`, mutated in place between solves),
/// the latest [`ReplanRun`] (checkpoints + per-round records) and one
/// reusable [`KernelWorkspace`]; [`ReplanEngine::apply`] folds one
/// [`CsrDelta`] into all three and returns the schedule of the mutated
/// instance.
///
/// The session's admission policy is **fixed at open**: `None` caps
/// nothing (Graham DAG list scheduling), `Some(cap)` enforces the
/// paper's per-processor memory cap. Machines do not grow RAM mid-run;
/// cap *sweeps* stay with `sws_core::pareto_sweep`.
#[derive(Debug)]
pub struct ReplanEngine {
    csr: Arc<CsrDag>,
    m: usize,
    cap: Option<f64>,
    rank: Arc<PriorityRank>,
    ws: KernelWorkspace,
    run: ReplanRun,
    /// `completed[i]`: task `i` finished executing — pinned against
    /// later re-estimates.
    completed: Vec<bool>,
    /// Scratch for the per-processor memory fold of the objective.
    memory: Vec<f64>,
    /// The cached run no longer matches the instance: a capped apply
    /// mutated the CSR and then failed (infeasible). The next event
    /// re-solves cold instead of replaying.
    stale: bool,
    /// Deltas applied so far (completions included).
    events: u64,
    /// Rounds replayed across all applies.
    replayed_rounds: u64,
    /// Rounds a from-scratch solve would have run across all applies.
    total_rounds: u64,
}

impl ReplanEngine {
    /// Opens a session over `csr` on `m` processors with the given
    /// fixed cap, performing the initial cold solve.
    pub fn open(csr: CsrDag, m: usize, cap: Option<f64>) -> Result<Self, ModelError> {
        if m == 0 {
            return Err(ModelError::NoProcessors);
        }
        let n = csr.n();
        let rank = Arc::new(index_priority(n));
        let mut ws = KernelWorkspace::with_capacity(n, m);
        let run = ReplanRun::cold(&csr, m, Arc::clone(&rank), cap, &mut ws)?;
        Ok(ReplanEngine {
            csr: Arc::new(csr),
            m,
            cap,
            rank,
            ws,
            run,
            completed: vec![false; n],
            memory: Vec::with_capacity(m),
            stale: false,
            events: 0,
            replayed_rounds: 0,
            total_rounds: 0,
        })
    }

    /// Applies one delta to the live instance and returns the schedule
    /// of the mutated instance — bit-identical to
    /// [`solve_from_scratch`] on the same instance, at a fraction of
    /// the rounds (`stats.rounds` reports how many were replayed).
    ///
    /// On a validation error the instance and the cached run are
    /// untouched. A kernel error can only arise from a capped session
    /// turning infeasible; the delta has already been applied then, and
    /// [`solve_from_scratch`] on the mutated instance fails with the
    /// same error — infeasibility is part of the bit-identity contract.
    /// The session keeps serving if a later delta (say a re-estimate
    /// shrinking the offending task) restores feasibility.
    pub fn apply(&mut self, delta: &CsrDelta) -> Result<Solution, ModelError> {
        delta.validate(self.csr.n())?;
        let kdelta = match *delta {
            CsrDelta::CompleteTask { task } => {
                self.completed[task as usize] = true;
                self.events += 1;
                self.total_rounds += self.csr.n() as u64;
                if self.stale {
                    // A failed capped apply left the cached run behind
                    // the instance: refresh cold before answering.
                    let run = ReplanRun::cold(
                        &self.csr,
                        self.m,
                        Arc::clone(&self.rank),
                        self.cap,
                        &mut self.ws,
                    )?;
                    self.stale = false;
                    self.replayed_rounds += run.replayed_rounds() as u64;
                    self.run = run;
                    return Ok(self.solution_of(self.run.replayed_rounds()));
                }
                // Completion mutates neither instance nor schedule:
                // answer from the cached run, zero rounds replayed.
                return Ok(self.solution_of(0));
            }
            CsrDelta::Recost { task, p, s } => {
                let i = task as usize;
                if self.completed[i] {
                    return Err(ModelError::InvalidParameter {
                        name: "task",
                        value: i as f64,
                        constraint: "completed tasks cannot be re-estimated",
                    });
                }
                let p_changed = p.is_some_and(|v| v != self.csr.p(i));
                let s_shift = match s {
                    Some(v) if v < self.csr.s(i) => CostShift::Lowered,
                    Some(v) if v > self.csr.s(i) => CostShift::Raised,
                    _ => CostShift::Unchanged,
                };
                ReplanDelta::Recost {
                    task,
                    p_changed,
                    s_shift,
                }
            }
            CsrDelta::AddTask { .. } => ReplanDelta::Arrival,
        };
        Arc::make_mut(&mut self.csr).apply_delta(delta)?;
        if matches!(kdelta, ReplanDelta::Arrival) {
            self.completed.push(false);
            self.rank = Arc::new(index_priority(self.csr.n()));
        }
        let next = if self.stale {
            // The cached run predates a failed capped apply — it cannot
            // seed a replay of the twice-mutated instance; solve cold.
            ReplanRun::cold(
                &self.csr,
                self.m,
                Arc::clone(&self.rank),
                self.cap,
                &mut self.ws,
            )
        } else {
            self.run
                .replan(&self.csr, Arc::clone(&self.rank), kdelta, &mut self.ws)
        };
        let next = match next {
            Ok(run) => run,
            Err(e) => {
                self.stale = true;
                return Err(e);
            }
        };
        self.stale = false;
        self.events += 1;
        self.replayed_rounds += next.replayed_rounds() as u64;
        self.total_rounds += self.csr.n() as u64;
        self.run = next;
        Ok(self.solution_of(self.run.replayed_rounds()))
    }

    /// The schedule of the current (mutated) instance, from the cached
    /// run — no rounds replayed.
    pub fn solution(&mut self) -> Solution {
        self.solution_of(0)
    }

    /// The live instance.
    pub fn csr(&self) -> &Arc<CsrDag> {
        &self.csr
    }

    /// Number of tasks currently in the instance.
    pub fn n(&self) -> usize {
        self.csr.n()
    }

    /// Number of processors.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The session's fixed cap (`None` = unrestricted).
    pub fn cap(&self) -> Option<f64> {
        self.cap
    }

    /// Deltas applied so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Kernel rounds replayed across all applies — the session's
    /// cumulative measured work, next to the `events × n` a
    /// from-scratch-per-event server would have run.
    pub fn replayed_rounds(&self) -> u64 {
        self.replayed_rounds
    }

    /// Fraction of scheduling rounds actually replayed, over everything
    /// a from-scratch-per-event server would have run (1.0 before any
    /// event). The serving layer admission-costs replan events with it.
    pub fn replay_fraction(&self) -> f64 {
        if self.total_rounds == 0 {
            1.0
        } else {
            self.replayed_rounds as f64 / self.total_rounds as f64
        }
    }

    /// The work estimate for the *next* event: the kernel estimate of
    /// the full instance scaled by the observed replay fraction — the
    /// "incremental work, not a full solve" number the service layer
    /// gates session events on.
    pub fn estimated_event_cost(&self) -> CostEstimate {
        let full = CostEstimate::kernel(self.csr.n(), self.csr.edge_count());
        CostEstimate {
            work: full.work * self.replay_fraction(),
            model: full.model,
        }
    }

    /// Packages the cached run as a [`Solution`] reporting `rounds`
    /// replayed rounds (zero when the answer comes straight from the
    /// cache). The from-scratch oracle goes through
    /// [`solve_from_scratch`], which calls the same [`solution_parts`]
    /// so the two are bit-identical field by field.
    fn solution_of(&mut self, rounds: usize) -> Solution {
        solution_parts(
            &self.csr,
            self.m,
            self.cap,
            &self.run,
            rounds,
            &mut self.memory,
        )
    }
}

/// Builds the replan backend's `Solution` from a finished run, with
/// `rounds` as its replayed-round count — the single assembly path both
/// [`ReplanEngine::apply`] and the [`solve_from_scratch`] oracle use,
/// so warm and cold agree bit for bit on every field.
fn solution_parts(
    csr: &CsrDag,
    m: usize,
    cap: Option<f64>,
    run: &ReplanRun,
    rounds: usize,
    memory: &mut Vec<f64>,
) -> Solution {
    let schedule = run.outcome().schedule.clone();
    let n = csr.n();
    memory.clear();
    memory.resize(m, 0.0);
    let mut cmax = 0.0f64;
    for i in 0..n {
        cmax = cmax.max(schedule.start(i) + csr.p(i));
        memory[schedule.proc_of(i)] += csr.s(i);
    }
    let point = ObjectivePoint::new(cmax, max_or_zero(memory.iter().copied()));
    let (achieved, ratio_bound) = match cap {
        // Graham's `2 − 1/m` holds under precedence constraints for
        // unrestricted list scheduling; replanning preserves it by
        // bit-identity with the from-scratch schedule.
        None => (
            Guarantee::PaperRatio,
            Some((2.0 - 1.0 / m as f64, f64::INFINITY)),
        ),
        // A session cap is an operational limit, not the paper's
        // `∆·LB` parameterization: enforced, but no ratio is claimed.
        Some(_) => (Guarantee::None, None),
    };
    Solution {
        point,
        sum_ci: None,
        achieved,
        ratio_bound,
        stats: SolveStats {
            backend: BackendId::KernelReplan,
            rounds,
            workspace_reused: true,
            bounds: graham_bounds(csr, m),
            cost: None,
            attempts: 1,
        },
        schedule,
    }
}

/// The Graham identical-machine bounds computed directly from the CSR
/// (`Cmax ≥ max(max p, Σp/m)`, `Mmax ≥ max(max s, Σs/m)`) — one flat
/// pass, no task-set materialization on the per-event path.
fn graham_bounds(csr: &CsrDag, m: usize) -> BoundReport {
    let mut p_max = 0.0f64;
    let mut p_sum = 0.0f64;
    let mut s_max = 0.0f64;
    let mut s_sum = 0.0f64;
    for i in 0..csr.n() {
        p_max = p_max.max(csr.p(i));
        p_sum += csr.p(i);
        s_max = s_max.max(csr.s(i));
        s_sum += csr.s(i);
    }
    BoundReport {
        cmax: p_max.max(p_sum / m as f64),
        mmax: s_max.max(s_sum / m as f64),
        source: BoundSource::GrahamIdentical,
    }
}

/// The differential oracle: a from-scratch solve of (the current state
/// of) a mutating instance, producing exactly the `Solution` a
/// [`ReplanEngine`] session at the same cap returns — the bit-identity
/// contract the simulator replays event streams against.
pub fn solve_from_scratch(
    csr: &CsrDag,
    m: usize,
    cap: Option<f64>,
    ws: &mut KernelWorkspace,
) -> Result<Solution, ModelError> {
    let rank = Arc::new(index_priority(csr.n()));
    let run = ReplanRun::cold(csr, m, rank, cap, ws)?;
    let (rounds, mut memory) = (run.replayed_rounds(), Vec::with_capacity(m));
    Ok(solution_parts(csr, m, cap, &run, rounds, &mut memory))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_dag::TaskGraph;
    use sws_model::task::TaskSet;

    fn diamond_csr() -> CsrDag {
        let tasks = TaskSet::from_ps(&[2.0, 3.0, 1.0, 4.0], &[1.0, 2.0, 3.0, 1.0]).unwrap();
        TaskGraph::from_edges(tasks, &[(0, 1), (0, 2), (1, 3), (2, 3)])
            .unwrap()
            .csr()
    }

    #[test]
    fn open_session_matches_the_oracle() {
        let csr = diamond_csr();
        let mut engine = ReplanEngine::open(csr.clone(), 2, None).unwrap();
        let mut ws = KernelWorkspace::new();
        let oracle = solve_from_scratch(&csr, 2, None, &mut ws).unwrap();
        let sol = engine.solution();
        assert_eq!(sol.schedule, oracle.schedule);
        assert_eq!(sol.point.cmax.to_bits(), oracle.point.cmax.to_bits());
        assert_eq!(sol.point.mmax.to_bits(), oracle.point.mmax.to_bits());
        assert_eq!(sol.stats.backend, BackendId::KernelReplan);
    }

    #[test]
    fn deltas_track_the_oracle_bit_for_bit() {
        let mut engine = ReplanEngine::open(diamond_csr(), 2, None).unwrap();
        let mut ws = KernelWorkspace::new();
        let stream = [
            CsrDelta::AddTask {
                preds: vec![1, 2],
                p: 2.5,
                s: 0.5,
            },
            CsrDelta::CompleteTask { task: 0 },
            CsrDelta::Recost {
                task: 3,
                p: Some(8.0),
                s: None,
            },
            CsrDelta::AddTask {
                preds: vec![4],
                p: 1.0,
                s: 1.0,
            },
            CsrDelta::Recost {
                task: 4,
                p: None,
                s: Some(9.0),
            },
        ];
        for (k, delta) in stream.iter().enumerate() {
            let sol = engine.apply(delta).unwrap();
            let oracle = solve_from_scratch(engine.csr(), 2, None, &mut ws).unwrap();
            assert_eq!(sol.schedule, oracle.schedule, "event {k}");
            for i in 0..engine.n() {
                assert_eq!(
                    sol.schedule.start(i).to_bits(),
                    oracle.schedule.start(i).to_bits(),
                    "event {k}, task {i}"
                );
            }
            assert_eq!(sol.point.cmax.to_bits(), oracle.point.cmax.to_bits());
            assert_eq!(sol.point.mmax.to_bits(), oracle.point.mmax.to_bits());
        }
        assert!(engine.replay_fraction() <= 1.0);
    }

    #[test]
    fn completions_pin_tasks_and_cost_nothing() {
        let mut engine = ReplanEngine::open(diamond_csr(), 2, None).unwrap();
        let sol = engine.apply(&CsrDelta::CompleteTask { task: 1 }).unwrap();
        assert_eq!(sol.stats.rounds, 0, "completions replay nothing");
        let err = engine.apply(&CsrDelta::Recost {
            task: 1,
            p: Some(10.0),
            s: None,
        });
        assert!(err.is_err(), "recosting a completed task must refuse");
        // The failed delta left the instance untouched.
        assert_eq!(engine.csr().p(1), 3.0);
    }

    #[test]
    fn capped_sessions_keep_the_cap_and_claim_no_ratio() {
        let csr = diamond_csr();
        let mut engine = ReplanEngine::open(csr, 2, Some(5.0)).unwrap();
        let sol = engine
            .apply(&CsrDelta::AddTask {
                preds: vec![0],
                p: 1.0,
                s: 1.0,
            })
            .unwrap();
        assert!(sol.point.mmax <= 5.0 + 1e-9);
        assert_eq!(sol.achieved, Guarantee::None);
        assert!(sol.ratio_bound.is_none());
        let mut ws = KernelWorkspace::new();
        let oracle = solve_from_scratch(engine.csr(), 2, Some(5.0), &mut ws).unwrap();
        assert_eq!(sol.schedule, oracle.schedule);
    }

    #[test]
    fn estimated_event_cost_shrinks_with_observed_replays() {
        let mut engine = ReplanEngine::open(diamond_csr(), 2, None).unwrap();
        let full = CostEstimate::kernel(engine.n(), engine.csr().edge_count()).work;
        assert_eq!(engine.estimated_event_cost().work, full);
        engine.apply(&CsrDelta::CompleteTask { task: 0 }).unwrap();
        assert!(
            engine.estimated_event_cost().work < full,
            "a zero-replay event must lower the incremental estimate"
        );
    }
}
