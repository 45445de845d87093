//! Incremental replanning: warm-starting the scheduling kernel across
//! **instance mutations**, not just cap changes.
//!
//! Everything below this module solves a frozen DAG: any task arrival,
//! completion or cost re-estimate forces a from-scratch solve. The
//! checkpoint/replay machinery of `sws_listsched::kernel` already
//! proves (for cap deltas) that replaying only from the first affected
//! round is bit-identical and an order of magnitude cheaper; a
//! [`ReplanEngine`] carries that machinery across
//! [`CsrDelta`] streams:
//!
//! * the instance mutates **in place** (`CsrDag::apply_delta` — no
//!   graph rebuild, no re-flattening),
//! * the kernel run warm-starts from the first affected round
//!   ([`CheckpointedRun::replan`] — see its docs for the round math),
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
use sws_listsched::kernel::{
    event_driven_schedule_csr, CheckpointedRun, CostShift, KernelWorkspace, MemoryCapAdmission,
    ReplanDelta, Unrestricted,
};
use sws_listsched::priority::{index_priority, PriorityRank};
use sws_model::error::ModelError;
use sws_model::numeric::max_or_zero;
use sws_model::objectives::ObjectivePoint;
use sws_model::schedule::TimedSchedule;
use sws_model::solve::{
    BackendId, BoundReport, BoundSource, CostEstimate, Guarantee, Solution, SolveStats,
};

/// A live incremental-replanning session over one mutating instance.
///
/// Holds the latest session-policy [`CheckpointedRun`] (which owns the
/// instance, an `Arc<CsrDag>` mutated in place between solves, beside
/// its checkpoints and per-round records) and one reusable
/// [`KernelWorkspace`]; [`ReplanEngine::apply`] folds one [`CsrDelta`]
/// into both and returns the schedule of the mutated instance.
///
/// Every answer carries Graham's lower bounds of the live instance. The
/// engine keeps their index-order fold in step with the instance rather
/// than refolding all `n` tasks per event: a completion leaves it
/// unchanged, an arrival folds in the one new task, and a re-estimate
/// (the only delta that rewrites an existing cost) refolds it. Since
/// every mutation updates it, a stale session's fold already matches
/// the instance its cold re-solve runs on. The achieved objective point
/// is kept the same way: a completion changes neither the schedule nor
/// any cost, so it reuses the previous answer's point, while every delta
/// that enters the kernel (a storage-only re-estimate included, whose
/// `Mmax` moves even when no round replays) refolds it.
///
/// The session's admission policy is **fixed at open**: `None` caps
/// nothing (Graham DAG list scheduling — the kernel run's cap `+∞`),
/// `Some(cap)` enforces the paper's per-processor memory cap. Machines
/// do not grow RAM mid-run; cap *sweeps* stay with
/// `sws_core::pareto_sweep`.
#[derive(Debug)]
pub struct ReplanEngine {
    m: usize,
    cap: Option<f64>,
    ws: KernelWorkspace,
    run: CheckpointedRun,
    /// `completed[i]`: task `i` finished executing — pinned against
    /// later re-estimates.
    completed: Vec<bool>,
    /// Scratch for the per-processor memory fold of the objective.
    memory: Vec<f64>,
    /// The Graham bound fold of the live instance, kept in step with
    /// every mutation instead of refolded per event.
    totals: GrahamTotals,
    /// The objective point of the cached run on the live instance, once
    /// an answer has folded it; cleared by every instance mutation.
    point: Option<ObjectivePoint>,
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
        let mut ws = KernelWorkspace::with_capacity(n, m);
        let rank = Arc::new(index_priority(n));
        let kernel_cap = cap.unwrap_or(f64::INFINITY);
        let totals = GrahamTotals::fold(&csr);
        let run = CheckpointedRun::session(Arc::new(csr), m, rank, kernel_cap, &mut ws)?;
        Ok(ReplanEngine {
            m,
            cap,
            ws,
            run,
            completed: vec![false; n],
            memory: Vec::with_capacity(m),
            totals,
            point: None,
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
    /// A failed apply changes none of the session's counters. The
    /// session keeps serving if a later delta (say a re-estimate
    /// shrinking the offending task) restores feasibility.
    pub fn apply(&mut self, delta: &CsrDelta) -> Result<Solution, ModelError> {
        let csr = self.run.csr();
        delta.validate(csr.n())?;
        let kdelta = match *delta {
            CsrDelta::CompleteTask { task } => {
                self.completed[task as usize] = true;
                None
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
                let s_shift = match s {
                    Some(v) if v < csr.s(i) => CostShift::Lowered,
                    Some(v) if v > csr.s(i) => CostShift::Raised,
                    _ => CostShift::Unchanged,
                };
                Some(ReplanDelta::Recost {
                    task,
                    p_changed: p.is_some_and(|v| v != csr.p(i)),
                    s_shift,
                })
            }
            CsrDelta::AddTask { .. } => Some(ReplanDelta::Arrival),
        };
        if kdelta.is_some() {
            self.run.csr_mut().apply_delta(delta)?;
            self.point = None;
        }
        let n = self.n();
        match kdelta {
            Some(ReplanDelta::Arrival) => {
                self.completed.push(false);
                // The arrival takes the last index: the one step a
                // from-scratch fold of the mutated instance ends with.
                let csr = self.run.csr();
                self.totals.step(csr.p(n - 1), csr.s(n - 1));
            }
            Some(_) => self.totals = GrahamTotals::fold(self.run.csr()),
            None => {}
        }
        let rounds = if kdelta.is_none() && !self.stale {
            // Completion mutates neither instance nor schedule: answer
            // from the cached run, zero rounds replayed.
            0
        } else {
            let next = match kdelta {
                Some(kdelta) if !self.stale => {
                    let rank = self.rank();
                    self.run.replan(&rank, kdelta, &mut self.ws)
                }
                // A failed capped apply left the cached run behind the
                // instance: it cannot seed a replay, so solve cold.
                _ => self.solve_cold(),
            };
            self.stale = next.is_err();
            self.run = next?;
            self.run.replayed_rounds()
        };
        self.events += 1;
        self.replayed_rounds += rounds as u64;
        self.total_rounds += n as u64;
        Ok(self.solution_of(rounds))
    }

    /// The schedule of the current (mutated) instance, from the cached
    /// run — no rounds replayed. A stale session has no run of the
    /// current instance, so it answers with a cold solve, which fails
    /// with the apply's typed error for as long as the instance stays
    /// infeasible. The session's counters count applies only.
    pub fn solution(&mut self) -> Result<Solution, ModelError> {
        if !self.stale {
            return Ok(self.solution_of(0));
        }
        self.run = self.solve_cold()?;
        self.stale = false;
        Ok(self.solution_of(self.run.replayed_rounds()))
    }

    /// The recorded rank when it still covers every task, the index
    /// rank of the current instance otherwise.
    fn rank(&self) -> Arc<PriorityRank> {
        match self.run.rank() {
            same if same.len() == self.n() => Arc::clone(same),
            _ => Arc::new(index_priority(self.n())),
        }
    }

    /// A cold session run of the current instance at the session's cap.
    fn solve_cold(&mut self) -> Result<CheckpointedRun, ModelError> {
        let (csr, cap) = (Arc::clone(self.run.csr()), self.run.cap());
        CheckpointedRun::session(csr, self.m, self.rank(), cap, &mut self.ws)
    }

    /// The live instance.
    pub fn csr(&self) -> &Arc<CsrDag> {
        self.run.csr()
    }

    /// Number of tasks currently in the instance.
    pub fn n(&self) -> usize {
        self.csr().n()
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
    /// gates session events on. A stale session's next event is a cold
    /// solve, so it is priced at the full estimate.
    pub fn estimated_event_cost(&self) -> CostEstimate {
        let full = CostEstimate::kernel(self.n(), self.csr().edge_count());
        let fraction = if self.stale {
            1.0
        } else {
            self.replay_fraction()
        };
        CostEstimate {
            work: full.work * fraction,
            model: full.model,
        }
    }

    /// Packages the cached run as a [`Solution`] reporting `rounds`
    /// replayed rounds (zero when the answer comes straight from the
    /// cache), folding its objective point only when no answer since the
    /// last mutation has. The from-scratch oracle goes through
    /// [`solve_from_scratch`], which calls the same [`objective`] and
    /// [`solution_parts`] so the two are bit-identical field by field.
    fn solution_of(&mut self, rounds: usize) -> Solution {
        let schedule = &self.run.outcome().schedule;
        let (csr, m, cap) = (self.run.csr(), self.m, self.cap);
        let point = *self
            .point
            .get_or_insert_with(|| objective(csr, m, schedule, &mut self.memory));
        let bounds = self.totals.bounds(m);
        solution_parts(m, cap, schedule, point, bounds, rounds)
    }
}

/// The achieved `(Cmax, Mmax)` of `schedule` on `csr`: one pass over the
/// tasks in index order, with `memory` as the per-processor scratch.
fn objective(
    csr: &CsrDag,
    m: usize,
    schedule: &TimedSchedule,
    memory: &mut Vec<f64>,
) -> ObjectivePoint {
    memory.clear();
    memory.resize(m, 0.0);
    let mut cmax = 0.0f64;
    for i in 0..csr.n() {
        cmax = cmax.max(schedule.start(i) + csr.p(i));
        memory[schedule.proc_of(i)] += csr.s(i);
    }
    ObjectivePoint::new(cmax, max_or_zero(memory.iter().copied()))
}

/// Builds the replan backend's `Solution` from a finished run's
/// schedule and its [`objective`] point, with `rounds` as its
/// replayed-round count — the single assembly path both
/// [`ReplanEngine::apply`] and the [`solve_from_scratch`] oracle use, so
/// warm and cold agree bit for bit on every field.
fn solution_parts(
    m: usize,
    cap: Option<f64>,
    schedule: &TimedSchedule,
    point: ObjectivePoint,
    bounds: BoundReport,
    rounds: usize,
) -> Solution {
    let schedule = schedule.clone();
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
            bounds,
            cost: None,
            attempts: 1,
        },
        schedule,
    }
}

/// The running fold behind the Graham identical-machine bounds
/// (`Cmax ≥ max(max p, Σp/m)`, `Mmax ≥ max(max s, Σs/m)`), over the
/// tasks in index order. A session keeps one in step with its instance
/// (see [`ReplanEngine`]): a completion leaves it as it is, an arrival
/// takes one more [`GrahamTotals::step`] (the arrival has the last
/// index, so this is the step a from-scratch fold ends with), and a
/// re-estimate refolds it, since a sum cannot take a term back out
/// exactly. Every path runs the same per-task operations in the same
/// order, so the bounds, signed zeros included, match
/// [`solve_from_scratch`]'s fresh fold bit for bit.
#[derive(Debug, Default)]
struct GrahamTotals {
    p_max: f64,
    p_sum: f64,
    s_max: f64,
    s_sum: f64,
}

impl GrahamTotals {
    /// The fold over every task of `csr`: one flat pass, no task-set
    /// materialization.
    fn fold(csr: &CsrDag) -> Self {
        let mut totals = GrahamTotals::default();
        for i in 0..csr.n() {
            totals.step(csr.p(i), csr.s(i));
        }
        totals
    }

    /// Folds in the next task (by index).
    fn step(&mut self, p: f64, s: f64) {
        self.p_max = self.p_max.max(p);
        self.p_sum += p;
        self.s_max = self.s_max.max(s);
        self.s_sum += s;
    }

    /// The bounds on `m` processors.
    fn bounds(&self, m: usize) -> BoundReport {
        BoundReport {
            cmax: self.p_max.max(self.p_sum / m as f64),
            mmax: self.s_max.max(self.s_sum / m as f64),
            source: BoundSource::GrahamIdentical,
        }
    }
}

/// The differential oracle: a from-scratch solve of (the current state
/// of) a mutating instance, producing exactly the `Solution` a
/// [`ReplanEngine`] session at the same cap returns — the bit-identity
/// contract the simulator replays event streams against. It runs the
/// plain kernel, not the recorded run (uncapped through
/// [`Unrestricted`], not the session's cap `+∞`), so the contract also
/// pins that the two admit the same processors.
pub fn solve_from_scratch(
    csr: &CsrDag,
    m: usize,
    cap: Option<f64>,
    ws: &mut KernelWorkspace,
) -> Result<Solution, ModelError> {
    let rank = index_priority(csr.n());
    let outcome = match cap {
        None => event_driven_schedule_csr(csr, m, &rank, &mut Unrestricted, ws)?,
        Some(c) => {
            let mut admission = MemoryCapAdmission::new(m, c);
            event_driven_schedule_csr(csr, m, &rank, &mut admission, ws)?
        }
    };
    let point = objective(csr, m, &outcome.schedule, &mut Vec::with_capacity(m));
    let bounds = GrahamTotals::fold(csr).bounds(m);
    Ok(solution_parts(
        m,
        cap,
        &outcome.schedule,
        point,
        bounds,
        csr.n(),
    ))
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
        let sol = engine.solution().unwrap();
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

    /// A completion reuses the previous answer's objective point. An
    /// uncapped storage-only re-estimate replays no round, yet it moves
    /// `Mmax`, so the completion after it must report the new value.
    #[test]
    fn a_completion_after_a_storage_re_estimate_reports_the_new_mmax() {
        let mut engine = ReplanEngine::open(diamond_csr(), 2, None).unwrap();
        let before = engine.solution().unwrap();
        let grown = engine
            .apply(&CsrDelta::Recost {
                task: 3,
                p: None,
                s: Some(9.0),
            })
            .unwrap();
        assert_eq!(grown.stats.rounds, 0, "an uncapped storage re-estimate");
        assert!(grown.point.mmax > before.point.mmax);
        let sol = engine.apply(&CsrDelta::CompleteTask { task: 0 }).unwrap();
        let mut ws = KernelWorkspace::new();
        let oracle = solve_from_scratch(engine.csr(), 2, None, &mut ws).unwrap();
        assert_eq!(sol.schedule, oracle.schedule);
        assert_eq!(sol.point.cmax.to_bits(), oracle.point.cmax.to_bits());
        assert_eq!(sol.point.mmax.to_bits(), oracle.point.mmax.to_bits());
        assert_eq!(sol.point.mmax.to_bits(), grown.point.mmax.to_bits());
        assert_eq!(
            sol.stats.bounds.mmax.to_bits(),
            oracle.stats.bounds.mmax.to_bits()
        );
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

    /// A failed apply changes no counter, whatever the delta kind, and
    /// a stale session prices its next event as the full cold solve it
    /// is, not at the replay fraction of the events before.
    #[test]
    fn a_stale_session_is_priced_as_a_cold_solve() {
        let mut engine = ReplanEngine::open(diamond_csr(), 2, Some(5.0)).unwrap();
        engine.apply(&CsrDelta::CompleteTask { task: 0 }).unwrap();
        assert_eq!(
            engine.replay_fraction(),
            0.0,
            "a completion replays nothing"
        );
        let oversized = CsrDelta::AddTask {
            preds: vec![],
            p: 1.0,
            s: 100.0,
        };
        assert!(
            engine.apply(&oversized).is_err(),
            "s = 100 fits under no cap of 5"
        );
        let full = CostEstimate::kernel(engine.n(), engine.csr().edge_count()).work;
        for task in 1..4 {
            let err = engine.apply(&CsrDelta::CompleteTask { task });
            assert!(err.is_err(), "the cold re-solve stays infeasible");
            assert_eq!(engine.events(), 1);
            assert_eq!(engine.replay_fraction(), 0.0);
            assert_eq!(engine.estimated_event_cost().work, full);
        }
        // Shrinking the arrival restores feasibility: one counted event.
        let fix = CsrDelta::Recost {
            task: 4,
            p: None,
            s: Some(1.0),
        };
        let sol = engine.apply(&fix).unwrap();
        assert_eq!(sol.stats.rounds, engine.n(), "the recovery is a cold solve");
        assert_eq!(engine.events(), 2);
        assert!(engine.estimated_event_cost().work < full);
        let mut ws = KernelWorkspace::new();
        let oracle = solve_from_scratch(engine.csr(), 2, Some(5.0), &mut ws).unwrap();
        assert_eq!(sol.schedule, oracle.schedule);
    }

    /// A failed capped arrival leaves the cached run one task short of
    /// the instance: `solution()` must answer with the typed error, not
    /// package the short schedule against the longer instance.
    #[test]
    fn a_stale_session_after_a_failed_arrival_answers_with_the_error() {
        let csr = sws_dag::generators::diamond::diamond_grid(2, 2).csr();
        let mut engine = ReplanEngine::open(csr, 2, Some(5.0)).unwrap();
        let arrival = CsrDelta::AddTask {
            preds: vec![],
            p: 1.0,
            s: 100.0,
        };
        let err = engine.apply(&arrival).unwrap_err();
        assert!(matches!(
            err,
            ModelError::MemoryExceeded { used, capacity, .. } if used == 101.0 && capacity == 5.0
        ));
        for _ in 0..2 {
            assert_eq!(engine.solution().unwrap_err(), err);
        }
        let fix = CsrDelta::Recost {
            task: 4,
            p: None,
            s: Some(1.0),
        };
        let applied = engine.apply(&fix).unwrap();
        let mut ws = KernelWorkspace::new();
        let oracle = solve_from_scratch(engine.csr(), 2, Some(5.0), &mut ws).unwrap();
        assert_eq!(applied.schedule, oracle.schedule);
        assert_eq!(engine.solution().unwrap().schedule, oracle.schedule);
    }

    /// A failed capped re-estimate leaves the old schedule beside the
    /// new costs: `solution()` must not pair them.
    #[test]
    fn a_stale_session_after_a_failed_re_estimate_answers_with_the_error() {
        let csr = sws_dag::generators::diamond::diamond_grid(2, 2).csr();
        let mut engine = ReplanEngine::open(csr, 2, Some(5.0)).unwrap();
        let grow = CsrDelta::Recost {
            task: 3,
            p: Some(2.0),
            s: Some(100.0),
        };
        let err = engine.apply(&grow).unwrap_err();
        assert!(matches!(err, ModelError::MemoryExceeded { .. }));
        assert_eq!(engine.solution().unwrap_err(), err);
        assert_eq!(engine.solution().unwrap_err(), err);
        let shrink = CsrDelta::Recost {
            task: 3,
            p: None,
            s: Some(1.0),
        };
        engine.apply(&shrink).unwrap();
        let mut ws = KernelWorkspace::new();
        let oracle = solve_from_scratch(engine.csr(), 2, Some(5.0), &mut ws).unwrap();
        let sol = engine.solution().unwrap();
        assert_eq!(sol.schedule, oracle.schedule);
        assert_eq!(sol.point.cmax.to_bits(), oracle.point.cmax.to_bits());
    }

    /// The session's run is the only holder of the instance, so every
    /// delta mutates it in place: a second holder would make
    /// `Arc::make_mut` copy the whole instance on every event.
    #[test]
    fn the_instance_is_mutated_in_place_across_a_mixed_stream() {
        use sws_workloads::deltas::{delta_stream, DeltaStreamConfig};
        use sws_workloads::{dagsets, seeded_rng, TaskDistribution};
        let mut rng = seeded_rng(11);
        let dag = dagsets::dag_workload(
            dagsets::DagFamily::LayeredRandom,
            200,
            4,
            TaskDistribution::Uncorrelated,
            &mut rng,
        );
        let stream = delta_stream(dag.n(), 200, &DeltaStreamConfig::mixed(), &mut rng);
        let mut engine = ReplanEngine::open(dag.csr(), 4, None).unwrap();
        let instance = Arc::as_ptr(engine.csr());
        for (k, delta) in stream.iter().enumerate() {
            engine.apply(delta).unwrap();
            assert_eq!(
                Arc::as_ptr(engine.csr()),
                instance,
                "event {k} copied the instance"
            );
        }
        assert_eq!(engine.events(), 200);
    }
}
