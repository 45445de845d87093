//! Rolling-horizon replanning sessions: the service front for the
//! incremental delta-replan engine (`sws_core::replan`).
//!
//! The one-shot request path re-solves from scratch on every submit.
//! A *session* instead pins one mutating DAG instance to the tenant
//! that owns it: the cold solve is paid once at
//! [`ServiceHandle::open_session`], and every subsequent
//! [`CsrDelta`] — a task arrival, a completion, a
//! cost re-estimate — is served by warm-starting the kernel from the
//! first affected round. The returned schedules are **bit-identical**
//! to from-scratch solves of the mutated instance (that is the
//! engine's contract, enforced by the differential suites), so a
//! session changes the *cost* of serving an event stream, never the
//! answers.
//!
//! Admission stays cost-gated, like everything else the service
//! serves, but a session event is charged what it is expected to
//! *actually* cost: the full-instance kernel estimate scaled by the
//! session's observed replay fraction
//! ([`ReplanEngine::estimated_event_cost`]). A tenant whose work gate
//! would refuse a from-scratch solve of the same instance can thus
//! keep replanning it incrementally — which is exactly the regime the
//! engine exists for — while a session whose deltas keep forcing deep
//! replays drifts back toward the from-scratch estimate and the gate
//! closes again.
//!
//! Sessions run on the caller's thread (a replan is microseconds of
//! work on warm paths; queueing it behind the worker pool would cost
//! more than serving it), hold no queue capacity and no in-flight
//! slot, and observe shutdown: events after
//! [`SchedulingService::shutdown`](crate::service::SchedulingService::shutdown)
//! begins are refused with [`ServiceError::ShuttingDown`].

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use sws_core::replan::ReplanEngine;
use sws_dag::{CsrDag, CsrDelta};
use sws_model::policy::QuotaError;
use sws_model::solve::{CostEstimate, Solution};

use crate::service::{ServiceError, ServiceHandle, Shared};
use crate::stats::Counters;

/// One tenant's live replanning session: the engine plus the service
/// bookkeeping (policy gate, counters, shutdown observation).
///
/// Obtained from [`ServiceHandle::open_session`]; dropped to close
/// (sessions hold no service resources, so closing is just dropping).
pub struct SessionTicket {
    shared: Arc<Shared>,
    tenant_idx: usize,
    engine: ReplanEngine,
}

impl std::fmt::Debug for SessionTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionTicket")
            .field("n", &self.engine.n())
            .field("m", &self.engine.m())
            .field("cap", &self.engine.cap())
            .field("events", &self.engine.events())
            .finish_non_exhaustive()
    }
}

impl SessionTicket {
    /// Applies one delta to the session's instance and returns the
    /// schedule of the mutated instance.
    ///
    /// The event first passes the tenant's work gate at the session's
    /// *incremental* cost estimate; refusals
    /// ([`QuotaError::WorkExceeded`]) leave the instance untouched, as
    /// do rejected deltas (a re-estimate of a completed task). A delta
    /// that turns a capped session infeasible stays applied and leaves
    /// the session stale (see [`SessionTicket::solution`]).
    pub fn apply(&mut self, delta: &CsrDelta) -> Result<Solution, ServiceError> {
        let shared = &*self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let entry = shared.tenant(self.tenant_idx);
        let estimated = self.engine.estimated_event_cost().work;
        let limit = entry.policy.max_estimated_work;
        if estimated > limit {
            shared.count_refusal(Some(self.tenant_idx));
            return Err(ServiceError::Refused(QuotaError::WorkExceeded {
                estimated,
                limit,
            }));
        }
        let started = Instant::now();
        let replayed_before = self.engine.replayed_rounds();
        match self.engine.apply(delta) {
            Ok(solution) => {
                let latency = started.elapsed();
                let replayed = self.engine.replayed_rounds() - replayed_before;
                for counters in [&entry.counters, &shared.global] {
                    Counters::bump(&counters.session_events);
                    counters
                        .session_replayed_rounds
                        .fetch_add(replayed, Ordering::Relaxed);
                    Counters::bump(&counters.completed);
                    counters.latency.record(latency);
                    counters.recent.record(latency);
                }
                Ok(solution)
            }
            Err(err) => {
                Counters::bump(&entry.counters.failed);
                Counters::bump(&shared.global.failed);
                Err(ServiceError::Solve(err))
            }
        }
    }

    /// The schedule of the current instance, from the cached run — no
    /// replay, no admission gate. A stale session (an apply turned a
    /// capped instance infeasible) answers with a cold solve instead
    /// ([`ReplanEngine::solution`]), which fails with the same typed
    /// error while the instance stays infeasible.
    pub fn solution(&mut self) -> Result<Solution, ServiceError> {
        self.engine.solution().map_err(ServiceError::Solve)
    }

    /// The live (mutated) instance.
    pub fn csr(&self) -> &Arc<CsrDag> {
        self.engine.csr()
    }

    /// Deltas applied so far (completions included).
    pub fn events(&self) -> u64 {
        self.engine.events()
    }

    /// Fraction of scheduling rounds actually replayed versus a
    /// from-scratch-per-event server — the number the work gate scales
    /// the kernel estimate by.
    pub fn replay_fraction(&self) -> f64 {
        self.engine.replay_fraction()
    }

    /// The incremental cost estimate the next event will be gated at.
    pub fn estimated_event_cost(&self) -> CostEstimate {
        self.engine.estimated_event_cost()
    }
}

impl ServiceHandle {
    /// Opens an incremental replanning session for `tenant` over `csr`
    /// on `m` processors, with the per-processor memory cap fixed for
    /// the session's lifetime (`None` = unrestricted).
    ///
    /// The open is where the cold solve happens, so it is gated at the
    /// *full* kernel estimate against the tenant's work gate — only
    /// the follow-up deltas get the discounted incremental estimate.
    pub fn open_session(
        &self,
        tenant: &str,
        csr: CsrDag,
        m: usize,
        cap: Option<f64>,
    ) -> Result<SessionTicket, ServiceError> {
        let shared = &*self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let Some(tenant_idx) = shared.tenant_idx(tenant) else {
            shared.count_refusal(None);
            return Err(ServiceError::Refused(QuotaError::UnknownTenant {
                tenant: tenant.to_string(),
            }));
        };
        let entry = shared.tenant(tenant_idx);
        let estimated = CostEstimate::kernel(csr.n(), csr.edge_count()).work;
        let limit = entry.policy.max_estimated_work;
        if estimated > limit {
            shared.count_refusal(Some(tenant_idx));
            return Err(ServiceError::Refused(QuotaError::WorkExceeded {
                estimated,
                limit,
            }));
        }
        let started = Instant::now();
        let engine = ReplanEngine::open(csr, m, cap).map_err(|err| {
            Counters::bump(&entry.counters.failed);
            Counters::bump(&shared.global.failed);
            ServiceError::Solve(err)
        })?;
        let latency = started.elapsed();
        for counters in [&entry.counters, &shared.global] {
            Counters::bump(&counters.sessions);
            Counters::bump(&counters.admitted);
            Counters::bump(&counters.completed);
            counters.latency.record(latency);
            counters.recent.record(latency);
        }
        Ok(SessionTicket {
            shared: Arc::clone(&self.shared),
            tenant_idx,
            engine,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::SchedulingService;
    use sws_dag::TaskGraph;
    use sws_model::error::ModelError;
    use sws_model::policy::TenantPolicy;
    use sws_model::task::TaskSet;

    fn diamond_csr() -> CsrDag {
        let tasks = TaskSet::from_ps(&[2.0, 3.0, 1.0, 4.0], &[1.0, 2.0, 3.0, 1.0]).unwrap();
        TaskGraph::from_edges(tasks, &[(0, 1), (0, 2), (1, 3), (2, 3)])
            .unwrap()
            .csr()
    }

    #[test]
    fn session_serves_deltas_and_counts_them() {
        let service = SchedulingService::builder()
            .workers(0)
            .tenant("acme", TenantPolicy::unlimited())
            .build();
        let handle = service.handle();
        let mut session = handle.open_session("acme", diamond_csr(), 2, None).unwrap();
        let sol = session
            .apply(&CsrDelta::AddTask {
                preds: vec![1, 2],
                p: 2.0,
                s: 1.0,
            })
            .unwrap();
        assert_eq!(sol.schedule.n(), 5);
        session.apply(&CsrDelta::CompleteTask { task: 0 }).unwrap();
        assert_eq!(session.events(), 2);
        let stats = handle.stats();
        let acme = stats.tenant("acme").unwrap();
        assert_eq!(acme.sessions, 1);
        assert_eq!(acme.session_events, 2);
        assert_eq!(stats.global.session_events, 2);
        service.shutdown();
    }

    #[test]
    fn unknown_tenants_cannot_open_sessions() {
        let service = SchedulingService::builder().workers(0).build();
        let err = service
            .handle()
            .open_session("nobody", diamond_csr(), 2, None)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Refused(QuotaError::UnknownTenant { .. })
        ));
        service.shutdown();
    }

    #[test]
    fn the_work_gate_prices_events_incrementally() {
        // A gate below the full kernel estimate refuses the open...
        let full = CostEstimate::kernel(4, 4).work;
        let service = SchedulingService::builder()
            .workers(0)
            .tenant(
                "tight",
                TenantPolicy::unlimited().with_max_estimated_work(full - 1.0),
            )
            .tenant("roomy", TenantPolicy::unlimited())
            .build();
        let handle = service.handle();
        let err = handle
            .open_session("tight", diamond_csr(), 2, None)
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Refused(QuotaError::WorkExceeded { .. })
        ));
        // ...while an open session's events are priced at the replay
        // fraction, which a zero-replay completion pulls below 1.
        let mut session = handle
            .open_session("roomy", diamond_csr(), 2, None)
            .unwrap();
        session.apply(&CsrDelta::CompleteTask { task: 0 }).unwrap();
        let full = CostEstimate::kernel(session.csr().n(), session.csr().edge_count()).work;
        assert!(session.estimated_event_cost().work < full);
        service.shutdown();
    }

    #[test]
    fn solve_errors_leave_the_session_usable() {
        let service = SchedulingService::builder()
            .workers(0)
            .tenant("acme", TenantPolicy::unlimited())
            .build();
        let handle = service.handle();
        let mut session = handle.open_session("acme", diamond_csr(), 2, None).unwrap();
        session.apply(&CsrDelta::CompleteTask { task: 1 }).unwrap();
        let err = session
            .apply(&CsrDelta::Recost {
                task: 1,
                p: Some(9.0),
                s: None,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Solve(ModelError::InvalidParameter { .. })
        ));
        // The refused re-estimate left the instance untouched and the
        // session live.
        assert_eq!(session.csr().p(1), 3.0);
        session
            .apply(&CsrDelta::Recost {
                task: 3,
                p: Some(9.0),
                s: None,
            })
            .unwrap();
        let stats = handle.stats();
        assert_eq!(stats.tenant("acme").unwrap().failed, 1);
        service.shutdown();
    }

    #[test]
    fn shutdown_refuses_further_session_events() {
        let service = SchedulingService::builder()
            .workers(0)
            .tenant("acme", TenantPolicy::unlimited())
            .build();
        let handle = service.handle();
        let mut session = handle.open_session("acme", diamond_csr(), 2, None).unwrap();
        service.shutdown();
        let err = session
            .apply(&CsrDelta::CompleteTask { task: 0 })
            .unwrap_err();
        assert!(matches!(err, ServiceError::ShuttingDown));
        assert!(matches!(
            handle.open_session("acme", diamond_csr(), 2, None),
            Err(ServiceError::ShuttingDown)
        ));
    }
}
