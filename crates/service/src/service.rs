//! The service runtime: admission, the worker pool, tickets and
//! shutdown.
//!
//! # Life of a request
//!
//! 1. [`ServiceHandle::submit`] runs the admission pipeline documented
//!    in `sws_model::policy` **on the caller's thread**: tenant lookup,
//!    overload shedding (below), guarantee-floor adjustment, backend
//!    planning ([`Portfolio::plan`]) and the cost/quota/queue gates.
//!    Refusals return immediately — no scheduling work was spent on
//!    them.
//! 2. Admitted requests enter the tenant's lane of the bounded
//!    deficit-round-robin queue (see `queue.rs`) with a one-shot
//!    completion channel; the caller holds the [`Ticket`]. The lane is
//!    charged the request's planned `CostEstimate` work units when a
//!    worker picks it up, so tenants share *work*, weighted by
//!    [`TenantPolicy::weight`](sws_model::policy::TenantPolicy::weight),
//!    not request counts — a flooding tenant only ever delays its own
//!    backlog. Priorities order a tenant's own lane; the aging bound
//!    ([`ServiceBuilder::age_limit`]) caps how long any queued request
//!    can be passed over regardless of weights.
//! 3. **Overload shedding.** A tenant with a configured
//!    [`ShedPolicy`](sws_model::policy::ShedPolicy) is watched on two
//!    pressure signals at every submit: its lane depth and its
//!    *recent* (windowed) p99 latency. Above the high watermarks the
//!    tenant's shed latch closes and admission walks the policy
//!    ladder — degrade toward `guarantee_floor` when the floor admits
//!    `PaperRatio`, refuse with the typed
//!    [`QuotaError::Overloaded`](sws_model::policy::QuotaError) reason
//!    otherwise — until pressure falls back under the low watermarks
//!    (hysteresis; the windowed p99 forgets, so recovery needs no
//!    manual reset).
//! 4. A worker thread dequeues the job, re-resolves the backend through
//!    the shared [`DispatchWorker`] (the same per-worker
//!    selection-plus-workspace routine the batch path uses — selection
//!    is deterministic, so the dispatched backend is exactly the
//!    planned one) and sends the terminal outcome through the channel.
//!    Cancelled and deadline-expired jobs are resolved without
//!    dispatching; a job cancelled *mid-solve* trips the cooperative
//!    [`CancelProbe`] at the next round boundary.
//! 5. [`Ticket::wait`] yields the outcome. Every admitted request gets
//!    **exactly one** terminal outcome, including through shutdown.
//!
//! # Fault tolerance
//!
//! See `docs/RELIABILITY.md` for the full failure-mode table. In short:
//!
//! * **Panic isolation.** Each dispatch runs under `catch_unwind`; a
//!   panicking backend costs that request (it resolves to
//!   [`ServiceError::SolverPanicked`] once its retry budget is spent),
//!   never the worker. The worker quarantines its workspace and keeps
//!   serving; the queue recovers from lock poisoning.
//! * **Cooperative cancellation.** Workers arm a [`CancelProbe`] with
//!   the ticket's cancel flag and deadline before dispatching, so
//!   kernel rounds, enumeration nodes and PTAS dual tests observe
//!   cancellation mid-solve within a bounded stride.
//! * **Retry with backoff.** A tenant's
//!   [`RetryPolicy`](sws_model::policy::RetryPolicy) re-queues
//!   transiently-failed attempts (backend panics; queue-full submits
//!   retry on the caller's thread) with capped exponential backoff.
//!
//! # Shutdown
//!
//! [`SchedulingService::shutdown`] stops new submissions, lets the
//! workers drain everything already queued, joins them and returns the
//! final stats. Dropping the service without calling it performs the
//! same graceful drain.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sws_core::dispatch::DispatchWorker;
use sws_core::portfolio::{Portfolio, SolvePlan};
use sws_model::cancel::{CancelProbe, InterruptReason};
use sws_model::error::ModelError;
use sws_model::policy::{AdmissionVerdict, OverflowPolicy, QuotaError, TenantPolicy};
use sws_model::solve::{BackendId, Guarantee, Solution};

use crate::queue::{JobQueue, PushError};
use crate::request::ServiceRequest;
use crate::stats::{Counters, ScopeStats, ServiceStats};

/// How a request failed to produce a solution.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Refused at admission with a typed quota/backpressure reason.
    Refused(QuotaError),
    /// The solve itself returned a typed model error — at admission
    /// (`NoQualifiedBackend` with no degradation available) or at
    /// dispatch (e.g. `BudgetNotMet`).
    Solve(ModelError),
    /// The deadline passed before a worker picked the request up, or
    /// mid-solve via the cooperative deadline probe.
    DeadlineExpired,
    /// The caller cancelled the request — before dispatch, or mid-solve
    /// via the cooperative cancellation probe.
    Cancelled,
    /// The backend panicked while solving the request, on every attempt
    /// the tenant's [`sws_model::policy::RetryPolicy`] allowed. The
    /// panic was caught at the worker boundary — the worker survives —
    /// and the payload message is preserved here.
    SolverPanicked {
        /// The backend that panicked (the planned dispatch target of
        /// the final attempt).
        backend: BackendId,
        /// The panic payload, when it carried a message.
        message: String,
    },
    /// The service is shutting down (submission refused, or — only for
    /// a service running without workers — an undrained job).
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Refused(reason) => write!(f, "refused at admission: {reason}"),
            ServiceError::Solve(err) => write!(f, "solve failed: {err}"),
            ServiceError::DeadlineExpired => write!(f, "deadline expired"),
            ServiceError::Cancelled => write!(f, "cancelled by the caller"),
            ServiceError::SolverPanicked { backend, message } => {
                write!(f, "backend {backend:?} panicked while solving: {message}")
            }
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// One admitted request's terminal outcome.
pub type ServiceOutcome = Result<Solution, ServiceError>;

/// A queued job: the owned request payload plus its completion channel.
struct Job {
    tenant_idx: usize,
    request: ServiceRequest,
    /// The guarantee the request was admitted at (floor-adjusted,
    /// possibly degraded).
    effective: Guarantee,
    /// The admission-time backend plan: workers dispatch straight to it
    /// (selection is deterministic, so this is exactly what a fresh
    /// selection would resolve) instead of paying the bid pass twice.
    plan: SolvePlan,
    /// The plan's cost in integer work units (≥ 1) — what the tenant's
    /// queue lane is charged when the job is served, and what a retry
    /// re-charges on its way back in.
    work: u64,
    deadline: Option<Instant>,
    cancel: Arc<AtomicBool>,
    submitted: Instant,
    /// Dispatch attempts already spent on this job (0 on first entry;
    /// bumped each time a panicked attempt is re-queued under the
    /// tenant's retry policy).
    attempt: u32,
    tx: mpsc::Sender<ServiceOutcome>,
}

/// One registered tenant: id, policy, counters, shed latch.
pub(crate) struct TenantEntry {
    pub(crate) id: String,
    pub(crate) policy: TenantPolicy,
    pub(crate) counters: Counters,
    /// The hysteretic overload latch: set when the tenant's pressure
    /// signals cross [`ShedPolicy`](sws_model::policy::ShedPolicy)
    /// high watermarks, cleared only once both are back under the low
    /// ones. Read/written on the submit path only.
    shedding: AtomicBool,
}

/// The outcome of the policy half of admission (steps 2–5 of the
/// documented pipeline: floor, planning, work gate, in-flight quota) —
/// everything except the queue push, shared by [`ServiceHandle::submit`]
/// and [`ServiceHandle::probe`].
enum AdmissionDecision {
    /// Admit at `effective` (degraded from `degraded_from` when set),
    /// dispatching per `plan`.
    Admit {
        effective: Guarantee,
        degraded_from: Option<Guarantee>,
        plan: SolvePlan,
        /// The degradation was forced by the overload shed ladder (not
        /// by planning failure or the work gate) — counted under the
        /// `shed` stat on top of `degraded`.
        shed_degraded: bool,
    },
    /// Refuse with a typed quota reason.
    Refuse(QuotaError),
    /// No qualifying backend (and no permitted degradation).
    NoBackend(ModelError),
}

/// State shared between the handle(s) and the workers (and, read-only,
/// the replanning sessions of `session.rs`).
pub(crate) struct Shared {
    portfolio: Portfolio,
    /// The deficit-round-robin queue, one lane per `tenants` entry
    /// (lane index == tenant index). Jobs are boxed so the per-lane
    /// heaps sift pointers, not ~200-byte payloads.
    queue: JobQueue<Box<Job>>,
    tenants: Vec<TenantEntry>,
    tenant_index: HashMap<String, usize>,
    /// Index of the aggregate entry unknown tenants map to when a
    /// default policy is configured.
    default_tenant: Option<usize>,
    pub(crate) global: Counters,
    pub(crate) accepting: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServiceStats {
        let gauges = self.queue.gauges();
        let mut tenants: Vec<ScopeStats> = self
            .tenants
            .iter()
            .map(|t| t.counters.snapshot(t.id.clone()))
            .collect();
        // Lane index == tenant index, so the queue gauges zip straight
        // onto the tenant scopes.
        for (snap, gauge) in tenants.iter_mut().zip(gauges.iter()) {
            snap.queued = gauge.depth;
            snap.deficit = gauge.deficit;
            snap.head_wait = gauge.head_wait;
        }
        let mut global = self.global.snapshot("global".into());
        // The in-flight gauge lives on the tenant counters (the quota
        // reservation must be a single per-tenant atomic step); the
        // global gauge is their sum at snapshot time.
        global.in_flight = tenants.iter().map(|t| t.in_flight).sum();
        global.queued = gauges.iter().map(|g| g.depth).sum();
        global.deficit = gauges.iter().map(|g| g.deficit).sum();
        global.head_wait = gauges.iter().filter_map(|g| g.head_wait).max();
        // The total comes from the same locked gauge read as the lanes,
        // not a second lock acquisition a worker's pop can slip between:
        // the snapshot's depths agree even while the queue drains.
        let queue_depth = global.queued;
        ServiceStats {
            global,
            tenants,
            queue_depth,
            queue_capacity: self.queue.capacity(),
        }
    }

    /// Resolves the tenant entry index for a request's tenant id.
    pub(crate) fn tenant_idx(&self, tenant: &str) -> Option<usize> {
        self.tenant_index
            .get(tenant)
            .copied()
            .or(self.default_tenant)
    }

    /// The tenant entry behind a validated index. Every index originates
    /// in [`Shared::tenant_idx`] — the `tenant_index` map values and
    /// `default_tenant` both point into `tenants` by construction — and
    /// travels unmodified inside a [`Job`], so the lookup cannot miss.
    /// Centralising the access keeps the justification in one place.
    pub(crate) fn tenant(&self, idx: usize) -> &TenantEntry {
        // sws-lint: allow(panic-policy, reason = "indices are minted only by tenant_idx() from map values and default_tenant, both in-bounds by construction, and are never arithmetic-derived")
        &self.tenants[idx]
    }

    /// Evaluates the tenant's overload pressure against its
    /// [`ShedPolicy`](sws_model::policy::ShedPolicy), advancing the
    /// hysteretic latch when `update` is set (the submit path) and
    /// only peeking when it is not (the side-effect-free `probe`).
    /// Returns the pressure readings `(lane depth, recent p99)` while
    /// the tenant should shed, `None` otherwise.
    fn shed_pressure(&self, tenant_idx: usize, update: bool) -> Option<(usize, Option<Duration>)> {
        let entry = self.tenant(tenant_idx);
        let shed = &entry.policy.shed;
        if !shed.is_enabled() {
            return None;
        }
        let queued = self.queue.lane_depth(tenant_idx);
        let recent_p99 = entry.counters.recent.quantile(0.99);
        let latched = entry.shedding.load(Ordering::Relaxed);
        let next = if latched {
            // Leaving shedding needs *both* signals back under their
            // low watermarks — the hysteresis half of the latch.
            !shed.under_low(queued, recent_p99)
        } else {
            shed.over_high(queued, recent_p99)
        };
        if update && next != latched {
            entry.shedding.store(next, Ordering::Relaxed);
        }
        next.then_some((queued, recent_p99))
    }

    /// The policy half of admission — see [`AdmissionDecision`].
    /// `shed` carries the tenant's pressure readings when its overload
    /// latch is closed (see [`Shared::shed_pressure`]).
    fn decide(
        &self,
        tenant_idx: usize,
        request: &ServiceRequest,
        shed: Option<(usize, Option<Duration>)>,
    ) -> AdmissionDecision {
        let entry = self.tenant(tenant_idx);
        let policy = entry.policy;
        let mut effective = policy.effective_guarantee(request.guarantee);
        let mut degraded_from = None;
        let can_degrade = policy.overflow == OverflowPolicy::Degrade
            && Guarantee::PaperRatio.satisfies(&policy.guarantee_floor);
        let stronger_than_paper =
            |g: Guarantee| matches!(g, Guarantee::Exact | Guarantee::EpsilonOptimal(_));
        let plan_at = |g: Guarantee| {
            self.portfolio
                .plan(&request.instance.as_request(request.objective, g))
        };

        // Overload shed ladder, before any planning work is spent:
        // degrade toward the guarantee floor when the floor admits the
        // paper-ratio tier (whatever the overflow policy — this is an
        // overload response, not an overflow one); otherwise refuse
        // with the typed overload reason.
        let mut shed_degraded = false;
        if let Some((queued, recent_p99)) = shed {
            if stronger_than_paper(effective)
                && Guarantee::PaperRatio.satisfies(&policy.guarantee_floor)
            {
                degraded_from = Some(effective);
                effective = Guarantee::PaperRatio;
                shed_degraded = true;
            } else {
                return AdmissionDecision::Refuse(QuotaError::Overloaded {
                    tenant: entry.id.clone(),
                    queued,
                    recent_p99,
                });
            }
        }

        // Backend planning, degrading on `NoQualifiedBackend` when the
        // policy allows it.
        let mut plan = match plan_at(effective) {
            Ok(plan) => plan,
            Err(err) => {
                if can_degrade && stronger_than_paper(effective) {
                    match plan_at(Guarantee::PaperRatio) {
                        Ok(plan) => {
                            degraded_from = Some(effective);
                            effective = Guarantee::PaperRatio;
                            plan
                        }
                        Err(_) => return AdmissionDecision::NoBackend(err),
                    }
                } else {
                    return AdmissionDecision::NoBackend(err);
                }
            }
        };

        // Work gate, degrading once when the policy allows it.
        if plan.cost.work > policy.max_estimated_work {
            let mut resolved = false;
            if can_degrade && degraded_from.is_none() && stronger_than_paper(effective) {
                if let Ok(cheaper) = plan_at(Guarantee::PaperRatio) {
                    if cheaper.cost.work <= policy.max_estimated_work {
                        degraded_from = Some(effective);
                        effective = Guarantee::PaperRatio;
                        plan = cheaper;
                        resolved = true;
                    }
                }
            }
            if !resolved {
                return AdmissionDecision::Refuse(QuotaError::WorkExceeded {
                    estimated: plan.cost.work,
                    limit: policy.max_estimated_work,
                });
            }
        }

        // In-flight quota (`OverflowPolicy::Queue` absorbs bursts in
        // the bounded queue instead). This read is the advisory view
        // `probe` reports; `submit` re-enforces the quota atomically in
        // [`Shared::reserve_in_flight`], where concurrent submits
        // cannot race past it.
        let in_flight = entry.counters.in_flight.load(Ordering::Relaxed);
        if in_flight >= policy.max_in_flight && policy.overflow != OverflowPolicy::Queue {
            return AdmissionDecision::Refuse(QuotaError::InFlightExceeded {
                tenant: entry.id.clone(),
                in_flight,
                limit: policy.max_in_flight,
            });
        }

        AdmissionDecision::Admit {
            effective,
            degraded_from,
            plan,
            shed_degraded,
        }
    }

    /// Atomically reserves one in-flight slot for the tenant: the quota
    /// comparison and the increment are a single compare-and-swap, so
    /// concurrent submits on the same tenant cannot all slip past a
    /// nearly-full quota. `Queue`-overflow tenants always reserve (the
    /// bounded queue is their only limit).
    fn reserve_in_flight(&self, tenant_idx: usize) -> Result<(), QuotaError> {
        let entry = self.tenant(tenant_idx);
        let counter = &entry.counters.in_flight;
        let mut current = counter.load(Ordering::Relaxed);
        loop {
            if current >= entry.policy.max_in_flight
                && entry.policy.overflow != OverflowPolicy::Queue
            {
                return Err(QuotaError::InFlightExceeded {
                    tenant: entry.id.clone(),
                    in_flight: current,
                    limit: entry.policy.max_in_flight,
                });
            }
            match counter.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => current = actual,
            }
        }
    }

    /// Counts a refusal against a tenant (when known) and globally.
    pub(crate) fn count_refusal(&self, tenant_idx: Option<usize>) {
        if let Some(idx) = tenant_idx {
            Counters::bump(&self.tenant(idx).counters.refused);
        }
        Counters::bump(&self.global.refused);
    }

    /// Eagerly purges queued jobs that can no longer run — cancelled,
    /// or past their deadline — resolving each to its terminal outcome
    /// immediately, so dead work never holds queue capacity against a
    /// live submission. Returns the number purged.
    fn purge_dead_jobs(&self) -> usize {
        let now = Instant::now();
        let dead = self.queue.drain_matching(|job| {
            job.cancel.load(Ordering::Relaxed) || job.deadline.is_some_and(|d| now >= d)
        });
        let purged = dead.len();
        for job in dead {
            let counters = &self.tenant(job.tenant_idx).counters;
            let outcome = if job.cancel.load(Ordering::Relaxed) {
                Counters::bump(&counters.cancelled);
                Counters::bump(&self.global.cancelled);
                Err(ServiceError::Cancelled)
            } else {
                Counters::bump(&counters.expired);
                Counters::bump(&self.global.expired);
                Err(ServiceError::DeadlineExpired)
            };
            counters.in_flight.fetch_sub(1, Ordering::Relaxed);
            let _ = job.tx.send(outcome);
        }
        purged
    }
}

/// The caller's side of one admitted request: the admission verdict and
/// the completion receiver.
pub struct Ticket {
    verdict: AdmissionVerdict,
    effective: Guarantee,
    cancel: Arc<AtomicBool>,
    rx: mpsc::Receiver<ServiceOutcome>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("verdict", &self.verdict)
            .field("effective", &self.effective)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// The admission verdict (admitted or degraded; refusals never
    /// produce a ticket).
    pub fn verdict(&self) -> &AdmissionVerdict {
        &self.verdict
    }

    /// The guarantee the request was admitted at — the level the
    /// delivered solution satisfies, and the level to use when
    /// reproducing the result with a direct `Portfolio::solve` call.
    pub fn effective_guarantee(&self) -> Guarantee {
        self.effective
    }

    /// Requests cancellation. Observed at two points: a job still
    /// queued resolves to [`ServiceError::Cancelled`] without
    /// dispatching, and a job already running trips the worker's
    /// cooperative [`CancelProbe`] at the next round boundary —
    /// kernel rounds, branch-and-bound/enumeration nodes and PTAS
    /// dual tests all poll it on a bounded stride. Only a solve in its
    /// final stretch (or on a backend with no round structure, e.g. the
    /// `O(n log n)` heuristics) still completes normally.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Blocks until the terminal outcome arrives. Every admitted
    /// request gets exactly one.
    pub fn wait(self) -> ServiceOutcome {
        self.rx.recv().unwrap_or(Err(ServiceError::ShuttingDown))
    }

    /// Non-blocking poll: `Ok(outcome)` when resolved, `Err(self)` (the
    /// ticket back) when still pending.
    pub fn try_wait(self) -> Result<ServiceOutcome, Ticket> {
        match self.rx.try_recv() {
            Ok(outcome) => Ok(outcome),
            Err(mpsc::TryRecvError::Empty) => Err(self),
            Err(mpsc::TryRecvError::Disconnected) => Ok(Err(ServiceError::ShuttingDown)),
        }
    }
}

/// A cloneable submission handle onto a running service.
#[derive(Clone)]
pub struct ServiceHandle {
    pub(crate) shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Submits a request through the admission pipeline. `Ok` returns a
    /// [`Ticket`] whose verdict is `Admitted` or `Degraded`; `Err` *is*
    /// the request's terminal outcome (refusal, no qualifying backend,
    /// or shutdown) — no ticket exists for it.
    pub fn submit(&self, request: ServiceRequest) -> Result<Ticket, ServiceError> {
        let shared = &*self.shared;
        if !shared.accepting.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }

        let Some(tenant_idx) = shared.tenant_idx(&request.tenant) else {
            shared.count_refusal(None);
            return Err(ServiceError::Refused(QuotaError::UnknownTenant {
                tenant: request.tenant.clone(),
            }));
        };
        let shed = shared.shed_pressure(tenant_idx, true);
        let decision = shared.decide(tenant_idx, &request, shed);
        let (effective, degraded_from, plan, shed_degraded) = match decision {
            AdmissionDecision::Admit {
                effective,
                degraded_from,
                plan,
                shed_degraded,
            } => (effective, degraded_from, plan, shed_degraded),
            AdmissionDecision::Refuse(reason) => {
                if matches!(reason, QuotaError::Overloaded { .. }) {
                    Counters::bump(&shared.tenant(tenant_idx).counters.shed);
                    Counters::bump(&shared.global.shed);
                }
                shared.count_refusal(Some(tenant_idx));
                return Err(ServiceError::Refused(reason));
            }
            AdmissionDecision::NoBackend(err) => {
                shared.count_refusal(Some(tenant_idx));
                return Err(ServiceError::Solve(err));
            }
        };

        // Enqueue with the completion channel.
        let entry = shared.tenant(tenant_idx);
        let (tx, rx) = mpsc::channel();
        let cancel = Arc::new(AtomicBool::new(false));
        let submitted = Instant::now();
        let priority = request.priority;
        let work = work_units(plan.cost.work);
        let job = Job {
            tenant_idx,
            deadline: request.deadline.map(|d| submitted + d),
            effective,
            plan,
            work,
            cancel: Arc::clone(&cancel),
            submitted,
            attempt: 0,
            tx,
            request,
        };
        if let Err(reason) = shared.reserve_in_flight(tenant_idx) {
            shared.count_refusal(Some(tenant_idx));
            return Err(ServiceError::Refused(reason));
        }
        // Push, treating backpressure as transient: a full queue first
        // gets its dead jobs (cancelled / past-deadline) purged, then
        // the tenant's retry policy spends its backoff budget before
        // the submission is refused with `QueueFull`.
        let retry = entry.policy.retry;
        let mut job = Box::new(job);
        let mut purged_free_retry = true;
        let mut full_attempts = 0u32;
        loop {
            match shared.queue.push(tenant_idx, priority, work, job) {
                Ok(()) => break,
                // `NoSuchLane` cannot happen (one lane per tenant entry
                // by construction); folding it into the shutdown arm
                // keeps the match total without a panic path.
                Err((_job, PushError::Closed | PushError::NoSuchLane)) => {
                    entry.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
                    return Err(ServiceError::ShuttingDown);
                }
                Err((returned, PushError::Full)) => {
                    job = returned;
                    // The purge retry is free exactly once: if it freed
                    // capacity the push deserves another go before any
                    // of the retry budget is spent.
                    if purged_free_retry {
                        purged_free_retry = false;
                        if shared.purge_dead_jobs() > 0 {
                            continue;
                        }
                    }
                    full_attempts += 1;
                    if !retry.should_retry(full_attempts) {
                        entry.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
                        shared.count_refusal(Some(tenant_idx));
                        return Err(ServiceError::Refused(QuotaError::QueueFull {
                            capacity: shared.queue.capacity(),
                        }));
                    }
                    Counters::bump(&entry.counters.retried);
                    Counters::bump(&shared.global.retried);
                    std::thread::sleep(retry.backoff_for(full_attempts));
                    shared.purge_dead_jobs();
                }
            }
        }
        Counters::bump(&entry.counters.admitted);
        Counters::bump(&shared.global.admitted);
        let verdict = match degraded_from {
            Some(from) => {
                Counters::bump(&entry.counters.degraded);
                Counters::bump(&shared.global.degraded);
                if shed_degraded {
                    Counters::bump(&entry.counters.shed);
                    Counters::bump(&shared.global.shed);
                }
                AdmissionVerdict::Degraded {
                    from,
                    to: effective,
                    backend: plan.backend,
                    cost: plan.cost,
                }
            }
            None => AdmissionVerdict::Admitted {
                backend: plan.backend,
                cost: plan.cost,
            },
        };
        Ok(Ticket {
            verdict,
            effective,
            cancel,
            rx,
        })
    }

    /// Runs the admission pipeline **without** enqueuing: the verdict a
    /// [`ServiceHandle::submit`] call would reach right now (modulo the
    /// queue-capacity gate, which only an actual push can decide).
    /// Quota and backend refusals come back as
    /// [`AdmissionVerdict::Refused`] / [`ServiceError::Solve`]; nothing
    /// is counted in the stats.
    pub fn probe(&self, request: &ServiceRequest) -> Result<AdmissionVerdict, ServiceError> {
        let shared = &*self.shared;
        let Some(tenant_idx) = shared.tenant_idx(&request.tenant) else {
            return Ok(AdmissionVerdict::Refused {
                reason: QuotaError::UnknownTenant {
                    tenant: request.tenant.clone(),
                },
            });
        };
        let shed = shared.shed_pressure(tenant_idx, false);
        match shared.decide(tenant_idx, request, shed) {
            AdmissionDecision::Admit {
                effective,
                degraded_from,
                plan,
                shed_degraded: _,
            } => Ok(match degraded_from {
                Some(from) => AdmissionVerdict::Degraded {
                    from,
                    to: effective,
                    backend: plan.backend,
                    cost: plan.cost,
                },
                None => AdmissionVerdict::Admitted {
                    backend: plan.backend,
                    cost: plan.cost,
                },
            }),
            AdmissionDecision::Refuse(reason) => Ok(AdmissionVerdict::Refused { reason }),
            AdmissionDecision::NoBackend(err) => Err(ServiceError::Solve(err)),
        }
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServiceStats {
        self.shared.stats()
    }

    /// Requests currently queued.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }
}

/// The plan's floating-point work estimate as integer queue work units
/// (≥ 1; non-finite or sub-unit estimates charge the minimum).
fn work_units(cost_work: f64) -> u64 {
    if cost_work.is_finite() && cost_work >= 1.0 {
        cost_work.min(u64::MAX as f64) as u64
    } else {
        1
    }
}

/// Builder for a [`SchedulingService`].
pub struct ServiceBuilder {
    workers: usize,
    queue_capacity: usize,
    tenants: Vec<(String, TenantPolicy)>,
    default_policy: Option<TenantPolicy>,
    portfolio: Option<Portfolio>,
    age_limit: Option<Duration>,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServiceBuilder {
    /// The default aging bound: generous next to the service's
    /// microsecond-to-millisecond solve times, so it never distorts
    /// weighted fairness in steady state, yet it caps how long a
    /// low-weight tenant's head-of-line request can wait under a
    /// sustained flood.
    pub const DEFAULT_AGE_LIMIT: Duration = Duration::from_secs(2);

    /// Defaults: one worker per available core, queue capacity 1024, no
    /// tenants, no default policy, `Portfolio::standard()`, aging bound
    /// [`ServiceBuilder::DEFAULT_AGE_LIMIT`].
    pub fn new() -> Self {
        ServiceBuilder {
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            queue_capacity: 1024,
            tenants: Vec::new(),
            default_policy: None,
            portfolio: None,
            age_limit: Some(Self::DEFAULT_AGE_LIMIT),
        }
    }

    /// Worker-thread count. `0` is allowed and means "admission only":
    /// jobs queue but are never dispatched until shutdown resolves them
    /// with [`ServiceError::ShuttingDown`] — useful for testing
    /// admission behavior deterministically.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounded queue capacity (≥ 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity >= 1, "queue capacity must be at least 1");
        self.queue_capacity = capacity;
        self
    }

    /// Registers a tenant with its admission policy.
    pub fn tenant(mut self, id: impl Into<String>, policy: TenantPolicy) -> Self {
        self.tenants.push((id.into(), policy));
        self
    }

    /// Accepts unknown tenants under this policy, tracked under the
    /// reserved aggregate scope `"*"` (registering a tenant literally
    /// named `"*"` together with a default policy is rejected at
    /// [`ServiceBuilder::build`]). Without it, unknown tenants are
    /// refused.
    pub fn default_policy(mut self, policy: TenantPolicy) -> Self {
        self.default_policy = Some(policy);
        self
    }

    /// Replaces the default `Portfolio::standard()` backend registry.
    pub fn portfolio(mut self, portfolio: Portfolio) -> Self {
        self.portfolio = Some(portfolio);
        self
    }

    /// The aging bound: a queued request older than this is served
    /// next, out of rotation, whatever the tenant weights say — the
    /// worst-case wait for any tenant's next-in-line request is capped
    /// at roughly this bound plus one in-flight solve per worker.
    /// `None` disables aging (pure weighted DRR).
    pub fn age_limit(mut self, limit: Option<Duration>) -> Self {
        self.age_limit = limit;
        self
    }

    /// Starts the service: spawns the worker pool and returns the
    /// running service.
    pub fn build(self) -> SchedulingService {
        let mut tenants: Vec<TenantEntry> = self
            .tenants
            .into_iter()
            .map(|(id, policy)| TenantEntry {
                id,
                policy,
                counters: Counters::new(),
                shedding: AtomicBool::new(false),
            })
            .collect();
        let default_tenant = self.default_policy.map(|policy| {
            assert!(
                tenants.iter().all(|t| t.id != "*"),
                "tenant id \"*\" is reserved for the default policy's aggregate scope"
            );
            tenants.push(TenantEntry {
                id: "*".to_string(),
                policy,
                counters: Counters::new(),
                shedding: AtomicBool::new(false),
            });
            tenants.len() - 1
        });
        let tenant_index: HashMap<String, usize> = tenants
            .iter()
            .enumerate()
            .map(|(idx, t)| (t.id.clone(), idx))
            .collect();
        let weights: Vec<u32> = tenants.iter().map(|t| t.policy.weight).collect();
        let shared = Arc::new(Shared {
            portfolio: self.portfolio.unwrap_or_default(),
            queue: JobQueue::new(self.queue_capacity, &weights, self.age_limit),
            tenants,
            tenant_index,
            default_tenant,
            global: Counters::new(),
            accepting: AtomicBool::new(true),
        });
        let workers = (0..self.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        SchedulingService { shared, workers }
    }
}

/// One worker thread: drain the queue through the shared dispatch core
/// until the queue is closed and empty. The loop is self-healing — no
/// job, however it fails, terminates the thread.
fn worker_loop(shared: &Shared) {
    let mut dispatcher = DispatchWorker::new(&shared.portfolio);
    while let Some(job) = shared.queue.pop() {
        // `resolve_job` already isolates backend panics; this outer
        // guard is the worker's last line of defense — a panic anywhere
        // else in the resolution path must not kill the thread, or the
        // pool would silently shrink under faults. The job's channel
        // drops with it, so its ticket still resolves (to
        // `ShuttingDown` via the disconnect) rather than hanging.
        if catch_unwind(AssertUnwindSafe(|| {
            resolve_job(shared, &mut dispatcher, job)
        }))
        .is_err()
        {
            dispatcher.reset_workspace();
        }
    }
}

/// Resolves one dequeued job: to its terminal outcome, or back into the
/// queue when a panicked attempt has retry budget left. Takes the job
/// boxed — exactly as it leaves the queue — so the worker loop never
/// unboxes the ~200-byte payload onto its stack.
#[allow(clippy::boxed_local)]
fn resolve_job(shared: &Shared, dispatcher: &mut DispatchWorker<'_>, job: Box<Job>) {
    let counters = &shared.tenant(job.tenant_idx).counters;
    if job.cancel.load(Ordering::Relaxed) {
        Counters::bump(&counters.cancelled);
        Counters::bump(&shared.global.cancelled);
        return finish_job(shared, job, Err(ServiceError::Cancelled));
    }
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        Counters::bump(&counters.expired);
        Counters::bump(&shared.global.expired);
        return finish_job(shared, job, Err(ServiceError::DeadlineExpired));
    }

    // Arm the cooperative probe: the solve observes the ticket's cancel
    // flag and the deadline between kernel rounds / search nodes / dual
    // tests instead of running to completion regardless.
    let mut probe = CancelProbe::with_flag(Arc::clone(&job.cancel));
    if let Some(deadline) = job.deadline {
        probe = probe.and_deadline(deadline);
    }
    dispatcher.set_probe(probe);
    let req = job
        .request
        .instance
        .as_request(job.request.objective, job.effective);
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        dispatcher.solve_planned(&req, &job.plan)
    }));
    dispatcher.clear_probe();

    let outcome: ServiceOutcome = match attempt {
        Ok(Ok(mut solution)) => {
            solution.stats.attempts = job.attempt + 1;
            let latency = job.submitted.elapsed();
            counters.latency.record(latency);
            counters.recent.record(latency);
            shared.global.latency.record(latency);
            shared.global.recent.record(latency);
            Counters::bump(&counters.completed);
            Counters::bump(&shared.global.completed);
            Ok(solution)
        }
        Ok(Err(ModelError::Interrupted {
            reason: InterruptReason::Cancelled,
        })) => {
            Counters::bump(&counters.cancelled);
            Counters::bump(&shared.global.cancelled);
            Err(ServiceError::Cancelled)
        }
        Ok(Err(ModelError::Interrupted {
            reason: InterruptReason::DeadlineExpired,
        })) => {
            Counters::bump(&counters.expired);
            Counters::bump(&shared.global.expired);
            Err(ServiceError::DeadlineExpired)
        }
        Ok(Err(err)) => {
            Counters::bump(&counters.failed);
            Counters::bump(&shared.global.failed);
            Err(ServiceError::Solve(err))
        }
        Err(payload) => {
            // The backend panicked. Quarantine the workspace (the
            // unwound solve may have left its buffers mid-run), then
            // run the tenant's retry ladder — the worker
            // itself never dies.
            dispatcher.reset_workspace();
            let message = panic_message(&*payload);
            return match retry_after_panic(shared, job, message) {
                None => {}
                Some((job, outcome)) => finish_job(shared, job, outcome),
            };
        }
    };
    finish_job(shared, job, outcome);
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The retry ladder for a panicked attempt. Returns `None` when the job
/// went back into the queue for another attempt, or
/// `Some((job, outcome))` when the failure is terminal.
///
/// While the tenant's [`RetryPolicy`](sws_model::policy::RetryPolicy)
/// has attempts left, sleep the capped exponential backoff (clipped to
/// the job's deadline) and re-queue; once exhausted, resolve to
/// [`ServiceError::SolverPanicked`].
#[allow(clippy::boxed_local)]
fn retry_after_panic(
    shared: &Shared,
    mut job: Box<Job>,
    message: String,
) -> Option<(Box<Job>, ServiceOutcome)> {
    let entry = shared.tenant(job.tenant_idx);
    let counters = &entry.counters;
    let retry = entry.policy.retry;
    let attempts_made = job.attempt + 1;

    if retry.should_retry(attempts_made) {
        let mut backoff = retry.backoff_for(attempts_made);
        if let Some(deadline) = job.deadline {
            backoff = backoff.min(deadline.saturating_duration_since(Instant::now()));
        }
        std::thread::sleep(backoff);
        Counters::bump(&counters.retried);
        Counters::bump(&shared.global.retried);
        job.attempt = attempts_made;
        let priority = job.request.priority;
        let (lane, work) = (job.tenant_idx, job.work);
        match shared.queue.push(lane, priority, work, job) {
            Ok(()) => return None,
            // Queue closed (shutdown) or full: no slot for another
            // attempt, so the failure is terminal after all.
            Err((returned, _)) => job = returned,
        }
    }

    Counters::bump(&counters.panicked);
    Counters::bump(&shared.global.panicked);
    let backend = job.plan.backend;
    Some((job, Err(ServiceError::SolverPanicked { backend, message })))
}

/// Delivers a job's terminal outcome: releases the tenant's in-flight
/// slot and sends through the completion channel. The caller may have
/// dropped the ticket; the outcome is then discarded, which is its
/// terminal state.
#[allow(clippy::boxed_local)]
fn finish_job(shared: &Shared, job: Box<Job>, outcome: ServiceOutcome) {
    let counters = &shared.tenant(job.tenant_idx).counters;
    counters.in_flight.fetch_sub(1, Ordering::Relaxed);
    let _ = job.tx.send(outcome);
}

/// The running service: worker pool + shared state. Submission happens
/// through [`SchedulingService::handle`] clones; the service object
/// itself owns shutdown.
pub struct SchedulingService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl SchedulingService {
    /// A builder with the documented defaults.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// A cloneable submission handle.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: stop accepting, let the workers drain the
    /// queue, join them, resolve anything left (possible only when the
    /// service runs with zero workers) and return the final stats.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_in_place();
        self.shared.stats()
    }

    fn shutdown_in_place(&mut self) {
        self.shared.accepting.store(false, Ordering::Release);
        self.shared.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        // With zero workers nothing drains the queue: resolve leftovers
        // so the exactly-one-outcome contract holds unconditionally.
        // Cancelled jobs report their cancellation; the rest see the
        // shutdown.
        while let Some(job) = self.shared.queue.try_pop() {
            let counters = &self.shared.tenant(job.tenant_idx).counters;
            let outcome = if job.cancel.load(Ordering::Relaxed) {
                Counters::bump(&counters.cancelled);
                Counters::bump(&self.shared.global.cancelled);
                Err(ServiceError::Cancelled)
            } else {
                Err(ServiceError::ShuttingDown)
            };
            counters.in_flight.fetch_sub(1, Ordering::Relaxed);
            let _ = job.tx.send(outcome);
        }
    }

    /// Wall-clock helper: submits a whole batch of requests from this
    /// thread and waits for every outcome, preserving submission order
    /// (refusals land in their slot as `Err`). The service-side
    /// analogue of `BatchScheduler::run_requests`, and the shape the
    /// throughput bench measures. The queue capacity must cover the
    /// batch size, or the tail sees `QueueFull` refusals — that is the
    /// bounded queue working as specified.
    pub fn run_all(&self, requests: Vec<ServiceRequest>) -> Vec<ServiceOutcome> {
        let handle = self.handle();
        let tickets: Vec<Result<Ticket, ServiceError>> =
            requests.into_iter().map(|r| handle.submit(r)).collect();
        // Wait back to front: equal-priority FIFO dispatch resolves the
        // last submission last, so the caller blocks (and wakes) once
        // instead of once per outcome — on a single shared core the
        // per-completion wakeups would otherwise cost a context switch
        // per request. Collecting in reverse and flipping once restores
        // submission order without indexed slots.
        let mut outcomes: Vec<ServiceOutcome> = tickets
            .into_iter()
            .rev()
            .map(|ticket| match ticket {
                Ok(ticket) => ticket.wait(),
                Err(err) => Err(err),
            })
            .collect();
        outcomes.reverse();
        outcomes
    }
}

impl Drop for SchedulingService {
    fn drop(&mut self) {
        // Unconditional and idempotent: even a zero-worker service with
        // an empty queue must stop accepting, or a surviving handle
        // could enqueue a job nothing will ever resolve.
        self.shutdown_in_place();
    }
}
