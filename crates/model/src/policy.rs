//! Tenant policies and admission vocabulary for serving fronts.
//!
//! A scheduling *service* (see the `sws_service` crate) accepts
//! [`crate::solve::SolveRequest`]s from many tenants and must decide —
//! **before** spending any scheduling work — whether to admit, degrade
//! or refuse each request. The decision vocabulary lives here at the
//! model layer, next to [`Guarantee`] and
//! [`CostEstimate`], so every front (the
//! in-process service, the batch path, future network fronts) speaks the
//! same admission language and the policy table in `docs/ALGORITHMS.md`
//! has one source of truth.
//!
//! The admission pipeline a front is expected to run per request:
//!
//! 1. **Tenant lookup** — unknown tenants are refused
//!    ([`QuotaError::UnknownTenant`]) unless a default policy is
//!    configured.
//! 2. **Guarantee floor** — the request's required guarantee is raised
//!    to the tenant's [`TenantPolicy::guarantee_floor`] when it asks for
//!    less (the tenant's SLA class is a *minimum*, not a suggestion).
//! 3. **Backend planning** — the routing layer resolves the cheapest
//!    qualifying backend and its [`CostEstimate`]. No backend at the
//!    required level either degrades (policy permitting) or surfaces the
//!    typed `NoQualifiedBackend` refusal.
//! 4. **Work gate** — an estimate above
//!    [`TenantPolicy::max_estimated_work`] is refused
//!    ([`QuotaError::WorkExceeded`]) or, under
//!    [`OverflowPolicy::Degrade`], re-planned at
//!    [`Guarantee::PaperRatio`].
//! 5. **In-flight quota** — a tenant at
//!    [`TenantPolicy::max_in_flight`] admitted-but-unfinished requests
//!    is refused ([`QuotaError::InFlightExceeded`]) unless its overflow
//!    policy is [`OverflowPolicy::Queue`].
//! 6. **Queue capacity** — a full bounded queue refuses
//!    ([`QuotaError::QueueFull`]) regardless of policy; backpressure is
//!    never silent.

use std::fmt;
use std::time::Duration;

use crate::solve::{BackendId, CostEstimate, Guarantee};

/// When a serving front should start and stop *shedding* a tenant's
/// load — the overload half of the admission vocabulary.
///
/// A front tracks two pressure signals per tenant: the tenant's queued
/// backlog (jobs admitted but not yet dispatched) and its recent p99
/// submit→completion latency over a sliding window. Either signal
/// crossing its **high** watermark puts the tenant into the *shedding*
/// state; the tenant leaves it only when **both** signals are back at
/// or under their **low** watermarks — classic hysteresis, so admission
/// does not flap at the threshold.
///
/// While shedding, the front walks the documented ladder instead of
/// admitting at full strength: requests above
/// [`Guarantee::PaperRatio`] are
/// degraded toward the tenant's [`TenantPolicy::guarantee_floor`]
/// (when the floor admits it), and everything else is refused with the
/// typed [`QuotaError::Overloaded`] — the same refusal vocabulary every
/// other gate speaks, so edges can map it onto backpressure codes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShedPolicy {
    /// Enter shedding when the tenant's queued backlog reaches this.
    pub queue_high: usize,
    /// Leave shedding only once the backlog is back at or under this
    /// (and the p99 signal, when configured, is also under its low
    /// watermark). Clamped to `queue_high` at construction.
    pub queue_low: usize,
    /// Enter shedding when the tenant's recent p99 latency exceeds
    /// this. `None` disables the latency signal.
    pub p99_high: Option<Duration>,
    /// Leave shedding only once the recent p99 is back at or under
    /// this. Defaults to `p99_high` when unset.
    pub p99_low: Option<Duration>,
}

impl ShedPolicy {
    /// A policy that never sheds (both signals disabled).
    pub fn disabled() -> Self {
        ShedPolicy {
            queue_high: usize::MAX,
            queue_low: usize::MAX,
            p99_high: None,
            p99_low: None,
        }
    }

    /// Sheds on queued backlog: enter at `high`, recover at `low`
    /// (clamped to `high`).
    pub fn on_queue_depth(high: usize, low: usize) -> Self {
        ShedPolicy {
            queue_high: high.max(1),
            queue_low: low.min(high),
            ..Self::disabled()
        }
    }

    /// Adds the latency signal: enter when the recent p99 exceeds
    /// `high`, recover once it is back at or under `low` (clamped to
    /// `high`).
    pub fn with_p99(mut self, high: Duration, low: Duration) -> Self {
        self.p99_high = Some(high);
        self.p99_low = Some(low.min(high));
        self
    }

    /// Whether any pressure signal is configured.
    pub fn is_enabled(&self) -> bool {
        self.queue_high != usize::MAX || self.p99_high.is_some()
    }

    /// Whether `(backlog, recent p99)` is over a high watermark — the
    /// condition for *entering* the shedding state.
    pub fn over_high(&self, queued: usize, recent_p99: Option<Duration>) -> bool {
        if queued >= self.queue_high {
            return true;
        }
        match (recent_p99, self.p99_high) {
            (Some(p99), Some(high)) => p99 > high,
            _ => false,
        }
    }

    /// Whether `(backlog, recent p99)` is back under every low
    /// watermark — the condition for *leaving* the shedding state.
    pub fn under_low(&self, queued: usize, recent_p99: Option<Duration>) -> bool {
        if self.queue_high != usize::MAX && queued > self.queue_low {
            return false;
        }
        match (recent_p99, self.p99_low.or(self.p99_high)) {
            (Some(p99), Some(low)) => p99 <= low,
            // No latency samples in the window (or signal disabled)
            // counts as recovered pressure.
            _ => true,
        }
    }
}

impl Default for ShedPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

/// What a tenant's requests do when a gate trips (quota reached, work
/// estimate over budget, or no backend at the required guarantee).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Refuse immediately with the typed [`QuotaError`].
    Reject,
    /// Absorb bursts in the bounded queue: the per-tenant in-flight
    /// quota is not enforced (only a full queue refuses). Work-estimate
    /// and guarantee failures still refuse — queueing cannot make a
    /// request cheaper.
    Queue,
    /// Downgrade the required guarantee to
    /// [`Guarantee::PaperRatio`] (never below
    /// [`TenantPolicy::guarantee_floor`]) and re-plan; refuse only when
    /// the degraded request still fails its gates.
    Degrade,
}

impl OverflowPolicy {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            OverflowPolicy::Reject => "reject",
            OverflowPolicy::Queue => "queue",
            OverflowPolicy::Degrade => "degrade",
        }
    }
}

/// How a tenant's requests respond to *transient* failures — a full
/// queue at submission, or a solver panic mid-dispatch. Typed solve
/// errors (e.g. `BudgetNotMet`) and cancellations are never retried:
/// they are answers, not accidents.
///
/// Backoff is capped exponential with deterministic jitter: retry `k`
/// (1-based) sleeps `min(base · 2^(k−1), max) · (1 + jitter · u_k)`
/// where `u_k ∈ [0, 1)` is drawn from a splitmix64 hash of
/// `jitter_seed ^ k` — the same seed always produces the same backoff
/// sequence, which keeps fault-injection tests reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first; `1` disables retries.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff (pre-jitter).
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by up to
    /// this fraction of itself.
    pub jitter: f64,
    /// Seed for the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            jitter_seed: 0,
        }
    }

    /// Up to `max_attempts` total attempts with a small default backoff
    /// (1 ms base, 100 ms cap, 10% jitter).
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(100),
            jitter: 0.1,
            jitter_seed: 0x5157_2e8a_9d1c_f00d,
        }
    }

    /// Replaces the backoff bracket.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> Self {
        self.base_backoff = base;
        self.max_backoff = max.max(base);
        self
    }

    /// Replaces the jitter fraction and seed.
    pub fn with_jitter(mut self, jitter: f64, seed: u64) -> Self {
        self.jitter = jitter.clamp(0.0, 1.0);
        self.jitter_seed = seed;
        self
    }

    /// Whether another attempt is allowed after `attempts_made`
    /// attempts have already failed.
    pub fn should_retry(&self, attempts_made: u32) -> bool {
        attempts_made < self.max_attempts
    }

    /// The backoff before retry `retry` (1-based): capped exponential
    /// plus deterministic jitter. `retry = 0` returns zero.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        if retry == 0 || self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let doublings = (retry - 1).min(32);
        let raw = self
            .base_backoff
            .saturating_mul(1u32 << doublings.min(31))
            .min(self.max_backoff);
        if self.jitter <= 0.0 {
            return raw;
        }
        let unit = splitmix64(self.jitter_seed ^ u64::from(retry)) as f64 / (u64::MAX as f64 + 1.0);
        raw.mul_f64(1.0 + self.jitter * unit)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// The splitmix64 mixing function — a tiny, high-quality hash used for
/// deterministic jitter (and by the service layer's fault harness).
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-tenant admission policy: quotas, the cost gate and the guarantee
/// class the tenant is served at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantPolicy {
    /// Maximum admitted-but-unfinished requests; beyond it, admission
    /// follows [`TenantPolicy::overflow`].
    pub max_in_flight: usize,
    /// Maximum pre-dispatch [`CostEstimate::work`] per request, in the
    /// shared abstract work units. Requests estimated above it are
    /// refused or degraded — the same idea as the documented gates on
    /// the PTAS configuration DP and the exact enumerators, promoted to
    /// a tenant knob.
    pub max_estimated_work: f64,
    /// The minimum guarantee class this tenant is served at: requests
    /// demanding less are raised to it, and degradation never goes
    /// below it.
    pub guarantee_floor: Guarantee,
    /// What to do when a gate trips.
    pub overflow: OverflowPolicy,
    /// How transient failures (queue-full, solver panic) are retried.
    pub retry: RetryPolicy,
    /// The tenant's deficit-round-robin weight: its long-run share of
    /// scheduler service, in the shared `CostEstimate` work units, is
    /// `weight / Σ weights` over the backlogged tenants. Clamped to
    /// ≥ 1; idle tenants lend their share instead of banking it (the
    /// queue is work-conserving).
    pub weight: u32,
    /// When the serving front starts shedding this tenant's load. See
    /// [`ShedPolicy`]; disabled by default.
    pub shed: ShedPolicy,
}

impl TenantPolicy {
    /// A policy with no effective limits: unbounded in-flight, unbounded
    /// work, no guarantee floor, reject on overflow (which can then only
    /// mean a full queue).
    pub fn unlimited() -> Self {
        TenantPolicy {
            max_in_flight: usize::MAX,
            max_estimated_work: f64::INFINITY,
            guarantee_floor: Guarantee::None,
            overflow: OverflowPolicy::Reject,
            retry: RetryPolicy::none(),
            weight: 1,
            shed: ShedPolicy::disabled(),
        }
    }

    /// Replaces the in-flight quota.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight;
        self
    }

    /// Replaces the per-request work gate.
    pub fn with_max_estimated_work(mut self, max_estimated_work: f64) -> Self {
        self.max_estimated_work = max_estimated_work;
        self
    }

    /// Replaces the guarantee floor.
    pub fn with_guarantee_floor(mut self, floor: Guarantee) -> Self {
        self.guarantee_floor = floor;
        self
    }

    /// Replaces the overflow behavior.
    pub fn with_overflow(mut self, overflow: OverflowPolicy) -> Self {
        self.overflow = overflow;
        self
    }

    /// Replaces the retry policy for transient failures.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Replaces the deficit-round-robin weight (clamped to ≥ 1).
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Replaces the load-shedding policy.
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// The guarantee a request demanding `requested` is actually served
    /// at under this policy: raised to the floor when the floor is
    /// stronger.
    pub fn effective_guarantee(&self, requested: Guarantee) -> Guarantee {
        if requested.satisfies(&self.guarantee_floor) {
            requested
        } else {
            self.guarantee_floor
        }
    }
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Why a request was refused at admission — the typed quota/backpressure
/// half of the refusal space (the other half is the routing layer's
/// `ModelError::NoQualifiedBackend`, reported when no backend serves the
/// request at its required guarantee).
#[derive(Debug, Clone, PartialEq)]
pub enum QuotaError {
    /// The tenant is not registered and no default policy exists.
    UnknownTenant {
        /// The unregistered tenant id.
        tenant: String,
    },
    /// The tenant is at its in-flight quota.
    InFlightExceeded {
        /// The tenant id.
        tenant: String,
        /// Admitted-but-unfinished requests at submission time.
        in_flight: usize,
        /// The policy's quota.
        limit: usize,
    },
    /// The pre-dispatch work estimate exceeds the tenant's gate.
    WorkExceeded {
        /// Estimated work units for the cheapest qualifying backend.
        estimated: f64,
        /// The policy's [`TenantPolicy::max_estimated_work`].
        limit: f64,
    },
    /// The bounded request queue is full.
    QueueFull {
        /// The queue's capacity.
        capacity: usize,
    },
    /// The tenant is in the shedding state: its backlog or recent p99
    /// latency crossed the [`ShedPolicy`] high watermark and has not
    /// yet recovered under the low one. The request could not be
    /// served by degrading toward the guarantee floor, so it is
    /// refused to protect the tenants behind it.
    Overloaded {
        /// The tenant id.
        tenant: String,
        /// The tenant's queued backlog at refusal time.
        queued: usize,
        /// The tenant's recent p99 latency, when the window had
        /// samples.
        recent_p99: Option<Duration>,
    },
}

impl fmt::Display for QuotaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuotaError::UnknownTenant { tenant } => {
                write!(f, "tenant '{tenant}' is not registered")
            }
            QuotaError::InFlightExceeded {
                tenant,
                in_flight,
                limit,
            } => write!(
                f,
                "tenant '{tenant}' has {in_flight} requests in flight, quota is {limit}"
            ),
            QuotaError::WorkExceeded { estimated, limit } => write!(
                f,
                "estimated work {estimated:.0} exceeds the tenant gate {limit:.0}"
            ),
            QuotaError::QueueFull { capacity } => {
                write!(f, "request queue is full (capacity {capacity})")
            }
            QuotaError::Overloaded {
                tenant,
                queued,
                recent_p99,
            } => {
                write!(f, "tenant '{tenant}' is shedding load ({queued} queued")?;
                if let Some(p99) = recent_p99 {
                    write!(f, ", recent p99 {p99:?}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl std::error::Error for QuotaError {}

/// The admission decision for one request, carrying enough provenance
/// to audit it: the planned backend and its pre-dispatch cost for
/// admitted work, the from/to guarantee pair for degradations, the
/// typed reason for refusals.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmissionVerdict {
    /// Admitted at the (floor-adjusted) required guarantee.
    Admitted {
        /// The backend the routing layer planned.
        backend: BackendId,
        /// Its pre-dispatch work estimate.
        cost: CostEstimate,
    },
    /// Admitted after a policy-driven downgrade of the required
    /// guarantee.
    Degraded {
        /// The guarantee the request originally required (after the
        /// floor adjustment).
        from: Guarantee,
        /// The guarantee it was admitted at.
        to: Guarantee,
        /// The backend planned for the degraded request.
        backend: BackendId,
        /// Its pre-dispatch work estimate.
        cost: CostEstimate,
    },
    /// Refused outright.
    Refused {
        /// The typed refusal reason.
        reason: QuotaError,
    },
}

impl AdmissionVerdict {
    /// Whether the verdict admits the request (possibly degraded).
    pub fn is_admitted(&self) -> bool {
        !matches!(self, AdmissionVerdict::Refused { .. })
    }

    /// The planned backend, for admitted verdicts.
    pub fn backend(&self) -> Option<BackendId> {
        match self {
            AdmissionVerdict::Admitted { backend, .. }
            | AdmissionVerdict::Degraded { backend, .. } => Some(*backend),
            AdmissionVerdict::Refused { .. } => None,
        }
    }

    /// The pre-dispatch cost estimate, for admitted verdicts.
    pub fn cost(&self) -> Option<CostEstimate> {
        match self {
            AdmissionVerdict::Admitted { cost, .. } | AdmissionVerdict::Degraded { cost, .. } => {
                Some(*cost)
            }
            AdmissionVerdict::Refused { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_guarantee_raises_to_the_floor() {
        let policy = TenantPolicy::unlimited().with_guarantee_floor(Guarantee::PaperRatio);
        assert_eq!(
            policy.effective_guarantee(Guarantee::None),
            Guarantee::PaperRatio
        );
        assert_eq!(
            policy.effective_guarantee(Guarantee::PaperRatio),
            Guarantee::PaperRatio
        );
        // Stronger demands pass through untouched.
        assert_eq!(
            policy.effective_guarantee(Guarantee::Exact),
            Guarantee::Exact
        );
        let eps = Guarantee::EpsilonOptimal(0.1);
        assert_eq!(policy.effective_guarantee(eps), eps);
    }

    #[test]
    fn unlimited_policy_gates_nothing() {
        let policy = TenantPolicy::unlimited();
        assert_eq!(policy.max_in_flight, usize::MAX);
        assert!(policy.max_estimated_work.is_infinite());
        assert_eq!(policy.effective_guarantee(Guarantee::None), Guarantee::None);
    }

    #[test]
    fn quota_errors_display_their_context() {
        let e = QuotaError::InFlightExceeded {
            tenant: "acme".into(),
            in_flight: 9,
            limit: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains("acme") && msg.contains('9') && msg.contains('8'));
        assert!(QuotaError::QueueFull { capacity: 4 }
            .to_string()
            .contains('4'));
    }

    #[test]
    fn retry_backoff_is_capped_exponential() {
        let policy = RetryPolicy::with_attempts(8)
            .with_backoff(Duration::from_millis(10), Duration::from_millis(80))
            .with_jitter(0.0, 0);
        assert_eq!(policy.backoff_for(0), Duration::ZERO);
        assert_eq!(policy.backoff_for(1), Duration::from_millis(10));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(20));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(40));
        assert_eq!(policy.backoff_for(4), Duration::from_millis(80));
        // The cap holds for every later retry, including doubling
        // counts that would overflow a naive shift.
        for retry in 5..200 {
            assert_eq!(policy.backoff_for(retry), Duration::from_millis(80));
        }
    }

    #[test]
    fn retry_jitter_is_deterministic_under_the_seed() {
        let a = RetryPolicy::with_attempts(4)
            .with_backoff(Duration::from_millis(5), Duration::from_secs(1))
            .with_jitter(0.5, 42);
        let b = a;
        for retry in 1..10 {
            let d = a.backoff_for(retry);
            // Same seed, same sequence.
            assert_eq!(d, b.backoff_for(retry));
            // Jitter only ever stretches, bounded by the fraction.
            let raw = a.with_jitter(0.0, 0).backoff_for(retry);
            assert!(d >= raw && d <= raw.mul_f64(1.5));
        }
        // A different seed perturbs at least one backoff.
        let c = a.with_jitter(0.5, 43);
        assert!((1..10).any(|r| c.backoff_for(r) != a.backoff_for(r)));
    }

    #[test]
    fn retry_budget_counts_total_attempts() {
        let none = RetryPolicy::none();
        assert!(!none.should_retry(1));
        let three = RetryPolicy::with_attempts(3);
        assert!(three.should_retry(1));
        assert!(three.should_retry(2));
        assert!(!three.should_retry(3));
    }

    #[test]
    fn shed_policy_watermarks_are_hysteretic() {
        let shed = ShedPolicy::on_queue_depth(10, 4);
        assert!(shed.is_enabled());
        // Below high: not over. At or above high: over.
        assert!(!shed.over_high(9, None));
        assert!(shed.over_high(10, None));
        // The low watermark is strictly easier than the high one: the
        // band between them is where hysteresis lives.
        assert!(!shed.under_low(5, None));
        assert!(shed.under_low(4, None));

        let latency =
            ShedPolicy::disabled().with_p99(Duration::from_millis(50), Duration::from_millis(20));
        assert!(latency.is_enabled());
        assert!(!latency.over_high(1_000_000, Some(Duration::from_millis(50))));
        assert!(latency.over_high(0, Some(Duration::from_millis(51))));
        assert!(!latency.under_low(0, Some(Duration::from_millis(21))));
        assert!(latency.under_low(0, Some(Duration::from_millis(20))));
        // An empty latency window counts as recovered pressure.
        assert!(latency.under_low(0, None));

        assert!(!ShedPolicy::disabled().is_enabled());
        assert!(!ShedPolicy::disabled().over_high(usize::MAX - 1, None));
        assert!(ShedPolicy::disabled().under_low(usize::MAX - 1, None));
    }

    #[test]
    fn shed_policy_low_watermarks_clamp_to_high() {
        let shed = ShedPolicy::on_queue_depth(4, 100);
        assert_eq!(shed.queue_low, 4);
        let latency =
            ShedPolicy::disabled().with_p99(Duration::from_millis(10), Duration::from_millis(90));
        assert_eq!(latency.p99_low, Some(Duration::from_millis(10)));
    }

    #[test]
    fn tenant_weight_clamps_to_at_least_one() {
        assert_eq!(TenantPolicy::unlimited().weight, 1);
        assert_eq!(TenantPolicy::unlimited().with_weight(0).weight, 1);
        assert_eq!(TenantPolicy::unlimited().with_weight(8).weight, 8);
    }

    #[test]
    fn overloaded_refusals_display_their_pressure() {
        let e = QuotaError::Overloaded {
            tenant: "acme".into(),
            queued: 42,
            recent_p99: Some(Duration::from_millis(7)),
        };
        let msg = e.to_string();
        assert!(msg.contains("acme") && msg.contains("42") && msg.contains("7ms"));
        let quiet = QuotaError::Overloaded {
            tenant: "acme".into(),
            queued: 3,
            recent_p99: None,
        };
        assert!(quiet.to_string().contains("3 queued"));
    }

    #[test]
    fn verdict_accessors_expose_the_plan() {
        use crate::solve::CostModel;
        let cost = CostEstimate {
            work: 128.0,
            model: CostModel::Linearithmic,
        };
        let admitted = AdmissionVerdict::Admitted {
            backend: BackendId::Lpt,
            cost,
        };
        assert!(admitted.is_admitted());
        assert_eq!(admitted.backend(), Some(BackendId::Lpt));
        assert_eq!(admitted.cost(), Some(cost));
        let refused = AdmissionVerdict::Refused {
            reason: QuotaError::QueueFull { capacity: 1 },
        };
        assert!(!refused.is_admitted());
        assert_eq!(refused.backend(), None);
        assert_eq!(refused.cost(), None);
    }
}
