//! Deterministic fault injection for the service's chaos tests.
//!
//! The harness wraps every backend of a [`Portfolio`] in a
//! [`FaultySolver`] that consults a seeded [`FaultPlan`] before
//! delegating: a request may be made to panic, stall, return a spurious
//! typed error, or lie about its pre-dispatch cost estimate. Which
//! requests are faulted is a pure function of the *request* (a
//! fingerprint over its tasks, shape, objective and guarantee) and the
//! plan's seed — never of worker interleaving or call order — so a
//! chaos run is reproducible under any concurrency, and the test can
//! recompute exactly which requests were faulted after the fact.
//!
//! ```
//! use std::sync::Arc;
//! use sws_core::portfolio::Portfolio;
//! use sws_service::faults::FaultPlan;
//!
//! let plan = Arc::new(FaultPlan::new(42).with_panics(0.2));
//! let chaotic = plan.clone().wrap(Portfolio::standard());
//! // `chaotic` now panics on ~20% of requests, deterministically.
//! ```
//!
//! Injected panics are ordinary Rust panics (the service's isolation
//! path must handle the real thing), marked with
//! [`INJECTED_PANIC_MARKER`] so [`silence_injected_panics`] can keep
//! them out of test logs while letting genuine panics print.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::time::Duration;

use sws_core::portfolio::{KernelWorkspace, Portfolio, Solver};
use sws_model::error::ModelError;
use sws_model::policy::splitmix64;
use sws_model::solve::{BackendId, CostEstimate, Solution, SolveRequest};

/// Marker embedded in every injected panic message, so test
/// infrastructure can distinguish planned chaos from genuine bugs.
pub const INJECTED_PANIC_MARKER: &str = "[injected-fault]";

/// Granularity of an injected delay's sleep loop: the stall polls the
/// workspace's cancellation probe between chunks of this length, making
/// delayed requests the natural vehicle for mid-solve cancellation
/// tests.
const DELAY_CHUNK: Duration = Duration::from_millis(1);

// Salts separating the per-fault-type hash streams.
const SALT_PANIC: u64 = 0x70616e69_636b6564;
const SALT_DELAY: u64 = 0x64656c61_79656421;
const SALT_ERROR: u64 = 0x6572726f_72696e67;
const SALT_MISCOST: u64 = 0x6d697363_6f737421;

/// A seeded, deterministic fault schedule. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    panic_rate: f64,
    transient_panics: bool,
    delay_rate: f64,
    delay: Duration,
    error_rate: f64,
    miscost_rate: f64,
    miscost_factor: f64,
    /// The flooding tenant and its amplification factor, for
    /// [`FaultPlan::with_flood`].
    flood: Option<(String, u32)>,
    /// Fingerprints whose injected panic already fired, for
    /// [`FaultPlan::with_transient_panics`]. A `Mutex<HashSet>` rather
    /// than anything lock-free: faults fire at most once per attempt,
    /// never inside scheduling rounds.
    fired: Mutex<HashSet<u64>>,
}

impl FaultPlan {
    /// A plan that injects nothing until configured otherwise.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            panic_rate: 0.0,
            transient_panics: false,
            delay_rate: 0.0,
            delay: Duration::ZERO,
            error_rate: 0.0,
            miscost_rate: 0.0,
            miscost_factor: 1.0,
            flood: None,
            fired: Mutex::new(HashSet::new()),
        }
    }

    /// Panics on this fraction of requests (marked with
    /// [`INJECTED_PANIC_MARKER`]).
    pub fn with_panics(mut self, rate: f64) -> Self {
        self.panic_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Makes injected panics *transient*: each faulted request panics
    /// only on its first solve attempt and succeeds if retried —
    /// exercising the recovery half of a retry policy. (Still
    /// deterministic per fingerprint; the `fired` set is keyed on the
    /// request, not on call order.)
    pub fn with_transient_panics(mut self) -> Self {
        self.transient_panics = true;
        self
    }

    /// Stalls this fraction of requests for `delay` before delegating,
    /// polling the cancellation probe every millisecond of the stall.
    pub fn with_delays(mut self, rate: f64, delay: Duration) -> Self {
        self.delay_rate = rate.clamp(0.0, 1.0);
        self.delay = delay;
        self
    }

    /// Fails this fraction of requests with a spurious typed
    /// `ModelError` instead of solving.
    pub fn with_errors(mut self, rate: f64) -> Self {
        self.error_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Multiplies the cost estimate of this fraction of requests by
    /// `factor` — modeling a backend whose pre-dispatch estimate is
    /// wrong, which must only ever shift admission decisions, never
    /// corrupt results.
    pub fn with_miscosts(mut self, rate: f64, factor: f64) -> Self {
        self.miscost_rate = rate.clamp(0.0, 1.0);
        self.miscost_factor = factor;
        self
    }

    /// Marks `tenant` as a *flooding* tenant: [`FaultPlan::flood_wave`]
    /// amplifies its traffic `factor`-fold. Unlike the solver-level
    /// faults this is an *overload* injection — it attacks the queue's
    /// fairness discipline and the shed ladder, not a backend — and it
    /// is just as deterministic: the flooded wave is a pure function of
    /// the base wave.
    pub fn with_flood(mut self, tenant: impl Into<String>, factor: u32) -> Self {
        self.flood = Some((tenant.into(), factor.max(1)));
        self
    }

    /// The flooding tenant and amplification factor, when configured.
    pub fn flood_tenant(&self) -> Option<(&str, u32)> {
        self.flood
            .as_ref()
            .map(|(tenant, factor)| (tenant.as_str(), *factor))
    }

    /// Expands a base request wave under the flood: every request whose
    /// tenant is the flooding one appears `factor` times (clones of the
    /// original, contiguously, so the flood arrives as the burst a
    /// misbehaving client would send); everyone else's requests pass
    /// through once, in order. Without a configured flood the wave is
    /// returned unchanged.
    pub fn flood_wave(&self, base: Vec<crate::ServiceRequest>) -> Vec<crate::ServiceRequest> {
        let Some((tenant, factor)) = self.flood_tenant() else {
            return base;
        };
        let mut wave = Vec::with_capacity(base.len());
        for req in base {
            let copies = if req.tenant == tenant { factor } else { 1 };
            for _ in 1..copies {
                wave.push(req.clone());
            }
            wave.push(req);
        }
        wave
    }

    /// Wraps every backend of a portfolio in a [`FaultySolver`] sharing
    /// this plan. Registration order — and therefore selection — is
    /// preserved.
    pub fn wrap(self: Arc<Self>, portfolio: Portfolio) -> Portfolio {
        portfolio.map_backends(|inner| {
            Box::new(FaultySolver {
                inner,
                plan: Arc::clone(&self),
            })
        })
    }

    /// The call-order-independent fingerprint of a request: a hash of
    /// its task vector, shape, objective and guarantee. Two requests
    /// over identical data share a fingerprint (and therefore a fault
    /// decision) — the price of determinism under concurrency.
    pub fn fingerprint(req: &SolveRequest) -> u64 {
        let mut h = 0x5357_5321_u64;
        let mut fold = |x: u64| h = splitmix64(h ^ x);
        fold(req.n() as u64);
        fold(req.m() as u64);
        let (obj_tag, obj_param) = match req.objective {
            sws_model::solve::ObjectiveMode::CmaxOnly => (1u64, 0.0),
            sws_model::solve::ObjectiveMode::BiObjective { delta } => (2, delta),
            sws_model::solve::ObjectiveMode::TriObjective { delta } => (3, delta),
            sws_model::solve::ObjectiveMode::MemoryBudget { budget } => (4, budget),
        };
        fold(obj_tag);
        fold(obj_param.to_bits());
        let (g_tag, g_param) = match req.guarantee {
            sws_model::solve::Guarantee::None => (1u64, 0.0),
            sws_model::solve::Guarantee::PaperRatio => (2, 0.0),
            sws_model::solve::Guarantee::EpsilonOptimal(eps) => (3, eps),
            sws_model::solve::Guarantee::Exact => (4, 0.0),
        };
        fold(g_tag);
        fold(g_param.to_bits());
        for (_, task) in req.tasks().iter() {
            fold(task.p.to_bits());
            fold(task.s.to_bits());
        }
        h
    }

    /// Whether the `salt` fault stream fires for `fingerprint` at
    /// probability `rate`: a uniform draw from the seeded hash.
    fn decides(&self, fingerprint: u64, salt: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        let unit = splitmix64(self.seed ^ fingerprint ^ salt) as f64 / (u64::MAX as f64 + 1.0);
        unit < rate
    }

    /// Whether this plan panics on the request (ignoring the transient
    /// first-attempt bookkeeping) — exposed so chaos tests can
    /// recompute the faulted set after a run.
    pub fn panics_on(&self, req: &SolveRequest) -> bool {
        self.decides(Self::fingerprint(req), SALT_PANIC, self.panic_rate)
    }

    /// Whether this plan fails the request with a spurious error.
    pub fn errors_on(&self, req: &SolveRequest) -> bool {
        self.decides(Self::fingerprint(req), SALT_ERROR, self.error_rate)
    }

    /// Whether this plan distorts the request's cost estimate.
    pub fn miscosts_on(&self, req: &SolveRequest) -> bool {
        self.decides(Self::fingerprint(req), SALT_MISCOST, self.miscost_rate)
    }

    /// Whether an injected panic should fire now for `fingerprint`,
    /// accounting for the transient mode's once-per-request rule.
    fn panic_fires(&self, fingerprint: u64) -> bool {
        if !self.transient_panics {
            return true;
        }
        self.fired
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(fingerprint)
    }
}

/// A [`Solver`] decorator injecting the faults its shared [`FaultPlan`]
/// schedules; delegates everything else to the wrapped backend
/// unchanged, so non-faulted requests stay bit-identical to the bare
/// portfolio.
pub struct FaultySolver {
    inner: Box<dyn Solver>,
    plan: Arc<FaultPlan>,
}

impl Solver for FaultySolver {
    fn id(&self) -> BackendId {
        self.inner.id()
    }

    fn bid(&self, req: &SolveRequest) -> Option<u32> {
        self.inner.bid(req)
    }

    fn estimate_cost(&self, req: &SolveRequest) -> CostEstimate {
        let mut cost = self.inner.estimate_cost(req);
        if self.plan.miscosts_on(req) {
            cost.work *= self.plan.miscost_factor;
        }
        cost
    }

    fn solve_in(
        &self,
        req: &SolveRequest,
        ws: &mut KernelWorkspace,
    ) -> Result<Solution, ModelError> {
        let fp = FaultPlan::fingerprint(req);
        if self.plan.decides(fp, SALT_DELAY, self.plan.delay_rate) {
            // Stall cooperatively: a cancelled or deadline-expired
            // ticket interrupts the stall at the next chunk, exactly
            // like a slow backend polling between rounds.
            let mut remaining = self.plan.delay;
            while remaining > Duration::ZERO {
                ws.probe().poll()?;
                let step = remaining.min(DELAY_CHUNK);
                std::thread::sleep(step);
                remaining -= step;
            }
        }
        if self.plan.decides(fp, SALT_PANIC, self.plan.panic_rate) && self.plan.panic_fires(fp) {
            // sws-lint: allow(panic-policy, reason = "the chaos backend's whole purpose is injecting panics to exercise the catch_unwind isolation; the marker string routes it to the retry ladder")
            panic!(
                "{INJECTED_PANIC_MARKER} chaos plan {seed:#x} panicked request {fp:#x} in {id}",
                seed = self.plan.seed,
                id = self.inner.id().label(),
            );
        }
        if self.plan.decides(fp, SALT_ERROR, self.plan.error_rate) {
            return Err(ModelError::InvalidParameter {
                name: "injected-fault",
                value: 0.0,
                constraint: "spurious error injected by the chaos plan",
            });
        }
        self.inner.solve_in(req, ws)
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" report for panics carrying
/// [`INJECTED_PANIC_MARKER`], while chaining every other panic to the
/// previous hook. Chaos tests call this so their logs stay clean enough
/// that *any* panic line is a real failure — the invariant the CI
/// zero-panic check enforces.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|s| s.contains(INJECTED_PANIC_MARKER))
                || info
                    .payload()
                    .downcast_ref::<&'static str>()
                    .is_some_and(|s| s.contains(INJECTED_PANIC_MARKER));
            if !injected {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_model::solve::{Guarantee, ObjectiveMode};
    use sws_model::Instance;

    fn req_for(inst: &Instance) -> SolveRequest<'_> {
        SolveRequest::independent(inst, ObjectiveMode::CmaxOnly).with_guarantee(Guarantee::None)
    }

    #[test]
    fn fault_decisions_are_deterministic_and_seed_sensitive() {
        let a = Instance::from_ps(&[3.0, 2.0, 1.0], &[1.0, 2.0, 3.0], 2).unwrap();
        let plan1 = FaultPlan::new(7).with_panics(0.5);
        let plan2 = FaultPlan::new(7).with_panics(0.5);
        assert_eq!(plan1.panics_on(&req_for(&a)), plan2.panics_on(&req_for(&a)));
        // Across many seeds the decision must vary — the rate is real.
        let hits = (0..64u64)
            .filter(|&s| FaultPlan::new(s).with_panics(0.5).panics_on(&req_for(&a)))
            .count();
        assert!(hits > 8 && hits < 56, "rate 0.5 produced {hits}/64 hits");
    }

    #[test]
    fn fingerprints_separate_distinct_requests() {
        let a = Instance::from_ps(&[3.0, 2.0, 1.0], &[1.0, 2.0, 3.0], 2).unwrap();
        let b = Instance::from_ps(&[3.0, 2.0, 1.5], &[1.0, 2.0, 3.0], 2).unwrap();
        assert_ne!(
            FaultPlan::fingerprint(&req_for(&a)),
            FaultPlan::fingerprint(&req_for(&b))
        );
        let exact = req_for(&a).with_guarantee(Guarantee::Exact);
        assert_ne!(
            FaultPlan::fingerprint(&req_for(&a)),
            FaultPlan::fingerprint(&exact)
        );
    }

    #[test]
    fn wrapped_portfolio_is_bit_identical_on_unfaulted_requests() {
        let inst = Instance::from_ps(&[8.0, 6.0, 1.0, 1.0, 4.0, 2.0], &[1.0; 6], 2).unwrap();
        let req = req_for(&inst);
        let plan = Arc::new(FaultPlan::new(3)); // injects nothing
        let bare = Portfolio::standard();
        let direct = bare.solve(&req).unwrap();
        let wrapped = plan.wrap(Portfolio::standard());
        let via = wrapped.solve(&req).unwrap();
        assert_eq!(direct.schedule, via.schedule);
        assert_eq!(direct.point, via.point);
        assert_eq!(direct.stats.backend, via.stats.backend);
    }

    #[test]
    fn transient_panics_fire_exactly_once_per_request() {
        silence_injected_panics();
        let inst = Instance::from_ps(&[5.0, 4.0, 3.0], &[1.0; 3], 2).unwrap();
        // Find a seed whose plan panics on this request.
        let seed = (0..256u64)
            .find(|&s| {
                FaultPlan::new(s)
                    .with_panics(0.5)
                    .panics_on(&req_for(&inst))
            })
            .expect("some seed under 256 must fault a 50% plan");
        let plan = Arc::new(
            FaultPlan::new(seed)
                .with_panics(0.5)
                .with_transient_panics(),
        );
        let wrapped = Arc::clone(&plan).wrap(Portfolio::standard());
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            wrapped.solve(&req_for(&inst))
        }));
        assert!(first.is_err(), "first attempt must panic");
        let second = wrapped.solve(&req_for(&inst));
        assert!(second.is_ok(), "retry after a transient panic succeeds");
    }

    #[test]
    fn flood_wave_amplifies_only_the_flooding_tenant() {
        let inst = Arc::new(Instance::from_ps(&[3.0, 2.0, 1.0], &[1.0; 3], 2).unwrap());
        let mk = |tenant: &str| {
            crate::ServiceRequest::independent(tenant, Arc::clone(&inst), ObjectiveMode::CmaxOnly)
        };
        let plan = FaultPlan::new(1).with_flood("noisy", 4);
        assert_eq!(plan.flood_tenant(), Some(("noisy", 4)));
        let wave = plan.flood_wave(vec![mk("noisy"), mk("quiet")]);
        assert_eq!(wave.len(), 5);
        assert_eq!(wave.iter().filter(|r| r.tenant == "noisy").count(), 4);
        assert_eq!(wave.iter().filter(|r| r.tenant == "quiet").count(), 1);
        // Without a flood the wave passes through untouched.
        let calm = FaultPlan::new(1);
        assert_eq!(calm.flood_tenant(), None);
        assert_eq!(calm.flood_wave(vec![mk("noisy")]).len(), 1);
    }

    #[test]
    fn injected_errors_and_miscosts_do_not_panic() {
        let inst = Instance::from_ps(&[5.0, 4.0, 3.0], &[1.0; 3], 2).unwrap();
        let plan = Arc::new(FaultPlan::new(11).with_errors(1.0).with_miscosts(1.0, 64.0));
        let wrapped = Arc::clone(&plan).wrap(Portfolio::standard());
        let req = req_for(&inst);
        assert!(plan.errors_on(&req) && plan.miscosts_on(&req));
        match wrapped.solve(&req) {
            Err(ModelError::InvalidParameter { name, .. }) => assert_eq!(name, "injected-fault"),
            other => panic!("expected the injected error, got {other:?}"),
        }
    }
}
