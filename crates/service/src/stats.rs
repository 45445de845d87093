//! Lock-free service counters and latency quantiles.
//!
//! Every counter is a relaxed atomic — the stats path must never
//! contend with the dispatch path. Latencies go into a fixed
//! quarter-log2 histogram (256 buckets covering sub-nanosecond to
//! centuries at ≤ ~19% bucket width), so recording is an index
//! computation plus one atomic increment and quantile queries are a
//! 256-entry scan; nothing ever allocates or takes a lock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Number of histogram buckets: 64 octaves × 4 sub-buckets.
const BUCKETS: usize = 256;

/// A fixed quarter-log2 latency histogram. See the module docs.
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    pub(crate) fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Bucket index of a nanosecond value: octave (floor log2) times 4
    /// plus the next two mantissa bits.
    fn index(ns: u64) -> usize {
        let ns = ns.max(1);
        let exp = 63 - ns.leading_zeros() as usize;
        let sub = if exp >= 2 {
            ((ns >> (exp - 2)) & 0b11) as usize
        } else {
            0
        };
        (exp * 4 + sub).min(BUCKETS - 1)
    }

    /// Representative (upper-edge) nanosecond value of a bucket.
    fn value(index: usize) -> u64 {
        let exp = index / 4;
        let sub = (index % 4) as u64;
        if exp < 2 {
            // Octaves without sub-bucket resolution: the whole octave
            // is one bucket, upper edge 2^(exp+1).
            return 1u64 << (exp + 1);
        }
        // Upper edge of the sub-bucket: 2^exp · (1 + (sub+1)/4).
        let base = 1u64 << exp;
        base.saturating_add((base >> 2).saturating_mul(sub + 1))
    }

    pub(crate) fn record(&self, latency: Duration) {
        let ns = latency.as_nanos().min(u64::MAX as u128) as u64;
        // sws-lint: allow(panic-policy, reason = "index() ends in .min(BUCKETS - 1), so the subscript is clamped in-bounds for every u64 input")
        self.buckets[Self::index(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Zeroes every bucket (epoch rotation in [`RecentLatency`]).
    fn clear(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as a duration, `None` while the
    /// histogram is empty. Resolution is the bucket width (≤ ~19%).
    pub(crate) fn quantile(&self, q: f64) -> Option<Duration> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Duration::from_nanos(Self::value(i)));
            }
        }
        None
    }
}

/// A process-wide monotonic origin so epoch timestamps fit in one
/// atomic `u64` of nanoseconds.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    Instant::now()
        .saturating_duration_since(origin())
        .as_nanos()
        .min(u64::MAX as u128) as u64
}

/// A *windowed* latency view: the p99 over roughly the last one to two
/// windows, built from two [`LatencyHistogram`] epochs rotated in
/// place.
///
/// The cumulative histograms in [`Counters`] never forget, which is
/// right for lifetime quantiles but useless as an overload signal — a
/// p99 poisoned by a past incident would keep a tenant shedding
/// forever. Here, records land in the *current* epoch; once a window
/// elapses the stale epoch is cleared and becomes current, and
/// quantile queries merge both epochs. A quiet scope therefore decays
/// to "no signal" within two windows, which is what lets the shed
/// latch in `service.rs` recover hysteretically.
///
/// Rotation races are benign: a record landing in an epoch while
/// another thread clears it is lost from a *statistics window*, not
/// from an accounting invariant (terminal-outcome counts live in
/// [`Counters`], never here).
pub(crate) struct RecentLatency {
    epochs: [LatencyHistogram; 2],
    /// Which epoch records land in (0 or 1).
    current: AtomicUsize,
    /// Current epoch's start, nanoseconds since [`origin`].
    epoch_start: AtomicU64,
    window_ns: u64,
}

impl RecentLatency {
    /// The window the service uses when none is configured: long enough
    /// to accumulate a meaningful p99 under load, short enough that the
    /// shed latch reopens promptly once pressure drops.
    pub(crate) const DEFAULT_WINDOW: Duration = Duration::from_secs(1);

    pub(crate) fn new(window: Duration) -> Self {
        RecentLatency {
            epochs: [LatencyHistogram::new(), LatencyHistogram::new()],
            current: AtomicUsize::new(0),
            epoch_start: AtomicU64::new(now_ns()),
            window_ns: window.as_nanos().clamp(1, u64::MAX as u128) as u64,
        }
    }

    /// Rotates epochs when the window has elapsed. Exactly one racing
    /// caller wins the CAS and performs the clear-and-flip; both the
    /// record and the query path call this, so an idle scope still
    /// decays without traffic.
    fn rotate(&self) {
        let now = now_ns();
        let start = self.epoch_start.load(Ordering::Relaxed);
        let elapsed = now.saturating_sub(start);
        if elapsed < self.window_ns {
            return;
        }
        if self
            .epoch_start
            .compare_exchange(start, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        let current = self.current.load(Ordering::Relaxed) & 1;
        let next = current ^ 1;
        if let Some(stale) = self.epochs.get(next) {
            stale.clear();
        }
        if elapsed >= self.window_ns.saturating_mul(2) {
            // The whole view is stale (no rotation ran for two or more
            // windows): drop the old current epoch too instead of
            // reporting ancient latencies as "recent".
            if let Some(old) = self.epochs.get(current) {
                old.clear();
            }
        }
        self.current.store(next, Ordering::Relaxed);
    }

    pub(crate) fn record(&self, latency: Duration) {
        self.rotate();
        let idx = self.current.load(Ordering::Relaxed) & 1;
        if let Some(epoch) = self.epochs.get(idx) {
            epoch.record(latency);
        }
    }

    /// The `q`-quantile over both epochs (the last one to two windows),
    /// `None` when the window is empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<Duration> {
        self.rotate();
        let counts: Vec<u64> = (0..BUCKETS)
            .map(|i| {
                self.epochs
                    .iter()
                    .map(|e| e.buckets.get(i).map_or(0, |b| b.load(Ordering::Relaxed)))
                    .sum()
            })
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Duration::from_nanos(LatencyHistogram::value(i)));
            }
        }
        None
    }
}

/// One scope's worth of counters (a tenant, or the global aggregate).
pub(crate) struct Counters {
    pub(crate) admitted: AtomicU64,
    pub(crate) degraded: AtomicU64,
    pub(crate) refused: AtomicU64,
    pub(crate) completed: AtomicU64,
    pub(crate) failed: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) panicked: AtomicU64,
    pub(crate) retried: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) sessions: AtomicU64,
    pub(crate) session_events: AtomicU64,
    pub(crate) session_replayed_rounds: AtomicU64,
    pub(crate) in_flight: AtomicUsize,
    pub(crate) latency: LatencyHistogram,
    pub(crate) recent: RecentLatency,
}

impl Counters {
    pub(crate) fn new() -> Self {
        Counters {
            admitted: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            retried: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            sessions: AtomicU64::new(0),
            session_events: AtomicU64::new(0),
            session_replayed_rounds: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            latency: LatencyHistogram::new(),
            recent: RecentLatency::new(RecentLatency::DEFAULT_WINDOW),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self, scope: String) -> ScopeStats {
        ScopeStats {
            scope,
            admitted: self.admitted.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            refused: self.refused.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            retried: self.retried.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            session_events: self.session_events.load(Ordering::Relaxed),
            session_replayed_rounds: self.session_replayed_rounds.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            p50_latency: self.latency.quantile(0.50),
            p99_latency: self.latency.quantile(0.99),
            recent_p99: self.recent.quantile(0.99),
            queued: 0,
            deficit: 0,
            head_wait: None,
        }
    }
}

/// A point-in-time snapshot of one scope's counters (a tenant, or the
/// service-wide aggregate under the scope name `"global"`).
#[derive(Debug, Clone, PartialEq)]
pub struct ScopeStats {
    /// Tenant id, or `"global"`.
    pub scope: String,
    /// Requests admitted (including degraded admissions).
    pub admitted: u64,
    /// Admissions that went through a policy-driven guarantee downgrade.
    pub degraded: u64,
    /// Requests refused at admission (quota, work gate, queue full,
    /// unknown tenant, or no qualifying backend).
    pub refused: u64,
    /// Requests that completed with a solution.
    pub completed: u64,
    /// Requests whose solve returned a typed error (e.g. `BudgetNotMet`).
    pub failed: u64,
    /// Requests cancelled before dispatch.
    pub cancelled: u64,
    /// Requests whose deadline passed before dispatch (or mid-solve, via
    /// the cooperative deadline probe).
    pub expired: u64,
    /// Requests that ended in [`crate::ServiceError::SolverPanicked`]:
    /// a backend panicked on every attempt the tenant's retry budget
    /// allowed. The worker survives; the panic is isolated per request.
    pub panicked: u64,
    /// Retry *events*: how many times a transiently-failed attempt was
    /// re-queued under the tenant's [`sws_model::policy::RetryPolicy`].
    /// Not a terminal outcome — a request retried twice and then
    /// completed contributes 2 here and 1 to `completed`.
    pub retried: u64,
    /// Admission decisions altered by overload shedding: requests
    /// degraded toward the tenant's `guarantee_floor` or refused with
    /// [`sws_model::policy::QuotaError::Overloaded`] while the shed
    /// latch was closed. A subset of `degraded + refused`.
    pub shed: u64,
    /// Incremental replanning sessions opened
    /// ([`crate::session::SessionTicket`]).
    pub sessions: u64,
    /// Replan deltas served across this scope's sessions (admitted
    /// events only; refusals count under `refused`).
    pub session_events: u64,
    /// Kernel rounds actually replayed across those deltas — next to
    /// `session_events × n` this is the measured work saving of the
    /// warm-start path.
    pub session_replayed_rounds: u64,
    /// Admitted requests not yet resolved (queued or running).
    pub in_flight: usize,
    /// Median submit→completion latency of completed requests.
    pub p50_latency: Option<Duration>,
    /// 99th-percentile submit→completion latency.
    pub p99_latency: Option<Duration>,
    /// 99th-percentile latency over roughly the last one to two
    /// `RecentLatency` windows — the overload-pressure signal, not a
    /// lifetime statistic. `None` when the window saw no completions.
    pub recent_p99: Option<Duration>,
    /// Requests queued in this scope's queue lane right now (for the
    /// global scope: total queue depth).
    pub queued: usize,
    /// The lane's deficit-round-robin counter in work units (global
    /// scope: sum over lanes).
    pub deficit: u64,
    /// How long the lane's next-in-line request has been queued (global
    /// scope: the maximum over lanes) — the aging gauge.
    pub head_wait: Option<Duration>,
}

impl ScopeStats {
    /// Total terminal outcomes delivered for admitted requests.
    pub fn terminal_outcomes(&self) -> u64 {
        self.completed + self.failed + self.cancelled + self.expired + self.panicked
    }
}

/// A point-in-time snapshot of the whole service: the global aggregate,
/// one entry per registered tenant, and the queue gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceStats {
    /// Service-wide aggregate.
    pub global: ScopeStats,
    /// Per-tenant scopes, in registration order.
    pub tenants: Vec<ScopeStats>,
    /// Requests currently queued (admitted, not yet picked up).
    pub queue_depth: usize,
    /// The bounded queue's capacity.
    pub queue_capacity: usize,
}

impl ServiceStats {
    /// The snapshot of a tenant by id, if registered.
    pub fn tenant(&self, id: &str) -> Option<&ScopeStats> {
        self.tenants.iter().find(|t| t.scope == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_recorded_values() {
        let h = LatencyHistogram::new();
        for us in [100u64, 200, 300, 400, 1000] {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile(0.5).unwrap();
        // Median of the five values is 300µs; the bucket upper edge is
        // within ~25% above it.
        assert!(p50 >= Duration::from_micros(280) && p50 <= Duration::from_micros(400));
        let p99 = h.quantile(0.99).unwrap();
        assert!(p99 >= Duration::from_micros(900));
        assert!(h.quantile(0.5).unwrap() <= h.quantile(0.99).unwrap());
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn bucket_index_is_monotone() {
        let mut last = 0usize;
        for ns in [1u64, 2, 3, 5, 16, 17, 1000, 1_000_000, u64::MAX / 2] {
            let idx = LatencyHistogram::index(ns);
            assert!(idx >= last, "index must not decrease at {ns}");
            last = idx;
            // The representative value is at or above the recorded one
            // (upper bucket edge), within one bucket width.
            assert!(LatencyHistogram::value(idx) >= ns || idx == BUCKETS - 1);
        }
    }

    #[test]
    fn recent_latency_reports_then_forgets() {
        let window = Duration::from_millis(20);
        let recent = RecentLatency::new(window);
        recent.record(Duration::from_millis(5));
        recent.record(Duration::from_millis(7));
        let p99 = recent.quantile(0.99).expect("fresh records are visible");
        assert!(p99 >= Duration::from_millis(6));
        // Within one window the view persists (possibly across one
        // rotation into the merged pair)...
        std::thread::sleep(window / 2);
        assert!(recent.quantile(0.99).is_some());
        // ...but after several idle windows the signal decays to None —
        // the property the shed latch needs to reopen.
        std::thread::sleep(window.saturating_mul(3));
        assert_eq!(recent.quantile(0.99), None);
    }

    #[test]
    fn recent_latency_merges_across_one_rotation() {
        // Sleep one window (well short of two): the next record rotates
        // epochs, and the pre-rotation record must stay visible in the
        // merged view.
        let window = Duration::from_millis(200);
        let recent = RecentLatency::new(window);
        recent.record(Duration::from_micros(100));
        std::thread::sleep(window + window / 4);
        recent.record(Duration::from_micros(900));
        assert!(recent.quantile(0.99).expect("p99") >= Duration::from_micros(800));
        let p50 = recent.quantile(0.5).expect("merged view is non-empty");
        assert!(
            p50 <= Duration::from_micros(400),
            "pre-rotation record was dropped from the merged view: {p50:?}"
        );
    }

    #[test]
    fn scope_snapshot_counts_terminal_outcomes() {
        let c = Counters::new();
        Counters::bump(&c.admitted);
        Counters::bump(&c.admitted);
        Counters::bump(&c.completed);
        Counters::bump(&c.cancelled);
        let snap = c.snapshot("t".into());
        assert_eq!(snap.admitted, 2);
        assert_eq!(snap.terminal_outcomes(), 2);
    }

    #[test]
    fn panicked_is_terminal_but_retried_is_not() {
        let c = Counters::new();
        Counters::bump(&c.admitted);
        Counters::bump(&c.retried);
        Counters::bump(&c.retried);
        Counters::bump(&c.panicked);
        let snap = c.snapshot("t".into());
        assert_eq!(snap.panicked, 1);
        assert_eq!(snap.retried, 2);
        // Retries are events along the way, not resolutions: only the
        // final panic counts toward the terminal tally.
        assert_eq!(snap.terminal_outcomes(), 1);
    }
}
