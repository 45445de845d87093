//! Cooperative cancellation for long-running solves.
//!
//! A [`CancelProbe`] is a cheap, cloneable handle that a solver polls
//! at natural round boundaries (kernel rounds, PTAS dual-test steps,
//! enumeration nodes). It carries at most two signals: a shared atomic
//! flag (set by `Ticket::cancel` in the service layer, or by any owner
//! of the flag) and an absolute deadline. Polling an *unarmed* probe is
//! two predictable branches on immediate data — cheap enough to sit
//! inside the kernel's event loop without measurable overhead.
//!
//! A tripped probe surfaces as
//! [`ModelError::Interrupted`],
//! which propagates through the ordinary `Result` plumbing of every
//! solver: no unwinding, no poisoned state, and the workspace remains
//! reusable afterwards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::error::ModelError;

/// Why an interrupted solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptReason {
    /// The caller revoked the request (e.g. `Ticket::cancel`).
    Cancelled,
    /// The request's absolute deadline passed mid-solve.
    DeadlineExpired,
}

impl InterruptReason {
    /// A short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::DeadlineExpired => "deadline-expired",
        }
    }
}

/// A cooperative cancellation/deadline probe. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct CancelProbe {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl CancelProbe {
    /// A probe that never trips — the default for direct solves.
    pub fn never() -> Self {
        CancelProbe::default()
    }

    /// A probe tripped by setting `flag` to `true`.
    pub fn with_flag(flag: Arc<AtomicBool>) -> Self {
        CancelProbe {
            flag: Some(flag),
            deadline: None,
        }
    }

    /// A probe tripped once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelProbe {
            flag: None,
            deadline: Some(deadline),
        }
    }

    /// Adds an absolute deadline to this probe.
    pub fn and_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Whether this probe can ever trip. Unarmed probes make `poll` a
    /// pair of branch checks, so solvers never need to special-case.
    pub fn is_armed(&self) -> bool {
        self.flag.is_some() || self.deadline.is_some()
    }

    /// Checks both signals; `Err(ModelError::Interrupted { .. })` once
    /// either has tripped. The cancellation flag wins ties.
    pub fn poll(&self) -> Result<(), ModelError> {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::Relaxed) {
                return Err(ModelError::Interrupted {
                    reason: InterruptReason::Cancelled,
                });
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(ModelError::Interrupted {
                    reason: InterruptReason::DeadlineExpired,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unarmed_probe_never_trips() {
        let probe = CancelProbe::never();
        assert!(!probe.is_armed());
        for _ in 0..1000 {
            assert_eq!(probe.poll(), Ok(()));
        }
    }

    #[test]
    fn flag_probe_trips_exactly_when_set() {
        let flag = Arc::new(AtomicBool::new(false));
        let probe = CancelProbe::with_flag(Arc::clone(&flag));
        assert!(probe.is_armed());
        assert_eq!(probe.poll(), Ok(()));
        flag.store(true, Ordering::Relaxed);
        assert_eq!(
            probe.poll(),
            Err(ModelError::Interrupted {
                reason: InterruptReason::Cancelled
            })
        );
    }

    #[test]
    fn deadline_probe_trips_once_past_due() {
        let probe = CancelProbe::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert_eq!(probe.poll(), Ok(()));
        let past = CancelProbe::with_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            past.poll(),
            Err(ModelError::Interrupted {
                reason: InterruptReason::DeadlineExpired
            })
        );
    }

    #[test]
    fn cancellation_wins_over_an_expired_deadline() {
        let flag = Arc::new(AtomicBool::new(true));
        let probe =
            CancelProbe::with_flag(flag).and_deadline(Instant::now() - Duration::from_millis(1));
        assert_eq!(
            probe.poll(),
            Err(ModelError::Interrupted {
                reason: InterruptReason::Cancelled
            })
        );
    }

    #[test]
    fn clones_share_the_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let probe = CancelProbe::with_flag(Arc::clone(&flag));
        let clone = probe.clone();
        flag.store(true, Ordering::Relaxed);
        assert!(clone.poll().is_err());
    }
}
