//! Instance-mutation event streams for the incremental replan engine.
//!
//! The paper's schedulers solve frozen instances; the replan engine
//! (`sws_core::replan`) serves *mutating* ones. This module generates
//! the mutation streams the differential suites and the replan bench
//! replay: sequences of [`CsrDelta`]s — task arrivals with sampled
//! predecessors and SoC-flavoured costs (the firmware-image units of
//! [`crate::soc`]), completions in execution-plausible order, and cost
//! re-estimates — plus an adversarial mode that draws the signed zeros
//! and extreme magnitudes the cost orders and the kernel's time keys
//! have to survive.
//!
//! Streams are *stateful by construction*: an arrival's predecessor set
//! is sampled from the tasks present at that point of the stream, a
//! completion always targets the lowest not-yet-completed index (tasks
//! complete roughly in schedule order), and a re-estimate never targets
//! a completed task (the engine refuses those by contract). Every
//! emitted delta therefore passes `CsrDelta::validate` against the
//! instance as mutated by its prefix.

use rand::Rng;

use sws_dag::CsrDelta;

use crate::rng::WorkloadRng;

/// Shape of a delta stream: relative event-kind weights plus the cost
/// model of arrivals and re-estimates.
#[derive(Debug, Clone, Copy)]
pub struct DeltaStreamConfig {
    /// Relative weight of task arrivals.
    pub arrival_weight: u32,
    /// Relative weight of task completions.
    pub completion_weight: u32,
    /// Relative weight of cost re-estimates.
    pub recost_weight: u32,
    /// Largest predecessor count sampled for an arrival (each arrival
    /// draws `0..=max_preds` distinct predecessors from the live
    /// tasks).
    pub max_preds: usize,
    /// Mix in adversarial costs: signed zeros (`-0.0`) and extreme
    /// magnitudes (≥ 1e290, near the top of the `f64` range) on roughly
    /// one draw in eight.
    pub adversarial_costs: bool,
}

impl DeltaStreamConfig {
    /// The online-serving shape: arrivals and completions only, the
    /// 500-event stream of the replan bench.
    pub fn arrivals_and_completions() -> Self {
        DeltaStreamConfig {
            arrival_weight: 1,
            completion_weight: 1,
            recost_weight: 0,
            max_preds: 3,
            adversarial_costs: false,
        }
    }

    /// All three event kinds, benign costs.
    pub fn mixed() -> Self {
        DeltaStreamConfig {
            arrival_weight: 2,
            completion_weight: 1,
            recost_weight: 2,
            max_preds: 3,
            adversarial_costs: false,
        }
    }

    /// [`DeltaStreamConfig::mixed`] with the adversarial cost draws
    /// switched on — the differential suite's hostile mode.
    pub fn adversarial() -> Self {
        DeltaStreamConfig {
            adversarial_costs: true,
            ..Self::mixed()
        }
    }

    fn total_weight(&self) -> u32 {
        self.arrival_weight + self.completion_weight + self.recost_weight
    }
}

/// One SoC-flavoured `(p, s)` draw (milliseconds, kilobytes): mostly
/// small control kernels, occasionally a DSP-sized one — the
/// [`crate::soc`] families, without the blob tail that would dominate
/// short streams. Adversarial mode replaces roughly one draw in eight
/// with a signed zero or an extreme magnitude.
fn draw_costs(cfg: &DeltaStreamConfig, rng: &mut WorkloadRng) -> (f64, f64) {
    if cfg.adversarial_costs {
        match rng.gen_range(0..8) {
            0 => return (rng.gen_range(0.1..2.0), -0.0),
            1 => return (0.0, rng.gen_range(4.0..64.0)),
            2 => return (rng.gen_range(0.1..2.0), 1e290 * rng.gen_range(1.0..9.0)),
            3 => return (1e290 * rng.gen_range(1.0..9.0), rng.gen_range(4.0..64.0)),
            _ => {}
        }
    }
    if rng.gen_range(0..8) == 0 {
        (rng.gen_range(10.0..80.0), rng.gen_range(16.0..128.0))
    } else {
        (rng.gen_range(0.1..2.0), rng.gen_range(4.0..64.0))
    }
}

/// Generates `events` deltas against an instance that currently holds
/// `n0` tasks (none completed). See the module docs for the statefulness
/// guarantees; the stream is deterministic in `(n0, events, cfg, rng
/// seed)`.
pub fn delta_stream(
    n0: usize,
    events: usize,
    cfg: &DeltaStreamConfig,
    rng: &mut WorkloadRng,
) -> Vec<CsrDelta> {
    assert!(
        cfg.total_weight() > 0,
        "at least one event kind must have weight"
    );
    let mut out = Vec::with_capacity(events);
    let mut n = n0;
    // Tasks below this index are completed (completions advance it).
    let mut completed = 0usize;
    for _ in 0..events {
        let mut pick = rng.gen_range(0..cfg.total_weight());
        let kind = if pick < cfg.arrival_weight {
            0
        } else {
            pick -= cfg.arrival_weight;
            if pick < cfg.completion_weight && completed < n {
                1
            } else if cfg.recost_weight > 0 && completed < n {
                2
            } else {
                0 // nothing live to complete or re-estimate: arrive instead
            }
        };
        match kind {
            0 => {
                let (p, s) = draw_costs(cfg, rng);
                let want = if n == 0 {
                    0
                } else {
                    rng.gen_range(0..=cfg.max_preds.min(n))
                };
                let mut preds: Vec<u32> = Vec::with_capacity(want);
                while preds.len() < want {
                    let u = rng.gen_range(0..n) as u32;
                    if !preds.contains(&u) {
                        preds.push(u);
                    }
                }
                out.push(CsrDelta::AddTask { preds, p, s });
                n += 1;
            }
            1 => {
                out.push(CsrDelta::CompleteTask {
                    task: completed as u32,
                });
                completed += 1;
            }
            _ => {
                let task = rng.gen_range(completed..n) as u32;
                let (p, s) = draw_costs(cfg, rng);
                let (p, s) = match rng.gen_range(0..3) {
                    0 => (Some(p), None),
                    1 => (None, Some(s)),
                    _ => (Some(p), Some(s)),
                };
                out.push(CsrDelta::Recost { task, p, s });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dagsets::{dag_workload, DagFamily};
    use crate::random::TaskDistribution;
    use crate::rng::seeded_rng;

    fn base_csr(n: usize) -> sws_dag::CsrDag {
        dag_workload(
            DagFamily::LayeredRandom,
            n,
            4,
            TaskDistribution::Uncorrelated,
            &mut seeded_rng(7),
        )
        .csr()
    }

    #[test]
    fn every_delta_validates_against_the_mutated_instance() {
        for cfg in [
            DeltaStreamConfig::arrivals_and_completions(),
            DeltaStreamConfig::mixed(),
            DeltaStreamConfig::adversarial(),
        ] {
            let mut csr = base_csr(40);
            let stream = delta_stream(csr.n(), 200, &cfg, &mut seeded_rng(11));
            assert_eq!(stream.len(), 200);
            for (k, delta) in stream.iter().enumerate() {
                delta
                    .validate(csr.n())
                    .unwrap_or_else(|e| panic!("event {k} invalid: {e}"));
                csr.apply_delta(delta).unwrap();
            }
        }
    }

    #[test]
    fn streams_are_deterministic_in_the_seed() {
        let a = delta_stream(10, 64, &DeltaStreamConfig::mixed(), &mut seeded_rng(3));
        let b = delta_stream(10, 64, &DeltaStreamConfig::mixed(), &mut seeded_rng(3));
        assert_eq!(a, b);
        let c = delta_stream(10, 64, &DeltaStreamConfig::mixed(), &mut seeded_rng(4));
        assert_ne!(a, c);
    }

    #[test]
    fn completions_never_target_a_completed_or_future_task() {
        let stream = delta_stream(5, 300, &DeltaStreamConfig::mixed(), &mut seeded_rng(99));
        let mut n = 5u32;
        let mut completed = 0u32;
        for delta in &stream {
            match delta {
                CsrDelta::AddTask { .. } => n += 1,
                CsrDelta::CompleteTask { task } => {
                    assert_eq!(*task, completed, "completions advance in order");
                    completed += 1;
                }
                CsrDelta::Recost { task, .. } => {
                    assert!(*task >= completed && *task < n);
                }
            }
        }
    }

    #[test]
    fn adversarial_streams_carry_signed_zeros_and_saturating_costs() {
        let stream = delta_stream(
            20,
            600,
            &DeltaStreamConfig::adversarial(),
            &mut seeded_rng(21),
        );
        let costs: Vec<(f64, f64)> = stream
            .iter()
            .filter_map(|d| match d {
                CsrDelta::AddTask { p, s, .. } => Some((*p, *s)),
                CsrDelta::Recost { p, s, .. } => Some((p.unwrap_or(1.0), s.unwrap_or(1.0))),
                CsrDelta::CompleteTask { .. } => None,
            })
            .collect();
        assert!(
            costs.iter().any(|&(_, s)| s == 0.0 && s.is_sign_negative()),
            "expected a -0.0 storage draw"
        );
        assert!(
            costs.iter().any(|&(p, s)| p >= 1e290 || s >= 1e290),
            "expected a rank-saturating magnitude"
        );
    }
}
