//! The original `O(n²·m)` implementation of RLS∆, retained verbatim as
//! the differential-testing oracle for the kernel path of
//! `sws_core::rls` (only the ad-hoc float tolerances were replaced by
//! the shared [`sws_model::numeric`] helpers).

use sws_core::rls::{rls_guarantee, RlsConfig, RlsResult};
use sws_dag::DagInstance;
use sws_model::bounds::mmax_lower_bound;
use sws_model::error::ModelError;
use sws_model::numeric::{approx_le, better_candidate, exceeds, finite_gt};
use sws_model::schedule::TimedSchedule;
use sws_model::task::TaskSet;

use crate::priority::GraphRank;

/// Checks `∆ > 2` (finite) and computes the Graham memory lower bound
/// `LB = max(max_i s_i, Σ s_i / m)` (`0` for an empty instance) and the
/// cap `∆·LB`.
fn delta_lb_cap(tasks: &TaskSet, m: usize, config: &RlsConfig) -> Result<(f64, f64), ModelError> {
    if !finite_gt(config.delta, 2.0) {
        return Err(ModelError::InvalidParameter {
            name: "delta",
            value: config.delta,
            constraint: "∆ > 2",
        });
    }
    let lb = if tasks.is_empty() {
        0.0
    } else {
        mmax_lower_bound(tasks, m)
    };
    Ok((lb, config.delta * lb))
}

/// Naive RLS∆: each round rescans every unscheduled task and every
/// processor. Produces the same schedule as `sws_core::rls::rls_in`; its
/// `marked` set is a superset (it marks while evaluating every
/// candidate, not just the selected one) that still satisfies the
/// Lemma 4 bound.
pub fn rls(inst: &DagInstance, config: &RlsConfig) -> Result<RlsResult, ModelError> {
    let graph = inst.graph();
    let tasks = inst.tasks();
    let n = graph.n();
    let m = inst.m();
    let (lb, cap) = delta_lb_cap(tasks, m, config)?;
    let rank = config.order.rank(graph);

    let mut load = vec![0.0f64; m];
    let mut memsize = vec![0.0f64; m];
    let mut marked = vec![false; m];
    let mut scheduled = vec![false; n];
    let mut completion = vec![0.0f64; n];
    let mut remaining_preds: Vec<usize> = (0..n).map(|i| graph.in_degree(i)).collect();
    let mut proc_of = vec![0usize; n];
    let mut start = vec![0.0f64; n];

    for _round in 0..n {
        // For every ready task, find the least-loaded processor whose
        // memory stays within ∆·LB, and the earliest start time
        // there. `best` holds (ready time, tie-break rank, task,
        // processor).
        let mut best: Option<(f64, u32, usize, usize)> = None;
        for i in 0..n {
            if scheduled[i] || remaining_preds[i] != 0 {
                continue;
            }
            let s_i = tasks.get(i).s;
            let choice = admissible_argmin(&load, &memsize, s_i, cap);
            let j = match choice {
                Some(j) => j,
                // Mathematically impossible for ∆ > 2 (the Lemma 4
                // counting argument), but guard against degenerate
                // floating-point inputs rather than looping forever.
                // The error names the fullest processor (lowest
                // index on ties), as the kernel's does.
                None => {
                    let mut proc = 0;
                    for q in 1..m {
                        if exceeds(memsize[q], memsize[proc]) {
                            proc = q;
                        }
                    }
                    return Err(ModelError::MemoryExceeded {
                        proc,
                        used: memsize[proc] + s_i,
                        capacity: cap,
                    });
                }
            };
            // "for analysis only": mark every processor that was less
            // loaded than the chosen one — it was skipped because of
            // the memory restriction.
            for (q, &l) in load.iter().enumerate() {
                if l < load[j] && !approx_le(memsize[q] + s_i, cap) {
                    marked[q] = true;
                }
            }
            let pred_ready = graph
                .preds(i)
                .iter()
                .map(|&p| completion[p])
                .fold(0.0f64, f64::max);
            let ready = pred_ready.max(load[j]);
            let candidate = (ready, rank[i], i, j);
            let better = match best {
                None => true,
                Some(cur) => {
                    better_candidate(candidate.0, candidate.1 as usize, cur.0, cur.1 as usize)
                }
            };
            if better {
                best = Some(candidate);
            }
        }
        let (ready, _rank, i, j) =
            best.expect("an acyclic graph always has a ready task while tasks remain");
        proc_of[i] = j;
        start[i] = ready;
        completion[i] = ready + tasks.get(i).p;
        load[j] = completion[i];
        memsize[j] += tasks.get(i).s;
        scheduled[i] = true;
        for &v in graph.succs(i) {
            remaining_preds[v] -= 1;
        }
    }

    let schedule = TimedSchedule::new(proc_of, start, m)?;
    Ok(RlsResult {
        schedule,
        lb,
        memory_cap: cap,
        marked,
        guarantee: rls_guarantee(config.delta, m),
        config: *config,
    })
}

/// Index of the least-loaded processor whose memory stays within
/// `cap` after adding `s`; ties broken towards the lowest index.
/// `None` when no processor is admissible.
fn admissible_argmin(load: &[f64], memsize: &[f64], s: f64, cap: f64) -> Option<usize> {
    let mut best: Option<usize> = None;
    for q in 0..load.len() {
        if !approx_le(memsize[q] + s, cap) {
            continue;
        }
        match best {
            None => best = Some(q),
            Some(b) => {
                if load[q] < load[b] {
                    best = Some(q);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use sws_core::rls::rls_in;
    use sws_listsched::KernelWorkspace;
    use sws_workloads::dagsets::{dag_workload, DagFamily};
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    /// The kernel path must agree schedule-for-schedule with the naive
    /// oracle, and its lazily-computed marked set must be a subset of the
    /// oracle's conservative one (the full family × order × m sweep lives
    /// in tests/differential_kernel.rs).
    #[test]
    fn kernel_matches_the_naive_oracle() {
        let mut rng = seeded_rng(15);
        for family in [
            DagFamily::LayeredRandom,
            DagFamily::ForkJoin,
            DagFamily::Erdos,
        ] {
            let inst = dag_workload(family, 70, 4, TaskDistribution::AntiCorrelated, &mut rng);
            for &delta in &[2.25, 3.0, 6.0] {
                let config = RlsConfig::new(delta);
                let fast = rls_in(&inst, &config, &mut KernelWorkspace::new()).unwrap();
                let slow = rls(&inst, &config).unwrap();
                assert_eq!(
                    fast.schedule,
                    slow.schedule,
                    "{} ∆={delta}: kernel and naive schedules differ",
                    family.label()
                );
                assert_eq!(fast.lb, slow.lb);
                for q in 0..inst.m() {
                    assert!(
                        !fast.marked[q] || slow.marked[q],
                        "{} ∆={delta}: kernel marked processor {q} the oracle did not",
                        family.label()
                    );
                }
                assert!(fast.marked_count() <= fast.marked_bound());
            }
        }
    }
}
