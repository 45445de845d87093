//! Batched multi-request scheduling — the serving-scale entry point.
//!
//! The paper's experiments (and any deployment of these schedulers as a
//! service) are throughput workloads: *many instances*, each scheduled
//! once or a few times, where the metric that matters is schedules per
//! second, not the latency of one run. [`BatchScheduler::run_requests`]
//! serves a stream of portfolio [`SolveRequest`]s in that shape:
//!
//! * the stream is split into contiguous chunks, one per rayon worker,
//!   preserving input order in the output;
//! * each worker owns **one** [`DispatchWorker`] — the per-worker
//!   backend selection and [`KernelWorkspace`](crate::portfolio::KernelWorkspace)
//!   shared with the `sws_service` queue runtime — so in steady state a
//!   kernel-served instance costs its CSR flattening + rank computation
//!   (both per-instance by nature) and the kernel's `O((n + E)·log n)`
//!   loop, with zero per-run kernel buffer allocation;
//! * results are **bit-identical** to solving each request on its own
//!   (`rls_in`, `sws_listsched::dag_list_schedule`, …), which the
//!   differential suite checks instance for instance.

use sws_model::error::ModelError;
use sws_model::solve::{Solution, SolveRequest};

use crate::dispatch::DispatchWorker;
use crate::pareto_sweep::run_chunks;
use crate::portfolio::Portfolio;

/// Serves a stream of requests across the rayon pool with one reusable
/// [`DispatchWorker`] per worker. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct BatchScheduler {
    workers: usize,
}

impl Default for BatchScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl BatchScheduler {
    /// One chunk per rayon worker thread.
    pub fn new() -> Self {
        Self::with_workers(rayon::current_num_threads().max(1))
    }

    /// Explicit worker/chunk count (≥ 1); the produced solutions do not
    /// depend on it, only the wall-clock does.
    pub fn with_workers(workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        BatchScheduler { workers }
    }

    /// Serves a **mixed-guarantee request stream** through the portfolio:
    /// each [`SolveRequest`] names its own instance, objective mode and
    /// required guarantee, so backend selection happens *per item* —
    /// exact for the tiny instances in the stream, kernel RLS∆ for the
    /// big ones, a refusal (`Err` in that slot) where nothing qualifies.
    /// Each contiguous chunk of the stream is served by one
    /// [`DispatchWorker`], so the batch and service paths cannot drift;
    /// results come back in input order.
    ///
    /// Kernel-backed items are bit-identical to solving each request on
    /// its own (`rls_in`, `tri_objective_rls_in`, …).
    pub fn run_requests(
        &self,
        portfolio: &Portfolio,
        items: &[SolveRequest<'_>],
    ) -> Result<Vec<Result<Solution, ModelError>>, ModelError> {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        let chunk_len = items.len().div_ceil(self.workers);
        let chunks: Vec<&[SolveRequest]> = items.chunks(chunk_len).collect();
        let run_chunk =
            |chunk: &[SolveRequest]| -> Result<Vec<Result<Solution, ModelError>>, ModelError> {
                let mut worker = DispatchWorker::new(portfolio);
                Ok(chunk.iter().map(|req| worker.solve(req)).collect())
            };
        run_chunks(chunks, run_chunk)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rls::{rls_in, RlsConfig};
    use sws_dag::DagInstance;
    use sws_listsched::priority::index_priority;
    use sws_listsched::{dag_list_schedule, KernelWorkspace};
    use sws_model::solve::ObjectiveMode;
    use sws_workloads::dagsets::{dag_workload, DagFamily};
    use sws_workloads::rng::seeded_rng;
    use sws_workloads::TaskDistribution;

    fn mixed_instances() -> Vec<DagInstance> {
        let mut rng = seeded_rng(71);
        let mut out = Vec::new();
        for (family, n, m) in [
            (DagFamily::LayeredRandom, 60usize, 4usize),
            (DagFamily::ForkJoin, 25, 2),
            (DagFamily::GaussianElimination, 45, 8),
            (DagFamily::Diamond, 36, 3),
            (DagFamily::Fft, 24, 5),
        ] {
            out.push(dag_workload(
                family,
                n,
                m,
                TaskDistribution::AntiCorrelated,
                &mut rng,
            ));
        }
        out
    }

    fn requests(instances: &[DagInstance], objective: ObjectiveMode) -> Vec<SolveRequest<'_>> {
        instances
            .iter()
            .map(|inst| SolveRequest::precedence(inst, objective))
            .collect()
    }

    #[test]
    fn batch_rls_matches_per_instance_runs_bit_for_bit() {
        let instances = mixed_instances();
        let items = requests(&instances, ObjectiveMode::BiObjective { delta: 3.0 });
        let portfolio = Portfolio::standard();
        for workers in [1usize, 2, instances.len() + 3] {
            let results = BatchScheduler::with_workers(workers)
                .run_requests(&portfolio, &items)
                .unwrap();
            assert_eq!(results.len(), instances.len());
            for (inst, out) in instances.iter().zip(&results) {
                let direct = rls_in(inst, &RlsConfig::new(3.0), &mut KernelWorkspace::new());
                let out = out.as_ref().unwrap();
                assert_eq!(out.schedule, direct.unwrap().schedule, "workers={workers}");
            }
        }
    }

    #[test]
    fn batch_dag_list_matches_per_instance_runs_bit_for_bit() {
        let instances = mixed_instances();
        let items = requests(&instances, ObjectiveMode::CmaxOnly);
        let portfolio = Portfolio::standard();
        for workers in [1usize, 2, instances.len() + 3] {
            let results = BatchScheduler::with_workers(workers)
                .run_requests(&portfolio, &items)
                .unwrap();
            for (inst, out) in instances.iter().zip(&results) {
                let direct = dag_list_schedule(inst, &index_priority(inst.n()));
                assert_eq!(out.as_ref().unwrap().schedule, direct, "workers={workers}");
            }
        }
    }

    #[test]
    fn mixed_guarantee_request_stream_selects_per_item() {
        use sws_dag::TaskGraph;
        use sws_model::solve::{BackendId, Guarantee};
        use sws_model::validate::validate_timed;

        let portfolio = Portfolio::standard();
        let mut instances = mixed_instances();
        // A tiny edge-free instance: per-item selection must route it to
        // the exact enumerator even inside a kernel-dominated stream.
        let tiny = DagInstance::new(
            TaskGraph::new(
                sws_model::task::TaskSet::from_ps(
                    &[3.0, 1.0, 4.0, 1.0, 5.0],
                    &[2.0, 7.0, 1.0, 8.0, 2.0],
                )
                .unwrap(),
            ),
            2,
        )
        .unwrap();
        instances.push(tiny);

        let mut items = requests(&instances, ObjectiveMode::BiObjective { delta: 3.0 });
        // One item demands the impossible: an exact answer on a real DAG.
        items[1] = items[1].with_guarantee(Guarantee::Exact);

        for workers in [1usize, 3] {
            let results = BatchScheduler::with_workers(workers)
                .run_requests(&portfolio, &items)
                .unwrap();
            assert_eq!(results.len(), items.len());

            // Kernel-served DAG items are bit-identical to direct rls_in().
            for (idx, (inst, result)) in instances.iter().zip(&results).enumerate() {
                if idx == 1 {
                    assert!(
                        matches!(
                            result,
                            Err(sws_model::ModelError::NoQualifiedBackend { .. })
                        ),
                        "workers={workers}: exact demand on a DAG must be refused"
                    );
                    continue;
                }
                let solution = result.as_ref().unwrap();
                validate_timed(
                    inst.tasks(),
                    inst.m(),
                    &solution.schedule,
                    inst.graph().all_preds(),
                    None,
                )
                .unwrap();
                if idx + 1 == instances.len() {
                    // The tiny edge-free instance went to the enumerator.
                    assert_eq!(solution.stats.backend, BackendId::ExactParetoEnum);
                } else {
                    assert_eq!(solution.stats.backend, BackendId::KernelRls);
                    let direct =
                        rls_in(inst, &RlsConfig::new(3.0), &mut KernelWorkspace::new()).unwrap();
                    assert_eq!(solution.schedule, direct.schedule, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn batch_rejects_invalid_delta_and_handles_empty_input() {
        let instances = mixed_instances();
        let portfolio = Portfolio::standard();
        for bad in [2.0, 0.0, -1.0, f64::NAN, f64::INFINITY] {
            let items = requests(&instances, ObjectiveMode::BiObjective { delta: bad });
            let results = BatchScheduler::new()
                .run_requests(&portfolio, &items)
                .unwrap();
            assert_eq!(results.len(), instances.len());
            assert!(results.iter().all(Result::is_err), "∆ = {bad}");
        }
        let results = BatchScheduler::new().run_requests(&portfolio, &[]).unwrap();
        assert!(results.is_empty());
    }
}
