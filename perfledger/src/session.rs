//! `session_stream`: one tenant's replan session over a layered random
//! DAG (n = 2 500, m = 8, uncapped), applying a long
//! `DeltaStreamConfig::mixed()` stream of arrivals, completions and
//! re-costs, closed loop on the caller's thread.
//!
//! The seed generates `CASES` (DAG, stream) pairs. Sessions are opened
//! on them in rotation and each replays its case's whole stream, until
//! the time budget is spent: every session of a case does identical
//! work, and the per-event cost can be compared by position in the
//! stream (`drift`).

use std::time::{Duration, Instant};

use sws_core::portfolio::Portfolio;
use sws_core::replan::solve_from_scratch;
use sws_core::rls::PriorityOrder;
use sws_dag::{CsrDag, CsrDelta, DagInstance};
use sws_listsched::kernel::KernelWorkspace;
use sws_model::policy::TenantPolicy;
use sws_model::solve::Solution;
use sws_service::{SchedulingService, SessionTicket};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::deltas::{delta_stream, DeltaStreamConfig};
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::check;
use crate::measure::{median, quantile, repeat_setup, timed, us, Tracer};
use crate::report::Report;
use crate::Args;

const N0: usize = 2_500;
const M: usize = 8;
/// (DAG, stream) pairs per seed.
const CASES: usize = 8;
/// Events per session.
const EVENTS: usize = 4_000;
/// Every `CHECK_EVERY`-th event of a session is kept for the checks.
const CHECK_EVERY: usize = 50;
const TENANT: &str = "ops";

struct Case {
    dag: DagInstance,
    csr: CsrDag,
    stream: Vec<CsrDelta>,
}

fn generate(seed: u64) -> Vec<Case> {
    (0..CASES as u64)
        .map(|c| {
            let dag = dag_workload(
                DagFamily::LayeredRandom,
                N0,
                M,
                TaskDistribution::Uncorrelated,
                &mut seeded_rng(derive_seed(seed, 2 * c)),
            );
            let csr = dag.csr();
            let stream = delta_stream(
                csr.n(),
                EVENTS,
                &DeltaStreamConfig::mixed(),
                &mut seeded_rng(derive_seed(seed, 2 * c + 1)),
            );
            Case { dag, csr, stream }
        })
        .collect()
}

fn service() -> SchedulingService {
    SchedulingService::builder()
        .workers(1)
        .tenant(TENANT, TenantPolicy::unlimited())
        .build()
}

/// Set-up = generation + service build + one session open per case,
/// repeated; returns the last cases and service, the set-up count, and
/// the median set-up and generation times.
fn setup(seed: u64) -> (Vec<Case>, SchedulingService, usize, f64, f64) {
    let mut gens = Vec::new();
    let ((cases, svc), setups) = repeat_setup(|| {
        let (cases, gen) = timed(|| generate(seed));
        gens.push(gen.as_secs_f64());
        let svc = service();
        for case in &cases {
            drop(svc.handle().open_session(TENANT, case.csr.clone(), M, None));
        }
        (cases, svc)
    });
    (cases, svc, setups.len(), median(&setups), median(&gens))
}

/// One session's replay of its case's stream.
struct SessionRun {
    /// Per-event `SessionTicket::apply` latency, in stream order.
    latency_us: Vec<f64>,
    elapsed: Duration,
    failed: u64,
    /// Whether its applies were recorded as spans.
    traced: bool,
}

/// Replays `stream` on `session`, keeping every `CHECK_EVERY`-th
/// solution for the checks.
fn replay(
    session: &mut SessionTicket,
    stream: &[CsrDelta],
    mut tracer: Option<(&mut Tracer, u64)>,
) -> (SessionRun, Vec<(usize, Solution)>) {
    let mut latency_us = Vec::with_capacity(stream.len());
    let mut kept = Vec::with_capacity(stream.len() / CHECK_EVERY + 1);
    let mut failed = 0;
    let start = Instant::now();
    for (k, delta) in stream.iter().enumerate() {
        let (outcome, d) = match tracer.as_mut() {
            None => timed(|| session.apply(delta)),
            Some((t, id)) => t.span(*id, "service.session_apply", None, || session.apply(delta)),
        };
        latency_us.push(us(d));
        match outcome {
            Ok(solution) if k % CHECK_EVERY == 0 => kept.push((k, solution)),
            Ok(_) => {}
            Err(_) => failed += 1,
        }
    }
    let run = SessionRun {
        latency_us,
        elapsed: start.elapsed(),
        failed,
        traced: tracer.is_some(),
    };
    (run, kept)
}

/// Checks sampled events: a case's first session against a
/// from-scratch solve of the mutated CSR (bit for bit) plus schedule
/// validity, its later sessions against the first one's digests.
struct Checker {
    digests: Vec<Vec<Option<u64>>>,
    wrong: u64,
    checked: u64,
    first_error: Option<String>,
}

impl Checker {
    fn session(&mut self, c: usize, case: &Case, kept: &[(usize, Solution)]) {
        if self.digests[c].iter().any(Option::is_some) {
            for (k, solution) in kept {
                self.checked += 1;
                if self.digests[c][*k] != Some(check::solution_digest(solution)) {
                    self.wrong(format!(
                        "case {c}, event {k}: a later session served different bits"
                    ));
                }
            }
            return;
        }
        let mut live = case.csr.clone();
        let mut ws = KernelWorkspace::new();
        let mut kept = kept.iter().peekable();
        for (k, delta) in case.stream.iter().enumerate() {
            if let Err(err) = live.apply_delta(delta) {
                self.wrong(format!(
                    "case {c}, event {k}: the stream does not apply: {err}"
                ));
                return;
            }
            let Some((_, solution)) = kept.next_if(|(i, _)| *i == k) else {
                continue;
            };
            self.checked += 1;
            match solve_from_scratch(&live, M, None, &mut ws) {
                Ok(oracle) if check::same_solution(solution, &oracle) => {
                    match check::csr_schedule(&live, M, &solution.schedule) {
                        Ok(()) => self.digests[c][k] = Some(check::solution_digest(solution)),
                        Err(why) => self.wrong(format!("case {c}, event {k}: {why}")),
                    }
                }
                Ok(_) => self.wrong(format!("case {c}, event {k}: session ≠ solve_from_scratch")),
                Err(err) => self.wrong(format!("case {c}, event {k}: oracle failed: {err}")),
            }
        }
    }

    fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Per-event cost growth with session history: the p50 of the streams'
/// last tenth of events over the p50 of their first tenth, pooled by
/// stream position over every session (so the machine's speed changes
/// during the run weigh on both sides alike).
fn position_drift(runs: &[SessionRun]) -> f64 {
    let tenth = EVENTS / 10;
    let pooled = |range: std::ops::Range<usize>| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| r.latency_us[range.clone()].iter().copied())
            .collect()
    };
    median(&pooled(EVENTS - tenth..EVENTS)) / median(&pooled(0..tenth))
}

/// Sessions over the cases in rotation until `budget` is spent (at
/// least two rotations); returns the runs and the failed opens. With a
/// tracer, every other rotation is traced, so changes in the machine's
/// speed weigh on traced and untraced sessions alike.
fn sessions(
    svc: &SchedulingService,
    cases: &[Case],
    budget: Duration,
    checker: &mut Checker,
    mut tracer: Option<&mut Tracer>,
    opens: &mut Vec<f64>,
) -> (Vec<SessionRun>, u64) {
    let handle = svc.handle();
    let mut runs: Vec<SessionRun> = Vec::new();
    let mut failed = 0;
    let mut spent = Duration::ZERO;
    let mut rotation = 0usize;
    while runs.len() < 2 * cases.len() || spent < budget {
        let traced = rotation % 2 == 1;
        rotation += 1;
        for (c, case) in cases.iter().enumerate() {
            let id = runs.len() as u64;
            let open = || handle.open_session(TENANT, case.csr.clone(), M, None);
            let (session, d) = match tracer.as_deref_mut().filter(|_| traced) {
                None => timed(open),
                Some(t) => t.span(id, "service.session_open", None, open),
            };
            opens.push(us(d));
            let Ok(mut session) = session else {
                failed += 1;
                continue;
            };
            let span_to = tracer.as_deref_mut().filter(|_| traced).map(|t| (t, id));
            let (run, kept) = replay(&mut session, &case.stream, span_to);
            spent += run.elapsed;
            checker.session(c, case, &kept);
            runs.push(run);
        }
    }
    (runs, failed)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (cases, svc, setups, setup_s, gen_s) = setup(args.seed);
    let shapes: Vec<String> = cases
        .iter()
        .map(|c| format!("n = {} e = {}", c.dag.n(), c.dag.graph().edge_count()))
        .collect();
    report.note(format!(
        "sessions: {CASES} layered random DAGs ({}), m = {M}, uncapped; each with a {EVENTS}-event mixed stream (arrivals, completions, re-costs)",
        shapes.join("; ")
    ));
    let mut checker = Checker {
        digests: vec![vec![None; EVENTS]; CASES],
        wrong: 0,
        checked: 0,
        first_error: None,
    };
    let budget = Duration::from_secs_f64(args.seconds);
    let mut opens = Vec::new();
    let mut failed = 0;
    let mut events = 0u64;
    if args.trace {
        let mut tracer = Tracer::new();
        let (runs, f) = sessions(
            &svc,
            &cases,
            budget.mul_f64(0.6),
            &mut checker,
            Some(&mut tracer),
            &mut opens,
        );
        failed += f;
        for run in &runs {
            events += run.latency_us.len() as u64;
            failed += run.failed;
        }
        let (traced, untraced): (Vec<SessionRun>, Vec<SessionRun>) =
            runs.into_iter().partition(|r| r.traced);
        let refused = svc.handle().stats().global.refused;
        layers(
            &cases,
            &untraced,
            &traced,
            &opens,
            refused,
            gen_s,
            &mut tracer,
            &mut report,
        );
        report.note(tracer.save("session_stream", args.seed));
    } else {
        let (runs, f) = sessions(&svc, &cases, budget, &mut checker, None, &mut opens);
        failed += f;
        let mut all = Vec::new();
        let mut total = Duration::ZERO;
        let mut p99s = Vec::new();
        for run in &runs {
            failed += run.failed;
            total += run.elapsed;
            all.extend_from_slice(&run.latency_us);
            p99s.push(quantile(&run.latency_us, 0.99));
        }
        events = all.len() as u64;
        let tenth = EVENTS / 10;
        report.note(format!(
            "{} sessions x {EVENTS} events; sent {events}, succeeded {}, failed {failed}",
            runs.len(),
            events - failed
        ));
        report.e2e(
            "throughput",
            "session.events_per_s",
            events as f64 / total.as_secs_f64(),
            format!("events/s over {} sessions", runs.len()),
        );
        report.e2e(
            "p50_us",
            "session.p50_us",
            median(&all),
            format!("per event, n = {}", all.len()),
        );
        report.e2e(
            "p90_us",
            "session.p90_us",
            quantile(&all, 0.9),
            format!("per event, n = {}", all.len()),
        );
        report.note(format!(
            "session.p99_us = {} us (per event, n = {}; median of per-session p99s {}; not gated: see perfledger/README.md)",
            quantile(&all, 0.99),
            all.len(),
            median(&p99s)
        ));
        report.note(format!(
            "session.drift = {} (p50 of events {}..{EVENTS} / events 0..{tenth}, pooled over sessions; not gated: see perfledger/README.md)",
            position_drift(&runs),
            EVENTS - tenth
        ));
        report.e2e(
            "setup_s",
            "setup_s",
            setup_s,
            format!(
                "median of {setups} set-ups: generation + service build + {CASES} session opens"
            ),
        );
        report.e2e(
            "peak_rss_mb",
            "peak_rss_mb",
            crate::measure::peak_rss_mib(),
            "VmHWM",
        );
    }
    svc.shutdown();
    report.note(format!(
        "checked {} sampled events (every {CHECK_EVERY}th)",
        checker.checked
    ));
    if let Some(why) = &checker.first_error {
        report.note(format!("first check failure: {why}"));
    }
    report.attempted = events;
    report.failed = failed;
    report.wrong = checker.wrong;
    report
}

#[allow(clippy::too_many_arguments)]
fn layers(
    cases: &[Case],
    untraced: &[SessionRun],
    traced: &[SessionRun],
    opens: &[f64],
    refused: u64,
    gen_s: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let applies: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.latency_us.iter().copied())
        .collect();
    report.layer_us("service.session_apply", &applies);
    report.layer_us("service.session_open", opens);
    report.layer("service.session_apply_drift", position_drift(traced));
    report.layer("service.refused", refused as f64);

    // The engine under the session, driven directly over every case,
    // and the instance mutation alone on a mirror CSR.
    let portfolio = Portfolio::standard();
    let (mut replan, mut deltas) = (Vec::new(), Vec::new());
    let (mut replayed, mut engine_events, mut fractions) = (0u64, 0u64, Vec::new());
    for (c, case) in cases.iter().enumerate() {
        let id = (1 << 40) + c as u64;
        let Ok(mut engine) = portfolio.open_replan(case.csr.clone(), M, None) else {
            continue;
        };
        let mut live = case.csr.clone();
        for delta in &case.stream {
            let (_, d) = tracer.span(id, "core.replan_apply", None, || engine.apply(delta));
            replan.push(us(d));
            let (_, d) = tracer.span(id, "dag.apply_delta", None, || live.apply_delta(delta));
            deltas.push(us(d));
        }
        fractions.push(engine.replay_fraction());
        replayed += engine.replayed_rounds();
        engine_events += engine.events();
    }
    report.layer_us("core.replan_apply", &replan);
    report.layer("core.replay_fraction", median(&fractions));
    report.layer(
        "core.replayed_rounds_per_event",
        replayed as f64 / engine_events.max(1) as f64,
    );
    report.layer_us("dag.apply_delta", &deltas);

    // What opening a session costs below the service: flattening the
    // generated DAG and ranking it.
    let (mut flatten, mut rank) = (Vec::new(), Vec::new());
    for rep in 0..8u64 {
        for (c, case) in cases.iter().enumerate() {
            let id = (2 << 40) + rep * CASES as u64 + c as u64;
            let (csr, d) = tracer.span(id, "dag.flatten", None, || case.dag.csr());
            flatten.push(us(d));
            let (_, d) = tracer.span(id, "listsched.rank", None, || {
                PriorityOrder::Index.rank_csr(case.dag.graph(), &csr)
            });
            rank.push(us(d));
        }
    }
    report.layer_us("dag.flatten", &flatten);
    report.layer_us("listsched.rank", &rank);
    let bytes: u64 = cases.iter().map(|c| check::dag_bytes(&c.dag)).sum();
    report.layer("dag.instance_bytes", bytes as f64 / cases.len() as f64);
    report.layer("workloads.gen_s", gen_s);

    let per_event = |runs: &[SessionRun]| {
        let events: usize = runs.iter().map(|r| r.latency_us.len()).sum();
        runs.iter().map(|r| r.elapsed.as_secs_f64()).sum::<f64>() / events.max(1) as f64
    };
    report.layer(
        "trace.overhead_frac",
        per_event(traced) / per_event(untraced) - 1.0,
    );
    for what in [
        "service.submit, service.wait, service.hop, service.queue_depth_max, service.head_wait_max_us, service.degraded, service.retried: sessions bypass the queue",
        "core.plan, core.dispatch, core.package, exact.solve, bench.gen_late_p99_us, ledger.unaccounted_frac: no one-shot requests",
        "core.sweep_point, core.sweep_replayed_frac: no ∆-sweeps",
        "listsched.kernel_cold, listsched.kernel_hot: the kernel runs only as suffix replays inside core.replan_apply",
    ] {
        report.absent(what);
    }
}
