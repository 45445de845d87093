//! `serve_mixed`: one-shot requests through a `SchedulingService` with
//! one worker, driven from the main thread.
//!
//! The fleet is generated from the seed: 80% DAG requests (layered
//! random, fork-join and Gaussian-elimination DAGs, n ∈ {250, 1000} in
//! a 3:1 ratio, m = 8), 15% independent-task requests (n ∈ {250, 1000},
//! routed to SBO∆) and 5% tiny ones (m^n ≤ 2^12, routed to exact
//! enumeration), every one a `BiObjective{∆ = 3}` request at
//! `PaperRatio`, split over two tenants under deficit round robin. The stream visits the fleet in one seeded
//! order, so an instance is served again only after every other one
//! was, and each phase serves it a few times.
//!
//! * Drain (closed loop): an untimed warm-up pass, then submit the
//!   whole stream and wait for every request, repeated; throughput is
//!   the best pass.
//! * Window (closed loop): `WINDOW` requests outstanding; latency runs
//!   from submission to the observed completion. These are the gated
//!   `p50_us`/`p90_us`.
//! * Paced (open loop): one request every `1 / PACED_RATE` seconds, for
//!   whole rotations through the fleet; latency runs from each
//!   request's due time to its observed completion. Printed, not gated:
//!   it rides on how fast the machine wakes the idle worker.
//!
//! The traced run adds the stage ledger: each request replayed outside
//! the service through plan → flatten → rank → kernel (cold, then hot
//! on the same CSR) → package, and through `solve_planned` as a whole,
//! next to its idle round trip through the service.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sws_core::dispatch::DispatchWorker;
use sws_core::portfolio::Portfolio;
use sws_core::rls::{rls_guarantee, PriorityOrder, RlsConfig, RlsResult};
use sws_dag::DagInstance;
use sws_listsched::kernel::{event_driven_schedule_csr, KernelWorkspace, MemoryCapAdmission};
use sws_model::policy::{OverflowPolicy, TenantPolicy};
use sws_model::solve::{BackendId, BoundReport, Guarantee, ObjectiveMode};
use sws_service::{
    SchedulingService, ServiceHandle, ServiceInstance, ServiceOutcome, ServiceRequest,
};
use sws_workloads::dagsets::{dag_workload, DagFamily};
use sws_workloads::random::random_instance;
use sws_workloads::rng::{derive_seed, seeded_rng};
use sws_workloads::TaskDistribution;

use crate::check;
use crate::measure::{cache_sizes, median, quantile, repeat_setup, timed, us, SplitMix, Tracer};
use crate::report::Report;
use crate::Args;

const M: usize = 8;
const DELTA: f64 = 3.0;
const OBJECTIVE: ObjectiveMode = ObjectiveMode::BiObjective { delta: DELTA };
const SIZES: [usize; 2] = [250, 1000];
const FAMILIES: [DagFamily; 3] = [
    DagFamily::LayeredRandom,
    DagFamily::ForkJoin,
    DagFamily::GaussianElimination,
];
/// Distinct instances in the fleet: their computed footprint (about
/// 320 MiB) exceeds the 300 MiB last-level cache `lscpu` reports on the
/// reference machine.
const FLEET: usize = 5200;
/// Open-loop send rate (requests/s): about a sixth of the drain
/// capacity (9 300 req/s) measured on a 2-vCPU x86-64 container when
/// the benchmark was written. At half the capacity the paced p50 moved
/// by 50% between runs on that machine, and at a quarter the p90 still
/// moved by 40%: queueing amplifies every change in the machine's speed.
const PACED_RATE: f64 = 1500.0;
/// Drain passes at least, whatever the time budget.
const MIN_PASSES: usize = 3;
/// Fleet instances re-solved directly for the bit-identity check.
const DIRECT_SAMPLE: usize = 48;
/// Requests per chunk of the stage replay: flattened together, then
/// scheduled in order, so each kernel run meets a cache-cold CSR.
const REPLAY_CHUNK: usize = 256;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Dag,
    Independent,
    Tiny,
}

struct Item {
    kind: Kind,
    instance: ServiceInstance,
    tenant: &'static str,
}

impl Item {
    fn request(&self) -> ServiceRequest {
        ServiceRequest::new(self.tenant, self.instance.clone(), OBJECTIVE)
            .with_guarantee(Guarantee::PaperRatio)
    }

    fn dag(&self) -> Option<&DagInstance> {
        match &self.instance {
            ServiceInstance::Dag(dag) => Some(dag),
            ServiceInstance::Independent(_) => None,
        }
    }
}

/// The generated fleet in stream order, plus its computed footprint.
struct Fleet {
    items: Vec<Item>,
    bytes: u64,
    dag_bytes: Vec<u64>,
}

fn generate(seed: u64) -> Fleet {
    let mut items = Vec::with_capacity(FLEET);
    let mut dag_bytes = Vec::new();
    let mut bytes = 0u64;
    let mut picks = SplitMix::new(derive_seed(seed, 0xF1EE7));
    let (mut dags, mut indeps, mut tinies) = (0usize, 0usize, 0usize);
    for k in 0..FLEET {
        let rng = &mut seeded_rng(derive_seed(seed, k as u64));
        let tenant = if picks.below(2) == 0 { "a" } else { "b" };
        let item = match k % 20 {
            0 => {
                // 2^8, 2^10 or 2^12 assignments: exact enumeration.
                let n = 8 + 2 * (tinies % 3);
                tinies += 1;
                let inst = random_instance(n, 2, TaskDistribution::Uncorrelated, rng);
                bytes += check::instance_bytes(&inst);
                Item {
                    kind: Kind::Tiny,
                    instance: ServiceInstance::Independent(Arc::new(inst)),
                    tenant,
                }
            }
            1..=3 => {
                let n = SIZES[indeps % 2];
                indeps += 1;
                let inst = random_instance(n, M, TaskDistribution::AntiCorrelated, rng);
                bytes += check::instance_bytes(&inst);
                Item {
                    kind: Kind::Independent,
                    instance: ServiceInstance::Independent(Arc::new(inst)),
                    tenant,
                }
            }
            _ => {
                // Three n ≈ 250 DAGs per n ≈ 1000 one, each size cycling
                // through the families.
                let family = FAMILIES[(dags / 4) % 3];
                let n = SIZES[usize::from(dags % 4 == 3)];
                dags += 1;
                let dag = dag_workload(family, n, M, TaskDistribution::Uncorrelated, rng);
                let b = check::dag_bytes(&dag);
                bytes += b;
                dag_bytes.push(b);
                Item {
                    kind: Kind::Dag,
                    instance: ServiceInstance::Dag(Arc::new(dag)),
                    tenant,
                }
            }
        };
        items.push(item);
    }
    picks.shuffle(&mut items);
    Fleet {
        items,
        bytes,
        dag_bytes,
    }
}

fn service() -> SchedulingService {
    let queue = TenantPolicy::unlimited().with_overflow(OverflowPolicy::Queue);
    SchedulingService::builder()
        .workers(1)
        .queue_capacity(FLEET + 64)
        .tenant("a", queue)
        .tenant("b", queue.with_weight(2))
        .build()
}

/// Set-up = fleet generation + service build, repeated; returns the
/// last pair, the set-up count, and the median set-up and generation
/// times.
fn setup(seed: u64) -> (Fleet, SchedulingService, usize, f64, f64) {
    let mut gens = Vec::new();
    let ((fleet, svc), setups) = repeat_setup(|| {
        let (fleet, gen) = timed(|| generate(seed));
        gens.push(gen.as_secs_f64());
        (fleet, service())
    });
    (fleet, svc, setups.len(), median(&setups), median(&gens))
}

/// Checks every served outcome: the first answer for an instance is
/// validated in full, later ones must repeat its bits.
struct Checker {
    digests: Vec<Option<u64>>,
    failed: u64,
    wrong: u64,
    served: u64,
    first_error: Option<String>,
}

impl Checker {
    fn new() -> Self {
        Checker {
            digests: vec![None; FLEET],
            failed: 0,
            wrong: 0,
            served: 0,
            first_error: None,
        }
    }

    fn wrong(&mut self, why: String) {
        self.wrong += 1;
        self.first_error.get_or_insert(why);
    }

    fn outcome(&mut self, fleet: &Fleet, k: usize, outcome: &ServiceOutcome) {
        self.served += 1;
        let solution = match outcome {
            Ok(solution) => solution,
            Err(err) => {
                self.failed += 1;
                self.first_error
                    .get_or_insert(format!("request {k} failed: {err}"));
                return;
            }
        };
        let digest = check::solution_digest(solution);
        match self.digests[k] {
            Some(known) if known == digest => {}
            Some(_) => self.wrong(format!("request {k}: a repeat served different bits")),
            None => {
                let item = &fleet.items[k];
                let verdict = match &item.instance {
                    ServiceInstance::Dag(dag) => check::rls_dag_solution(dag, DELTA, solution),
                    ServiceInstance::Independent(inst) => {
                        check::independent_solution(inst, solution)
                    }
                };
                let expected = match item.kind {
                    Kind::Dag => BackendId::KernelRls,
                    Kind::Independent => BackendId::Sbo,
                    Kind::Tiny => BackendId::ExactParetoEnum,
                };
                match verdict {
                    Ok(()) if solution.stats.backend == expected => self.digests[k] = Some(digest),
                    Ok(()) => self.wrong(format!(
                        "request {k} served by {:?}",
                        solution.stats.backend
                    )),
                    Err(why) => self.wrong(format!("request {k}: {why}")),
                }
            }
        }
    }

    /// A seeded sample of the fleet must be bit-identical to direct
    /// `Portfolio::solve` calls.
    fn direct_sample(&mut self, fleet: &Fleet, served: &[ServiceOutcome], seed: u64) {
        let portfolio = Portfolio::standard();
        let mut picks = SplitMix::new(derive_seed(seed, 0xD1EC7));
        for k in picks.sample(served.len(), DIRECT_SAMPLE) {
            let Ok(solution) = &served[k] else { continue };
            let item = &fleet.items[k];
            match portfolio.solve(&item.instance.as_request(OBJECTIVE, Guarantee::PaperRatio)) {
                Ok(direct) if check::same_solution(solution, &direct) => {}
                Ok(_) => self.wrong(format!("request {k}: served ≠ direct Portfolio::solve")),
                Err(err) => self.wrong(format!("request {k}: direct solve failed: {err}")),
            }
        }
    }
}

/// One closed-loop pass over the stream.
struct Pass {
    elapsed: Duration,
    outcomes: Vec<ServiceOutcome>,
}

fn drain_pass(
    handle: &ServiceHandle,
    fleet: &Fleet,
    mut tracer: Option<(&mut Tracer, &mut Vec<f64>, &mut Vec<f64>)>,
    pass: u64,
) -> Pass {
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(fleet.items.len());
    for (k, item) in fleet.items.iter().enumerate() {
        let ticket = match tracer.as_mut() {
            None => handle.submit(item.request()),
            Some((t, submits, _)) => {
                let id = pass * FLEET as u64 + k as u64;
                let (ticket, d) =
                    t.span(id, "service.submit", None, || handle.submit(item.request()));
                submits.push(us(d));
                ticket
            }
        };
        tickets.push(ticket);
    }
    let mut outcomes = Vec::with_capacity(tickets.len());
    for (k, ticket) in tickets.into_iter().enumerate() {
        let outcome = match (ticket, tracer.as_mut()) {
            (Err(err), _) => Err(err),
            (Ok(ticket), None) => ticket.wait(),
            (Ok(ticket), Some((t, _, waits))) => {
                let id = pass * FLEET as u64 + k as u64;
                let (outcome, d) = t.span(id, "service.wait", None, || ticket.wait());
                waits.push(us(d));
                outcome
            }
        };
        outcomes.push(outcome);
    }
    Pass {
        elapsed: start.elapsed(),
        outcomes,
    }
}

/// Closed-loop passes until `budget` is spent (at least `min_passes`);
/// returns per-pass seconds. Span ids count passes from `first_pass`.
fn drain(
    handle: &ServiceHandle,
    fleet: &Fleet,
    (budget, min_passes, first_pass): (Duration, usize, u64),
    checker: &mut Checker,
    mut tracer: Option<(&mut Tracer, &mut Vec<f64>, &mut Vec<f64>)>,
) -> Vec<f64> {
    let mut passes = Vec::new();
    let mut spent = Duration::ZERO;
    while passes.len() < min_passes || spent < budget {
        let traced = tracer
            .as_mut()
            .map(|(t, s, w)| (&mut **t, &mut **s, &mut **w));
        let pass = drain_pass(handle, fleet, traced, first_pass + passes.len() as u64);
        spent += pass.elapsed;
        passes.push(pass.elapsed.as_secs_f64());
        for (k, outcome) in pass.outcomes.iter().enumerate() {
            checker.outcome(fleet, k, outcome);
        }
    }
    passes
}

/// One untimed pass first: it fills the allocator and the service's
/// lazy state, and its answers are the ones validated in full and
/// compared with direct solves.
fn warm_up(handle: &ServiceHandle, fleet: &Fleet, checker: &mut Checker, seed: u64) {
    let pass = drain_pass(handle, fleet, None, 0);
    for (k, outcome) in pass.outcomes.iter().enumerate() {
        checker.outcome(fleet, k, outcome);
    }
    checker.direct_sample(fleet, &pass.outcomes, seed);
}

/// How a streamed phase sends its requests.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Load {
    /// Open loop: one request every `1 / PACED_RATE` seconds for whole
    /// fleet rotations (at least two) covering about the budget;
    /// latency runs from each request's due time.
    Paced,
    /// Closed loop: the next request goes out as soon as fewer than
    /// `WINDOW` are outstanding, until the budget is spent; latency runs
    /// from submission. The worker never waits for work, so the figures
    /// do not ride on how fast the machine wakes an idle thread.
    Window,
}

/// Requests outstanding in the closed-loop latency phase.
const WINDOW: usize = 2;

/// Streamed-phase results.
struct Streamed {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    sent: u64,
    queue_depth_max: usize,
    head_wait_max_us: f64,
}

/// Streams requests in fleet order under `load`; `sample_stats` polls
/// `ServiceHandle::stats` about every millisecond. The main thread
/// spins, observing each completion as it lands.
fn streamed(
    handle: &ServiceHandle,
    fleet: &Fleet,
    load: Load,
    budget: Duration,
    checker: &mut Checker,
    sample_stats: bool,
) -> Streamed {
    let rotations = ((budget.as_secs_f64() * PACED_RATE) / FLEET as f64)
        .round()
        .max(2.0) as usize;
    let interval = Duration::from_secs_f64(1.0 / PACED_RATE);
    let mut latency_us = Vec::new();
    let mut late_us = Vec::new();
    let mut pending = Vec::with_capacity(64);
    let mut polled = Vec::with_capacity(64);
    let mut digests = Vec::new();
    let (mut queue_depth_max, mut head_wait_max_us) = (0usize, 0.0f64);
    let mut next_stats = Instant::now();
    let start = Instant::now();
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        let sending = match load {
            Load::Paced => next < rotations * FLEET,
            Load::Window => now - start < budget,
        };
        if !sending && pending.is_empty() {
            break;
        }
        if sending {
            let (due, ready) = match load {
                Load::Paced => {
                    let due = start + interval * next as u32;
                    (due, now >= due)
                }
                Load::Window => (now, pending.len() < WINDOW),
            };
            if ready {
                let ticket = handle.submit(fleet.items[next % FLEET].request());
                late_us.push(us(now - due));
                latency_us.push(0.0);
                match ticket {
                    Ok(ticket) => pending.push((next, due, ticket)),
                    Err(err) => digests.push((next, Err(err))),
                }
                next += 1;
                continue;
            }
        }
        std::mem::swap(&mut pending, &mut polled);
        for (idx, due, ticket) in polled.drain(..) {
            match ticket.try_wait() {
                Ok(outcome) => {
                    latency_us[idx] = us(due.elapsed());
                    digests.push((
                        idx,
                        outcome.map(|s| (check::solution_digest(&s), s.stats.backend)),
                    ));
                }
                Err(ticket) => pending.push((idx, due, ticket)),
            }
        }
        if sample_stats && now >= next_stats {
            let stats = handle.stats();
            queue_depth_max = queue_depth_max.max(stats.queue_depth);
            if let Some(wait) = stats.global.head_wait {
                head_wait_max_us = head_wait_max_us.max(us(wait));
            }
            next_stats = now + Duration::from_millis(1);
        }
        std::hint::spin_loop();
    }
    for (idx, outcome) in digests {
        let k = idx % FLEET;
        checker.served += 1;
        match outcome {
            Err(err) => {
                checker.failed += 1;
                checker
                    .first_error
                    .get_or_insert(format!("streamed request {idx} failed: {err}"));
            }
            Ok((digest, _)) if checker.digests[k] == Some(digest) => {}
            Ok((_, backend)) => checker.wrong(format!(
                "streamed request {idx} ({backend:?}) differs from its drain answer"
            )),
        }
    }
    Streamed {
        latency_us,
        late_us,
        sent: next as u64,
        queue_depth_max,
        head_wait_max_us,
    }
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (fleet, svc, setups, setup_s, gen_s) = setup(args.seed);
    let handle = svc.handle();
    let dag_mean = fleet.dag_bytes.iter().sum::<u64>() as f64 / fleet.dag_bytes.len().max(1) as f64;
    report.note(format!(
        "fleet: {FLEET} distinct instances ({} DAG), computed footprint {:.1} MiB, mean DAG instance {:.0} bytes",
        fleet.dag_bytes.len(),
        fleet.bytes as f64 / (1 << 20) as f64,
        dag_mean
    ));
    report.note(format!("caches (lscpu): {}", cache_sizes()));
    report.note(format!(
        "threads: 1 service worker + the driving main thread; available parallelism {}",
        std::thread::available_parallelism().map_or(1, |p| p.get())
    ));
    let mut checker = Checker::new();
    let budget = Duration::from_secs_f64(args.seconds);

    if args.trace {
        traced(
            args,
            &fleet,
            &handle,
            budget,
            gen_s,
            dag_mean,
            &mut checker,
            &mut report,
        );
    } else {
        warm_up(&handle, &fleet, &mut checker, args.seed);
        let passes = drain(
            &handle,
            &fleet,
            (budget.mul_f64(0.35), MIN_PASSES, 0),
            &mut checker,
            None,
        );
        let rps: Vec<f64> = passes.iter().map(|s| FLEET as f64 / s).collect();
        let drain_served = checker.served;
        let drain_failed = checker.failed;
        let window = streamed(
            &handle,
            &fleet,
            Load::Window,
            budget.mul_f64(0.3),
            &mut checker,
            false,
        );
        let window_failed = checker.failed - drain_failed;
        let paced = streamed(
            &handle,
            &fleet,
            Load::Paced,
            budget.mul_f64(0.3),
            &mut checker,
            false,
        );
        let paced_failed = checker.failed - drain_failed - window_failed;
        report.note(format!(
            "drain: 1 untimed warm-up + {} timed passes of {FLEET} requests; sent {drain_served}, succeeded {}, failed {drain_failed}",
            passes.len(),
            drain_served - drain_failed
        ));
        report.note(format!(
            "window: closed loop, {WINDOW} outstanding; sent {}, succeeded {}, failed {window_failed}",
            window.sent,
            window.sent - window_failed
        ));
        report.note(format!(
            "paced: {PACED_RATE} req/s open loop; sent {}, succeeded {}, failed {paced_failed}; generator lateness p99 {:.1} us",
            paced.sent,
            paced.sent - paced_failed,
            quantile(&paced.late_us, 0.99)
        ));
        // The best pass: every pass does the same work, and on a shared
        // machine interference only ever slows a pass down.
        let best = rps.iter().copied().fold(0.0, f64::max);
        report.e2e(
            "throughput",
            "serve.throughput_rps",
            best,
            format!(
                "req/s, best of {} drain passes (median {:.1})",
                rps.len(),
                median(&rps)
            ),
        );
        let lat = &window.latency_us;
        report.e2e(
            "p50_us",
            "serve.p50_us",
            median(lat),
            format!("closed loop, {WINDOW} outstanding, n = {}", lat.len()),
        );
        report.e2e(
            "p90_us",
            "serve.p90_us",
            quantile(lat, 0.9),
            format!("closed loop, {WINDOW} outstanding, n = {}", lat.len()),
        );
        let open = &paced.latency_us;
        report.note(format!(
            "serve.p99_us = {} us (closed loop, n = {}); open loop at {PACED_RATE} req/s from the due time: p50 {} us, p90 {} us, p99 {} us (n = {}); not gated: see perfledger/README.md",
            quantile(lat, 0.99),
            lat.len(),
            median(open),
            quantile(open, 0.9),
            quantile(open, 0.99),
            open.len()
        ));
        let third = (passes.len() / 3).max(1);
        report.note(format!(
            "serve.drift = {} (drain pass time p50, last {third} passes / first {third}; not gated: see perfledger/README.md)",
            median(&passes[passes.len() - third..]) / median(&passes[..third])
        ));
        report.e2e(
            "setup_s",
            "setup_s",
            setup_s,
            format!("median of {setups} set-ups: fleet generation + service build"),
        );
    }
    let stats = svc.shutdown();
    report.attempted = checker.served;
    report.failed = checker.failed;
    report.note(format!(
        "service totals: admitted {}, completed {}, refused {}",
        stats.global.admitted, stats.global.completed, stats.global.refused
    ));
    report.wrong = checker.wrong;
    if let Some(why) = &checker.first_error {
        report.note(format!("first check failure: {why}"));
    }
    if !args.trace {
        report.e2e(
            "peak_rss_mb",
            "peak_rss_mb",
            crate::measure::peak_rss_mib(),
            "VmHWM",
        );
    }
    report
}

/// Per-request stage timings of the replay ledger.
#[derive(Default)]
struct Ledger {
    round_trip: Vec<f64>,
    submit: Vec<f64>,
    hop: Vec<f64>,
    plan: Vec<f64>,
    dispatch: Vec<f64>,
    flatten: Vec<f64>,
    rank: Vec<f64>,
    kernel_cold: Vec<f64>,
    kernel_hot: Vec<f64>,
    package: Vec<f64>,
    exact: Vec<f64>,
    /// Closure classes: DAG requests of n ≈ 250 and of n ≈ 1000.
    classes: [Class; 2],
}

/// The stage timings of one request shape, for the closure check.
#[derive(Default)]
struct Class {
    round_trip: Vec<f64>,
    submit: Vec<f64>,
    flatten: Vec<f64>,
    rank: Vec<f64>,
    kernel_cold: Vec<f64>,
    package: Vec<f64>,
    hop: Vec<f64>,
}

impl Class {
    /// `1 − Σ stage medians / round-trip median`, with the stage list.
    fn closure(&self) -> (f64, f64, Vec<(&'static str, f64)>) {
        let stages = vec![
            ("service.submit", median(&self.submit)),
            ("dag.flatten", median(&self.flatten)),
            ("listsched.rank", median(&self.rank)),
            ("listsched.kernel_cold", median(&self.kernel_cold)),
            ("core.package", median(&self.package)),
            ("service.hop", median(&self.hop)),
        ];
        let rt = median(&self.round_trip);
        let sum: f64 = stages.iter().map(|(_, v)| v).sum();
        (1.0 - sum / rt, rt, stages)
    }
}

/// The closure class of a DAG request: 0 for n ≈ 250, 1 for n ≈ 1000.
fn class_of(dag: &DagInstance) -> usize {
    usize::from(dag.n() > 2 * SIZES[0])
}

#[allow(clippy::too_many_arguments)]
fn traced(
    args: &Args,
    fleet: &Fleet,
    handle: &ServiceHandle,
    budget: Duration,
    gen_s: f64,
    dag_mean: f64,
    checker: &mut Checker,
    report: &mut Report,
) {
    let mut tracer = Tracer::new();
    let quarter = budget.mul_f64(0.25);
    warm_up(handle, fleet, checker, args.seed);
    // Untraced and traced passes alternate, so changes in the machine's
    // speed weigh on both sides of the overhead ratio alike.
    let (mut untraced, mut traced_passes) = (Vec::new(), Vec::new());
    let (mut submits, mut waits) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.len() < MIN_PASSES || start.elapsed() < quarter * 2 {
        let pass = 2 * untraced.len() as u64;
        untraced.extend(drain(
            handle,
            fleet,
            (Duration::ZERO, 1, pass),
            checker,
            None,
        ));
        let traced = Some((&mut tracer, &mut submits, &mut waits));
        traced_passes.extend(drain(
            handle,
            fleet,
            (Duration::ZERO, 1, pass + 1),
            checker,
            traced,
        ));
    }
    let paced = streamed(handle, fleet, Load::Paced, quarter, checker, true);
    let ledger = replay(fleet, handle, quarter, &mut tracer);
    let stats = handle.stats();

    report.layer_us("service.submit", &submits);
    report.layer_us("service.wait", &waits);
    report.layer_us("service.hop", &ledger.hop);
    report.layer("service.queue_depth_max", paced.queue_depth_max as f64);
    report.layer("service.head_wait_max_us", paced.head_wait_max_us);
    report.layer("service.refused", stats.global.refused as f64);
    report.layer("service.degraded", stats.global.degraded as f64);
    report.layer("service.retried", stats.global.retried as f64);
    report.layer_us("core.plan", &ledger.plan);
    report.layer_us("core.dispatch", &ledger.dispatch);
    report.layer_us("core.package", &ledger.package);
    let portfolio = Portfolio::standard();
    let mut shares = [0usize; 3];
    for item in &fleet.items {
        match portfolio.selected(&item.instance.as_request(OBJECTIVE, Guarantee::PaperRatio)) {
            Ok(BackendId::KernelRls) => shares[0] += 1,
            Ok(BackendId::Sbo) => shares[1] += 1,
            Ok(BackendId::ExactParetoEnum) => shares[2] += 1,
            _ => {}
        }
    }
    report.note(format!(
        "core.backend_share (Portfolio::selected over the fleet): kernel_rls {}, sbo {}, exact_enum {}",
        shares[0] as f64 / FLEET as f64,
        shares[1] as f64 / FLEET as f64,
        shares[2] as f64 / FLEET as f64
    ));
    report.layer_us("dag.flatten", &ledger.flatten);
    report.layer("dag.instance_bytes", dag_mean);
    report.layer_us("listsched.rank", &ledger.rank);
    report.layer_us("listsched.kernel_cold", &ledger.kernel_cold);
    report.layer_us("listsched.kernel_hot", &ledger.kernel_hot);
    report.layer_us("exact.solve", &ledger.exact);
    report.layer("workloads.gen_s", gen_s);
    report.layer("bench.gen_late_p99_us", quantile(&paced.late_us, 0.99));

    // Closure: the stage medians of one request shape against its idle
    // round-trip median. The metric is the n ≈ 250 class (the shape of
    // the batch and service bench rows); n ≈ 1000 is printed beside it.
    for (label, class) in ["n ≈ 250", "n ≈ 1000"].iter().zip(&ledger.classes) {
        let (unaccounted, rt, stages) = class.closure();
        let parts: Vec<String> = stages.iter().map(|(n, v)| format!("{n} {v:.2}")).collect();
        report.note(format!(
            "ledger (DAG requests {label}, {} requests): idle round trip median {rt:.2} us = {} + unaccounted {:.2} us ({:.1}%)",
            class.round_trip.len(),
            parts.join(" + "),
            unaccounted * rt,
            unaccounted * 100.0
        ));
    }
    report.layer("ledger.unaccounted_frac", ledger.classes[0].closure().0);
    report.note("ledger stages not timed separately: queue wait (zero on an idle service; service.wait covers it under load), the dispatch's own DAG downcast and admission-vector allocation (inside unaccounted)");
    let overhead = median(&traced_passes) / median(&untraced) - 1.0;
    report.layer("trace.overhead_frac", overhead);
    report.note(format!(
        "trace overhead: traced drain pass median {:.4} s vs untraced {:.4} s",
        median(&traced_passes),
        median(&untraced)
    ));
    for what in [
        "service.session_apply, service.session_open, service.session_apply_drift: no sessions in one-shot serving",
        "core.replan_apply, core.replay_fraction, core.replayed_rounds_per_event, dag.apply_delta: the replan engine stays idle",
        "core.sweep_point, core.sweep_replayed_frac: no ∆-sweeps",
    ] {
        report.absent(what);
    }
    report.note(tracer.save("serve_mixed", args.seed));
}

/// The stage ledger: for each request in stream order (until `budget`),
/// its idle round trip through the service, then the same request
/// replayed outside it, stage by stage.
fn replay(fleet: &Fleet, handle: &ServiceHandle, budget: Duration, tracer: &mut Tracer) -> Ledger {
    let portfolio = Portfolio::standard();
    let mut worker = DispatchWorker::new(&portfolio);
    let mut ws = KernelWorkspace::new();
    let mut ledger = Ledger::default();
    let start = Instant::now();
    let id_base = 1u64 << 40;
    for chunk in fleet.items.chunks(REPLAY_CHUNK) {
        if start.elapsed() >= budget && !ledger.round_trip.is_empty() {
            break;
        }
        let first = ledger.round_trip.len();
        for (j, item) in chunk.iter().enumerate() {
            let id = id_base + (first + j) as u64;
            let root = tracer.open(id, "request.round_trip", None);
            let (ticket, submit) = tracer.span(id, "service.submit", Some(root), || {
                handle.submit(item.request())
            });
            if let Ok(ticket) = ticket {
                let _ = tracer.span(id, "service.wait", Some(root), || ticket.wait());
            }
            let rt = us(tracer.close(root));
            let req = item.instance.as_request(OBJECTIVE, Guarantee::PaperRatio);
            let (plan, d_plan) = tracer.span(id, "core.plan", None, || portfolio.plan(&req));
            ledger.plan.push(us(d_plan));
            let Ok(plan) = plan else { continue };
            let (_, d_dispatch) = tracer.span(id, "core.dispatch", None, || {
                worker.solve_planned(&req, &plan)
            });
            let hop = rt - us(submit) - us(d_dispatch);
            ledger.round_trip.push(rt);
            ledger.submit.push(us(submit));
            ledger.dispatch.push(us(d_dispatch));
            ledger.hop.push(hop);
            match item.kind {
                Kind::Dag => {
                    let class = &mut ledger.classes[class_of(item.dag().expect("a DAG item"))];
                    class.round_trip.push(rt);
                    class.submit.push(us(submit));
                    class.hop.push(hop);
                }
                Kind::Tiny => {
                    let (_, d) = tracer.span(id, "exact.solve", None, || portfolio.solve(&req));
                    ledger.exact.push(us(d));
                }
                Kind::Independent => {}
            }
        }
        // Flatten and rank the chunk's DAGs first, then schedule them in
        // order: each kernel run meets a CSR that left the cache.
        let mut built = Vec::new();
        for (j, item) in chunk.iter().enumerate() {
            let Some(dag) = item.dag() else { continue };
            let id = id_base + (first + j) as u64;
            let (csr, d) = tracer.span(id, "dag.flatten", None, || dag.csr());
            ledger.flatten.push(us(d));
            ledger.classes[class_of(dag)].flatten.push(us(d));
            let (rank, d) = tracer.span(id, "listsched.rank", None, || {
                PriorityOrder::Index.rank_csr(dag.graph(), &csr)
            });
            ledger.rank.push(us(d));
            ledger.classes[class_of(dag)].rank.push(us(d));
            built.push((id, dag, csr, rank));
        }
        for (id, dag, csr, rank) in &built {
            let cap = DELTA * dag.mmax_lower_bound();
            let mut run = || {
                let mut admission = MemoryCapAdmission::new(M, cap);
                event_driven_schedule_csr(csr, M, rank, &mut admission, &mut ws)
            };
            let (_, d) = tracer.span(*id, "listsched.kernel_cold", None, &mut run);
            ledger.kernel_cold.push(us(d));
            ledger.classes[class_of(dag)].kernel_cold.push(us(d));
            let (outcome, d) = tracer.span(*id, "listsched.kernel_hot", None, &mut run);
            ledger.kernel_hot.push(us(d));
            let Ok(outcome) = outcome else { continue };
            let (_, d) = tracer.span(*id, "core.package", None, || {
                let result = RlsResult {
                    schedule: outcome.schedule,
                    lb: dag.mmax_lower_bound(),
                    memory_cap: cap,
                    marked: outcome.marked,
                    guarantee: rls_guarantee(DELTA, M),
                    config: RlsConfig::new(DELTA),
                };
                let bounds =
                    BoundReport::with_critical_path(dag.tasks(), M, dag.critical_path_length());
                result.into_solution(dag.tasks(), BackendId::KernelRls, bounds, true)
            });
            ledger.package.push(us(d));
            ledger.classes[class_of(dag)].package.push(us(d));
        }
    }
    ledger
}
