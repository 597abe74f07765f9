//! `serve` — what a client of the coalescing service sees, used two
//! ways.
//!
//! One `SolveService` (one worker, default `BatchPolicy`, telemetry
//! registry **on**, as a deployed service has it) with three tenants:
//! A (n = 3,000 SPD, full storage), B (n = 6,000 SPD, symmetric
//! storage), C (n = 3,000 general → block BiCGStab). A round is
//!
//! ```text
//!   ref · saturated window · ref · light window · ref
//! ```
//!
//! * **saturated window** — closed loop of 16 clients with one request
//!   outstanding each, 8 of them tenant A's, 4 tenant B's, 4 tenant C's,
//!   until 96 single-column requests have been sent; tol 1e-6 for three
//!   quarters and 1e-4 for one quarter. Each tenant having its own
//!   clients, no more than `max_batch` of them, keeps the outstanding
//!   mix constant and the batcher in one cycle (A8 · B4 · C4); one
//!   shared pool drawing tenants at random made the same window take
//!   0.75 to 1.9 s from round to round. A tenant's clients are played
//!   by one thread (see [`closed_loop`]): with a thread per client, one
//!   busy neighbour on a 2-vCPU box raised the window's p90 latency by
//!   25 % and its time by 8 % after pace correction; with a thread per
//!   tenant, by 1 %;
//! * **light window** — one client, one request outstanding: 48
//!   requests to A, each sent the moment the previous one completed.
//!   Nothing ever queues behind anything, so a request's latency is the
//!   batcher's linger plus a width-1 solve, exactly what a client of an
//!   idle service sees. An open loop on a fixed schedule well
//!   below the saturation rate measures the same two terms, but leaves
//!   the worker asleep between requests — what a core does after a sleep (clock,
//!   cache, a neighbour's turn on it) the pace reference, which never
//!   sleeps, cannot correct — and gets half the samples out of the same
//!   time. The time the client takes to send the next request after a
//!   completion is reported as the generator's lag.
//!
//! The two windows pull the batcher in opposite directions: a longer
//! linger widens saturated batches and raises `alt_lat_p50_ms`. The
//! only busy thread is the service worker: clients block on their
//! tickets.
//!
//! `alt_lat_p50_ms` is the sum of two per-window medians: the solve
//! time, pace-corrected like every other timing, and the queue wait,
//! which here is the linger timer — a wall-clock constant that a slower
//! host does not stretch, a fifth of the metric — averaged over the
//! windows and added as measured. Dividing it by the pace carried every
//! swing of the host into the metric at a fifth of its size.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mrhs_core::ResistanceSystem;
use mrhs_service::{
    FleetConfig, FleetService, MatrixRegistry, RequestOptions, ServiceConfig,
    ServiceStats, SolveOutput, SolveService, SubmitError, Ticket,
};
use mrhs_sparse::{MultiVec, SymmetricBcrs};
use mrhs_stokes::SystemBuilder;

use crate::harness::{mean, registry_on_over_off, Ctx, Outcome, Timings};
use crate::pace::Series;
use crate::util::{median, quantile, Rng, PACKING_SEED};
use crate::verify::{general_operator, CheckMatrix};

/// Particles of tenants A, B, C.
pub const TENANT_PARTICLES: [usize; 3] = [1000, 2000, 1000];
/// Closed-loop clients of tenants A, B, C: 16 outstanding requests.
pub const CLIENTS: [usize; 3] = [8, 4, 4];
/// Requests sent in one saturated window, over all tenants.
pub const SATURATED_REQUESTS: usize = 96;
const LIGHT_REQUESTS: usize = 48;
const TIGHT_TOL: f64 = 1e-6;
const LOOSE_TOL: f64 = 1e-4;

/// One request: tenant index, right-hand side, tolerance.
pub struct Req {
    pub tenant: usize,
    pub rhs: Vec<f64>,
    pub tol: f64,
}

/// A request with what came back for it.
pub struct Answered<'a> {
    pub req: &'a Req,
    pub resp: Resp,
}

/// What came back for a request.
pub struct Resp {
    pub submitted: Instant,
    /// `None` when the request was refused, expired or failed.
    pub out: Option<SolveOutput>,
    /// Seconds the request was sent after the previous one completed
    /// (light window).
    pub lag: f64,
}

/// Submits a request somewhere: the service, or the fleet probe.
pub type Submit<'a> = &'a (dyn Fn(&Req) -> Result<Ticket, SubmitError> + Sync);

pub struct State {
    pub service: SolveService,
    handles: [mrhs_service::MatrixHandle; 3],
    pub checks: [CheckMatrix; 3],
    matrices: [mrhs_sparse::BcrsMatrix; 3],
    /// Scalar dimensions of tenants A, B, C.
    pub dims: [usize; 3],
}

impl State {
    pub fn submit(&self, r: &Req) -> Result<Ticket, SubmitError> {
        self.service.submit(
            self.handles[r.tenant],
            MultiVec::from_vec(r.rhs.clone()),
            RequestOptions { tol: Some(r.tol), deadline: None },
        )
    }
}

/// Packs and assembles the three tenants, registers them, starts the
/// service and warms it with a short burst. `particles` is
/// [`TENANT_PARTICLES`] for the benchmark; `--selfcheck` passes small
/// systems.
pub fn build(seed: u64, particles: [usize; 3]) -> State {
    mrhs_telemetry::set_enabled(true);
    let registry = MatrixRegistry::new();
    let systems: Vec<_> = (0..3)
        .map(|t| {
            // Tenants of equal size must still be different systems.
            SystemBuilder::new(particles[t]).seed(PACKING_SEED + t as u64).build()
        })
        .collect();
    let a = systems[0].assemble();
    let b = systems[1].assemble();
    let c = general_operator(systems[2].particles(), &mut Rng::stream(seed, 20));
    let checks = [CheckMatrix::new(&a), CheckMatrix::new(&b), CheckMatrix::new(&c)];
    let dims = [a.n_rows(), b.n_rows(), c.n_rows()];
    let sym = SymmetricBcrs::from_full(&b, 1e-10).expect("resistance is symmetric");
    let handles = [
        registry.register_full("tenant-a", a.clone()),
        registry.register_symmetric("tenant-b", sym),
        registry.register_general("tenant-c", c.clone()),
    ];
    let service = SolveService::start(registry, ServiceConfig::default());
    let st = State { service, handles, checks, matrices: [a, b, c], dims };
    let warm = request_streams(&st.dims, 24, &mut Rng::stream(seed, 30));
    closed_loop(&|r| st.submit(r), &warm, CLIENTS, 24);
    st
}

fn request(dims: &[usize; 3], tenant: usize, tol: f64, rng: &mut Rng) -> Req {
    Req { tenant, rhs: rng.normals(dims[tenant]), tol }
}

/// Per-tenant request streams for one saturated window of `total`
/// requests: each tenant's clients draw from their own stream, which
/// holds twice the tenant's share of the clients (a tenant whose stream
/// runs dry simply stops sending). Every fourth tolerance is loose.
pub fn request_streams(
    dims: &[usize; 3],
    total: usize,
    rng: &mut Rng,
) -> [Vec<Req>; 3] {
    let clients: usize = CLIENTS.iter().sum();
    [0, 1, 2].map(|t| {
        (0..2 * total * CLIENTS[t] / clients)
            .map(|i| {
                request(
                    dims,
                    t,
                    if i % 4 == 3 { LOOSE_TOL } else { TIGHT_TOL },
                    rng,
                )
            })
            .collect()
    })
}

/// Closed loop: tenant `t` keeps `clients[t]` requests outstanding,
/// sending its next request only when one of its own completed, until
/// `total` requests have been sent over all tenants. One thread per
/// tenant plays all of that tenant's clients: it blocks on its oldest
/// ticket and, once woken, replaces every request the batch answered in
/// one go — three wake-ups per service cycle instead of sixteen, so
/// that what is measured is the batcher and not how fast the host
/// schedules sixteen sleepers beside a neighbour. Returns the answered
/// requests and the window's wall seconds.
pub fn closed_loop<'a>(
    submit: Submit,
    streams: &'a [Vec<Req>; 3],
    clients: [usize; 3],
    total: usize,
) -> (Vec<Answered<'a>>, f64) {
    let sent = AtomicUsize::new(0);
    let t = Instant::now();
    let answered = std::thread::scope(|scope| {
        let sent = &sent;
        let tenants: Vec<_> = (0..3)
            .filter(|&tenant| clients[tenant] > 0)
            .map(|tenant| {
                scope.spawn(move || {
                    let mut stream = streams[tenant].iter();
                    let mut flying = VecDeque::with_capacity(clients[tenant]);
                    let mut mine = Vec::new();
                    loop {
                        while flying.len() < clients[tenant]
                            && sent.fetch_add(1, Ordering::Relaxed) < total
                        {
                            let Some(req) = stream.next() else { break };
                            flying.push_back((
                                req,
                                Instant::now(),
                                submit(req).ok(),
                            ));
                        }
                        // Block on the oldest, then take whatever else
                        // its batch has already answered.
                        let Some((req, submitted, ticket)) = flying.pop_front()
                        else {
                            break;
                        };
                        let out = ticket.and_then(|ticket| ticket.wait().ok());
                        mine.push(Answered {
                            req,
                            resp: Resp { submitted, out, lag: 0.0 },
                        });
                        while let Some((req, submitted, ticket)) = flying.front() {
                            let out = match ticket {
                                None => None,
                                Some(ticket) => match ticket.try_wait() {
                                    None => break,
                                    Some(done) => done.ok(),
                                },
                            };
                            mine.push(Answered {
                                req,
                                resp: Resp { submitted: *submitted, out, lag: 0.0 },
                            });
                            flying.pop_front();
                        }
                    }
                    mine
                })
            })
            .collect();
        tenants
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (answered, t.elapsed().as_secs_f64())
}

/// One client with one request outstanding: each of `reqs` is sent the
/// moment the previous one completed.
fn one_at_a_time<'a>(submit: Submit, reqs: &'a [Req]) -> Vec<Answered<'a>> {
    let mut due = Instant::now();
    reqs.iter()
        .map(|req| {
            let submitted = Instant::now();
            let lag = submitted.saturating_duration_since(due).as_secs_f64();
            let out = submit(req).ok().and_then(|ticket| ticket.wait().ok());
            due = out.as_ref().map_or_else(Instant::now, |o| submitted + o.latency);
            Answered { req, resp: Resp { submitted, out, lag } }
        })
        .collect()
}

/// Whether a request was answered correctly: a solution came back, of
/// the right shape, with a true residual within `10·tol·‖b‖` by the
/// bench-owned SpMV (a non-finite solution has an infinite residual).
pub fn answer_ok(checks: &[CheckMatrix; 3], a: &Answered) -> bool {
    a.resp.out.as_ref().is_some_and(|o| {
        o.solution.shape() == (a.req.rhs.len(), 1)
            && checks[a.req.tenant].column_ok(
                o.solution.as_slice(),
                &a.req.rhs,
                a.req.tol,
            )
    })
}

/// Requests of `answers` that were not answered correctly.
pub fn failed_answers(checks: &[CheckMatrix; 3], answers: &[Answered]) -> u64 {
    answers.iter().filter(|a| !answer_ok(checks, a)).count() as u64
}

/// Seconds from submission to completion of each answered request, as
/// the service stamped them.
fn latencies(answers: &[Answered]) -> Vec<f64> {
    answers
        .iter()
        .filter_map(|a| a.resp.out.as_ref().map(|o| o.latency.as_secs_f64()))
        .collect()
}

/// Differences of the service's monotonic counters over windows.
#[derive(Default, Clone, Copy)]
struct BatchCounts {
    batches: f64,
    columns: f64,
    full: f64,
}

impl BatchCounts {
    fn add(&mut self, before: &ServiceStats, after: &ServiceStats) {
        self.batches += (after.batches - before.batches) as f64;
        self.columns += (after.coalesced_columns - before.coalesced_columns) as f64;
        self.full += (after.full_batches - before.full_batches) as f64;
    }

    fn mean_width(&self) -> f64 {
        self.columns / self.batches.max(1.0)
    }
}

/// Per-request facts gathered from the answers of all rounds.
#[derive(Default)]
struct Gathered {
    queue_share: Vec<f64>,
    solve_share: Vec<f64>,
    iters: Vec<f64>,
    light_queue_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    /// Requests and batch-seconds by operator class (SPD, general).
    class_reqs: [f64; 2],
    class_secs: [f64; 2],
}

impl Gathered {
    fn add(&mut self, sat: &[Answered], light: &[Answered]) {
        for a in sat {
            let Some(o) = &a.resp.out else { continue };
            let total = o.latency.as_secs_f64().max(1e-9);
            self.queue_share.push(o.queue_wait.as_secs_f64() / total);
            self.solve_share.push(o.solve_time.as_secs_f64() / total);
            self.iters.push(o.iterations as f64);
            // Each member of a width-w batch carries 1/w of its solve
            // time, so the sum over requests is the sum over batches.
            let class = usize::from(a.req.tenant == 2);
            self.class_reqs[class] += 1.0;
            self.class_secs[class] +=
                o.solve_time.as_secs_f64() / o.batch_width.max(1) as f64;
        }
        for a in light {
            self.lag_ms.push(a.resp.lag * 1e3);
            if let Some(o) = &a.resp.out {
                self.light_queue_ms.push(o.queue_wait.as_secs_f64() * 1e3);
            }
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let seed = ctx.seed;
    let (st, setup) = ctx.setup(|| build(seed, TENANT_PARTICLES));
    let base = st.service.stats();
    let mut rng = Rng::stream(seed, 40);
    let (mut win_s, mut p50_s, mut p90_s, mut light_solve_s) = (
        Series::default(),
        Series::default(),
        Series::default(),
        Series::default(),
    );
    let mut light_wait = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut sat_counts, mut light_counts) =
        (BatchCounts::default(), BatchCounts::default());
    let mut g = Gathered::default();

    let rounds = ctx.rounds(|ctx, _| {
        let streams = request_streams(&st.dims, SATURATED_REQUESTS, &mut rng);
        let light: Vec<Req> = (0..LIGHT_REQUESTS)
            .map(|_| request(&st.dims, 0, TIGHT_TOL, &mut rng))
            .collect();

        let w0 = ctx.pacer.window();
        let s0 = st.service.stats();
        let t_sat = Instant::now();
        let ((sat, sat_secs), _, br_sat, w1) = ctx.pacer.bracket(w0, || {
            closed_loop(&|r| st.submit(r), &streams, CLIENTS, SATURATED_REQUESTS)
        });
        let s1 = st.service.stats();
        let t_light = Instant::now();
        let (lit, light_secs, br_light, _) =
            ctx.pacer.bracket(w1, || one_at_a_time(&|r| st.submit(r), &light));
        let s2 = st.service.stats();

        let mut lat = latencies(&sat);
        win_s.push(sat_secs, br_sat);
        p50_s.push(quantile(&mut lat, 0.5), br_sat);
        p90_s.push(quantile(&mut lat, 0.9), br_sat);
        let (mut wait, mut solve): (Vec<f64>, Vec<f64>) = lit
            .iter()
            .filter_map(|a| a.resp.out.as_ref())
            .map(|o| (o.queue_wait.as_secs_f64(), o.solve_time.as_secs_f64()))
            .unzip();
        light_wait.push(median(&mut wait));
        light_solve_s.push(median(&mut solve), br_light);
        sat_counts.add(&s0, &s1);
        light_counts.add(&s1, &s2);
        // A request that was refused, expired or failed was still sent;
        // one a dry stream kept from being sent counts as failed too.
        attempted += (SATURATED_REQUESTS + LIGHT_REQUESTS) as u64;
        failed += failed_answers(&st.checks, &sat)
            + failed_answers(&st.checks, &lit)
            + (SATURATED_REQUESTS - sat.len()) as u64;
        g.add(&sat, &lit);
        if ctx.tracer.on {
            window_spans(ctx, "service.saturated_window", t_sat, sat_secs, &sat);
            window_spans(ctx, "service.light_window", t_light, light_secs, &lit);
        }
    });

    let mut out = Outcome {
        timings: Timings {
            setup,
            rhs_count: SATURATED_REQUESTS as f64,
            rhs_time: vec![win_s.clone()],
            p50: p50_s,
            p50_div: 1.0,
            slow: p90_s,
            alt: light_solve_s,
            alt_div: 1.0,
            alt_wall_s: mean(&light_wait),
        },
        attempted,
        failed,
        rounds,
        layer: BTreeMap::new(),
        notes: vec![format!(
            "tenants: A n={} full, B n={} symmetric, C n={} general; closed loop {:?} clients, {SATURATED_REQUESTS} requests; one client, {LIGHT_REQUESTS} requests one at a time",
            st.dims[0], st.dims[1], st.dims[2], CLIENTS
        )],
    };
    // The generator's lag explains a light-window number in any run.
    out.layer.insert("host.gen_lag_ms.p99", quantile(&mut g.lag_ms, 0.99));
    if ctx.trace {
        let end = st.service.stats();
        let l = &mut out.layer;
        l.insert("service.batch_width_mean.sat", sat_counts.mean_width());
        l.insert("service.batch_width_mean.light", light_counts.mean_width());
        l.insert(
            "service.full_batch_share.sat",
            sat_counts.full / sat_counts.batches.max(1.0),
        );
        l.insert("service.queue_share.p50.sat", median(&mut g.queue_share));
        l.insert("service.solve_share.p50.sat", median(&mut g.solve_share));
        l.insert("service.queue_ms.p50.light", median(&mut g.light_queue_ms));
        l.insert("service.iters_mean.sat", mean(&g.iters));
        l.insert("service.rhs_per_s.spd", g.class_reqs[0] / g.class_secs[0]);
        l.insert("service.rhs_per_s.general", g.class_reqs[1] / g.class_secs[1]);
        l.insert(
            "service.solo_retries",
            (end.solo_retries - base.solo_retries) as f64,
        );
        l.insert("service.rejected", (end.rejected - base.rejected) as f64);
        l.insert("service.expired", (end.expired - base.expired) as f64);
        // Spans here are built after the fact from the answers, so
        // traced and untraced rounds differ by a few pushes only.
        let cost = |residue: usize| win_s.every(2, residue).corrected();
        l.insert("telemetry.trace_overhead", cost(1) / cost(0) - 1.0);
        registry_probe(&st, &mut rng, &mut out);
        fleet_probe(
            &st,
            &mut rng,
            SATURATED_REQUESTS as f64 / win_s.raw_mean(),
            &mut out,
        );
    }
    out
}

/// One window span with a request span per answer, each split into the
/// queue wait and the solve the service reported.
fn window_spans(
    ctx: &mut Ctx,
    name: &str,
    start: Instant,
    secs: f64,
    answers: &[Answered],
) {
    let window =
        ctx.tracer.add(name, start, start + Duration::from_secs_f64(secs), None);
    for a in answers {
        let Some(o) = &a.resp.out else { continue };
        let t0 = a.resp.submitted;
        let id = ctx.tracer.add("service.request", t0, t0 + o.latency, window);
        let dispatched = t0 + o.queue_wait;
        ctx.tracer.add("service.queue", t0, dispatched, id);
        ctx.tracer.add("service.solve", dispatched, dispatched + o.solve_time, id);
    }
}

/// Saturated windows with the telemetry registry on ÷ off, alternated.
fn registry_probe(st: &State, rng: &mut Rng, out: &mut Outcome) {
    let ratio = registry_on_over_off(3, true, || {
        let streams = request_streams(&st.dims, SATURATED_REQUESTS, rng);
        closed_loop(&|r| st.submit(r), &streams, CLIENTS, SATURATED_REQUESTS).1
    });
    out.layer.insert("telemetry.on_overhead.serve", ratio);
}

/// The same saturated windows through a two-shard fleet. Two shards
/// are two busy workers, which a 2-vCPU box cannot hold steady next to
/// anything else: recorded, not gated.
fn fleet_probe(
    st: &State,
    rng: &mut Rng,
    single_rhs_per_s: f64,
    out: &mut Outcome,
) {
    let fleet = FleetService::start(FleetConfig {
        shards: 2,
        // Every tenant replicated: the probe is about routing and
        // stealing, not about the distributed engine.
        replicate_max_dim: usize::MAX,
        ..Default::default()
    });
    let [a, b, c] = &st.matrices;
    let handles = [
        fleet.register_spd("tenant-a", a.clone()),
        fleet.register_spd("tenant-b", b.clone()),
        fleet.register_general("tenant-c", c.clone()),
    ];
    let submit = |r: &Req| {
        fleet.submit(
            handles[r.tenant],
            MultiVec::from_vec(r.rhs.clone()),
            RequestOptions { tol: Some(r.tol), deadline: None },
        )
    };
    let (mut secs, mut sent) = (0.0, 0.0);
    for _ in 0..3 {
        let streams = request_streams(&st.dims, SATURATED_REQUESTS, rng);
        let (answers, s) =
            closed_loop(&submit, &streams, CLIENTS, SATURATED_REQUESTS);
        secs += s;
        sent += answers.len() as f64;
        // A request the fleet's admission control shed is not a wrong
        // answer (it is counted in `fleet.admission_rejected`); one that
        // came back wrong is.
        let answered: Vec<_> =
            answers.into_iter().filter(|a| a.resp.out.is_some()).collect();
        out.attempted += answered.len() as u64;
        out.failed += failed_answers(&st.checks, &answered);
    }
    let stats = fleet.stats();
    fleet.shutdown();
    let batches: u64 = stats.shards.iter().map(|s| s.batches).sum();
    let columns: u64 = stats.shards.iter().map(|s| s.coalesced_columns).sum();
    let completed: Vec<f64> =
        stats.shards.iter().map(|s| s.completed as f64).collect();
    let routed = (stats.routed_join + stats.routed_least_loaded).max(1) as f64;
    let l = &mut out.layer;
    l.insert("fleet.rhs_ratio", sent / secs / single_rhs_per_s);
    l.insert("fleet.batch_width_mean", columns as f64 / batches.max(1) as f64);
    l.insert("fleet.routed_join_share", stats.routed_join as f64 / routed);
    l.insert("fleet.steals", stats.steals as f64);
    l.insert("fleet.admission_rejected", stats.admission_rejected as f64);
    l.insert(
        "fleet.shard_imbalance",
        completed.iter().fold(0.0f64, |m, c| m.max(*c)) / mean(&completed).max(1.0),
    );
}
