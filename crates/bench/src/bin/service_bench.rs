//! `service-bench`: replays an arrival trace against the
//! request-coalescing solve service and reports solved-RHS throughput
//! and p50/p99 latency at several arrival rates, coalesced
//! (`max_batch = m_s`) vs the width-1 no-coalescing baseline.
//!
//! The Eq. 8 prediction: at a saturating arrival rate the coalesced
//! server solves ≥ 2× more right-hand sides per second, because each
//! block-CG iteration streams the matrix once for the whole batch.
//!
//! ```text
//! service-bench [--particles N] [--seed N] [--requests N]
//!               [--rates 0.5,1,4] [--batch W] [--matrix mat3]
//!               [--bursty] [--arrivals FILE] [--dump-trace FILE]
//!               [--trace] [--export-metrics FILE]
//!               [--inject-breakdown] [--flight-dir DIR]
//!               [--cluster 1,2,4] [--json FILE]
//! ```
//!
//! `--rates` lists arrival rates as multiples of the measured solo
//! capacity `1/t_solo`; `--batch 0` (default) targets the model's
//! `m_s`. `--arrivals` replays a recorded arrival-trace file instead
//! of generating one (format in EXPERIMENTS.md); `--dump-trace`
//! writes the generated trace out for replay.
//!
//! `--cluster 1,2,4` replaces the single-host rate sweep with the
//! fleet replay: a multi-tenant Poisson trace at a saturating
//! aggregate rate is replayed against a [`FleetService`] at each
//! listed shard count (workers pinned to 1 per shard, stealing and
//! admission control on), reporting RHS/s, p50/p99 of completed
//! requests, admission rejects, steals, and the achieved mean batch
//! width next to the Eq. 8/9 width-scaling prediction.
//!
//! Observability flags: `--trace` runs the causal-tracing overhead
//! gate (tracing-off vs tracing-on replays at a saturating rate; the
//! acceptance bar is ≤ 2% RHS/s cost) and prints one request's
//! assembled span tree; `--export-metrics FILE` serves OpenMetrics on
//! a loopback listener for the whole run, then self-scrapes,
//! validates, and writes the exposition to FILE; `--inject-breakdown`
//! pushes a NaN right-hand side through the service to trigger a
//! flight-recorder dump; `--flight-dir DIR` is where dumps land.

#[path = "../common.rs"]
#[allow(dead_code)] // shared with the main `repro` binary
mod common;
#[path = "../report.rs"]
#[allow(dead_code)] // shared with the main `repro` binary
mod report;

use std::time::{Duration, Instant};

use common::{sd_matrix, section, Options, TABLE1_CUTOFFS};
use mrhs_perfmodel::measure::host_profile;
use mrhs_perfmodel::mrhs_model::SolveCounts;
use mrhs_perfmodel::GspmvModel;
use mrhs_service::{
    model_batch_width, ArrivalTrace, BatchPolicy, FleetConfig, FleetHandle,
    FleetService, MatrixRegistry, RequestOptions, ServiceConfig, SolveService,
    SubmitError,
};
use mrhs_solvers::{cg, SolveConfig};
use mrhs_sparse::{BcrsMatrix, MultiVec};
use mrhs_telemetry::report::TraceOverhead;
use mrhs_telemetry::{exporter, flight, openmetrics, trace, MetricsExporter};

struct ServiceOptions {
    requests: usize,
    rate_multipliers: Vec<f64>,
    batch: usize,
    matrix: usize,
    bursty: bool,
    arrivals_in: Option<String>,
    dump_trace: Option<String>,
    trace_mode: bool,
    export_metrics: Option<String>,
    inject_breakdown: bool,
    flight_dir: Option<String>,
    cluster: Option<Vec<usize>>,
}

impl ServiceOptions {
    fn parse(args: &[String]) -> ServiceOptions {
        let mut o = ServiceOptions {
            requests: 96,
            rate_multipliers: vec![0.5, 1.0, 4.0],
            batch: 0,
            // mat3 by default: the densest Table I cutoff, closest at
            // bench scale to the paper's full-scale mat2 density — the
            // regime the Eq. 8 amortization targets.
            matrix: 2,
            bursty: false,
            arrivals_in: None,
            dump_trace: None,
            trace_mode: false,
            export_metrics: None,
            inject_breakdown: false,
            flight_dir: None,
            cluster: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--requests" => {
                    o.requests = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--requests needs a number");
                }
                "--rates" => {
                    let spec =
                        it.next().expect("--rates needs a list like 0.5,1,4");
                    o.rate_multipliers = spec
                        .split(',')
                        .map(|s| {
                            s.trim().parse().unwrap_or_else(|_| {
                                panic!("bad rate multiplier {s:?}")
                            })
                        })
                        .collect();
                }
                "--batch" => {
                    o.batch = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--batch needs a number");
                }
                "--matrix" => {
                    let name = it.next().expect("--matrix needs mat1|mat2|mat3");
                    o.matrix = TABLE1_CUTOFFS
                        .iter()
                        .position(|(n, _, _)| n == name)
                        .unwrap_or_else(|| {
                            panic!("unknown matrix {name:?} (mat1|mat2|mat3)")
                        });
                }
                "--bursty" => o.bursty = true,
                "--arrivals" => {
                    o.arrivals_in =
                        Some(it.next().cloned().expect("--arrivals needs a path"));
                }
                "--dump-trace" => {
                    o.dump_trace = Some(
                        it.next().cloned().expect("--dump-trace needs a path"),
                    );
                }
                "--trace" => o.trace_mode = true,
                "--export-metrics" => {
                    o.export_metrics = Some(
                        it.next().cloned().expect("--export-metrics needs a path"),
                    );
                }
                "--inject-breakdown" => o.inject_breakdown = true,
                "--cluster" => {
                    let spec =
                        it.next().expect("--cluster needs a list like 1,2,4");
                    o.cluster = Some(
                        spec.split(',')
                            .map(|s| {
                                s.trim().parse().unwrap_or_else(|_| {
                                    panic!("bad shard count {s:?}")
                                })
                            })
                            .collect(),
                    );
                }
                "--flight-dir" => {
                    o.flight_dir = Some(
                        it.next().cloned().expect("--flight-dir needs a path"),
                    );
                }
                _ => {}
            }
        }
        o
    }
}

fn pseudo_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

struct RunResult {
    solved_columns: usize,
    failed: usize,
    mean_iters: f64,
    wall: Duration,
    /// Completed requests' latencies, sorted.
    latencies: Vec<Duration>,
    coalescing_efficiency: f64,
    batch_widths: Vec<(usize, u64)>,
    /// Trace ids of completed requests (empty when tracing is off).
    trace_ids: Vec<u64>,
}

impl RunResult {
    fn throughput(&self) -> f64 {
        self.solved_columns as f64 / self.wall.as_secs_f64()
    }

    /// The higher-throughput of two replays of one configuration:
    /// background interference on a shared host otherwise skews
    /// whichever run it happens to land on.
    fn faster(self, other: RunResult) -> RunResult {
        if other.throughput() > self.throughput() {
            other
        } else {
            self
        }
    }
}

/// The `p`-quantile of `sorted` (nearest rank; zero when empty).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    match sorted.len() {
        0 => Duration::ZERO,
        len => sorted[((len - 1) as f64 * p).round() as usize],
    }
}

/// Paces `trace` in real time from `t0`: sleeps until each arrival is
/// due, then hands `submit` the arrival's index and a right-hand side
/// of its width (every column `rhss[index % rhss.len()]`).
fn pace(
    trace: &ArrivalTrace,
    rhss: &[Vec<f64>],
    t0: Instant,
    mut submit: impl FnMut(usize, MultiVec),
) {
    for (k, arr) in trace.arrivals.iter().enumerate() {
        let due = Duration::from_micros(arr.at_us);
        loop {
            let elapsed = t0.elapsed();
            if elapsed >= due {
                break;
            }
            std::thread::sleep((due - elapsed).min(Duration::from_millis(1)));
        }
        let rhs = &rhss[k % rhss.len()];
        let mut mv = MultiVec::zeros(rhs.len(), arr.width);
        for c in 0..arr.width {
            mv.set_column(c, rhs);
        }
        submit(k, mv);
    }
}

/// Replays `trace` against a fresh service at the given batch width.
fn replay(
    a: &BcrsMatrix,
    rhss: &[Vec<f64>],
    trace: &ArrivalTrace,
    max_batch: usize,
) -> RunResult {
    let reg = MatrixRegistry::new();
    let h = reg.register_full("bench", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch,
            queue_capacity: 128.max(4 * max_batch),
            linger: Duration::from_millis(2),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let t0 = Instant::now();
    let mut tickets = Vec::with_capacity(trace.arrivals.len());
    pace(trace, rhss, t0, |_, mv| loop {
        match svc.submit(h, mv.clone(), RequestOptions::default()) {
            Ok(t) => {
                tickets.push(t);
                break;
            }
            Err(SubmitError::QueueFull { retry_after }) => {
                std::thread::sleep(retry_after.min(Duration::from_millis(5)));
            }
            Err(e) => panic!("submit failed: {e:?}"),
        }
    });

    let mut solved_columns = 0usize;
    let mut failed = 0usize;
    let mut total_iters = 0usize;
    let mut latencies = Vec::with_capacity(tickets.len());
    let mut trace_ids = Vec::new();
    for t in tickets {
        match t.wait() {
            Ok(out) => {
                solved_columns += out.solution.m();
                total_iters += out.iterations;
                latencies.push(out.latency);
                trace_ids.extend(out.trace_id);
            }
            Err(_) => failed += 1,
        }
    }
    let wall = t0.elapsed();
    latencies.sort();
    svc.shutdown();
    let st = svc.stats();

    // This service's own counters: no bracket, and no other service's
    // batches.
    let mut batch_widths: Vec<(usize, u64)> = svc
        .metrics()
        .snapshot()
        .counters
        .iter()
        .filter_map(|(name, v)| {
            name.strip_prefix("batch_width/")
                .filter(|_| *v > 0)
                .and_then(|w| w.parse().ok())
                .map(|w: usize| (w, *v))
        })
        .collect();
    batch_widths.sort();

    RunResult {
        solved_columns,
        failed,
        mean_iters: total_iters as f64 / latencies.len().max(1) as f64,
        wall,
        latencies,
        coalescing_efficiency: st.coalescing_efficiency(),
        batch_widths,
        trace_ids,
    }
}

fn fmt_ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = Options::parse(&args).unwrap_or_else(|msg| {
        eprintln!("service-bench: {msg}");
        std::process::exit(2);
    });
    let sopts = ServiceOptions::parse(&args);
    if !args.iter().any(|a| a == "--particles") {
        // Smaller default than `repro`: the serving comparison replays
        // every trace twice per rate; 1,500 particles keeps a full
        // sweep to a few minutes at the same mat3 density regime.
        opts.particles = 1500;
    }

    // Telemetry on for the whole run: the kernel and solver spans feed
    // the JSON report next to the services' own counters, which record
    // with the flag on or off.
    mrhs_telemetry::set_enabled(true);
    let report_before = mrhs_telemetry::snapshot();

    if let Some(dir) = &sopts.flight_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("creating {dir}: {e}"));
        flight::configure_dump_dir(Some(dir.into()));
        flight::install_panic_hook();
        println!("flight-recorder dumps -> {dir}");
    }
    // The exporter serves live metrics for the whole run; the scrape
    // and OpenMetrics validation happen at the end.
    let metrics_exporter = sopts.export_metrics.as_ref().map(|_| {
        let ex = MetricsExporter::serve("127.0.0.1:0")
            .expect("metrics exporter must bind a loopback port");
        println!(
            "metrics exporter listening on http://{}/metrics",
            ex.local_addr()
        );
        ex
    });

    section("service-bench: workload");
    let (name, s_cut, _) = TABLE1_CUTOFFS[sopts.matrix];
    let a = sd_matrix(opts.particles, s_cut, opts.seed);
    let stats = a.stats();
    let n = a.n_rows();
    println!(
        "matrix: {name} from {} particles, n = {n}, nnzb/nb = {:.1}",
        opts.particles,
        stats.nnzb as f64 / stats.nb as f64
    );

    // Probe noise is strictly downward (contention can only lower the
    // measured rates), and an underestimated F drags the modeled m_s
    // from 4 to 2 on this workload — so take the field-wise max of a
    // few probes as the closest estimate of machine capability.
    let host = {
        let mut best = host_profile();
        for _ in 0..2 {
            let p = host_profile();
            best.bandwidth = best.bandwidth.max(p.bandwidth);
            best.flops = best.flops.max(p.flops);
        }
        best
    };
    let model = GspmvModel::new(&stats, host);
    let ms = if sopts.batch > 0 {
        sopts.batch
    } else {
        model_batch_width(&model, SolveCounts::fig7(), 16)
    };
    println!(
        "host: B = {:.1} GB/s, F = {:.1} Gflop/s; model m_s -> target \
         batch width {ms}",
        host.bandwidth / 1e9,
        host.flops / 1e9,
    );

    // Solo capacity: the no-coalescing service can never beat this.
    let rhss: Vec<Vec<f64>> =
        (0..16).map(|k| pseudo_rhs(n, opts.seed ^ (k as u64) << 17)).collect();
    let t_solo = {
        let reps = 3;
        let t0 = Instant::now();
        for r in 0..reps {
            let mut x = vec![0.0; n];
            let res =
                cg(&a, &rhss[r % rhss.len()], &mut x, &SolveConfig::default());
            assert!(res.converged, "solo CG must converge on the SD matrix");
        }
        t0.elapsed() / reps as u32
    };
    let solo_rate = 1.0 / t_solo.as_secs_f64();
    println!(
        "solo solve: {:.1} ms -> capacity {:.0} RHS/s",
        t_solo.as_secs_f64() * 1e3,
        solo_rate
    );

    if let Some(shard_counts) = &sopts.cluster {
        cluster_sweep(
            &a,
            &rhss,
            solo_rate,
            t_solo,
            ms,
            &model,
            shard_counts,
            sopts.requests,
            opts.seed,
        );
    } else {
        section("service-bench: trace replay");
        println!(
            "{:>8} {:>9} {:>12} {:>9} {:>9} {:>8} {:>8}",
            "rate", "width", "RHS/s", "p50 ms", "p99 ms", "iters", "coal.eff"
        );
        let mut saturated: Option<(f64, f64)> = None;
        for &mult in &sopts.rate_multipliers {
            let rate = mult * solo_rate;
            let trace = match &sopts.arrivals_in {
                Some(path) => {
                    let text = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| panic!("reading {path}: {e}"));
                    ArrivalTrace::parse(&text)
                        .unwrap_or_else(|e| panic!("parsing {path}: {e}"))
                }
                None if sopts.bursty => ArrivalTrace::bursty(
                    rate,
                    sopts.requests,
                    1,
                    ms.max(2),
                    opts.seed,
                ),
                None => ArrivalTrace::poisson(rate, sopts.requests, 1, opts.seed),
            };
            if let Some(path) = &sopts.dump_trace {
                std::fs::write(path, trace.to_text())
                    .unwrap_or_else(|e| panic!("writing {path}: {e}"));
                println!(
                    "dumped trace ({} arrivals) to {path}",
                    trace.arrivals.len()
                );
            }

            // Two replays per configuration, interleaved, keeping the
            // faster of each.
            let base = replay(&a, &rhss, &trace, 1);
            let coal = replay(&a, &rhss, &trace, ms);
            let base = base.faster(replay(&a, &rhss, &trace, 1));
            let coal = coal.faster(replay(&a, &rhss, &trace, ms));
            for (label, r) in [("width-1", &base), ("coalesced", &coal)] {
                println!(
                    "{:>7.1}x {:>9} {:>12.1} {:>9} {:>9} {:>8} {:>8.2}",
                    mult,
                    label,
                    r.throughput(),
                    fmt_ms(percentile(&r.latencies, 0.50)),
                    fmt_ms(percentile(&r.latencies, 0.99)),
                    format!("{:.0}", r.mean_iters),
                    r.coalescing_efficiency,
                );
                if r.failed > 0 {
                    println!(
                        "{:>8} WARNING: {} {} requests failed",
                        "", r.failed, label
                    );
                }
            }
            let speedup = coal.throughput() / base.throughput();
            let widths: Vec<String> =
                coal.batch_widths.iter().map(|(w, c)| format!("{w}x{c}")).collect();
            println!(
                "{:>8} speedup {speedup:.2}x; coalesced batch widths: {}",
                "", // align under rate column
                widths.join(" ")
            );
            if mult >= 2.0 {
                saturated = Some((mult, speedup));
            }
        }

        if let Some((mult, speedup)) = saturated {
            println!(
                "\nsaturating rate ({mult:.1}x solo capacity): coalesced \
             throughput = {speedup:.2}x width-1 baseline \
             (Eq. 8 predicts >= 2x up to m_s)"
            );
            if speedup < 2.0 {
                println!(
                    "WARNING: speedup below the 2x acceptance threshold — \
                 rerun on an idle machine or raise --requests"
                );
            }
        }
    }

    let (trace_overhead, trace_summary) = if sopts.trace_mode {
        let (ov, summary) =
            trace_overhead_gate(&a, &rhss, solo_rate, ms, &sopts, opts.seed);
        (Some(ov), Some(summary))
    } else {
        (None, None)
    };

    if sopts.inject_breakdown {
        inject_breakdown(&a, n, opts.seed);
    }

    if let (Some(file), Some(ex)) = (&sopts.export_metrics, &metrics_exporter) {
        scrape_and_validate(ex, file);
    }

    // The validated BenchReport: model-vs-measured GSPMV rows at
    // m ∈ {1, m_s} (their `residual` is where Eq. 8 meets measurement)
    // plus the full run's telemetry diff (which carries the
    // `service/batch_width/*` counters, the drop/dispatch-cause counters
    // and the queue/solve span trees, under the names the live exporter
    // publishes).
    // Alongside it go `<stem>.telemetry.json` (the final snapshot in
    // full) and, when the tracing gate ran, `<stem>.trace.txt` (the
    // gate numbers + span tree).
    if let Some(path) = &opts.json {
        section("service-bench: BenchReport");
        let kernels = [1, ms]
            .map(|m| report::gspmv_metric(None, &a, m, opts.reps, &model))
            .to_vec();
        let diff = mrhs_telemetry::snapshot().diff(&report_before);
        report::write_validated(
            path,
            "service-bench",
            host_profile(),
            kernels,
            diff,
            trace_overhead,
        );
        let stem = path.strip_suffix(".json").unwrap_or(path);
        let snap = mrhs_telemetry::snapshot().to_json().to_string_pretty();
        let trace = trace_summary.map(|t| ("trace.txt", t));
        for (ext, body) in [("telemetry.json", snap)].into_iter().chain(trace) {
            let file = format!("{stem}.{ext}");
            std::fs::write(&file, body)
                .unwrap_or_else(|e| panic!("writing {file}: {e}"));
            println!("wrote {file}");
        }
    }
}

/// The fleet replay: a multi-tenant Poisson trace at a saturating
/// aggregate rate (4× the measured solo capacity) replayed against a
/// [`FleetService`] at each listed shard count. Every shard runs one
/// worker, every tenant is replicated, stealing and admission control
/// are on. The S-node prediction column is what S *independent nodes*
/// would sustain: the parallel-compute factor (× S) times the Eq. 8
/// width factor `(t(w̄₁)/w̄₁) / (t(w̄_S)/w̄_S)` from the achieved mean
/// batch widths. On a shared-core box only the width factor is
/// observable (all shards timeshare the same cores), so the measured
/// ratio is compared against `prediction / S`. Admission control
/// (shed when the estimated queue delay exceeds the request deadline)
/// plus in-queue deadline expiry bound the p99 *time-in-queue* of
/// completed requests at the deadline.
#[allow(clippy::too_many_arguments)]
fn cluster_sweep(
    a: &BcrsMatrix,
    rhss: &[Vec<f64>],
    solo_rate: f64,
    t_solo: Duration,
    ms: usize,
    model: &GspmvModel,
    shard_counts: &[usize],
    requests: usize,
    seed: u64,
) {
    section("service-bench: cluster replay");
    let tenants = shard_counts.iter().copied().max().unwrap_or(1).max(2);
    let rate = 4.0 * solo_rate;
    let deadline = (t_solo * 30).max(Duration::from_millis(100));
    // Short linger: under saturating load batch width comes from queue
    // backlog, not from waiting at the head (a long linger would
    // serialize with compute on a single-worker shard and skew the
    // shard-count comparison).
    let linger = Duration::from_millis(2);
    let arrivals = ArrivalTrace::poisson(rate, requests, 1, seed ^ 0xc1);
    println!(
        "{tenants} tenants on one matrix, {} arrivals at {:.0} RHS/s \
         aggregate (4x solo capacity), deadline {:.0} ms, linger {:.0} ms",
        arrivals.arrivals.len(),
        rate,
        deadline.as_secs_f64() * 1e3,
        linger.as_secs_f64() * 1e3
    );
    println!(
        "{:>7} {:>10} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7} {:>8} {:>10}",
        "shards",
        "RHS/s",
        "p50 ms",
        "p99 ms",
        "qw99 ms",
        "rejects",
        "steals",
        "width",
        "measured",
        "S-node prd"
    );

    // (shards, RHS/s, mean width) at the first listed shard count —
    // both ratio columns are relative to this row.
    let mut baseline: Option<(usize, f64, f64)> = None;
    for &s in shard_counts {
        let shard = ServiceConfig {
            policy: BatchPolicy {
                max_batch: ms,
                queue_capacity: 128.max(4 * ms),
                linger,
            },
            ..ServiceConfig::default()
        };
        let fleet = FleetService::start(FleetConfig {
            shards: s,
            shard,
            replicate_max_dim: usize::MAX,
        });
        let handles: Vec<FleetHandle> = (0..tenants)
            .map(|t| fleet.register_spd(&format!("tenant{t}"), a.clone()))
            .collect();

        let t0 = Instant::now();
        let mut tickets = Vec::with_capacity(arrivals.arrivals.len());
        pace(&arrivals, rhss, t0, |k, mv| {
            let opts =
                RequestOptions { deadline: Some(deadline), ..Default::default() };
            match fleet.submit(handles[k % tenants], mv, opts) {
                Ok(t) => tickets.push(t),
                // Shedding is the behavior under test at this load; a
                // rejected request is counted, not retried.
                Err(SubmitError::QueueFull { .. }) => {}
                Err(e) => panic!("fleet submit failed: {e:?}"),
            }
        });
        let mut solved_columns = 0usize;
        let mut failed = 0usize;
        let mut latencies = Vec::with_capacity(tickets.len());
        let mut queue_waits = Vec::with_capacity(tickets.len());
        for t in tickets {
            match t.wait() {
                Ok(out) => {
                    solved_columns += out.solution.m();
                    latencies.push(out.latency);
                    queue_waits.push(out.queue_wait);
                }
                Err(_) => failed += 1,
            }
        }
        let wall = t0.elapsed();
        fleet.shutdown();
        let st = fleet.stats();

        let batches: u64 = st.shards.iter().map(|x| x.batches).sum();
        let columns: u64 = st.shards.iter().map(|x| x.coalesced_columns).sum();
        let shard_rejects: u64 = st.shards.iter().map(|x| x.rejected).sum();
        let mean_width = columns as f64 / batches.max(1) as f64;
        let rhs_per_sec = solved_columns as f64 / wall.as_secs_f64();
        latencies.sort();
        queue_waits.sort();

        // Eq. 8/9 prediction of what S *independent nodes* would do:
        // the parallel-compute channel (x S) times the width channel
        // (per-column GSPMV time at the achieved mean width vs the
        // single-shard baseline, Eq. 8). On this box only the width
        // channel is observable — every shard shares the same cores —
        // so the measured column is compared against the width factor
        // alone in the closing note.
        let (measured_x, predicted_x) = match &baseline {
            None => {
                baseline = Some((s, rhs_per_sec, mean_width));
                (1.0, 1.0)
            }
            Some((base_s, base_rate, base_width)) => {
                let per_col = |w: f64| {
                    let wi = (w.round() as usize).max(1);
                    model.time(wi) / wi as f64
                };
                let width_x = per_col(*base_width) / per_col(mean_width);
                (rhs_per_sec / base_rate, (s as f64 / *base_s as f64) * width_x)
            }
        };
        println!(
            "{:>7} {:>10.1} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7.2} {:>7.2}x {:>9.2}x",
            s,
            rhs_per_sec,
            fmt_ms(percentile(&latencies, 0.50)),
            fmt_ms(percentile(&latencies, 0.99)),
            fmt_ms(percentile(&queue_waits, 0.99)),
            st.admission_rejected + shard_rejects,
            st.steals,
            mean_width,
            measured_x,
            predicted_x,
        );
        if failed > 0 {
            println!(
                "{:>7} note: deadline expiry shed {failed} more requests \
                 in-queue (admission's wait estimate cannot see cross-shard \
                 core contention on a shared-core box)",
                ""
            );
        }
        // Admission control bounds time *in queue* (solve time under
        // core contention is outside its control): every completed
        // request must have waited at most the deadline.
        if percentile(&queue_waits, 1.0) > deadline {
            println!(
                "{:>7} WARNING: a completed request out-waited the deadline \
                 admission control and expiry should enforce",
                ""
            );
        }
    }
    println!(
        "\nNote: every shard on this box is served by the same cores, so \
         the parallel-compute factor of the S-node prediction is not \
         observable here — compare the measured column against the width \
         channel alone (the prediction divided by the shard-count ratio \
         to the first row); tenant-affinity routing holds per-shard \
         batch widths (Eq. 8 amortization) as the fleet splits. qw99 is \
         the p99 time-in-queue, the quantity admission control and \
         deadline expiry bound."
    );
}

/// The tracing acceptance gate: replay the same saturating trace with
/// tracing off then on (two runs each, keeping the faster — the same
/// noise discipline as the rate sweep), require the span tree of a
/// traced request to be structurally sound with queue-wait + solve
/// durations tiling the end-to-end root exactly, and report the RHS/s
/// cost of tracing (the acceptance bar is ≤ 2%; sampling keeps the
/// event rate bounded above the budget).
fn trace_overhead_gate(
    a: &BcrsMatrix,
    rhss: &[Vec<f64>],
    solo_rate: f64,
    ms: usize,
    sopts: &ServiceOptions,
    seed: u64,
) -> (TraceOverhead, String) {
    section("service-bench: tracing overhead gate");
    let rate = 4.0 * solo_rate; // saturating load
    let arrivals = ArrivalTrace::poisson(rate, sopts.requests, 1, seed ^ 0x7ace);

    trace::set_trace_enabled(false);
    let off = replay(a, rhss, &arrivals, ms).faster(replay(a, rhss, &arrivals, ms));

    let fs_before = flight::stats();
    trace::set_trace_enabled(true);
    let on = replay(a, rhss, &arrivals, ms).faster(replay(a, rhss, &arrivals, ms));
    trace::set_trace_enabled(false);
    let fs_after = flight::stats();

    let overhead = TraceOverhead {
        baseline_rhs_per_sec: off.throughput(),
        traced_rhs_per_sec: on.throughput(),
        overhead_frac: 1.0 - on.throughput() / off.throughput(),
        events_recorded: fs_after.recorded.saturating_sub(fs_before.recorded),
        events_sampled_out: fs_after
            .sampled_out
            .saturating_sub(fs_before.sampled_out),
    };
    println!(
        "tracing off: {:.1} RHS/s; on: {:.1} RHS/s -> overhead {:+.2}% \
         ({} events recorded, {} sampled out)",
        overhead.baseline_rhs_per_sec,
        overhead.traced_rhs_per_sec,
        100.0 * overhead.overhead_frac,
        overhead.events_recorded,
        overhead.events_sampled_out,
    );
    if overhead.overhead_frac > 0.02 {
        println!(
            "WARNING: tracing overhead above the 2% acceptance bar — \
             rerun on an idle machine or raise --requests"
        );
    }

    // Structural gate on one traced request: the span tree must
    // assemble, and its queue-wait + solve children must tile the
    // end-to-end root exactly (same-timestamp bookkeeping, so this is
    // an equality, not a tolerance).
    let events = flight::snapshot_events();
    let id = *on.trace_ids.first().expect("traced replay must yield trace ids");
    let tree = trace::assemble_linked(&events, trace::TraceId(id))
        .expect("traced request must assemble to a span tree");
    assert_eq!(tree.name, "service/request", "root span");
    let child = |name: &str| {
        tree.children
            .iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("missing {name} child:\n{}", tree.render()))
    };
    let qw = child("service/queue_wait");
    let solve = child("service/solve");
    assert_eq!(
        qw.event.dur_ns + solve.event.dur_ns,
        tree.event.dur_ns,
        "queue_wait + solve must sum to the end-to-end request span"
    );
    let rendered = tree.render();
    // The full tree (hundreds of kernel spans on a long solve) goes to
    // the artifact; stdout gets the head.
    let head: Vec<&str> = rendered.lines().take(24).collect();
    let elided = rendered.lines().count().saturating_sub(head.len());
    println!(
        "\nspan tree of trace {id} ({} spans):\n{}{}",
        tree.span_count(),
        head.join("\n"),
        if elided > 0 {
            format!("\n  … {elided} more lines (see the .trace.txt artifact)")
        } else {
            String::new()
        }
    );

    let summary = format!(
        "service-bench tracing gate\n\
         baseline_rhs_per_sec: {:.2}\n\
         traced_rhs_per_sec: {:.2}\n\
         overhead_frac: {:.5}\n\
         events_recorded: {}\n\
         events_sampled_out: {}\n\n\
         span tree of trace {id}:\n{rendered}",
        overhead.baseline_rhs_per_sec,
        overhead.traced_rhs_per_sec,
        overhead.overhead_frac,
        overhead.events_recorded,
        overhead.events_sampled_out,
    );
    (overhead, summary)
}

/// Pushes a NaN-poisoned right-hand side through a small service so the
/// block solve fails, the solo retry fails too, and the flight recorder
/// dumps (`solo_retry`) — the CI hook for exercising the dump path.
fn inject_breakdown(a: &BcrsMatrix, n: usize, seed: u64) {
    section("service-bench: injected breakdown");
    let reg = MatrixRegistry::new();
    let h = reg.register_full("bench", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 2,
            queue_capacity: 8,
            linger: Duration::from_millis(1),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);
    let mut bad = pseudo_rhs(n, seed ^ 0xbad);
    bad[0] = f64::NAN;
    let before = flight::stats().dumps;
    let result = svc.submit_one(h, &bad).expect("submit poisoned RHS").wait();
    svc.shutdown();
    assert!(result.is_err(), "NaN right-hand side must fail");
    let after = flight::stats().dumps;
    println!(
        "poisoned request failed as expected; flight dumps {} -> {}",
        before, after
    );
}

/// Self-scrapes the live exporter, validates the OpenMetrics grammar,
/// and writes the exposition to `file`. Exits nonzero on a violation —
/// this is the CI gate on the wire format.
fn scrape_and_validate(ex: &MetricsExporter, file: &str) {
    section("service-bench: OpenMetrics scrape");
    let body = exporter::scrape(ex.local_addr(), "/metrics")
        .expect("self-scrape must succeed");
    let problems = openmetrics::validate(&body);
    if !problems.is_empty() {
        eprintln!("OpenMetrics validation failed:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
    std::fs::write(file, &body).unwrap_or_else(|e| panic!("writing {file}: {e}"));
    println!(
        "scraped {} bytes ({} lines) of valid OpenMetrics -> {file}",
        body.len(),
        body.lines().count()
    );
}
