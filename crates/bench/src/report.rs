//! `--json` support: collects a [`BenchReport`] for a `repro` run.
//!
//! The report brackets the whole invocation with a telemetry snapshot
//! diff, then runs one dedicated instrumented pass — GSPMV at several
//! `m` against the Eq. 8 model, a block CG solve, and a distributed
//! engine multiply — so the file always contains model-vs-measured
//! kernel rows and solver/engine span trees even for subcommands that
//! exercise neither. Every `gspmv`/`gspmv_{kind}` row reads its calls,
//! bytes and flops off the `gspmv/m{m}/*` counters its own probe
//! recorded ([`gspmv_metric`]). [`BenchReport::validate`] gates the
//! write ([`write()`]): a NaN or zero rate, or a span decomposition off
//! by more than 5%, exits nonzero instead of shipping a bad artifact.

use crate::common::{sd_matrix, section, Options, TABLE1_CUTOFFS};
use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_perfmodel::measure::{
    host_profile, time_dense_sweeps, time_gspmv, time_gspmv_on,
};
use mrhs_perfmodel::GspmvModel;
use mrhs_solvers::{block_cg, SolveConfig};
use mrhs_sparse::partition::contiguous_partition;
use mrhs_sparse::{
    active_backend, backend_available, detect_isa, Backend, BcrsMatrix, KernelKind,
    MultiVec, Schedule,
};
use mrhs_telemetry::derived::{gbps, gflops, relative_residual, span_consistency};
use mrhs_telemetry::report::{
    BenchReport, KernelMetric, MachineInfo, TraceOverhead, SCHEMA_VERSION,
};
use mrhs_telemetry::{flight, trace, Snapshot};

/// The `m` values of the instrumented GSPMV pass.
const REPORT_MS: [usize; 4] = [1, 4, 8, 16];

/// The widths of the dense block-Krylov sweep rows (`dense/*.w{m}`).
const DENSE_MS: [usize; 2] = [8, 16];

/// Turns telemetry on and snapshots the registry — called before the
/// experiment subcommand runs so its own counters land in the report.
pub fn start() -> Snapshot {
    mrhs_telemetry::set_enabled(true);
    mrhs_telemetry::snapshot()
}

/// A GSPMV row against the Eq. 8 model: times serial `m`-wide products
/// of `a` (`time_gspmv_on`, its minimum is `measured_secs`) through
/// `kind`'s backend — the row `gspmv_{kind}` — or, for `None`, the
/// active one (the row `gspmv`). Calls, bytes and flops are what those
/// products counted under `gspmv/m{m}/*`, so telemetry must be on: a
/// row whose probe counted nothing fails validation with zero calls.
fn gspmv_metric(
    kind: Option<KernelKind>,
    a: &BcrsMatrix,
    m: usize,
    reps: usize,
    model: &GspmvModel,
) -> KernelMetric {
    let (name, backend) = match kind {
        Some(k) => (format!("gspmv_{}", k.as_str()), Backend::forced(k)),
        None => ("gspmv".to_string(), active_backend()),
    };
    let before = mrhs_telemetry::snapshot();
    let secs = time_gspmv_on(backend, a, m, reps, Schedule::Serial);
    let diff = mrhs_telemetry::snapshot().diff(&before);
    let count = |what: &str| diff.counter(&format!("gspmv/m{m}/{what}"));
    let calls = count("calls");
    let per_call = |what: &str| count(what) as f64 / calls as f64;
    let (matrix_bytes, vector_bytes, flops) =
        (per_call("matrix_bytes"), per_call("vector_bytes"), per_call("flops"));
    let model_secs = model.time(m);
    KernelMetric {
        name,
        m: m as u64,
        calls,
        measured_secs: secs,
        matrix_bytes,
        vector_bytes,
        flops,
        measured_gbps: gbps(matrix_bytes + vector_bytes, secs),
        measured_gflops: gflops(flops, secs),
        model_secs,
        model_gbps: gbps(model.memory_traffic(m), model_secs),
        residual: relative_residual(secs, model_secs),
    }
}

/// Runs the instrumented pass, assembles the report bracketed against
/// `before`, validates it, and writes it to `path`. Exits nonzero when
/// validation fails — this is the CI gate against NaN/zero rates.
pub fn write(path: &str, experiment: &str, opts: &Options, before: &Snapshot) {
    section("BenchReport: instrumented measurement pass");
    let host = host_profile();
    println!(
        "host: B = {:.1} GB/s, F = {:.1} Gflop/s, k = {}",
        host.bandwidth / 1e9,
        host.flops / 1e9,
        host.k
    );

    // Kernel rows: measured vs Eq. 8 on a mat2-density SD matrix, the
    // active backend first, then every kernel backend available on this
    // host, forced explicitly — the ablation record behind the feature
    // matrix.
    let a = sd_matrix(opts.particles, TABLE1_CUTOFFS[1].1, opts.seed);
    let model = GspmvModel::new(&a.stats(), host);
    let mut kernels = Vec::new();
    println!(
        "{:>4} {:>12} {:>10} {:>10} {:>12} {:>10}",
        "m", "measured s", "GB/s", "GF/s", "model s", "residual"
    );
    for &m in &REPORT_MS {
        let metric = gspmv_metric(None, &a, m, opts.reps, &model);
        println!(
            "{:>4} {:>12.3e} {:>10.2} {:>10.2} {:>12.3e} {:>+9.0}%",
            m,
            metric.measured_secs,
            metric.measured_gbps,
            metric.measured_gflops,
            metric.model_secs,
            100.0 * metric.residual
        );
        kernels.push(metric);
    }
    let active = active_backend();
    let per_width: Vec<String> = REPORT_MS
        .iter()
        .map(|&m| format!("m={m} on {}", active.isa_for_width(m).as_str()))
        .collect();
    println!(
        "per-backend pass (isa = {}, active = {}: {})",
        detect_isa().as_str(),
        active.name(),
        per_width.join(", ")
    );
    for &m in &REPORT_MS {
        for kind in KernelKind::ALL.into_iter().filter(|&k| backend_available(k)) {
            kernels.push(gspmv_metric(Some(kind), &a, m, opts.reps, &model));
        }
    }

    // Dense rows: the four `n·m²` sweeps a block-CG iteration runs
    // beside its GSPMV, at this matrix's n. Modelled as a roofline —
    // the multivector passes over bandwidth or the flops over the
    // kernel rate, whichever is longer.
    let n = a.n_rows();
    println!("dense block-Krylov sweeps (n = {n})");
    for &m in &DENSE_MS {
        let t = time_dense_sweeps(n, m, opts.reps);
        let nm = (n * m) as f64;
        // (name, seconds, multivector passes, flops per n·m²)
        for (name, secs, passes, flops_per) in [
            ("gram", t.gram, 2.0, 2.0),
            ("add_mul", t.add_mul, 3.0, 2.0),
            // reads Q and R, writes R and Z = M⁻¹R (block-Jacobi form)
            ("sub_mul_gram", t.sub_mul_gram, 4.0, 4.0),
            ("assign", t.assign, 3.0, 2.0),
        ] {
            let matrix_bytes = 8.0 * (m * m) as f64;
            let vector_bytes = 8.0 * passes * nm;
            let flops = flops_per * nm * m as f64;
            let bytes = matrix_bytes + vector_bytes;
            let model_secs = (bytes / host.bandwidth).max(flops / host.flops);
            let metric = KernelMetric {
                name: format!("dense/{name}.w{m}"),
                m: m as u64,
                calls: opts.reps.max(3) as u64,
                measured_secs: secs,
                matrix_bytes,
                vector_bytes,
                flops,
                measured_gbps: gbps(bytes, secs),
                measured_gflops: gflops(flops, secs),
                model_secs,
                model_gbps: gbps(bytes, model_secs),
                residual: relative_residual(secs, model_secs),
            };
            println!(
                "{:>22} {:>12.3e} s {:>8.2} GB/s {:>8.2} GF/s",
                metric.name,
                metric.measured_secs,
                metric.measured_gbps,
                metric.measured_gflops
            );
            kernels.push(metric);
        }
    }

    // Solver spans: one block CG solve on the same SPD matrix.
    let m_rhs = 4;
    let b = MultiVec::from_flat(n, m_rhs, vec![1.0; n * m_rhs]);
    let mut x = MultiVec::zeros(n, m_rhs);
    let cg = block_cg(&a, &b, &mut x, &SolveConfig::default());
    println!(
        "block CG: {} iterations, converged = {}",
        cg.iterations, cg.converged
    );

    // Engine spans: a 2-node distributed multiply of the same matrix.
    let part = contiguous_partition(&a, 2);
    let dm = DistributedMatrix::new(&a, &part);
    let engine = DistEngine::new(dm);
    let xe = MultiVec::from_flat(n, m_rhs, vec![0.5; n * m_rhs]);
    let (_, estats) = engine.multiply(&xe);
    println!(
        "engine: 2 nodes, slowest node {:.3e} s ({:.0}% comm wait)",
        estats.slowest().total(),
        100.0 * estats.slowest().comm_fraction()
    );

    // Trace-overhead row: the same GSPMV loop with causal tracing off
    // vs on. Tracing adds one kernel child span per call, so this is
    // the per-call floor of the tracing tax.
    let m_ov = 8usize;
    let was_tracing = trace::trace_enabled();
    trace::set_trace_enabled(false);
    let base_secs = time_gspmv(&a, m_ov, opts.reps);
    let fs_before = flight::stats();
    trace::set_trace_enabled(true);
    let traced_secs = {
        // Kernel spans need an ambient trace context to emit under.
        let _root = trace::root_span("report/trace_overhead");
        time_gspmv(&a, m_ov, opts.reps)
    };
    trace::set_trace_enabled(was_tracing);
    let fs_after = flight::stats();
    let trace_overhead = TraceOverhead {
        baseline_rhs_per_sec: m_ov as f64 / base_secs,
        traced_rhs_per_sec: m_ov as f64 / traced_secs,
        overhead_frac: 1.0 - base_secs / traced_secs,
        events_recorded: fs_after.recorded.saturating_sub(fs_before.recorded),
        events_sampled_out: fs_after
            .sampled_out
            .saturating_sub(fs_before.sampled_out),
    };
    println!(
        "trace overhead (gspmv m={m_ov}): {:+.2}% ({} events)",
        100.0 * trace_overhead.overhead_frac,
        trace_overhead.events_recorded
    );

    let diff = mrhs_telemetry::snapshot().diff(before);
    let report = BenchReport {
        schema_version: SCHEMA_VERSION,
        experiment: experiment.to_string(),
        created_unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        machine: MachineInfo {
            os: std::env::consts::OS.into(),
            arch: std::env::consts::ARCH.into(),
            threads: rayon::current_num_threads() as u64,
            isa: detect_isa().as_str().into(),
            kernel_backend: active_backend().name().into(),
            stream_bandwidth_bps: host.bandwidth,
            kernel_flops: host.flops,
            model_k: host.k,
        },
        kernels,
        span_consistency: span_consistency(&diff),
        snapshot: diff,
        trace_overhead: Some(trace_overhead),
    };
    let problems = report.validate();
    if !problems.is_empty() {
        eprintln!("BenchReport validation failed:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        std::process::exit(1);
    }
    std::fs::write(path, report.to_json_string())
        .unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "wrote {path}: {} kernel rows, {} span checks, {} counters",
        report.kernels.len(),
        report.span_consistency.len(),
        report.snapshot.counters.len(),
    );
}
