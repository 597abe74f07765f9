//! The versioned `BenchReport` written by `repro --json`.
//!
//! A report is the machine-readable record of one harness run: the
//! machine's calibrated rates, the raw registry snapshot (diffed to the
//! run), per-kernel derived metrics with their Eq. 8 model predictions
//! and residuals, and the span-tree consistency checks. CI uploads the
//! file as an artifact (`BENCH_repro.json`), and
//! [`BenchReport::validate`] is the gate: any NaN or zero derived rate,
//! schema drift, or a span decomposition off by more than the
//! tolerance fails the run visibly.
//!
//! Model-prediction fields are *filled by the caller* (the bench crate
//! owns the Eq. 8 model; this crate stays dependency-free) — the schema
//! just insists they are present and finite.

use crate::derived::SpanConsistency;
use crate::json::Json;
use crate::snapshot::Snapshot;

/// Current schema version; bump on any incompatible field change.
/// Version 2 added `machine.isa` and `machine.kernel_backend`.
/// Version 3 added `trace_overhead` (optional), a list of model-drift
/// gauges, and the `gauges` map inside `snapshot`.
/// Version 4 dropped the model-drift list: it restated the kernel rows'
/// `residual`, which is where Eq. 8 meets measurement.
pub const SCHEMA_VERSION: u64 = 4;

/// Span decompositions must close within this relative tolerance.
pub const SPAN_CONSISTENCY_TOL: f64 = 0.05;

/// Host description and calibrated machine rates (the two Eq. 8
/// parameters, measured the way `perfmodel::measure` measures them).
#[derive(Clone, Debug, PartialEq)]
pub struct MachineInfo {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Worker-pool width the run used.
    pub threads: u64,
    /// Detected SIMD instruction set (`avx512` / `avx2` / `neon` /
    /// `portable`).
    pub isa: String,
    /// Kernel backend the run dispatched to (`simd` / `scalar`).
    pub kernel_backend: String,
    /// Measured STREAM-triad bandwidth, bytes/second (Eq. 8's `B`).
    pub stream_bandwidth_bps: f64,
    /// Measured basic-kernel compute rate, flops/second (Eq. 8's `F`).
    pub kernel_flops: f64,
    /// Cache-reuse parameter `k` used by the model predictions.
    pub model_k: f64,
}

/// Measured-vs-modeled record for one kernel at one `m`.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelMetric {
    /// Kernel name (`gspmv`, or `gspmv_{backend}` for a forced kernel
    /// backend such as `gspmv_scalar`).
    pub name: String,
    /// Right-hand sides per multiply.
    pub m: u64,
    /// Invocations aggregated here (a `gspmv*` row reads them off the
    /// kernel's `calls` counter, its probe's warm-up included).
    pub calls: u64,
    /// Mean measured seconds per invocation.
    pub measured_secs: f64,
    /// Matrix bytes streamed per invocation.
    pub matrix_bytes: f64,
    /// Vector bytes streamed per invocation: X read, Y write-allocate,
    /// and Y write-back — the 3-access accounting of Eq. 8 without the
    /// `k(m)` reuse term.
    pub vector_bytes: f64,
    /// Flops per invocation (18 per stored block per vector).
    pub flops: f64,
    /// Achieved GB/s: `(matrix_bytes + vector_bytes) / measured_secs`.
    pub measured_gbps: f64,
    /// Achieved GF/s: `flops / measured_secs`.
    pub measured_gflops: f64,
    /// Eq. 8 predicted seconds per invocation, `max(T_bw, T_comp)`.
    pub model_secs: f64,
    /// The model's implied GB/s at this `m`.
    pub model_gbps: f64,
    /// Relative residual `(measured_secs − model_secs)/model_secs`.
    pub residual: f64,
}

/// Cost of causal tracing measured by the `service-bench --trace`
/// overhead gate: the same saturating replay with tracing off, then on.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceOverhead {
    /// Sustained RHS/s with tracing off.
    pub baseline_rhs_per_sec: f64,
    /// Sustained RHS/s with tracing on.
    pub traced_rhs_per_sec: f64,
    /// `1 − traced/baseline` (positive = tracing costs throughput).
    pub overhead_frac: f64,
    /// Trace events the flight recorder accepted during the traced run.
    pub events_recorded: u64,
    /// Events the sampler dropped to stay under the event budget.
    pub events_sampled_out: u64,
}

/// The complete report.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Experiment id (the `repro` subcommand, e.g. `quick`).
    pub experiment: String,
    /// Wall-clock creation time, milliseconds since the Unix epoch.
    pub created_unix_ms: u64,
    /// Host description and calibrated rates.
    pub machine: MachineInfo,
    /// Per-kernel derived metrics with model residuals.
    pub kernels: Vec<KernelMetric>,
    /// Span-tree decomposition checks.
    pub span_consistency: Vec<SpanConsistency>,
    /// Tracing overhead measurement (absent when the harness did not
    /// run the overhead gate — e.g. plain `repro` experiments).
    pub trace_overhead: Option<TraceOverhead>,
    /// Raw registry increments for the run.
    pub snapshot: Snapshot,
}

impl BenchReport {
    /// Serializes the report (pretty, stable field order).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string_pretty()
    }

    fn to_json(&self) -> Json {
        let machine = Json::Obj(vec![
            ("os".into(), Json::Str(self.machine.os.clone())),
            ("arch".into(), Json::Str(self.machine.arch.clone())),
            ("threads".into(), Json::from_u64(self.machine.threads)),
            ("isa".into(), Json::Str(self.machine.isa.clone())),
            (
                "kernel_backend".into(),
                Json::Str(self.machine.kernel_backend.clone()),
            ),
            (
                "stream_bandwidth_bps".into(),
                Json::Num(self.machine.stream_bandwidth_bps),
            ),
            ("kernel_flops".into(), Json::Num(self.machine.kernel_flops)),
            ("model_k".into(), Json::Num(self.machine.model_k)),
        ]);
        let kernels = Json::Arr(
            self.kernels
                .iter()
                .map(|k| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(k.name.clone())),
                        ("m".into(), Json::from_u64(k.m)),
                        ("calls".into(), Json::from_u64(k.calls)),
                        ("measured_secs".into(), Json::Num(k.measured_secs)),
                        ("matrix_bytes".into(), Json::Num(k.matrix_bytes)),
                        ("vector_bytes".into(), Json::Num(k.vector_bytes)),
                        ("flops".into(), Json::Num(k.flops)),
                        ("measured_gbps".into(), Json::Num(k.measured_gbps)),
                        ("measured_gflops".into(), Json::Num(k.measured_gflops)),
                        ("model_secs".into(), Json::Num(k.model_secs)),
                        ("model_gbps".into(), Json::Num(k.model_gbps)),
                        ("residual".into(), Json::Num(k.residual)),
                    ])
                })
                .collect(),
        );
        let consistency = Json::Arr(
            self.span_consistency
                .iter()
                .map(|c| {
                    Json::Obj(vec![
                        ("parent".into(), Json::Str(c.parent.clone())),
                        ("parent_secs".into(), Json::Num(c.parent_secs)),
                        ("children_secs".into(), Json::Num(c.children_secs)),
                        ("ratio".into(), Json::Num(c.ratio)),
                    ])
                })
                .collect(),
        );
        let trace_overhead = match &self.trace_overhead {
            None => Json::Null,
            Some(t) => Json::Obj(vec![
                ("baseline_rhs_per_sec".into(), Json::Num(t.baseline_rhs_per_sec)),
                ("traced_rhs_per_sec".into(), Json::Num(t.traced_rhs_per_sec)),
                ("overhead_frac".into(), Json::Num(t.overhead_frac)),
                ("events_recorded".into(), Json::from_u64(t.events_recorded)),
                ("events_sampled_out".into(), Json::from_u64(t.events_sampled_out)),
            ]),
        };
        Json::Obj(vec![
            ("schema_version".into(), Json::from_u64(self.schema_version)),
            ("experiment".into(), Json::Str(self.experiment.clone())),
            ("created_unix_ms".into(), Json::from_u64(self.created_unix_ms)),
            ("machine".into(), machine),
            ("kernels".into(), kernels),
            ("span_consistency".into(), consistency),
            ("trace_overhead".into(), trace_overhead),
            ("snapshot".into(), self.snapshot.to_json()),
        ])
    }

    /// Parses a serialized report back.
    pub fn from_json_str(text: &str) -> Result<BenchReport, String> {
        let j = Json::parse(text)?;
        let num = |o: &Json, k: &str| {
            o.get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing/invalid number `{k}`"))
        };
        let uint = |o: &Json, k: &str| {
            o.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/invalid integer `{k}`"))
        };
        let string = |o: &Json, k: &str| {
            o.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing/invalid string `{k}`"))
        };

        let mj = j.get("machine").ok_or("missing `machine`")?;
        let machine = MachineInfo {
            os: string(mj, "os")?,
            arch: string(mj, "arch")?,
            threads: uint(mj, "threads")?,
            isa: string(mj, "isa")?,
            kernel_backend: string(mj, "kernel_backend")?,
            stream_bandwidth_bps: num(mj, "stream_bandwidth_bps")?,
            kernel_flops: num(mj, "kernel_flops")?,
            model_k: num(mj, "model_k")?,
        };
        let mut kernels = Vec::new();
        for k in
            j.get("kernels").and_then(Json::as_arr).ok_or("missing `kernels`")?
        {
            kernels.push(KernelMetric {
                name: string(k, "name")?,
                m: uint(k, "m")?,
                calls: uint(k, "calls")?,
                measured_secs: num(k, "measured_secs")?,
                matrix_bytes: num(k, "matrix_bytes")?,
                vector_bytes: num(k, "vector_bytes")?,
                flops: num(k, "flops")?,
                measured_gbps: num(k, "measured_gbps")?,
                measured_gflops: num(k, "measured_gflops")?,
                model_secs: num(k, "model_secs")?,
                model_gbps: num(k, "model_gbps")?,
                residual: num(k, "residual")?,
            });
        }
        let mut span_consistency = Vec::new();
        for c in j
            .get("span_consistency")
            .and_then(Json::as_arr)
            .ok_or("missing `span_consistency`")?
        {
            span_consistency.push(SpanConsistency {
                parent: string(c, "parent")?,
                parent_secs: num(c, "parent_secs")?,
                children_secs: num(c, "children_secs")?,
                ratio: num(c, "ratio")?,
            });
        }
        let trace_overhead = match j.get("trace_overhead") {
            None | Some(Json::Null) => None,
            Some(t) => Some(TraceOverhead {
                baseline_rhs_per_sec: num(t, "baseline_rhs_per_sec")?,
                traced_rhs_per_sec: num(t, "traced_rhs_per_sec")?,
                overhead_frac: num(t, "overhead_frac")?,
                events_recorded: uint(t, "events_recorded")?,
                events_sampled_out: uint(t, "events_sampled_out")?,
            }),
        };
        let snapshot =
            Snapshot::from_json(j.get("snapshot").ok_or("missing `snapshot`")?)?;
        Ok(BenchReport {
            schema_version: uint(&j, "schema_version")?,
            experiment: string(&j, "experiment")?,
            created_unix_ms: uint(&j, "created_unix_ms")?,
            machine,
            kernels,
            span_consistency,
            trace_overhead,
            snapshot,
        })
    }

    /// Validates the report against the schema's semantic constraints.
    /// Returns every problem found (empty = valid). This is what makes
    /// a NaN GB/s fail CI instead of shipping.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.schema_version != SCHEMA_VERSION {
            problems.push(format!(
                "schema_version {} != supported {SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.experiment.is_empty() {
            problems.push("empty experiment id".into());
        }
        let positive = |problems: &mut Vec<String>, what: &str, v: f64| {
            if !v.is_finite() || v <= 0.0 {
                problems.push(format!("{what} must be finite and > 0, got {v}"));
            }
        };
        positive(
            &mut problems,
            "machine.stream_bandwidth_bps",
            self.machine.stream_bandwidth_bps,
        );
        positive(&mut problems, "machine.kernel_flops", self.machine.kernel_flops);
        if self.machine.threads == 0 {
            problems.push("machine.threads must be >= 1".into());
        }
        if !self.machine.model_k.is_finite() {
            problems.push("machine.model_k must be finite".into());
        }
        if self.machine.isa.is_empty() {
            problems.push("machine.isa must be non-empty".into());
        }
        if self.machine.kernel_backend.is_empty() {
            problems.push("machine.kernel_backend must be non-empty".into());
        }
        if self.kernels.is_empty() {
            problems.push("no kernel metrics recorded".into());
        }
        for k in &self.kernels {
            let tag = format!("kernel {} m={}", k.name, k.m);
            if k.calls == 0 {
                problems.push(format!("{tag}: zero calls"));
            }
            positive(
                &mut problems,
                &format!("{tag}: measured_secs"),
                k.measured_secs,
            );
            positive(
                &mut problems,
                &format!("{tag}: measured_gbps"),
                k.measured_gbps,
            );
            positive(
                &mut problems,
                &format!("{tag}: measured_gflops"),
                k.measured_gflops,
            );
            positive(&mut problems, &format!("{tag}: model_secs"), k.model_secs);
            positive(&mut problems, &format!("{tag}: model_gbps"), k.model_gbps);
            if !k.residual.is_finite() {
                problems.push(format!("{tag}: residual is not finite"));
            }
        }
        if let Some(t) = &self.trace_overhead {
            positive(
                &mut problems,
                "trace_overhead.baseline_rhs_per_sec",
                t.baseline_rhs_per_sec,
            );
            positive(
                &mut problems,
                "trace_overhead.traced_rhs_per_sec",
                t.traced_rhs_per_sec,
            );
            if !t.overhead_frac.is_finite() {
                problems.push("trace_overhead.overhead_frac not finite".into());
            }
        }
        for c in &self.span_consistency {
            if !c.within(SPAN_CONSISTENCY_TOL) {
                problems.push(format!(
                    "span `{}` decomposes to {:.1}% of its wall-clock \
                     (children {:.3e}s vs parent {:.3e}s; tolerance {}%)",
                    c.parent,
                    100.0 * c.ratio,
                    c.children_secs,
                    c.parent_secs,
                    100.0 * SPAN_CONSISTENCY_TOL
                ));
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut snapshot = Snapshot::default();
        snapshot.counters.insert("gspmv/calls".into(), 12);
        BenchReport {
            schema_version: SCHEMA_VERSION,
            experiment: "quick".into(),
            created_unix_ms: 1_700_000_000_123,
            machine: MachineInfo {
                os: "linux".into(),
                arch: "x86_64".into(),
                threads: 4,
                isa: "avx2".into(),
                kernel_backend: "simd".into(),
                stream_bandwidth_bps: 13.7e9,
                kernel_flops: 19.6e9,
                model_k: 3.0,
            },
            kernels: vec![KernelMetric {
                name: "gspmv".into(),
                m: 8,
                calls: 5,
                measured_secs: 1.1e-3,
                matrix_bytes: 2.0e6,
                vector_bytes: 1.2e6,
                flops: 4.0e6,
                measured_gbps: 2.9,
                measured_gflops: 3.6,
                model_secs: 1.0e-3,
                model_gbps: 3.2,
                residual: 0.1,
            }],
            span_consistency: vec![SpanConsistency {
                parent: "solver/block_cg".into(),
                parent_secs: 1.0,
                children_secs: 0.98,
                ratio: 0.98,
            }],
            trace_overhead: Some(TraceOverhead {
                baseline_rhs_per_sec: 1200.0,
                traced_rhs_per_sec: 1190.0,
                overhead_frac: 1.0 - 1190.0 / 1200.0,
                events_recorded: 54_321,
                events_sampled_out: 12,
            }),
            snapshot,
        }
    }

    #[test]
    fn round_trips_through_json() {
        let r = sample();
        let text = r.to_json_string();
        let back = BenchReport::from_json_str(&text).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn valid_report_passes() {
        assert!(sample().validate().is_empty(), "{:?}", sample().validate());
    }

    #[test]
    fn nan_and_zero_rates_fail_validation() {
        let mut r = sample();
        r.kernels[0].measured_gbps = f64::NAN;
        assert!(!r.validate().is_empty());
        let mut r = sample();
        r.kernels[0].measured_gflops = 0.0;
        assert!(!r.validate().is_empty());
        let mut r = sample();
        r.kernels.clear();
        assert!(!r.validate().is_empty());
    }

    #[test]
    fn bad_span_decomposition_fails_validation() {
        let mut r = sample();
        r.span_consistency[0].ratio = 0.8;
        let problems = r.validate();
        assert_eq!(problems.len(), 1, "{problems:?}");
        assert!(problems[0].contains("solver/block_cg"));
    }

    #[test]
    fn absent_trace_overhead_round_trips_and_validates() {
        let mut r = sample();
        r.trace_overhead = None;
        assert!(r.validate().is_empty(), "{:?}", r.validate());
        let back = BenchReport::from_json_str(&r.to_json_string()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn bad_trace_overhead_fails_validation() {
        let mut r = sample();
        r.trace_overhead.as_mut().unwrap().traced_rhs_per_sec = 0.0;
        assert!(!r.validate().is_empty());
    }

    #[test]
    fn wrong_schema_version_fails() {
        let mut r = sample();
        r.schema_version = 99;
        assert!(!r.validate().is_empty());
    }

    #[test]
    fn nan_in_serialized_report_fails_parse_or_validate() {
        // A NaN serializes as JSON null; from_json then rejects the
        // field — the failure is visible either way.
        let mut r = sample();
        r.kernels[0].residual = f64::NAN;
        let text = r.to_json_string();
        assert!(BenchReport::from_json_str(&text).is_err());
    }
}
