//! End-to-end check of `repro … --json`: the binary must exit zero and
//! leave behind a parseable, schema-valid [`BenchReport`].

use mrhs_telemetry::report::{BenchReport, SCHEMA_VERSION};

#[test]
fn quick_json_report_round_trips_and_validates() {
    let path = std::env::temp_dir()
        .join(format!("mrhs_bench_report_{}.json", std::process::id()));
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "quick",
            "--json",
            path.to_str().unwrap(),
            "--particles",
            "300",
            "--reps",
            "2",
        ])
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    let report = BenchReport::from_json_str(&text).expect("report parses");
    assert_eq!(report.schema_version, SCHEMA_VERSION);
    assert_eq!(report.experiment, "quick");
    let problems = report.validate();
    assert!(problems.is_empty(), "{problems:?}");

    // The instrumented pass must have produced model-comparable GSPMV
    // rows and solver/engine span trees.
    assert!(report.kernels.iter().any(|k| k.name == "gspmv" && k.m == 1));
    // Schema v2: the report records the detected ISA, the dispatched
    // kernel backend, and per-backend ablation rows.
    assert!(["avx512", "avx2", "neon", "portable"]
        .contains(&report.machine.isa.as_str()));
    assert!(["simd", "scalar"].contains(&report.machine.kernel_backend.as_str()));
    assert!(report.kernels.iter().any(|k| k.name == "gspmv_scalar"));
    assert!(report.span_consistency.iter().any(|c| c.parent == "solver/block_cg"));
    assert!(report
        .span_consistency
        .iter()
        .any(|c| c.parent.starts_with("engine/node")));
    assert!(report.snapshot.counters.keys().any(|k| k.starts_with("gspmv/m")));
    // Schema v3: the tracing-overhead row (off-vs-on GSPMV loop) must be
    // present and sane.
    let ov = report.trace_overhead.as_ref().expect("v3 trace overhead");
    assert!(ov.baseline_rhs_per_sec > 0.0 && ov.traced_rhs_per_sec > 0.0);
    assert!(ov.overhead_frac.is_finite());
    assert!(ov.events_recorded > 0, "traced pass must record events");
    // Schema v4: no drift block; Eq. 8 meets measurement only in the
    // kernel rows' `residual`.
    assert_eq!(report.schema_version, 4);
    assert!(report
        .kernels
        .iter()
        .any(|k| k.name == "gspmv" && k.m == 8 && k.residual.is_finite()));
    // Round trip: serialize → parse → identical.
    let again = BenchReport::from_json_str(&report.to_json_string()).unwrap();
    assert_eq!(report, again);
}
