//! `--selfcheck`: verify the verifier, at small sizes.
//!
//! The benchmark calls an output correct when its own residual check
//! accepts it, so that check has to be shown to (a) accept what the
//! `oracle` crate's dense direct solves agree with and (b) refuse a
//! corrupted solution and a request that cannot be solved. The last
//! step runs every workload for a second and compares the metric names
//! and units it prints against `--manifest`.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use mrhs_core::{run_mrhs_chunk, MrhsConfig, ResistanceSystem};
use mrhs_solvers::{block_bicgstab, block_cg, cg, SolveConfig};
use mrhs_sparse::MultiVec;
use mrhs_stokes::SystemBuilder;
use mrhs_telemetry::json::Json;
use oracle::reference::{gauss_solve_multi, naive_mrhs_chunk, Dense};

use crate::agree::{metric_lines, run_child};
use crate::manifest::{manifest_json, END_TO_END, PER_LAYER, WORKLOADS};
use crate::util::Rng;
use crate::verify::{general_operator, normal_multivec, CheckMatrix};
use crate::workloads::sd_steps::Watched;
use crate::workloads::serve;

type Check = Result<(), String>;

fn ensure(cond: bool, what: impl FnOnce() -> String) -> Check {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

fn max_rel_diff(a: &[f64], b: &[f64]) -> f64 {
    let scale = b.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-300);
    a.iter().zip(b).fold(0.0f64, |m, (x, y)| m.max((x - y).abs())) / scale
}

/// `cg`, `block_cg` and `block_bicgstab` against the oracle's Gaussian
/// elimination on a 60-particle system; the verifier must accept all
/// three, and refuse each once one entry is corrupted.
fn solvers_against_direct_solves() -> Check {
    let system = SystemBuilder::new(60).seed(11).build();
    let spd = system.assemble();
    let general = general_operator(system.particles(), &mut Rng::new(12));
    let n = spd.n_rows();
    let cfg = SolveConfig { tol: 1e-10, max_iter: 2000 };
    let b = normal_multivec(n, 4, &mut Rng::new(13));

    let cases: [(&str, &mrhs_sparse::BcrsMatrix, MultiVec); 3] = [
        ("block_cg", &spd, {
            let mut x = MultiVec::zeros(n, 4);
            block_cg(&spd, &b, &mut x, &cfg);
            x
        }),
        ("block_bicgstab", &general, {
            let mut x = MultiVec::zeros(n, 4);
            block_bicgstab(&general, &b, &mut x, &cfg);
            x
        }),
        ("cg", &spd, {
            let mut x = MultiVec::zeros(n, 4);
            for j in 0..4 {
                let mut xj = vec![0.0; n];
                cg(&spd, &b.column(j), &mut xj, &cfg);
                x.set_column(j, &xj);
            }
            x
        }),
    ];
    for (name, a, x) in &cases {
        let direct =
            gauss_solve_multi(&Dense::from_bcrs(a), &b).ok_or_else(|| {
                format!(
                    "{name}: the oracle's direct solve found the matrix singular"
                )
            })?;
        let diff = max_rel_diff(x.as_slice(), direct.as_slice());
        ensure(diff < 1e-6, || {
            format!("{name}: differs from the direct solve by {diff:.2e}")
        })?;
        let check = CheckMatrix::new(a);
        let failed = check.failed_columns(x, &b, cfg.tol);
        ensure(failed == 0, || {
            format!("{name}: verifier refused {failed} good columns")
        })?;
        let mut bad = x.clone();
        *bad.get_mut(n / 2, 1) *= 1.0 + 1e-3;
        let failed = check.failed_columns(&bad, &b, cfg.tol);
        ensure(failed == 1, || {
            format!("{name}: verifier refused {failed} columns of a solution with one corrupted, not 1")
        })?;
    }
    Ok(())
}

/// One Alg. 2 chunk of the production driver, through the benchmark's
/// own `ResistanceSystem` wrapper, against the oracle's dense mirror
/// (eigensolver square root, direct solves) on the same noise.
fn chunk_against_dense_mirror() -> Check {
    let m = 4;
    let cfg = MrhsConfig {
        m,
        cheb_order: 60,
        solve: SolveConfig { tol: 1e-12, max_iter: 4000 },
        guess_tol: 1e-10,
        record_guess_errors: false,
        ..Default::default()
    };
    // A soft gap floor keeps the spectrum narrow enough for the order-60
    // Chebyshev square root to be accurate to the comparison's 1e-6.
    let build =
        || SystemBuilder::new(24).volume_fraction(0.3).xi_min(0.1).seed(21).build();
    let mut production = Watched::new(build());
    let report = run_mrhs_chunk(&mut production, &mut Rng::new(22), &cfg);
    let mut mirror = build();
    naive_mrhs_chunk(&mut mirror, &mut Rng::new(22), m);
    let diff = max_rel_diff(&production.save_state(), &mirror.save_state());
    ensure(diff < 1e-6, || {
        format!("chunk trajectory differs from the dense mirror by {diff:.2e}")
    })?;
    let steps = crate::workloads::sd_steps::steps_seen(&production);
    ensure(report.steps.len() == m && steps == m, || {
        format!("wrapper saw {steps} step boundaries in a chunk of {m}")
    })
}

/// Through a small `serve` set-up: a clean burst is all accepted, one
/// corrupted solution lowers `ok_share`, and so does a NaN request.
fn serve_failures_lower_ok_share() -> Check {
    let st = serve::build(31, [60, 90, 60]);
    let dims = st.dims;
    let streams = serve::request_streams(&dims, 24, &mut Rng::new(32));
    let (mut answers, _) =
        serve::closed_loop(&|r| st.submit(r), &streams, serve::CLIENTS, 24);
    ensure(answers.len() == 24, || {
        format!("sent 24 requests, got {} answers", answers.len())
    })?;
    let failed = serve::failed_answers(&st.checks, &answers);
    ensure(failed == 0, || {
        format!("{failed} of 24 clean requests failed the check")
    })?;

    let out =
        answers[5].resp.out.as_mut().ok_or("a clean request has no solution")?;
    *out.solution.get_mut(3, 0) += 1.0;
    let failed = serve::failed_answers(&st.checks, &answers);
    ensure(failed == 1, || {
        format!("a corrupted solution made {failed} requests fail, not 1")
    })?;

    let mut poisoned = serve::request_streams(&dims, 1, &mut Rng::new(33));
    poisoned[0][0].rhs[7] = f64::NAN;
    let (bad, _) = serve::closed_loop(&|r| st.submit(r), &poisoned, [1, 0, 0], 1);
    let failed = serve::failed_answers(&st.checks, &bad);
    ensure(bad.len() == 1 && failed == 1, || {
        format!(
            "a NaN right-hand side made {failed} of {} requests fail, not 1 of 1",
            bad.len()
        )
    })
}

/// `name → unit` of the `name value unit` lines and of the final JSON
/// object a child run prints, and the names of timings that read 0.
struct Printed {
    lines: BTreeMap<String, String>,
    json: BTreeMap<String, String>,
    zero_times: Vec<String>,
}

fn run_and_read(
    workload: &str,
    trace: bool,
    out_dir: &Path,
) -> Result<Printed, String> {
    let dir = out_dir.join("selfcheck");
    let text = run_child(workload, 41, 1.0, trace, &dir)?;
    let last = text.lines().last().ok_or("no output")?;
    let v = Json::parse(last)
        .map_err(|e| format!("{workload}: last line is not JSON: {e}"))?;
    let keys: Vec<&str> = v
        .as_obj()
        .map(|o| o.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    ensure(keys == ["correct", "attempted", "failed", "metrics"], || {
        format!("{workload}: result object has keys {keys:?}")
    })?;
    ensure(v.get("correct") == Some(&Json::Bool(true)), || {
        format!("{workload}: not correct")
    })?;
    let metrics = v
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("metrics is not an object")?;
    let unit =
        |m: &Json| m.get("unit").and_then(Json::as_str).unwrap_or("?").to_string();
    let json = metrics.iter().map(|(k, m)| (k.clone(), unit(m))).collect();
    let zero_times = metrics
        .iter()
        .filter(|(_, m)| ["s", "ms"].contains(&unit(m).as_str()))
        .filter(|(_, m)| {
            m.get("value").and_then(Json::as_f64).is_none_or(|x| x <= 0.0)
        })
        .map(|(k, _)| k.clone())
        .collect();
    let lines = metric_lines(&text)
        .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect();
    if trace {
        let spans = dir.join(format!("{workload}.spans.jsonl"));
        let n =
            std::fs::read_to_string(&spans).map(|s| s.lines().count()).unwrap_or(0);
        ensure(n > 0, || format!("{} is missing or empty", spans.display()))?;
    }
    Ok(Printed { lines, json, zero_times })
}

/// Every workload prints exactly the manifest's metrics: the seven
/// end-to-end ones untraced, the per-layer ones traced, with the
/// manifest's units.
fn printed_metrics_equal_manifest(out_dir: &Path) -> Check {
    let want_e2e: BTreeMap<String, String> = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    let want_layer: BTreeMap<String, String> = PER_LAYER
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    for w in &WORKLOADS {
        let plain = run_and_read(w.name, false, out_dir)?;
        ensure(plain.json == want_e2e, || {
            format!(
                "{}: --trace 0 JSON metrics differ from the manifest's end_to_end",
                w.name
            )
        })?;
        let traced = run_and_read(w.name, true, out_dir)?;
        ensure(traced.json == want_layer, || {
            format!(
                "{}: --trace 1 JSON metrics differ from the manifest's per_layer",
                w.name
            )
        })?;
        for (kind, p) in [("--trace 0", &plain), ("--trace 1", &traced)] {
            ensure(p.zero_times.is_empty(), || {
                format!(
                    "{}: {kind} timings that were not measured: {:?}",
                    w.name, p.zero_times
                )
            })?;
        }
        let mut all = want_e2e.clone();
        all.extend(want_layer.clone());
        ensure(traced.lines == all, || {
            format!(
                "{}: the name/value/unit lines differ from the manifest",
                w.name
            )
        })?;
        ensure(
            want_e2e.iter().all(|(k, u)| plain.lines.get(k) == Some(u)),
            || {
                format!("{}: an end-to-end metric line is missing or has the wrong unit", w.name)
            },
        )?;
    }
    // A committed BENCHMARK.json must be this manifest.
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let (file, built_in) =
            (Json::parse(&text)?, Json::parse(&manifest_json())?);
        ensure(file == built_in, || {
            "BENCHMARK.json differs from --manifest".to_string()
        })?;
    }
    Ok(())
}

pub fn run(out_dir: &Path) -> ExitCode {
    let checks: [(&str, &dyn Fn() -> Check); 4] = [
        ("solvers agree with the oracle's direct solves; verifier refuses corruption", &solvers_against_direct_solves),
        ("an Alg. 2 chunk follows the oracle's dense mirror", &chunk_against_dense_mirror),
        ("a corrupted solution and a NaN request each lower ok_share", &serve_failures_lower_ok_share),
        ("every workload prints exactly the manifest's metrics", &|| printed_metrics_equal_manifest(out_dir)),
    ];
    let mut failed = 0;
    for (what, check) in checks {
        match check() {
            Ok(()) => println!("ok    {what}"),
            Err(e) => {
                failed += 1;
                println!("FAIL  {what}: {e}");
            }
        }
    }
    if failed == 0 {
        println!("selfcheck passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {failed} check(s) failed");
        ExitCode::from(1)
    }
}
