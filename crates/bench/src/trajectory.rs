//! `repro trajectory BASE.jsonl CHANGE.jsonl OUT.json`: one
//! `BENCH_<pr>.json` trajectory file from the `results.jsonl` of the
//! benchmark's two out-dirs (parent and change, same seeds).
//!
//! Per workload it keeps the unit and `[q1, median, q3]` of each side
//! for two sets of metrics — quartiles as Python's
//! `statistics.quantiles(n=4)`, the benchmark's `--compare` arithmetic:
//! `end_to_end`, the untraced runs' metrics whose names carry no `.`,
//! and `per_layer`, the traced runs' metrics whose names do, except
//! `host.*` and `raw.*`. It adds the seeds both sides ran untraced and
//! each side's `host.pace` range. This file is the repo's one
//! committed per-layer record: Eq. 8 against measurement is its
//! `perfmodel.eq8_resid.*` rows.

use mrhs_telemetry::json::Json;
use std::collections::{BTreeMap, BTreeSet};

/// Workload → metric → (unit, values).
type Runs = BTreeMap<String, BTreeMap<String, (String, Vec<f64>)>>;

/// One side's results file.
#[derive(Default)]
struct Side {
    untraced: Runs,
    traced: Runs,
    /// The seeds of the untraced runs.
    seeds: BTreeSet<u64>,
}

fn read(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = || format!("{path}:{}: not a result record", n + 1);
        let v = Json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let traced = v.get("trace").and_then(Json::as_f64).ok_or_else(bad)? != 0.0;
        let workload = v.get("workload").and_then(Json::as_str).ok_or_else(bad)?;
        let seed = v.get("seed").and_then(Json::as_u64).ok_or_else(bad)?;
        let runs = if traced {
            &mut side.traced
        } else {
            side.seeds.insert(seed);
            &mut side.untraced
        };
        let metrics = v.get("metrics").and_then(Json::as_obj).ok_or_else(bad)?;
        let w = runs.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or_else(bad)?;
            let unit =
                m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
            w.entry(name.clone())
                .or_insert_with(|| (unit, Vec::new()))
                .1
                .push(value);
        }
    }
    Ok(side)
}

/// `[q1, median, q3]`: `statistics.quantiles(n=4)` (exclusive method)
/// and `statistics.median`; a single value is all three.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v[0]; 3];
    }
    let q = |i: usize| {
        let j = ((n + 1) * i / 4).clamp(1, n - 1);
        let delta = ((n + 1) * i) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let median =
        if n % 2 == 1 { v[n / 2] } else { 0.5 * (v[n / 2 - 1] + v[n / 2]) };
    [q(1), median, q(3)]
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Workload → metric → `{unit, base, change}` for the metrics `keep`
/// admits that both sides ran.
fn rows(base: &Runs, change: &Runs, keep: fn(&str) -> bool) -> Json {
    let mut workloads = Vec::new();
    for (workload, metrics) in base {
        let Some(cand) = change.get(workload) else { continue };
        let rows = metrics
            .iter()
            .filter(|(name, _)| keep(name))
            .filter_map(|(name, (unit, base))| {
                let (_, change) = cand.get(name)?;
                Some((
                    name.clone(),
                    Json::Obj(vec![
                        ("unit".into(), Json::Str(unit.clone())),
                        ("base".into(), nums(&quartiles(base))),
                        ("change".into(), nums(&quartiles(change))),
                    ]),
                ))
            })
            .collect();
        workloads.push((workload.clone(), Json::Obj(rows)));
    }
    Json::Obj(workloads)
}

/// The trajectory object of two result files.
fn trajectory(base: &str, change: &str) -> Result<Json, String> {
    let (b, c) = (read(base)?, read(change)?);
    let pace = |runs: &Runs| {
        let all: Vec<f64> = runs
            .values()
            .filter_map(|w| w.get("host.pace"))
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        let lo = all.iter().copied().fold(f64::INFINITY, f64::min);
        nums(&[lo, all.iter().copied().fold(f64::NEG_INFINITY, f64::max)])
    };
    let seeds: BTreeSet<u64> = b.seeds.union(&c.seeds).copied().collect();
    Ok(Json::Obj(vec![
        (
            "quantiles".into(),
            Json::Str(
                "[q1, median, q3]: end_to_end of the untraced runs, \
                 per_layer of the traced ones"
                    .into(),
            ),
        ),
        (
            "seeds".into(),
            Json::Arr(seeds.into_iter().map(Json::from_u64).collect()),
        ),
        (
            "host_pace".into(),
            Json::Obj(vec![
                ("base".into(), pace(&b.untraced)),
                ("change".into(), pace(&c.untraced)),
            ]),
        ),
        (
            "end_to_end".into(),
            rows(&b.untraced, &c.untraced, |name| !name.contains('.')),
        ),
        (
            "per_layer".into(),
            rows(&b.traced, &c.traced, |name| {
                name.contains('.')
                    && !name.starts_with("host.")
                    && !name.starts_with("raw.")
            }),
        ),
    ]))
}

/// `repro trajectory BASE.jsonl CHANGE.jsonl OUT.json`.
pub fn write(args: &[String]) -> Result<(), String> {
    let [base, change, out] = args else {
        return Err("trajectory needs BASE.jsonl CHANGE.jsonl OUT.json".into());
    };
    let json = trajectory(base, change)?;
    std::fs::write(out, json.to_string_pretty() + "\n")
        .map_err(|e| format!("cannot write {out}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Python: `statistics.quantiles([1, 2, 3, 4, 10], n=4)` is
    /// `[1.5, 3.0, 7.0]`; `[3, 1, 2, 4]` gives `[1.25, 2.5, 3.75]`.
    #[test]
    fn quartiles_match_python_statistics() {
        assert_eq!(quartiles(&[10.0, 1.0, 3.0, 2.0, 4.0]), [1.5, 3.0, 7.0]);
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), [1.25, 2.5, 3.75]);
        assert_eq!(quartiles(&[2.0]), [2.0; 3]);
    }

    #[test]
    fn trajectory_keeps_end_to_end_untraced_metrics() {
        let dir =
            std::env::temp_dir().join(format!("trajectory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        // Every record carries one metric of each kind: end-to-end,
        // per-layer (a tenth of `rhs_per_s`), `host.*` and `raw.*`.
        let record = |seed: u64, trace: u8, rhs: f64, pace: f64| {
            let ms = rhs / 10.0;
            format!(
                r#"{{"workload":"sd_steps","seed":{seed},"trace":{trace},"correct":true,"metrics":{{"rhs_per_s":{{"value":{rhs},"unit":"RHS/s"}},"sparse.gspmv_ms.w8":{{"value":{ms},"unit":"ms"}},"host.pace":{{"value":{pace},"unit":"ratio"}},"raw.rhs_per_s":{{"value":{rhs},"unit":"RHS/s"}}}}}}"#
            )
        };
        let base = dir.join("base.jsonl");
        let change = dir.join("change.jsonl");
        let plain = dir.join("plain.jsonl");
        std::fs::write(
            &base,
            [
                record(1, 0, 100.0, 1.2),
                record(2, 0, 110.0, 1.9),
                record(1, 1, 5.0, 1.0),
            ]
            .join("\n"),
        )
        .unwrap();
        std::fs::write(
            &change,
            [
                record(1, 0, 120.0, 1.3),
                record(2, 0, 130.0, 1.4),
                record(3, 1, 6.0, 1.1),
                record(4, 1, 8.0, 1.1),
            ]
            .join("\n"),
        )
        .unwrap();
        std::fs::write(&plain, record(1, 0, 100.0, 1.2)).unwrap();
        let path = |p: &std::path::Path| p.to_str().unwrap().to_string();
        let t = trajectory(&path(&base), &path(&change)).unwrap();
        let untraced_only = trajectory(&path(&plain), &path(&plain)).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let row = t.get("end_to_end").and_then(|e| e.get("sd_steps")).unwrap();
        assert_eq!(row.as_obj().unwrap().len(), 1, "only names without a `.`");
        let rhs = row.get("rhs_per_s").unwrap();
        assert_eq!(rhs.get("unit"), Some(&Json::Str("RHS/s".into())));
        assert_eq!(rhs.get("base").unwrap().as_arr().unwrap()[1], Json::Num(105.0));
        assert_eq!(
            rhs.get("change").unwrap().as_arr().unwrap()[1],
            Json::Num(125.0)
        );
        assert_eq!(t.get("seeds"), Some(&nums(&[1.0, 2.0])));
        assert_eq!(
            t.get("host_pace").and_then(|p| p.get("base")),
            Some(&nums(&[1.2, 1.9]))
        );

        // Per-layer rows come from the traced runs only, without
        // `host.*` and `raw.*`.
        let layer = t.get("per_layer").and_then(|e| e.get("sd_steps")).unwrap();
        assert_eq!(layer.as_obj().unwrap().len(), 1, "only per-layer names");
        let gspmv = layer.get("sparse.gspmv_ms.w8").unwrap();
        assert_eq!(gspmv.get("unit"), Some(&Json::Str("ms".into())));
        assert_eq!(gspmv.get("base"), Some(&nums(&[0.5; 3])));
        assert_eq!(
            gspmv.get("change").unwrap().as_arr().unwrap()[1],
            Json::Num(0.7)
        );
        assert_eq!(untraced_only.get("per_layer"), Some(&Json::Obj(vec![])));
    }
}
