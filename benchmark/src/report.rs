//! Output of one run: every metric as a `name value unit` line, a
//! record appended to `<out-dir>/results.jsonl` (what `--compare`
//! reads), and the contract's JSON object as the last line of stdout.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use mrhs_telemetry::json::Json;

use crate::manifest::{object, unit_of, END_TO_END, PER_LAYER};

/// Shortest decimal text that reads back as exactly `v` (every digit
/// as measured); non-finite values, which JSON cannot hold, become 0.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer values measured by this run: all of the manifest's in
    /// a traced run, the host and raw-twin ones in an untraced run.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Report {
    /// The metrics the contract asks for in the final JSON line: every
    /// end-to-end metric of an untraced run, every per-layer metric of
    /// a traced one.
    pub fn contract_metrics(&self) -> Vec<(&'static str, f64)> {
        if self.trace {
            PER_LAYER
                .iter()
                .map(|m| {
                    let v = self.layer.get(m.name);
                    (
                        m.name,
                        *v.expect("a traced run measures every per-layer metric"),
                    )
                })
                .collect()
        } else {
            debug_assert!(END_TO_END
                .iter()
                .map(|m| m.name)
                .eq(self.end_to_end.iter().map(|(n, _)| *n)));
            self.end_to_end.clone()
        }
    }

    fn metrics_object(metrics: &[(&'static str, f64)]) -> Json {
        Json::Obj(
            metrics
                .iter()
                .map(|(name, v)| {
                    let unit = unit_of(name).expect("metric is in the manifest");
                    let value = Json::Num(if v.is_finite() { *v } else { 0.0 });
                    let fields =
                        vec![("value", value), ("unit", Json::Str(unit.into()))];
                    (name.to_string(), object(fields))
                })
                .collect(),
        )
    }

    /// The last line of stdout.
    pub fn contract_line(&self) -> String {
        object(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::from_u64(self.attempted)),
            ("failed", Json::from_u64(self.failed)),
            ("metrics", Self::metrics_object(&self.contract_metrics())),
        ])
        .to_string_compact()
    }

    /// One `name value unit` line per metric this run measured: the
    /// end-to-end metrics always (a traced run's are for the reader —
    /// judged values come from untraced runs), then the per-layer ones.
    pub fn text_lines(&self) -> Vec<String> {
        let line = |name: &str, v: f64| {
            format!(
                "{name} {} {}",
                num(v),
                unit_of(name).expect("metric is in the manifest")
            )
        };
        let mut out: Vec<String> =
            self.end_to_end.iter().map(|(n, v)| line(n, *v)).collect();
        if self.trace {
            out.extend(self.contract_metrics().iter().map(|(n, v)| line(n, *v)));
        } else {
            // host.* and raw.* cost nothing to report and explain a run.
            out.extend(self.layer.iter().map(|(n, v)| line(n, *v)));
        }
        out
    }

    /// Appends this run as one JSON line to `<out_dir>/results.jsonl`.
    pub fn append_record(&self, out_dir: &Path) -> std::io::Result<()> {
        let mut all = self.end_to_end.clone();
        all.extend(self.layer.iter().map(|(n, v)| (*n, *v)));
        let line = object(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::from_u64(self.seed)),
            ("trace", Json::from_u64(u64::from(self.trace))),
            ("correct", Json::Bool(self.correct)),
            ("metrics", Self::metrics_object(&all)),
        ])
        .to_string_compact()
            + "\n";
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out_dir.join("results.jsonl"))?;
        f.write_all(line.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_all_their_digits() {
        let v = 1.203_456_789_012_345_6_f64;
        assert_eq!(num(v).parse::<f64>().unwrap(), v);
        assert_eq!(num(f64::NAN), "0");
    }
}
