//! OpenMetrics text rendering of a [`Snapshot`], plus a validator.
//!
//! The live exporter ([`crate::exporter`]) serves this format so any
//! standard scraper (Prometheus and friends) can consume the service's
//! queue-depth and batch-width histograms, per-width throughput
//! counters, and gauges without bespoke tooling. The
//! mapping from the registry's `/`-separated taxonomy:
//!
//! * counter `service/batches` → `service_batches_total`
//! * span `service/solve` → `service_solve_seconds_total` (float
//!   seconds) and `service_solve_calls_total`
//! * histogram `service/batch_width` → `service_batch_width` histogram
//!   with cumulative `_bucket{le="..."}` series at the log₂ boundaries,
//!   `_count`, and `_sum`
//! * gauge `stokes/pairlist/active` → `stokes_pairlist_active`
//!
//! [`validate`] checks the grammar-level invariants a scraper relies
//! on (name charset, TYPE/sample consistency, cumulative buckets,
//! the `# EOF` terminator) and is used both by tests and by the CI
//! scrape leg.

use crate::snapshot::Snapshot;

/// Maps a registry name onto the OpenMetrics charset
/// `[a-zA-Z_][a-zA-Z0-9_]*` (slashes and other separators become `_`).
pub fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders `snapshot` as an OpenMetrics text exposition (ends with
/// `# EOF`).
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snapshot.counters {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} counter\n"));
        out.push_str(&format!("{n}_total {v}\n"));
    }
    for (name, v) in &snapshot.gauges {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} gauge\n"));
        if v.is_finite() {
            out.push_str(&format!("{n} {}\n", fmt_value(*v)));
        } else {
            // OpenMetrics has no NaN gauges worth scraping; surface the
            // poisoned value explicitly rather than emitting "NaN".
            out.push_str(&format!("{n} 0\n"));
        }
    }
    for (name, s) in &snapshot.spans {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n}_seconds counter\n"));
        out.push_str(&format!("{n}_seconds_total {}\n", fmt_value(s.secs())));
        out.push_str(&format!("# TYPE {n}_calls counter\n"));
        out.push_str(&format!("{n}_calls_total {}\n", s.count));
    }
    for (name, h) in &snapshot.histograms {
        let n = sanitize_name(name);
        out.push_str(&format!("# TYPE {n} histogram\n"));
        let mut cumulative = 0u64;
        for (b, c) in &h.buckets {
            cumulative += c;
            // Bucket `b` holds values v with 2^(b-1) <= v < 2^b, so
            // le = 2^b − 1 is the inclusive integer upper bound.
            let le =
                if *b >= 64 { u64::MAX } else { (1u64 << b).saturating_sub(1) };
            out.push_str(&format!("{n}_bucket{{le=\"{le}\"}} {cumulative}\n"));
        }
        out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{n}_count {}\n", h.count));
        out.push_str(&format!("{n}_sum {}\n", h.sum));
    }
    out.push_str("# EOF\n");
    out
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            .unwrap_or(false)
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Validates an OpenMetrics exposition at the level a scraper cares
/// about. Returns every problem found (empty = valid):
///
/// * every line is a `# TYPE`/`# HELP`/`# UNIT`/`# EOF` comment or a
///   `name[{labels}] value` sample with a parseable value;
/// * metric and label names use the legal charset; `# TYPE` is not
///   repeated for a family;
/// * histogram `_bucket` series are cumulative (non-decreasing in file
///   order) and end with an `le="+Inf"` bucket equal to `_count`;
/// * exactly one `# EOF`, on the final line.
pub fn validate(text: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut seen_types: std::collections::BTreeMap<String, String> =
        std::collections::BTreeMap::new();
    let mut bucket_state: std::collections::BTreeMap<String, (u64, Option<u64>)> =
        std::collections::BTreeMap::new(); // name -> (last cumulative, +Inf)
    let mut counts: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    let mut eof_seen = false;
    let lines: Vec<&str> = text.lines().collect();
    for (ln, line) in lines.iter().enumerate() {
        let where_ = |what: &str| format!("line {}: {what}: {line:?}", ln + 1);
        if eof_seen {
            problems.push(where_("content after # EOF"));
            break;
        }
        if line.is_empty() {
            problems.push(where_("empty line"));
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut it = rest.splitn(3, ' ');
            match it.next() {
                Some("EOF") | None => eof_seen = true,
                Some("TYPE") => {
                    let (Some(name), Some(kind)) = (it.next(), it.next()) else {
                        problems.push(where_("malformed TYPE"));
                        continue;
                    };
                    if !valid_name(name) {
                        problems.push(where_("bad metric family name"));
                    }
                    if seen_types.insert(name.into(), kind.into()).is_some() {
                        problems.push(where_("duplicate TYPE for family"));
                    }
                }
                Some("HELP") | Some("UNIT") => {}
                Some(_) => problems.push(where_("unknown comment keyword")),
            }
            continue;
        }
        if *line == "#EOF" || line.starts_with('#') {
            // OpenMetrics comments must be `# ` prefixed.
            if *line == "# EOF" {
                eof_seen = true;
            } else {
                problems.push(where_("bare # comment"));
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(i) => line.split_at(i),
            None => {
                problems.push(where_("sample without value"));
                continue;
            }
        };
        if !valid_name(name_part) {
            problems.push(where_("bad sample name"));
            continue;
        }
        let (labels, value_part) = if let Some(r) = rest.strip_prefix('{') {
            match r.find('}') {
                Some(j) => (&r[..j], r[j + 1..].trim_start()),
                None => {
                    problems.push(where_("unterminated label set"));
                    continue;
                }
            }
        } else {
            ("", rest.trim_start())
        };
        for lbl in labels.split(',').filter(|s| !s.is_empty()) {
            let Some((k, v)) = lbl.split_once('=') else {
                problems.push(where_("label without ="));
                continue;
            };
            if !valid_name(k) {
                problems.push(where_("bad label name"));
            }
            if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                problems.push(where_("unquoted label value"));
            }
        }
        let value_str = value_part.split_whitespace().next().unwrap_or("");
        let value: f64 = match value_str.parse() {
            Ok(v) => v,
            Err(_) => {
                problems.push(where_("unparseable value"));
                continue;
            }
        };
        if let Some(base) = name_part.strip_suffix("_bucket") {
            let entry = bucket_state.entry(base.to_string()).or_insert((0, None));
            if labels.contains("le=\"+Inf\"") {
                entry.1 = Some(value as u64);
            } else {
                if (value as u64) < entry.0 {
                    problems.push(where_("histogram buckets not cumulative"));
                }
                entry.0 = value as u64;
            }
        } else if let Some(base) = name_part.strip_suffix("_count") {
            counts.insert(base.to_string(), value as u64);
        }
    }
    if !eof_seen {
        problems.push("missing # EOF terminator".into());
    }
    for (base, (last, inf)) in &bucket_state {
        match inf {
            None => problems.push(format!("histogram {base}: no +Inf bucket")),
            Some(inf) => {
                if *last > *inf {
                    problems.push(format!(
                        "histogram {base}: buckets exceed +Inf ({last} > {inf})"
                    ));
                }
                if let Some(c) = counts.get(base) {
                    if c != inf {
                        problems.push(format!(
                            "histogram {base}: _count {c} != +Inf bucket {inf}"
                        ));
                    }
                }
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{HistSnapshot, SpanStat};

    fn sample_snapshot() -> Snapshot {
        let mut s = Snapshot::default();
        s.counters.insert("service/batches".into(), 12);
        s.counters.insert("service/batch_width/08".into(), 7);
        s.gauges.insert("stokes/pairlist/active".into(), 8.0);
        s.gauges.insert("stokes/pairlist/candidates".into(), 12.5);
        s.spans
            .insert("service/solve".into(), SpanStat { count: 3, total_ns: 1_500 });
        s.histograms.insert(
            "service/queue_depth_cols".into(),
            HistSnapshot { count: 5, sum: 40, buckets: vec![(1, 2), (3, 3)] },
        );
        s
    }

    #[test]
    fn render_is_valid_openmetrics() {
        let text = render(&sample_snapshot());
        let problems = validate(&text);
        assert!(problems.is_empty(), "{problems:?}\n{text}");
        assert!(text.contains("service_batches_total 12"));
        assert!(text.contains("service_batch_width_08_total 7"));
        assert!(text.contains("stokes_pairlist_active 8"));
        assert!(text.contains("service_solve_calls_total 3"));
        assert!(text.contains("service_queue_depth_cols_bucket{le=\"1\"} 2"));
        assert!(text.contains("service_queue_depth_cols_bucket{le=\"7\"} 5"));
        assert!(text.contains("service_queue_depth_cols_bucket{le=\"+Inf\"} 5"));
        assert!(text.ends_with("# EOF\n"));
    }

    #[test]
    fn sanitize_maps_separators() {
        assert_eq!(sanitize_name("service/solve"), "service_solve");
        assert_eq!(sanitize_name("a-b.c"), "a_b_c");
        assert_eq!(sanitize_name("9lives"), "_9lives");
        assert_eq!(sanitize_name(""), "_");
    }

    #[test]
    fn validator_rejects_malformations() {
        assert!(!validate("no_value\n# EOF\n").is_empty());
        assert!(!validate("x 1\n").is_empty(), "missing EOF");
        assert!(!validate("9bad 1\n# EOF\n").is_empty());
        assert!(!validate("x{le=unquoted} 1\n# EOF\n").is_empty());
        assert!(!validate("x 1\n# EOF\nx 2\n").is_empty(), "after EOF");
        let non_cumulative = "h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\n\
                              h_bucket{le=\"+Inf\"} 5\nh_count 5\n# EOF\n";
        assert!(!validate(non_cumulative).is_empty());
        let count_mismatch = "h_bucket{le=\"+Inf\"} 5\nh_count 6\n# EOF\n";
        assert!(!validate(count_mismatch).is_empty());
    }

    #[test]
    fn validator_accepts_minimal_valid_text() {
        let ok = "# TYPE a counter\na_total 3\n# EOF\n";
        assert!(validate(ok).is_empty());
    }
}
