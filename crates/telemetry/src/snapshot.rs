//! Point-in-time registry snapshots with diff semantics.
//!
//! Counters, span totals, and histogram buckets are all monotone
//! non-decreasing, so an experiment measures itself as
//! `after.diff(&before)`: per-key saturating subtraction, with keys
//! born between the two snapshots kept in full and keys absent from
//! `after` dropped. `diff` is associative with accumulation —
//! `c.diff(&a) == c.diff(&b) + b.diff(&a)` key-wise — which is what
//! makes nested bracketing sound.

use std::collections::BTreeMap;

/// Accumulated state of one span timer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Times the span was entered (or externally recorded).
    pub count: u64,
    /// Total nanoseconds across all entries.
    pub total_ns: u64,
}

impl SpanStat {
    /// Total seconds.
    pub fn secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }
}

/// Accumulated state of one histogram.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (nanoseconds).
    pub sum: u64,
    /// Sparse `(log2_bucket, count)` pairs, ascending by bucket.
    pub buckets: Vec<(u8, u64)>,
}

/// A copy of every metric at one instant. Keys are sorted so snapshots
/// print and serialize deterministically.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Span stats by name.
    pub spans: BTreeMap<String, SpanStat>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
    /// Gauge values by name — instantaneous readings, not monotone;
    /// `diff` keeps the later snapshot's value as-is.
    pub gauges: BTreeMap<String, f64>,
}

impl Snapshot {
    /// The increments between `earlier` and `self`: saturating per-key
    /// subtraction. Keys created after `earlier` appear in full; keys
    /// missing from `self` are dropped.
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    v.saturating_sub(earlier.counters.get(k).copied().unwrap_or(0)),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, v)| {
                let e = earlier.spans.get(k).copied().unwrap_or_default();
                (
                    k.clone(),
                    SpanStat {
                        count: v.count.saturating_sub(e.count),
                        total_ns: v.total_ns.saturating_sub(e.total_ns),
                    },
                )
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, v)| {
                let e = earlier.histograms.get(k);
                let buckets = v
                    .buckets
                    .iter()
                    .map(|(b, n)| {
                        let before = e
                            .and_then(|h| h.buckets.iter().find(|(eb, _)| eb == b))
                            .map(|(_, n)| *n)
                            .unwrap_or(0);
                        (*b, n.saturating_sub(before))
                    })
                    .filter(|(_, n)| *n > 0)
                    .collect();
                (
                    k.clone(),
                    HistSnapshot {
                        count: v
                            .count
                            .saturating_sub(e.map(|h| h.count).unwrap_or(0)),
                        sum: v.sum.saturating_sub(e.map(|h| h.sum).unwrap_or(0)),
                        buckets,
                    },
                )
            })
            .collect();
        // Gauges are point-in-time readings; the diff of two snapshots
        // reports the later reading unchanged.
        let gauges = self.gauges.clone();
        Snapshot { counters, spans, histograms, gauges }
    }

    /// Seconds accumulated under a span name (0 when absent).
    pub fn span_secs(&self, name: &str) -> f64 {
        self.spans.get(name).map(|s| s.secs()).unwrap_or(0.0)
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(pairs: &[(&str, u64)]) -> Snapshot {
        let mut s = Snapshot::default();
        for (k, v) in pairs {
            s.counters.insert(k.to_string(), *v);
        }
        s
    }

    #[test]
    fn diff_subtracts_per_key() {
        let before = snap(&[("a", 3), ("b", 10)]);
        let after = snap(&[("a", 5), ("b", 10), ("c", 7)]);
        let d = after.diff(&before);
        assert_eq!(d.counter("a"), 2);
        assert_eq!(d.counter("b"), 0);
        assert_eq!(d.counter("c"), 7); // born between snapshots
    }

    #[test]
    fn diff_is_consistent_with_accumulation() {
        let a = snap(&[("x", 2)]);
        let b = snap(&[("x", 9)]);
        let c = snap(&[("x", 11)]);
        assert_eq!(
            c.diff(&a).counter("x"),
            c.diff(&b).counter("x") + b.diff(&a).counter("x")
        );
    }

    #[test]
    fn span_diff_subtracts_both_fields() {
        let mut before = Snapshot::default();
        before.spans.insert("s".into(), SpanStat { count: 2, total_ns: 1000 });
        let mut after = Snapshot::default();
        after.spans.insert("s".into(), SpanStat { count: 5, total_ns: 4000 });
        let d = after.diff(&before);
        assert_eq!(d.spans["s"], SpanStat { count: 3, total_ns: 3000 });
        assert!((d.span_secs("s") - 3e-6).abs() < 1e-15);
    }

    #[test]
    fn gauges_pass_through_diff() {
        let mut before = Snapshot::default();
        before.gauges.insert("g".into(), 4.0);
        let mut after = Snapshot::default();
        after.gauges.insert("g".into(), 2.5);
        after.gauges.insert("h".into(), -1.0);
        let d = after.diff(&before);
        assert_eq!(d.gauges["g"], 2.5);
        assert_eq!(d.gauges["h"], -1.0);
    }
}
