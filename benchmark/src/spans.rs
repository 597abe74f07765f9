//! Bench-side spans for the traced run (`--trace 1`).
//!
//! A span is recorded from the benchmark's own files around each call
//! into a layer's public function — name, start, end, parent, round —
//! kept in memory and written as JSON lines when the run ends. Spans
//! are added after the fact from clock readings the bench took anyway,
//! so recording costs one `Vec::push` per span.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    round: u32,
}

/// Count, total and self seconds of the spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total: f64,
    /// Total minus the part covered by child spans.
    pub self_time: f64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Spans are recorded only while this is set (traced rounds).
    pub on: bool,
    pub round: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), on: false, round: 0 }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span; `None` while tracing is off.
    pub fn add(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            round: self.round,
        });
        Some(self.spans.len() - 1)
    }

    /// Times `f` and records it as a top-level span.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start, Instant::now(), None);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals; a span's self time is its duration minus its
    /// direct children's.
    pub fn totals(&self) -> BTreeMap<String, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<String, SpanTotals> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total += dur as f64 * 1e-9;
            t.self_time += dur.saturating_sub(*c) as f64 * 1e-9;
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.on = true;
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = t.add("solve", at(0), at(100), None);
        t.add("apply", at(10), at(40), root);
        t.add("apply", at(50), at(70), root);
        let tot = t.totals();
        assert!((tot["solve"].self_time - 0.050).abs() < 1e-9);
        assert!((tot["apply"].total - 0.050).abs() < 1e-9);
        assert_eq!(tot["apply"].count, 2);
    }

    #[test]
    fn nothing_is_recorded_while_off() {
        let mut t = Tracer::new();
        let now = Instant::now();
        assert_eq!(t.add("x", now, now, None), None);
        assert_eq!(t.len(), 0);
    }
}
