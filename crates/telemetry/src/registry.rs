//! The metrics registry: atomic counters, span timers, histograms.
//!
//! Names are interned in per-kind maps guarded by plain mutexes; the
//! hot path after interning is a lock-free atomic add. A GSPMV records
//! a handful of counters per *call* (never per row), so the lock is
//! taken a few times per multiply — noise next to the multiply itself.

use crate::snapshot::Snapshot;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Number of log₂ buckets in a histogram: bucket `i` counts samples
/// `v` with `64 - v.leading_zeros() == i`, i.e. `2^(i-1) ≤ v < 2^i`
/// (bucket 0 holds `v == 0`). 64 buckets cover the full `u64` range.
pub const HIST_BUCKETS: usize = 64;

pub(crate) struct SpanCell {
    pub total_ns: AtomicU64,
    pub count: AtomicU64,
}

pub(crate) struct HistCell {
    pub count: AtomicU64,
    pub sum: AtomicU64,
    pub buckets: [AtomicU64; HIST_BUCKETS],
}

/// A handle on one counter cell of a [`Registry`], resolved once by
/// [`Registry::counter`]: recording is one relaxed atomic add, with no
/// name lookup. Clones share the cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `v` to the cell.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// The cell's current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Thread-safe metrics registry. The free functions in the crate root
/// forward to a process-global instance; services, tests and tools may
/// own private instances (a private registry always records — the
/// global enable flag only gates the free functions) and
/// [`attach`](Registry::attach) them to the global one.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<HashMap<String, Arc<AtomicU64>>>,
    spans: Mutex<HashMap<String, Arc<SpanCell>>>,
    hists: Mutex<HashMap<String, Arc<HistCell>>>,
    // Gauges store f64 bits in an AtomicU64 (last write wins).
    gauges: Mutex<HashMap<String, Arc<AtomicU64>>>,
    // Child registries folded into `snapshot` under a prefix.
    attached: Mutex<Vec<(String, Arc<Registry>)>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolves the named counter, creating it at zero so that it
    /// appears in every later snapshot. The handle records into this
    /// registry's own cell.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.counter_cell(name))
    }

    /// Folds `child` into every later [`Registry::snapshot`] under
    /// `"{prefix}/{name}"`. Equal names add — counters, span counts and
    /// nanoseconds, histogram counts, sums and buckets — and gauges
    /// keep the last value. This registry holds `child` for good, so a
    /// child whose owner stopped never takes counts out of a later
    /// snapshot and a bracketing diff never goes backwards.
    pub fn attach(&self, prefix: &str, child: Arc<Registry>) {
        self.attached.lock().unwrap().push((prefix.to_string(), child));
    }

    fn counter_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.counters.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0));
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    fn span_cell(&self, name: &str) -> Arc<SpanCell> {
        let mut map = self.spans.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(SpanCell {
                    total_ns: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                });
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    fn hist_cell(&self, name: &str) -> Arc<HistCell> {
        let mut map = self.hists.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(HistCell {
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                });
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    fn gauge_cell(&self, name: &str) -> Arc<AtomicU64> {
        let mut map = self.gauges.lock().unwrap();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(AtomicU64::new(0f64.to_bits()));
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Adds `v` to the named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, v: u64) {
        self.counter_cell(name).fetch_add(v, Ordering::Relaxed);
    }

    /// Sets the named gauge to `v`. Unlike counters and spans, gauges
    /// are last-write-wins instantaneous readings (the resistance pair
    /// list's active count) — `diff` passes them through unchanged.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.gauge_cell(name).store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value of one of this registry's own gauges (`None` if
    /// never set; attached registries are not read).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges
            .lock()
            .unwrap()
            .get(name)
            .map(|c| f64::from_bits(c.load(Ordering::Relaxed)))
    }

    /// Current value of one of this registry's own counters (0 if never
    /// touched; attached registries are not read).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .lock()
            .unwrap()
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Opens an RAII span: the returned guard adds the elapsed
    /// wall-clock to `name` when dropped.
    pub fn span(&self, name: &str) -> SpanGuard {
        SpanGuard { active: Some((self.span_cell(name), Instant::now())) }
    }

    /// Records an externally measured duration under `name`.
    pub fn record_span(&self, name: &str, dt: Duration) {
        let cell = self.span_cell(name);
        cell.total_ns.fetch_add(
            dt.as_nanos().min(u64::MAX as u128) as u64,
            Ordering::Relaxed,
        );
        cell.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one nanosecond sample into the named histogram.
    pub fn histogram_record_ns(&self, name: &str, ns: u64) {
        let cell = self.hist_cell(name);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(ns, Ordering::Relaxed);
        let bucket = (64 - ns.leading_zeros()) as usize;
        cell.buckets[bucket.min(HIST_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of every metric, this registry's own and its
    /// attached registries' under their prefixes.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        self.add_into(&mut snap, "");
        snap
    }

    /// Adds every metric into `snap` under `"{prefix}{name}"`, combining
    /// equal names as [`Registry::attach`] describes.
    fn add_into(&self, snap: &mut Snapshot, prefix: &str) {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (k, v) in self.counters.lock().unwrap().iter() {
            *snap.counters.entry(format!("{prefix}{k}")).or_default() += load(v);
        }
        for (k, v) in self.spans.lock().unwrap().iter() {
            let e = snap.spans.entry(format!("{prefix}{k}")).or_default();
            e.count += load(&v.count);
            e.total_ns += load(&v.total_ns);
        }
        for (k, v) in self.hists.lock().unwrap().iter() {
            let e = snap.histograms.entry(format!("{prefix}{k}")).or_default();
            e.count += load(&v.count);
            e.sum += load(&v.sum);
            let filled =
                v.buckets.iter().map(load).enumerate().filter(|&(_, n)| n > 0);
            for (b, n) in filled {
                let b = b as u8;
                match e.buckets.binary_search_by_key(&b, |&(i, _)| i) {
                    Ok(i) => e.buckets[i].1 += n,
                    Err(i) => e.buckets.insert(i, (b, n)),
                }
            }
        }
        for (k, v) in self.gauges.lock().unwrap().iter() {
            snap.gauges.insert(format!("{prefix}{k}"), f64::from_bits(load(v)));
        }
        for (p, child) in self.attached.lock().unwrap().iter() {
            child.add_into(snap, &format!("{prefix}{p}/"));
        }
    }
}

/// RAII span timer: records the time from construction to drop. An
/// inert guard (telemetry disabled) carries no clock reading and
/// records nothing.
pub struct SpanGuard {
    active: Option<(Arc<SpanCell>, Instant)>,
}

impl SpanGuard {
    /// A guard that does nothing on drop.
    pub fn inert() -> Self {
        SpanGuard { active: None }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.active.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            cell.total_ns.fetch_add(ns, Ordering::Relaxed);
            cell.count.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SpanStat;

    #[test]
    fn counters_accumulate() {
        let r = Registry::new();
        r.counter_add("a", 1);
        r.counter("a").add(2);
        r.counter_add("b", 5);
        let c = r.counter("c");
        assert_eq!(r.counter_value("a"), 3);
        assert_eq!(r.counter_value("b"), 5);
        assert_eq!(r.counter_value("never"), 0);
        // A resolved counter is in the snapshot at zero, and its handle
        // reads the cell the snapshot reads.
        assert_eq!(r.snapshot().counters.get("c"), Some(&0));
        c.add(4);
        assert_eq!(c.get(), 4);
        assert_eq!(r.snapshot().counter("c"), c.get());
    }

    #[test]
    fn attached_registries_fold_into_the_snapshot() {
        let parent = Registry::new();
        let (a, b) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
        parent.attach("svc", Arc::clone(&a));
        parent.attach("svc", Arc::clone(&b));
        parent.attach("shard0", Arc::clone(&a));
        // Counts made after `attach`.
        a.counter("n").add(2);
        b.counter_add("n", 3);
        a.record_span("s", Duration::from_nanos(100));
        b.record_span("s", Duration::from_nanos(50));
        for v in [1, 2, 1024] {
            a.histogram_record_ns("h", v);
        }
        for v in [3, 0] {
            b.histogram_record_ns("h", v);
        }
        a.gauge_set("g", 1.0);
        b.gauge_set("g", 2.0);
        let snap = parent.snapshot();
        // Two children under one prefix add; histograms bucket by bucket.
        assert_eq!(snap.counter("svc/n"), 5);
        assert_eq!(snap.spans["svc/s"], SpanStat { count: 2, total_ns: 150 });
        let h = &snap.histograms["svc/h"];
        assert_eq!((h.count, h.sum), (5, 1030));
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (2, 2), (11, 1)]);
        assert_eq!(snap.gauges["svc/g"], 2.0);
        // One child under two prefixes appears under both.
        assert_eq!(snap.counter("shard0/n"), 2);
        assert_eq!(
            snap.histograms["shard0/h"].buckets,
            vec![(1, 1), (2, 1), (11, 1)]
        );
        // The next snapshot sees the next count; lookups by name read
        // only the parent's own cells.
        a.counter("n").add(1);
        assert_eq!(parent.snapshot().counter("svc/n"), 6);
        assert_eq!(parent.counter_value("svc/n"), 0);
    }

    #[test]
    fn span_guard_records_on_drop() {
        let r = Registry::new();
        {
            let _g = r.span("s");
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = r.snapshot();
        let s = &snap.spans["s"];
        assert_eq!(s.count, 1);
        assert!(s.total_ns >= 1_000_000, "{}", s.total_ns);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let r = Registry::new();
        r.histogram_record_ns("h", 0);
        r.histogram_record_ns("h", 1);
        r.histogram_record_ns("h", 2);
        r.histogram_record_ns("h", 3);
        r.histogram_record_ns("h", 1024);
        let snap = r.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 1030);
        // v=0 → bucket 0; v=1 → bucket 1; v∈{2,3} → bucket 2; 1024 → 11.
        let get = |b: u8| {
            h.buckets.iter().find(|(i, _)| *i == b).map(|(_, n)| *n).unwrap_or(0)
        };
        assert_eq!(get(0), 1);
        assert_eq!(get(1), 1);
        assert_eq!(get(2), 2);
        assert_eq!(get(11), 1);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        assert_eq!(r.gauge_value("g"), None);
        r.gauge_set("g", 3.5);
        r.gauge_set("g", -0.25);
        assert_eq!(r.gauge_value("g"), Some(-0.25));
        assert_eq!(r.snapshot().gauges["g"], -0.25);
    }

    #[test]
    fn concurrent_counter_increments_lose_nothing() {
        let r = std::sync::Arc::new(Registry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    r.counter_add("contended", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter_value("contended"), 80_000);
    }
}
