//! Concurrent writers vs. snapshot/diff readers on the global registry.
//!
//! Readers snapshot the registry (a benchmark bracket, a test's
//! `snapshot().diff(..)`) while worker and rayon threads are
//! mid-increment, so a snapshot taken at any instant must be internally
//! sane — monotone against earlier snapshots, never torn — and the
//! totals after all writers join must be exactly deterministic
//! regardless of interleaving. The writer count honors
//! `RAYON_NUM_THREADS` so CI exercises the same parallelism the kernels
//! use.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use mrhs_telemetry as telemetry;

fn writer_threads() -> usize {
    std::env::var("RAYON_NUM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(4)
}

const PER_THREAD_OPS: u64 = 2_000;

#[test]
fn racing_writers_never_tear_and_totals_pin_after_join() {
    telemetry::set_enabled(true);
    let threads = writer_threads();
    let before = telemetry::snapshot();
    let stop = Arc::new(AtomicBool::new(false));

    // Writers hammer one shared counter/span/histogram/gauge family
    // plus one private counter each.
    let writers: Vec<_> = (0..threads)
        .map(|t| {
            thread::spawn(move || {
                for k in 0..PER_THREAD_OPS {
                    telemetry::counter_add("race/shared_counter", 1);
                    telemetry::counter_add(&format!("race/thread{t}"), 2);
                    telemetry::record_span_secs("race/span", 1e-9);
                    telemetry::histogram_record_ns("race/hist", k % 1024);
                    telemetry::gauge_set("race/gauge", k as f64);
                }
            })
        })
        .collect();

    // A racing reader: every mid-flight snapshot must be monotone in
    // every key against the previous one (writers only ever add), and
    // diffs against the baseline must never go negative (saturation
    // would mask tearing, so check monotonicity on the raw values).
    let reader = {
        let stop = stop.clone();
        thread::spawn(move || {
            let mut prev = telemetry::snapshot();
            let mut observed = 0u64;
            // Check `stop` at the bottom so at least one snapshot races
            // (or, worst case, lands just after the writers finish) even
            // when tiny write runs complete before this thread is first
            // scheduled.
            loop {
                let cur = telemetry::snapshot();
                for (k, v) in &prev.counters {
                    assert!(
                        cur.counters.get(k).copied().unwrap_or(0) >= *v,
                        "counter {k} went backwards"
                    );
                }
                for (k, s) in &prev.spans {
                    let c = cur.spans.get(k).copied().unwrap_or_default();
                    assert!(c.count >= s.count, "span {k} count went backwards");
                    assert!(
                        c.total_ns >= s.total_ns,
                        "span {k} total went backwards"
                    );
                }
                for (k, h) in &prev.histograms {
                    let c = cur.histograms.get(k).cloned().unwrap_or_default();
                    assert!(c.count >= h.count, "hist {k} went backwards");
                    assert!(c.sum >= h.sum, "hist {k} sum went backwards");
                }
                if let Some(g) = cur.gauges.get("race/gauge") {
                    assert!(
                        g.is_finite() && *g < PER_THREAD_OPS as f64,
                        "gauge must always hold some writer's exact value"
                    );
                }
                observed += 1;
                prev = cur;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            observed
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    let observed = reader.join().unwrap();
    assert!(observed > 0, "reader must have raced at least once");

    // After join the totals are exact: no lost increments, no
    // double-counting, independent of scheduling.
    let d = telemetry::snapshot().diff(&before);
    let n = threads as u64;
    assert_eq!(d.counter("race/shared_counter"), n * PER_THREAD_OPS);
    for t in 0..threads {
        assert_eq!(d.counter(&format!("race/thread{t}")), 2 * PER_THREAD_OPS);
    }
    let span = d.spans.get("race/span").copied().unwrap_or_default();
    assert_eq!(span.count, n * PER_THREAD_OPS);
    let hist = d.histograms.get("race/hist").cloned().unwrap_or_default();
    assert_eq!(hist.count, n * PER_THREAD_OPS);
    let per_thread_sum: u64 = (0..PER_THREAD_OPS).map(|k| k % 1024).sum();
    assert_eq!(hist.sum, n * per_thread_sum);
    // The gauge holds the last write of whichever thread finished last;
    // every thread's final write is the same value.
    assert_eq!(d.gauges["race/gauge"], (PER_THREAD_OPS - 1) as f64);
}
