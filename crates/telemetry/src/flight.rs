//! The flight recorder: a lock-free ring buffer holding the most
//! recent trace events, dumped to JSON when something goes wrong.
//!
//! Post-hoc snapshots tell you aggregates; a crash or a missed deadline
//! needs the *event-level* history right before it happened. The
//! recorder keeps the last [`capacity`](FlightRecorder::capacity)
//! [`TraceEvent`]s (a few seconds of traffic at serving rates) in a
//! fixed ring:
//!
//! * Writers claim a slot with one `fetch_add` on the cursor and
//!   publish through a per-slot **seqlock** (odd sequence = write in
//!   progress). No locks, no allocation: a writer that collides with a
//!   lagging writer on a wrapped slot skips the event and counts it,
//!   rather than blocking.
//! * Readers ([`snapshot_events`]) copy slots and retry any slot whose
//!   sequence changed mid-copy — dumps never tear an event.
//!
//! Dumps ([`dump_now`]) are written as JSON to the directory configured
//! with [`configure_dump_dir`] (or `MRHS_FLIGHT_DIR`); the service
//! triggers them on solver breakdown, solo retry, and deadline miss,
//! and [`install_panic_hook`] arms a process-wide dump on panic. Dumps
//! are capped per process so a failure storm cannot fill the disk.

use crate::json::Json;
use crate::trace::{name_of, TraceEvent};
use std::cell::UnsafeCell;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};

/// The global ring's capacity, in events (~4 MB; a few seconds of
/// traffic at the sampled-event budget).
pub const CAPACITY: usize = 1 << 16;

/// Dumps written after this many are silently suppressed (counted in
/// [`FlightStats::suppressed_dumps`]).
pub const MAX_DUMPS_PER_PROCESS: u64 = 16;

struct Slot {
    /// Seqlock: 0 = never written; odd = write in progress; even ≥ 2 =
    /// valid data.
    seq: AtomicU64,
    data: UnsafeCell<TraceEvent>,
}

// The UnsafeCell is only read under the seqlock protocol.
unsafe impl Sync for Slot {}

/// The ring buffer. One process-global instance (see [`recorder`]);
/// tests may hold private ones.
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    recorded: AtomicU64,
    contended: AtomicU64,
    sampled_out: AtomicU64,
    dumps: AtomicU64,
}

/// Recorder activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlightStats {
    /// Events successfully written to the ring.
    pub recorded: u64,
    /// Events skipped because a wrapped writer still held the slot.
    pub contended: u64,
    /// Events dropped by the tracing sampling budget.
    pub sampled_out: u64,
    /// Dumps written so far.
    pub dumps: u64,
    /// Dumps suppressed by the per-process cap.
    pub suppressed_dumps: u64,
}

impl FlightRecorder {
    /// A recorder holding up to `capacity` events (rounded up to 1).
    pub fn new(capacity: usize) -> Self {
        let n = capacity.max(1);
        FlightRecorder {
            slots: (0..n)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    data: UnsafeCell::new(TraceEvent::default()),
                })
                .collect(),
            cursor: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            sampled_out: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Writes one event (seqlock publish). Lock-free: on a claim
    /// collision (another writer wrapped onto the same slot and is
    /// still mid-write) the event is dropped and counted instead of
    /// spinning.
    pub fn record(&self, ev: TraceEvent) {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(i % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Relaxed);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(
                    seq,
                    seq | 1,
                    Ordering::Acquire,
                    Ordering::Relaxed,
                )
                .is_err()
        {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Claimed (seq is odd): publish the payload, then bump to the
        // next even value.
        unsafe { *slot.data.get() = ev };
        slot.seq.store((seq | 1).wrapping_add(1), Ordering::Release);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies every valid event out of the ring, ordered by start time.
    /// Slots written concurrently with the copy are retried a few times
    /// and skipped if still unstable — a dump observes only complete
    /// events.
    pub fn snapshot_events(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            for _ in 0..4 {
                let s1 = slot.seq.load(Ordering::Acquire);
                if s1 == 0 {
                    break; // never written
                }
                if s1 & 1 == 1 {
                    continue; // mid-write; retry
                }
                let ev = unsafe { *slot.data.get() };
                if slot.seq.load(Ordering::Acquire) == s1 {
                    out.push(ev);
                    break;
                }
            }
        }
        out.sort_by_key(|e| (e.start_ns, e.span));
        out
    }

    /// Activity counters.
    pub fn stats(&self) -> FlightStats {
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let dumps = ld(&self.dumps);
        FlightStats {
            recorded: ld(&self.recorded),
            contended: ld(&self.contended),
            sampled_out: ld(&self.sampled_out),
            dumps: dumps.min(MAX_DUMPS_PER_PROCESS),
            suppressed_dumps: dumps.saturating_sub(MAX_DUMPS_PER_PROCESS),
        }
    }

    /// Renders the ring contents plus `reason` as a JSON dump.
    pub fn dump_json(&self, reason: &str) -> Json {
        let events = self.snapshot_events();
        let stats = self.stats();
        let evs = events
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("trace".into(), Json::from_u64(e.trace)),
                    ("span".into(), Json::from_u64(e.span)),
                    ("parent".into(), Json::from_u64(e.parent)),
                    ("name".into(), Json::Str(name_of(e.name))),
                    ("kind".into(), Json::from_u64(e.kind as u64)),
                    ("start_ns".into(), Json::from_u64(e.start_ns)),
                    ("dur_ns".into(), Json::from_u64(e.dur_ns)),
                    ("a".into(), Json::from_u64(e.a)),
                    ("b".into(), Json::from_u64(e.b)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("format".into(), Json::Str("mrhs-flight-v1".into())),
            ("reason".into(), Json::Str(reason.into())),
            (
                "dumped_unix_ms".into(),
                Json::from_u64(
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_millis() as u64)
                        .unwrap_or(0),
                ),
            ),
            ("capacity".into(), Json::from_u64(self.capacity() as u64)),
            ("recorded".into(), Json::from_u64(stats.recorded)),
            ("contended".into(), Json::from_u64(stats.contended)),
            ("sampled_out".into(), Json::from_u64(stats.sampled_out)),
            ("events".into(), Json::Arr(evs)),
        ])
    }
}

// ---------------------------------------------------------------------------
// Process-global recorder and dump plumbing

/// The process-global recorder (created on first use).
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(CAPACITY))
}

/// Writes one event into the global ring (called by [`crate::trace`]).
pub fn record(ev: TraceEvent) {
    recorder().record(ev);
}

/// Counts an event dropped by the sampling budget.
pub fn note_sampled_out() {
    recorder().sampled_out.fetch_add(1, Ordering::Relaxed);
}

/// Global recorder stats.
pub fn stats() -> FlightStats {
    recorder().stats()
}

/// Copies the global ring (see
/// [`FlightRecorder::snapshot_events`]).
pub fn snapshot_events() -> Vec<TraceEvent> {
    recorder().snapshot_events()
}

fn dump_dir() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| {
        Mutex::new(std::env::var("MRHS_FLIGHT_DIR").ok().map(PathBuf::from))
    })
}

/// Sets (or, with `None`, clears) the directory dumps are written to.
/// Overrides the `MRHS_FLIGHT_DIR` environment default.
pub fn configure_dump_dir(dir: Option<PathBuf>) {
    *dump_dir().lock().unwrap() = dir;
}

/// Dumps the ring to `<dir>/flight-<reason>-<k>.json`. Returns the
/// path written, or `None` when no dump directory is configured, the
/// per-process cap is reached, or the write fails (dumping is a
/// diagnostic of last resort — it must never panic the dumper).
pub fn dump_now(reason: &str) -> Option<PathBuf> {
    let dir = dump_dir().lock().unwrap().clone()?;
    let rec = recorder();
    let k = rec.dumps.fetch_add(1, Ordering::Relaxed);
    if k >= MAX_DUMPS_PER_PROCESS {
        return None;
    }
    let safe: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let path = dir.join(format!("flight-{safe}-{k}.json"));
    let text = rec.dump_json(reason).to_string_pretty();
    if std::fs::create_dir_all(&dir).is_err()
        || std::fs::write(&path, text).is_err()
    {
        return None;
    }
    Some(path)
}

/// Installs a panic hook (once) that dumps the ring with reason
/// `panic` before delegating to the previous hook. A no-op dump (no
/// directory configured) keeps the hook harmless in tests.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = dump_now("panic");
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::intern;

    fn ev(span: u64, start_ns: u64) -> TraceEvent {
        TraceEvent {
            trace: 1,
            span,
            parent: 0,
            name: intern("flight/test"),
            kind: crate::trace::KIND_SPAN,
            start_ns,
            dur_ns: 5,
            a: 0,
            b: 0,
        }
    }

    #[test]
    fn ring_keeps_most_recent_events() {
        let r = FlightRecorder::new(8);
        for k in 0..20u64 {
            r.record(ev(k, k));
        }
        let events = r.snapshot_events();
        assert_eq!(events.len(), 8);
        // The last 8 writes survive (spans 12..20).
        assert!(events.iter().all(|e| e.span >= 12));
        assert_eq!(r.stats().recorded, 20);
        assert_eq!(r.stats().contended, 0);
    }

    #[test]
    fn concurrent_writers_lose_nothing_below_capacity() {
        let r = std::sync::Arc::new(FlightRecorder::new(4096));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                for k in 0..256u64 {
                    r.record(ev(t * 1000 + k, k));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = r.stats();
        assert_eq!(stats.recorded + stats.contended, 8 * 256);
        // Under capacity, claim collisions are impossible: every write
        // lands in a distinct slot.
        assert_eq!(stats.contended, 0);
        assert_eq!(r.snapshot_events().len(), 8 * 256);
    }

    #[test]
    fn snapshot_is_stable_under_concurrent_writes() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let writer = {
            let (r, stop) = (r.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut k = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    r.record(ev(k, k));
                    k += 1;
                }
            })
        };
        for _ in 0..200 {
            for e in r.snapshot_events() {
                // A torn event would show a zero name or default kind
                // mismatch; every observed event must be fully formed.
                assert_eq!(e.dur_ns, 5);
                assert_eq!(e.trace, 1);
            }
        }
        stop.store(1, Ordering::Relaxed);
        writer.join().unwrap();
    }

    #[test]
    fn dump_json_carries_reason_and_events() {
        let r = FlightRecorder::new(4);
        r.record(ev(1, 10));
        let j = r.dump_json("breakdown");
        assert_eq!(j.get("reason").and_then(Json::as_str), Some("breakdown"));
        assert_eq!(
            j.get("events").and_then(Json::as_arr).map(|a| a.len()),
            Some(1)
        );
        let text = j.to_string_pretty();
        assert!(Json::parse(&text).is_ok());
    }
}
