//! Unified telemetry for the MRHS workspace.
//!
//! The paper's whole argument is quantitative — Eq. 8's bandwidth bound,
//! the Tables VI/VII step breakdowns, the Fig. 8 comm/compute overlap —
//! so every hot layer of this workspace reports into one place:
//!
//! * [`Registry`] — a thread-safe metrics registry holding **atomic
//!   counters** (`gspmv/flops`, `engine/halo_bytes`, …), **hierarchical
//!   span timers** with RAII guards (`solver/block_cg/iter`,
//!   `mrhs/first_solve`, `engine/node0/comm_wait`, …), and **simple
//!   histograms** (log₂-bucketed nanoseconds, for per-iteration
//!   latencies). An object may own one: each `SolveService` and
//!   `FleetService` records its events through resolved [`Counter`]s
//!   into its own registry, and [`Registry::attach`] folds that registry
//!   into the global snapshot under a prefix (`service`,
//!   `fleet/shard{i}`, `fleet`).
//! * [`Snapshot`] — a point-in-time copy of the registry with
//!   [`Snapshot::diff`] semantics, so an experiment brackets itself with
//!   two snapshots and reports only its own increments.
//! * [`json`] — a minimal JSON value type with serializer and parser.
//!   The build container has no crates.io access, so this stands in for
//!   serde-JSON exactly like the `shims/` crates stand in for rayon and
//!   friends; flight dumps, the benchmark's records and the `repro
//!   trajectory` files are written and read with it.
//! * [`trace`] / [`flight`] — causal per-request span trees and the
//!   flight recorder that dumps them.
//!
//! The committed per-layer record is not kept here: the repo's
//! benchmark (`benchmark/`) reads these counters and spans on its
//! traced runs, and `repro trajectory` keeps those rows in
//! `BENCH_<pr>.json`.
//!
//! ## Global registry and zero-cost disabling
//!
//! Instrumentation sites call the free functions ([`counter_add`],
//! [`span`], [`record_span_secs`], …), which forward to a process-global
//! [`Registry`] **only when telemetry is enabled** — via
//! [`set_enabled`]`(true)` or the `MRHS_TELEMETRY=1` environment
//! variable. Disabled (the default), every call is one relaxed atomic
//! load and a branch: no clock reads, no allocation, no locks.
//! The flag gates only these free functions — the kernels, solvers,
//! drivers and the pair-list gauges. An owned registry records
//! regardless, so
//! a service's families are in [`snapshot()`] from its start, flag on or
//! off. Telemetry only ever *observes* timings and sizes — it never
//! touches an operand — so numerics are bitwise identical with it on or
//! off (the oracle determinism suite runs under `MRHS_TELEMETRY=1` in
//! CI to pin exactly that).
//!
//! ## Span taxonomy
//!
//! Span names are `/`-separated paths; a span named `a/b/c` is a child
//! of `a/b`. The workspace convention (see DESIGN.md §12):
//!
//! * `kernel/…`  — GSPMV invocations, one family over BCRS
//!   (`kernel/gspmv/m8`)
//! * `solver/…`  — solver totals and phases (`solver/block_cg`,
//!   `solver/block_cg/init`, `solver/block_cg/iter`, `solver/cheb/apply`)
//! * `mrhs/…`    — the Alg. 1/Alg. 2 drivers' step phases, the rows of
//!   Tables VI/VII (`mrhs/assemble`, `mrhs/cheb_vectors`, …)
//! * `engine/…`  — distributed engine (`engine/node3/comm_wait`, …)

pub mod flight;
pub mod json;
pub mod registry;
pub mod snapshot;
pub mod trace;

pub use registry::{Counter, Registry, SpanGuard};
pub use snapshot::{HistSnapshot, Snapshot, SpanStat};
pub use trace::{SpanId, TraceEvent, TraceId, TraceSpan};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

fn flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = std::env::var("MRHS_TELEMETRY")
            .map(|v| matches!(v.as_str(), "1" | "on" | "true"))
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Whether the global registry records anything. Defaults to the
/// `MRHS_TELEMETRY` environment variable (read once).
pub fn enabled() -> bool {
    flag().load(Ordering::Relaxed)
}

/// Turns global recording on or off at runtime (overrides the
/// environment default).
pub fn set_enabled(on: bool) {
    flag().store(on, Ordering::Relaxed);
}

/// The process-global registry. Accessible even while disabled (e.g. to
/// snapshot whatever was recorded before disabling).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Adds `v` to the named global counter (no-op while disabled).
#[inline]
pub fn counter_add(name: &str, v: u64) {
    if enabled() {
        global().counter_add(name, v);
    }
}

/// Opens an RAII span on the global registry; the guard records the
/// elapsed wall-clock into the span on drop. While disabled this
/// returns an inert guard without reading the clock.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if enabled() {
        global().span(name)
    } else {
        SpanGuard::inert()
    }
}

/// Records an externally measured duration under `name` (no-op while
/// disabled) — how the distributed engine reports phase timings that
/// its worker threads measured themselves.
#[inline]
pub fn record_span_secs(name: &str, secs: f64) {
    if enabled() {
        global().record_span(name, Duration::from_secs_f64(secs.max(0.0)));
    }
}

/// Records a nanosecond sample into the named global histogram (no-op
/// while disabled).
#[inline]
pub fn histogram_record_ns(name: &str, ns: u64) {
    if enabled() {
        global().histogram_record_ns(name, ns);
    }
}

/// Sets the named global gauge — a last-write-wins instantaneous
/// reading (no-op while disabled). The resistance assembly's pair-list
/// gauges (`stokes/pairlist/…`) live here.
#[inline]
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        global().gauge_set(name, v);
    }
}

/// Snapshot of the global registry, attached registries included.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}
