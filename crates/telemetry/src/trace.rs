//! Causal request tracing: trace/span identity, context propagation,
//! and sampled event emission into the flight recorder.
//!
//! The post-hoc [`Snapshot`](crate::Snapshot) machinery answers "how
//! much time went where, in aggregate"; it cannot answer "why was
//! *this* request slow". This module adds the per-request axis:
//!
//! * A [`TraceId`] is minted at service ingress (one per request) and
//!   a [`SpanId`] per span. Both are process-unique `u64`s.
//! * A **thread-local context** `(trace, span)` carries the ambient
//!   parent across layers without threading IDs through every solver
//!   and kernel signature: the service worker pushes the batch span as
//!   context, and everything the solve calls — block CG iterations,
//!   GSPMV kernel dispatch, `DistEngine` halo exchange — emits its
//!   events under that parent automatically.
//! * Completed spans and instant points are written as fixed-size
//!   [`TraceEvent`] records into the lock-free flight-recorder ring
//!   ([`crate::flight`]); nothing here allocates on the hot path after
//!   name interning.
//! * **Sampling**: high-frequency events (per-iteration residuals,
//!   per-call kernel spans) pass through a per-second event budget;
//!   once the budget is spent the event is dropped and counted, so
//!   tracing cost stays bounded at saturating load. Structural events
//!   (request roots, batch spans, queue waits) bypass the budget —
//!   their rate is bounded by the request rate itself.
//!
//! Tracing is off by default; enable with [`set_trace_enabled`] or
//! `MRHS_TRACE=1`. It is independent of the metrics flag
//! ([`crate::set_enabled`]) — tracing observes only identities and
//! clocks, never operands, so numerics are bitwise identical either
//! way.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};
use std::time::Instant;

/// Sampled-event budget, events per second per process. Events beyond
/// it within any one-second window are dropped and counted in
/// [`crate::flight::FlightStats::sampled_out`].
pub const EVENT_BUDGET_PER_SEC: u64 = 500_000;

/// A request-scoped trace identity (process-unique, never 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// A span identity within a trace (process-unique, never 0).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

/// Event kinds: a completed span with a duration.
pub const KIND_SPAN: u8 = 0;
/// An instant point event (`dur_ns = 0`; payload in `a`/`b`).
pub const KIND_POINT: u8 = 1;
/// A causal link to another trace (`a` = linked trace id).
pub const KIND_LINK: u8 = 2;

/// One fixed-size trace record. Plain data so the flight recorder can
/// publish it through a seqlock without tearing hazards.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TraceEvent {
    /// Trace this event belongs to.
    pub trace: u64,
    /// This event's span id (points share their parent's id space).
    pub span: u64,
    /// Parent span id (0 = trace root).
    pub parent: u64,
    /// Interned name id (resolve with [`name_of`]).
    pub name: u32,
    /// [`KIND_SPAN`], [`KIND_POINT`], or [`KIND_LINK`].
    pub kind: u8,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration (0 for points and links).
    pub dur_ns: u64,
    /// Kind-specific payload.
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

fn trace_flag() -> &'static AtomicBool {
    static ENABLED: OnceLock<AtomicBool> = OnceLock::new();
    ENABLED.get_or_init(|| {
        let on = std::env::var("MRHS_TRACE")
            .map(|v| matches!(v.as_str(), "1" | "on" | "true"))
            .unwrap_or(false);
        AtomicBool::new(on)
    })
}

/// Whether trace events are being recorded. Defaults to the
/// `MRHS_TRACE` environment variable (read once).
pub fn trace_enabled() -> bool {
    trace_flag().load(Ordering::Relaxed)
}

/// Turns tracing on or off at runtime (overrides the environment
/// default).
pub fn set_trace_enabled(on: bool) {
    trace_flag().store(on, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds between the process trace epoch and `t` (0 when `t`
/// precedes the epoch — only possible for Instants captured before the
/// first trace call).
pub fn epoch_ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos().min(u64::MAX as u128) as u64
}

/// Nanoseconds since the process trace epoch, now.
pub fn now_ns() -> u64 {
    epoch_ns(Instant::now())
}

fn next_id(cell: &AtomicU64) -> u64 {
    cell.fetch_add(1, Ordering::Relaxed)
}

/// Mints a fresh trace id.
pub fn mint_trace() -> TraceId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    TraceId(next_id(&NEXT))
}

/// Mints a fresh span id.
pub fn mint_span() -> SpanId {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    SpanId(next_id(&NEXT))
}

// ---------------------------------------------------------------------------
// Name interning

#[allow(clippy::type_complexity)]
fn names() -> &'static RwLock<(Vec<String>, HashMap<String, u32>)> {
    static NAMES: OnceLock<RwLock<(Vec<String>, HashMap<String, u32>)>> =
        OnceLock::new();
    // Id 0 is reserved so a zeroed event never aliases a real name.
    NAMES.get_or_init(|| {
        let mut map = HashMap::new();
        map.insert("<unknown>".to_string(), 0);
        RwLock::new((vec!["<unknown>".to_string()], map))
    })
}

/// Interns `name`, returning its stable id.
pub fn intern(name: &str) -> u32 {
    if let Some(id) = names().read().unwrap().1.get(name) {
        return *id;
    }
    let mut w = names().write().unwrap();
    if let Some(id) = w.1.get(name) {
        return *id;
    }
    let id = w.0.len() as u32;
    w.0.push(name.to_string());
    w.1.insert(name.to_string(), id);
    id
}

/// Resolves an interned id back to its name.
pub fn name_of(id: u32) -> String {
    let r = names().read().unwrap();
    r.0.get(id as usize).cloned().unwrap_or_else(|| "<unknown>".to_string())
}

// ---------------------------------------------------------------------------
// Sampling budget

struct Budget {
    window_start_ns: AtomicU64,
    used: AtomicU64,
}

fn budget() -> &'static Budget {
    static BUDGET: OnceLock<Budget> = OnceLock::new();
    BUDGET.get_or_init(|| Budget {
        window_start_ns: AtomicU64::new(0),
        used: AtomicU64::new(0),
    })
}

/// Takes one token from the budget; `false` means the caller must drop
/// the event. Windows are fixed one-second intervals; the first writer
/// past a window boundary resets the counter.
fn budget_take(now: u64) -> bool {
    let b = budget();
    let ws = b.window_start_ns.load(Ordering::Relaxed);
    if now.saturating_sub(ws) >= 1_000_000_000
        && b.window_start_ns
            .compare_exchange(ws, now, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    {
        b.used.store(0, Ordering::Relaxed);
    }
    b.used.fetch_add(1, Ordering::Relaxed) < EVENT_BUDGET_PER_SEC
}

// ---------------------------------------------------------------------------
// Context propagation

thread_local! {
    /// `(trace, span)`; `(0, 0)` = no ambient context.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The ambient `(trace, parent span)` on this thread, if any.
pub fn current() -> Option<(TraceId, SpanId)> {
    let (t, s) = CURRENT.with(Cell::get);
    (t != 0).then_some((TraceId(t), SpanId(s)))
}

/// RAII context override; restores the previous context on drop.
pub struct ContextGuard {
    prev: (u64, u64),
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
    }
}

/// Makes `(trace, span)` the ambient context on this thread until the
/// guard drops — how a worker adopts a request's identity across the
/// queue handoff.
pub fn push_context(trace: TraceId, span: SpanId) -> ContextGuard {
    let prev = CURRENT.with(|c| c.replace((trace.0, span.0)));
    ContextGuard { prev }
}

// ---------------------------------------------------------------------------
// Emission

fn emit(ev: TraceEvent) {
    crate::flight::record(ev);
}

/// Records a completed span with explicit timing — used where the span
/// brackets an interval measured elsewhere (a queue wait whose start
/// was captured at submit, an engine phase timed by a worker thread).
#[allow(clippy::too_many_arguments)]
pub fn emit_span_at(
    trace: TraceId,
    span: SpanId,
    parent: SpanId,
    name: &str,
    start_ns: u64,
    dur_ns: u64,
    a: u64,
    b: u64,
) {
    if !trace_enabled() {
        return;
    }
    emit(TraceEvent {
        trace: trace.0,
        span: span.0,
        parent: parent.0,
        name: intern(name),
        kind: KIND_SPAN,
        start_ns,
        dur_ns,
        a,
        b,
    });
}

/// Records an instant point under the ambient context, subject to the
/// sampling budget. No-op without a context.
pub fn point(name: &str, a: u64, b: u64) {
    if !trace_enabled() {
        return;
    }
    let Some((trace, parent)) = current() else { return };
    let now = now_ns();
    if !budget_take(now) {
        crate::flight::note_sampled_out();
        return;
    }
    emit(TraceEvent {
        trace: trace.0,
        span: mint_span().0,
        parent: parent.0,
        name: intern(name),
        kind: KIND_POINT,
        start_ns: now,
        dur_ns: 0,
        a,
        b,
    });
}

/// Records a causal link (`a` = linked trace id) under an explicit
/// parent. Links are structural: they bypass the sampling budget.
pub fn link(trace: TraceId, parent: SpanId, name: &str, a: u64, b: u64) {
    if !trace_enabled() {
        return;
    }
    emit(TraceEvent {
        trace: trace.0,
        span: mint_span().0,
        parent: parent.0,
        name: intern(name),
        kind: KIND_LINK,
        start_ns: now_ns(),
        dur_ns: 0,
        a,
        b,
    });
}

/// An in-flight span: emits a [`KIND_SPAN`] event on drop and makes
/// itself the ambient context while alive.
pub struct TraceSpan {
    trace: u64,
    span: u64,
    parent: u64,
    name: u32,
    start: Instant,
    prev: (u64, u64),
}

impl TraceSpan {
    /// This span's trace.
    pub fn trace_id(&self) -> TraceId {
        TraceId(self.trace)
    }

    /// This span's id.
    pub fn span_id(&self) -> SpanId {
        SpanId(self.span)
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        CURRENT.with(|c| c.set(self.prev));
        let start_ns = epoch_ns(self.start);
        emit(TraceEvent {
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            name: self.name,
            kind: KIND_SPAN,
            start_ns,
            dur_ns: now_ns().saturating_sub(start_ns),
            a: 0,
            b: 0,
        });
    }
}

fn open_span(trace: u64, parent: u64, name: &str) -> TraceSpan {
    let span = mint_span().0;
    let prev = CURRENT.with(|c| c.replace((trace, span)));
    TraceSpan {
        trace,
        span,
        parent,
        name: intern(name),
        start: Instant::now(),
        prev,
    }
}

/// Opens a root span on a freshly minted trace (no parent). `None`
/// while tracing is disabled.
pub fn root_span(name: &str) -> Option<TraceSpan> {
    trace_enabled().then(|| open_span(mint_trace().0, 0, name))
}

/// Opens a child span under the ambient context, subject to the
/// sampling budget (whole spans are sampled at open, never half
/// recorded). `None` while tracing is disabled, without a context, or
/// when the budget is spent.
pub fn child_span(name: &str) -> Option<TraceSpan> {
    if !trace_enabled() {
        return None;
    }
    let (trace, parent) = current().map(|(t, s)| (t.0, s.0))?;
    if !budget_take(now_ns()) {
        crate::flight::note_sampled_out();
        return None;
    }
    Some(open_span(trace, parent, name))
}

// ---------------------------------------------------------------------------
// Tree assembly

/// One node of an assembled span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// The span event itself.
    pub event: TraceEvent,
    /// Resolved span name.
    pub name: String,
    /// Child spans, by start time.
    pub children: Vec<SpanNode>,
    /// Point events recorded directly under this span, by time.
    pub points: Vec<TraceEvent>,
    /// Link events recorded directly under this span, by time.
    pub links: Vec<TraceEvent>,
}

impl SpanNode {
    /// Depth-first search for a descendant (or self) by name.
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Total spans in this subtree (self included).
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(SpanNode::span_count).sum::<usize>()
    }

    /// Renders the subtree as an indented text listing.
    pub fn render(&self) -> String {
        fn walk(n: &SpanNode, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            out.push_str(&format!(
                "{pad}{} [{:.3} ms @ +{:.3} ms]\n",
                n.name,
                n.event.dur_ns as f64 / 1e6,
                n.event.start_ns as f64 / 1e6,
            ));
            for p in &n.points {
                out.push_str(&format!(
                    "{pad}  · {} (a={}, b={:#x})\n",
                    name_of(p.name),
                    p.a,
                    p.b
                ));
            }
            for l in &n.links {
                out.push_str(&format!(
                    "{pad}  → {} trace {}\n",
                    name_of(l.name),
                    l.a
                ));
            }
            for c in &n.children {
                walk(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        walk(self, 0, &mut out);
        out
    }
}

/// Assembles the span tree of one trace from a flat event slice
/// (e.g. a flight-recorder snapshot). Returns `None` when the trace
/// has no root span among `events`. Spans whose parent is missing
/// (evicted from the ring) are grafted under the root so nothing is
/// silently dropped.
pub fn assemble(events: &[TraceEvent], trace: TraceId) -> Option<SpanNode> {
    let mut spans: Vec<&TraceEvent> = Vec::new();
    let mut others: Vec<&TraceEvent> = Vec::new();
    for e in events.iter().filter(|e| e.trace == trace.0) {
        if e.kind == KIND_SPAN {
            spans.push(e);
        } else {
            others.push(e);
        }
    }
    let root = *spans.iter().find(|e| e.parent == 0)?;
    let ids: std::collections::HashSet<u64> =
        spans.iter().map(|e| e.span).collect();
    let mut nodes: HashMap<u64, SpanNode> = spans
        .iter()
        .map(|e| {
            (
                e.span,
                SpanNode {
                    event: **e,
                    name: name_of(e.name),
                    children: Vec::new(),
                    points: Vec::new(),
                    links: Vec::new(),
                },
            )
        })
        .collect();
    for e in others {
        let target = if ids.contains(&e.parent) { e.parent } else { root.span };
        if let Some(n) = nodes.get_mut(&target) {
            if e.kind == KIND_LINK {
                n.links.push(*e);
            } else {
                n.points.push(*e);
            }
        }
    }
    // Attach children deepest-first: repeatedly move spans whose parent
    // node still exists. Orphans (parent evicted) fall to the root.
    let mut order: Vec<u64> =
        spans.iter().filter(|e| e.span != root.span).map(|e| e.span).collect();
    order.sort_by_key(|id| std::cmp::Reverse(nodes[id].event.start_ns));
    for id in order {
        let node = nodes.remove(&id).unwrap();
        let parent = node.event.parent;
        let target = if nodes.contains_key(&parent) { parent } else { root.span };
        nodes.get_mut(&target).unwrap().children.push(node);
    }
    let mut root_node = nodes.remove(&root.span)?;
    fn sort_rec(n: &mut SpanNode) {
        n.children.sort_by_key(|c| c.event.start_ns);
        n.points.sort_by_key(|p| p.start_ns);
        n.links.sort_by_key(|l| l.start_ns);
        for c in &mut n.children {
            sort_rec(c);
        }
    }
    sort_rec(&mut root_node);
    Some(root_node)
}

/// Like [`assemble`], then grafts every trace referenced by a
/// [`KIND_LINK`] event (`a` = linked trace id) as an extra child of the
/// linking span — the request-centric view of a coalesced batch: the
/// request's `joined_batch` link pulls the shared batch tree in under
/// it. One level of links only (batches do not link onward).
pub fn assemble_linked(events: &[TraceEvent], trace: TraceId) -> Option<SpanNode> {
    let mut root = assemble(events, trace)?;
    fn graft(n: &mut SpanNode, events: &[TraceEvent]) {
        let linked: Vec<u64> = n.links.iter().map(|l| l.a).collect();
        for t in linked {
            if let Some(sub) = assemble(events, TraceId(t)) {
                n.children.push(sub);
            }
        }
        n.children.sort_by_key(|c| c.event.start_ns);
        for c in &mut n.children {
            graft(c, events);
        }
    }
    graft(&mut root, events);
    Some(root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = mint_trace();
        let b = mint_trace();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        let s = mint_span();
        let t = mint_span();
        assert_ne!(s, t);
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("trace/test/stable");
        let b = intern("trace/test/stable");
        assert_eq!(a, b);
        assert_eq!(name_of(a), "trace/test/stable");
        assert_eq!(name_of(9_999_999), "<unknown>");
    }

    #[test]
    fn context_nests_and_restores() {
        assert!(current().is_none());
        let t = mint_trace();
        let s = mint_span();
        {
            let _g = push_context(t, s);
            assert_eq!(current(), Some((t, s)));
            let s2 = mint_span();
            {
                let _g2 = push_context(t, s2);
                assert_eq!(current(), Some((t, s2)));
            }
            assert_eq!(current(), Some((t, s)));
        }
        assert!(current().is_none());
    }

    #[test]
    fn assemble_builds_parent_child_tree() {
        let t = 77_000_001u64;
        let name_root = intern("req");
        let name_mid = intern("mid");
        let name_leaf = intern("leaf");
        let name_pt = intern("pt");
        let ev = |span, parent, name, kind, start_ns| TraceEvent {
            trace: t,
            span,
            parent,
            name,
            kind,
            start_ns,
            dur_ns: 10,
            a: 0,
            b: 0,
        };
        let events = vec![
            ev(3, 2, name_leaf, KIND_SPAN, 30),
            ev(1, 0, name_root, KIND_SPAN, 0),
            ev(2, 1, name_mid, KIND_SPAN, 10),
            ev(4, 2, name_pt, KIND_POINT, 35),
        ];
        let tree = assemble(&events, TraceId(t)).unwrap();
        assert_eq!(tree.name, "req");
        assert_eq!(tree.span_count(), 3);
        let mid = tree.find("mid").unwrap();
        assert_eq!(mid.children.len(), 1);
        assert_eq!(mid.children[0].name, "leaf");
        assert_eq!(mid.points.len(), 1);
        assert!(tree.find("leaf").is_some());
        assert!(tree.find("absent").is_none());
    }

    #[test]
    fn assemble_linked_grafts_referenced_trace() {
        let ta = 88_000_001u64;
        let tb = 88_000_002u64;
        let events = vec![
            TraceEvent {
                trace: ta,
                span: 1,
                parent: 0,
                name: intern("request"),
                kind: KIND_SPAN,
                start_ns: 0,
                dur_ns: 100,
                ..Default::default()
            },
            TraceEvent {
                trace: ta,
                span: 2,
                parent: 1,
                name: intern("joined"),
                kind: KIND_LINK,
                start_ns: 5,
                a: tb,
                ..Default::default()
            },
            TraceEvent {
                trace: tb,
                span: 3,
                parent: 0,
                name: intern("batch"),
                kind: KIND_SPAN,
                start_ns: 10,
                dur_ns: 50,
                ..Default::default()
            },
        ];
        let tree = assemble_linked(&events, TraceId(ta)).unwrap();
        assert!(tree.find("batch").is_some(), "{}", tree.render());
    }

    #[test]
    fn orphaned_span_falls_to_root() {
        let t = 99_000_001u64;
        let mk = |span, parent| TraceEvent {
            trace: t,
            span,
            parent,
            name: intern("n"),
            kind: KIND_SPAN,
            start_ns: span,
            dur_ns: 1,
            ..Default::default()
        };
        // Parent 55 was evicted from the ring; span 9 must still appear.
        let events = vec![mk(1, 0), mk(9, 55)];
        let tree = assemble(&events, TraceId(t)).unwrap();
        assert_eq!(tree.span_count(), 2);
    }
}
