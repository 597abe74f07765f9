//! Bounded pending-request queue and the coalescing dispatch policy.
//!
//! The policy balances the two costs in the paper's Eq. 8 trade-off:
//! dispatching too narrow wastes the amortized matrix stream (each
//! block iteration streams the matrix once for *all* pending columns),
//! while waiting too long to fill a batch adds queueing latency. A
//! batch for the head request's matrix is dispatched when
//!
//! * the pending width for that matrix reaches `max_batch` (the
//!   configured `m_s` target), or
//! * the head request has lingered for `linger`, or
//! * the head request's deadline minus the current solve-time estimate
//!   is due (draining a partial batch beats expiring it), or
//! * the service is shutting down (`flush`).
//!
//! A fleet sibling's idle worker may lift a batch only by the same
//! test (`steal_batch`), so stealing never cuts a forming batch short.
//!
//! Requests whose deadline passes while still queued are expired
//! without being solved. The queue is bounded in *columns* (the unit
//! that costs memory bandwidth), and `try_push` rejects when full so
//! the server can push back instead of buffering unboundedly.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::registry::{MatrixHandle, PreparedMatrix};
use crate::request::Completion;
use mrhs_sparse::MultiVec;
use mrhs_telemetry::trace::{SpanId, TraceId};
use mrhs_telemetry::{Counter, Registry};

/// Dispatch-policy knobs (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Target coalesced width, one for every tenant class. The default
    /// is 8; [`model_batch_width`](crate::model_batch_width) is how a
    /// deployment derives its own from the Eq. 9 model.
    pub max_batch: usize,
    /// Queue bound, in columns.
    pub queue_capacity: usize,
    /// How long the oldest pending request may wait for batchmates.
    pub linger: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            queue_capacity: 64,
            linger: Duration::from_millis(2),
        }
    }
}

/// Trace identity minted for a request at service ingress: the trace,
/// its root span (emitted retroactively when the request completes),
/// and the ingress timestamp on the trace clock.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RequestTrace {
    pub trace: TraceId,
    pub root: SpanId,
    pub ingress_ns: u64,
}

/// A queued request.
pub(crate) struct Pending {
    pub matrix: Arc<PreparedMatrix>,
    pub handle: MatrixHandle,
    pub rhs: MultiVec,
    pub tol: f64,
    pub enqueued: Instant,
    pub deadline: Option<Instant>,
    pub completion: Arc<Completion>,
    /// `Some` when causal tracing was on at submit.
    pub trace: Option<RequestTrace>,
}

impl Pending {
    pub(crate) fn width(&self) -> usize {
        self.rhs.m()
    }
}

/// Why a batch was dispatched when it was — the batcher decision the
/// request's span tree records (`joined_batch` link payload) and the
/// server's per-cause `service/dispatch/{cause}` counters count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchCause {
    /// Pending width for the head's matrix reached `max_batch`.
    Full = 0,
    /// The head request lingered its full `linger` budget.
    Linger = 1,
    /// The head's deadline minus the solve estimate came due.
    DeadlinePressure = 2,
    /// Shutdown drain forced the partial batch out.
    Flush = 3,
    /// A sibling shard's idle worker took a batch that was ready to
    /// dispatch (fleet work stealing). The batch still runs the victim
    /// shard's solve path, so acceptance/solo-retry semantics are
    /// unchanged.
    Stolen = 4,
}

impl DispatchCause {
    /// Stable lowercase name (metric suffix / dump field).
    pub fn as_str(self) -> &'static str {
        match self {
            DispatchCause::Full => "full",
            DispatchCause::Linger => "linger",
            DispatchCause::DeadlinePressure => "deadline_pressure",
            DispatchCause::Flush => "flush",
            DispatchCause::Stolen => "stolen",
        }
    }

    /// Small stable code for packing into trace-event payloads.
    pub fn code(self) -> u64 {
        self as u64
    }

    /// Every cause, in [`DispatchCause::code`] order.
    pub(crate) const ALL: [DispatchCause; 5] = [
        DispatchCause::Full,
        DispatchCause::Linger,
        DispatchCause::DeadlinePressure,
        DispatchCause::Flush,
        DispatchCause::Stolen,
    ];
}

/// Outcome of one dispatch poll.
pub(crate) enum Poll {
    /// A batch to solve now (all entries share one matrix handle),
    /// tagged with why it went out now.
    Batch(Vec<Pending>, DispatchCause),
    /// Nothing ready; next trigger at the given instant.
    Wait(Instant),
    /// Queue is empty.
    Empty,
}

/// Requests dropped without being solved, by cause: queue expiry
/// (`deadline_missed`, counted in the one `drop/expiry` cell),
/// `try_push` rejection (`backpressure`), submits refused while
/// shutting down (`shutdown`), and queued requests whose matrix was
/// unregistered before dispatch (`unregistered`). Each field reads the
/// service registry's `drop/`-prefixed counter of its cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Requests expired in queue (deadline missed).
    pub deadline_missed: u64,
    /// Requests rejected because the column bound was full.
    pub backpressure: u64,
    /// Requests refused during shutdown.
    pub shutdown: u64,
    /// Queued requests swept after their matrix was unregistered.
    pub unregistered: u64,
}

/// The bounded queue plus the dispatch policy. Not thread-safe by
/// itself — the server wraps it in a mutex/condvar pair.
pub(crate) struct Batcher {
    policy: BatchPolicy,
    queue: VecDeque<Pending>,
    columns: usize,
    expiry: Counter,
    /// Counted by the server: `try_push` rejections, shutdown refusals.
    pub(crate) backpressure: Counter,
    pub(crate) shutdown: Counter,
    unregistered: Counter,
    /// This queue's own workers waiting in the poll loop, kept by the
    /// server. While one waits, it dispatches the head batch itself
    /// when it comes due, so a thief leaves the queue alone.
    pub(crate) parked: usize,
}

impl Batcher {
    /// An empty queue counting drops into `metrics`.
    pub(crate) fn new(policy: BatchPolicy, metrics: &Registry) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            policy.queue_capacity >= policy.max_batch,
            "queue must hold at least one full batch"
        );
        Batcher {
            policy,
            queue: VecDeque::new(),
            columns: 0,
            expiry: metrics.counter("drop/expiry"),
            backpressure: metrics.counter("drop/backpressure"),
            shutdown: metrics.counter("drop/shutdown"),
            unregistered: metrics.counter("drop/unregistered"),
            parked: 0,
        }
    }

    /// Queued columns (the bounded resource).
    pub(crate) fn columns(&self) -> usize {
        self.columns
    }

    /// Drop counters so far.
    pub(crate) fn drop_stats(&self) -> DropStats {
        DropStats {
            deadline_missed: self.expiry.get(),
            backpressure: self.backpressure.get(),
            shutdown: self.shutdown.get(),
            unregistered: self.unregistered.get(),
        }
    }

    /// Queued requests.
    pub(crate) fn len(&self) -> usize {
        self.queue.len()
    }

    /// Queued columns waiting for one specific handle — the fleet
    /// router's "is a batch forming here?" probe.
    pub(crate) fn pending_columns_for(&self, h: MatrixHandle) -> usize {
        self.queue.iter().filter(|p| p.handle == h).map(Pending::width).sum()
    }

    /// Accepts a request, or hands it back when the column bound would
    /// be exceeded.
    // Handing the whole `Pending` back on rejection is the point of
    // the API (the server completes it with `Rejected`); it is one
    // move on a cold path, not worth a heap box on every accept.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&mut self, p: Pending) -> Result<(), Pending> {
        let w = p.width();
        if self.columns + w > self.policy.queue_capacity {
            return Err(p);
        }
        self.columns += w;
        self.queue.push_back(p);
        Ok(())
    }

    /// Moves requests whose deadline has passed into `expired`.
    fn expire(&mut self, now: Instant, expired: &mut Vec<Pending>) {
        let mut i = 0;
        while i < self.queue.len() {
            match self.queue[i].deadline {
                Some(d) if now >= d => {
                    let p = self.queue.remove(i).unwrap();
                    self.columns -= p.width();
                    self.expiry.add(1);
                    expired.push(p);
                }
                _ => i += 1,
            }
        }
    }

    /// Moves queued requests whose matrix was unregistered into
    /// `revoked` — the clean-fail half of the `unregister` contract
    /// (the worker completes them with `MatrixUnregistered`; batches
    /// already dispatched are unaffected).
    fn sweep_revoked(&mut self, revoked: &mut Vec<Pending>) {
        let mut i = 0;
        while i < self.queue.len() {
            if self.queue[i].matrix.is_revoked() {
                let p = self.queue.remove(i).unwrap();
                self.columns -= p.width();
                self.unregistered.add(1);
                revoked.push(p);
            } else {
                i += 1;
            }
        }
    }

    /// The instant at which the head request stops waiting for
    /// batchmates: its linger expiry, pulled earlier when its deadline
    /// (minus the current solve-time estimate) is closer — the returned
    /// cause says which of the two set the trigger. The margin floor
    /// keeps the drain trigger strictly before the deadline even while
    /// the solve estimate is still zero — otherwise the wakeup that
    /// should dispatch the request lands exactly on the deadline and
    /// expires it instead.
    fn head_trigger(
        &self,
        head: &Pending,
        solve_est: Duration,
    ) -> (Instant, DispatchCause) {
        const DRAIN_MARGIN: Duration = Duration::from_millis(5);
        let linger = head.enqueued + self.policy.linger;
        if let Some(d) = head.deadline {
            let margin = solve_est.max(DRAIN_MARGIN);
            let drain = d.checked_sub(margin).unwrap_or(head.enqueued);
            if drain < linger {
                return (drain, DispatchCause::DeadlinePressure);
            }
        }
        (linger, DispatchCause::Linger)
    }

    /// The one dispatch decision, for this queue's own worker and
    /// (through [`Batcher::steal_batch`]) for a thief. `flush` forces
    /// partial batches out (shutdown drain); `solve_est` is the
    /// server's running estimate of one batch solve, used to drain
    /// deadline-pressed batches early enough to still meet the
    /// deadline. Requests dropped without solving land in `expired`
    /// (deadline passed) or `revoked` (matrix unregistered) for the
    /// worker to complete with the matching error.
    pub(crate) fn poll(
        &mut self,
        now: Instant,
        flush: bool,
        solve_est: Duration,
        expired: &mut Vec<Pending>,
        revoked: &mut Vec<Pending>,
    ) -> Poll {
        self.expire(now, expired);
        self.sweep_revoked(revoked);
        let head = match self.queue.front() {
            Some(h) => h,
            None => return Poll::Empty,
        };

        let pending_width: usize = self
            .queue
            .iter()
            .filter(|p| p.handle == head.handle)
            .map(Pending::width)
            .sum();
        let (trigger, trigger_cause) = self.head_trigger(head, solve_est);
        let cause = if pending_width >= self.policy.max_batch {
            DispatchCause::Full
        } else if flush {
            DispatchCause::Flush
        } else if now >= trigger {
            trigger_cause
        } else {
            // Wake early enough to expire any queued deadline, too.
            let wake = self
                .queue
                .iter()
                .filter_map(|p| p.deadline)
                .fold(trigger, Instant::min);
            return Poll::Wait(wake);
        };

        Poll::Batch(self.select_from_head(), cause)
    }

    /// The fleet work-stealing entry point: the batch [`Batcher::poll`]
    /// would dispatch now (full, lingered or deadline-pressed), unless
    /// a worker of this queue is parked to dispatch it. A forming batch
    /// stays for the router to fill.
    pub(crate) fn steal_batch(
        &mut self,
        now: Instant,
        solve_est: Duration,
        expired: &mut Vec<Pending>,
        revoked: &mut Vec<Pending>,
    ) -> Option<Vec<Pending>> {
        if self.parked > 0 {
            return None;
        }
        match self.poll(now, false, solve_est, expired, revoked) {
            Poll::Batch(batch, _) => Some(batch),
            Poll::Wait(_) | Poll::Empty => None,
        }
    }

    /// Selects FIFO among requests sharing the head's handle. The head
    /// always goes (even if wider than max_batch — it is solved as its
    /// own batch); later requests join while they fit.
    fn select_from_head(&mut self) -> Vec<Pending> {
        let handle = self.queue.front().expect("non-empty queue").handle;
        let mut picked = Vec::new();
        let mut width = 0usize;
        let mut i = 0;
        while i < self.queue.len() {
            let p = &self.queue[i];
            let fits = width + p.width() <= self.policy.max_batch;
            if p.handle == handle && (picked.is_empty() || fits) {
                let p = self.queue.remove(i).unwrap();
                width += p.width();
                self.columns -= p.width();
                picked.push(p);
                if width >= self.policy.max_batch {
                    break;
                }
            } else {
                i += 1;
            }
        }
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MatrixRegistry;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn registry_with(n: usize) -> (MatrixRegistry, Vec<MatrixHandle>) {
        let reg = MatrixRegistry::new();
        let mut handles = Vec::new();
        for k in 0..n {
            let mut t = BlockTripletBuilder::square(2);
            t.add(0, 0, Block3::scaled_identity(3.0 + k as f64));
            t.add(1, 1, Block3::scaled_identity(3.0 + k as f64));
            handles.push(reg.register_full(&format!("m{k}"), t.build()));
        }
        (reg, handles)
    }

    fn pending(
        reg: &MatrixRegistry,
        h: MatrixHandle,
        width: usize,
        at: Instant,
        deadline: Option<Duration>,
    ) -> Pending {
        let m = reg.get(h).unwrap();
        Pending {
            rhs: MultiVec::zeros(m.dim(), width),
            matrix: m,
            handle: h,
            tol: 1e-6,
            enqueued: at,
            deadline: deadline.map(|d| at + d),
            completion: Arc::new(Completion::new()),
            trace: None,
        }
    }

    fn policy(max_batch: usize, cap: usize, linger_ms: u64) -> BatchPolicy {
        BatchPolicy {
            max_batch,
            queue_capacity: cap,
            linger: Duration::from_millis(linger_ms),
        }
    }

    #[test]
    fn fills_to_max_batch_and_dispatches_immediately() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(4, 16, 1000), &Registry::new());
        let t0 = Instant::now();
        for _ in 0..5 {
            b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        }
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        match b.poll(t0, false, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Batch(batch, cause) => {
                assert_eq!(batch.len(), 4, "coalesces to max_batch");
                assert_eq!(cause, DispatchCause::Full);
            }
            _ => panic!("expected a full batch"),
        }
        assert_eq!(b.len(), 1, "fifth request stays queued");
        assert!(exp.is_empty());
    }

    #[test]
    fn steal_takes_only_what_poll_would_dispatch() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(4, 16, 10), &Registry::new());
        let t0 = Instant::now();
        for _ in 0..3 {
            b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        }
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        let lingered = t0 + Duration::from_millis(10);
        let mut steal = |b: &mut Batcher, at| {
            b.steal_batch(at, Duration::ZERO, &mut exp, &mut rev).map(|v| v.len())
        };
        assert_eq!(steal(&mut b, t0), None, "a forming batch is left to fill");
        b.parked = 1;
        assert_eq!(steal(&mut b, lingered), None, "a parked owner dispatches");
        b.parked = 0;
        assert_eq!(steal(&mut b, lingered), Some(3));
    }

    #[test]
    fn partial_batch_waits_for_linger_then_drains() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(8, 16, 10), &Registry::new());
        let t0 = Instant::now();
        b.try_push(pending(&reg, hs[0], 2, t0, None)).ok().unwrap();
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        match b.poll(t0, false, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Wait(until) => {
                assert_eq!(until, t0 + Duration::from_millis(10));
            }
            _ => panic!("partial batch must linger"),
        }
        match b.poll(
            t0 + Duration::from_millis(11),
            false,
            Duration::ZERO,
            &mut exp,
            &mut rev,
        ) {
            Poll::Batch(batch, cause) => {
                assert_eq!(batch.len(), 1);
                assert_eq!(cause, DispatchCause::Linger);
            }
            _ => panic!("linger expiry must drain the partial batch"),
        }
    }

    #[test]
    fn flush_drains_partial_batches_without_linger() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(8, 16, 10_000), &Registry::new());
        let t0 = Instant::now();
        b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        match b.poll(t0, true, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Batch(batch, cause) => {
                assert_eq!(batch.len(), 1);
                assert_eq!(cause, DispatchCause::Flush);
            }
            _ => panic!("flush must dispatch immediately"),
        }
    }

    #[test]
    fn batches_never_mix_matrix_handles() {
        let (reg, hs) = registry_with(2);
        let mut b = Batcher::new(policy(4, 16, 0), &Registry::new());
        let t0 = Instant::now();
        b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        b.try_push(pending(&reg, hs[1], 1, t0, None)).ok().unwrap();
        b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        match b.poll(t0, false, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Batch(batch, _) => {
                assert_eq!(batch.len(), 2);
                assert!(batch.iter().all(|p| p.handle == hs[0]));
            }
            _ => panic!("expected a batch"),
        }
        match b.poll(t0, false, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Batch(batch, _) => {
                assert_eq!(batch.len(), 1);
                assert_eq!(batch[0].handle, hs[1]);
            }
            _ => panic!("expected the other matrix's batch"),
        }
    }

    #[test]
    fn expired_deadlines_are_removed_not_solved() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(4, 16, 10_000), &Registry::new());
        let t0 = Instant::now();
        b.try_push(pending(&reg, hs[0], 1, t0, Some(Duration::ZERO))).ok().unwrap();
        b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        let r = b.poll(
            t0 + Duration::from_millis(1),
            false,
            Duration::ZERO,
            &mut exp,
            &mut rev,
        );
        assert_eq!(exp.len(), 1, "zero deadline expires in queue");
        assert!(matches!(r, Poll::Wait(_)));
        assert_eq!(b.len(), 1);
        assert_eq!(b.columns(), 1);
    }

    #[test]
    fn deadline_pressure_drains_before_linger() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(8, 16, 10_000), &Registry::new());
        let t0 = Instant::now();
        // Deadline 20ms out, solves take ~5ms: must dispatch by ~15ms,
        // long before the 10s linger.
        b.try_push(pending(&reg, hs[0], 1, t0, Some(Duration::from_millis(20))))
            .ok()
            .unwrap();
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        let est = Duration::from_millis(5);
        match b.poll(t0, false, est, &mut exp, &mut rev) {
            Poll::Wait(until) => {
                assert_eq!(until, t0 + Duration::from_millis(15));
            }
            _ => panic!("should wait until deadline pressure"),
        }
        match b.poll(t0 + Duration::from_millis(16), false, est, &mut exp, &mut rev)
        {
            Poll::Batch(batch, cause) => {
                assert_eq!(batch.len(), 1);
                assert_eq!(cause, DispatchCause::DeadlinePressure);
            }
            _ => panic!("deadline pressure must dispatch"),
        }
        assert!(exp.is_empty(), "drained, not expired");
    }

    #[test]
    fn drain_trigger_on_deadline_dispatches_instead_of_expiring() {
        // Regression: with a zero solve estimate the drain trigger used
        // to land exactly on the deadline, and since `poll` expires
        // before it dispatches, the wakeup that was scheduled to drain
        // the request expired it instead. The `DRAIN_MARGIN` floor must
        // keep the trigger strictly before the deadline and the poll at
        // that trigger must produce a batch, not an expiry.
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(8, 16, 10_000), &Registry::new());
        let t0 = Instant::now();
        let deadline = Duration::from_millis(20);
        b.try_push(pending(&reg, hs[0], 1, t0, Some(deadline))).ok().unwrap();

        let mut exp = Vec::new();
        let mut rev = Vec::new();
        let wake = match b.poll(t0, false, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Wait(until) => until,
            _ => panic!("should wait for deadline pressure"),
        };
        assert!(
            wake < t0 + deadline,
            "drain wakeup must be strictly before the deadline"
        );

        // Poll exactly at the scheduled wakeup — the boundary case.
        match b.poll(wake, false, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Batch(batch, _) => assert_eq!(batch.len(), 1),
            Poll::Wait(_) => panic!("wakeup at the trigger must dispatch"),
            Poll::Empty => panic!("request expired at its own drain trigger"),
        }
        assert!(exp.is_empty(), "dispatched, not expired");
    }

    #[test]
    fn try_push_bounds_queued_columns() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(4, 4, 0), &Registry::new());
        let t0 = Instant::now();
        for _ in 0..4 {
            b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        }
        let back = b.try_push(pending(&reg, hs[0], 1, t0, None));
        assert!(back.is_err(), "fifth column must be rejected");
        assert_eq!(b.columns(), 4);
    }

    #[test]
    fn oversized_request_dispatches_as_its_own_batch() {
        let (reg, hs) = registry_with(1);
        let mut b = Batcher::new(policy(4, 16, 0), &Registry::new());
        let t0 = Instant::now();
        b.try_push(pending(&reg, hs[0], 6, t0, None)).ok().unwrap();
        b.try_push(pending(&reg, hs[0], 1, t0, None)).ok().unwrap();
        let mut exp = Vec::new();
        let mut rev = Vec::new();
        match b.poll(t0, false, Duration::ZERO, &mut exp, &mut rev) {
            Poll::Batch(batch, _) => {
                assert_eq!(batch.len(), 1);
                assert_eq!(batch[0].width(), 6);
            }
            _ => panic!("expected the wide request alone"),
        }
    }
}
