//! The solve service: worker threads draining the `Batcher` into
//! coalesced block-CG solves, counted once in a registry each service
//! owns ([`SolveService::metrics`]).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use mrhs_perfmodel::mrhs_model::SolveCounts;
use mrhs_perfmodel::{GspmvModel, MrhsModel};
use mrhs_solvers::{
    block_bicgstab_with_options, block_cg_with_options, BlockSolveOptions,
    BlockSolveResult, LinearOperator, SolveConfig,
};
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;
use mrhs_telemetry::{flight, trace, Counter, Registry};

use crate::batcher::{
    BatchPolicy, Batcher, DispatchCause, DropStats, Pending, Poll, RequestTrace,
};
use crate::registry::{MatrixHandle, MatrixRegistry, OperatorClass};
use crate::request::{
    Completion, RequestOptions, SolveError, SolveOutput, SubmitError, Ticket,
};

/// The width the service should coalesce to: the Eq. 9 minimizer
/// `m_optimal`, clamped to the bandwidth→compute switch point `m_s`
/// (Eq. 8) — beyond `m_s` each extra column pays full compute cost, so
/// there is no serving win in batching wider — then snapped **down** to
/// the nearest kernel-specialized width. The *active* kernel backend
/// ([`mrhs_sparse::active_backend`]) advertises the widths it
/// specializes (monomorphized or SIMD-tiled); an off-grid width (say 5)
/// falls onto generic fallback loops whose per-iteration cost dwarfs
/// the Eq. 8 amortization it was meant to buy. A deployment sets
/// [`BatchPolicy::max_batch`] from it once; that width serves SPD and
/// General tenants alike.
pub fn model_batch_width(
    gspmv: &GspmvModel,
    counts: SolveCounts,
    cap: usize,
) -> usize {
    let model = MrhsModel { gspmv: *gspmv, counts };
    let m_opt = model.m_optimal(cap.max(1));
    let target = match gspmv.switch_point() {
        Some(ms) => m_opt.min(ms).max(1),
        None => m_opt.max(1),
    };
    snap_to_specialized(target)
}

/// Largest kernel-specialized width `<= target` (the set always
/// contains 1, so this is total).
fn snap_to_specialized(target: usize) -> usize {
    mrhs_sparse::WIDTH_GRID.into_iter().filter(|&w| w <= target).max().unwrap_or(1)
}

/// Service-wide configuration: a deployment size and a batch policy.
/// Requests without a `tol` get [`SolveConfig::default`]'s, every
/// batch and solo retry caps at its `max_iter`, and a column that fails
/// inside a batch is always retried alone before its request fails.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue. One worker already realizes
    /// the Eq. 8 coalescing win (the matrix is streamed once per block
    /// iteration for every batched column); more workers add
    /// concurrency across *different* matrices.
    pub workers: usize,
    /// Queue bound, linger, and the target batch width (`m_s`).
    pub policy: BatchPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { workers: 1, policy: BatchPolicy::default() }
    }
}

/// Monotonic counters describing service activity so far: the cells
/// [`SolveService::metrics`] exports as `service/{field}`, except that
/// `rejected` and `expired` read [`DropStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceStats {
    /// Requests accepted into the queue.
    pub accepted: u64,
    /// Requests rejected with [`SubmitError::QueueFull`] (the batcher's
    /// [`DropStats::backpressure`]).
    pub rejected: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Accepted requests that did not complete: solves that did not
    /// converge ([`SolveError::DidNotConverge`]), queue expiries
    /// ([`SolveError::DeadlineExceeded`]) and requests swept by an
    /// unregister ([`SolveError::MatrixUnregistered`]).
    pub failed: u64,
    /// Requests expired in queue ([`SolveError::DeadlineExceeded`]; the
    /// batcher's [`DropStats::deadline_missed`]).
    pub expired: u64,
    /// Coalesced block solves dispatched.
    pub batches: u64,
    /// Total columns across all dispatched batches.
    pub coalesced_columns: u64,
    /// Batches dispatched at exactly the target width.
    pub full_batches: u64,
    /// Columns that went through the solo-retry path.
    pub solo_retries: u64,
    /// Batches lifted off this shard's queue by a sibling's idle worker
    /// (fleet work stealing; always 0 single-host).
    pub stolen_batches: u64,
    /// The configured target width (for efficiency calculations).
    pub target_width: u64,
}

impl ServiceStats {
    /// Achieved width / target width, averaged over batches — 1.0 when
    /// every solve runs at the model-optimal width.
    pub fn coalescing_efficiency(&self) -> f64 {
        if self.batches == 0 || self.target_width == 0 {
            return 0.0;
        }
        self.coalesced_columns as f64 / (self.batches * self.target_width) as f64
    }
}

/// An installed work-stealing probe: returns `true` when it stole (and
/// solved) a batch from a sibling shard, `false` when no sibling had a
/// batch ready. Installed once by the fleet layer via
/// [`SolveService::set_steal_hook`]; idle workers call it between
/// queue polls.
pub(crate) type StealHook = Arc<dyn Fn() -> bool + Send + Sync>;

struct Inner {
    registry: MatrixRegistry,
    cfg: ServiceConfig,
    state: Mutex<Batcher>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// Fleet work-stealing probe; unset single-host. Set once, read
    /// without a lock.
    steal: OnceLock<StealHook>,
    /// EWMA of batch solve time, nanoseconds (retry-after and
    /// deadline-pressure estimates).
    ewma_solve_ns: AtomicU64,
    /// This service's registry; the counters below are its cells.
    metrics: Arc<Registry>,
    accepted: Counter,
    rejected: Counter,
    completed: Counter,
    failed: Counter,
    batches: Counter,
    coalesced_columns: Counter,
    full_batches: Counter,
    solo_retries: Counter,
    stolen_batches: Counter,
    /// `dispatch/{cause}`, in [`DispatchCause::code`] order.
    dispatch: [Counter; 5],
}

impl Inner {
    /// The raw solve-time EWMA the batcher's deadline trigger reads.
    fn solve_est(&self) -> Duration {
        Duration::from_nanos(self.ewma_solve_ns.load(Ordering::Relaxed))
    }
}

/// A running solve service. Dropping it shuts down and joins the
/// workers (draining the queue first).
pub struct SolveService {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl SolveService {
    /// Starts worker threads over the given registry; the service's
    /// metrics attach to the global registry as `service`.
    pub fn start(registry: MatrixRegistry, cfg: ServiceConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        let metrics = Arc::new(Registry::new());
        telemetry::global().attach("service", Arc::clone(&metrics));
        let c = |name| metrics.counter(name);
        let inner = Arc::new(Inner {
            registry,
            state: Mutex::new(Batcher::new(cfg.policy, &metrics)),
            cfg,
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steal: OnceLock::new(),
            ewma_solve_ns: AtomicU64::new(0),
            accepted: c("accepted"),
            rejected: c("rejected"),
            completed: c("completed"),
            failed: c("failed"),
            batches: c("batches"),
            coalesced_columns: c("coalesced_columns"),
            full_batches: c("full_batches"),
            solo_retries: c("solo_retries"),
            stolen_batches: c("stolen_batches"),
            dispatch: DispatchCause::ALL.map(|cause| {
                metrics.counter(&format!("dispatch/{}", cause.as_str()))
            }),
            metrics,
        });
        let workers = (0..inner.cfg.workers)
            .map(|k| {
                let inner = inner.clone();
                thread::Builder::new()
                    .name(format!("mrhs-service-{k}"))
                    .spawn(move || worker_main(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        SolveService { inner, workers: Mutex::new(workers) }
    }

    /// The registry this service serves from (register matrices here).
    pub fn registry(&self) -> &MatrixRegistry {
        &self.inner.registry
    }

    /// Submits a (possibly multi-column) solve request.
    pub fn submit(
        &self,
        handle: MatrixHandle,
        rhs: MultiVec,
        opts: RequestOptions,
    ) -> Result<Ticket, SubmitError> {
        let inner = &*self.inner;
        let matrix =
            inner.registry.get(handle).ok_or(SubmitError::UnknownMatrix)?;
        if rhs.n() != matrix.dim() {
            return Err(SubmitError::ShapeMismatch {
                expected: matrix.dim(),
                got: rhs.n(),
            });
        }
        // Requests no batch could ever serve: refused here rather than
        // left to panic a worker, spin a retry loop on `QueueFull`, or
        // run a batch to the iteration cap.
        let tol = opts.tol.unwrap_or(SolveConfig::default().tol);
        let reason = if rhs.m() == 0 {
            Some("no right-hand-side columns")
        } else if rhs.m() > inner.cfg.policy.queue_capacity {
            Some("more columns than the queue capacity")
        } else if !(tol.is_finite() && tol > 0.0) {
            Some("tolerance must be finite and positive")
        } else {
            None
        };
        if let Some(reason) = reason {
            return Err(SubmitError::InvalidRequest { reason });
        }
        let now = Instant::now();
        let completion = Arc::new(Completion::new());
        // Mint the request's trace identity at ingress. The root span
        // is emitted retroactively when the request completes (or
        // expires), so the ingress timestamp rides along.
        let req_trace = trace::trace_enabled().then(|| RequestTrace {
            trace: trace::mint_trace(),
            root: trace::mint_span(),
            ingress_ns: trace::now_ns(),
        });
        let pending = Pending {
            matrix,
            handle,
            rhs,
            tol,
            enqueued: now,
            deadline: opts.deadline.map(|d| now + d),
            completion: completion.clone(),
            trace: req_trace,
        };
        {
            let mut st = inner.state.lock().unwrap();
            if inner.shutdown.load(Ordering::SeqCst) {
                st.shutdown.add(1);
                return Err(SubmitError::ShuttingDown);
            }
            let (cols, reqs) = (st.columns() as u64, st.len() as u64);
            inner.metrics.histogram_record_ns("queue_depth_cols", cols);
            inner.metrics.histogram_record_ns("queue_depth_reqs", reqs);
            if st.try_push(pending).is_err() {
                st.backpressure.add(1);
                inner.rejected.add(1);
                return Err(SubmitError::QueueFull {
                    retry_after: self.solve_estimate(),
                });
            }
        }
        inner.accepted.add(1);
        inner.cv.notify_all();
        Ok(Ticket { shared: completion })
    }

    /// Requests dropped without being solved, by cause (queue expiry,
    /// backpressure rejection, shutdown refusal).
    pub fn drop_stats(&self) -> DropStats {
        self.inner.state.lock().unwrap().drop_stats()
    }

    /// Convenience: submit one right-hand side with default options.
    pub fn submit_one(
        &self,
        handle: MatrixHandle,
        rhs: &[f64],
    ) -> Result<Ticket, SubmitError> {
        let mut mv = MultiVec::zeros(rhs.len(), 1);
        mv.set_column(0, rhs);
        self.submit(handle, mv, RequestOptions::default())
    }

    /// Current activity counters.
    pub fn stats(&self) -> ServiceStats {
        let i = &*self.inner;
        let drops = self.drop_stats();
        ServiceStats {
            accepted: i.accepted.get(),
            rejected: drops.backpressure,
            completed: i.completed.get(),
            failed: i.failed.get(),
            expired: drops.deadline_missed,
            batches: i.batches.get(),
            coalesced_columns: i.coalesced_columns.get(),
            full_batches: i.full_batches.get(),
            solo_retries: i.solo_retries.get(),
            stolen_batches: i.stolen_batches.get(),
            target_width: i.cfg.policy.max_batch as u64,
        }
    }

    /// This service's own registry: its `service/…` families unprefixed
    /// (`accepted`, `solve`, …), the cells [`SolveService::stats`]
    /// reads. Bracket one service with two of its snapshots.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.inner.metrics
    }

    /// The running batch solve-time estimate (the `retry_after` hint).
    pub fn solve_estimate(&self) -> Duration {
        let ns = self.inner.ewma_solve_ns.load(Ordering::Relaxed);
        Duration::from_nanos(ns).max(Duration::from_micros(100))
    }

    /// Queued columns right now (the fleet router's load probe).
    pub fn queued_columns(&self) -> usize {
        self.inner.state.lock().unwrap().columns()
    }

    /// Queued columns waiting for `h` — the fleet router's "is a batch
    /// already forming here?" probe.
    pub fn pending_columns_for(&self, h: MatrixHandle) -> usize {
        self.inner.state.lock().unwrap().pending_columns_for(h)
    }

    /// Unregisters a handle. Later submits fail with
    /// [`SubmitError::UnknownMatrix`]; requests still queued fail
    /// promptly with [`SolveError::MatrixUnregistered`] (the workers
    /// are woken to sweep them); batches already dispatched run to
    /// completion. Returns whether the handle was registered.
    pub fn unregister(&self, h: MatrixHandle) -> bool {
        let was = self.inner.registry.unregister(h);
        if was {
            self.inner.cv.notify_all();
        }
        was
    }

    /// Lifts the batch this shard's own worker would dispatch now, if
    /// any — the victim half of fleet work stealing. Deadline-expired
    /// and revoked requests swept along the way are completed here,
    /// exactly as this shard's own worker would complete them.
    pub(crate) fn try_steal(&self) -> Option<Vec<Pending>> {
        let mut expired = Vec::new();
        let mut revoked = Vec::new();
        let batch = self.inner.state.lock().unwrap().steal_batch(
            Instant::now(),
            self.inner.solve_est(),
            &mut expired,
            &mut revoked,
        );
        complete_dropped(&self.inner, &mut expired, &mut revoked);
        batch
    }

    /// Runs a batch stolen from this shard on the caller's thread. The
    /// batch still uses this shard's solver configuration, counters,
    /// and completions, so per-column acceptance and solo-retry
    /// semantics are identical to a locally dispatched batch.
    pub(crate) fn run_stolen(&self, batch: Vec<Pending>) {
        self.inner.stolen_batches.add(1);
        solve_batch(&self.inner, batch, DispatchCause::Stolen);
    }

    /// Installs the fleet work-stealing probe this shard's idle workers
    /// call between queue polls. Set once, when the fleet starts.
    pub(crate) fn set_steal_hook(&self, hook: StealHook) {
        assert!(self.inner.steal.set(hook).is_ok(), "steal hook set twice");
        self.inner.cv.notify_all();
    }

    /// Stops accepting requests, drains the queue, and joins the
    /// workers. Propagates worker panics (a lost/duplicated completion
    /// panics the worker). Idempotent.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        for h in handles {
            h.join().expect("service worker panicked");
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.cv.notify_all();
        let handles: Vec<_> = self.workers.lock().unwrap().drain(..).collect();
        // Swallow panics here: `shutdown()` is the propagating path,
        // and a second panic while unwinding would abort.
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_main(inner: &Inner) {
    let mut expired: Vec<Pending> = Vec::new();
    let mut revoked: Vec<Pending> = Vec::new();
    loop {
        let batch = {
            let mut st = inner.state.lock().unwrap();
            // Parked until the loop ends: a ready batch is ours to
            // dispatch, not a thief's.
            st.parked += 1;
            // Once an empty queue has made us wait a full idle tick,
            // release the lock and probe the siblings instead of
            // waiting again (fleet work stealing).
            let mut waited_idle = false;
            let picked = loop {
                let flush = inner.shutdown.load(Ordering::SeqCst);
                let (now, est) = (Instant::now(), inner.solve_est());
                match st.poll(now, flush, est, &mut expired, &mut revoked) {
                    Poll::Batch(b, cause) => break Some((b, cause)),
                    Poll::Empty => {
                        if !expired.is_empty() || !revoked.is_empty() {
                            break None;
                        }
                        if flush {
                            st.parked -= 1;
                            return;
                        }
                        let stealing = inner.steal.get().is_some();
                        if stealing && waited_idle {
                            break None;
                        }
                        // Shorter idle tick when stealing is on: an
                        // idle shard should notice a hot sibling fast.
                        let tick =
                            Duration::from_millis(if stealing { 5 } else { 100 });
                        let (g, _) = inner.cv.wait_timeout(st, tick).unwrap();
                        st = g;
                        waited_idle = true;
                    }
                    Poll::Wait(until) => {
                        if !expired.is_empty() || !revoked.is_empty() {
                            break None;
                        }
                        let dur = until
                            .saturating_duration_since(Instant::now())
                            .min(Duration::from_millis(100))
                            .max(Duration::from_micros(50));
                        let (g, _) = inner.cv.wait_timeout(st, dur).unwrap();
                        st = g;
                    }
                }
            };
            st.parked -= 1;
            picked
        };
        complete_dropped(inner, &mut expired, &mut revoked);
        match batch {
            Some((batch, cause)) => solve_batch(inner, batch, cause),
            None => {
                // Idle with nothing dropped locally: probe the fleet's
                // siblings for a batch ready to dispatch.
                if let Some(hook) = inner.steal.get() {
                    hook();
                }
            }
        }
    }
}

/// Completes requests the batcher dropped from the queue without
/// solving: deadline expiries fail with [`SolveError::DeadlineExceeded`]
/// and revocation sweeps fail with [`SolveError::MatrixUnregistered`].
/// Runs outside the queue lock — completions wake client threads.
fn complete_dropped(
    inner: &Inner,
    expired: &mut Vec<Pending>,
    revoked: &mut Vec<Pending>,
) {
    for p in expired.drain(..) {
        let waited = p.enqueued.elapsed();
        // The batcher already counted the expiry; the failure
        // itself counts where every other one does.
        inner.failed.add(1);
        if let Some(rt) = p.trace {
            // Close the request's trace as an expired root span
            // (a = waited ns, b = 1 marks the deadline miss), then
            // dump the flight ring — an expiry is exactly the event
            // the recorder exists for.
            let end = trace::now_ns();
            trace::emit_span_at(
                rt.trace,
                rt.root,
                trace::SpanId(0),
                "service/request",
                rt.ingress_ns,
                end.saturating_sub(rt.ingress_ns),
                waited.as_nanos().min(u64::MAX as u128) as u64,
                1,
            );
            flight::dump_now("deadline_miss");
        }
        p.completion.complete(Err(SolveError::DeadlineExceeded { waited }));
    }
    for p in revoked.drain(..) {
        inner.failed.add(1);
        if let Some(rt) = p.trace {
            // Root span with the error flag set; the batcher already
            // counted `drop/unregistered`. No flight dump — an
            // unregister is an administrative action, not an anomaly.
            let end = trace::now_ns();
            trace::emit_span_at(
                rt.trace,
                rt.root,
                trace::SpanId(0),
                "service/request",
                rt.ingress_ns,
                end.saturating_sub(rt.ingress_ns),
                0,
                1,
            );
        }
        p.completion.complete(Err(SolveError::MatrixUnregistered));
    }
}

/// Runs one coalesced block solve and scatters results back to the
/// per-request completions.
fn solve_batch(inner: &Inner, batch: Vec<Pending>, cause: DispatchCause) {
    let dispatched = Instant::now();
    let dispatched_ns = trace::epoch_ns(dispatched);
    let matrix = batch[0].matrix.clone();
    let n = matrix.dim();
    let width: usize = batch.iter().map(Pending::width).sum();

    // The batch gets its own trace rooted here; while the guard lives,
    // this worker thread carries the batch context, so the solver's
    // per-iteration points and the kernel/engine spans below nest under
    // it automatically. Each member request's trace links to the batch
    // trace (`joined_batch`), and tree assembly grafts the shared batch
    // tree under every member.
    let batch_span = trace::root_span("service/batch");
    if let Some(bs) = &batch_span {
        for (k, p) in batch.iter().enumerate() {
            if let Some(rt) = p.trace {
                // On the request trace: the queue-wait interval and the
                // link into the batch trace. b packs the batcher's
                // decision: cause code | width<<8 | member index<<32.
                trace::emit_span_at(
                    rt.trace,
                    trace::mint_span(),
                    rt.root,
                    "service/queue_wait",
                    rt.ingress_ns,
                    dispatched_ns.saturating_sub(rt.ingress_ns),
                    0,
                    0,
                );
                trace::link(
                    rt.trace,
                    rt.root,
                    "joined_batch",
                    bs.trace_id().0,
                    cause.code() | ((width as u64) << 8) | ((k as u64) << 32),
                );
            }
        }
    }

    let metrics = &inner.metrics;
    inner.dispatch[cause.code() as usize].add(1);
    inner.batches.add(1);
    inner.coalesced_columns.add(width as u64);
    if width == inner.cfg.policy.max_batch {
        inner.full_batches.add(1);
    }
    metrics.counter_add(&format!("batch_width/{width:02}"), 1);
    metrics.histogram_record_ns("batch_width", width as u64);

    // Gather pending right-hand sides into one MultiVec.
    let mut b = MultiVec::zeros(n, width);
    let mut tols = Vec::with_capacity(width);
    let mut offsets = Vec::with_capacity(batch.len());
    let mut col = 0usize;
    for p in &batch {
        offsets.push(col);
        let cols: Vec<usize> = (col..col + p.width()).collect();
        b.scatter_columns(&cols, &p.rhs);
        tols.extend(std::iter::repeat_n(p.tol, p.width()));
        col += p.width();
        metrics.record_span("queue_wait", dispatched.duration_since(p.enqueued));
    }

    // The batcher never mixes handles in a batch, so the operator class
    // is uniform here.
    let (class, op) = (matrix.class(), matrix.operator());
    let min_tol = tols.iter().cloned().fold(f64::INFINITY, f64::min);
    let opts = BlockSolveOptions {
        solve: SolveConfig { tol: min_tol, ..SolveConfig::default() },
        column_tols: Some(tols.clone()),
    };
    let mut x = MultiVec::zeros(n, width);
    let res = {
        let _g = metrics.span("solve");
        let _t = trace::child_span("service/solve");
        solve(class, op, &b, &mut x, &opts)
    };
    if let Some(bd) = res.breakdown {
        match class {
            OperatorClass::Spd => {
                metrics.counter_add("block_cg_breakdown", 1);
                flight::dump_now("block_cg_breakdown");
            }
            OperatorClass::General => {
                metrics
                    .counter_add(&format!("bicgstab_breakdown/{:?}", bd.kind), 1);
                flight::dump_now("bicgstab_breakdown");
            }
        }
    }

    // Per-column acceptance: the solution and final residual must be
    // finite (a NaN right-hand side breaks the block solve down before
    // any column has moved, a faulty operator can still poison X) and
    // the residual either under this column's threshold or marked
    // converged during the iteration.
    let mut col_finite = vec![true; width];
    for row in x.as_slice().chunks_exact(width) {
        for (finite, v) in col_finite.iter_mut().zip(row) {
            *finite &= v.is_finite();
        }
    }
    let b_norms = b.norms();
    let threshold = |j: usize| tols[j] * b_norms[j].max(f64::MIN_POSITIVE);
    let mut ok: Vec<bool> = (0..width)
        .map(|j| {
            let rn = res.residual_norms[j];
            col_finite[j]
                && rn.is_finite()
                && (rn <= threshold(j) || res.column_converged_at[j].is_some())
        })
        .collect();

    // Failure isolation: retry failed columns solo so one pathological
    // RHS cannot poison its batchmates. A retry is the batch's own call
    // at width 1.
    let mut solo_retried = vec![false; width];
    let mut iters = res.column_iterations;
    let mut rel_res: Vec<f64> = (0..width)
        .map(|j| res.residual_norms[j] / b_norms[j].max(f64::MIN_POSITIVE))
        .collect();
    if ok.iter().any(|&o| !o) {
        flight::dump_now("solo_retry");
        let mut bj = MultiVec::zeros(n, 1);
        let mut xj = MultiVec::zeros(n, 1);
        for j in 0..width {
            if ok[j] {
                continue;
            }
            solo_retried[j] = true;
            inner.solo_retries.add(1);
            b.gather_columns_into(&[j], &mut bj);
            xj.fill(0.0);
            let opts = BlockSolveOptions::from(SolveConfig {
                tol: tols[j],
                ..SolveConfig::default()
            });
            let r = {
                let _g = metrics.span("solo_retry");
                solve(class, op, &bj, &mut xj, &opts)
            };
            iters[j] = r.iterations;
            rel_res[j] = r.residual_norms[0] / b_norms[j].max(f64::MIN_POSITIVE);
            if r.converged {
                x.set_column(j, xj.as_slice());
                ok[j] = true;
            }
        }
    }

    let solve_time = dispatched.elapsed();
    update_ewma(&inner.ewma_solve_ns, solve_time);
    metrics.record_span("solve_total", solve_time);

    let finished = Instant::now();
    let finished_ns = trace::epoch_ns(finished);
    for (p, &off) in batch.iter().zip(&offsets) {
        let w = p.width();
        let cols: Vec<usize> = (off..off + w).collect();
        let all_ok = cols.iter().all(|&j| ok[j]);
        let retried = cols.iter().any(|&j| solo_retried[j]);
        if let Some(rt) = p.trace {
            // On the request trace: the solve interval (shared with the
            // batch, but each member pays it end to end) and the root
            // span closing out the request. queue_wait + solve children
            // tile the root exactly in trace time, mirroring the
            // SolveOutput durations.
            trace::emit_span_at(
                rt.trace,
                trace::mint_span(),
                rt.root,
                "service/solve",
                dispatched_ns,
                finished_ns.saturating_sub(dispatched_ns),
                width as u64,
                0,
            );
            trace::emit_span_at(
                rt.trace,
                rt.root,
                trace::SpanId(0),
                "service/request",
                rt.ingress_ns,
                finished_ns.saturating_sub(rt.ingress_ns),
                w as u64,
                u64::from(!all_ok),
            );
        }
        if all_ok {
            inner.completed.add(1);
            p.completion.complete(Ok(SolveOutput {
                solution: x.gather_columns(&cols),
                iterations: cols.iter().map(|&j| iters[j]).max().unwrap(),
                batch_width: width,
                solo_retried: retried,
                queue_wait: dispatched.duration_since(p.enqueued),
                solve_time,
                latency: finished.duration_since(p.enqueued),
                trace_id: p.trace.map(|rt| rt.trace.0),
            }));
        } else {
            inner.failed.add(1);
            let worst = cols.iter().map(|&j| rel_res[j]).fold(0.0f64, |a, r| {
                if r.is_nan() {
                    f64::NAN
                } else {
                    a.max(r)
                }
            });
            let its = cols.iter().map(|&j| iters[j]).max().unwrap();
            p.completion.complete(Err(SolveError::DidNotConverge {
                relative_residual: worst,
                iterations: its,
            }));
        }
    }
}

/// The one solver call of a batch and of each of its solo retries, on
/// the operator class fixed at registration: block CG for SPD tenants,
/// block BiCGStab for general (nonsymmetric) ones.
fn solve(
    class: OperatorClass,
    op: &dyn LinearOperator,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockSolveOptions,
) -> BlockSolveResult {
    match class {
        OperatorClass::Spd => block_cg_with_options(op, b, x, opts),
        OperatorClass::General => block_bicgstab_with_options(op, b, x, opts),
    }
}

fn update_ewma(cell: &AtomicU64, sample: Duration) {
    let s = sample.as_nanos().min(u128::from(u64::MAX)) as u64;
    let old = cell.load(Ordering::Relaxed);
    let new = if old == 0 { s } else { old / 2 + s / 2 };
    cell.store(new, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::snap_to_specialized;
    use mrhs_sparse::WIDTH_GRID;

    #[test]
    fn snapped_widths_are_grid_members() {
        for target in 1..=48 {
            let w = snap_to_specialized(target);
            assert!(WIDTH_GRID.contains(&w), "{target} -> {w}");
            assert!(w <= target);
            // The largest such member (so a target on the grid is kept).
            assert!(WIDTH_GRID.iter().all(|&g| g > target || g <= w));
        }
        assert_eq!(snap_to_specialized(0), 1);
    }
}
