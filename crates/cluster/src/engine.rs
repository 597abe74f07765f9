//! Persistent distributed execution engine.
//!
//! An iterative solver multiplies hundreds of times, so node threads
//! and channels cannot be rebuilt per call. [`DistEngine`] is the one
//! distributed executor:
//!
//! * **Persistent node workers.** One thread per node, spawned once at
//!   construction, fed per-multiply jobs over channels and joined on
//!   drop. Halo mailboxes persist across multiplies; because the driver
//!   collects every node's result before issuing the next job, each
//!   round's messages are fully drained within that round and rounds
//!   cannot interleave.
//! * **Comm/compute overlap.** Each multiply follows the paper's
//!   §IV-A2 discipline, the same structure [`crate::sim`] prices:
//!   post halo sends, multiply the *local* sub-matrix (owned columns)
//!   while the halo is in flight, then drain the mailbox and apply the
//!   *remote* sub-matrix. The analytic per-node time is
//!   `max(t_comm, t_local) + t_remote`.
//! * **Phase timings.** Every multiply reports per-node
//!   [`PhaseTimings`] — `comm_wait` (time blocked on the mailbox after
//!   the local multiply finished), `local`, and `remote` — so measured
//!   overlap can be compared against [`crate::sim::ClusterGspmvModel::
//!   node_time`] for the same matrix and partition.
//!
//! The engine implements [`LinearOperator`] over the *permuted* global
//! ordering (see [`DistributedMatrix::permutation`]), so
//! `mrhs_solvers::block_cg` runs on it unchanged — a functional
//! distributed block solve.

use crate::distmat::{DistributedMatrix, PowerContext};
use crate::exchange::{
    apply_remote, pack_rows, scatter_message, CommStats, HaloMessage,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mrhs_solvers::operator::LinearOperator;
use mrhs_sparse::{active_backend, gspmv_serial, MultiVec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Wall-clock phase breakdown of one node's share of one multiply, in
/// seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Time spent blocked on the halo mailbox (measured around the
    /// blocking receives only, after the local multiply completed —
    /// transfer time hidden behind the local multiply does not count).
    pub comm_wait: f64,
    /// Local sub-matrix multiply (owned columns; overlaps transfers).
    pub local: f64,
    /// Remote sub-matrix multiply, including halo unpacking.
    pub remote: f64,
}

impl PhaseTimings {
    /// Total measured time of this node's share.
    pub fn total(&self) -> f64 {
        self.comm_wait + self.local + self.remote
    }

    /// Fraction of this node's activity that is communication wait —
    /// the measured counterpart of
    /// [`crate::sim::NodeTime::comm_fraction`].
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0.0 {
            0.0
        } else {
            self.comm_wait / t
        }
    }
}

/// Per-multiply engine statistics: phase timings and communication
/// volume, both indexed by node.
#[derive(Clone, Debug, Default)]
pub struct EngineStats {
    /// Per-node phase breakdown.
    pub timings: Vec<PhaseTimings>,
    /// Per-node received bytes/messages.
    pub comm: CommStats,
}

impl EngineStats {
    /// The slowest node's timings (cluster time is the slowest node —
    /// GSPMV synchronizes at the next reduction).
    pub fn slowest(&self) -> PhaseTimings {
        self.timings
            .iter()
            .copied()
            .max_by(|a, b| a.total().total_cmp(&b.total()))
            .unwrap_or_default()
    }
}

/// Mirrors one multiply's stats into the telemetry registry: per-node
/// `engine/node{q}/{comm_wait,local,remote}` child spans, a parent
/// `engine/node{q}` span recorded as their exact sum (so span-consistency
/// checks close to within rounding), and halo traffic counters.
fn record_engine_telemetry(stats: &EngineStats) {
    if !mrhs_telemetry::enabled() {
        return;
    }
    mrhs_telemetry::counter_add("engine/multiplies", 1);
    for (q, t) in stats.timings.iter().enumerate() {
        mrhs_telemetry::record_span_secs(&format!("engine/node{q}"), t.total());
        mrhs_telemetry::record_span_secs(
            &format!("engine/node{q}/comm_wait"),
            t.comm_wait,
        );
        mrhs_telemetry::record_span_secs(&format!("engine/node{q}/local"), t.local);
        mrhs_telemetry::record_span_secs(
            &format!("engine/node{q}/remote"),
            t.remote,
        );
        mrhs_telemetry::counter_add(
            &format!("engine/node{q}/halo_bytes"),
            stats.comm.recv_bytes[q] as u64,
        );
        mrhs_telemetry::counter_add(
            &format!("engine/node{q}/halo_messages"),
            stats.comm.recv_messages[q] as u64,
        );
    }
    trace_engine_spans(stats);
}

/// Emits the per-node phase spans into the caller's trace context (this
/// runs on the thread that invoked the multiply, after the node threads
/// joined). The worker threads measured the durations themselves, so
/// each span is back-dated from "now" — the spans nest under the
/// enclosing `kernel/...` span and carry the true durations even though
/// their wall-clock placement is approximate.
fn trace_engine_spans(stats: &EngineStats) {
    use mrhs_telemetry::trace;
    if !trace::trace_enabled() {
        return;
    }
    let Some((trace_id, parent)) = trace::current() else {
        return;
    };
    let end = trace::now_ns();
    for (q, t) in stats.timings.iter().enumerate() {
        let node_span = trace::mint_span();
        let node_ns = (t.total().max(0.0) * 1e9) as u64;
        trace::emit_span_at(
            trace_id,
            node_span,
            parent,
            &format!("engine/node{q}"),
            end.saturating_sub(node_ns),
            node_ns,
            stats.comm.recv_bytes[q] as u64,
            stats.comm.recv_messages[q] as u64,
        );
        for (phase, secs) in
            [("comm_wait", t.comm_wait), ("local", t.local), ("remote", t.remote)]
        {
            let ns = (secs.max(0.0) * 1e9) as u64;
            trace::emit_span_at(
                trace_id,
                trace::mint_span(),
                node_span,
                &format!("engine/node{q}/{phase}"),
                end.saturating_sub(ns),
                ns,
                0,
                0,
            );
        }
    }
}

enum Job {
    Multiply {
        x_own: MultiVec,
    },
    /// Fused `k`-step power multiply: one widened exchange fetches the
    /// whole dependency frontier, then all `k` levels are computed
    /// locally on the extended matrix.
    MultiplyPowers {
        x_own: MultiVec,
        ctx: Arc<PowerContext>,
    },
    /// One fused group of the shifted Chebyshev three-term recurrence:
    /// `ctx.k` levels computed locally after one widened exchange.
    /// `prev_own` carries `u_{p0−1}` for groups after the first (the
    /// recurrence needs both entry levels' frontiers).
    MultiplyChebyshev {
        x_own: MultiVec,
        prev_own: Option<MultiVec>,
        mid: f64,
        half: f64,
        ctx: Arc<PowerContext>,
    },
    Shutdown,
}

struct NodeResult {
    node: usize,
    /// One output block per power level (a plain multiply returns one).
    ys: Vec<MultiVec>,
    timings: PhaseTimings,
    bytes: usize,
    messages: usize,
}

/// Long-lived distributed executor: one worker thread per node plus a
/// per-multiply rendezvous. See the module docs for the execution
/// structure.
pub struct DistEngine {
    dm: Arc<DistributedMatrix>,
    job_tx: Vec<Sender<Job>>,
    result_rx: Receiver<NodeResult>,
    handles: Vec<JoinHandle<()>>,
    last_stats: Mutex<EngineStats>,
    /// Serializes multiplies: concurrent callers would interleave
    /// rendezvous rounds on the shared mailboxes.
    call_lock: Mutex<()>,
    /// Fused-exchange contexts, built once per distinct `k` and shared
    /// with the workers ([`DistributedMatrix::power_context`] walks the
    /// whole partition graph — far too expensive per multiply).
    power_ctxs: Mutex<HashMap<usize, Arc<PowerContext>>>,
}

impl DistEngine {
    /// Spawns the node workers for `dm`.
    pub fn new(dm: DistributedMatrix) -> Self {
        let dm = Arc::new(dm);
        let p = dm.n_nodes();
        let (result_tx, result_rx) = unbounded::<NodeResult>();
        let halo: Vec<(Sender<HaloMessage>, Receiver<HaloMessage>)> =
            (0..p).map(|_| unbounded()).collect();
        let halo_tx: Vec<Sender<HaloMessage>> =
            halo.iter().map(|(s, _)| s.clone()).collect();

        let mut job_tx = Vec::with_capacity(p);
        let mut handles = Vec::with_capacity(p);
        for (q, (_, halo_rx)) in halo.into_iter().enumerate() {
            let (jtx, jrx) = unbounded::<Job>();
            job_tx.push(jtx);
            let dm = Arc::clone(&dm);
            let halo_tx = halo_tx.clone();
            let result_tx = result_tx.clone();
            handles.push(std::thread::spawn(move || {
                node_main(&dm, q, jrx, halo_rx, halo_tx, result_tx)
            }));
        }

        DistEngine {
            dm,
            job_tx,
            result_rx,
            handles,
            last_stats: Mutex::new(EngineStats::default()),
            call_lock: Mutex::new(()),
            power_ctxs: Mutex::new(HashMap::new()),
        }
    }

    /// The distributed matrix this engine executes.
    pub fn matrix(&self) -> &DistributedMatrix {
        &self.dm
    }

    /// Scalar dimension of the operator.
    pub fn scalar_dim(&self) -> usize {
        self.dm.nb_rows() * 3
    }

    /// One distributed multiply `Y = A·X` (permuted global ordering),
    /// returning the per-node phase timings and communication stats.
    pub fn multiply_into(&self, x: &MultiVec, y: &mut MultiVec) -> EngineStats {
        let _guard = self.call_lock.lock().unwrap();
        let m = x.m();
        assert_eq!(x.n(), self.scalar_dim());
        assert_eq!(y.shape(), (self.scalar_dim(), m));
        let p = self.dm.n_nodes();

        // Rendezvous: hand each worker its owned slice of X …
        for (q, node) in self.dm.nodes().iter().enumerate() {
            let x_own = x.gather_rows(node.rows.start * 3..node.rows.end * 3);
            self.job_tx[q]
                .send(Job::Multiply { x_own })
                .expect("engine worker alive");
        }

        // … and collect every node's result before returning (so the
        // next multiply cannot interleave with this round's messages).
        let mut stats = EngineStats {
            timings: vec![PhaseTimings::default(); p],
            comm: CommStats { recv_bytes: vec![0; p], recv_messages: vec![0; p] },
        };
        for _ in 0..p {
            let res = self.result_rx.recv().expect("engine worker result");
            let base = self.dm.nodes()[res.node].rows.start * 3;
            let part = &res.ys[0];
            for r in 0..part.n() {
                y.row_mut(base + r).copy_from_slice(part.row(r));
            }
            stats.timings[res.node] = res.timings;
            stats.comm.recv_bytes[res.node] = res.bytes;
            stats.comm.recv_messages[res.node] = res.messages;
        }
        record_engine_telemetry(&stats);
        *self.last_stats.lock().unwrap() = stats.clone();
        stats
    }

    /// Convenience wrapper allocating the result.
    pub fn multiply(&self, x: &MultiVec) -> (MultiVec, EngineStats) {
        let mut y = MultiVec::zeros(self.scalar_dim(), x.m());
        let stats = self.multiply_into(x, &mut y);
        (y, stats)
    }

    /// The fused-exchange context for depth `k`, built on first use.
    fn power_context(&self, k: usize) -> Arc<PowerContext> {
        let mut cache = self.power_ctxs.lock().unwrap();
        Arc::clone(
            cache.entry(k).or_insert_with(|| Arc::new(self.dm.power_context(k))),
        )
    }

    /// Fused distributed matrix powers: `outs[p] = A^{p+1}·X` for
    /// `p = 0..k` (permuted global ordering) with **one** widened halo
    /// exchange for all `k` levels — each node fetches its `k`-level
    /// dependency frontier up front and computes every level locally,
    /// so `k` multiplies pay one message per neighbor instead of `k`.
    pub fn multiply_powers_into(
        &self,
        x: &MultiVec,
        outs: &mut [MultiVec],
    ) -> EngineStats {
        let k = outs.len();
        if k == 0 {
            return EngineStats::default();
        }
        let _guard = self.call_lock.lock().unwrap();
        let m = x.m();
        assert_eq!(x.n(), self.scalar_dim());
        for out in outs.iter() {
            assert_eq!(out.shape(), (self.scalar_dim(), m));
        }
        let p = self.dm.n_nodes();
        let ctx = self.power_context(k);

        for (q, node) in self.dm.nodes().iter().enumerate() {
            let x_own = x.gather_rows(node.rows.start * 3..node.rows.end * 3);
            self.job_tx[q]
                .send(Job::MultiplyPowers { x_own, ctx: Arc::clone(&ctx) })
                .expect("engine worker alive");
        }

        let mut stats = EngineStats {
            timings: vec![PhaseTimings::default(); p],
            comm: CommStats { recv_bytes: vec![0; p], recv_messages: vec![0; p] },
        };
        for _ in 0..p {
            let res = self.result_rx.recv().expect("engine worker result");
            let base = self.dm.nodes()[res.node].rows.start * 3;
            for (out, part) in outs.iter_mut().zip(&res.ys) {
                for r in 0..part.n() {
                    out.row_mut(base + r).copy_from_slice(part.row(r));
                }
            }
            stats.timings[res.node] = res.timings;
            stats.comm.recv_bytes[res.node] = res.bytes;
            stats.comm.recv_messages[res.node] = res.messages;
        }
        if mrhs_telemetry::enabled() {
            mrhs_telemetry::counter_add("engine/power_multiplies", 1);
            mrhs_telemetry::counter_add(
                &format!("engine/powers/k{k}/multiplies"),
                1,
            );
        }
        record_engine_telemetry(&stats);
        *self.last_stats.lock().unwrap() = stats.clone();
        stats
    }

    /// Allocating wrapper around [`DistEngine::multiply_powers_into`].
    pub fn multiply_powers(
        &self,
        x: &MultiVec,
        k: usize,
    ) -> (Vec<MultiVec>, EngineStats) {
        let mut outs: Vec<MultiVec> =
            (0..k).map(|_| MultiVec::zeros(self.scalar_dim(), x.m())).collect();
        let stats = self.multiply_powers_into(x, &mut outs);
        (outs, stats)
    }

    /// Stats of the most recent multiply — how solver-driven
    /// applications ([`LinearOperator::apply_multi`] cannot return
    /// stats) retrieve their phase timings.
    pub fn last_stats(&self) -> EngineStats {
        self.last_stats.lock().unwrap().clone()
    }

    /// Fused distributed Chebyshev evaluation
    /// `y = c_0/2 · z + Σ_{p≥1} c_p · T_p(Ã) z`, `Ã = (A − mid·I)/half`
    /// (permuted global ordering) — the distributed counterpart of
    /// [`mrhs_sparse::spmpv_chebyshev`]. Levels are grouped in runs of
    /// up to [`mrhs_sparse::SPMPV_MAX_DEPTH`]; each group pays **one**
    /// widened halo round for all its levels (two messages per peer
    /// after the first group, because the three-term recurrence also
    /// needs the carried `u_{p0−1}` frontier) instead of one round per
    /// operator application.
    pub fn multiply_chebyshev_into(
        &self,
        z: &MultiVec,
        mid: f64,
        half: f64,
        coeffs: &[f64],
        y: &mut MultiVec,
    ) -> EngineStats {
        assert!(!coeffs.is_empty(), "need at least the constant coefficient");
        let _guard = self.call_lock.lock().unwrap();
        let m = z.m();
        let n = self.scalar_dim();
        assert_eq!(z.shape(), (n, m));
        assert_eq!(y.shape(), (n, m));
        let p = self.dm.n_nodes();
        let mut agg = EngineStats {
            timings: vec![PhaseTimings::default(); p],
            comm: CommStats { recv_bytes: vec![0; p], recv_messages: vec![0; p] },
        };

        let half_c0 = 0.5 * coeffs[0];
        for (yv, zv) in y.as_mut_slice().iter_mut().zip(z.as_slice()) {
            *yv = half_c0 * zv;
        }
        let order = coeffs.len() - 1;
        if order == 0 {
            *self.last_stats.lock().unwrap() = agg.clone();
            return agg;
        }

        let depth = order.min(mrhs_sparse::SPMPV_MAX_DEPTH);
        let mut levels: Vec<MultiVec> =
            (0..depth).map(|_| MultiVec::zeros(n, m)).collect();
        // `u_{p0}` and `u_{p0 − 1}` carried between groups, exactly as
        // in the serial wavefront (`chebyshev_wavefront`).
        let mut prev1 = MultiVec::zeros(n, m);
        let mut prev2 = MultiVec::zeros(n, m);
        let mut p0 = 0usize;
        let mut groups = 0u64;
        while p0 < order {
            let d = depth.min(order - p0);
            let ctx = self.power_context(d);
            {
                let entry1 = if p0 == 0 { z } else { &prev1 };
                let entry0 = if p0 == 0 { None } else { Some(&prev2) };
                for (q, node) in self.dm.nodes().iter().enumerate() {
                    let rows = node.rows.start * 3..node.rows.end * 3;
                    let x_own = entry1.gather_rows(rows.clone());
                    let prev_own = entry0.map(|e| e.gather_rows(rows));
                    self.job_tx[q]
                        .send(Job::MultiplyChebyshev {
                            x_own,
                            prev_own,
                            mid,
                            half,
                            ctx: Arc::clone(&ctx),
                        })
                        .expect("engine worker alive");
                }
            }
            for _ in 0..p {
                let res = self.result_rx.recv().expect("engine worker result");
                let base = self.dm.nodes()[res.node].rows.start * 3;
                for (lvl, part) in levels.iter_mut().zip(&res.ys) {
                    for r in 0..part.n() {
                        lvl.row_mut(base + r).copy_from_slice(part.row(r));
                    }
                }
                let t = &mut agg.timings[res.node];
                t.comm_wait += res.timings.comm_wait;
                t.local += res.timings.local;
                t.remote += res.timings.remote;
                agg.comm.recv_bytes[res.node] += res.bytes;
                agg.comm.recv_messages[res.node] += res.messages;
            }
            // Accumulate this group's levels into the Chebyshev sum.
            for (j, lvl) in levels[..d].iter().enumerate() {
                let c = coeffs[p0 + 1 + j];
                for (yv, uv) in y.as_mut_slice().iter_mut().zip(lvl.as_slice()) {
                    *yv += c * *uv;
                }
            }
            p0 += d;
            groups += 1;
            if p0 < order {
                // Carry the group's top two levels into the next group.
                if d >= 2 {
                    std::mem::swap(&mut prev2, &mut levels[d - 2]);
                } else {
                    std::mem::swap(&mut prev2, &mut prev1);
                }
                std::mem::swap(&mut prev1, &mut levels[d - 1]);
            }
        }
        if mrhs_telemetry::enabled() {
            mrhs_telemetry::counter_add("engine/cheb/applies", 1);
            mrhs_telemetry::counter_add("engine/cheb/groups", groups);
        }
        record_engine_telemetry(&agg);
        *self.last_stats.lock().unwrap() = agg.clone();
        agg
    }
}

impl Drop for DistEngine {
    fn drop(&mut self) {
        for tx in &self.job_tx {
            let _ = tx.send(Job::Shutdown);
        }
        for h in std::mem::take(&mut self.handles) {
            let _ = h.join();
        }
    }
}

impl LinearOperator for DistEngine {
    fn dim(&self) -> usize {
        self.scalar_dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.scalar_dim());
        assert_eq!(y.len(), self.scalar_dim());
        let xm = MultiVec::from_vec(x.to_vec());
        let (ym, _) = self.multiply(&xm);
        y.copy_from_slice(ym.as_slice());
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        self.multiply_into(x, y);
    }

    /// Routes the s-step basis sweep through the fused exchange: one
    /// widened halo round instead of `outs.len()` round trips.
    fn apply_powers(&self, x: &MultiVec, outs: &mut [MultiVec]) {
        self.multiply_powers_into(x, outs);
    }

    /// Routes `solvers::chebyshev::apply_multi` through the fused
    /// distributed recurrence: one widened exchange per coefficient
    /// group instead of one halo round per term.
    fn apply_chebyshev(
        &self,
        z: &MultiVec,
        mid: f64,
        half: f64,
        coeffs: &[f64],
        y: &mut MultiVec,
    ) -> bool {
        self.multiply_chebyshev_into(z, mid, half, coeffs, y);
        true
    }
}

/// Worker loop for node `q`: per-multiply, post sends → local multiply
/// (overlapping the in-flight halo) → drain mailbox → remote multiply.
fn node_main(
    dm: &DistributedMatrix,
    q: usize,
    job_rx: Receiver<Job>,
    halo_rx: Receiver<HaloMessage>,
    halo_tx: Vec<Sender<HaloMessage>>,
    result_tx: Sender<NodeResult>,
) {
    let node = &dm.nodes()[q];
    let own = node.rows.len();
    let plan_in = dm.recv_plan(q);
    loop {
        let res = match job_rx.recv() {
            Ok(Job::Multiply { x_own }) => {
                let m = x_own.m();

                // Post sends first — nonblocking, like MPI_Isend.
                for (dst, rows) in dm.send_plan(q) {
                    let data = pack_rows(node, &x_own, rows);
                    if halo_tx[*dst].send(HaloMessage { from: q, data }).is_err() {
                        return; // engine dropped mid-flight
                    }
                }

                // Local multiply while the halo is in flight.
                let t_local = Instant::now();
                let mut y = MultiVec::zeros(own * 3, m);
                gspmv_serial(&node.a_local, &x_own, &mut y);
                let local = t_local.elapsed().as_secs_f64();

                // Drain the mailbox; only the blocking receive counts
                // as wait.
                let mut x_halo = MultiVec::zeros(node.halo.len() * 3, m);
                let mut comm_wait = 0.0f64;
                let mut bytes = 0usize;
                for _ in 0..plan_in.len() {
                    let t_wait = Instant::now();
                    let msg = match halo_rx.recv() {
                        Ok(msg) => msg,
                        Err(_) => return,
                    };
                    comm_wait += t_wait.elapsed().as_secs_f64();
                    let (_, rows) = plan_in
                        .iter()
                        .find(|(peer, _)| *peer == msg.from)
                        .expect("unexpected sender");
                    bytes += msg.data.as_slice().len() * 8;
                    scatter_message(node, rows, &msg.data, &mut x_halo);
                }

                // Remote multiply once the halo is complete.
                let t_remote = Instant::now();
                let mut scratch = MultiVec::zeros(own * 3, m);
                apply_remote(node, &x_halo, &mut y, &mut scratch);
                let remote = t_remote.elapsed().as_secs_f64();

                NodeResult {
                    node: q,
                    ys: vec![y],
                    timings: PhaseTimings { comm_wait, local, remote },
                    bytes,
                    messages: plan_in.len(),
                }
            }
            Ok(Job::MultiplyPowers { x_own, ctx }) => {
                match node_powers(dm, q, &x_own, &ctx, &halo_rx, &halo_tx) {
                    Some(res) => res,
                    None => return,
                }
            }
            Ok(Job::MultiplyChebyshev { x_own, prev_own, mid, half, ctx }) => {
                match node_chebyshev(
                    dm,
                    q,
                    &x_own,
                    prev_own.as_ref(),
                    mid,
                    half,
                    &ctx,
                    &halo_rx,
                    &halo_tx,
                ) {
                    Some(res) => res,
                    None => return,
                }
            }
            Ok(Job::Shutdown) | Err(_) => return,
        };
        if result_tx.send(res).is_err() {
            return;
        }
    }
}

/// One node's share of a fused `k`-step power multiply: post the
/// *widened* sends (the peer's whole frontier slice), seed the extended
/// operand with the owned values, drain the one-shot exchange, then run
/// all `k` levels on the extended matrix — level `p` over the shrinking
/// row range `0..prefix[k−p]`, through the active
/// [`mrhs_sparse::Backend::gspmv_rows`] row kernel. Returns `None` when
/// the engine dropped mid-flight.
fn node_powers(
    dm: &DistributedMatrix,
    q: usize,
    x_own: &MultiVec,
    ctx: &PowerContext,
    halo_rx: &Receiver<HaloMessage>,
    halo_tx: &[Sender<HaloMessage>],
) -> Option<NodeResult> {
    let node = &dm.nodes()[q];
    let own = node.rows.len();
    let m = x_own.m();
    let np = ctx.node(q);
    let k = ctx.k;
    let ext_n = np.prefix[k] * 3;

    // Widened sends: each peer's whole k-level frontier slice at once.
    for (dst, rows) in ctx.send_plan(q) {
        let data = pack_rows(node, x_own, rows);
        if halo_tx[*dst].send(HaloMessage { from: q, data }).is_err() {
            return None;
        }
    }

    // Seed the extended operand with the owned values while the
    // (single) exchange is in flight.
    let t_local = Instant::now();
    let mut cur = MultiVec::zeros(ext_n, m);
    for r in 0..own * 3 {
        cur.row_mut(r).copy_from_slice(x_own.row(r));
    }
    let local = t_local.elapsed().as_secs_f64();

    // Drain the one-shot widened exchange.
    let plan_in = ctx.recv_plan(q);
    let mut comm_wait = 0.0f64;
    let mut bytes = 0usize;
    for _ in 0..plan_in.len() {
        let t_wait = Instant::now();
        let msg = match halo_rx.recv() {
            Ok(msg) => msg,
            Err(_) => return None,
        };
        comm_wait += t_wait.elapsed().as_secs_f64();
        let (_, rows) = plan_in
            .iter()
            .find(|(peer, _)| *peer == msg.from)
            .expect("unexpected sender");
        bytes += msg.data.as_slice().len() * 8;
        for (i, &g) in rows.iter().enumerate() {
            let c = np.ext_col(g);
            for d in 0..3 {
                cur.row_mut(3 * c + d).copy_from_slice(msg.data.row(3 * i + d));
            }
        }
    }

    // All k levels, communication-free: ping-pong extended buffers,
    // each level computed over its shrinking frontier prefix.
    let t_remote = Instant::now();
    let backend = active_backend();
    let mut next = MultiVec::zeros(ext_n, m);
    let mut ys = Vec::with_capacity(k);
    for p in 1..=k {
        let rows_p = np.prefix[k - p];
        backend.gspmv_rows(
            &np.a_ext,
            cur.as_slice(),
            &mut next.as_mut_slice()[..rows_p * 3 * m],
            m,
            0..rows_p,
        );
        let mut yp = MultiVec::zeros(own * 3, m);
        for r in 0..own * 3 {
            yp.row_mut(r).copy_from_slice(next.row(r));
        }
        ys.push(yp);
        std::mem::swap(&mut cur, &mut next);
    }
    let remote = t_remote.elapsed().as_secs_f64();

    Some(NodeResult {
        node: q,
        ys,
        timings: PhaseTimings { comm_wait, local, remote },
        bytes,
        messages: plan_in.len(),
    })
}

/// One node's share of one fused Chebyshev group: like [`node_powers`],
/// but running `ctx.k` levels of the *shifted three-term recurrence*
/// (`u_{j+1} = 2·Ã·u_j − u_{j−1}`) on the extended matrix through the
/// backend's [`mrhs_sparse::Backend::cheb_shifted_rows`] kernel.
/// Groups after the first also need the carried `u_{p0−1}` frontier, so
/// each peer sends **two** messages over the same FIFO channel — the
/// receiver pairs the first message from a peer with the current level
/// and the second with the previous one.
#[allow(clippy::too_many_arguments)]
fn node_chebyshev(
    dm: &DistributedMatrix,
    q: usize,
    x_own: &MultiVec,
    prev_own: Option<&MultiVec>,
    mid: f64,
    half: f64,
    ctx: &PowerContext,
    halo_rx: &Receiver<HaloMessage>,
    halo_tx: &[Sender<HaloMessage>],
) -> Option<NodeResult> {
    let node = &dm.nodes()[q];
    let own = node.rows.len();
    let m = x_own.m();
    let np = ctx.node(q);
    let d = ctx.k;
    let ext_n = np.prefix[d] * 3;

    // Widened sends: the peer's whole frontier slice of the entry
    // level, followed by the carried previous level when one exists.
    for (dst, rows) in ctx.send_plan(q) {
        let data = pack_rows(node, x_own, rows);
        if halo_tx[*dst].send(HaloMessage { from: q, data }).is_err() {
            return None;
        }
        if let Some(pv) = prev_own {
            let data = pack_rows(node, pv, rows);
            if halo_tx[*dst].send(HaloMessage { from: q, data }).is_err() {
                return None;
            }
        }
    }

    // Seed the extended entry operands with the owned values while the
    // exchange is in flight.
    let t_local = Instant::now();
    let mut entry1 = MultiVec::zeros(ext_n, m);
    for r in 0..own * 3 {
        entry1.row_mut(r).copy_from_slice(x_own.row(r));
    }
    let mut entry0 = prev_own.map(|pv| {
        let mut e = MultiVec::zeros(ext_n, m);
        for r in 0..own * 3 {
            e.row_mut(r).copy_from_slice(pv.row(r));
        }
        e
    });
    let local = t_local.elapsed().as_secs_f64();

    // Drain the exchange: the first message from each peer carries the
    // entry level, the second (same-sender FIFO) the previous one.
    let plan_in = ctx.recv_plan(q);
    let per_peer = if prev_own.is_some() { 2 } else { 1 };
    let mut seen: HashMap<usize, usize> = HashMap::new();
    let mut comm_wait = 0.0f64;
    let mut bytes = 0usize;
    for _ in 0..plan_in.len() * per_peer {
        let t_wait = Instant::now();
        let msg = match halo_rx.recv() {
            Ok(msg) => msg,
            Err(_) => return None,
        };
        comm_wait += t_wait.elapsed().as_secs_f64();
        let (_, rows) = plan_in
            .iter()
            .find(|(peer, _)| *peer == msg.from)
            .expect("unexpected sender");
        bytes += msg.data.as_slice().len() * 8;
        let nth = seen.entry(msg.from).or_insert(0);
        let target = if *nth == 0 {
            &mut entry1
        } else {
            entry0.as_mut().expect("second frontier message without carry")
        };
        *nth += 1;
        for (i, &g) in rows.iter().enumerate() {
            let c = np.ext_col(g);
            for dd in 0..3 {
                target
                    .row_mut(3 * c + dd)
                    .copy_from_slice(msg.data.row(3 * i + dd));
            }
        }
    }

    // All d levels, communication-free, over shrinking frontier
    // prefixes. Level 1 reads the entry levels; deeper levels read the
    // two levels computed just before them.
    let t_remote = Instant::now();
    let backend = active_backend();
    let mut levels: Vec<MultiVec> =
        (0..d).map(|_| MultiVec::zeros(ext_n, m)).collect();
    let mut ys = Vec::with_capacity(d);
    for j in 1..=d {
        let rows_j = np.prefix[d - j];
        let (done, rest) = levels.split_at_mut(j - 1);
        let cur: &[f64] =
            if j == 1 { entry1.as_slice() } else { done[j - 2].as_slice() };
        let prev: Option<&[f64]> = match j {
            1 => entry0.as_ref().map(|e| e.as_slice()),
            2 => Some(entry1.as_slice()),
            _ => Some(done[j - 3].as_slice()),
        };
        backend.cheb_shifted_rows(
            &np.a_ext,
            cur,
            prev,
            &mut rest[0].as_mut_slice()[..rows_j * 3 * m],
            mid,
            half,
            m,
            0..rows_j,
        );
        let mut yj = MultiVec::zeros(own * 3, m);
        for r in 0..own * 3 {
            yj.row_mut(r).copy_from_slice(rest[0].row(r));
        }
        ys.push(yj);
    }
    let remote = t_remote.elapsed().as_secs_f64();

    Some(NodeResult {
        node: q,
        ys,
        timings: PhaseTimings { comm_wait, local, remote },
        bytes,
        messages: plan_in.len() * per_peer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::{with_deadline, with_deadline_serial};
    use mrhs_sparse::partition::{contiguous_partition, Partition};
    use mrhs_sparse::reorder::permute_symmetric;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};
    use std::time::Duration;

    fn random_symmetric(nb: usize, band: usize, seed: u64) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(8.0));
            for d in 1..=band {
                if i + d < nb && next() > 0.0 {
                    let mut b = Block3::ZERO;
                    for v in b.0.iter_mut() {
                        *v = next();
                    }
                    t.add_symmetric_pair(i, i + d, b);
                }
            }
        }
        t.build()
    }

    fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
        let mut state = seed | 1;
        let mut mv = MultiVec::zeros(n, m);
        for v in mv.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        mv
    }

    #[test]
    fn engine_matches_serial() {
        with_deadline(Duration::from_secs(120), || {
            let a = random_symmetric(48, 4, 5);
            for p in [1usize, 2, 4, 7] {
                let part = contiguous_partition(&a, p);
                let dm = DistributedMatrix::new(&a, &part);
                let permuted = permute_symmetric(&a, dm.permutation());
                let engine = DistEngine::new(dm);
                for m in [1usize, 3, 8] {
                    let x = pseudo_multivec(a.n_rows(), m, 7 + m as u64);
                    let (y, _) = engine.multiply(&x);
                    let mut want = MultiVec::zeros(a.n_rows(), m);
                    gspmv_serial(&permuted, &x, &mut want);
                    for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
                        assert!((u - v).abs() < 1e-12, "{u} vs {v}");
                    }
                }
            }
        });
    }

    #[test]
    fn repeated_multiplies_reuse_workers() {
        // The rendezvous must stay consistent over many rounds (an
        // iterative solver's access pattern), including m changing
        // between rounds.
        with_deadline(Duration::from_secs(120), || {
            let a = random_symmetric(30, 3, 11);
            let part = contiguous_partition(&a, 4);
            let dm = DistributedMatrix::new(&a, &part);
            let permuted = permute_symmetric(&a, dm.permutation());
            let engine = DistEngine::new(dm);
            for round in 0..25u64 {
                let m = [1usize, 2, 5][round as usize % 3];
                let x = pseudo_multivec(a.n_rows(), m, round + 1);
                let (y, _) = engine.multiply(&x);
                let mut want = MultiVec::zeros(a.n_rows(), m);
                gspmv_serial(&permuted, &x, &mut want);
                for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
                    assert!((u - v).abs() < 1e-12);
                }
            }
        });
    }

    /// With more nodes than block rows several partitions are empty and
    /// share identical (empty) row ranges; a node identified by range
    /// equality would pick the wrong receive plan and wait for messages
    /// that never come. The watchdog turns that deadlock into a failure.
    #[test]
    fn engine_survives_empty_partitions() {
        with_deadline(Duration::from_secs(60), || {
            let a = random_symmetric(5, 2, 3);
            for p in [6usize, 9, 11] {
                // trailing empty parts, then interleaved ones
                let interleaved: Vec<u32> =
                    (0..5).map(|i| (2 * i as u32) % p as u32).collect();
                for part in [
                    contiguous_partition(&a, p),
                    Partition::from_assignment(p, interleaved),
                ] {
                    let dm = DistributedMatrix::new(&a, &part);
                    let permuted = permute_symmetric(&a, dm.permutation());
                    let engine = DistEngine::new(dm);
                    let x = pseudo_multivec(a.n_rows(), 4, 13);
                    let (y, _) = engine.multiply(&x);
                    let mut want = MultiVec::zeros(a.n_rows(), 4);
                    gspmv_serial(&permuted, &x, &mut want);
                    for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
                        assert!((u - v).abs() < 1e-12);
                    }
                }
            }
        });
    }

    #[test]
    fn halo_bytes_are_linear_in_m_and_zero_on_one_node() {
        with_deadline(Duration::from_secs(60), || {
            let a = random_symmetric(48, 3, 3);
            let engine_on = |p| {
                let part = contiguous_partition(&a, p);
                DistEngine::new(DistributedMatrix::new(&a, &part))
            };
            let x1 = pseudo_multivec(a.n_rows(), 1, 1);
            let x8 = pseudo_multivec(a.n_rows(), 8, 1);
            let four = engine_on(4);
            let (_, s1) = four.multiply(&x1);
            let (_, s8) = four.multiply(&x8);
            assert!(s1.comm.total_bytes() > 0);
            assert_eq!(s8.comm.total_bytes(), 8 * s1.comm.total_bytes());
            assert_eq!(s1.comm.recv_messages, s8.comm.recv_messages);
            let (_, solo) = engine_on(1).multiply(&x8);
            assert_eq!(solo.comm.total_bytes(), 0);
        });
    }

    #[test]
    fn phase_timings_are_populated() {
        with_deadline(Duration::from_secs(60), || {
            let a = random_symmetric(40, 3, 17);
            let part = contiguous_partition(&a, 4);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = DistEngine::new(dm);
            let x = pseudo_multivec(a.n_rows(), 8, 3);
            let (_, stats) = engine.multiply(&x);
            assert_eq!(stats.timings.len(), 4);
            for t in &stats.timings {
                assert!(t.local > 0.0, "local multiply must be timed");
                assert!(t.comm_wait >= 0.0 && t.remote >= 0.0);
                assert!((0.0..=1.0).contains(&t.comm_fraction()));
            }
            assert_eq!(engine.last_stats().comm, stats.comm);
        });
    }

    #[test]
    fn telemetry_spans_close_exactly_per_node() {
        with_deadline_serial(Duration::from_secs(60), || {
            mrhs_telemetry::set_enabled(true);
            let a = random_symmetric(36, 3, 23);
            let part = contiguous_partition(&a, 3);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = DistEngine::new(dm);
            let before = mrhs_telemetry::snapshot();
            let x = pseudo_multivec(a.n_rows(), 4, 29);
            let (_, stats) = engine.multiply(&x);
            let diff = mrhs_telemetry::snapshot().diff(&before);

            for q in 0..3 {
                let parent = diff.span_secs(&format!("engine/node{q}"));
                let children = diff.span_secs(&format!("engine/node{q}/comm_wait"))
                    + diff.span_secs(&format!("engine/node{q}/local"))
                    + diff.span_secs(&format!("engine/node{q}/remote"));
                // The parent span is recorded as the exact sum of its
                // children, so the decomposition closes to rounding even
                // if another test records engine spans concurrently.
                assert!(
                    (parent - children).abs() <= 1e-6,
                    "node{q}: parent {parent} vs children {children}"
                );
                assert!(
                    diff.counter(&format!("engine/node{q}/halo_bytes"))
                        >= stats.comm.recv_bytes[q] as u64
                );
                assert!(
                    diff.counter(&format!("engine/node{q}/halo_messages"))
                        >= stats.comm.recv_messages[q] as u64
                );
            }
            assert!(diff.counter("engine/multiplies") >= 1);
        });
    }

    #[test]
    fn fused_powers_match_serial_powers() {
        with_deadline_serial(Duration::from_secs(120), || {
            let a = random_symmetric(48, 4, 5);
            for p in [1usize, 2, 4] {
                let part = contiguous_partition(&a, p);
                let dm = DistributedMatrix::new(&a, &part);
                let permuted = permute_symmetric(&a, dm.permutation());
                let engine = DistEngine::new(dm);
                for k in [1usize, 2, 3] {
                    let m = 4;
                    let x = pseudo_multivec(a.n_rows(), m, 31 + k as u64);
                    let (ys, stats) = engine.multiply_powers(&x, k);
                    assert_eq!(ys.len(), k);
                    // Serial reference: repeated full-matrix multiplies.
                    let mut want = Vec::with_capacity(k);
                    let mut prev = x.clone();
                    for _ in 0..k {
                        let mut y = MultiVec::zeros(a.n_rows(), m);
                        gspmv_serial(&permuted, &prev, &mut y);
                        want.push(y.clone());
                        prev = y;
                    }
                    for (lvl, (y, w)) in ys.iter().zip(&want).enumerate() {
                        let scale = w.max_abs().max(1.0);
                        for (u, v) in y.as_slice().iter().zip(w.as_slice()) {
                            assert!(
                                (u - v).abs() <= 1e-12 * scale,
                                "p={p} k={k} level {lvl}: {u} vs {v}"
                            );
                        }
                    }
                    assert_eq!(stats.timings.len(), p);
                }
            }
        });
    }

    #[test]
    fn fused_powers_use_one_exchange_round() {
        with_deadline_serial(Duration::from_secs(60), || {
            // Deterministic chain: every partition boundary carries an
            // edge, so each interior node talks to both neighbours.
            let nb = 32;
            let mut t = BlockTripletBuilder::square(nb);
            for i in 0..nb {
                t.add(i, i, Block3::scaled_identity(4.0));
                if i + 1 < nb {
                    t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
                }
            }
            let a = t.build();
            let part = contiguous_partition(&a, 4);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = DistEngine::new(dm);
            let x = pseudo_multivec(a.n_rows(), 4, 3);
            let k = 3;

            // k separate multiplies: each interior node waits on its
            // 2 neighbours every round → 2k messages.
            let mut y = MultiVec::zeros(a.n_rows(), 4);
            let mut rounds_msgs = [0usize; 4];
            let mut cur = x.clone();
            for _ in 0..k {
                let stats = engine.multiply_into(&cur, &mut y);
                for (t, s) in rounds_msgs.iter_mut().zip(&stats.comm.recv_messages)
                {
                    *t += s;
                }
                cur = y.clone();
            }

            // One fused call: the same k levels, one widened round.
            let (_, fused) = engine.multiply_powers(&x, k);
            for (q, &total) in rounds_msgs.iter().enumerate() {
                assert!(
                    fused.comm.recv_messages[q] < total,
                    "node {q}: fused {} vs {total} over {k} rounds",
                    fused.comm.recv_messages[q],
                );
                // The widened exchange still talks to the same peers
                // only once.
                assert_eq!(fused.comm.recv_messages[q] * k, total, "node {q}");
            }
        });
    }

    #[test]
    fn apply_powers_goes_through_fused_exchange() {
        with_deadline_serial(Duration::from_secs(60), || {
            mrhs_telemetry::set_enabled(true);
            let a = random_symmetric(30, 2, 19);
            let part = contiguous_partition(&a, 3);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = DistEngine::new(dm);
            let x = pseudo_multivec(a.n_rows(), 3, 11);
            let before = mrhs_telemetry::snapshot();
            let mut outs: Vec<MultiVec> =
                (0..3).map(|_| MultiVec::zeros(a.n_rows(), 3)).collect();
            LinearOperator::apply_powers(&engine, &x, &mut outs);
            let diff = mrhs_telemetry::snapshot().diff(&before);
            assert!(diff.counter("engine/power_multiplies") >= 1);
            assert!(diff.counter("engine/powers/k3/multiplies") >= 1);

            // And the values chain correctly: outs[1] == A·outs[0].
            let mut want = MultiVec::zeros(a.n_rows(), 3);
            engine.multiply_into(&outs[0], &mut want);
            let scale = want.max_abs().max(1.0);
            for (u, v) in outs[1].as_slice().iter().zip(want.as_slice()) {
                assert!((u - v).abs() <= 1e-12 * scale);
            }
        });
    }

    #[test]
    fn fused_powers_survive_empty_partitions() {
        with_deadline_serial(Duration::from_secs(60), || {
            let a = random_symmetric(5, 2, 3);
            let assignment: Vec<u32> = (0..5).map(|i| (2 * i as u32) % 9).collect();
            let part = Partition::from_assignment(9, assignment);
            let dm = DistributedMatrix::new(&a, &part);
            let permuted = permute_symmetric(&a, dm.permutation());
            let engine = DistEngine::new(dm);
            let x = pseudo_multivec(a.n_rows(), 2, 13);
            let (ys, _) = engine.multiply_powers(&x, 2);
            let mut y1 = MultiVec::zeros(a.n_rows(), 2);
            gspmv_serial(&permuted, &x, &mut y1);
            let mut y2 = MultiVec::zeros(a.n_rows(), 2);
            gspmv_serial(&permuted, &y1, &mut y2);
            for (got, want) in ys.iter().zip([&y1, &y2]) {
                let scale = want.max_abs().max(1.0);
                for (u, v) in got.as_slice().iter().zip(want.as_slice()) {
                    assert!((u - v).abs() <= 1e-12 * scale);
                }
            }
        });
    }

    #[test]
    fn sstep_cg_on_engine_pays_one_exchange_per_cycle() {
        with_deadline_serial(Duration::from_secs(120), || {
            // SPD chain so the solver converges; the s-step basis sweep
            // must route through the fused exchange.
            mrhs_telemetry::set_enabled(true);
            let nb = 24;
            let mut t = BlockTripletBuilder::square(nb);
            for i in 0..nb {
                t.add(i, i, Block3::scaled_identity(4.0));
                if i + 1 < nb {
                    t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
                }
            }
            let a = t.build();
            let part = contiguous_partition(&a, 3);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = DistEngine::new(dm);

            let m = 2;
            let b = pseudo_multivec(a.n_rows(), m, 9);
            let mut x = MultiVec::zeros(a.n_rows(), m);
            let before = mrhs_telemetry::snapshot();
            let cfg = mrhs_solvers::SolveConfig { tol: 1e-8, max_iter: 400 };
            let res = mrhs_solvers::sstep_cg(&engine, &b, &mut x, 3, &cfg);
            assert!(res.converged, "{res:?}");
            let diff = mrhs_telemetry::snapshot().diff(&before);
            assert_eq!(
                diff.counter("engine/powers/k3/multiplies"),
                res.cycles as u64
            );
        });
    }

    #[test]
    fn fused_chebyshev_matches_serial_recurrence() {
        with_deadline_serial(Duration::from_secs(120), || {
            let a = random_symmetric(48, 4, 41);
            let (mid, half) = (8.0, 4.0);
            for p in [1usize, 2, 4] {
                let part = contiguous_partition(&a, p);
                let dm = DistributedMatrix::new(&a, &part);
                let permuted = permute_symmetric(&a, dm.permutation());
                let engine = DistEngine::new(dm);
                // Orders below, at, and across the fused-group depth
                // (4), so the inter-group carry path is exercised.
                for order in [1usize, 3, 4, 7, 10] {
                    let coeffs: Vec<f64> =
                        (0..=order).map(|k| 1.0 / (1.0 + k as f64)).collect();
                    for m in [1usize, 4] {
                        let z =
                            pseudo_multivec(a.n_rows(), m, (order * 8 + m) as u64);
                        let mut y = MultiVec::zeros(a.n_rows(), m);
                        engine.multiply_chebyshev_into(
                            &z, mid, half, &coeffs, &mut y,
                        );
                        let mut want = MultiVec::zeros(a.n_rows(), m);
                        mrhs_sparse::spmpv_chebyshev(
                            &permuted, &z, mid, half, &coeffs, &mut want,
                        );
                        let scale = want.max_abs().max(1.0);
                        for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
                            assert!(
                                (u - v).abs() <= 1e-11 * scale,
                                "p={p} order={order} m={m}: {u} vs {v}"
                            );
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn fused_chebyshev_pays_one_exchange_per_group() {
        with_deadline_serial(Duration::from_secs(60), || {
            // Deterministic chain: every partition boundary carries an
            // edge, so each interior node talks to both neighbours.
            let nb = 32;
            let mut t = BlockTripletBuilder::square(nb);
            for i in 0..nb {
                t.add(i, i, Block3::scaled_identity(4.0));
                if i + 1 < nb {
                    t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
                }
            }
            let a = t.build();
            let part = contiguous_partition(&a, 4);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = DistEngine::new(dm);
            let z = pseudo_multivec(a.n_rows(), 4, 3);

            // Order 8 = two fused groups of depth 4. The first group
            // exchanges one frontier message per peer, the second two
            // (entry level + carried previous level): 3 messages per
            // peer total, against 8 unfused rounds.
            let coeffs = vec![0.7; 9];
            let mut y = MultiVec::zeros(a.n_rows(), 4);
            let stats =
                engine.multiply_chebyshev_into(&z, 4.0, 2.0, &coeffs, &mut y);

            let mut round = MultiVec::zeros(a.n_rows(), 4);
            let per_round = engine.multiply_into(&z, &mut round);
            for q in 0..4 {
                let peers = per_round.comm.recv_messages[q];
                assert_eq!(
                    stats.comm.recv_messages[q],
                    3 * peers,
                    "node {q}: fused groups must pay 1 + 2 peer messages"
                );
                assert!(
                    stats.comm.recv_messages[q] < 8 * peers || peers == 0,
                    "node {q}: fused must beat one round per term"
                );
            }
        });
    }

    #[test]
    fn solver_chebyshev_routes_through_fused_engine_path() {
        with_deadline_serial(Duration::from_secs(60), || {
            mrhs_telemetry::set_enabled(true);
            let a = random_symmetric(30, 2, 53);
            let part = contiguous_partition(&a, 3);
            let dm = DistributedMatrix::new(&a, &part);
            let permuted = permute_symmetric(&a, dm.permutation());
            let engine = DistEngine::new(dm);

            // The operator's spectrum lives in the filter interval by
            // Gershgorin (diagonal 8, small off-diagonals).
            let cheb = mrhs_solvers::ChebyshevSqrt::new(0.5, 16.0, 7);
            let z = pseudo_multivec(a.n_rows(), 3, 17);
            let mut y = MultiVec::zeros(a.n_rows(), 3);
            let before = mrhs_telemetry::snapshot();
            cheb.apply_multi(&engine, &z, &mut y);
            let diff = mrhs_telemetry::snapshot().diff(&before);
            assert!(
                diff.counter("engine/cheb/applies") >= 1,
                "apply_multi must route through the fused engine path"
            );
            assert_eq!(diff.counter("engine/cheb/groups"), 2, "7 = 4 + 3 levels");

            // And the fused path matches the serial fused kernel.
            let mut want = MultiVec::zeros(a.n_rows(), 3);
            cheb.apply_multi(&permuted, &z, &mut want);
            let scale = want.max_abs().max(1.0);
            for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
                assert!((u - v).abs() <= 1e-11 * scale, "{u} vs {v}");
            }
        });
    }

    /// Exercised by the 4-thread CI leg: four persistent workers, many
    /// rounds, all results bit-identical to the serial kernel.
    #[test]
    fn engine_four_nodes_four_threads() {
        with_deadline(Duration::from_secs(120), || {
            let a = random_symmetric(64, 5, 29);
            let part = contiguous_partition(&a, 4);
            let dm = DistributedMatrix::new(&a, &part);
            let permuted = permute_symmetric(&a, dm.permutation());
            let engine = DistEngine::new(dm);
            for round in 0..10 {
                let x = pseudo_multivec(a.n_rows(), 16, 100 + round);
                let (y, stats) = engine.multiply(&x);
                let mut want = MultiVec::zeros(a.n_rows(), 16);
                gspmv_serial(&permuted, &x, &mut want);
                for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
                    assert!((u - v).abs() < 1e-12);
                }
                assert!(stats.comm.total_bytes() > 0);
            }
        });
    }
}
