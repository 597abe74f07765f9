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

use crate::distmat::DistributedMatrix;
use crate::exchange::{
    apply_remote, pack_rows, scatter_message, CommStats, HaloMessage,
};
use crossbeam::channel::{unbounded, Receiver, Sender};
use mrhs_solvers::operator::LinearOperator;
use mrhs_sparse::{gspmv_serial, Block3, MultiVec};
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
    Multiply { x_own: MultiVec },
    Shutdown,
}

struct NodeResult {
    node: usize,
    y: MultiVec,
    timings: PhaseTimings,
    bytes: usize,
    messages: usize,
}

/// Long-lived distributed executor: one worker thread per node plus a
/// per-multiply rendezvous. See the module docs for the execution
/// structure.
pub struct DistEngine {
    dm: Arc<DistributedMatrix>,
    /// The matrix's diagonal blocks in the permuted ordering, read off
    /// the nodes' local parts (a diagonal block's column is owned by
    /// the node that owns its row).
    diagonal: Vec<Block3>,
    job_tx: Vec<Sender<Job>>,
    result_rx: Receiver<NodeResult>,
    handles: Vec<JoinHandle<()>>,
    last_stats: Mutex<EngineStats>,
    /// Serializes multiplies: concurrent callers would interleave
    /// rendezvous rounds on the shared mailboxes.
    call_lock: Mutex<()>,
}

impl DistEngine {
    /// Spawns the node workers for `dm`.
    pub fn new(dm: DistributedMatrix) -> Self {
        let dm = Arc::new(dm);
        let p = dm.n_nodes();
        let diagonal = dm
            .nodes()
            .iter()
            .flat_map(|node| node.a_local.diagonal_blocks())
            .collect();
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
            diagonal,
            job_tx,
            result_rx,
            handles,
            last_stats: Mutex::new(EngineStats::default()),
            call_lock: Mutex::new(()),
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
            for r in 0..res.y.n() {
                y.row_mut(base + r).copy_from_slice(res.y.row(r));
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

    /// Stats of the most recent multiply — how solver-driven
    /// applications ([`LinearOperator::apply_multi`] cannot return
    /// stats) retrieve their phase timings.
    pub fn last_stats(&self) -> EngineStats {
        self.last_stats.lock().unwrap().clone()
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

    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        Some(self.diagonal.clone())
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
                    y,
                    timings: PhaseTimings { comm_wait, local, remote },
                    bytes,
                    messages: plan_in.len(),
                }
            }
            Ok(Job::Shutdown) | Err(_) => return,
        };
        if result_tx.send(res).is_err() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::with_deadline;
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
        with_deadline(Duration::from_secs(60), || {
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

    /// Chebyshev on the engine is the generic recurrence over
    /// `multiply_into`: the permuted serial result, at one halo round
    /// per term.
    #[test]
    fn chebyshev_on_engine_is_the_permuted_serial_recurrence() {
        with_deadline(Duration::from_secs(120), || {
            let a = random_symmetric(48, 4, 41);
            for p in [1usize, 3, 4] {
                let part = contiguous_partition(&a, p);
                let dm = DistributedMatrix::new(&a, &part);
                let permuted = permute_symmetric(&a, dm.permutation());
                let engine = DistEngine::new(dm);
                for order in [3usize, 4, 9] {
                    // A polynomial identity: the interval need not
                    // bracket the spectrum.
                    let cheb = mrhs_solvers::ChebyshevSqrt::new(0.5, 16.0, order);
                    for m in [1usize, 4] {
                        let z =
                            pseudo_multivec(a.n_rows(), m, (order * 8 + m) as u64);
                        let mut y = MultiVec::zeros(a.n_rows(), m);
                        // Every `apply_multi` on the engine is one halo
                        // round; counted on the wrapper, not through
                        // the process-wide `engine/multiplies`.
                        let counted = mrhs_solvers::CountingOperator::new(&engine);
                        cheb.apply_multi(&counted, &z, &mut y);
                        assert_eq!(
                            (counted.multi_applies(), counted.single_applies()),
                            (order, 0),
                            "p={p} order={order} m={m}"
                        );
                        let mut want = MultiVec::zeros(a.n_rows(), m);
                        cheb.apply_multi(&permuted, &z, &mut want);
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

    /// The engine forwards `diagonal_blocks` in its own (permuted)
    /// ordering, so a block solve through it takes the iterations it
    /// takes on the permuted matrix — on a matrix whose diagonal blocks
    /// differ row to row and a partition that interleaves the rows.
    #[test]
    fn engine_forwards_diagonal_blocks() {
        use mrhs_solvers::{block_cg, SolveConfig};

        with_deadline(Duration::from_secs(120), || {
            let nb = 30;
            let mut t = BlockTripletBuilder::square(nb);
            for i in 0..nb {
                // SPD by dominance: the diagonal spans two decades.
                let scale = [3.0, 40.0, 300.0][i % 3] + i as f64;
                let mut d = Block3::scaled_identity(scale);
                *d.get_mut(0, 1) = 0.25 * scale;
                *d.get_mut(1, 0) = 0.25 * scale;
                t.add(i, i, d);
                if i + 1 < nb {
                    t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
                }
                if i + 4 < nb {
                    t.add_symmetric_pair(i, i + 4, Block3::scaled_identity(-0.5));
                }
            }
            let a = t.build();
            let part = Partition::from_assignment(
                3,
                (0..nb).map(|i| (i % 3) as u32).collect(),
            );
            let dm = DistributedMatrix::new(&a, &part);
            let permuted = permute_symmetric(&a, dm.permutation());
            assert_ne!(permuted, a, "the partition must interleave the rows");
            let engine = DistEngine::new(dm);

            let b = pseudo_multivec(a.n_rows(), 4, 19);
            let iterations = |op: &dyn LinearOperator| {
                let mut x = MultiVec::zeros(b.n(), b.m());
                let res = block_cg(op, &b, &mut x, &SolveConfig::default());
                assert!(res.converged, "{res:?}");
                res.iterations
            };
            assert_eq!(engine.diagonal_blocks(), Some(permuted.diagonal_blocks()));
            assert_eq!(iterations(&engine), iterations(&permuted));
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
