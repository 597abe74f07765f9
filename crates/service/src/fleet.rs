//! The fleet tier: one logical solve service spanning many shards.
//!
//! A single [`SolveService`] already realizes the paper's Eq. 8
//! coalescing win on one host. The fleet layer scales the
//! same service across `S` shards (each its own worker pool, queue, and
//! registry) while keeping the client API a single `register`/`submit`
//! surface. Four mechanisms make the shards one service instead of `S`
//! disjoint ones:
//!
//! * **Partition-aware placement.** Small operators are *replicated* —
//!   registered on every shard, so any shard can serve them and the
//!   router is free to chase width. Operators too large to replicate
//!   are *sharded*: partitioned by rows into one contiguous range per
//!   shard ([`mrhs_sparse::partition::contiguous_partition`], whose
//!   permutation is the identity, so the engine's ordering is the
//!   client's), wrapped in a [`mrhs_cluster::DistEngine`] (whose node
//!   workers do the real halo exchanges), and registered on one *home*
//!   shard. The decision is recorded per handle and visible via
//!   [`FleetService::placement`].
//! * **Saturation-aware routing.** The router fills batches to the
//!   shard policy's `max_batch` (8 by default, or the width a
//!   deployment derived with [`model_batch_width`](crate::model_batch_width)): a request joins
//!   the shard where a batch for its operator is already forming below
//!   that width, and otherwise lands on the least-loaded shard with a
//!   handle-hash affinity tie-break, so one tenant's columns keep
//!   meeting in the same queue and coalesce.
//! * **Work stealing.** An idle shard's worker probes its siblings,
//!   hottest first, and lifts a batch only when that sibling's own
//!   worker would dispatch it now — full, lingered or deadline-pressed
//!   ([`SolveService`] `try_steal`/`run_stolen`), so a forming batch is
//!   left for the router to fill. The stolen batch runs the victim's
//!   solve path end to end, so the per-column acceptance and
//!   solo-retry contract is untouched.
//! * **Admission control.** A request whose estimated queue delay
//!   already exceeds its deadline is rejected *at ingress* with the
//!   backpressure vocabulary ([`SubmitError::QueueFull`] +
//!   `retry_after`) instead of expiring after it wasted queue space
//!   (`fleet/drop/admission`). A request without a deadline is only
//!   ever refused by the shard queue's own column bound.
//!
//! The global registry reads each shard's [`SolveService::metrics`]
//! twice, as `service` and `fleet/shard{i}`, and the fleet's own as
//! `fleet`: one [`telemetry::snapshot()`] shows every per-shard family
//! next to the service-wide sums and the fleet-level routing counters.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, Weak};
use std::time::Duration;

use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_sparse::partition::contiguous_partition;
use mrhs_sparse::{BcrsMatrix, MultiVec};
use mrhs_telemetry as telemetry;
use mrhs_telemetry::{Counter, Registry};

use crate::registry::{MatrixHandle, MatrixRegistry, OperatorClass};
use crate::request::{RequestOptions, SubmitError, Ticket};
use crate::server::{ServiceConfig, ServiceStats, SolveService};

/// Opaque key identifying an operator registered with the fleet (the
/// cluster-level analogue of [`MatrixHandle`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FleetHandle(u64);

/// Fleet-wide configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Number of shards (each a full [`SolveService`]).
    pub shards: usize,
    /// Per-shard service template.
    pub shard: ServiceConfig,
    /// Operators with scalar dimension `<= replicate_max_dim` are
    /// registered on every shard; larger ones are row-partitioned into
    /// `shards` parts through a `DistEngine` and live on one home shard.
    pub replicate_max_dim: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 2,
            shard: ServiceConfig::default(),
            replicate_max_dim: 4096,
        }
    }
}

/// Where an operator's registrations live.
#[derive(Clone, Debug)]
pub enum Placement {
    /// Registered on every shard (`handles[i]` on shard `i`); the
    /// router may send a request anywhere.
    Replicated { handles: Vec<MatrixHandle> },
    /// Row-partitioned into `parts` (one per shard) through a
    /// `DistEngine` and registered only on the `home` shard.
    Sharded { home: usize, parts: usize, handle: MatrixHandle },
}

/// The recorded placement decision for one fleet registration.
#[derive(Clone, Debug)]
pub struct PlacementDecision {
    /// Scalar dimension of the operator.
    pub dim: usize,
    /// Solver family (fixed at registration, uniform per batch).
    pub class: OperatorClass,
    /// Where the registrations live.
    pub placement: Placement,
}

/// Fleet-level counters next to each shard's own [`ServiceStats`]; the
/// routing and admission fields read cells of the fleet's registry.
#[derive(Clone, Debug, Default)]
pub struct FleetStats {
    /// Per-shard service counters, indexed by shard.
    pub shards: Vec<ServiceStats>,
    /// Requests routed onto a shard because a batch for their operator
    /// was already forming there below the shard policy's `max_batch`.
    pub routed_join: u64,
    /// Requests routed to the least-loaded eligible shard.
    pub routed_least_loaded: u64,
    /// Requests rejected at ingress by admission control.
    pub admission_rejected: u64,
    /// Batches lifted off a hot shard by an idle sibling: the sum of the
    /// shards' [`ServiceStats::stolen_batches`].
    pub steals: u64,
}

/// One logical solve service spanning `S` shards. See the module docs
/// for the placement/routing/stealing/admission design.
pub struct FleetService {
    shards: Vec<Arc<SolveService>>,
    cfg: FleetConfig,
    next: AtomicU64,
    map: RwLock<HashMap<u64, Arc<PlacementDecision>>>,
    routed_join: Counter,
    routed_least_loaded: Counter,
    admission_rejected: Counter,
    steals: Counter,
    placed_replicated: Counter,
    placed_sharded: Counter,
}

impl FleetService {
    /// Starts `cfg.shards` solve services, attaches every registry (see
    /// the module docs) and wires the work-stealing probes.
    pub fn start(cfg: FleetConfig) -> Self {
        assert!(cfg.shards >= 1, "need at least one shard");
        let global = telemetry::global();
        let shards: Vec<Arc<SolveService>> = (0..cfg.shards)
            .map(|i| {
                let s =
                    SolveService::start(MatrixRegistry::new(), cfg.shard.clone());
                global.attach(&format!("fleet/shard{i}"), Arc::clone(s.metrics()));
                Arc::new(s)
            })
            .collect();
        let metrics = Arc::new(Registry::new());
        global.attach("fleet", Arc::clone(&metrics));
        let c = |name| metrics.counter(name);
        let fleet = FleetService {
            shards,
            cfg,
            next: AtomicU64::new(0),
            map: RwLock::new(HashMap::new()),
            routed_join: c("route/join"),
            routed_least_loaded: c("route/least_loaded"),
            admission_rejected: c("drop/admission"),
            steals: c("steals"),
            placed_replicated: c("placement/replicated"),
            placed_sharded: c("placement/sharded"),
        };
        fleet.install_steal_hooks();
        fleet
    }

    /// Installs each shard's idle-worker probe: visit the siblings
    /// hottest first, lift the first batch one of them would dispatch
    /// now, and run it (on the thief's thread, through the victim's
    /// solve path). Weak references keep the hooks from cycling the
    /// shard `Arc`s, so dropping the fleet still joins the workers.
    fn install_steal_hooks(&self) {
        if self.shards.len() < 2 {
            return;
        }
        for (i, shard) in self.shards.iter().enumerate() {
            let siblings: Vec<Weak<SolveService>> = self
                .shards
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, s)| Arc::downgrade(s))
                .collect();
            let steals = self.steals.clone();
            shard.set_steal_hook(Arc::new(move || {
                let mut hot: Vec<(usize, Arc<SolveService>)> = siblings
                    .iter()
                    .filter_map(Weak::upgrade)
                    .map(|s| (s.queued_columns(), s))
                    .filter(|&(cols, _)| cols > 0)
                    .collect();
                hot.sort_by_key(|&(cols, _)| Reverse(cols));
                let stolen = hot
                    .into_iter()
                    .find_map(|(_, s)| s.try_steal().map(|b| (s, b)));
                let Some((victim, batch)) = stolen else { return false };
                steals.add(1);
                victim.run_stolen(batch);
                true
            }));
        }
    }

    /// The shard services (index = shard id). Exposed for benches and
    /// tests; production clients go through the fleet API.
    pub fn shards(&self) -> &[Arc<SolveService>] {
        &self.shards
    }

    /// Registers an SPD matrix fleet-wide (block-CG tenants).
    pub fn register_spd(&self, name: &str, a: BcrsMatrix) -> FleetHandle {
        self.register_with_class(name, a, OperatorClass::Spd)
    }

    /// Registers a general (nonsymmetric) matrix fleet-wide
    /// (block-BiCGStab tenants).
    pub fn register_general(&self, name: &str, a: BcrsMatrix) -> FleetHandle {
        self.register_with_class(name, a, OperatorClass::General)
    }

    fn register_with_class(
        &self,
        name: &str,
        a: BcrsMatrix,
        class: OperatorClass,
    ) -> FleetHandle {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let dim = a.n_rows();
        let placement = if dim <= self.cfg.replicate_max_dim {
            self.placed_replicated.add(1);
            let handles = self
                .shards
                .iter()
                .map(|s| match class {
                    OperatorClass::Spd => {
                        s.registry().register_full(name, a.clone())
                    }
                    OperatorClass::General => {
                        s.registry().register_general(name, a.clone())
                    }
                })
                .collect();
            Placement::Replicated { handles }
        } else {
            self.placed_sharded.add(1);
            // Too large to replicate: row-partition through a
            // DistEngine whose node workers exchange real halo
            // messages. Contiguous parts keep every row in place, so
            // the engine serves client row order as it stands.
            let parts = self.shards.len();
            let part = contiguous_partition(&a, parts);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = DistEngine::new(dm);
            let home = (id as usize) % self.shards.len();
            let handle = self.shards[home].registry().register_operator(
                name,
                Box::new(engine),
                class,
            );
            Placement::Sharded { home, parts, handle }
        };
        let decision = Arc::new(PlacementDecision { dim, class, placement });
        self.map
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id, decision);
        FleetHandle(id)
    }

    /// The recorded placement decision for a fleet handle.
    pub fn placement(&self, h: FleetHandle) -> Option<Arc<PlacementDecision>> {
        self.map.read().unwrap_or_else(PoisonError::into_inner).get(&h.0).cloned()
    }

    /// The routing decision for a request against `h`, without
    /// submitting: the chosen shard index and the shard-local handle.
    /// Sharded placements always route home; replicated ones prefer a
    /// shard where a batch for this operator is forming below the shard
    /// policy's `max_batch`, then the least-loaded shard (handle-hash affinity
    /// breaking ties, so a tenant's requests keep meeting). The bool is
    /// `true` when the join rule fired.
    pub fn route_preview(
        &self,
        h: FleetHandle,
    ) -> Option<(usize, MatrixHandle, bool)> {
        let decision = self.placement(h)?;
        match &decision.placement {
            Placement::Sharded { home, handle, .. } => {
                Some((*home, *handle, false))
            }
            Placement::Replicated { handles } => {
                let target = self.cfg.shard.policy.max_batch;
                // Join rule: the shard with the fullest still-unfilled
                // batch for this operator.
                let join = self
                    .shards
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (i, s.pending_columns_for(handles[i])))
                    .filter(|(_, cols)| *cols > 0 && *cols < target)
                    .max_by_key(|(_, cols)| *cols);
                if let Some((i, _)) = join {
                    return Some((i, handles[i], true));
                }
                // Least-loaded rule with handle-hash affinity: start
                // the scan at the affinity shard so ties (the common
                // case on an idle fleet) keep each tenant on its own
                // shard — that per-tenant partitioning is what lets
                // batches widen instead of splintering across queues.
                let s = self.shards.len();
                let affinity = (h.0 as usize) % s;
                let (i, _) = (0..s)
                    .map(|k| (affinity + k) % s)
                    .map(|i| (i, self.shards[i].queued_columns()))
                    .min_by_key(|(_, cols)| *cols)
                    .expect("at least one shard");
                Some((i, handles[i], false))
            }
        }
    }

    /// Submits a solve request to the fleet: routes (see
    /// [`FleetService::route_preview`]), applies admission control, and
    /// enqueues on the chosen shard.
    pub fn submit(
        &self,
        h: FleetHandle,
        rhs: MultiVec,
        opts: RequestOptions,
    ) -> Result<Ticket, SubmitError> {
        let (shard_idx, handle, joined) =
            self.route_preview(h).ok_or(SubmitError::UnknownMatrix)?;
        let shard = &self.shards[shard_idx];
        self.admit(shard, &opts)?;
        let ticket = shard.submit(handle, rhs, opts)?;
        if joined {
            self.routed_join.add(1);
        } else {
            self.routed_least_loaded.add(1);
        }
        Ok(ticket)
    }

    /// Admission control for one request against its routed shard:
    /// sheds when the estimated queue delay (queued batches ahead times
    /// the shard's measured solve time) already exceeds the request's
    /// deadline, before the request wastes queue space it cannot
    /// convert into a solve. A request without a deadline is admitted;
    /// the shard's column bound is the one occupancy limit.
    ///
    /// "Batches ahead" divides the queued columns by the width this
    /// shard has *actually achieved* (its lifetime mean), not the
    /// configured maximum: under heavy tenant mixing batches go out
    /// narrow, and assuming full-width batches would undercount the
    /// queue delay several-fold and admit requests that can only
    /// expire.
    fn admit(
        &self,
        shard: &SolveService,
        opts: &RequestOptions,
    ) -> Result<(), SubmitError> {
        let Some(deadline) = opts.deadline else { return Ok(()) };
        let est = shard.solve_estimate();
        let stats = shard.stats();
        let mean_width = if stats.batches > 0 {
            (stats.coalesced_columns as f64 / stats.batches as f64).max(1.0)
        } else {
            self.cfg.shard.policy.max_batch as f64
        };
        let batches_ahead =
            (shard.queued_columns() as f64 / mean_width).ceil() as u32;
        let est_wait = est.checked_mul(batches_ahead).unwrap_or(Duration::MAX);
        if est_wait > deadline {
            self.admission_rejected.add(1);
            return Err(SubmitError::QueueFull { retry_after: est_wait.max(est) });
        }
        Ok(())
    }

    /// Unregisters a fleet handle on every shard holding it. Queued
    /// requests fail with
    /// [`SolveError::MatrixUnregistered`](crate::SolveError); dispatched
    /// batches run to completion (the single-shard contract, applied
    /// per shard).
    pub fn unregister(&self, h: FleetHandle) -> bool {
        let removed =
            self.map.write().unwrap_or_else(PoisonError::into_inner).remove(&h.0);
        let Some(decision) = removed else {
            return false;
        };
        match &decision.placement {
            Placement::Replicated { handles } => {
                for (shard, &mh) in self.shards.iter().zip(handles) {
                    shard.unregister(mh);
                }
            }
            Placement::Sharded { home, handle, .. } => {
                self.shards[*home].unregister(*handle);
            }
        }
        true
    }

    /// Fleet-level counters plus each shard's service counters.
    pub fn stats(&self) -> FleetStats {
        let shards: Vec<ServiceStats> =
            self.shards.iter().map(|s| s.stats()).collect();
        FleetStats {
            steals: shards.iter().map(|s| s.stolen_batches).sum(),
            shards,
            routed_join: self.routed_join.get(),
            routed_least_loaded: self.routed_least_loaded.get(),
            admission_rejected: self.admission_rejected.get(),
        }
    }

    /// Stops every shard: no new submits, queues drained, workers
    /// joined. Propagates worker panics.
    pub fn shutdown(&self) {
        for s in &self.shards {
            s.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn laplacian(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
            }
        }
        t.build()
    }

    fn rhs_for(n: usize, seed: usize) -> MultiVec {
        let mut mv = MultiVec::zeros(n, 1);
        let col: Vec<f64> =
            (0..n).map(|i| ((i + seed) as f64 * 0.37).sin() + 1.5).collect();
        mv.set_column(0, &col);
        mv
    }

    /// Batches the fleet's shards counted under `dispatch/{cause}`.
    fn dispatched(f: &FleetService, cause: &str) -> u64 {
        let name = format!("dispatch/{cause}");
        f.shards().iter().map(|s| s.metrics().counter_value(&name)).sum()
    }

    fn fleet(shards: usize, replicate_max_dim: usize) -> FleetService {
        FleetService::start(FleetConfig {
            shards,
            replicate_max_dim,
            ..FleetConfig::default()
        })
    }

    #[test]
    fn small_operators_replicate_to_every_shard() {
        let f = fleet(3, 4096);
        let h = f.register_spd("lap", laplacian(8));
        let d = f.placement(h).unwrap();
        match &d.placement {
            Placement::Replicated { handles } => assert_eq!(handles.len(), 3),
            other => panic!("expected replication, got {other:?}"),
        }
        // Every shard can solve it.
        let n = d.dim;
        let t = f.submit(h, rhs_for(n, 0), RequestOptions::default()).unwrap();
        let out = t.wait().unwrap();
        assert!(out.solution.as_slice().iter().all(|v| v.is_finite()));
        f.shutdown();
    }

    #[test]
    fn large_operators_shard_through_the_dist_engine() {
        let f = fleet(2, 10);
        let a = laplacian(12); // dim 36 > 10 → sharded
        let serial = a.clone();
        let h = f.register_spd("big", a);
        let d = f.placement(h).unwrap();
        let home = match &d.placement {
            Placement::Sharded { home, parts, .. } => {
                assert_eq!(*parts, 2);
                *home
            }
            other => panic!("expected sharding, got {other:?}"),
        };
        assert!(home < 2);
        let rhs = rhs_for(d.dim, 1);
        let b = rhs.column(0);
        let t = f.submit(h, rhs, RequestOptions::default()).unwrap();
        let out = t.wait().unwrap();
        // The sharded solve must agree with a direct solve in the
        // client's row ordering (the contiguous partition keeps it).
        let x =
            oracle::reference::gauss_solve(&oracle::Dense::from_bcrs(&serial), &b)
                .expect("nonsingular");
        for (got, want) in out.solution.column(0).iter().zip(&x) {
            assert!(
                (got - want).abs() <= 1e-6 * want.abs().max(1.0),
                "sharded solve diverged from serial: {got} vs {want}"
            );
        }
        f.shutdown();
    }

    #[test]
    fn router_joins_forming_batches() {
        // Long linger so earlier requests are still queued when later
        // ones route: the join rule must pick the same shard until the
        // forming batch reaches the policy width.
        let mut cfg = FleetConfig::default();
        cfg.shard.policy.linger = Duration::from_millis(200);
        cfg.shard.policy.max_batch = 4;
        let f = FleetService::start(cfg);
        let h = f.register_spd("lap", laplacian(6));
        let n = f.placement(h).unwrap().dim;
        let t1 = f.submit(h, rhs_for(n, 0), RequestOptions::default()).unwrap();
        // Route the second request while the first lingers.
        let (_, _, joined) = f.route_preview(h).unwrap();
        assert!(joined, "second request must join the forming batch");
        let mut tickets = vec![t1];
        for k in 1..4 {
            tickets.push(
                f.submit(h, rhs_for(n, k), RequestOptions::default()).unwrap(),
            );
        }
        // The batch is full at max_batch = 4: the fifth request must not
        // join it, whether it is still queued or already dispatched.
        assert_eq!(f.stats().routed_join, 3);
        let (_, _, joined) = f.route_preview(h).unwrap();
        assert!(!joined, "a full batch is not joined");
        tickets
            .push(f.submit(h, rhs_for(n, 4), RequestOptions::default()).unwrap());
        for t in tickets {
            assert!(t.wait().unwrap().batch_width >= 1);
        }
        let st = f.stats();
        assert_eq!((st.routed_join, st.routed_least_loaded), (3, 2));
        f.shutdown();
    }

    #[test]
    fn forming_batches_are_not_stolen() {
        // Three requests 20 ms apart into a 300 ms linger: the router
        // joins the second and third to the first, and the idle sibling
        // leaves the forming batch to its owner, which dispatches it
        // once at width 3.
        let mut cfg = FleetConfig::default();
        cfg.shard.policy.linger = Duration::from_millis(300);
        cfg.shard.policy.max_batch = 4;
        let f = FleetService::start(cfg);
        let h = f.register_spd("lap", laplacian(6));
        let n = f.placement(h).unwrap().dim;
        let mut tickets = Vec::new();
        for k in 0..3 {
            if k > 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            tickets.push(
                f.submit(h, rhs_for(n, k), RequestOptions::default()).unwrap(),
            );
        }
        let widths: Vec<usize> =
            tickets.into_iter().map(|t| t.wait().unwrap().batch_width).collect();
        let st = f.stats();
        let batches: u64 = st.shards.iter().map(|s| s.batches).sum();
        assert_eq!((st.steals, st.routed_join), (0, 2));
        assert_eq!((batches, widths), (1, vec![3, 3, 3]));
        assert_eq!(dispatched(&f, "linger"), 1);
        f.shutdown();
    }

    #[test]
    fn admission_sheds_on_the_deadline_estimate() {
        let mut cfg = FleetConfig { shards: 1, ..FleetConfig::default() };
        cfg.shard.policy.linger = Duration::from_secs(10);
        let f = FleetService::start(cfg);
        let h = f.register_spd("lap", laplacian(4));
        let n = f.placement(h).unwrap().dim;
        let queued = f.submit(h, rhs_for(n, 0), RequestOptions::default()).unwrap();
        // One queued batch ahead costs at least the solve estimate's
        // floor, which a 1 ns deadline cannot wait for.
        let rushed = RequestOptions {
            deadline: Some(Duration::from_nanos(1)),
            ..Default::default()
        };
        match f.submit(h, rhs_for(n, 1), rushed) {
            Err(SubmitError::QueueFull { retry_after }) => {
                assert!(retry_after >= f.shards()[0].solve_estimate());
            }
            other => panic!("expected admission shed, got {other:?}"),
        }
        // Without a deadline the same queue admits it.
        let patient =
            f.submit(h, rhs_for(n, 2), RequestOptions::default()).unwrap();
        // `drop/admission` is the cell the global snapshot reads as
        // `fleet/drop/admission`.
        assert_eq!(f.stats().admission_rejected, 1);
        f.shutdown();
        for t in [queued, patient] {
            assert!(t.wait().is_ok());
        }
    }

    #[test]
    fn placement_map_survives_a_poisoned_lock() {
        let f = fleet(2, 4096);
        let poisoner =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = f.map.write().unwrap();
                panic!("poison the placement map");
            }));
        assert!(poisoner.is_err() && f.map.is_poisoned());
        let h = f.register_spd("lap", laplacian(4));
        assert!(f.placement(h).is_some());
        assert!(f.unregister(h));
        assert!(f.placement(h).is_none());
        f.shutdown();
    }

    #[test]
    fn idle_shard_steals_from_hot_sibling() {
        use crate::batcher::DispatchCause;
        use mrhs_telemetry::{flight, trace};
        use std::collections::HashSet;

        // Traced requests: each one's `joined_batch` link names the
        // batch it rode in and why that batch was dispatched.
        let was_tracing = trace::trace_enabled();
        trace::set_trace_enabled(true);
        // Twelve requests whose solves outlast an idle worker's probe
        // tick, so a shard that ran dry can lift batches off a sibling
        // still working through its queue.
        let mut cfg =
            FleetConfig { replicate_max_dim: 1 << 16, ..FleetConfig::default() };
        cfg.shard.policy.linger = Duration::from_millis(50);
        cfg.shard.policy.max_batch = 2;
        cfg.shard.policy.queue_capacity = 64;
        let f = FleetService::start(cfg);
        let h = f.register_spd("lap", laplacian(2000));
        let n = f.placement(h).unwrap().dim;
        let tickets: Vec<Ticket> = (0..12)
            .map(|k| f.submit(h, rhs_for(n, k), RequestOptions::default()).unwrap())
            .collect();
        let traces: HashSet<u64> = tickets
            .into_iter()
            .map(|t| t.wait().unwrap().trace_id.expect("traced request"))
            .collect();
        trace::set_trace_enabled(was_tracing);
        let st = f.stats();
        let total: u64 = st.shards.iter().map(|s| s.completed).sum();
        assert_eq!(total, 12, "every request completes exactly once");
        // Stealing is timing dependent, so count instead of requiring
        // it: the fleet's steals are the distinct batches these requests
        // rode in that were dispatched as stolen.
        let stolen: HashSet<u64> = flight::snapshot_events()
            .iter()
            .filter(|e| {
                e.kind == trace::KIND_LINK
                    && traces.contains(&e.trace)
                    && trace::name_of(e.name) == "joined_batch"
                    && e.b & 0xff == DispatchCause::Stolen.code()
            })
            .map(|e| e.a)
            .collect();
        assert_eq!(st.steals, stolen.len() as u64);
        // Every batch counts under exactly one cause, a stolen one
        // under `stolen`.
        let batches: u64 = st.shards.iter().map(|s| s.batches).sum();
        let by_cause: u64 =
            DispatchCause::ALL.iter().map(|c| dispatched(&f, c.as_str())).sum();
        assert_eq!((by_cause, dispatched(&f, "stolen")), (batches, st.steals));
        f.shutdown();
    }
}
