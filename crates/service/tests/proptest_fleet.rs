//! Fleet-tier properties: the router only lands requests on shards
//! that actually hold their operator, and work stealing never breaks
//! the per-column acceptance / solo-retry contract (one completion per
//! ticket, poisoned columns fail alone).

use std::time::Duration;

use mrhs_service::{
    FleetConfig, FleetService, Placement, RequestOptions, ServiceConfig, SolveError,
};
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder, MultiVec};
use proptest::prelude::*;

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

/// One right-hand-side column; `poison` plants a NaN in the middle,
/// which poisons every coupled column of a block solve and must be
/// contained by the solo-retry path.
fn rhs(n: usize, seed: u64, poison: bool) -> MultiVec {
    let mut state = seed | 1;
    let mut mv = MultiVec::zeros(n, 1);
    let col: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 + 0.5
        })
        .collect();
    mv.set_column(0, &col);
    if poison {
        mv.as_mut_slice()[n / 2] = f64::NAN;
    }
    mv
}

fn base_cfg(shards: usize) -> FleetConfig {
    let mut shard = ServiceConfig::default();
    shard.policy.linger = Duration::from_millis(5);
    shard.policy.max_batch = 4;
    shard.policy.queue_capacity = 64;
    FleetConfig { shards, shard, ..FleetConfig::default() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // Every routed request lands on a shard that holds (or replicates)
    // its operator: the shard-local handle resolves in that shard's
    // registry, sharded placements always route home, and replicated
    // placements hand out the routed shard's own replica handle. All
    // accepted tickets resolve.
    #[test]
    fn routing_lands_on_a_shard_holding_the_operator(
        shards in 1usize..=3,
        nb_small in 2usize..6,
        nb_big in 8usize..12,
        submits in 1usize..10,
        salt in 0usize..1000,
    ) {
        let mut cfg = base_cfg(shards);
        // dim(small) = 3·nb_small ≤ 15 replicates; dim(big) ≥ 24 shards.
        cfg.replicate_max_dim = 20;
        let f = FleetService::start(cfg);
        let hs = f.register_spd("small", laplacian(nb_small));
        let hb = f.register_spd("big", laplacian(nb_big));

        let mut tickets = Vec::new();
        for k in 0..submits {
            let h = if (k + salt) % 2 == 0 { hs } else { hb };
            let d = f.placement(h).unwrap();
            let (i, mh, _) = f.route_preview(h).unwrap();
            prop_assert!(
                f.shards()[i].registry().get(mh).is_some(),
                "routed shard {} does not hold the operator", i
            );
            match &d.placement {
                Placement::Sharded { home, .. } => {
                    prop_assert_eq!(i, *home, "sharded tenant routed off-home");
                }
                Placement::Replicated { handles } => {
                    prop_assert_eq!(mh, handles[i]);
                }
            }
            let t = f
                .submit(h, rhs(d.dim, (salt + k) as u64, false), RequestOptions::default())
                .unwrap();
            tickets.push(t);
        }
        for t in tickets {
            let r = t.wait();
            prop_assert!(r.is_ok(), "accepted request failed: {:?}", r.err());
        }
        let st = f.stats();
        prop_assert_eq!(
            st.routed_join + st.routed_least_loaded,
            submits as u64,
            "every accepted request is routed exactly once"
        );
        f.shutdown();
    }

    // With work stealing on, a NaN-poisoned request fails alone with
    // `DidNotConverge` while every clean batchmate succeeds — the PR 5
    // acceptance/solo-retry contract — and each ticket completes
    // exactly once (a double completion panics the worker, which
    // `shutdown` propagates).
    #[test]
    fn stealing_preserves_acceptance_and_solo_retry(
        shards in 2usize..=3,
        nreq in 4usize..12,
        poison_pick in 0usize..12,
        salt in 0usize..1000,
    ) {
        let poison_at = poison_pick % nreq;
        let f = FleetService::start(base_cfg(shards));
        let h = f.register_spd("lap", laplacian(6));
        let n = f.placement(h).unwrap().dim;
        let tickets: Vec<_> = (0..nreq)
            .map(|k| {
                f.submit(
                    h,
                    rhs(n, (salt + k) as u64, k == poison_at),
                    RequestOptions::default(),
                )
                .unwrap()
            })
            .collect();
        for (k, t) in tickets.into_iter().enumerate() {
            let r = t.wait();
            if k == poison_at {
                prop_assert!(
                    matches!(r, Err(SolveError::DidNotConverge { .. })),
                    "poisoned column must fail cleanly, got {:?}", r
                );
            } else {
                prop_assert!(
                    r.is_ok(),
                    "clean batchmate poisoned: {:?}", r.err()
                );
            }
        }
        f.shutdown();
        let st = f.stats();
        let done: u64 = st.shards.iter().map(|s| s.completed + s.failed).sum();
        prop_assert_eq!(done, nreq as u64);
    }
}
