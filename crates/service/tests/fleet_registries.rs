//! Each fleet shard's exported `fleet/shard{i}/…` families read the
//! cells its `stats()` reads, through a mixed workload: a replicated and
//! a sharded operator, a poisoned right-hand side and a queue expiry.
//!
//! Own test binary: it reads exact counts off the process-wide
//! registry, which no other fleet may touch meanwhile.

use std::time::Duration;

use mrhs_service::{FleetConfig, FleetService, RequestOptions, ServiceConfig};
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder, MultiVec};

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

fn rhs(n: usize, seed: usize) -> MultiVec {
    MultiVec::from_vec(
        (0..n).map(|i| ((i + seed) as f64 * 0.37).sin() + 1.5).collect(),
    )
}

#[test]
fn shard_families_read_the_shard_stats() {
    mrhs_telemetry::set_enabled(true);
    let before = mrhs_telemetry::snapshot();
    let mut shard = ServiceConfig::default();
    shard.policy.max_batch = 4;
    let fleet = FleetService::start(FleetConfig {
        shards: 2,
        shard,
        replicate_max_dim: 40,
    });
    let small = fleet.register_spd("small", laplacian(6)); // 18 rows: replicated
    let large = fleet.register_spd("large", laplacian(20)); // 60 rows: sharded

    // One request expires in the queue. It goes first: with every queue
    // empty, admission's wait estimate is zero and lets it in.
    let expire =
        RequestOptions { deadline: Some(Duration::ZERO), ..Default::default() };
    let mut tickets = vec![fleet.submit(small, rhs(18, 13), expire).unwrap()];
    tickets.extend((0..12).map(|k| {
        let h = if k % 3 == 0 { large } else { small };
        let n = fleet.placement(h).unwrap().dim;
        fleet.submit(h, rhs(n, k), RequestOptions::default()).unwrap()
    }));
    // One request fails its solve.
    let mut poisoned = rhs(18, 12);
    poisoned.as_mut_slice()[9] = f64::NAN;
    tickets.push(fleet.submit(small, poisoned, RequestOptions::default()).unwrap());
    let failed =
        tickets.into_iter().map(|t| t.wait()).filter(Result::is_err).count();
    assert_eq!(failed, 2);
    fleet.shutdown();

    let st = fleet.stats();
    let diff = mrhs_telemetry::snapshot().diff(&before);
    for (i, s) in st.shards.iter().enumerate() {
        let counter = |name: &str| diff.counter(&format!("fleet/shard{i}/{name}"));
        assert_eq!(counter("batches"), s.batches, "shard {i}");
        assert_eq!(counter("completed"), s.completed, "shard {i}");
        assert_eq!(counter("failed"), s.failed, "shard {i}");
        // The shard's solve span counts that shard's batches.
        let solves = diff.spans.get(&format!("fleet/shard{i}/solve"));
        assert_eq!(solves.map_or(0, |s| s.count), s.batches, "shard {i}");
    }
    let completed: u64 = st.shards.iter().map(|s| s.completed).sum();
    assert_eq!(completed, 12);
    assert_eq!(diff.counter("service/completed"), completed);
    assert_eq!(diff.counter("fleet/route/join"), st.routed_join);
    assert_eq!(st.routed_join + st.routed_least_loaded, 14);
}
