//! Two services running at once in one process each count only their
//! own requests, in their own registry, and the global registry sums
//! the two under `service/…`.
//!
//! Own test binary: it reads an exact count off the process-wide
//! registry, which no other service may touch meanwhile.

use mrhs_service::{MatrixRegistry, RequestOptions, ServiceConfig, SolveService};
use mrhs_sparse::{Block3, BlockTripletBuilder, MultiVec};

#[test]
fn two_services_count_their_own_requests() {
    let before = mrhs_telemetry::snapshot();
    let services = [2.0, 4.0].map(|scale| {
        let mut t = BlockTripletBuilder::square(6);
        (0..6).for_each(|i| t.add(i, i, Block3::scaled_identity(scale)));
        let reg = MatrixRegistry::new();
        let h = reg.register_full("diagonal", t.build());
        (SolveService::start(reg, ServiceConfig::default()), h)
    });
    // Interleaved, so both services hold requests at once: three to
    // the first, five to the second.
    let tickets: Vec<_> = [0, 1, 0, 1, 0, 1, 1, 1]
        .into_iter()
        .map(|s| {
            let (svc, h) = &services[s];
            let rhs = MultiVec::from_vec((1..=18).map(f64::from).collect());
            svc.submit(*h, rhs, RequestOptions::default()).unwrap()
        })
        .collect();
    for t in tickets {
        t.wait().unwrap();
    }
    for ((svc, _), want) in services.iter().zip([3, 5]) {
        assert_eq!(svc.stats().accepted, want);
        assert_eq!(svc.metrics().snapshot().counter("accepted"), want);
    }
    let diff = mrhs_telemetry::snapshot().diff(&before);
    assert_eq!(diff.counter("service/accepted"), 8);
}
