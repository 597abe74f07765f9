//! The exported `service/failed` counter agrees with
//! `ServiceStats::failed` across every way an accepted request can fail:
//! a solve that does not converge, a queue expiry and an unregister
//! sweep.
//!
//! Own test binary: it reads exact counts off the process-wide
//! telemetry registry, which no other service may touch meanwhile.

use std::time::Duration;

use mrhs_service::{
    BatchPolicy, MatrixRegistry, RequestOptions, ServiceConfig, SolveError,
    SolveService,
};
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder, MultiVec};

/// `4·I` on 18 rows: every solvable request converges at once.
fn diagonal() -> BcrsMatrix {
    let mut t = BlockTripletBuilder::square(6);
    (0..6).for_each(|i| t.add(i, i, Block3::scaled_identity(4.0)));
    t.build()
}

/// A request of `width` distinct columns.
fn rhs(width: usize) -> MultiVec {
    MultiVec::from_flat(
        18,
        width,
        (0..18 * width).map(|k| 1.0 + k as f64).collect(),
    )
}

#[test]
fn exported_failed_counts_every_failed_request() {
    mrhs_telemetry::set_enabled(true);
    let before = mrhs_telemetry::snapshot();

    let reg = MatrixRegistry::new();
    let solved = reg.register_full("solved", diagonal());
    let revoked = reg.register_full("revoked", diagonal());
    // A width-2 request fills a batch at once; a width-1 request waits
    // out the long linger, queued.
    let svc = SolveService::start(
        reg,
        ServiceConfig {
            policy: BatchPolicy {
                max_batch: 2,
                queue_capacity: 16,
                linger: Duration::from_secs(5),
            },
            ..ServiceConfig::default()
        },
    );
    let default = RequestOptions::default;

    let out = svc.submit(solved, rhs(2), default()).unwrap().wait();
    assert!(out.is_ok(), "{out:?}");

    let expire = RequestOptions { deadline: Some(Duration::ZERO), ..default() };
    match svc.submit(solved, rhs(1), expire).unwrap().wait() {
        Err(SolveError::DeadlineExceeded { .. }) => {}
        other => panic!("zero deadline must expire, got {other:?}"),
    }

    let queued = svc.submit(revoked, rhs(1), default()).unwrap();
    assert!(svc.unregister(revoked));
    assert_eq!(queued.wait().unwrap_err(), SolveError::MatrixUnregistered);

    let mut poisoned = rhs(2);
    poisoned.as_mut_slice()[3] = f64::NAN;
    match svc.submit(solved, poisoned, default()).unwrap().wait() {
        Err(SolveError::DidNotConverge { .. }) => {}
        other => panic!("NaN right-hand side must fail, got {other:?}"),
    }

    svc.shutdown();
    let st = svc.stats();
    let diff = mrhs_telemetry::snapshot().diff(&before);
    assert_eq!((st.completed, st.failed, st.expired), (1, 3, 1));
    assert_eq!(diff.counter("service/failed"), st.failed);
    // The expiry keeps one SLO name: the batcher's deadline miss.
    assert_eq!(diff.counter("service/deadline_missed"), st.expired);
    assert_eq!(diff.counter("service/expired"), 0);
}
