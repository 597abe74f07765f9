//! End-to-end service behavior: coalescing, failure isolation,
//! deadlines, and the DistEngine-backed registry path.

use std::time::Duration;

use mrhs_cluster::watchdog::with_deadline;
use mrhs_cluster::{DistEngine, DistributedMatrix};
use mrhs_service::{
    BatchPolicy, MatrixRegistry, OperatorClass, RequestOptions, ServiceConfig,
    SolveError, SolveService, SubmitError,
};
use mrhs_solvers::{cg, LinearOperator, SolveConfig};
use mrhs_sparse::partition::contiguous_partition;
use mrhs_sparse::{
    BcrsMatrix, Block3, BlockTripletBuilder, MultiVec, SymmetricBcrs,
};

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

fn pseudo_rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn solo_reference(a: &BcrsMatrix, b: &[f64], tol: f64) -> Vec<f64> {
    let mut x = vec![0.0; b.len()];
    let r = cg(a, b, &mut x, &SolveConfig { tol, max_iter: 1000 });
    assert!(r.converged);
    x
}

#[test]
fn single_request_round_trips() {
    let reg = MatrixRegistry::new();
    let a = laplacian(10);
    let n = a.n_rows();
    let h = reg.register_full("lap", a.clone());
    let svc = SolveService::start(reg, ServiceConfig::default());

    let b = pseudo_rhs(n, 42);
    let out = svc.submit_one(h, &b).unwrap().wait().unwrap();
    let want = solo_reference(&a, &b, 1e-6);
    for (got, want) in out.solution.column(0).iter().zip(&want) {
        assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
    }
    assert!(out.batch_width >= 1);
    assert!(!out.solo_retried);
    svc.shutdown();
    let st = svc.stats();
    assert_eq!(st.accepted, 1);
    assert_eq!(st.completed, 1);
}

#[test]
fn concurrent_requests_coalesce_to_target_width() {
    let reg = MatrixRegistry::new();
    let a = laplacian(12);
    let n = a.n_rows();
    let h = reg.register_full("lap", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 4,
            queue_capacity: 64,
            // Long linger: the batch must fill by width, not drain by
            // time, so widths are deterministic.
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let rhss: Vec<Vec<f64>> = (0..8).map(|k| pseudo_rhs(n, 100 + k)).collect();
    let tickets: Vec<_> =
        rhss.iter().map(|b| svc.submit_one(h, b).unwrap()).collect();
    for (t, b) in tickets.into_iter().zip(&rhss) {
        let out = t.wait().unwrap();
        let want = solo_reference(&a, b, 1e-6);
        for (got, want) in out.solution.column(0).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
        }
        assert!(
            out.batch_width >= 2,
            "requests submitted together should share a batch \
             (width {})",
            out.batch_width
        );
    }
    svc.shutdown();
    let st = svc.stats();
    assert_eq!(st.completed, 8);
    assert!(
        st.batches <= 4,
        "8 requests at target width 4 need at most 4 batches, got {}",
        st.batches
    );
    assert!(st.full_batches >= 1, "at least one batch must fill to 4");
    assert!(st.coalescing_efficiency() > 0.4);
}

#[test]
fn poisoned_rhs_fails_alone_batchmates_complete() {
    let reg = MatrixRegistry::new();
    let a = laplacian(8);
    let n = a.n_rows();
    let h = reg.register_full("lap", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 4,
            queue_capacity: 64,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let mut rhss: Vec<Vec<f64>> = (0..4).map(|k| pseudo_rhs(n, 200 + k)).collect();
    rhss[1][3] = f64::NAN; // poison one column of one request
    let tickets: Vec<_> =
        rhss.iter().map(|b| svc.submit_one(h, b).unwrap()).collect();
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();

    // The poisoned request fails alone...
    match &results[1] {
        Err(SolveError::DidNotConverge { relative_residual, .. }) => {
            assert!(relative_residual.is_nan());
        }
        other => panic!("poisoned request must fail, got {other:?}"),
    }
    // ...while its batchmates complete with correct solutions. A NaN
    // column poisons *every* column of the coupled block solve, so the
    // mates only survive through the solo-retry path.
    for (k, r) in results.iter().enumerate() {
        if k == 1 {
            continue;
        }
        let out = r.as_ref().expect("batchmate must complete");
        assert_eq!(
            out.batch_width, 4,
            "mate must actually have shared the poisoned batch"
        );
        assert!(out.solo_retried, "mates complete via solo retry");
        let want = solo_reference(&a, &rhss[k], 1e-6);
        for (got, want) in out.solution.column(0).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
        }
    }
    svc.shutdown();
    let st = svc.stats();
    assert_eq!(st.completed, 3);
    assert_eq!(st.failed, 1);
    // The NaN column broke the whole batch down: every column retried.
    assert_eq!(st.solo_retries, 4);
}

#[test]
fn multi_column_requests_ride_along() {
    let reg = MatrixRegistry::new();
    let a = laplacian(9);
    let n = a.n_rows();
    let h = reg.register_full("lap", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 6,
            queue_capacity: 64,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let mut wide = MultiVec::zeros(n, 3);
    let cols: Vec<Vec<f64>> = (0..3).map(|k| pseudo_rhs(n, 300 + k)).collect();
    for (k, c) in cols.iter().enumerate() {
        wide.set_column(k, c);
    }
    let t_wide = svc.submit(h, wide, RequestOptions::default()).unwrap();
    let narrow = pseudo_rhs(n, 400);
    let t_narrow = svc.submit_one(h, &narrow).unwrap();

    let out = t_wide.wait().unwrap();
    assert_eq!(out.solution.shape(), (n, 3));
    for (k, c) in cols.iter().enumerate() {
        let want = solo_reference(&a, c, 1e-6);
        for (got, want) in out.solution.column(k).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
        }
    }
    assert!(out.batch_width >= 3);
    t_narrow.wait().unwrap();
    svc.shutdown();
}

/// One storage format on the solve path: a matrix handed over in
/// symmetric half storage is served from its full-storage expansion, so
/// the same right-hand sides get the same bits and the same iteration
/// count as through a `register_full` handle.
#[test]
fn symmetric_registration_solves_bit_for_bit_like_full() {
    let reg = MatrixRegistry::new();
    let a = laplacian(40);
    let n = a.n_rows();
    let sym = SymmetricBcrs::from_full(&a, 0.0).expect("exactly symmetric");
    let h_full = reg.register_full("full", a);
    let h_sym = reg.register_symmetric("sym", sym);
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 4,
            queue_capacity: 64,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    // One full-width request per handle: the batch each rides in is
    // exactly its own four columns.
    let mut rhs = MultiVec::zeros(n, 4);
    for k in 0..4 {
        rhs.set_column(k, &pseudo_rhs(n, 700 + k as u64));
    }
    let solve = |h| {
        svc.submit(h, rhs.clone(), RequestOptions::default())
            .unwrap()
            .wait()
            .unwrap()
    };
    let (full, sym) = (solve(h_full), solve(h_sym));
    assert_eq!((full.batch_width, sym.batch_width), (4, 4));
    assert_eq!(full.iterations, sym.iterations);
    let bits = |o: &mrhs_service::SolveOutput| -> Vec<u64> {
        o.solution.as_slice().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&full), bits(&sym));
    svc.shutdown();
}

#[test]
fn per_request_tolerances_are_respected() {
    let reg = MatrixRegistry::new();
    let a = laplacian(10);
    let n = a.n_rows();
    let h = reg.register_full("lap", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 2,
            queue_capacity: 16,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let b0 = pseudo_rhs(n, 500);
    let b1 = pseudo_rhs(n, 501);
    let loose = svc
        .submit(
            h,
            {
                let mut mv = MultiVec::zeros(n, 1);
                mv.set_column(0, &b0);
                mv
            },
            RequestOptions { tol: Some(1e-2), ..Default::default() },
        )
        .unwrap();
    let tight = svc
        .submit(
            h,
            {
                let mut mv = MultiVec::zeros(n, 1);
                mv.set_column(0, &b1);
                mv
            },
            RequestOptions { tol: Some(1e-10), ..Default::default() },
        )
        .unwrap();
    let (lo, ti) = (loose.wait().unwrap(), tight.wait().unwrap());
    assert!(
        lo.iterations <= ti.iterations,
        "loose column ({}) must stop no later than tight ({})",
        lo.iterations,
        ti.iterations
    );
    // The tight request really hit 1e-10.
    let mut r = vec![0.0; n];
    let x1 = ti.solution.column(0);
    a.apply(&x1, &mut r);
    let rn =
        r.iter().zip(&b1).map(|(ax, b)| (ax - b) * (ax - b)).sum::<f64>().sqrt();
    let bn = b1.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(rn <= 1e-9 * bn, "rel residual {:.2e}", rn / bn);
    svc.shutdown();
}

/// A batch of eight requests at alternating tolerances 1e-4 and 1e-6,
/// on a resistance operator the block CG solve preconditions with
/// Gauss–Seidel: the solve checks its stop on the true residual, so
/// every column comes back converged to its own tolerance from the
/// batch, and none is retried solo.
#[test]
fn mixed_tolerance_batch_converges_without_solo_retries() {
    let reg = MatrixRegistry::new();
    let a = oracle::corpus::soft_general(300, 0.0);
    let n = a.n_rows();
    let h = reg.register_full("soft", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 8,
            queue_capacity: 16,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);
    let tol = |k: usize| [1e-4, 1e-6][k % 2];
    let rhss: Vec<Vec<f64>> = (0..8).map(|k| pseudo_rhs(n, 700 + k)).collect();
    let tickets: Vec<_> = rhss
        .iter()
        .zip(0..)
        .map(|(b, k)| {
            let mut mv = MultiVec::zeros(n, 1);
            mv.set_column(0, b);
            let opts = RequestOptions { tol: Some(tol(k)), ..Default::default() };
            svc.submit(h, mv, opts).unwrap()
        })
        .collect();
    for ((t, b), k) in tickets.into_iter().zip(&rhss).zip(0..) {
        let out = t.wait().unwrap();
        assert_eq!(out.batch_width, 8);
        assert!(!out.solo_retried, "request {k}");
        let mut r = vec![0.0; n];
        a.apply(&out.solution.column(0), &mut r);
        let rn = r.iter().zip(b).map(|(ax, b)| (ax - b) * (ax - b)).sum::<f64>();
        let bn = b.iter().map(|v| v * v).sum::<f64>();
        assert!(rn.sqrt() <= tol(k) * bn.sqrt(), "request {k}");
    }
    svc.shutdown();
    let st = svc.stats();
    assert_eq!((st.completed, st.failed, st.solo_retries), (8, 0, 0));
}

#[test]
fn submit_errors_are_reported_cleanly() {
    let reg = MatrixRegistry::new();
    let a = laplacian(4);
    let n = a.n_rows();
    let h = reg.register_full("lap", a);
    let stale = {
        let tmp = laplacian(4);
        let h2 = reg.register_full("gone", tmp);
        reg.unregister(h2);
        h2
    };
    let svc = SolveService::start(reg, ServiceConfig::default());

    assert_eq!(
        svc.submit_one(stale, &vec![1.0; n]).unwrap_err(),
        SubmitError::UnknownMatrix
    );
    assert_eq!(
        svc.submit_one(h, &vec![1.0; n + 3]).unwrap_err(),
        SubmitError::ShapeMismatch { expected: n, got: n + 3 }
    );
    svc.shutdown();
    assert_eq!(
        svc.submit_one(h, &vec![1.0; n]).unwrap_err(),
        SubmitError::ShuttingDown
    );
}

#[test]
fn unservable_requests_are_refused_at_submit() {
    // Each of these used to be accepted: a 0-column request panicked the
    // worker (and hung every ticket of its batch), a request wider than
    // the queue answered `QueueFull` forever, and a bad tolerance ran
    // its batch to the iteration cap. The watchdog turns a hang into a
    // failure.
    with_deadline(Duration::from_secs(60), || {
        let reg = MatrixRegistry::new();
        let a = laplacian(6);
        let n = a.n_rows();
        let h = reg.register_full("lap", a);
        let capacity = 4;
        let cfg = ServiceConfig {
            policy: BatchPolicy {
                max_batch: 2,
                queue_capacity: capacity,
                linger: Duration::from_millis(1),
            },
            ..ServiceConfig::default()
        };
        let svc = SolveService::start(reg, cfg);
        let invalid = |rhs: MultiVec, tol: Option<f64>| {
            let opts = RequestOptions { tol, ..Default::default() };
            match svc.submit(h, rhs, opts) {
                Err(SubmitError::InvalidRequest { .. }) => {}
                other => panic!("expected InvalidRequest, got {other:?}"),
            }
        };
        invalid(MultiVec::zeros(n, 0), None);
        invalid(
            MultiVec::from_flat(n, capacity + 1, vec![1.0; n * (capacity + 1)]),
            None,
        );
        for tol in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            invalid(MultiVec::from_flat(n, 1, pseudo_rhs(n, 3)), Some(tol));
        }

        let out = svc.submit_one(h, &pseudo_rhs(n, 4)).unwrap().wait().unwrap();
        assert!(out.solution.as_slice().iter().all(|v| v.is_finite()));
        svc.shutdown();
        let st = svc.stats();
        assert_eq!((st.accepted, st.completed, st.rejected), (1, 1, 0));
        let drops = svc.drop_stats();
        assert_eq!(
            drops.backpressure + drops.shutdown,
            0,
            "refusals are not drops"
        );
    });
}

#[test]
fn zero_deadline_expires_in_queue() {
    let reg = MatrixRegistry::new();
    let a = laplacian(6);
    let n = a.n_rows();
    let h = reg.register_full("lap", a);
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 8,
            queue_capacity: 16,
            linger: Duration::from_millis(200),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);
    let t = svc
        .submit(
            h,
            {
                let mut mv = MultiVec::zeros(n, 1);
                mv.set_column(0, &pseudo_rhs(n, 1));
                mv
            },
            RequestOptions { deadline: Some(Duration::ZERO), ..Default::default() },
        )
        .unwrap();
    match t.wait() {
        Err(SolveError::DeadlineExceeded { .. }) => {}
        other => panic!("zero deadline must expire, got {other:?}"),
    }
    svc.shutdown();
    assert_eq!(svc.stats().expired, 1);
}

#[test]
fn deadline_pressure_drains_partial_batch_early() {
    let reg = MatrixRegistry::new();
    let a = laplacian(6);
    let n = a.n_rows();
    let h = reg.register_full("lap", a);
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 8,
            queue_capacity: 16,
            // Pathological linger: only deadline pressure can drain.
            linger: Duration::from_secs(60),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);
    let t = svc
        .submit(
            h,
            {
                let mut mv = MultiVec::zeros(n, 1);
                mv.set_column(0, &pseudo_rhs(n, 2));
                mv
            },
            RequestOptions {
                deadline: Some(Duration::from_millis(100)),
                ..Default::default()
            },
        )
        .unwrap();
    let out = t.wait().expect("deadline-pressed request must be served");
    assert!(
        out.latency < Duration::from_secs(5),
        "must drain near the deadline, not the 60s linger \
         (latency {:?})",
        out.latency
    );
    svc.shutdown();
}

#[test]
fn dist_engine_backed_registration_serves_requests() {
    let a = laplacian(8);
    let n = a.n_rows();
    // Single partition: the distributed row permutation is identity,
    // so solutions compare directly with the shared-memory path.
    let part = contiguous_partition(&a, 1);
    let dm = DistributedMatrix::new(&a, &part);
    assert!(
        dm.permutation().iter().enumerate().all(|(i, &p)| i == p),
        "1-partition permutation must be identity"
    );
    let engine = DistEngine::new(dm);

    let reg = MatrixRegistry::new();
    let h = reg.register_operator("lap-dist", Box::new(engine), OperatorClass::Spd);
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 3,
            queue_capacity: 16,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let rhss: Vec<Vec<f64>> = (0..3).map(|k| pseudo_rhs(n, 600 + k)).collect();
    let tickets: Vec<_> =
        rhss.iter().map(|b| svc.submit_one(h, b).unwrap()).collect();
    for (t, b) in tickets.into_iter().zip(&rhss) {
        let out = t.wait().unwrap();
        let want = solo_reference(&a, b, 1e-6);
        for (got, want) in out.solution.column(0).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
        }
    }
    svc.shutdown();
}

// ---------------------------------------------------------------------------
// Nonsymmetric tenants: typed operator-class registration, block
// BiCGStab dispatch, model-chosen widths, and failure isolation.
// ---------------------------------------------------------------------------

/// Diagonally dominant convection-style matrix: downstream coupling
/// stronger than upstream, genuinely nonsymmetric.
fn convection(nb: usize) -> BcrsMatrix {
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let mut d = Block3::scaled_identity(6.0);
        *d.get_mut(0, 1) = 0.3;
        t.add(i, i, d);
        if i + 1 < nb {
            t.add(i, i + 1, Block3::scaled_identity(-1.4));
            t.add(i + 1, i, Block3::scaled_identity(-0.6));
        }
    }
    t.build()
}

/// The direct solution of a nonsymmetric system.
fn direct_reference(a: &BcrsMatrix, b: &[f64]) -> Vec<f64> {
    oracle::reference::gauss_solve(&oracle::Dense::from_bcrs(a), b)
        .expect("nonsingular")
}

/// End-to-end acceptance path for nonsymmetric operators: a matrix
/// registered in the General class, a batch width of 16 (what the
/// per-column BiCGStab price picked on this operator at WSM), and
/// coalesced requests solved with block BiCGStab to each caller's
/// tolerance.
#[test]
fn nonsym_matrix_is_served_end_to_end_with_model_width() {
    let reg = MatrixRegistry::new();
    let a = convection(16);
    let n = a.n_rows();
    let h = reg.register_general("conv", a.clone());
    assert_eq!(reg.get(h).unwrap().class(), OperatorClass::General);

    let width: usize = 16;
    assert!(width >= 1, "model width must be usable");

    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: width.max(2),
            queue_capacity: 64,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let rhss: Vec<Vec<f64>> = (0..6).map(|k| pseudo_rhs(n, 900 + 10 * k)).collect();
    let tickets: Vec<_> =
        rhss.iter().map(|b| svc.submit_one(h, b).unwrap()).collect();
    for (t, b) in tickets.into_iter().zip(&rhss) {
        let out = t.wait().unwrap();
        let want = direct_reference(&a, b);
        for (got, want) in out.solution.column(0).iter().zip(&want) {
            assert!(
                (got - want).abs() <= 1e-4 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
        assert!(!out.solo_retried, "healthy batch needs no retries");
    }
    svc.shutdown();
    let st = svc.stats();
    assert_eq!(st.completed, 6);
    assert_eq!(st.failed, 0);
    assert!(st.batches < 6, "requests must coalesce, got {} batches", st.batches);
}

/// The failure-isolation contract on the BiCGStab path: a NaN
/// right-hand side poisons the coupled block solve (shadow Grams mix
/// every column), the poisoned request fails alone, and its batchmates
/// complete through the width-1 block-BiCGStab solo retry.
#[test]
fn poisoned_rhs_fails_alone_on_nonsym_batch() {
    let reg = MatrixRegistry::new();
    let a = convection(8);
    let n = a.n_rows();
    let h = reg.register_general("conv", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 4,
            queue_capacity: 64,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let mut rhss: Vec<Vec<f64>> =
        (0..4).map(|k| pseudo_rhs(n, 300 + 10 * k)).collect();
    rhss[2][5] = f64::NAN;
    let tickets: Vec<_> =
        rhss.iter().map(|b| svc.submit_one(h, b).unwrap()).collect();
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();

    match &results[2] {
        Err(SolveError::DidNotConverge { relative_residual, .. }) => {
            assert!(relative_residual.is_nan());
        }
        other => panic!("poisoned request must fail, got {other:?}"),
    }
    for (k, r) in results.iter().enumerate() {
        if k == 2 {
            continue;
        }
        let out = r.as_ref().expect("batchmate must complete");
        assert_eq!(
            out.batch_width, 4,
            "mate must actually have shared the poisoned batch"
        );
        assert!(out.solo_retried, "mates complete via the solo retry");
        let want = direct_reference(&a, &rhss[k]);
        for (got, want) in out.solution.column(0).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
        }
    }
    svc.shutdown();
    let st = svc.stats();
    assert_eq!(st.completed, 3);
    assert_eq!(st.failed, 1);
    // The NaN column broke the whole batch down: every column retried.
    assert_eq!(st.solo_retries, 4);
}

/// Two tenants submitting the *same* right-hand side make the batch
/// exactly rank-deficient — block BiCGStab reports the `R̃ᵀV` rank
/// collapse instead of papering over it, and both requests complete
/// through the solo retry.
#[test]
fn duplicate_rhs_batch_recovers_via_solo_retry() {
    let reg = MatrixRegistry::new();
    let a = convection(8);
    let n = a.n_rows();
    let h = reg.register_general("conv", a.clone());
    let cfg = ServiceConfig {
        policy: BatchPolicy {
            max_batch: 2,
            queue_capacity: 64,
            linger: Duration::from_secs(5),
        },
        ..ServiceConfig::default()
    };
    let svc = SolveService::start(reg, cfg);

    let b = pseudo_rhs(n, 4242);
    let t1 = svc.submit_one(h, &b).unwrap();
    let t2 = svc.submit_one(h, &b).unwrap();
    let want = direct_reference(&a, &b);
    for t in [t1, t2] {
        let out = t.wait().expect("duplicate RHS must still be served");
        assert_eq!(out.batch_width, 2, "both must share the batch");
        assert!(out.solo_retried, "rank-deficient batch resolves solo");
        for (got, want) in out.solution.column(0).iter().zip(&want) {
            assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
        }
    }
    svc.shutdown();
    assert_eq!(svc.stats().completed, 2);
}

#[test]
fn unregister_fails_queued_requests_cleanly() {
    let reg = MatrixRegistry::new();
    let a = laplacian(6);
    let n = a.n_rows();
    let h = reg.register_full("lap", a);
    let svc = SolveService::start(
        reg,
        ServiceConfig {
            policy: BatchPolicy {
                max_batch: 8,
                queue_capacity: 64,
                linger: Duration::from_secs(5),
            },
            ..Default::default()
        },
    );
    // Long linger: these stay queued until the revocation sweep.
    let tickets: Vec<_> =
        (0..3).map(|k| svc.submit_one(h, &pseudo_rhs(n, 7 + k)).unwrap()).collect();
    assert!(svc.unregister(h));
    for t in tickets {
        assert_eq!(t.wait().unwrap_err(), SolveError::MatrixUnregistered);
    }
    assert_eq!(svc.drop_stats().unregistered, 3);
    // Later submits see an unknown handle, not a panic.
    assert!(matches!(
        svc.submit_one(h, &pseudo_rhs(n, 1)),
        Err(SubmitError::UnknownMatrix)
    ));
    // The workers survived the sweep: a fresh registration still solves.
    let a2 = laplacian(6);
    let h2 = svc.registry().register_full("lap2", a2.clone());
    let b = pseudo_rhs(n, 5);
    let out = svc.submit_one(h2, &b).unwrap().wait().unwrap();
    let want = solo_reference(&a2, &b, 1e-6);
    for (got, want) in out.solution.column(0).iter().zip(&want) {
        assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
    }
    svc.shutdown();
}

#[test]
fn unregister_lets_dispatched_batches_finish() {
    let reg = MatrixRegistry::new();
    let a = laplacian(40);
    let n = a.n_rows();
    let h = reg.register_full("lap", a.clone());
    let svc = SolveService::start(
        reg,
        ServiceConfig {
            policy: BatchPolicy {
                max_batch: 4,
                queue_capacity: 64,
                linger: Duration::ZERO,
            },
            ..Default::default()
        },
    );
    let b = pseudo_rhs(n, 99);
    let t = svc.submit_one(h, &b).unwrap();
    // Give the zero-linger dispatch a moment, then yank the handle.
    std::thread::sleep(Duration::from_millis(20));
    svc.unregister(h);
    match t.wait() {
        Ok(out) => {
            let want = solo_reference(&a, &b, 1e-6);
            for (got, want) in out.solution.column(0).iter().zip(&want) {
                assert!((got - want).abs() <= 1e-5 * want.abs().max(1.0));
            }
        }
        // The only acceptable failure is the clean revocation sweep —
        // the unregister racing ahead of the dispatch. Anything else
        // (a panic, a stranded ticket) fails the test.
        Err(e) => assert_eq!(e, SolveError::MatrixUnregistered),
    }
    svc.shutdown();
}
