//! Concurrency stress: N producer threads hammer a bounded queue under
//! forced backpressure and randomized deadlines. Asserts no deadlock
//! (watchdog), no lost or duplicated completions (every ticket resolves
//! exactly once — a duplicate panics the worker, which `shutdown()`
//! propagates), and clean shutdown with accounting that balances.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mrhs_cluster::watchdog::with_deadline;
use mrhs_service::{
    BatchPolicy, MatrixRegistry, RequestOptions, ServiceConfig, SolveError,
    SolveService, SubmitError,
};
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

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Default)]
struct Tally {
    submitted: u64,
    ok: u64,
    expired: u64,
    other_err: u64,
    rejected_retries: u64,
}

#[test]
fn producers_vs_bounded_queue_under_backpressure() {
    with_deadline(Duration::from_secs(120), || {
        const PRODUCERS: usize = 4;
        const REQUESTS: usize = 40;

        let reg = MatrixRegistry::new();
        // Large enough that one solve takes real time, so producers
        // outrun the worker and hit the queue bound.
        let a = laplacian(120);
        let n = a.n_rows();
        let h = reg.register_full("lap", a);
        let cfg = ServiceConfig {
            workers: 2,
            policy: BatchPolicy {
                max_batch: 4,
                queue_capacity: 6,
                linger: Duration::from_micros(500),
            },
        };
        let svc = Arc::new(SolveService::start(reg, cfg));

        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let svc = svc.clone();
                thread::spawn(move || {
                    let mut rng = 0x5eed ^ (p as u64) << 32;
                    let mut tally = Tally::default();
                    // Submit everything up front (retrying on
                    // backpressure) so in-flight work far exceeds the
                    // 6-column queue bound, then collect completions.
                    let mut tickets = Vec::with_capacity(REQUESTS);
                    for k in 0..REQUESTS {
                        let mut rhs = MultiVec::zeros(n, 1);
                        let col: Vec<f64> = (0..n)
                            .map(|_| {
                                splitmix(&mut rng) as f64 / u64::MAX as f64 - 0.5
                            })
                            .collect();
                        rhs.set_column(0, &col);
                        // ~30% of requests carry a tight-ish random
                        // deadline; some will expire under backlog.
                        let deadline = if splitmix(&mut rng) % 10 < 3 {
                            Some(Duration::from_micros(splitmix(&mut rng) % 20_000))
                        } else {
                            None
                        };
                        let opts =
                            RequestOptions { deadline, ..Default::default() };
                        let ticket = loop {
                            match svc.submit(h, rhs.clone(), opts.clone()) {
                                Ok(t) => break t,
                                Err(SubmitError::QueueFull { retry_after }) => {
                                    tally.rejected_retries += 1;
                                    thread::sleep(
                                        retry_after.min(Duration::from_millis(2)),
                                    );
                                }
                                Err(e) => {
                                    panic!("producer {p} req {k}: {e:?}")
                                }
                            }
                        };
                        tally.submitted += 1;
                        tickets.push((k, ticket));
                    }
                    for (k, ticket) in tickets {
                        match ticket.wait() {
                            Ok(out) => {
                                assert!(out
                                    .solution
                                    .as_slice()
                                    .iter()
                                    .all(|v| v.is_finite()));
                                tally.ok += 1;
                            }
                            Err(SolveError::DeadlineExceeded { .. }) => {
                                tally.expired += 1
                            }
                            Err(e) => {
                                eprintln!("producer {p} req {k}: {e:?}");
                                tally.other_err += 1;
                            }
                        }
                    }
                    tally
                })
            })
            .collect();

        let mut total = Tally::default();
        for p in producers {
            let t = p.join().expect("producer panicked");
            total.submitted += t.submitted;
            total.ok += t.ok;
            total.expired += t.expired;
            total.other_err += t.other_err;
            total.rejected_retries += t.rejected_retries;
        }

        // Clean shutdown; propagates worker panics (e.g. a duplicated
        // completion).
        svc.shutdown();
        let st = svc.stats();

        assert_eq!(
            total.submitted,
            (PRODUCERS * REQUESTS) as u64,
            "every request must eventually be accepted"
        );
        assert_eq!(st.accepted, total.submitted);
        assert_eq!(
            st.completed + st.failed,
            st.accepted,
            "no lost completions: accepted == completed + failed"
        );
        assert_eq!(st.completed, total.ok);
        assert_eq!(st.failed, total.expired + total.other_err);
        assert_eq!(total.other_err, 0, "healthy solves must not fail");
        assert!(
            total.rejected_retries > 0,
            "queue bound must actually exert backpressure \
             (cap 6 columns, {} producers)",
            PRODUCERS
        );
        assert_eq!(st.rejected, total.rejected_retries);
        assert_eq!(
            st.coalesced_columns,
            st.accepted - st.expired,
            "every accepted, non-expired column is solved in exactly \
             one batch"
        );
    });
}

#[test]
fn shutdown_drains_pending_requests() {
    with_deadline(Duration::from_secs(60), || {
        let reg = MatrixRegistry::new();
        let a = laplacian(40);
        let n = a.n_rows();
        let h = reg.register_full("lap", a);
        let cfg = ServiceConfig {
            policy: BatchPolicy {
                max_batch: 8,
                queue_capacity: 64,
                // Linger far longer than the test: only the shutdown
                // flush can dispatch these.
                linger: Duration::from_secs(600),
            },
            ..ServiceConfig::default()
        };
        let svc = SolveService::start(reg, cfg);
        let tickets: Vec<_> = (0..5)
            .map(|k| {
                let mut rhs = MultiVec::zeros(n, 1);
                let mut rng = 7000 + k as u64;
                let col: Vec<f64> = (0..n)
                    .map(|_| splitmix(&mut rng) as f64 / u64::MAX as f64 - 0.5)
                    .collect();
                rhs.set_column(0, &col);
                svc.submit(h, rhs, RequestOptions::default()).unwrap()
            })
            .collect();
        svc.shutdown();
        for t in tickets {
            t.wait().expect("shutdown must drain, not drop, the queue");
        }
        assert_eq!(svc.stats().completed, 5);
    });
}
