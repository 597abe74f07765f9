//! Bitwise-determinism regression tests (ISSUE satellite 2).
//!
//! The contract these tests pin down:
//!
//! * **Full storage**: chunking never changes the bits. Every output
//!   row is accumulated entirely within one chunk in the fixed per-row
//!   block order, so `Schedule::Chunked` at ANY chunk count is bit-
//!   identical to `gspmv_serial`, and the auto driver `gspmv` is too —
//!   whatever `RAYON_NUM_THREADS` says.
//! * **Symmetric storage**: `SymmetricBcrs::multiply` is one serial
//!   pass of one portable kernel, so its bits are those of a plain
//!   row-order reference, whatever the kernel backend or pool width the
//!   process runs under.
//!
//! The matrices here are sized past `PARALLEL_THRESHOLD` (2^14 stored
//! blocks) so the auto driver genuinely takes its parallel path; the
//! cluster watchdog converts any deadlock into a test failure instead
//! of a hang.
//!
//! These cover in-process chunk-count variation; the CI matrix re-runs
//! the suite under several `RAYON_NUM_THREADS` values for cross-process
//! pool-width coverage.

use mrhs_cluster::watchdog::with_deadline;
use mrhs_sparse::{
    active_backend, gspmv, gspmv_on, gspmv_serial, BcrsMatrix, Block3,
    BlockTripletBuilder, MultiVec, Schedule, SymmetricBcrs,
};
use std::time::Duration;

/// `gspmv_on` through the active backend into a fresh output.
fn run(a: &BcrsMatrix, x: &MultiVec, schedule: Schedule) -> MultiVec {
    let mut y = MultiVec::zeros(a.n_rows(), x.m());
    gspmv_on(active_backend(), a, x, &mut y, schedule);
    y
}

/// Deterministic banded SPD matrix with `nb` block rows and `band`
/// symmetric neighbour couplings — no RNG, so the test is self-
/// contained and reproducible by inspection.
fn banded(nb: usize, band: usize) -> mrhs_sparse::BcrsMatrix {
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let mut d = Block3::scaled_identity(5.0 + band as f64);
        *d.get_mut(0, 1) = 0.25;
        *d.get_mut(1, 0) = 0.25;
        t.add(i, i, d);
        for off in 1..=band {
            if i + off < nb {
                let w = -1.0 / (1.0 + off as f64 + (i % 7) as f64 * 0.125);
                let mut b = Block3::scaled_identity(w);
                *b.get_mut(0, 2) = w * 0.5;
                t.add_symmetric_pair(i, i + off, b);
            }
        }
    }
    t.build()
}

fn inputs(n: usize, m: usize) -> MultiVec {
    let mut x = MultiVec::zeros(n, m);
    for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
        // Irrational stride keeps values non-repeating without an RNG.
        *v = ((i as f64) * 0.618_033_988_749_894_8).fract() * 4.0 - 2.0;
    }
    x
}

fn assert_bits(a: &MultiVec, b: &MultiVec, ctx: &str) {
    oracle::tolerance::assert_bitwise(a.as_slice(), b.as_slice(), ctx);
}

#[test]
fn full_storage_bits_are_chunk_invariant() {
    with_deadline(Duration::from_secs(120), || {
        // 2400 × 13 ≈ 31k stored blocks — well past the threshold.
        let a = banded(2400, 6);
        assert!(a.nnz_blocks() >= 1 << 14, "matrix must cross the threshold");
        for m in [1usize, 3, 16] {
            let x = inputs(a.n_cols(), m);
            let mut serial = MultiVec::zeros(a.n_rows(), m);
            gspmv_serial(&a, &x, &mut serial);

            let mut auto = MultiVec::zeros(a.n_rows(), m);
            gspmv(&a, &x, &mut auto);
            assert_bits(&serial, &auto, &format!("auto vs serial m={m}"));

            for nchunks in [1usize, 2, 4, 8, 64] {
                let y = run(&a, &x, Schedule::Chunked(nchunks));
                assert_bits(
                    &serial,
                    &y,
                    &format!("chunked({nchunks}) vs serial m={m}"),
                );
            }
        }
    });
}

/// `SymmetricBcrs::multiply` against the same two passes written out
/// row by row — diagonal block, then the row's upper blocks, then each
/// upper block's transpose added into its target row — in the
/// specialized kernel's arithmetic (`a0·x0 + a1·x1 + a2·x2` per element,
/// added to the accumulator). Bit for bit at every specialized width
/// tried, so no backend choice or pool width (the CI matrix re-runs this
/// file under each) can reach the product.
#[test]
fn symmetric_product_bits_are_backend_and_pool_invariant() {
    with_deadline(Duration::from_secs(120), || {
        let a = banded(2400, 6);
        let s = SymmetricBcrs::from_full(&a, 1e-12).expect("symmetric");
        let (row_ptr, col_idx, upper) = s.upper_parts();
        let madd = |acc: &mut [f64], b: &Block3, xs: &[f64], m: usize, t: bool| {
            for i in 0..3 {
                let at = |k: usize| if t { b.get(k, i) } else { b.get(i, k) };
                for j in 0..m {
                    acc[i * m + j] +=
                        at(0) * xs[j] + at(1) * xs[m + j] + at(2) * xs[2 * m + j];
                }
            }
        };
        for m in [1usize, 4, 16] {
            let x = inputs(s.n_rows(), m);
            let (xs, w) = (x.as_slice(), 3 * m);
            let mut want = vec![0.0; s.n_rows() * m];
            for bi in 0..s.nb_rows() {
                let mut acc = vec![0.0; w];
                madd(&mut acc, &s.diag_blocks()[bi], &xs[bi * w..][..w], m, false);
                for k in row_ptr[bi]..row_ptr[bi + 1] {
                    let bj = col_idx[k] as usize;
                    madd(&mut acc, &upper[k], &xs[bj * w..][..w], m, false);
                }
                want[bi * w..][..w].copy_from_slice(&acc);
            }
            for bi in 0..s.nb_rows() {
                for k in row_ptr[bi]..row_ptr[bi + 1] {
                    let mut acc = vec![0.0; w];
                    madd(&mut acc, &upper[k], &xs[bi * w..][..w], m, true);
                    let target = &mut want[col_idx[k] as usize * w..][..w];
                    for (t, v) in target.iter_mut().zip(&acc) {
                        *t += v;
                    }
                }
            }
            let mut got = MultiVec::zeros(s.n_rows(), m);
            s.multiply(xs, got.as_mut_slice(), m);
            oracle::tolerance::assert_bitwise(
                &want,
                got.as_slice(),
                &format!("m={m}"),
            );
        }
    });
}

/// Below the parallel threshold the auto drivers take the serial path;
/// their output must be identical to the serial kernels (matrix-only
/// decision — still no pool-width dependence).
#[test]
fn small_matrices_take_identical_serial_path() {
    with_deadline(Duration::from_secs(60), || {
        let a = banded(40, 2);
        let x = inputs(a.n_cols(), 8);

        let mut serial = MultiVec::zeros(a.n_rows(), 8);
        gspmv_serial(&a, &x, &mut serial);
        let mut auto = MultiVec::zeros(a.n_rows(), 8);
        gspmv(&a, &x, &mut auto);
        assert_bits(&serial, &auto, "full auto below threshold");
    });
}

// ---------------------------------------------------------------------------
// Block-BiCGStab determinism (nonsymmetric solver over full storage).
//
// The solver touches the matrix only through GSPMV, and every dense
// reduction in it (Gram matrices, coefficient solves, update sweeps)
// is sequential — so the full-storage chunk-invariance contract above
// lifts to whole *solves*: for any one kernel kind, the solution bits
// must be identical whether the operator runs the serial kernel, the
// auto driver (which goes parallel past the threshold), or any forced
// chunk count. The CI matrix re-runs this suite under several
// RAYON_NUM_THREADS values and forced MRHS_KERNEL_BACKEND kinds for
// cross-process coverage.
// ---------------------------------------------------------------------------

use mrhs_solvers::{block_bicgstab, block_cg, cg, LinearOperator, SolveConfig};
use mrhs_sparse::{backend_available, Backend, KernelKind};

/// Deterministic nonsymmetric banded matrix (convection-style: the
/// downstream coupling is stronger than the upstream one), diagonally
/// dominant so BiCGStab converges, no RNG.
fn nonsym_banded(nb: usize, band: usize) -> mrhs_sparse::BcrsMatrix {
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let mut d = Block3::scaled_identity(6.0 + 2.0 * band as f64);
        *d.get_mut(0, 1) = 0.3;
        t.add(i, i, d);
        for off in 1..=band {
            if i + off < nb {
                let w = -1.0 / (1.0 + off as f64 + (i % 5) as f64 * 0.25);
                let mut down = Block3::scaled_identity(w * 1.4);
                *down.get_mut(0, 2) = w * 0.25;
                t.add(i, i + off, down);
                t.add(i + off, i, Block3::scaled_identity(w * 0.6));
            }
        }
    }
    t.build()
}

/// Wraps a matrix with a pinned kernel kind and sweep schedule — the
/// axis the solve bits must NOT depend on — so a whole solve runs
/// through exactly one (kind, schedule) pair.
struct PinnedOp<'a> {
    a: &'a mrhs_sparse::BcrsMatrix,
    kind: KernelKind,
    sweep: Schedule,
}

impl LinearOperator for PinnedOp<'_> {
    fn dim(&self) -> usize {
        self.a.n_rows()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let xv = MultiVec::from_columns(&[x]);
        let mut yv = MultiVec::zeros(self.dim(), 1);
        self.apply_multi(&xv, &mut yv);
        y.copy_from_slice(&yv.column(0));
    }
    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        gspmv_on(Backend::forced(self.kind), self.a, x, y, self.sweep);
    }
    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        LinearOperator::diagonal_blocks(self.a)
    }
}

#[test]
fn block_bicgstab_bits_are_schedule_invariant_per_kernel_kind() {
    with_deadline(Duration::from_secs(300), || {
        // 2400 × 13 ≈ 31k stored blocks — the auto driver genuinely
        // goes parallel.
        let a = nonsym_banded(2400, 6);
        assert!(a.nnz_blocks() >= 1 << 14, "matrix must cross the threshold");
        let m = 4;
        let b = inputs(a.n_rows(), m);

        let cfg = SolveConfig { tol: 1e-10, max_iter: 400 };
        for kind in KernelKind::ALL {
            if !backend_available(kind) {
                continue;
            }
            let solve = |sweep: Schedule| {
                let op = PinnedOp { a: &a, kind, sweep };
                let mut x = MultiVec::zeros(a.n_rows(), m);
                let res = block_bicgstab(&op, &b, &mut x, &cfg);
                (x, res)
            };

            let (x_serial, res_serial) = solve(Schedule::Serial);
            assert!(res_serial.converged, "{kind:?}: {res_serial:?}");

            // Repeated run: bit-stable.
            let (x_again, res_again) = solve(Schedule::Serial);
            assert_bits(
                &x_serial,
                &x_again,
                &format!("{kind:?} repeated serial solve"),
            );
            assert_eq!(res_serial.iterations, res_again.iterations);

            // Auto driver (parallel past the threshold): same bits.
            let (x_auto, res_auto) = solve(Schedule::Auto);
            assert_bits(
                &x_serial,
                &x_auto,
                &format!("{kind:?} auto vs serial solve"),
            );
            assert_eq!(res_serial.iterations, res_auto.iterations);

            // Any forced chunk count: same bits.
            for nchunks in [2usize, 5, 16] {
                let (x_c, res_c) = solve(Schedule::Chunked(nchunks));
                assert_bits(
                    &x_serial,
                    &x_c,
                    &format!("{kind:?} chunked({nchunks}) solve"),
                );
                assert_eq!(res_serial.iterations, res_c.iterations);
            }
        }
    });
}

/// Below-threshold path: the solver on the plain `BcrsMatrix` operator
/// (auto scheduling, auto kernel kind) must be bit-identical across
/// repeated solves — the whole-solve analogue of
/// `small_matrices_take_identical_serial_path`.
#[test]
fn block_bicgstab_repeated_solves_are_bit_stable_below_threshold() {
    with_deadline(Duration::from_secs(60), || {
        let a = nonsym_banded(40, 2);
        let m = 3;
        let b = inputs(a.n_rows(), m);
        let cfg = SolveConfig { tol: 1e-11, max_iter: 400 };

        let mut x1 = MultiVec::zeros(a.n_rows(), m);
        let res1 = block_bicgstab(&a, &b, &mut x1, &cfg);
        assert!(res1.converged, "{res1:?}");

        let mut x2 = MultiVec::zeros(a.n_rows(), m);
        let res2 = block_bicgstab(&a, &b, &mut x2, &cfg);
        assert_bits(&x1, &x2, "repeated below-threshold solve");
        assert_eq!(res1.iterations, res2.iterations);
        oracle::tolerance::assert_bitwise(
            &res1.residual_norms,
            &res2.residual_norms,
            "repeated solve residual norms",
        );
    });
}

// ---------------------------------------------------------------------------
// CG / block-CG determinism (block-Jacobi preconditioned, SPD, full
// storage). The preconditioner is built serially from the diagonal and
// applied inside the solvers' serial sweeps, so the contract is the
// one above: per kernel kind, solve bits do not depend on the sweep
// schedule, the pool width, or whether telemetry is counting.
// ---------------------------------------------------------------------------

/// The determinism suite's operator forwards the diagonal, so these
/// solves run preconditioned: through it `block_cg` takes the
/// iterations it takes on the bare matrix with the same kernels, and
/// fewer than through the same operator with the hook left at `None`.
#[test]
fn pinned_op_forwards_diagonal_blocks() {
    struct Hidden<'a>(PinnedOp<'a>);
    impl LinearOperator for Hidden<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y)
        }
        fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
            self.0.apply_multi(x, y)
        }
    }

    // Diagonal blocks over two decades, so hiding them costs iterations.
    let nb = 60;
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let scale = [4.0, 60.0, 500.0][i % 3];
        let mut d = Block3::scaled_identity(scale);
        *d.get_mut(0, 1) = 0.25 * scale;
        *d.get_mut(1, 0) = 0.25 * scale;
        t.add(i, i, d);
        if i + 1 < nb {
            t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.5));
        }
    }
    let a = t.build();
    let b = inputs(a.n_rows(), 4);
    let cfg = SolveConfig { tol: 1e-10, max_iter: 2000 };
    let iterations = |op: &dyn LinearOperator| {
        let mut x = MultiVec::zeros(a.n_rows(), 4);
        let res = block_cg(op, &b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");
        res.iterations
    };
    let pinned =
        || PinnedOp { a: &a, kind: active_backend().kind(), sweep: Schedule::Auto };
    assert_eq!(pinned().diagonal_blocks(), Some(a.diagonal_blocks()));
    assert_eq!(iterations(&pinned()), iterations(&a));
    assert!(iterations(&pinned()) < iterations(&Hidden(pinned())));
}

#[test]
fn cg_and_block_cg_bits_are_schedule_and_telemetry_invariant_per_kernel_kind() {
    with_deadline(Duration::from_secs(300), || {
        let a = banded(2400, 6);
        assert!(a.nnz_blocks() >= 1 << 14, "matrix must cross the threshold");
        let m = 4;
        let b = inputs(a.n_rows(), m);
        let cfg = SolveConfig { tol: 1e-10, max_iter: 400 };

        for kind in KernelKind::ALL {
            if !backend_available(kind) {
                continue;
            }
            // (scalar solution, block solution, iterations of each)
            let solve = |sweep: Schedule| {
                let op = PinnedOp { a: &a, kind, sweep };
                let mut x1 = vec![0.0; a.n_rows()];
                let r1 = cg(&op, &b.column(0), &mut x1, &cfg);
                assert!(r1.converged, "{kind:?} cg: {r1:?}");
                let mut xm = MultiVec::zeros(a.n_rows(), m);
                let rm = block_cg(&op, &b, &mut xm, &cfg);
                assert!(rm.converged, "{kind:?} block_cg: {rm:?}");
                (MultiVec::from_vec(x1), xm, [r1.iterations, rm.iterations])
            };
            let same = |got: &(MultiVec, MultiVec, [usize; 2]), what: &str| {
                let want = solve(Schedule::Serial);
                assert_bits(&want.0, &got.0, &format!("{kind:?} cg {what}"));
                assert_bits(&want.1, &got.1, &format!("{kind:?} block_cg {what}"));
                assert_eq!(want.2, got.2, "{kind:?} iterations {what}");
            };

            same(&solve(Schedule::Serial), "repeated serial solve");
            same(&solve(Schedule::Auto), "auto vs serial solve");
            for nchunks in [3usize, 16] {
                same(
                    &solve(Schedule::Chunked(nchunks)),
                    &format!("chunked({nchunks}) solve"),
                );
            }

            // Counting must not change a bit. The flag is process-wide;
            // every other test here is indifferent to it.
            let was = mrhs_core::telemetry::enabled();
            mrhs_core::telemetry::set_enabled(!was);
            let flipped = solve(Schedule::Auto);
            mrhs_core::telemetry::set_enabled(was);
            same(&flipped, "with the telemetry flag flipped");
        }
    });
}
