//! The block solvers allocate per *solve*, never per *iteration*: the
//! m×m Gram results, LU operands, coefficient blocks and norm buffers
//! — and block CG's preconditioner and its inverse blocks — are set up
//! once and the dense sweeps work in caller buffers. A counting global
//! allocator observes two solves that differ only in their iteration
//! count. Every solve — `block_cg` and `cg`, its width-1 case, and
//! `block_bicgstab` — and every Chebyshev apply draws its blocks,
//! buffers and Gauss–Seidel's split from one per-thread workspace that
//! it takes and gives back, so a warm one allocates only what it
//! returns. The allocator counts per thread, so the test harness's own
//! threads cannot disturb the comparison.

use mrhs_solvers::{
    block_bicgstab, block_cg, cg, ChebyshevSqrt, LinearOperator, SolveConfig,
};
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder, MultiVec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard, PoisonError};

thread_local! {
    // Const-initialized and without a destructor: reading it inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
        BYTES.with(|bytes| bytes.set(bytes.get() + layout.size()));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Held by each test that runs products on the kernel pool: a thread
/// waiting on its own scope runs whatever job is queued, so another
/// test's jobs — and what they allocate — would land in its count.
fn hold_kernel_pool() -> MutexGuard<'static, ()> {
    static POOL: Mutex<()> = Mutex::new(());
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tridiagonal `(−1−skew, 4, −1+skew)` applied column by column with no
/// allocation of its own, so every counted allocation is the solver's.
/// It names its 3×3 diagonal blocks (`n` is a multiple of 3), so block
/// CG runs preconditioned.
struct Tridiagonal {
    n: usize,
    skew: f64,
}

impl LinearOperator for Tridiagonal {
    fn dim(&self) -> usize {
        self.n
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..self.n {
            let below = if i > 0 { x[i - 1] } else { 0.0 };
            let above = if i + 1 < self.n { x[i + 1] } else { 0.0 };
            y[i] =
                4.0 * x[i] - (1.0 + self.skew) * below - (1.0 - self.skew) * above;
        }
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        let m = x.m();
        for i in 0..self.n {
            for j in 0..m {
                let below = if i > 0 { x.get(i - 1, j) } else { 0.0 };
                let above = if i + 1 < self.n { x.get(i + 1, j) } else { 0.0 };
                *y.get_mut(i, j) = 4.0 * x.get(i, j)
                    - (1.0 + self.skew) * below
                    - (1.0 - self.skew) * above;
            }
        }
    }

    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        let (lo, hi) = (-1.0 - self.skew, -1.0 + self.skew);
        let block =
            Block3::from_rows([[4.0, hi, 0.0], [lo, 4.0, hi], [0.0, lo, 4.0]]);
        Some(vec![block; self.n / 3])
    }
}

fn allocations_during(
    solve: impl FnOnce() -> usize,
    expect_iterations: usize,
) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let iterations = solve();
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(iterations, expect_iterations, "solve must run to its cap");
    after - before
}

#[test]
fn block_solver_iterations_do_not_allocate() {
    // n ≫ m·iterations, so the block Krylov space never saturates and
    // no solve breaks down before its cap.
    let n = 2001;
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    for m in [4usize, 8, 16] {
        let b = MultiVec::from_flat(n, m, (0..n * m).map(|_| next()).collect());
        // An unreachable tolerance: both solves stop at `max_iter`.
        let capped = |max_iter| SolveConfig { tol: 1e-300, max_iter };

        let spd = Tridiagonal { n, skew: 0.0 };
        let cg_allocs = |iters: usize| {
            let mut x = MultiVec::zeros(n, m);
            allocations_during(
                || block_cg(&spd, &b, &mut x, &capped(iters)).iterations,
                iters,
            )
        };
        // The first solve also pays one-time lazy set-up (backend
        // selection, telemetry statics); leave it out of the count.
        cg_allocs(1);
        assert_eq!(cg_allocs(3), cg_allocs(20), "block_cg m={m}");

        let general = Tridiagonal { n, skew: 0.3 };
        let bicgstab_allocs = |iters: usize| {
            let mut x = MultiVec::zeros(n, m);
            allocations_during(
                || block_bicgstab(&general, &b, &mut x, &capped(iters)).iterations,
                iters,
            )
        };
        bicgstab_allocs(1);
        assert_eq!(bicgstab_allocs(3), bicgstab_allocs(12), "block_bicgstab m={m}");
    }
}

/// A symmetric block-tridiagonal `BcrsMatrix` with SPD diagonal
/// blocks: it hands over its block rows, so the solvers run
/// Gauss–Seidel on it.
fn block_tridiagonal(nb: usize) -> BcrsMatrix {
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let e = [0.3, -0.2, 0.1 * (i % 5) as f64];
        t.add(i, i, Block3::scaled_identity(6.0) + Block3::outer(e, e));
        if i + 1 < nb {
            t.add_symmetric_pair(
                i,
                i + 1,
                Block3::outer(e, [0.5, 0.4, -0.3]) - Block3::IDENTITY,
            );
        }
    }
    t.build()
}

/// The Gauss–Seidel path: a `BcrsMatrix` hands over its block rows, so
/// `block_cg` at every width and `cg` iterate on sweeps, and no
/// iteration allocates.
#[test]
fn sgs_iterations_do_not_allocate() {
    let a = block_tridiagonal(667);
    assert!(a.block_rows().is_some());
    let n = a.n_rows();
    let capped = |max_iter| SolveConfig { tol: 1e-300, max_iter };
    for m in [1usize, 2, 4, 8, 16] {
        let b = MultiVec::from_flat(
            n,
            m,
            (0..n * m).map(|k| ((k * 7919) % 113) as f64 / 113.0 - 0.5).collect(),
        );
        let block_allocs = |iters: usize| {
            let mut x = MultiVec::zeros(n, m);
            allocations_during(
                || block_cg(&a, &b, &mut x, &capped(iters)).iterations,
                iters,
            )
        };
        block_allocs(1);
        assert_eq!(block_allocs(3), block_allocs(20), "block_cg m={m}");
    }
    let b: Vec<f64> =
        (0..n).map(|k| ((k * 7919) % 113) as f64 / 113.0 - 0.5).collect();
    let cg_allocs = |iters: usize| {
        let mut x = vec![0.0; n];
        allocations_during(|| cg(&a, &b, &mut x, &capped(iters)).iterations, iters)
    };
    cg_allocs(1);
    assert_eq!(cg_allocs(3), cg_allocs(20), "cg");
}

/// A warm `cg` solve allocates nothing of its own: its width-1 blocks,
/// the split and the sweeps' blocks come out of the thread's workspace,
/// and its result holds no `Vec` — at n = 2,001 and at the
/// 30,000-particle size (n = 90,000), where each fresh vector would be
/// 720 KB of new pages.
#[test]
fn warm_cg_solve_does_not_allocate() {
    let _pool = hold_kernel_pool();
    for nb in [667, 30_000] {
        let a = block_tridiagonal(nb);
        let n = a.n_rows();
        let b: Vec<f64> =
            (0..n).map(|k| ((k * 7919) % 113) as f64 / 113.0 - 0.5).collect();
        let cfg = SolveConfig { tol: 1e-8, max_iter: 200 };
        let solve = || {
            let mut x = vec![0.0; n];
            let before = ALLOCATIONS.with(Cell::get);
            let res = cg(&a, &b, &mut x, &cfg);
            let after = ALLOCATIONS.with(Cell::get);
            assert!(res.converged && res.iterations > 0, "{res:?}");
            after - before
        };
        solve();
        // The solve's one product (the initial residual) runs on the
        // kernel pool, whose chunked schedule may allocate its tasks at
        // this size: that, and nothing of the solver's, is allowed.
        let mut y = vec![0.0; n];
        let before = ALLOCATIONS.with(Cell::get);
        a.apply(&b, &mut y);
        let product = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(solve(), product, "warm cg at n = {n}");
    }
}

/// A warm `block_cg` solve allocates only what it returns — the three
/// `Vec`s of its `BlockSolveResult` — and what its one product (the
/// initial residual) allocates on the kernel pool: `R`, `R̂`, `P`, `Q`,
/// the split, the sweeps' blocks, the m×m buffers and the per-column
/// vectors come out of the thread's workspace. At m = 1 and 8, at
/// n = 2,001 and at the 30,000-particle size (n = 90,000).
#[test]
fn warm_block_cg_solve_allocates_only_its_result() {
    let _pool = hold_kernel_pool();
    for nb in [667, 30_000] {
        let a = block_tridiagonal(nb);
        let n = a.n_rows();
        for m in [1usize, 8] {
            let b = MultiVec::from_flat(
                n,
                m,
                (0..n * m)
                    .map(|k| ((k * 7919) % 113) as f64 / 113.0 - 0.5)
                    .collect(),
            );
            let cfg = SolveConfig { tol: 1e-8, max_iter: 200 };
            let mut x = MultiVec::zeros(n, m);
            let mut solve = || {
                x.fill(0.0);
                let before = ALLOCATIONS.with(Cell::get);
                let res = block_cg(&a, &b, &mut x, &cfg);
                let after = ALLOCATIONS.with(Cell::get);
                assert!(res.converged && res.iterations > 0, "{res:?}");
                after - before
            };
            solve();
            // The product as the solve runs it: one column through
            // `apply`, more through `apply_multi`.
            let mut y = MultiVec::zeros(n, m);
            let before = ALLOCATIONS.with(Cell::get);
            if m == 1 {
                a.apply(b.as_slice(), y.as_mut_slice());
            } else {
                a.apply_multi(&b, &mut y);
            }
            let product = ALLOCATIONS.with(Cell::get) - before;
            assert_eq!(solve(), 3 + product, "warm block_cg at m = {m}, n = {n}");
        }
    }
}

/// Allocations and bytes allocated on this thread while `f` runs.
fn counted(f: impl FnOnce()) -> (usize, usize) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    f();
    (ALLOCATIONS.with(Cell::get) - before.0, BYTES.with(Cell::get) - before.1)
}

/// Every solver draws its blocks from the one per-thread workspace, so
/// a chunk head's Chebyshev block, a BiCGStab batch and a CG solve
/// reuse the same memory. After a width-16 `block_cg`, a width-8
/// `block_bicgstab` and a width-8 Chebyshev apply take no new `n × m`
/// block; a warm `block_bicgstab` at m = 1 and 8 allocates only the
/// three `Vec`s of its result, beside what the operator allocates for
/// it (`Tridiagonal`'s diagonal blocks, a `BcrsMatrix`'s products on
/// the kernel pool); and Chebyshev applies at width 8, then 1, then 8
/// again allocate nothing. At n = 2,001 and 90,000. BiCGStab runs
/// block-Jacobi on `Tridiagonal`, which allocates nothing but the
/// diagonal it names, and Gauss–Seidel on the `BcrsMatrix`. Each test
/// runs on its own thread, so the workspace starts empty.
#[test]
fn warm_solves_share_one_workspace() {
    let _pool = hold_kernel_pool();
    for nb in [667, 30_000] {
        let spd = block_tridiagonal(nb);
        let n = spd.n_rows();
        let general = Tridiagonal { n, skew: 0.3 };
        // Spectrum inside (2, 6).
        let symmetric = Tridiagonal { n, skew: 0.0 };
        let cheb = ChebyshevSqrt::new(1.5, 6.5, 6);
        let rhs = |m: usize| {
            MultiVec::from_flat(
                n,
                m,
                (0..n * m)
                    .map(|k| ((k * 7919) % 113) as f64 / 113.0 - 0.5)
                    .collect(),
            )
        };
        // Short capped solves: the workspace, not convergence, is
        // under test.
        let cfg = SolveConfig { tol: 1e-300, max_iter: 3 };
        let (b1, b8, b16) = (rhs(1), rhs(8), rhs(16));
        let block = n * 8 * std::mem::size_of::<f64>();

        block_cg(&spd, &b16, &mut MultiVec::zeros(n, 16), &cfg);
        let mut x8 = MultiVec::zeros(n, 8);
        let (_, bytes) = counted(|| {
            block_bicgstab(&general, &b8, &mut x8, &cfg);
        });
        assert!(bytes < block, "block_bicgstab after block_cg: {bytes} B, n = {n}");
        let mut y8 = MultiVec::zeros(n, 8);
        let (_, bytes) = counted(|| cheb.apply_multi(&symmetric, &b8, &mut y8));
        assert!(
            bytes < block,
            "Chebyshev after block_bicgstab: {bytes} B, n = {n}"
        );

        // What each operator allocates for a solve: the diagonal
        // `Tridiagonal` names, and on the `BcrsMatrix` the initial
        // residual's and two products per iteration.
        let (diagonal, _) = counted(|| drop(general.diagonal_blocks()));
        for (m, b) in [(1, &b1), (8, &b8)] {
            let mut y = MultiVec::zeros(n, m);
            let (product, _) = counted(|| spd.apply_multi(b, &mut y));
            let ops: [(&dyn LinearOperator, usize); 2] =
                [(&general, diagonal), (&spd, (1 + 2 * cfg.max_iter) * product)];
            for (op, by_operator) in ops {
                let mut x = MultiVec::zeros(n, m);
                let mut solve = || {
                    x.fill(0.0);
                    counted(|| {
                        let res = block_bicgstab(op, b, &mut x, &cfg);
                        assert_eq!(res.iterations, cfg.max_iter, "{res:?}");
                    })
                    .0
                };
                solve();
                assert_eq!(
                    solve(),
                    3 + by_operator,
                    "warm block_bicgstab at m = {m}, n = {n}, block rows {}",
                    op.block_rows().is_some()
                );
            }
        }

        let mut y1 = vec![0.0; n];
        let mut widths = || {
            counted(|| {
                cheb.apply_multi(&symmetric, &b8, &mut y8);
                cheb.apply(&symmetric, b1.as_slice(), &mut y1);
                cheb.apply_multi(&symmetric, &b8, &mut y8);
            })
            .0
        };
        widths();
        assert_eq!(widths(), 0, "Chebyshev at widths 8, 1, 8, n = {n}");
    }
}
