//! The block solvers allocate per *solve*, never per *iteration*: the
//! m×m Gram results, LU operands, coefficient blocks and norm buffers
//! — and block CG's preconditioner, its inverse blocks and `Z` — are
//! set up once and the dense sweeps work in caller buffers; Gauss–
//! Seidel's split and sweep blocks come from a per-thread workspace
//! that a solve takes and gives back. A
//! counting global allocator observes two solves that differ only in
//! their iteration count. It counts per thread, so the test harness's
//! own threads cannot disturb the comparison.

use mrhs_solvers::{block_bicgstab, block_cg, LinearOperator, SolveConfig};
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder, MultiVec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor: reading it inside
    // the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request unchanged to the system allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|count| count.set(count.get() + 1));
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

/// The Gauss–Seidel path: a `BcrsMatrix` hands over its block rows, so
/// `block_cg` iterates on sweeps, and no iteration allocates.
#[test]
fn sgs_iterations_do_not_allocate() {
    let nb = 667;
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
    let a: BcrsMatrix = t.build();
    assert!(a.block_rows().is_some());
    let n = a.n_rows();
    let capped = |max_iter| SolveConfig { tol: 1e-300, max_iter };
    for m in [2usize, 4, 8, 16] {
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
}
