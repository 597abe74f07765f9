//! The Brownian factor's bounds-only operator `L⁻¹·R·L⁻ᵀ` allocates
//! per Lanczos run, not per product: two runs that differ only in
//! their step count make the same number of allocations. A counting
//! global allocator observes them, per thread, so the harness's own
//! threads cannot disturb the comparison.

use mrhs_core::BrownianFactor;
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
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

/// SPD, with non-uniform, non-diagonal diagonal blocks (so the factor
/// scales) and nearest-neighbour coupling.
fn resistance_like(nb: usize) -> BcrsMatrix {
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let e = [0.3, -0.2, 0.1 * (i % 5) as f64];
        let scale = 1.0 + (i % 7) as f64;
        t.add(i, i, (Block3::scaled_identity(6.0) + Block3::outer(e, e)) * scale);
        if i + 1 < nb {
            t.add_symmetric_pair(i, i + 1, -Block3::IDENTITY);
        }
    }
    t.build()
}

#[test]
fn whitened_lanczos_allocates_per_run_not_per_product() {
    let r = resistance_like(400);
    let factor = BrownianFactor::new(&r);
    let allocations = |steps: usize| {
        let before = ALLOCATIONS.with(Cell::get);
        let (lo, hi) = factor.ritz_extremes(&r, steps);
        assert!(0.0 < lo && lo < hi);
        ALLOCATIONS.with(Cell::get) - before
    };
    allocations(2);
    assert_eq!(allocations(5), allocations(20));
}
