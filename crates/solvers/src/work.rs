//! The one per-thread workspace every solver of this crate runs in.
//!
//! A block CG solve (and so [`crate::cg()`], its width-1 case), a block
//! BiCGStab solve and a Chebyshev apply keep everything they allocate
//! but their result in the thread's `Workspace`. A public entry takes
//! it once (`Work`), passes `&mut Workspace` down and gives it back
//! when it returns. It holds six `n × m` slots, each solver naming its
//! own:
//!
//! * block CG: `R`, `Z` (or `R̂`), `P`, `Q`, and Gauss–Seidel's `T`
//!   and the forward sweep's `U` (`R` holds a true residual only at
//!   the start and where the solve checks one);
//! * block BiCGStab: `R`, `R̃`, `P`, `V`, `S` and `T`; under a
//!   preconditioner `P̂ = M⁻¹P` sits in `T`'s slot and `Ŝ = M⁻¹S` in
//!   `R`'s while each is free (Gauss–Seidel's sweeps pass through `V`
//!   and `T` before the products fill them);
//! * the Chebyshev recurrence: its three `u` blocks;
//!
//! beside them the `m × m` and `m`-length buffers, the tracker's
//! per-column vectors, Gauss–Seidel's split, and two width-1 columns in
//! which `cg` and the single-vector Chebyshev applies stage their
//! vectors. So an Alg. 2 chunk head's Chebyshev block, a worker's
//! BiCGStab batch and the next CG solve reuse the same memory, and a
//! solve allocates only when a matrix or a width outgrows what the
//! thread's widest one left (fresh multi-megabyte buffers page-fault,
//! which was measured to swing a simulation step by ±1.5 ms). A take
//! nested inside a held one — a solve inside an operator's product —
//! gets a fresh workspace, which allocates.

use crate::block::Columns;
use mrhs_sparse::{active_backend, MultiVec, SgsSplit};
use std::cell::Cell;

/// The recycled state of every solve: everything it allocates but what
/// it returns (see the module docs).
pub(crate) struct Workspace {
    /// Six `n × m` slots.
    pub(crate) blocks: [MultiVec; 6],
    /// `m × m` buffers: coefficients, Grams and the operands
    /// `lu_solve` destroys.
    pub(crate) squares: [Vec<f64>; 6],
    /// Per-column buffers of length `m`: CG's coefficients and inner
    /// products, norms, their squares, dots, Gauss–Seidel's norm
    /// ratios and CG's divergence ceilings.
    pub(crate) lines: [Vec<f64>; 8],
    /// The tracker's per-column vectors.
    pub(crate) columns: Columns,
    /// Gauss–Seidel's split.
    pub(crate) split: SgsSplit,
    /// Two vectors staged as width-1 blocks.
    single: [Vec<f64>; 2],
}

impl Workspace {
    /// Sizes the `m × m` and `m`-length buffers for an `m`-column
    /// solve. Each is written before it is read, so only its length is
    /// set.
    pub(crate) fn size_buffers(&mut self, m: usize) {
        for square in &mut self.squares {
            square.resize(m * m, 0.0);
        }
        for line in &mut self.lines {
            line.resize(m, 0.0);
        }
    }

    /// Runs `f` on `input` and `output` staged as width-1 blocks in the
    /// two columns, then copies the second block back to `output`.
    pub(crate) fn single<R>(
        &mut self,
        input: &[f64],
        output: &mut [f64],
        f: impl FnOnce(&MultiVec, &mut MultiVec, &mut Workspace) -> R,
    ) -> R {
        assert_eq!(input.len(), output.len());
        let [i, o] = self.single.each_mut().map(std::mem::take);
        let column = |mut v: Vec<f64>, values: &[f64]| {
            v.clear();
            v.extend_from_slice(values);
            MultiVec::from_flat(values.len(), 1, v)
        };
        let (i, mut o) = (column(i, input), column(o, output));
        let result = f(&i, &mut o, self);
        output.copy_from_slice(o.as_slice());
        self.single = [i.into_flat(), o.into_flat()];
        result
    }
}

thread_local! {
    /// One [`Workspace`] per thread, between solves.
    static RECYCLED: Cell<Option<Box<Workspace>>> = const { Cell::new(None) };
}

/// The thread's [`Workspace`], held by one public entry and given back
/// when it drops.
pub(crate) struct Work(Option<Box<Workspace>>);

impl Work {
    pub(crate) fn take() -> Self {
        Work(Some(RECYCLED.take().unwrap_or_else(|| {
            Box::new(Workspace {
                blocks: std::array::from_fn(|_| MultiVec::zeros(0, 1)),
                squares: Default::default(),
                lines: Default::default(),
                columns: Columns::default(),
                split: SgsSplit::new(active_backend()),
                single: Default::default(),
            })
        })))
    }

    pub(crate) fn get(&mut self) -> &mut Workspace {
        self.0.as_deref_mut().expect("held until drop")
    }
}

impl Drop for Work {
    fn drop(&mut self) {
        RECYCLED.set(self.0.take());
    }
}
