#![allow(clippy::needless_range_loop)] // index loops mirror the paper: i/j/k are matrix and coordinate indices

//! Iterative and direct solvers for the MRHS reproduction.
//!
//! The Stokesian dynamics method needs, per time step (paper §II-C):
//!
//! * solves `R·u = −f_B` with the SPD resistance matrix — conjugate
//!   gradients ([`cg()`](cg::cg)) here, and the **block** conjugate
//!   gradient of O'Leary ([`block_cg()`](block_cg::block_cg)) for the
//!   MRHS auxiliary system with `m` right-hand sides, whose iteration
//!   cost is dominated by GSPMV. They are one recurrence: `cg` is block
//!   CG at one column;
//! * Brownian forces `f_B = S(R)·z` where `S` is a shifted Chebyshev
//!   polynomial approximation of the matrix square root (Fixman) —
//!   [`chebyshev::ChebyshevSqrt`];
//! * spectral bounds feeding the Chebyshev interval — [`eigbounds`]
//!   (Gershgorin, power iteration, and a small Lanczos);
//! * a dense Cholesky reference path for small systems ([`cholesky`]).
//!
//! For the **nonsymmetric** (CFD-class) systems of Krasnopolsky
//! arXiv:1907.12874 the SPD assumption fails and the stack switches to
//! BiCGStab: [`block_bicgstab::block_bicgstab`], two GSPMVs per
//! iteration, whose width-1 solve is classic BiCGStab (one recurrence,
//! as block CG at m = 1 is CG's).
//!
//! Both recurrences precondition with what the operator names, by one
//! rule: block symmetric Gauss–Seidel on its block rows
//! ([`LinearOperator::block_rows`]), else block-Jacobi on its block
//! diagonal ([`LinearOperator::diagonal_blocks`]), else nothing —
//! BiCGStab on the right, so its residual stays the true one. The
//! rule, its fallback and why the stopping norm is untouched are in
//! [`precond`].
//!
//! Both block solvers are a recurrence over one contract — options,
//! result, per-column convergence bookkeeping, breakdown vocabulary —
//! that lives in [`block`].
//!
//! Every solver and the Chebyshev recurrence take their `n × m` blocks
//! and small buffers from one per-thread workspace, which a public
//! entry takes once and passes down, so a warm solve or apply allocates
//! only its result.

pub mod block;
pub mod block_bicgstab;
pub mod block_cg;
pub mod cg;
pub mod chebyshev;
pub mod cholesky;
pub mod dense;
pub mod eigbounds;
pub mod operator;
pub mod precond;
mod work;

pub use block::{BlockSolveOptions, BlockSolveResult, Breakdown, BreakdownKind};
pub use block_bicgstab::{block_bicgstab, block_bicgstab_with_options};
pub use block_cg::{block_cg, block_cg_with_options};
pub use cg::{cg, CgResult, SolveConfig};
pub use chebyshev::ChebyshevSqrt;
pub use cholesky::DenseCholesky;
pub use eigbounds::{
    power_upper_bound, spectral_bounds, SpectralBounds, POWER_GUARD_ITERS,
    POWER_UPPER_SAFETY,
};
pub use operator::{CountingOperator, DenseOperator, LinearOperator};

#[cfg(test)]
mod bicgstab {
    mod tests;
}
