#![allow(clippy::needless_range_loop)] // index loops mirror the paper: i/j/k are matrix and coordinate indices

//! Sparse-matrix substrate for the MRHS reproduction.
//!
//! This crate provides the storage formats and kernels that the paper's
//! contribution is built on:
//!
//! * [`Block3`] — dense 3×3 blocks, the natural granularity of Stokesian
//!   dynamics resistance matrices (one block per particle pair).
//! * [`BcrsMatrix`] — Block Compressed Row Storage with 3×3 blocks, the
//!   format the paper uses for all experiments (§IV-A1).
//! * [`MultiVec`] — a block of `m` vectors stored **row-major** (all `m`
//!   values of a scalar row are contiguous), the layout the paper uses to
//!   get spatial locality in GSPMV.
//! * [`gspmv_on`] — the generalized sparse matrix–multivector product:
//!   one driver over a [`BcrsMatrix`], a [`Backend`] (kernel family)
//!   and a [`Schedule`] (serial, auto, chunked), with monomorphized
//!   unrolled kernels for common `m` (the Rust analogue of the paper's
//!   code generator) and rayon-parallel row blocking.
//!   [`gspmv()`](gspmv::gspmv), [`gspmv_serial`] and the slice form
//!   [`spmv`] are that call with the active backend; every product is
//!   counted under one telemetry family, `gspmv/m{m}/…` with the
//!   `kernel/gspmv/m{m}` span.
//! * [`SymmetricBcrs`] — half storage (diagonal + strict upper blocks),
//!   a compact container for a symmetric matrix: its own
//!   [`SymmetricBcrs::multiply`] applies each stored block twice (`B`
//!   forward, `Bᵀ` down) in one serial portable kernel, outside the
//!   driver. Measured slower than full storage at every width, so no
//!   solve path selects it; [`SymmetricBcrs::to_full`] expands it.
//! * [`sgs`] — block symmetric Gauss–Seidel sweeps in Eisenstat's split
//!   form over a [`BcrsMatrix`]'s own blocks ([`SgsSplit`]), each kernel
//!   family's GSPMV row body over half a row plus a 3×3 epilogue: what
//!   `block_cg` preconditions with.
//! * [`partition`] — coordinate-based row partitioning (§IV-A2) and a
//!   recursive-coordinate-bisection comparator, used by the distributed
//!   GSPMV simulator.
//! * [`reorder`] — symmetric permutation of rows and columns, which the
//!   distributed engine applies to put each node's rows together.
//! * [`backend`] — the [`Backend`] enum: two kernel families, scalar
//!   (monomorphized, with a strip-mined loop for widths off
//!   [`WIDTH_GRID`]) and explicit-SIMD (`core::arch`,
//!   runtime-dispatched on AVX-512/AVX2/NEON), selected once per
//!   process with an `MRHS_KERNEL_BACKEND=scalar|simd` override.
//!
//! The portable kernels are plain safe Rust written so the `m`-wide
//! inner loops autovectorize; the explicit-SIMD kernels confine their
//! `unsafe` to `core::arch` intrinsics behind runtime feature
//! detection.

pub mod backend;
pub mod bcrs;
pub mod block;
pub mod gspmv;
mod instrument;
pub mod multivec;
pub mod partition;
pub mod reorder;
pub mod sgs;
mod simd;
pub mod stats;
pub mod symmetric;
pub mod triplet;

pub use backend::{
    active_backend, backend_available, backend_for, detect_isa, select_kind,
    Backend, Isa, KernelKind, WIDTH_GRID,
};
pub use bcrs::BcrsMatrix;
pub use block::Block3;
pub use gspmv::{gspmv, gspmv_on, gspmv_serial, spmv, Schedule};
pub use multivec::{dot, MultiVec};
pub use sgs::SgsSplit;
pub use stats::MatrixStats;
pub use symmetric::SymmetricBcrs;
pub use triplet::BlockTripletBuilder;

/// Scalar dimension of the blocks used throughout this workspace.
pub const BLOCK_DIM: usize = 3;
