//! The one GSPMV driver and the portable row kernels.
//!
//! The paper's "basic kernel" multiplies one 3×3 block by a 3×`m` slab of
//! the multivector with the multiplication of each matrix element
//! unrolled by `m` (§IV-A1, produced there by a code generator emitting
//! SSE/AVX). This module holds the *portable* kernels: monomorphized
//! over `const M: usize` so the `m`-wide inner loops are
//! fixed-trip-count arrays that LLVM unrolls and autovectorizes, plus
//! the strip-mined any-`m` loop the scalar backend runs off
//! [`crate::WIDTH_GRID`] (and the SIMD backend at widths below every
//! vector, `m = 3` on x86-64), and a naive ablation baseline. The
//! explicit-SIMD kernels live in `crate::simd`.
//!
//! Every product goes through [`gspmv_on`]`(backend, a, x, y,
//! schedule)` on a [`BcrsMatrix`]: the [`Backend`] picks the kernel
//! family and the [`Schedule`] says how many chunks and where.
//! [`gspmv`], [`gspmv_serial`] and the slice form [`spmv`] are that call
//! with the process-wide [`active_backend`] — override with
//! `MRHS_KERNEL_BACKEND=scalar|simd`.
//!
//! Thread blocking follows the paper: block rows are split into chunks of
//! balanced non-zero count and each chunk writes a disjoint slice of `Y`.

use crate::backend::{active_backend, Backend};
use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::instrument;
use crate::multivec::MultiVec;
use crate::sgs::{self, Factors, Pass, RowSum};
use crate::BLOCK_DIM;
use std::ops::Range;

/// Stored-block count below which the auto schedule stays serial.
pub(crate) const PARALLEL_THRESHOLD: usize = 1 << 14;

/// How one GSPMV deals out its block rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One chunk, on the calling thread.
    Serial,
    /// Serial on a one-thread pool or below `PARALLEL_THRESHOLD` stored
    /// blocks, else four chunks per pool thread on the rayon pool.
    Auto,
    /// This many chunks of balanced stored-block count, on the rayon
    /// pool. The result is bitwise the serial one at every count (a
    /// row's accumulation never crosses a chunk).
    Chunked(usize),
    /// The same chunk list as [`Schedule::Chunked`], run in chunk order
    /// on the calling thread. The two must match bitwise at every
    /// count — how the oracle proves a result never depends on thread
    /// interleaving.
    ChunkedInline(usize),
}

/// The GSPMV driver: `Y = A·X` with `X`, `Y` row-major multivectors,
/// through an explicit backend and schedule. Ablations and the oracle
/// call it directly to pin an implementation regardless of
/// `MRHS_KERNEL_BACKEND` ([`Backend::forced`]); everything else uses
/// [`gspmv`] or [`gspmv_serial`].
pub fn gspmv_on(
    backend: Backend,
    a: &BcrsMatrix,
    x: &MultiVec,
    y: &mut MultiVec,
    schedule: Schedule,
) {
    assert_eq!(x.n(), a.n_cols(), "X row count must equal matrix columns");
    assert_eq!(y.n(), a.n_rows(), "Y row count must equal matrix rows");
    assert_eq!(x.m(), y.m(), "X and Y must have the same number of columns");
    let m = x.m();
    // The only instrumentation site: one call's counters under
    // `gspmv/m{m}/…`, the dispatched backend, the `kernel/gspmv/m{m}`
    // span. Nothing below this counts, so nothing double-counts.
    let (blocks, bytes) = (a.nnz_blocks() as u64, a.stream_bytes() as u64);
    instrument::record_kernel_call(m, a.nb_rows() as u64, blocks, bytes);
    instrument::record_backend(backend.name());
    let _span = instrument::kernel_span(m);
    let (nchunks, inline) = match schedule {
        Schedule::Serial => (1, false),
        Schedule::Auto => (auto_chunks(a), false),
        Schedule::Chunked(n) => (n, false),
        Schedule::ChunkedInline(n) => (n, true),
    };
    run_chunks(a, backend, x.as_slice(), y.as_mut_slice(), m, nchunks, inline);
}

/// `Y = A·X` through the active backend, parallel when the auto
/// schedule says it pays.
///
/// Every output row is accumulated entirely inside its own chunk in
/// fixed per-row order, so the result is **bitwise identical** to
/// [`gspmv_serial`] for any chunking, pool width, or interleaving.
pub fn gspmv(a: &BcrsMatrix, x: &MultiVec, y: &mut MultiVec) {
    gspmv_on(active_backend(), a, x, y, Schedule::Auto);
}

/// Serial `Y = A·X` through the active backend.
pub fn gspmv_serial(a: &BcrsMatrix, x: &MultiVec, y: &mut MultiVec) {
    gspmv_on(active_backend(), a, x, y, Schedule::Serial);
}

/// Single-vector SPMV on plain slices, `y = A·x`: the `m = 1`
/// instantiation of the driver under the auto schedule, through the
/// active backend. `x` must have `a.n_cols()` entries and `y`
/// `a.n_rows()` (asserted). Allocation-free when serial and not
/// instrumented — a CG solve makes hundreds of these calls.
pub fn spmv(a: &BcrsMatrix, x: &[f64], y: &mut [f64]) {
    run_chunks(a, active_backend(), x, y, 1, auto_chunks(a), false);
}

/// Deals `y` (row-major, `m` columns) into the disjoint per-chunk
/// windows of `chunks`.
fn chunk_windows<'a>(
    y: &'a mut [f64],
    chunks: &[Range<usize>],
    m: usize,
) -> Vec<(Range<usize>, &'a mut [f64])> {
    let mut rest = y;
    chunks
        .iter()
        .map(|r| {
            let (window, tail) =
                std::mem::take(&mut rest).split_at_mut(r.len() * BLOCK_DIM * m);
            rest = tail;
            (r.clone(), window)
        })
        .collect()
}

/// Runs one job per chunk: in chunk order on the calling thread when
/// `inline`, else on the rayon pool.
fn run_jobs<J: Send>(jobs: Vec<J>, inline: bool, f: impl Fn(J) + Sync) {
    if inline {
        jobs.into_iter().for_each(f);
    } else {
        let f = &f;
        rayon::scope(|s| {
            for job in jobs {
                s.spawn(move |_| f(job));
            }
        });
    }
}

/// The chunk count [`Schedule::Auto`] runs; `1` means serial.
fn auto_chunks(a: &BcrsMatrix) -> usize {
    let nthreads = rayon::current_num_threads();
    if nthreads <= 1 || a.nnz_blocks() < PARALLEL_THRESHOLD {
        1
    } else {
        nthreads * 4
    }
}

/// `y = A·x` on row-major `n × m` slices in `nchunks` balanced chunks
/// (at most one: the serial kernel), on the rayon pool or, with
/// `inline`, in chunk order on the calling thread. Each chunk writes its
/// own disjoint window of `y` through the backend's row kernel. The
/// lengths are asserted first: the SIMD row kernels index `x` and `y`
/// unchecked.
fn run_chunks(
    a: &BcrsMatrix,
    backend: Backend,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    nchunks: usize,
    inline: bool,
) {
    assert_eq!(x.len(), a.n_cols() * m, "x must hold n_cols × m values");
    assert_eq!(y.len(), a.n_rows() * m, "y must hold n_rows × m values");
    if nchunks <= 1 {
        return backend.gspmv_rows(a, x, y, m, 0..a.nb_rows());
    }
    let chunks = balanced_row_chunks(a, nchunks);
    run_jobs(chunk_windows(y, &chunks, m), inline, |(rows, ys)| {
        backend.gspmv_rows(a, x, ys, m, rows)
    });
}

/// Splits the block rows of `a` into at most `nchunks` contiguous ranges
/// with approximately equal stored-block counts. Every block row appears
/// in exactly one range.
#[allow(clippy::single_range_in_vec_init)]
pub fn balanced_row_chunks(a: &BcrsMatrix, nchunks: usize) -> Vec<Range<usize>> {
    let nb = a.nb_rows();
    if nb == 0 || nchunks <= 1 {
        return vec![0..nb];
    }
    let target = (a.nnz_blocks() / nchunks).max(1);
    let mut chunks = Vec::with_capacity(nchunks);
    let mut start = 0usize;
    let mut next_cut = target;
    for bi in 0..nb {
        let weight = a.row_ptr()[bi + 1];
        if weight >= next_cut && bi + 1 > start && chunks.len() + 1 < nchunks {
            chunks.push(start..bi + 1);
            start = bi + 1;
            next_cut = weight + target;
        }
    }
    if start < nb || chunks.is_empty() {
        chunks.push(start..nb);
    }
    chunks
}

/// Row-range dispatch of the portable monomorphized kernels — the
/// scalar backend's row kernel, also the delegation target for SIMD at
/// widths below one vector.
pub(crate) fn dispatch_rows_scalar(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    match m {
        1 => gspmv_rows_fixed::<1>(row_ptr, col_idx, blocks, x, y, rows),
        2 => gspmv_rows_fixed::<2>(row_ptr, col_idx, blocks, x, y, rows),
        4 => gspmv_rows_fixed::<4>(row_ptr, col_idx, blocks, x, y, rows),
        8 => gspmv_rows_fixed::<8>(row_ptr, col_idx, blocks, x, y, rows),
        12 => gspmv_rows_fixed::<12>(row_ptr, col_idx, blocks, x, y, rows),
        16 => gspmv_rows_fixed::<16>(row_ptr, col_idx, blocks, x, y, rows),
        24 => gspmv_rows_fixed::<24>(row_ptr, col_idx, blocks, x, y, rows),
        32 => gspmv_rows_fixed::<32>(row_ptr, col_idx, blocks, x, y, rows),
        42 => gspmv_rows_fixed::<42>(row_ptr, col_idx, blocks, x, y, rows),
        48 => gspmv_rows_fixed::<48>(row_ptr, col_idx, blocks, x, y, rows),
        _ => gspmv_rows_generic(row_ptr, col_idx, blocks, x, y, m, rows),
    }
}

/// The monomorphized basic kernel: each 3×3 block multiplies a 3×M slab.
/// `y` is the slice for `rows` only (disjoint output windows in the
/// parallel driver).
fn gspmv_rows_fixed<const M: usize>(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    y: &mut [f64],
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * M;
    for bi in rows {
        let yo = bi * BLOCK_DIM * M - y_base;
        let ks = row_ptr[bi]..row_ptr[bi + 1];
        fixed_row::<M>(ks, col_idx, blocks, x, &mut y[yo..yo + BLOCK_DIM * M]);
    }
}

/// One block row of [`gspmv_rows_fixed`] over the stored blocks `ks`,
/// in the order `ks` yields them: `s` (3×M, row-major) `= Σ_k A_k·x_{col_k}`.
#[inline(always)]
fn fixed_row<const M: usize>(
    ks: impl Iterator<Item = usize>,
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    s: &mut [f64],
) {
    let mut acc = [[0.0f64; M]; BLOCK_DIM];
    for k in ks {
        let b = &blocks[k];
        let xoff = col_idx[k] as usize * BLOCK_DIM * M;
        let xs = &x[xoff..xoff + BLOCK_DIM * M];
        let x0: &[f64; M] = xs[..M].try_into().unwrap();
        let x1: &[f64; M] = xs[M..2 * M].try_into().unwrap();
        let x2: &[f64; M] = xs[2 * M..].try_into().unwrap();
        // One fused M-wide pass per output row: three broadcasts,
        // three FMAs per element, everything at compile-time trip
        // counts — the shape the paper's generated SIMD kernels had.
        for i in 0..BLOCK_DIM {
            let (a0, a1, a2) = (b.get(i, 0), b.get(i, 1), b.get(i, 2));
            let acc_i = &mut acc[i];
            for j in 0..M {
                acc_i[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j];
            }
        }
    }
    for i in 0..BLOCK_DIM {
        s[i * M..(i + 1) * M].copy_from_slice(&acc[i]);
    }
}

/// The any-`m` kernel: the scalar backend's fallback off the width
/// grid. Columns are strip-mined in fixed-width groups of 8 and 4 (with
/// a scalar remainder) so the hot inner loops have compile-time trip
/// counts and autovectorize even though `m` is a runtime value; only the
/// final `m mod 4` columns take the scalar path. The naive fully-runtime loop lives on in
/// [`gspmv_rows_naive`] as the ablation baseline.
fn gspmv_rows_generic(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * m;
    for bi in rows {
        let yo = bi * BLOCK_DIM * m - y_base;
        let ks = row_ptr[bi]..row_ptr[bi + 1];
        generic_row(ks, col_idx, blocks, x, m, &mut y[yo..yo + BLOCK_DIM * m]);
    }
}

/// One block row of [`gspmv_rows_generic`] over the stored blocks
/// `ks`, in the order `ks` yields them, accumulated in place in `acc`
/// (3×m, row-major).
fn generic_row(
    ks: impl Iterator<Item = usize>,
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    m: usize,
    acc: &mut [f64],
) {
    acc.fill(0.0);
    for k in ks {
        let b = &blocks[k];
        let xoff = col_idx[k] as usize * BLOCK_DIM * m;
        let xs = &x[xoff..xoff + BLOCK_DIM * m];
        for i in 0..BLOCK_DIM {
            let ai = [b.get(i, 0), b.get(i, 1), b.get(i, 2)];
            let acc_i = &mut acc[i * m..(i + 1) * m];
            for cc in 0..BLOCK_DIM {
                let av = ai[cc];
                let xr = &xs[cc * m..cc * m + m];
                // 8-wide strips, then 4-wide, then scalar tail.
                let mut j = 0;
                while j + 8 <= m {
                    let xw: &[f64; 8] = xr[j..j + 8].try_into().unwrap();
                    let aw: &mut [f64] = &mut acc_i[j..j + 8];
                    for (a8, x8) in aw.iter_mut().zip(xw) {
                        *a8 += av * x8;
                    }
                    j += 8;
                }
                while j + 4 <= m {
                    let xw: &[f64; 4] = xr[j..j + 4].try_into().unwrap();
                    let aw: &mut [f64] = &mut acc_i[j..j + 4];
                    for (a4, x4) in aw.iter_mut().zip(xw) {
                        *a4 += av * x4;
                    }
                    j += 4;
                }
                while j < m {
                    acc_i[j] += av * xr[j];
                    j += 1;
                }
            }
        }
    }
}

/// The scalar backend's row sums for the Gauss–Seidel sweeps: the
/// monomorphized row at its grid widths, the strip-mined one off it.
pub(crate) struct FixedRow<const M: usize>;
pub(crate) struct GenericRow;

impl<const M: usize> RowSum for FixedRow<M> {
    const FUSED: bool = false;
    const W1: bool = M == 1;

    #[inline(always)]
    unsafe fn sum(
        ks: Range<usize>,
        rev: bool,
        col_idx: &[u32],
        blocks: &[Block3],
        x: &[f64],
        _m: usize,
        s: &mut [f64],
    ) {
        if rev {
            fixed_row::<M>(ks.rev(), col_idx, blocks, x, s)
        } else {
            fixed_row::<M>(ks, col_idx, blocks, x, s)
        }
    }
}

impl RowSum for GenericRow {
    const FUSED: bool = false;

    #[inline(always)]
    unsafe fn sum(
        ks: Range<usize>,
        rev: bool,
        col_idx: &[u32],
        blocks: &[Block3],
        x: &[f64],
        m: usize,
        s: &mut [f64],
    ) {
        if rev {
            generic_row(ks.rev(), col_idx, blocks, x, m, s)
        } else {
            generic_row(ks, col_idx, blocks, x, m, s)
        }
    }
}

/// One sweep through the scalar backend's row sums.
pub(crate) fn sweep_scalar(f: &Factors, pass: Pass, m: usize, s: &mut [f64]) {
    // SAFETY: `sgs::run`'s contract is the caller's (`SgsSplit`
    // checks every length before dispatching), and these row sums
    // need no target feature.
    unsafe {
        match m {
            1 => sgs::run::<FixedRow<1>>(f, pass, m, s),
            2 => sgs::run::<FixedRow<2>>(f, pass, m, s),
            4 => sgs::run::<FixedRow<4>>(f, pass, m, s),
            8 => sgs::run::<FixedRow<8>>(f, pass, m, s),
            12 => sgs::run::<FixedRow<12>>(f, pass, m, s),
            16 => sgs::run::<FixedRow<16>>(f, pass, m, s),
            24 => sgs::run::<FixedRow<24>>(f, pass, m, s),
            32 => sgs::run::<FixedRow<32>>(f, pass, m, s),
            42 => sgs::run::<FixedRow<42>>(f, pass, m, s),
            48 => sgs::run::<FixedRow<48>>(f, pass, m, s),
            _ => sgs::run::<GenericRow>(f, pass, m, s),
        }
    }
}

/// The fully-runtime-loop kernel: what GSPMV looks like with no
/// unrolling help at all. Kept (and exposed through
/// [`gspmv_serial_naive`]) purely as the ablation baseline.
fn gspmv_rows_naive(
    a: &BcrsMatrix,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * m;
    let mut acc = vec![0.0f64; BLOCK_DIM * m];
    for bi in rows {
        let (cols, blocks) = a.block_row(bi);
        acc.fill(0.0);
        for (c, b) in cols.iter().zip(blocks) {
            let xoff = *c as usize * BLOCK_DIM * m;
            let xs = &x[xoff..xoff + BLOCK_DIM * m];
            for i in 0..BLOCK_DIM {
                for cc in 0..BLOCK_DIM {
                    let av = b.get(i, cc);
                    for j in 0..m {
                        acc[i * m + j] += av * xs[cc * m + j];
                    }
                }
            }
        }
        let yo = bi * BLOCK_DIM * m - y_base;
        y[yo..yo + BLOCK_DIM * m].copy_from_slice(&acc);
    }
}

/// Serial GSPMV through the naive kernel (ablation baseline; outside
/// the driver, uninstrumented).
pub fn gspmv_serial_naive(a: &BcrsMatrix, x: &MultiVec, y: &mut MultiVec) {
    assert_eq!(x.n(), a.n_cols(), "X row count must equal matrix columns");
    assert_eq!(y.n(), a.n_rows(), "Y row count must equal matrix rows");
    assert_eq!(x.m(), y.m(), "X and Y must have the same number of columns");
    gspmv_rows_naive(a, x.as_slice(), y.as_mut_slice(), x.m(), 0..a.nb_rows());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_available, KernelKind};
    use crate::triplet::BlockTripletBuilder;

    /// Deterministic pseudo-random sparse SPD-ish test matrix.
    fn test_matrix(nb: usize, bandwidth: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(10.0));
            for d in 1..=bandwidth {
                if bi + d < nb {
                    let mut b = Block3::ZERO;
                    for v in b.0.iter_mut() {
                        *v = rng();
                    }
                    t.add_symmetric_pair(bi, bi + d, b);
                }
            }
        }
        t.build()
    }

    /// Approximate multivector equality: different kernels associate
    /// the per-block FMAs differently, so results differ at the last
    /// bit.
    fn assert_close(a: &MultiVec, b: &MultiVec, ctx: &str) {
        assert_eq!(a.shape(), b.shape(), "{ctx}");
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!(
                (u - v).abs() <= 1e-12 * u.abs().max(v.abs()).max(1.0),
                "{ctx}: {u} vs {v}"
            );
        }
    }

    fn dense_mat_vec(dense: &[f64], n: usize, x: &[f64]) -> Vec<f64> {
        (0..n).map(|i| (0..n).map(|j| dense[i * n + j] * x[j]).sum()).collect()
    }

    fn pseudo_vec(n: usize, seed: u64) -> Vec<f64> {
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

    #[test]
    fn spmv_matches_dense() {
        let a = test_matrix(7, 2);
        let n = a.n_rows();
        let dense = a.to_dense();
        let x = pseudo_vec(n, 42);
        let mut y = vec![0.0; n];
        spmv(&a, &x, &mut y);
        let want = dense_mat_vec(&dense, n, &x);
        for (a, b) in y.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn gspmv_each_column_matches_spmv() {
        let a = test_matrix(9, 3);
        let n = a.n_rows();
        for &m in &[1usize, 2, 3, 4, 5, 8, 12, 16, 17, 24, 32, 33] {
            let mut x = MultiVec::zeros(n, m);
            for j in 0..m {
                x.set_column(j, &pseudo_vec(n, 1000 + j as u64));
            }
            let mut y = MultiVec::zeros(n, m);
            gspmv_serial(&a, &x, &mut y);
            for j in 0..m {
                let mut yj = vec![0.0; n];
                spmv(&a, &x.column(j), &mut yj);
                let got = y.column(j);
                for (g, w) in got.iter().zip(&yj) {
                    assert!((g - w).abs() < 1e-12, "m={m} col={j}");
                }
            }
        }
    }

    #[test]
    fn naive_strip_mined_and_specialized_all_agree() {
        let a = test_matrix(11, 4);
        let n = a.n_rows();
        // The forced scalar backend runs the specialized kernel on every
        // grid width and the strip-mined loop off it; the off-grid sizes
        // exercise every strip combination: 8s, 4s, and tails.
        let off_grid = [3usize, 5, 6, 7, 9, 11, 13, 15, 17, 20, 23];
        for m in crate::WIDTH_GRID.into_iter().chain(off_grid) {
            let mut x = MultiVec::zeros(n, m);
            for j in 0..m {
                x.set_column(j, &pseudo_vec(n, 31 + j as u64));
            }
            let mut y1 = MultiVec::zeros(n, m);
            let mut y2 = MultiVec::zeros(n, m);
            let mut y3 = MultiVec::zeros(n, m);
            gspmv_serial(&a, &x, &mut y1);
            gspmv_on(Backend::Scalar, &a, &x, &mut y2, Schedule::Serial);
            gspmv_serial_naive(&a, &x, &mut y3);
            assert_close(&y3, &y1, &format!("m={m} active"));
            assert_close(&y3, &y2, &format!("m={m} scalar"));
        }
    }

    #[test]
    fn every_available_backend_agrees_with_scalar() {
        let a = test_matrix(13, 5);
        let n = a.n_rows();
        for m in [1usize, 4, 7, 8, 16, 19, 32] {
            let mut x = MultiVec::zeros(n, m);
            for j in 0..m {
                x.set_column(j, &pseudo_vec(n, 53 + j as u64));
            }
            let mut want = MultiVec::zeros(n, m);
            gspmv_on(Backend::Scalar, &a, &x, &mut want, Schedule::Serial);
            for kind in KernelKind::ALL {
                if !backend_available(kind) {
                    continue;
                }
                let b = Backend::forced(kind);
                let mut got = MultiVec::zeros(n, m);
                gspmv_on(b, &a, &x, &mut got, Schedule::Serial);
                assert_close(&want, &got, &format!("m={m} {:?}", kind));
                // And the chunked schedules stay bitwise within a kind.
                for schedule in [Schedule::Chunked(3), Schedule::ChunkedInline(3)] {
                    let mut chunked = MultiVec::zeros(n, m);
                    gspmv_on(b, &a, &x, &mut chunked, schedule);
                    assert_eq!(got, chunked, "m={m} {kind:?} {schedule:?}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let a = test_matrix(500, 6);
        let n = a.n_rows();
        let m = 8;
        let mut x = MultiVec::zeros(n, m);
        for j in 0..m {
            x.set_column(j, &pseudo_vec(n, 99 + j as u64));
        }
        let mut y1 = MultiVec::zeros(n, m);
        let mut y2 = MultiVec::zeros(n, m);
        gspmv_serial(&a, &x, &mut y1);
        gspmv(&a, &x, &mut y2);
        assert_eq!(y1, y2);

        // The slice entry is the m = 1 column of the same driver.
        let xv = pseudo_vec(n, 5);
        let mut z1 = MultiVec::zeros(n, 1);
        let mut z2 = vec![0.0; n];
        gspmv_serial(&a, &MultiVec::from_flat(n, 1, xv.clone()), &mut z1);
        spmv(&a, &xv, &mut z2);
        assert_eq!(z1.into_flat(), z2);
    }

    #[test]
    fn gspmv_overwrites_stale_output() {
        let a = test_matrix(4, 1);
        let n = a.n_rows();
        let x = MultiVec::zeros(n, 4);
        let mut y = MultiVec::zeros(n, 4);
        y.fill(123.0);
        gspmv_serial(&a, &x, &mut y);
        assert_eq!(y.max_abs(), 0.0);
    }

    #[test]
    fn balanced_chunks_cover_all_rows_exactly_once() {
        let a = test_matrix(103, 5);
        for &nc in &[1usize, 2, 3, 7, 16, 200] {
            let chunks = balanced_row_chunks(&a, nc);
            let mut next = 0;
            for c in &chunks {
                assert_eq!(c.start, next);
                assert!(c.end > c.start || chunks.len() == 1);
                next = c.end;
            }
            assert_eq!(next, a.nb_rows());
            assert!(chunks.len() <= nc.max(1));
        }
    }

    #[test]
    fn balanced_chunks_have_balanced_nnz() {
        let a = test_matrix(400, 8);
        let chunks = balanced_row_chunks(&a, 4);
        let nnz: Vec<usize> = chunks
            .iter()
            .map(|r| a.row_ptr()[r.end] - a.row_ptr()[r.start])
            .collect();
        let avg = a.nnz_blocks() as f64 / nnz.len() as f64;
        for v in &nnz {
            assert!((*v as f64) < 1.8 * avg, "imbalanced: {nnz:?}");
        }
    }

    #[test]
    fn empty_rows_are_handled() {
        // A matrix with some completely empty block rows.
        let mut t = BlockTripletBuilder::square(5);
        t.add(0, 0, Block3::IDENTITY);
        t.add(4, 4, Block3::scaled_identity(2.0));
        let a = t.build();
        let x = MultiVec::from_flat(15, 2, vec![1.0; 30]);
        let mut y = MultiVec::zeros(15, 2);
        gspmv_serial(&a, &x, &mut y);
        assert_eq!(y.get(0, 0), 1.0);
        assert_eq!(y.get(3, 0), 0.0); // empty row 1
        assert_eq!(y.get(12, 1), 2.0);
    }

    #[test]
    fn rectangular_gspmv() {
        let mut t = BlockTripletBuilder::new(2, 3);
        t.add(0, 2, Block3::IDENTITY);
        t.add(1, 0, Block3::scaled_identity(3.0));
        let a = t.build();
        let x = MultiVec::from_flat(9, 1, (1..=9).map(|v| v as f64).collect());
        let mut y = MultiVec::zeros(6, 1);
        gspmv_serial(&a, &x, &mut y);
        assert_eq!(y.column(0), vec![7.0, 8.0, 9.0, 3.0, 6.0, 9.0]);
    }
}
