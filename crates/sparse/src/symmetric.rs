//! Symmetric-storage GSPMV — beyond the paper.
//!
//! The paper's kernels "do not exploit any symmetry in the matrices"
//! (§IV) even though SD resistance matrices are symmetric. Storing only
//! the diagonal and strictly-upper blocks halves the dominant memory
//! stream, moving the bandwidth bound of Eq. 8 accordingly: each stored
//! off-diagonal block now contributes to two output rows (`y_i += B·x_j`
//! and `y_j += Bᵀ·x_i`).
//!
//! The scattered `y_j` writes preclude the disjoint-output-window thread
//! blocking of full storage, so the chunk runner here uses a two-phase
//! scheme instead:
//!
//! 1. **Compute** — block rows are chunked with balanced stored-block
//!    counts; each chunk writes its *direct* contributions (diagonal,
//!    forward, and transpose terms landing inside the chunk) straight
//!    into its disjoint window of `Y`, and accumulates transpose terms
//!    that land *below* the chunk into a thread-private slab covering
//!    rows `chunk.end..nb` (strictly-upper storage guarantees every
//!    scattered write goes downward).
//! 2. **Reduce** — the same disjoint windows of `Y` are re-dealt to the
//!    pool and each thread adds every slab's overlap with its window.
//!
//! Both phases are monomorphized over the same [`SPECIALIZED_M`] set as
//! the full-storage kernels, and the auto schedule falls back to the
//! serial kernel below the same stored-block threshold as full storage.
//! This module is the format's [`GspmvStorage`] implementation — the
//! products themselves are [`crate::gspmv_on`] and its conveniences.
//!
//! **Determinism.** The floating-point summation order — and therefore
//! the exact bits of `Y` — depends only on the chunk boundaries, never
//! on which thread runs which chunk (windows are disjoint and each
//! window adds the slabs in fixed chunk-ascending order). The auto
//! schedule therefore derives its chunk count from the *matrix*
//! ([`SymmetricBcrs::canonical_chunk_count`]), not from the pool
//! width, so its output is bitwise identical across thread counts and
//! repeated runs. (Earlier revisions chunked by
//! `rayon::current_num_threads()`, which silently changed the rounding
//! with `RAYON_NUM_THREADS` — the oracle harness now pins this down.)
//!
//! [`SPECIALIZED_M`]: crate::gspmv::SPECIALIZED_M

use crate::backend::Backend;
use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::gspmv::{
    balanced_chunks, check_lens, chunk_windows, run_jobs, GspmvStorage,
    PARALLEL_THRESHOLD,
};
use crate::BLOCK_DIM;
use std::ops::Range;

/// A symmetric block matrix storing the diagonal plus the strictly
/// upper triangle in block-CSR layout.
#[derive(Clone, Debug)]
pub struct SymmetricBcrs {
    nb: usize,
    /// Diagonal blocks, one per block row.
    diag: Vec<Block3>,
    /// CSR structure of the strictly-upper blocks.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    blocks: Vec<Block3>,
}

impl SymmetricBcrs {
    /// Builds from a full symmetric matrix, verifying symmetry within
    /// `tol`. Returns `None` if `a` is not symmetric.
    pub fn from_full(a: &BcrsMatrix, tol: f64) -> Option<Self> {
        if a.nb_rows() != a.nb_cols() || !a.is_symmetric_within(tol) {
            return None;
        }
        let nb = a.nb_rows();
        let mut diag = vec![Block3::ZERO; nb];
        let mut row_ptr = vec![0usize; nb + 1];
        let mut col_idx = Vec::new();
        let mut blocks = Vec::new();
        for bi in 0..nb {
            let (cols, blks) = a.block_row(bi);
            for (c, b) in cols.iter().zip(blks) {
                let bj = *c as usize;
                if bj == bi {
                    diag[bi] = *b;
                } else if bj > bi {
                    col_idx.push(*c);
                    blocks.push(*b);
                }
            }
            row_ptr[bi + 1] = blocks.len();
        }
        Some(SymmetricBcrs { nb, diag, row_ptr, col_idx, blocks })
    }

    /// Block rows.
    pub fn nb_rows(&self) -> usize {
        self.nb
    }

    /// Scalar dimension `3·nb` (the matrix is square).
    pub fn n_rows(&self) -> usize {
        self.nb * BLOCK_DIM
    }

    /// Stored blocks (diagonal + upper triangle).
    pub fn stored_blocks(&self) -> usize {
        self.nb + self.blocks.len()
    }

    /// Bytes streamed per multiply — roughly half the full-storage
    /// figure for matrices with many off-diagonal blocks. This is the
    /// `s_a`-weighted matrix term of the paper's Eq. 8 with the reduced
    /// block count (72 B per stored block, 4 B per upper column index,
    /// 4 B per row pointer).
    pub fn stream_bytes(&self) -> usize {
        self.stored_blocks() * 72 + self.blocks.len() * 4 + 4 * self.nb
    }

    /// The chunk count the auto schedule uses above the serial
    /// threshold: a function of the stored-block count only, never of
    /// the pool width, so the parallel summation order is reproducible.
    pub fn canonical_chunk_count(&self) -> usize {
        self.stored_blocks().div_ceil(CHUNK_GRAIN).clamp(1, MAX_CHUNKS)
    }

    /// Diagonal blocks, one per block row (read-only view for reference
    /// implementations).
    pub fn diag_blocks(&self) -> &[Block3] {
        &self.diag
    }

    /// CSR structure of the strictly-upper blocks:
    /// `(row_ptr, col_idx, blocks)`.
    pub fn upper_parts(&self) -> (&[usize], &[u32], &[Block3]) {
        (&self.row_ptr, &self.col_idx, &self.blocks)
    }

    /// Splits the block rows into at most `nchunks` contiguous ranges of
    /// approximately equal stored-block count (diagonal + upper blocks —
    /// the same weight the forward and transpose passes both scale with).
    pub fn balanced_row_chunks(&self, nchunks: usize) -> Vec<Range<usize>> {
        // Cumulative weight through row bi: one diagonal block per row
        // plus the strictly-upper blocks.
        balanced_chunks(self.nb, self.stored_blocks(), nchunks, |bi| {
            bi + 1 + self.row_ptr[bi + 1]
        })
    }
}

/// Stored blocks per chunk targeted by
/// [`SymmetricBcrs::canonical_chunk_count`]. At the serial threshold
/// this yields 8 chunks, enough to keep small pools busy.
const CHUNK_GRAIN: usize = 1 << 11;

/// Upper bound on the canonical chunk count (slab memory scales with
/// the chunk count, so it is capped rather than scaling with the pool).
const MAX_CHUNKS: usize = 64;

/// Symmetric storage under the GSPMV driver, counted under
/// `gspmv_sym/m{m}/…`. Flops count every *application*: each stored
/// off-diagonal block hits two output rows (forward and transposed),
/// so the flop total equals the full-storage one while the matrix
/// stream is roughly halved.
impl GspmvStorage for SymmetricBcrs {
    const KERNEL: &'static str = "gspmv_sym";

    fn n_rows(&self) -> usize {
        SymmetricBcrs::n_rows(self)
    }
    fn n_cols(&self) -> usize {
        SymmetricBcrs::n_rows(self)
    }
    fn applied_blocks(&self) -> usize {
        self.nb + 2 * self.blocks.len()
    }
    fn stream_bytes(&self) -> usize {
        SymmetricBcrs::stream_bytes(self)
    }
    /// Both the serial fallback and the chunk count are pure functions
    /// of the matrix, so the auto result is **bitwise identical**
    /// across pool widths (`RAYON_NUM_THREADS` = 1, 2, 4, 8, …) and
    /// across repeated runs.
    fn auto_chunks(&self) -> usize {
        if self.stored_blocks() < PARALLEL_THRESHOLD {
            1
        } else {
            self.canonical_chunk_count()
        }
    }
    /// The two-phase slab-and-reduce driver. Pool or `inline`, the
    /// values are identical: they depend on the chunk list alone.
    fn run_chunks(
        &self,
        backend: Backend,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        nchunks: usize,
        inline: bool,
    ) {
        check_lens(self, x, y, m);
        if nchunks <= 1 || self.nb == 0 {
            // Serial = one chunk covering every row: all scattered
            // writes stay inside the window and the slab is empty.
            return backend.sym_rows(self, x, y, &mut [], self.nb, m, 0..self.nb);
        }
        let chunks = self.balanced_row_chunks(nchunks);
        // Phase 1: compute. Each chunk owns a disjoint window of Y plus
        // a private slab for the rows below it.
        let mut slabs: Vec<Vec<f64>> = chunks
            .iter()
            .map(|r| vec![0.0f64; (self.nb - r.end) * BLOCK_DIM * m])
            .collect();
        let jobs =
            chunk_windows(y, &chunks, m).into_iter().zip(&mut slabs).collect();
        run_jobs(jobs, inline, |((rows, window), slab): (_, &mut Vec<f64>)| {
            backend.sym_rows(self, x, window, slab, rows.end, m, rows);
        });
        // Phase 2: reduce. Re-deal the same disjoint windows; each adds
        // every slab's overlap with its rows. Slab `t` covers rows
        // `chunks[t].end..nb`, so only windows strictly below chunk `t`
        // see contributions from it.
        run_jobs(chunk_windows(y, &chunks, m), inline, |(rows, window)| {
            for (src_rows, slab) in chunks.iter().zip(&slabs) {
                let base = src_rows.end;
                if base >= rows.end {
                    continue;
                }
                // Overlap of [base, nb) with this window's rows.
                let lo = rows.start.max(base);
                let src = &slab[(lo - base) * BLOCK_DIM * m
                    ..(rows.end - base) * BLOCK_DIM * m];
                let dst = &mut window[(lo - rows.start) * BLOCK_DIM * m..];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        });
    }
    /// The format's hand-written width-1 kernel (two sweeps over whole
    /// vectors, no backend dispatch) — what [`crate::spmv`] runs below
    /// the parallel threshold. Rounds differently from the backend
    /// kernels at `m = 1`, within kernel tolerance.
    fn run_width1(&self, _backend: Backend, x: &[f64], y: &mut [f64]) {
        check_lens(self, x, y, 1);
        // diagonal pass
        for (bi, d) in self.diag.iter().enumerate() {
            let xb = [x[3 * bi], x[3 * bi + 1], x[3 * bi + 2]];
            let v = d.mul_vec(xb);
            y[3 * bi..3 * bi + 3].copy_from_slice(&v);
        }
        // upper blocks: forward and transposed contribution
        for bi in 0..self.nb {
            let xb = [x[3 * bi], x[3 * bi + 1], x[3 * bi + 2]];
            let mut acc = [0.0f64; 3];
            for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                let bj = self.col_idx[k] as usize;
                let b = &self.blocks[k];
                let xj = [x[3 * bj], x[3 * bj + 1], x[3 * bj + 2]];
                let f = b.mul_vec(xj);
                acc[0] += f[0];
                acc[1] += f[1];
                acc[2] += f[2];
                let t = b.transpose().mul_vec(xb);
                y[3 * bj] += t[0];
                y[3 * bj + 1] += t[1];
                y[3 * bj + 2] += t[2];
            }
            y[3 * bi] += acc[0];
            y[3 * bi + 1] += acc[1];
            y[3 * bi + 2] += acc[2];
        }
    }
}

/// The portable monomorphized symmetric row kernel — the scalar
/// backend's implementation of [`Backend::sym_rows`]'s contract, also
/// the SIMD backend's delegation target for widths below one vector.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_sym_rows_scalar(
    s: &SymmetricBcrs,
    x: &[f64],
    window: &mut [f64],
    slab: &mut [f64],
    slab_base: usize,
    m: usize,
    rows: Range<usize>,
) {
    match m {
        1 => sym_rows_fixed::<1>(s, x, window, slab, slab_base, rows),
        2 => sym_rows_fixed::<2>(s, x, window, slab, slab_base, rows),
        4 => sym_rows_fixed::<4>(s, x, window, slab, slab_base, rows),
        8 => sym_rows_fixed::<8>(s, x, window, slab, slab_base, rows),
        12 => sym_rows_fixed::<12>(s, x, window, slab, slab_base, rows),
        16 => sym_rows_fixed::<16>(s, x, window, slab, slab_base, rows),
        24 => sym_rows_fixed::<24>(s, x, window, slab, slab_base, rows),
        32 => sym_rows_fixed::<32>(s, x, window, slab, slab_base, rows),
        42 => sym_rows_fixed::<42>(s, x, window, slab, slab_base, rows),
        48 => sym_rows_fixed::<48>(s, x, window, slab, slab_base, rows),
        _ => sym_rows_generic(s, x, window, slab, slab_base, m, rows),
    }
}

/// Monomorphized symmetric row-range kernel; see [`Backend::sym_rows`]
/// for the contract.
fn sym_rows_fixed<const M: usize>(
    s: &SymmetricBcrs,
    x: &[f64],
    window: &mut [f64],
    slab: &mut [f64],
    slab_base: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * M;
    // Pass 1 — overwrite each window row with its diagonal + forward
    // terms. Must complete before any transpose term lands in-window
    // (transpose targets are strictly below their source row).
    for bi in rows.clone() {
        let xi = &x[bi * BLOCK_DIM * M..(bi + 1) * BLOCK_DIM * M];
        let mut acc = [[0.0f64; M]; BLOCK_DIM];
        block_madd_fixed::<M>(&s.diag[bi], xi, &mut acc, false);
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let xj = &x[bj * BLOCK_DIM * M..(bj + 1) * BLOCK_DIM * M];
            block_madd_fixed::<M>(&s.blocks[k], xj, &mut acc, false);
        }
        let yo = bi * BLOCK_DIM * M - y_base;
        for i in 0..BLOCK_DIM {
            window[yo + i * M..yo + (i + 1) * M].copy_from_slice(&acc[i]);
        }
    }
    // Pass 2 — scatter transpose terms: in-window rows accumulate
    // directly, rows at or below `slab_base` accumulate into the slab.
    for bi in rows.clone() {
        let xi = &x[bi * BLOCK_DIM * M..(bi + 1) * BLOCK_DIM * M];
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let b = &s.blocks[k];
            let target = if bj < rows.end {
                let yo = bj * BLOCK_DIM * M - y_base;
                &mut window[yo..yo + BLOCK_DIM * M]
            } else {
                let so = (bj - slab_base) * BLOCK_DIM * M;
                &mut slab[so..so + BLOCK_DIM * M]
            };
            let mut acc = [[0.0f64; M]; BLOCK_DIM];
            block_madd_fixed::<M>(b, xi, &mut acc, true);
            for i in 0..BLOCK_DIM {
                let t = &mut target[i * M..(i + 1) * M];
                for (tv, av) in t.iter_mut().zip(&acc[i]) {
                    *tv += av;
                }
            }
        }
    }
}

/// `acc (3×M) += B·x_slab` (or `Bᵀ·x_slab` when `transpose`) with
/// compile-time trip counts — the symmetric-storage version of the
/// paper's basic kernel.
#[inline]
fn block_madd_fixed<const M: usize>(
    b: &Block3,
    x: &[f64],
    acc: &mut [[f64; M]; BLOCK_DIM],
    transpose: bool,
) {
    let x0: &[f64; M] = x[..M].try_into().unwrap();
    let x1: &[f64; M] = x[M..2 * M].try_into().unwrap();
    let x2: &[f64; M] = x[2 * M..3 * M].try_into().unwrap();
    for i in 0..BLOCK_DIM {
        let (a0, a1, a2) = if transpose {
            (b.get(0, i), b.get(1, i), b.get(2, i))
        } else {
            (b.get(i, 0), b.get(i, 1), b.get(i, 2))
        };
        let acc_i = &mut acc[i];
        for j in 0..M {
            acc_i[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j];
        }
    }
}

/// Any-`m` fallback with the same two-pass structure as
/// [`sym_rows_fixed`] — also the generic backend's symmetric kernel.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sym_rows_generic(
    s: &SymmetricBcrs,
    x: &[f64],
    window: &mut [f64],
    slab: &mut [f64],
    slab_base: usize,
    m: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * BLOCK_DIM * m;
    for bi in rows.clone() {
        let yo = bi * BLOCK_DIM * m - y_base;
        let yr = &mut window[yo..yo + BLOCK_DIM * m];
        let xi = &x[bi * BLOCK_DIM * m..(bi + 1) * BLOCK_DIM * m];
        block_mul_slab(&s.diag[bi], xi, yr, m, true);
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let xj = &x[bj * BLOCK_DIM * m..(bj + 1) * BLOCK_DIM * m];
            accumulate_block(&s.blocks[k], xj, yr, m, false);
        }
    }
    for bi in rows.clone() {
        let xi = &x[bi * BLOCK_DIM * m..(bi + 1) * BLOCK_DIM * m];
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let target = if bj < rows.end {
                let yo = bj * BLOCK_DIM * m - y_base;
                &mut window[yo..yo + BLOCK_DIM * m]
            } else {
                let so = (bj - slab_base) * BLOCK_DIM * m;
                &mut slab[so..so + BLOCK_DIM * m]
            };
            accumulate_block(&s.blocks[k], xi, target, m, true);
        }
    }
}

/// `y_slab (3×m) (+)= B·x_slab`, writing when `overwrite`.
fn block_mul_slab(b: &Block3, x: &[f64], y: &mut [f64], m: usize, overwrite: bool) {
    for i in 0..BLOCK_DIM {
        for j in 0..m {
            let mut acc = 0.0;
            for c in 0..BLOCK_DIM {
                acc += b.get(i, c) * x[c * m + j];
            }
            if overwrite {
                y[i * m + j] = acc;
            } else {
                y[i * m + j] += acc;
            }
        }
    }
}

/// `y_slab += B·x_slab` (or `Bᵀ·x_slab` when `transpose`).
fn accumulate_block(
    b: &Block3,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    transpose: bool,
) {
    for i in 0..BLOCK_DIM {
        for c in 0..BLOCK_DIM {
            let a = if transpose { b.get(c, i) } else { b.get(i, c) };
            if a != 0.0 {
                let xr = &x[c * m..c * m + m];
                let yr = &mut y[i * m..i * m + m];
                for (yv, xv) in yr.iter_mut().zip(xr) {
                    *yv += a * xv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::active_backend;
    use crate::gspmv::{gspmv_on, gspmv_serial, spmv, Schedule, SPECIALIZED_M};
    use crate::multivec::MultiVec;
    use crate::triplet::BlockTripletBuilder;

    fn gspmv_chunked(s: &SymmetricBcrs, x: &MultiVec, y: &mut MultiVec, n: usize) {
        gspmv_on(active_backend(), s, x, y, Schedule::Chunked(n));
    }

    fn random_symmetric(nb: usize, seed: u64) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..nb {
            let mut d = Block3::ZERO;
            for v in d.0.iter_mut() {
                *v = next();
            }
            t.add(i, i, (d + d.transpose()) * 0.5 + Block3::scaled_identity(4.0));
            for off in 1..4 {
                if i + off < nb && next() > 0.0 {
                    let mut b = Block3::ZERO;
                    for v in b.0.iter_mut() {
                        *v = next();
                    }
                    t.add_symmetric_pair(i, i + off, b);
                }
            }
        }
        t.build()
    }

    fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
        MultiVec::from_flat(
            n,
            m,
            (0..n * m)
                .map(|v| (((v as u64).wrapping_mul(seed | 1) % 23) as f64) - 11.0)
                .collect(),
        )
    }

    fn assert_matches_full(
        a: &BcrsMatrix,
        got: &MultiVec,
        x: &MultiVec,
        ctx: &str,
    ) {
        let mut want = MultiVec::zeros(x.n(), x.m());
        gspmv_serial(a, x, &mut want);
        for (u, v) in want.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (u - v).abs() <= 1e-12 * u.abs().max(v.abs()).max(1.0),
                "{ctx}: {u} vs {v}"
            );
        }
    }

    #[test]
    fn rejects_asymmetric_matrix() {
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::IDENTITY);
        t.add(1, 1, Block3::IDENTITY);
        t.add(0, 1, Block3::scaled_identity(2.0)); // no transpose partner
        let a = t.build();
        assert!(SymmetricBcrs::from_full(&a, 1e-12).is_none());
    }

    #[test]
    fn stores_about_half_the_blocks() {
        let a = random_symmetric(40, 3);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let full = a.nnz_blocks();
        let half = s.stored_blocks();
        // exactly the diagonal plus half of the off-diagonal blocks
        assert_eq!(half, (full + a.nb_rows()) / 2, "{half} vs {full}");
        assert!(s.stream_bytes() < a.stream_bytes());
    }

    #[test]
    fn spmv_matches_full_storage() {
        let a = random_symmetric(30, 7);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv(&a, &x, &mut y1);
        spmv(&s, &x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() <= 1e-10 * u.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn serial_gspmv_matches_full_storage_all_specialized_m() {
        let a = random_symmetric(25, 11);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for &m in SPECIALIZED_M {
            let x = pseudo_multivec(n, m, 7);
            let mut y = MultiVec::zeros(n, m);
            gspmv_serial(&s, &x, &mut y);
            assert_matches_full(&a, &y, &x, &format!("serial m={m}"));
        }
        // And a non-specialized size through the generic fallback.
        let x = pseudo_multivec(n, 7, 13);
        let mut y = MultiVec::zeros(n, 7);
        gspmv_serial(&s, &x, &mut y);
        assert_matches_full(&a, &y, &x, "serial m=7 (generic)");
    }

    #[test]
    fn threaded_gspmv_matches_full_storage_all_specialized_m() {
        let a = random_symmetric(60, 17);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for &m in SPECIALIZED_M {
            for nthreads in [2usize, 3, 5] {
                let x = pseudo_multivec(n, m, 29 + m as u64);
                let mut y = MultiVec::zeros(n, m);
                gspmv_chunked(&s, &x, &mut y, nthreads);
                assert_matches_full(&a, &y, &x, &format!("m={m} t={nthreads}"));
            }
        }
    }

    #[test]
    fn threaded_generic_fallback_matches() {
        let a = random_symmetric(40, 5);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for m in [3usize, 7, 10] {
            let x = pseudo_multivec(n, m, 3);
            let mut y = MultiVec::zeros(n, m);
            gspmv_chunked(&s, &x, &mut y, 4);
            assert_matches_full(&a, &y, &x, &format!("generic m={m}"));
        }
    }

    #[test]
    fn threaded_handles_empty_and_dense_rows() {
        // Row 0 dense (couples to every other row), rows 2 and 5 empty
        // apart from the (implicit, zero) diagonal.
        let nb = 9;
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            if i != 2 && i != 5 {
                t.add(i, i, Block3::scaled_identity(3.0));
            }
        }
        for j in 1..nb {
            if j != 2 && j != 5 {
                t.add_symmetric_pair(0, j, Block3::scaled_identity(0.5 + j as f64));
            }
        }
        let a = t.build();
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for m in [1usize, 4, 8] {
            let x = pseudo_multivec(n, m, 11);
            let mut y = MultiVec::zeros(n, m);
            gspmv_chunked(&s, &x, &mut y, 3);
            assert_matches_full(&a, &y, &x, &format!("dense/empty m={m}"));
        }
    }

    #[test]
    fn spmv_chunked_path_matches_width1_kernel() {
        // Below the threshold `spmv` runs the width-1 kernel; above it,
        // the chunk runner at m = 1 — driven directly here.
        let a = random_symmetric(80, 23);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 29) as f64) - 14.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv(&s, &x, &mut y1);
        s.run_chunks(active_backend(), &x, &mut y2, 1, 4, false);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() <= 1e-12 * u.abs().max(1.0));
        }
    }

    #[test]
    fn balanced_chunks_cover_rows_exactly_once() {
        let a = random_symmetric(103, 41);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        for nc in [1usize, 2, 3, 7, 16, 300] {
            let chunks = s.balanced_row_chunks(nc);
            let mut next = 0;
            for c in &chunks {
                assert_eq!(c.start, next);
                assert!(c.end > c.start || chunks.len() == 1);
                next = c.end;
            }
            assert_eq!(next, s.nb_rows());
            assert!(chunks.len() <= nc.max(1));
        }
    }

    #[test]
    fn diagonal_matrix_round_trip() {
        let a = BcrsMatrix::scaled_identity(6, 3.0);
        let s = SymmetricBcrs::from_full(&a, 0.0).unwrap();
        assert_eq!(s.stored_blocks(), 6);
        let x = vec![2.0; 18];
        let mut y = vec![0.0; 18];
        spmv(&s, &x, &mut y);
        assert!(y.iter().all(|&v| (v - 6.0).abs() < 1e-14));
    }
}
