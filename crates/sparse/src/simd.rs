//! Explicit-SIMD row kernels behind a thin vector wrapper.
//!
//! The kernel bodies are written once, generic over a minimal [`Vf64`]
//! vector interface, and monomorphized per ISA inside concrete
//! `#[target_feature]` wrappers — the wrapper provides the feature
//! context, `#[inline(always)]` on the generic bodies guarantees the
//! intrinsics land inside it. This is the runtime analogue of the
//! paper's code generator: one kernel source, one binary, and per width
//! the widest vector of the *running* CPU that `m` fills
//! (`Backend::vector_isa`) — an AVX-512 CPU runs `4 ≤ m < 8` through
//! the AVX2 instances of the same bodies.
//!
//! **Register tiling.** For each block row the `m` columns are
//! processed in chunks of up to four vectors (`NV = 4 → 2 → 1`, then a
//! scalar tail), and the 3×`NV·LANES` accumulator tile stays in
//! registers across the entire row — every stored block contributes
//! nine broadcast-FMAs per vector without touching memory for partial
//! sums. A row's blocks are re-read once per chunk; they sit in L1 by
//! the second pass, and the expensive stream (the matrix at large `m`,
//! per Eq. 8) is only read for the first chunk.
//!
//! **Width 1.** No vector can be filled along `m`, so full-storage
//! rows at `m = 1` are vectorised across the 3×3 block instead
//! ([`rows_w1`]): one lane per block entry, two interleaved block
//! streams, one reduction per row in an order the body fixes — the
//! same bits on every ISA — and loads that never pass the end of a
//! block or of `x`.
//!
//! **Determinism.** Per output element the accumulation order is the
//! stored block order (at `m = 1`: the fixed even/odd-stream order of
//! [`rows_w1`]) — identical across chunk decompositions, so the
//! serial/auto/chunked contracts of the scalar kernels carry over
//! unchanged. The FMA contraction rounds differently from the scalar
//! kernels' mul-then-add, so *cross-backend* agreement is tolerance
//! (ULP) level, which the oracle suite checks explicitly.

use crate::backend::Isa;
use crate::block::Block3;
use std::ops::Range;

/// Lanes of `isa`'s vector — below this width its row and dense
/// kernels would be pure scalar tail, so `Backend::vector_isa` looks
/// for a narrower vector or delegates to the monomorphized backend.
pub(crate) fn min_vector_width(isa: Isa) -> usize {
    match isa {
        Isa::Avx512 => 8,
        Isa::Avx2 => 4,
        Isa::Neon => 2,
        Isa::Portable => usize::MAX,
    }
}

/// The minimal f64 vector interface the kernel bodies are generic
/// over. All methods are `unsafe`: callers must hold the ISA's target
/// features (guaranteed by the `#[target_feature]` wrappers below).
trait Vf64: Copy {
    const LANES: usize;
    /// Architectural vector registers — what the dense kernels size
    /// their register tiles from.
    const REGS: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(v: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    /// Fused `self + a·b`.
    unsafe fn fma(self, a: Self, b: Self) -> Self;
    /// Fused `self − a·b`.
    unsafe fn fnma(self, a: Self, b: Self) -> Self;
    /// Lane-wise `self + other`.
    unsafe fn add(self, other: Self) -> Self;
    /// `[x0, x1, x2, x0, x1, x2, x0, x1]` — `p[0..3]` repeated along
    /// entries 0..8 of a row-major 3×3 block — in the first
    /// `8 / LANES` vectors (the rest are zero). Reads exactly `p[0]`,
    /// `p[1]` and `p[2]`.
    unsafe fn x3_pattern(p: *const f64) -> [Self; 4];
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Vf64;
    use core::arch::x86_64::*;

    #[derive(Clone, Copy)]
    pub struct V4(__m256d);

    impl Vf64 for V4 {
        const LANES: usize = 4;
        const REGS: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            V4(_mm256_setzero_pd())
        }
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            V4(_mm256_set1_pd(v))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            V4(_mm256_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm256_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn fma(self, a: Self, b: Self) -> Self {
            V4(_mm256_fmadd_pd(a.0, b.0, self.0))
        }
        #[inline(always)]
        unsafe fn fnma(self, a: Self, b: Self) -> Self {
            V4(_mm256_fnmadd_pd(a.0, b.0, self.0))
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            V4(_mm256_add_pd(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn x3_pattern(p: *const f64) -> [Self; 4] {
            // Lane 3 is masked off: a masked-off lane is not accessed.
            let t = _mm256_maskload_pd(p, _mm256_set_epi64x(0, -1, -1, -1));
            [
                V4(_mm256_permute4x64_pd::<0b00_10_01_00>(t)), // 0 1 2 0
                V4(_mm256_permute4x64_pd::<0b01_00_10_01>(t)), // 1 2 0 1
                Self::zero(),
                Self::zero(),
            ]
        }
    }

    #[derive(Clone, Copy)]
    pub struct V8(__m512d);

    impl Vf64 for V8 {
        const LANES: usize = 8;
        const REGS: usize = 32;
        #[inline(always)]
        unsafe fn zero() -> Self {
            V8(_mm512_setzero_pd())
        }
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            V8(_mm512_set1_pd(v))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            V8(_mm512_loadu_pd(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            _mm512_storeu_pd(p, self.0)
        }
        #[inline(always)]
        unsafe fn fma(self, a: Self, b: Self) -> Self {
            V8(_mm512_fmadd_pd(a.0, b.0, self.0))
        }
        #[inline(always)]
        unsafe fn fnma(self, a: Self, b: Self) -> Self {
            V8(_mm512_fnmadd_pd(a.0, b.0, self.0))
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            V8(_mm512_add_pd(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn x3_pattern(p: *const f64) -> [Self; 4] {
            // A 4-lane masked load (a 64-byte one would split a cache
            // line on most block columns); lane 3 is masked off, and a
            // masked-off lane is not accessed. The index below reads
            // lanes 0..3 only.
            let t = _mm512_castpd256_pd512(_mm256_maskload_pd(
                p,
                _mm256_set_epi64x(0, -1, -1, -1),
            ));
            let idx = _mm512_set_epi64(1, 0, 2, 1, 0, 2, 1, 0);
            [
                V8(_mm512_permutexvar_pd(idx, t)),
                Self::zero(),
                Self::zero(),
                Self::zero(),
            ]
        }
    }
}

#[cfg(target_arch = "aarch64")]
mod arm {
    use super::Vf64;
    use core::arch::aarch64::*;

    #[derive(Clone, Copy)]
    pub struct V2(float64x2_t);

    impl Vf64 for V2 {
        const LANES: usize = 2;
        const REGS: usize = 32;
        #[inline(always)]
        unsafe fn zero() -> Self {
            V2(vdupq_n_f64(0.0))
        }
        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            V2(vdupq_n_f64(v))
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            V2(vld1q_f64(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            vst1q_f64(p, self.0)
        }
        #[inline(always)]
        unsafe fn fma(self, a: Self, b: Self) -> Self {
            V2(vfmaq_f64(self.0, a.0, b.0))
        }
        #[inline(always)]
        unsafe fn fnma(self, a: Self, b: Self) -> Self {
            V2(vfmsq_f64(self.0, a.0, b.0))
        }
        #[inline(always)]
        unsafe fn add(self, other: Self) -> Self {
            V2(vaddq_f64(self.0, other.0))
        }
        #[inline(always)]
        unsafe fn x3_pattern(p: *const f64) -> [Self; 4] {
            let x01 = vld1q_f64(p);
            let x22 = vld1q_dup_f64(p.add(2));
            [
                V2(x01),
                V2(vzip1q_f64(x22, x01)), // x2 x0
                V2(vzip2q_f64(x01, x22)), // x1 x2
                V2(x01),
            ]
        }
    }
}

// ---------------------------------------------------------------------
// Generic kernel bodies (ISA-independent, always inlined into the
// per-ISA `#[target_feature]` wrappers).
// ---------------------------------------------------------------------

/// `acc (3×NV vectors) += B · x_slab[off..off+NV·LANES]` for one 3×3
/// block. Nine broadcasts, `3·NV` x-loads, `9·NV` FMAs; LLVM CSEs the
/// broadcasts across the unrolled `v` loop when registers allow.
#[inline(always)]
unsafe fn apply_fwd<V: Vf64, const NV: usize>(
    bp: *const f64,
    xb: *const f64,
    m: usize,
    acc: &mut [[V; NV]; 3],
) {
    for v in 0..NV {
        let x0 = V::load(xb.add(v * V::LANES));
        let x1 = V::load(xb.add(m + v * V::LANES));
        let x2 = V::load(xb.add(2 * m + v * V::LANES));
        for i in 0..3 {
            acc[i][v] = acc[i][v]
                .fma(V::splat(*bp.add(3 * i)), x0)
                .fma(V::splat(*bp.add(3 * i + 1)), x1)
                .fma(V::splat(*bp.add(3 * i + 2)), x2);
        }
    }
}

/// One register-tiled chunk (`NV` vectors wide, lane offset `off`) of a
/// full-storage block row: accumulate every stored block, store once.
#[inline(always)]
unsafe fn row_chunk<V: Vf64, const NV: usize>(
    ks: Range<usize>,
    col_idx: &[u32],
    blocks: &[Block3],
    x: *const f64,
    m: usize,
    off: usize,
    yrow: *mut f64,
) {
    let mut acc = [[V::zero(); NV]; 3];
    for k in ks {
        let c = *col_idx.get_unchecked(k) as usize;
        let bp = blocks[k].0.as_ptr();
        apply_fwd::<V, NV>(bp, x.add(c * 3 * m + off), m, &mut acc);
    }
    for i in 0..3 {
        for v in 0..NV {
            acc[i][v].store(yrow.add(i * m + off + v * V::LANES));
        }
    }
}

/// Scalar tail for the final `m − off` columns of a full-storage row.
#[inline(always)]
unsafe fn row_tail(
    ks: Range<usize>,
    col_idx: &[u32],
    blocks: &[Block3],
    x: *const f64,
    m: usize,
    off: usize,
    yrow: *mut f64,
) {
    for j in off..m {
        let (mut a0, mut a1, mut a2) = (0.0f64, 0.0f64, 0.0f64);
        for k in ks.clone() {
            let c = *col_idx.get_unchecked(k) as usize;
            let b = &blocks[k].0;
            let xb = x.add(c * 3 * m + j);
            let (x0, x1, x2) = (*xb, *xb.add(m), *xb.add(2 * m));
            a0 += b[0] * x0 + b[1] * x1 + b[2] * x2;
            a1 += b[3] * x0 + b[4] * x1 + b[5] * x2;
            a2 += b[6] * x0 + b[7] * x1 + b[8] * x2;
        }
        *yrow.add(j) = a0;
        *yrow.add(m + j) = a1;
        *yrow.add(2 * m + j) = a2;
    }
}

/// Full-storage GSPMV row loop: chunk decomposition `4·L / 2·L / L`
/// vectors plus scalar tail, accumulators in registers per chunk.
#[inline(always)]
unsafe fn rows_vf<V: Vf64>(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    let y_base = rows.start * 3 * m;
    let xp = x.as_ptr();
    for bi in rows {
        let ks = row_ptr[bi]..row_ptr[bi + 1];
        let yrow = y.as_mut_ptr().add(bi * 3 * m - y_base);
        let mut off = 0;
        while off + 4 * V::LANES <= m {
            row_chunk::<V, 4>(ks.clone(), col_idx, blocks, xp, m, off, yrow);
            off += 4 * V::LANES;
        }
        if off + 2 * V::LANES <= m {
            row_chunk::<V, 2>(ks.clone(), col_idx, blocks, xp, m, off, yrow);
            off += 2 * V::LANES;
        }
        if off + V::LANES <= m {
            row_chunk::<V, 1>(ks.clone(), col_idx, blocks, xp, m, off, yrow);
            off += V::LANES;
        }
        if off < m {
            row_tail(ks, col_idx, blocks, xp, m, off, yrow);
        }
    }
}

/// Full-storage row loop at `m = 1`, vectorised across the 3×3 block:
/// one lane per block entry, `acc[3i+k] += a_ik · x_k`, over two
/// interleaved block streams (even and odd position in the row) so
/// consecutive FMAs on an accumulator are two blocks apart. Entries
/// 0..8 live in `8 / LANES` vectors, entry 8 in a scalar FMA chain.
/// Each row is reduced once, in an order fixed by this body —
/// `s = even + odd` per entry, then `y_i = (s_i0 + s_i1) + s_i2` — so
/// every lane is the same chain of correctly rounded operations
/// whatever the vector length, and all ISAs give the same bits.
///
/// Loads never pass the end of a slice: a block is read as its entries
/// 0..8 plus entry 8, `x_j` as exactly three values
/// ([`Vf64::x3_pattern`]).
#[inline(always)]
unsafe fn rows_w1<V: Vf64>(
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    y: &mut [f64],
    rows: Range<usize>,
) {
    let nv = 8 / V::LANES;
    // acc[3i+k] += a_ik · x_k for one block, into one stream.
    #[inline(always)]
    unsafe fn block_fma<V: Vf64>(
        b: &Block3,
        xj: *const f64,
        acc: &mut [V; 4],
        acc8: &mut f64,
    ) {
        let xs = V::x3_pattern(xj);
        let bp = b.0.as_ptr();
        for v in 0..8 / V::LANES {
            acc[v] = acc[v].fma(V::load(bp.add(v * V::LANES)), xs[v]);
        }
        *acc8 = b.0[8].mul_add(*xj.add(2), *acc8);
    }
    let xp = x.as_ptr();
    for (bi, yrow) in rows.zip(y.chunks_exact_mut(3)) {
        let ks = row_ptr[bi]..row_ptr[bi + 1];
        let (cols, blks) = (&col_idx[ks.clone()], &blocks[ks]);
        let (mut even, mut odd) = ([V::zero(); 4], [V::zero(); 4]);
        let (mut even8, mut odd8) = (0.0f64, 0.0f64);
        // SAFETY of every `xp.add`: a stored column index is below the
        // block column count and `x` holds three values per block
        // column (asserted by `Backend::gspmv_rows`).
        let (cpairs, bpairs) = (cols.chunks_exact(2), blks.chunks_exact(2));
        let last = (cpairs.remainder(), bpairs.remainder());
        for (c, b) in cpairs.zip(bpairs) {
            block_fma(&b[0], xp.add(3 * c[0] as usize), &mut even, &mut even8);
            block_fma(&b[1], xp.add(3 * c[1] as usize), &mut odd, &mut odd8);
        }
        if let ([c], [b]) = last {
            block_fma(b, xp.add(3 * *c as usize), &mut even, &mut even8);
        }
        let mut s = [0.0f64; 9];
        for v in 0..nv {
            even[v].add(odd[v]).store(s.as_mut_ptr().add(v * V::LANES));
        }
        s[8] = even8 + odd8;
        for (i, yi) in yrow.iter_mut().enumerate() {
            *yi = (s[3 * i] + s[3 * i + 1]) + s[3 * i + 2];
        }
    }
}

// ---------------------------------------------------------------------
// Dense MultiVec kernel bodies (Gram, X += P·C, P ← R + P·C, fused
// sub-mul-gram): register-blocked tiles over L1-sized row chunks.
//
// Every sweep walks its multivectors once, in chunks of
// `chunk_rows(m)` rows; inside a chunk each register tile makes its own
// pass over rows that are by then in L1. A tile's accumulators live in
// vector registers for the whole pass and round-trip through memory
// only between passes, which is exact — so per output element the
// operation sequence is the one-row-at-a-time loop's (rows ascending
// per Gram entry, `k` ascending per update, fused in the vector
// columns and mul-then-add in the scalar tail columns) and results are
// bitwise those of the `#[cfg(test)]` reference bodies below. An
// accumulator must never be *split* across rows (two partial sums
// added at the end): that reassociates the sum and changes the bits.
//
// Tile shape, from the ISA's register file (`Vf64::REGS`): `T = REGS/4`
// rows of the m×m operand are held at a time (Gram result rows, rows of
// `C`), ≤ 2 vectors wide, and row groups are sized so 8 FMA chains are
// independent. AVX-512/NEON: 8×2 Gram tile (16 accumulators), 8×2 `C`
// tile + 4 rows × 2 vectors in flight. AVX2: 4×2 Gram tile, 4×1 `C`
// tile + 8 rows in flight. Leftover result/`C` rows use 4-, 2- and
// 1-row tiles, a leftover vector a 1-vector tile, leftover columns
// (`m` not a lane multiple) scalar code.
//
// Safety contract shared by every body below: the caller holds `V`'s
// target features, every multivector pointer/slice covers the rows it
// is asked to touch at row stride `m`, `c` and `g` cover `m·m`
// elements, and `g`/`dst` overlap no other operand except where a
// signature says `dst` may alias `init`. The safe dispatchers at the
// bottom of this file check the lengths.
// ---------------------------------------------------------------------

/// Elements of one operand's row chunk (8 KiB): two operands of a
/// chunk plus the staged copy of `assign_add_mul` stay L1-resident.
const DENSE_CHUNK_F64: usize = 1024;

#[inline(always)]
fn chunk_rows(m: usize) -> usize {
    (DENSE_CHUNK_F64 / m).max(1)
}

/// One Gram register tile over one row chunk:
/// `G[i0..i0+GI, j0..j0+NV·LANES] += Σ_r a[r, i]·b[r, j]`, rows
/// ascending, the `GI·NV` accumulators in registers throughout.
#[inline(always)]
unsafe fn gram_tile<V: Vf64, const GI: usize, const NV: usize>(
    a: *const f64,
    b: *const f64,
    m: usize,
    rows: Range<usize>,
    i0: usize,
    j0: usize,
    g: *mut f64,
) {
    let mut acc = [[V::zero(); NV]; GI];
    for i in 0..GI {
        for v in 0..NV {
            acc[i][v] = V::load(g.add((i0 + i) * m + j0 + v * V::LANES));
        }
    }
    for r in rows {
        let arow = a.add(r * m + i0);
        let brow = b.add(r * m + j0);
        let mut bv = [V::zero(); NV];
        for v in 0..NV {
            bv[v] = V::load(brow.add(v * V::LANES));
        }
        for i in 0..GI {
            let s = V::splat(*arow.add(i));
            for v in 0..NV {
                acc[i][v] = acc[i][v].fma(s, bv[v]);
            }
        }
    }
    for i in 0..GI {
        for v in 0..NV {
            acc[i][v].store(g.add((i0 + i) * m + j0 + v * V::LANES));
        }
    }
}

/// All vector-column tiles of result rows `i0..i0+GI` for one chunk.
#[inline(always)]
unsafe fn gram_row_panel<V: Vf64, const GI: usize>(
    a: *const f64,
    b: *const f64,
    m: usize,
    rows: Range<usize>,
    i0: usize,
    g: *mut f64,
) {
    let mut j = 0;
    while j + 2 * V::LANES <= m {
        gram_tile::<V, GI, 2>(a, b, m, rows.clone(), i0, j, g);
        j += 2 * V::LANES;
    }
    if j + V::LANES <= m {
        gram_tile::<V, GI, 1>(a, b, m, rows, i0, j, g);
    }
}

/// `G += a[rows]ᵀ·b[rows]` for one row chunk: result-row panels of
/// `T`, then 4, 2, 1 rows; tail columns in scalar mul-then-add.
#[inline(always)]
unsafe fn gram_chunk<V: Vf64, const T: usize>(
    a: *const f64,
    b: *const f64,
    m: usize,
    rows: Range<usize>,
    g: *mut f64,
) {
    let mut i = 0;
    while i + T <= m {
        gram_row_panel::<V, T>(a, b, m, rows.clone(), i, g);
        i += T;
    }
    if T > 4 && i + 4 <= m {
        gram_row_panel::<V, 4>(a, b, m, rows.clone(), i, g);
        i += 4;
    }
    if T > 2 && i + 2 <= m {
        gram_row_panel::<V, 2>(a, b, m, rows.clone(), i, g);
        i += 2;
    }
    if i < m {
        gram_row_panel::<V, 1>(a, b, m, rows.clone(), i, g);
    }
    let tail = m - m % V::LANES;
    if tail < m {
        for r in rows {
            for i in 0..m {
                let s = *a.add(r * m + i);
                for j in tail..m {
                    *g.add(i * m + j) += s * *b.add(r * m + j);
                }
            }
        }
    }
}

/// Gram matrix `g = aᵀ·b` for equal widths `m`; `a`, `b` are `n×m`
/// row-major, `g` is `m×m` and overwritten.
#[inline(always)]
unsafe fn gram_vf<V: Vf64, const T: usize>(
    a: &[f64],
    b: &[f64],
    m: usize,
    g: &mut [f64],
) {
    g.fill(0.0);
    let n = a.len() / m;
    let step = chunk_rows(m);
    let mut r0 = 0;
    while r0 < n {
        let r1 = (r0 + step).min(n);
        gram_chunk::<V, T>(a.as_ptr(), b.as_ptr(), m, r0..r1, g.as_mut_ptr());
        r0 = r1;
    }
}

/// One update register tile on `RB` consecutive rows:
/// `dst[r, j0..] = init[r, j0..] ± Σ_{k<KP} coef[r, k0+k]·C[k0+k, j0..]`,
/// `k` ascending, with the `KP×NV` tile of `C` (`ct`) and the `RB·NV`
/// accumulators in registers. The three pointers address the group's
/// first row; `dst` may alias `init`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn update_tile<
    V: Vf64,
    const KP: usize,
    const NV: usize,
    const RB: usize,
    const NEG: bool,
>(
    dst: *mut f64,
    init: *const f64,
    coef: *const f64,
    ct: &[[V; NV]; KP],
    m: usize,
    k0: usize,
    j0: usize,
) {
    let mut acc = [[V::zero(); NV]; RB];
    for rr in 0..RB {
        for v in 0..NV {
            acc[rr][v] = V::load(init.add(rr * m + j0 + v * V::LANES));
        }
    }
    for k in 0..KP {
        for rr in 0..RB {
            let s = V::splat(*coef.add(rr * m + k0 + k));
            for v in 0..NV {
                acc[rr][v] = if NEG {
                    acc[rr][v].fnma(s, ct[k][v])
                } else {
                    acc[rr][v].fma(s, ct[k][v])
                };
            }
        }
    }
    for rr in 0..RB {
        for v in 0..NV {
            acc[rr][v].store(dst.add(rr * m + j0 + v * V::LANES));
        }
    }
}

/// One `KP×NV` tile of `C` applied to every row of a chunk: groups of
/// `RB` rows (independent FMA chains), then single rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn update_c_tile<
    V: Vf64,
    const KP: usize,
    const NV: usize,
    const RB: usize,
    const NEG: bool,
>(
    dst: *mut f64,
    init: *const f64,
    coef: *const f64,
    c: *const f64,
    m: usize,
    rows: usize,
    k0: usize,
    j0: usize,
) {
    let mut ct = [[V::zero(); NV]; KP];
    for k in 0..KP {
        for v in 0..NV {
            ct[k][v] = V::load(c.add((k0 + k) * m + j0 + v * V::LANES));
        }
    }
    let mut r = 0;
    while r + RB <= rows {
        let o = r * m;
        update_tile::<V, KP, NV, RB, NEG>(
            dst.add(o),
            init.add(o),
            coef.add(o),
            &ct,
            m,
            k0,
            j0,
        );
        r += RB;
    }
    while r < rows {
        let o = r * m;
        update_tile::<V, KP, NV, 1, NEG>(
            dst.add(o),
            init.add(o),
            coef.add(o),
            &ct,
            m,
            k0,
            j0,
        );
        r += 1;
    }
}

/// One `NV`-vector column panel of a chunk update: `C`-row panels of
/// `T`, then 4, 2, 1 rows, ascending. The first panel starts each
/// element from `init`, later ones continue from the partial in `dst`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn update_col_panel<
    V: Vf64,
    const T: usize,
    const NV: usize,
    const RB: usize,
    const NEG: bool,
>(
    dst: *mut f64,
    init: *const f64,
    coef: *const f64,
    c: *const f64,
    m: usize,
    rows: usize,
    j0: usize,
) {
    let from = |k: usize| if k == 0 { init } else { dst as *const f64 };
    let mut k = 0;
    while k + T <= m {
        update_c_tile::<V, T, NV, RB, NEG>(dst, from(k), coef, c, m, rows, k, j0);
        k += T;
    }
    if T > 4 && k + 4 <= m {
        update_c_tile::<V, 4, NV, RB, NEG>(dst, from(k), coef, c, m, rows, k, j0);
        k += 4;
    }
    if T > 2 && k + 2 <= m {
        update_c_tile::<V, 2, NV, RB, NEG>(dst, from(k), coef, c, m, rows, k, j0);
        k += 2;
    }
    if k < m {
        update_c_tile::<V, 1, NV, RB, NEG>(dst, from(k), coef, c, m, rows, k, j0);
    }
}

/// `dst = init ± coef·C` on one row chunk (`rows` rows from the three
/// pointers): 2-vector column panels where the register file holds an
/// 8×2 tile of `C` beside the accumulators (`WIDE`), 1-vector panels
/// otherwise and for a leftover vector, scalar tail columns.
#[inline(always)]
unsafe fn update_chunk<
    V: Vf64,
    const T: usize,
    const WIDE: bool,
    const NEG: bool,
>(
    dst: *mut f64,
    init: *const f64,
    coef: *const f64,
    c: *const f64,
    m: usize,
    rows: usize,
) {
    let mut j = 0;
    if WIDE {
        while j + 2 * V::LANES <= m {
            update_col_panel::<V, T, 2, 4, NEG>(dst, init, coef, c, m, rows, j);
            j += 2 * V::LANES;
        }
    }
    while j + V::LANES <= m {
        update_col_panel::<V, T, 1, 8, NEG>(dst, init, coef, c, m, rows, j);
        j += V::LANES;
    }
    if j < m {
        for r in 0..rows {
            for jj in j..m {
                let mut acc = *init.add(r * m + jj);
                for k in 0..m {
                    let t = *coef.add(r * m + k) * *c.add(k * m + jj);
                    if NEG {
                        acc -= t;
                    } else {
                        acc += t;
                    }
                }
                *dst.add(r * m + jj) = acc;
            }
        }
    }
}

/// `x += p · C` with `C` row-major `m×m`.
#[inline(always)]
unsafe fn add_mul_vf<V: Vf64, const T: usize, const WIDE: bool>(
    x: &mut [f64],
    p: &[f64],
    c: &[f64],
    m: usize,
) {
    let n = p.len() / m;
    let step = chunk_rows(m);
    let mut r0 = 0;
    while r0 < n {
        let rows = step.min(n - r0);
        let xp = x.as_mut_ptr().add(r0 * m);
        update_chunk::<V, T, WIDE, false>(
            xp,
            xp,
            p.as_ptr().add(r0 * m),
            c.as_ptr(),
            m,
            rows,
        );
        r0 += rows;
    }
}

/// `p ← r + p · C`. The coefficients are the *original* rows of `p`,
/// which the tiles overwrite panel by panel — so each chunk of `p` is
/// first copied to `stage` (length ≥ `chunk_rows(m)·m`) and read from
/// there.
#[inline(always)]
unsafe fn assign_add_mul_vf<V: Vf64, const T: usize, const WIDE: bool>(
    p: &mut [f64],
    r: &[f64],
    c: &[f64],
    m: usize,
    stage: &mut [f64],
) {
    let n = r.len() / m;
    let step = chunk_rows(m);
    let mut r0 = 0;
    while r0 < n {
        let rows = step.min(n - r0);
        let pp = p.as_mut_ptr().add(r0 * m);
        std::ptr::copy_nonoverlapping(pp, stage.as_mut_ptr(), rows * m);
        update_chunk::<V, T, WIDE, false>(
            pp,
            r.as_ptr().add(r0 * m),
            stage.as_ptr(),
            c.as_ptr(),
            m,
            rows,
        );
        r0 += rows;
    }
}

/// Fused `r ← r − q·C; g = rᵀ·r`: each chunk is updated, then reduced
/// while it is still in L1 — one pass over memory.
#[inline(always)]
unsafe fn sub_mul_gram_vf<V: Vf64, const T: usize, const WIDE: bool>(
    rm: &mut [f64],
    q: &[f64],
    c: &[f64],
    m: usize,
    g: &mut [f64],
) {
    g.fill(0.0);
    let n = q.len() / m;
    let step = chunk_rows(m);
    let mut r0 = 0;
    while r0 < n {
        let rows = step.min(n - r0);
        let rp = rm.as_mut_ptr().add(r0 * m);
        update_chunk::<V, T, WIDE, true>(
            rp,
            rp,
            q.as_ptr().add(r0 * m),
            c.as_ptr(),
            m,
            rows,
        );
        gram_chunk::<V, T>(rp, rp, m, 0..rows, g.as_mut_ptr());
        r0 += rows;
    }
}

/// `z = D·r` on `blocks` consecutive 3-row groups, `D` block diagonal
/// with blocks `d[0..blocks]`, plus `nsq[j] += Σ r[row, j]²` over the
/// same rows. Per element of `z` three FMAs from zero, block columns
/// ascending; per column of `nsq` one add per group of the group's
/// three squares (FMAs from zero, rows ascending) — one short chain
/// per group, so the running sum is not an FMA-latency chain over
/// every row. Tail columns in scalar mul-then-add.
#[inline(always)]
unsafe fn block_diag_chunk<V: Vf64>(
    d: *const Block3,
    r: *const f64,
    z: *mut f64,
    m: usize,
    blocks: usize,
    nsq: *mut f64,
) {
    let mut j = 0;
    while j + V::LANES <= m {
        let mut sum = V::load(nsq.add(j));
        for b in 0..blocks {
            let a = &(*d.add(b)).0;
            let rb = r.add(3 * b * m + j);
            let rows = [V::load(rb), V::load(rb.add(m)), V::load(rb.add(2 * m))];
            let (mut sq, mut zi) = (V::zero(), [V::zero(); 3]);
            for k in 0..3 {
                for i in 0..3 {
                    zi[i] = zi[i].fma(V::splat(a[3 * i + k]), rows[k]);
                }
                sq = sq.fma(rows[k], rows[k]);
            }
            for i in 0..3 {
                zi[i].store(z.add((3 * b + i) * m + j));
            }
            sum = sum.add(sq);
        }
        sum.store(nsq.add(j));
        j += V::LANES;
    }
    while j < m {
        for b in 0..blocks {
            let a = &(*d.add(b)).0;
            let rb = r.add(3 * b * m + j);
            let rows = [*rb, *rb.add(m), *rb.add(2 * m)];
            for i in 0..3 {
                *z.add((3 * b + i) * m + j) = a[3 * i] * rows[0]
                    + a[3 * i + 1] * rows[1]
                    + a[3 * i + 2] * rows[2];
            }
            *nsq.add(j) +=
                rows[0] * rows[0] + rows[1] * rows[1] + rows[2] * rows[2];
        }
        j += 1;
    }
}

/// `z = D·r` with `nsq` the squared column norms of `r`.
#[inline(always)]
unsafe fn block_diag_vf<V: Vf64>(
    d: &[Block3],
    r: &[f64],
    z: &mut [f64],
    m: usize,
    nsq: &mut [f64],
) {
    nsq.fill(0.0);
    block_diag_chunk::<V>(
        d.as_ptr(),
        r.as_ptr(),
        z.as_mut_ptr(),
        m,
        d.len(),
        nsq.as_mut_ptr(),
    );
}

/// Fused `r ← r − q·C; z = D·r; g = rᵀ·z; nsq = diag(rᵀ·r)`: the
/// block-Jacobi form of [`sub_mul_gram_vf`]. Chunks hold whole 3-row
/// groups; each is updated, multiplied by its diagonal blocks and
/// reduced while it is in L1 — still one pass over memory.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn sub_mul_precond_gram_vf<V: Vf64, const T: usize, const WIDE: bool>(
    rm: &mut [f64],
    q: &[f64],
    c: &[f64],
    d: &[Block3],
    z: &mut [f64],
    m: usize,
    g: &mut [f64],
    nsq: &mut [f64],
) {
    g.fill(0.0);
    nsq.fill(0.0);
    let step = (chunk_rows(m) / 3).max(1);
    let mut b0 = 0;
    while b0 < d.len() {
        let blocks = step.min(d.len() - b0);
        let rp = rm.as_mut_ptr().add(3 * b0 * m);
        let zp = z.as_mut_ptr().add(3 * b0 * m);
        update_chunk::<V, T, WIDE, true>(
            rp,
            rp,
            q.as_ptr().add(3 * b0 * m),
            c.as_ptr(),
            m,
            3 * blocks,
        );
        block_diag_chunk::<V>(
            d.as_ptr().add(b0),
            rp,
            zp,
            m,
            blocks,
            nsq.as_mut_ptr(),
        );
        gram_chunk::<V, T>(rp, zp, m, 0..3 * blocks, g.as_mut_ptr());
        b0 += blocks;
    }
}

// ---------------------------------------------------------------------
// Concrete per-ISA wrappers. `#[target_feature]` provides the feature
// context the inlined generic bodies compile against.
// ---------------------------------------------------------------------

macro_rules! isa_wrappers {
    ($vec:ty, $mod_name:ident $(, $feat:literal)?) => {
        mod $mod_name {
            use super::*;

            /// Dense register-tile rows and whether updates take
            /// 2-vector panels (see the dense kernel section).
            const TILE: usize = <$vec as Vf64>::REGS / 4;
            const WIDE: bool = <$vec as Vf64>::REGS >= 32;

            $(#[target_feature(enable = $feat)])?
            pub unsafe fn gspmv_rows(
                row_ptr: &[usize],
                col_idx: &[u32],
                blocks: &[Block3],
                x: &[f64],
                y: &mut [f64],
                m: usize,
                rows: Range<usize>,
            ) {
                if m == 1 {
                    rows_w1::<$vec>(row_ptr, col_idx, blocks, x, y, rows)
                } else {
                    rows_vf::<$vec>(row_ptr, col_idx, blocks, x, y, m, rows)
                }
            }

            $(#[target_feature(enable = $feat)])?
            pub unsafe fn gram(a: &[f64], b: &[f64], m: usize, g: &mut [f64]) {
                gram_vf::<$vec, TILE>(a, b, m, g)
            }

            $(#[target_feature(enable = $feat)])?
            pub unsafe fn add_mul(x: &mut [f64], p: &[f64], c: &[f64], m: usize) {
                add_mul_vf::<$vec, TILE, WIDE>(x, p, c, m)
            }

            $(#[target_feature(enable = $feat)])?
            pub unsafe fn assign_add_mul(
                p: &mut [f64],
                r: &[f64],
                c: &[f64],
                m: usize,
                stage: &mut [f64],
            ) {
                assign_add_mul_vf::<$vec, TILE, WIDE>(p, r, c, m, stage)
            }

            $(#[target_feature(enable = $feat)])?
            pub unsafe fn sub_mul_gram(
                rm: &mut [f64],
                q: &[f64],
                c: &[f64],
                m: usize,
                g: &mut [f64],
            ) {
                sub_mul_gram_vf::<$vec, TILE, WIDE>(rm, q, c, m, g)
            }

            $(#[target_feature(enable = $feat)])?
            pub unsafe fn block_diag(
                d: &[Block3],
                r: &[f64],
                z: &mut [f64],
                m: usize,
                nsq: &mut [f64],
            ) {
                block_diag_vf::<$vec>(d, r, z, m, nsq)
            }

            $(#[target_feature(enable = $feat)])?
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn sub_mul_precond_gram(
                rm: &mut [f64],
                q: &[f64],
                c: &[f64],
                d: &[Block3],
                z: &mut [f64],
                m: usize,
                g: &mut [f64],
                nsq: &mut [f64],
            ) {
                sub_mul_precond_gram_vf::<$vec, TILE, WIDE>(
                    rm, q, c, d, z, m, g, nsq,
                )
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
isa_wrappers!(x86::V4, avx2, "avx2,fma");
#[cfg(target_arch = "x86_64")]
isa_wrappers!(x86::V8, avx512, "avx512f");
#[cfg(target_arch = "aarch64")]
isa_wrappers!(arm::V2, neon);

// ---------------------------------------------------------------------
// Safe dispatchers. Safety: `isa` comes from `backend::detect_isa`
// (runtime feature detection), so the target features are present.
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
pub(crate) fn gspmv_rows(
    isa: Isa,
    row_ptr: &[usize],
    col_idx: &[u32],
    blocks: &[Block3],
    x: &[f64],
    y: &mut [f64],
    m: usize,
    rows: Range<usize>,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe {
            avx512::gspmv_rows(row_ptr, col_idx, blocks, x, y, m, rows)
        },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe {
            avx2::gspmv_rows(row_ptr, col_idx, blocks, x, y, m, rows)
        },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => unsafe {
            neon::gspmv_rows(row_ptr, col_idx, blocks, x, y, m, rows)
        },
        _ => crate::gspmv::dispatch_rows_scalar(
            row_ptr, col_idx, blocks, x, y, m, rows,
        ),
    }
}

/// Calls the dense kernel `$f` of `$isa`'s wrapper module (resolved at
/// the use site, so the test reference module dispatches to its own).
macro_rules! on_dense_isa {
    ($isa:expr, $f:ident($($args:expr),*)) => {
        // SAFETY: `$isa` is a runtime-detected ISA, so its target
        // features are present, and each caller has established the
        // length contract of the dense bodies before dispatching.
        match $isa {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => unsafe { avx512::$f($($args),*) },
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { avx2::$f($($args),*) },
            #[cfg(target_arch = "aarch64")]
            Isa::Neon => unsafe { neon::$f($($args),*) },
            _ => unreachable!("SIMD dense kernel dispatched without a vector ISA"),
        }
    };
}

pub(crate) fn gram(isa: Isa, a: &[f64], b: &[f64], m: usize, g: &mut [f64]) {
    assert!(a.len() == b.len() && a.len().is_multiple_of(m) && g.len() == m * m);
    on_dense_isa!(isa, gram(a, b, m, g))
}

pub(crate) fn add_mul(isa: Isa, x: &mut [f64], p: &[f64], c: &[f64], m: usize) {
    assert!(x.len() == p.len() && p.len().is_multiple_of(m) && c.len() == m * m);
    on_dense_isa!(isa, add_mul(x, p, c, m))
}

pub(crate) fn assign_add_mul(
    isa: Isa,
    p: &mut [f64],
    r: &[f64],
    c: &[f64],
    m: usize,
) {
    assert!(p.len() == r.len() && r.len().is_multiple_of(m) && c.len() == m * m);
    // The staged chunk lives on the stack; only a width past the chunk
    // budget (one row per chunk) needs a longer, heap-backed row.
    let mut stack = [0.0f64; DENSE_CHUNK_F64];
    let mut heap = Vec::new();
    let stage: &mut [f64] = if m <= DENSE_CHUNK_F64 {
        &mut stack
    } else {
        heap.resize(m, 0.0);
        &mut heap
    };
    on_dense_isa!(isa, assign_add_mul(p, r, c, m, stage))
}

pub(crate) fn sub_mul_gram(
    isa: Isa,
    rm: &mut [f64],
    q: &[f64],
    c: &[f64],
    m: usize,
    g: &mut [f64],
) {
    assert!(rm.len() == q.len() && q.len().is_multiple_of(m));
    assert!(c.len() == m * m && g.len() == m * m);
    on_dense_isa!(isa, sub_mul_gram(rm, q, c, m, g))
}

pub(crate) fn block_diag(
    isa: Isa,
    d: &[Block3],
    r: &[f64],
    z: &mut [f64],
    m: usize,
    nsq: &mut [f64],
) {
    assert!(r.len() == 3 * d.len() * m && z.len() == r.len() && nsq.len() == m);
    on_dense_isa!(isa, block_diag(d, r, z, m, nsq))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn sub_mul_precond_gram(
    isa: Isa,
    rm: &mut [f64],
    q: &[f64],
    c: &[f64],
    d: &[Block3],
    z: &mut [f64],
    m: usize,
    g: &mut [f64],
    nsq: &mut [f64],
) {
    assert!(
        rm.len() == 3 * d.len() * m && q.len() == rm.len() && z.len() == rm.len()
    );
    assert!(c.len() == m * m && g.len() == m * m && nsq.len() == m);
    on_dense_isa!(isa, sub_mul_precond_gram(rm, q, c, d, z, m, g, nsq))
}

/// The one-row-at-a-time dense bodies the register-blocked kernels
/// replaced, kept as the bitwise reference: same per-element operation
/// sequence, no tiling, no chunking.
#[cfg(test)]
mod reference {
    use super::*;

    /// `g[i·m..] += s · src` over vector chunks with a scalar tail.
    #[inline(always)]
    unsafe fn axpy_row<V: Vf64>(dst: *mut f64, s: f64, src: *const f64, m: usize) {
        let sv = V::splat(s);
        let mut j = 0;
        while j + V::LANES <= m {
            V::load(dst.add(j)).fma(sv, V::load(src.add(j))).store(dst.add(j));
            j += V::LANES;
        }
        while j < m {
            *dst.add(j) += s * *src.add(j);
            j += 1;
        }
    }

    /// Gram matrix `aᵀ·b` for equal widths `m`; `a`, `b` are `n×m`
    /// row-major.
    #[inline(always)]
    unsafe fn gram_vf<V: Vf64>(a: &[f64], b: &[f64], m: usize) -> Vec<f64> {
        let mut g = vec![0.0f64; m * m];
        let gp = g.as_mut_ptr();
        let n = a.len() / m;
        for r in 0..n {
            let srow = a.as_ptr().add(r * m);
            let orow = b.as_ptr().add(r * m);
            for i in 0..m {
                axpy_row::<V>(gp.add(i * m), *srow.add(i), orow, m);
            }
        }
        g
    }

    /// `x += p · C` with `C` row-major `m×m`.
    #[inline(always)]
    unsafe fn add_mul_vf<V: Vf64>(x: &mut [f64], p: &[f64], c: &[f64], m: usize) {
        let n = p.len() / m;
        let cp = c.as_ptr();
        for r in 0..n {
            let drow = x.as_mut_ptr().add(r * m);
            let prow = p.as_ptr().add(r * m);
            let mut j = 0;
            while j + V::LANES <= m {
                let mut acc = V::load(drow.add(j));
                for k in 0..m {
                    acc =
                        acc.fma(V::splat(*prow.add(k)), V::load(cp.add(k * m + j)));
                }
                acc.store(drow.add(j));
                j += V::LANES;
            }
            while j < m {
                let mut acc = *drow.add(j);
                for k in 0..m {
                    acc += *prow.add(k) * *cp.add(k * m + j);
                }
                *drow.add(j) = acc;
                j += 1;
            }
        }
    }

    /// `p ← r + p · C`; the coefficients come from the *original* `p` row,
    /// staged through `scratch` (length ≥ m) before the row is overwritten.
    #[inline(always)]
    unsafe fn assign_add_mul_vf<V: Vf64>(
        p: &mut [f64],
        r: &[f64],
        c: &[f64],
        m: usize,
        scratch: &mut [f64],
    ) {
        let n = r.len() / m;
        let cp = c.as_ptr();
        for row in 0..n {
            let drow = p.as_mut_ptr().add(row * m);
            let rrow = r.as_ptr().add(row * m);
            std::ptr::copy_nonoverlapping(drow, scratch.as_mut_ptr(), m);
            let s = scratch.as_ptr();
            let mut j = 0;
            while j + V::LANES <= m {
                let mut acc = V::load(rrow.add(j));
                for k in 0..m {
                    acc = acc.fma(V::splat(*s.add(k)), V::load(cp.add(k * m + j)));
                }
                acc.store(drow.add(j));
                j += V::LANES;
            }
            while j < m {
                let mut acc = *rrow.add(j);
                for k in 0..m {
                    acc += *s.add(k) * *cp.add(k * m + j);
                }
                *drow.add(j) = acc;
                j += 1;
            }
        }
    }

    /// Fused `r ← r − q·C; G = rᵀ·r` in one pass over the rows.
    #[inline(always)]
    unsafe fn sub_mul_gram_vf<V: Vf64>(
        rm: &mut [f64],
        q: &[f64],
        c: &[f64],
        m: usize,
    ) -> Vec<f64> {
        let n = q.len() / m;
        let mut g = vec![0.0f64; m * m];
        let gp = g.as_mut_ptr();
        let cp = c.as_ptr();
        for row in 0..n {
            let drow = rm.as_mut_ptr().add(row * m);
            let qrow = q.as_ptr().add(row * m);
            let mut j = 0;
            while j + V::LANES <= m {
                let mut acc = V::load(drow.add(j));
                for k in 0..m {
                    acc = acc
                        .fnma(V::splat(*qrow.add(k)), V::load(cp.add(k * m + j)));
                }
                acc.store(drow.add(j));
                j += V::LANES;
            }
            while j < m {
                let mut acc = *drow.add(j);
                for k in 0..m {
                    acc -= *qrow.add(k) * *cp.add(k * m + j);
                }
                *drow.add(j) = acc;
                j += 1;
            }
            for i in 0..m {
                axpy_row::<V>(gp.add(i * m), *drow.add(i), drow, m);
            }
        }
        g
    }

    macro_rules! ref_wrappers {
        ($vec:ty, $mod_name:ident $(, $feat:literal)?) => {
            pub mod $mod_name {
                use super::*;

                $(#[target_feature(enable = $feat)])?
                pub unsafe fn gram(a: &[f64], b: &[f64], m: usize) -> Vec<f64> {
                    gram_vf::<$vec>(a, b, m)
                }

                $(#[target_feature(enable = $feat)])?
                pub unsafe fn add_mul(x: &mut [f64], p: &[f64], c: &[f64], m: usize) {
                    add_mul_vf::<$vec>(x, p, c, m)
                }

                $(#[target_feature(enable = $feat)])?
                pub unsafe fn assign_add_mul(
                    p: &mut [f64],
                    r: &[f64],
                    c: &[f64],
                    m: usize,
                ) {
                    assign_add_mul_vf::<$vec>(p, r, c, m, &mut vec![0.0; m])
                }

                $(#[target_feature(enable = $feat)])?
                pub unsafe fn sub_mul_gram(
                    rm: &mut [f64],
                    q: &[f64],
                    c: &[f64],
                    m: usize,
                ) -> Vec<f64> {
                    sub_mul_gram_vf::<$vec>(rm, q, c, m)
                }
            }
        };
    }

    #[cfg(target_arch = "x86_64")]
    ref_wrappers!(x86::V4, avx2, "avx2,fma");
    #[cfg(target_arch = "x86_64")]
    ref_wrappers!(x86::V8, avx512, "avx512f");
    #[cfg(target_arch = "aarch64")]
    ref_wrappers!(arm::V2, neon);

    pub fn gram(isa: Isa, a: &[f64], b: &[f64], m: usize) -> Vec<f64> {
        on_dense_isa!(isa, gram(a, b, m))
    }

    pub fn add_mul(isa: Isa, x: &mut [f64], p: &[f64], c: &[f64], m: usize) {
        on_dense_isa!(isa, add_mul(x, p, c, m))
    }

    pub fn assign_add_mul(isa: Isa, p: &mut [f64], r: &[f64], c: &[f64], m: usize) {
        on_dense_isa!(isa, assign_add_mul(p, r, c, m))
    }

    pub fn sub_mul_gram(
        isa: Isa,
        rm: &mut [f64],
        q: &[f64],
        c: &[f64],
        m: usize,
    ) -> Vec<f64> {
        on_dense_isa!(isa, sub_mul_gram(rm, q, c, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{backend_for, detect_isa, Backend, KernelKind};
    use crate::triplet::BlockTripletBuilder;
    use crate::{Block3, MultiVec};

    fn test_matrix(nb: usize, bandwidth: usize) -> crate::BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        let mut state = 0x2545f4914f6cdd1du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(8.0));
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

    fn pseudo_mv(n: usize, m: usize, seed: u64) -> MultiVec {
        MultiVec::from_flat(
            n,
            m,
            (0..n * m)
                .map(|v| {
                    (((v as u64).wrapping_mul(seed | 1).wrapping_add(0x9e3779b9)
                        % 29) as f64)
                        - 14.0
                })
                .collect(),
        )
    }

    /// The SIMD row kernel agrees with the scalar reference across the
    /// grid and across off-grid widths (every chunk/tail combination),
    /// on whatever vector ISA this host has.
    #[test]
    fn simd_rows_match_scalar_all_widths() {
        let Some(simd) = backend_for(KernelKind::Simd) else {
            eprintln!("no vector ISA detected; skipping");
            return;
        };
        let scalar = backend_for(KernelKind::Scalar).unwrap();
        let a = test_matrix(33, 4);
        let n = a.n_rows();
        for m in [1usize, 2, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17, 24, 31, 32, 48] {
            let x = pseudo_mv(n, m, 11 + m as u64);
            let mut y1 = MultiVec::zeros(n, m);
            let mut y2 = MultiVec::zeros(n, m);
            scalar.gspmv_rows(
                &a,
                x.as_slice(),
                y1.as_mut_slice(),
                m,
                0..a.nb_rows(),
            );
            simd.gspmv_rows(&a, x.as_slice(), y2.as_mut_slice(), m, 0..a.nb_rows());
            for (u, v) in y1.as_slice().iter().zip(y2.as_slice()) {
                assert!(
                    (u - v).abs() <= 1e-12 * u.abs().max(v.abs()).max(1.0),
                    "isa={} m={m}: {u} vs {v}",
                    detect_isa().as_str()
                );
            }
        }
    }

    /// Dense SIMD kernels agree with naive triple loops (tolerance: the
    /// loops below are unfused).
    #[test]
    fn simd_dense_kernels_match_naive_loops() {
        let isa = detect_isa();
        if isa == Isa::Portable {
            eprintln!("no vector ISA detected; skipping");
            return;
        }
        for m in [4usize, 5, 8, 12, 16, 17] {
            if m < min_vector_width(isa) {
                continue;
            }
            let n = 37;
            let a = pseudo_mv(n, m, 3);
            let b = pseudo_mv(n, m, 5);
            let c: Vec<f64> =
                (0..m * m).map(|v| ((v % 7) as f64 - 3.0) * 0.25).collect();

            // gram
            let mut got = vec![f64::NAN; m * m];
            gram(isa, a.as_slice(), b.as_slice(), m, &mut got);
            let mut want = vec![0.0f64; m * m];
            for r in 0..n {
                for i in 0..m {
                    for j in 0..m {
                        want[i * m + j] += a.get(r, i) * b.get(r, j);
                    }
                }
            }
            for (u, v) in want.iter().zip(&got) {
                assert!((u - v).abs() <= 1e-12 * u.abs().max(1.0), "gram m={m}");
            }

            // add_mul
            let mut x1 = pseudo_mv(n, m, 7);
            let mut x2 = x1.clone();
            add_mul(isa, x1.as_mut_slice(), b.as_slice(), &c, m);
            for r in 0..n {
                for j in 0..m {
                    let mut acc = x2.get(r, j);
                    for k in 0..m {
                        acc += b.get(r, k) * c[k * m + j];
                    }
                    *x2.get_mut(r, j) = acc;
                }
            }
            for (u, v) in x2.as_slice().iter().zip(x1.as_slice()) {
                assert!((u - v).abs() <= 1e-12 * u.abs().max(1.0), "add_mul m={m}");
            }

            // assign_add_mul: p ← r + p·C
            let mut p1 = pseudo_mv(n, m, 9);
            let p0 = p1.clone();
            let rv = pseudo_mv(n, m, 13);
            assign_add_mul(isa, p1.as_mut_slice(), rv.as_slice(), &c, m);
            for r in 0..n {
                for j in 0..m {
                    let mut acc = rv.get(r, j);
                    for k in 0..m {
                        acc += p0.get(r, k) * c[k * m + j];
                    }
                    let got = p1.get(r, j);
                    assert!(
                        (acc - got).abs() <= 1e-12 * acc.abs().max(1.0),
                        "assign_add_mul m={m}"
                    );
                }
            }

            // sub_mul_gram: r ← r − q·C; G = rᵀr
            let mut r1 = pseudo_mv(n, m, 15);
            let r0 = r1.clone();
            let q = pseudo_mv(n, m, 17);
            let mut g = vec![f64::NAN; m * m];
            sub_mul_gram(isa, r1.as_mut_slice(), q.as_slice(), &c, m, &mut g);
            let mut rwant = MultiVec::zeros(n, m);
            for r in 0..n {
                for j in 0..m {
                    let mut acc = r0.get(r, j);
                    for k in 0..m {
                        acc -= q.get(r, k) * c[k * m + j];
                    }
                    *rwant.get_mut(r, j) = acc;
                }
            }
            for (u, v) in rwant.as_slice().iter().zip(r1.as_slice()) {
                assert!(
                    (u - v).abs() <= 1e-11 * u.abs().max(1.0),
                    "sub_mul m={m}: {u} vs {v}"
                );
            }
            let mut gwant = vec![0.0f64; m * m];
            for r in 0..n {
                for i in 0..m {
                    for j in 0..m {
                        gwant[i * m + j] += rwant.get(r, i) * rwant.get(r, j);
                    }
                }
            }
            for (u, v) in gwant.iter().zip(&g) {
                assert!(
                    (u - v).abs() <= 1e-10 * u.abs().max(1.0),
                    "sub_mul_gram m={m}: {u} vs {v}"
                );
            }
        }
    }

    /// Every vector ISA this host can run (the dispatchers take the ISA
    /// as an argument, so an AVX-512 host also exercises the AVX2 tiles).
    fn host_isas() -> Vec<Isa> {
        [Isa::Avx512, Isa::Avx2, Isa::Neon]
            .into_iter()
            .filter(|&isa| crate::backend::isa_available(isa))
            .collect()
    }

    /// Non-dyadic values in (−0.5, 0.5): products and sums round, so a
    /// changed operation order changes the bits.
    fn random_flat(len: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Widths × lengths of the bitwise sweep: the whole grid plus two
    /// off-grid widths (every result-row/C-row/vector/scalar tail), and
    /// lengths around the row-group and chunk boundaries (chunks are
    /// 128 rows at m = 8, 64 at m = 16, 21 at m = 48).
    fn bitwise_cases(isa: Isa) -> impl Iterator<Item = (usize, usize)> {
        crate::backend::WIDTH_GRID
            .into_iter()
            .chain([5, 17])
            .filter(move |&m| m >= min_vector_width(isa))
            .flat_map(|m| [1, 3, 63, 64, 65, 129, 257].map(|n| (m, n)))
    }

    /// The register-blocked kernels reproduce the one-row-at-a-time
    /// reference bit for bit, on every ISA the host has.
    #[test]
    fn dense_kernels_bitwise_equal_reference() {
        for isa in host_isas() {
            for (m, n) in bitwise_cases(isa) {
                let tag = format!("isa={} m={m} n={n}", isa.as_str());
                let seed = (m * 1000 + n) as u64;
                let a = random_flat(n * m, seed);
                let b = random_flat(n * m, seed + 1);
                let c = random_flat(m * m, seed + 2);

                let mut g = vec![f64::NAN; m * m];
                gram(isa, &a, &b, m, &mut g);
                assert_eq!(
                    bits(&g),
                    bits(&reference::gram(isa, &a, &b, m)),
                    "gram {tag}"
                );

                let (mut x, mut x_ref) = (a.clone(), a.clone());
                add_mul(isa, &mut x, &b, &c, m);
                reference::add_mul(isa, &mut x_ref, &b, &c, m);
                assert_eq!(bits(&x), bits(&x_ref), "add_mul {tag}");

                let (mut p, mut p_ref) = (a.clone(), a.clone());
                assign_add_mul(isa, &mut p, &b, &c, m);
                reference::assign_add_mul(isa, &mut p_ref, &b, &c, m);
                assert_eq!(bits(&p), bits(&p_ref), "assign_add_mul {tag}");

                let (mut r, mut r_ref) = (a.clone(), a.clone());
                let mut g = vec![f64::NAN; m * m];
                sub_mul_gram(isa, &mut r, &b, &c, m, &mut g);
                let g_ref = reference::sub_mul_gram(isa, &mut r_ref, &b, &c, m);
                assert_eq!(bits(&r), bits(&r_ref), "sub_mul {tag}");
                assert_eq!(bits(&g), bits(&g_ref), "sub_mul_gram {tag}");
            }
        }
    }

    /// `z = D·r` and the squared column norms of `r` in plain Rust,
    /// with the kernels' per-element operation sequence: FMAs from zero
    /// in the vector columns, mul-then-add in the scalar tail columns.
    fn block_diag_reference(
        isa: Isa,
        d: &[Block3],
        r: &[f64],
        m: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let vector_cols = m - m % min_vector_width(isa);
        let (mut z, mut nsq) = (vec![0.0; r.len()], vec![0.0; m]);
        for (b, block) in d.iter().enumerate() {
            for j in 0..m {
                let rows = [0, 1, 2].map(|k| r[(3 * b + k) * m + j]);
                let a = &block.0;
                if j < vector_cols {
                    for i in 0..3 {
                        z[(3 * b + i) * m + j] = (0..3)
                            .fold(0.0, |acc, k| a[3 * i + k].mul_add(rows[k], acc));
                    }
                    nsq[j] += rows.iter().fold(0.0, |acc, v| v.mul_add(*v, acc));
                } else {
                    for i in 0..3 {
                        z[(3 * b + i) * m + j] = a[3 * i] * rows[0]
                            + a[3 * i + 1] * rows[1]
                            + a[3 * i + 2] * rows[2];
                    }
                    nsq[j] +=
                        rows[0] * rows[0] + rows[1] * rows[1] + rows[2] * rows[2];
                }
            }
        }
        (z, nsq)
    }

    /// The block-diagonal kernels — `z = D·r` alone and fused behind
    /// the residual update — reproduce the unfused, unchunked sequence
    /// (reference update, [`block_diag_reference`], reference Gram) bit
    /// for bit on every ISA the host has: block counts around the
    /// chunk boundaries (42 blocks at m = 8, 21 at m = 16, 7 at m = 48).
    #[test]
    fn dense_kernels_bitwise_block_diagonal_sweeps() {
        for isa in host_isas() {
            let widths = crate::backend::WIDTH_GRID
                .into_iter()
                .chain([5, 17])
                .filter(|&m| m >= min_vector_width(isa));
            for m in widths {
                for blocks in [1usize, 2, 7, 8, 21, 22, 42, 43, 85] {
                    let tag = format!("isa={} m={m} blocks={blocks}", isa.as_str());
                    let n = 3 * blocks;
                    let seed = (m * 1000 + blocks) as u64;
                    let r0 = random_flat(n * m, seed);
                    let q = random_flat(n * m, seed + 1);
                    let c = random_flat(m * m, seed + 2);
                    let d: Vec<Block3> = random_flat(9 * blocks, seed + 3)
                        .chunks_exact(9)
                        .map(|v| Block3(v.try_into().unwrap()))
                        .collect();

                    let (z_ref, nsq_ref) = block_diag_reference(isa, &d, &r0, m);
                    let (mut z, mut nsq) =
                        (vec![f64::NAN; n * m], vec![f64::NAN; m]);
                    block_diag(isa, &d, &r0, &mut z, m, &mut nsq);
                    assert_eq!(bits(&z), bits(&z_ref), "block_diag z {tag}");
                    assert_eq!(bits(&nsq), bits(&nsq_ref), "block_diag nsq {tag}");

                    let (mut r, mut r_ref) = (r0.clone(), r0);
                    let mut g = vec![f64::NAN; m * m];
                    sub_mul_precond_gram(
                        isa, &mut r, &q, &c, &d, &mut z, m, &mut g, &mut nsq,
                    );
                    reference::sub_mul_gram(isa, &mut r_ref, &q, &c, m);
                    let (z_ref, nsq_ref) = block_diag_reference(isa, &d, &r_ref, m);
                    let g_ref = reference::gram(isa, &r_ref, &z_ref, m);
                    assert_eq!(bits(&r), bits(&r_ref), "fused r {tag}");
                    assert_eq!(bits(&z), bits(&z_ref), "fused z {tag}");
                    assert_eq!(bits(&g), bits(&g_ref), "fused g {tag}");
                    assert_eq!(bits(&nsq), bits(&nsq_ref), "fused nsq {tag}");
                }
            }
        }
    }

    /// `p ← r + p·C` overwrites the rows it takes its coefficients
    /// from: with a dense `C` every output column needs every original
    /// column of its row, across all C-row and column panels. Checked
    /// against an out-of-place evaluation from a saved copy of `p`.
    #[test]
    fn assign_add_mul_in_place_reads_original_rows() {
        for isa in host_isas() {
            for (m, n) in bitwise_cases(isa) {
                let seed = (m * 77 + n) as u64;
                let p0 = random_flat(n * m, seed);
                let r = random_flat(n * m, seed + 1);
                let c = random_flat(m * m, seed + 2);
                let mut p = p0.clone();
                assign_add_mul(isa, &mut p, &r, &c, m);
                let vector_cols = m - m % min_vector_width(isa);
                for row in 0..n {
                    for j in 0..m {
                        let mut acc = r[row * m + j];
                        for k in 0..m {
                            let (s, cv) = (p0[row * m + k], c[k * m + j]);
                            acc = if j < vector_cols {
                                s.mul_add(cv, acc)
                            } else {
                                acc + s * cv
                            };
                        }
                        assert_eq!(
                            acc.to_bits(),
                            p[row * m + j].to_bits(),
                            "isa={} m={m} n={n} row={row} col={j}",
                            isa.as_str()
                        );
                    }
                }
            }
        }
    }

    /// Past the chunk budget a chunk is one row and the staged copy of
    /// `assign_add_mul` no longer fits its stack buffer: the heap-backed
    /// row must give the same bits.
    #[test]
    fn assign_add_mul_wider_than_the_chunk_budget() {
        let (m, n) = (DENSE_CHUNK_F64 + 12, 3);
        for isa in host_isas() {
            let p0 = random_flat(n * m, 31);
            let r = random_flat(n * m, 32);
            let c = random_flat(m * m, 33);
            let (mut p, mut p_ref) = (p0.clone(), p0);
            assign_add_mul(isa, &mut p, &r, &c, m);
            reference::assign_add_mul(isa, &mut p_ref, &r, &c, m);
            assert_eq!(bits(&p), bits(&p_ref), "isa={}", isa.as_str());
        }
    }

    /// A poisoned column must surface as a NaN Gram diagonal — block
    /// CG's `diag_sqrt` relies on it to never report NaN as converged —
    /// whether the column sits in a vector tile or in the scalar tail.
    #[test]
    fn poisoned_column_yields_nan_gram_diagonal() {
        for isa in host_isas() {
            for m in [8usize, 12, 16, 17, 42] {
                let n = 200;
                let c = random_flat(m * m, 5);
                for col in [0, m / 2, m - 1] {
                    let mut a = random_flat(n * m, 7);
                    a[131 * m + col] = f64::NAN;
                    let mut g = vec![0.0; m * m];
                    gram(isa, &a, &a, m, &mut g);
                    assert!(g[col * m + col].is_nan(), "gram m={m} col={col}");

                    let q = random_flat(n * m, 9);
                    sub_mul_gram(isa, &mut a, &q, &c, m, &mut g);
                    assert!(
                        g[col * m + col].is_nan(),
                        "sub_mul_gram m={m} col={col}"
                    );

                    // The block-Jacobi form reports norms beside the
                    // Gram matrix: the poisoned column's must be NaN
                    // and nobody else's.
                    let n = 201;
                    let d = vec![Block3::scaled_identity(0.5); n / 3];
                    let mut r = random_flat(n * m, 7);
                    r[131 * m + col] = f64::NAN;
                    let mut z = vec![0.0; n * m];
                    let mut nsq = vec![0.0; m];
                    let q = random_flat(n * m, 9);
                    sub_mul_precond_gram(
                        isa, &mut r, &q, &c, &d, &mut z, m, &mut g, &mut nsq,
                    );
                    assert!(g[col * m + col].is_nan(), "precond g m={m} col={col}");
                    for (j, v) in nsq.iter().enumerate() {
                        assert_eq!(
                            v.is_nan(),
                            j == col,
                            "precond norm m={m} col={j}"
                        );
                    }
                }
            }
        }
    }

    /// The widths below one AVX-512 vector, where what runs depends on
    /// the CPU: the across-block kernel at `m = 1` and the per-width
    /// vector rule above it. Every test takes the ISA as an argument
    /// (`Backend::Simd(isa)` for each ISA the host has), so an AVX-512
    /// host also runs the AVX2 bodies it would never dispatch itself.
    mod narrow_width {
        use super::*;
        use crate::gspmv::{gspmv_on, Schedule, PARALLEL_THRESHOLD};
        use oracle::tolerance::assert_bitwise;
        use oracle::TolModel;

        const NARROW: [usize; 7] = [1, 2, 3, 4, 5, 6, 7];

        /// Block row `r` holds `row_lens[r]` non-dyadic blocks, packed
        /// against the last block column on odd rows (so the final
        /// `x_j` is read) and against the first on even rows.
        fn ragged(nb_cols: usize, row_lens: &[usize]) -> crate::BcrsMatrix {
            let mut t = BlockTripletBuilder::new(row_lens.len(), nb_cols);
            let values = random_flat(9 * row_lens.iter().sum::<usize>(), 3);
            let mut entries = values.chunks_exact(9);
            for (r, &len) in row_lens.iter().enumerate() {
                let first = if r % 2 == 1 { nb_cols - len } else { 0 };
                for c in first..first + len {
                    let mut b = Block3::ZERO;
                    b.0.copy_from_slice(entries.next().unwrap());
                    t.add(r, c, b);
                }
            }
            t.build()
        }

        /// `Backend::Simd(isa)` rows `rows` of `a·x` against the scalar
        /// backend's, within the oracle's kernel tolerance.
        fn check_rows(
            isa: Isa,
            a: &crate::BcrsMatrix,
            x: &[f64],
            m: usize,
            rows: Range<usize>,
            what: &str,
        ) {
            let mut want = vec![f64::NAN; rows.len() * 3 * m];
            let mut got = want.clone();
            Backend::Scalar.gspmv_rows(a, x, &mut want, m, rows.clone());
            Backend::Simd(isa).gspmv_rows(a, x, &mut got, m, rows);
            let tag = format!("{what} isa={} m={m}", isa.as_str());
            TolModel::KERNEL.check_slices(&want, &got, &tag).unwrap();
        }

        /// (i) empty block rows, (ii) rows of 1, 2 and 3 blocks (both
        /// tails of the two-stream unroll) and longer ones, (iii) a row
        /// range not starting at 0, whose `y` is the window only, and
        /// (v) a rectangular matrix.
        #[test]
        fn ragged_rows_windows_and_rectangles_match_scalar() {
            let square = ragged(9, &[0, 1, 2, 3, 0, 4, 5, 9, 1]);
            let wide = ragged(11, &[3, 0, 2, 11, 1]);
            let tall = ragged(2, &[1, 2, 0, 2, 1, 1, 2]);
            for isa in host_isas() {
                for m in NARROW {
                    for (a, what) in
                        [(&square, "square"), (&wide, "wide"), (&tall, "tall")]
                    {
                        let x = random_flat(a.n_cols() * m, 40 + m as u64);
                        check_rows(isa, a, &x, m, 0..a.nb_rows(), what);
                    }
                    let x = random_flat(square.n_cols() * m, 50 + m as u64);
                    check_rows(isa, &square, &x, m, 2..8, "window");
                    check_rows(isa, &square, &x, m, 4..5, "empty-row window");
                }
            }
        }

        /// `len` values that end exactly where an inaccessible page
        /// begins: a load past the end of the slice faults. The
        /// constants are Linux's on x86-64 and aarch64, the targets
        /// with kernels here (elsewhere no ISA is found and nothing
        /// below is called).
        #[cfg(target_os = "linux")]
        mod guarded {
            use std::ffi::c_void;

            extern "C" {
                fn mmap(
                    addr: *mut c_void,
                    len: usize,
                    prot: i32,
                    flags: i32,
                    fd: i32,
                    offset: i64,
                ) -> *mut c_void;
                fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
                fn munmap(addr: *mut c_void, len: usize) -> i32;
                fn sysconf(name: i32) -> i64;
            }
            const SC_PAGESIZE: i32 = 30;
            const PROT_NONE: i32 = 0;
            const PROT_READ_WRITE: i32 = 1 | 2;
            const MAP_PRIVATE_ANONYMOUS: i32 = 0x02 | 0x20;

            pub struct GuardedTail {
                base: *mut c_void,
                mapped: usize,
                values: *const f64,
                len: usize,
            }

            impl GuardedTail {
                pub fn new(src: &[f64]) -> Self {
                    let bytes = std::mem::size_of_val(src);
                    // SAFETY: a fresh private anonymous mapping of whole
                    // pages; `src` is copied in front of its last page,
                    // which then loses all access.
                    unsafe {
                        let page = sysconf(SC_PAGESIZE) as usize;
                        let data = bytes.div_ceil(page) * page;
                        let mapped = data + page;
                        let base = mmap(
                            std::ptr::null_mut(),
                            mapped,
                            PROT_READ_WRITE,
                            MAP_PRIVATE_ANONYMOUS,
                            -1,
                            0,
                        );
                        assert!(!base.is_null() && base as isize != -1, "mmap");
                        let values =
                            base.cast::<u8>().add(data - bytes).cast::<f64>();
                        std::ptr::copy_nonoverlapping(
                            src.as_ptr(),
                            values,
                            src.len(),
                        );
                        let guard = base.cast::<u8>().add(data).cast();
                        assert_eq!(mprotect(guard, page, PROT_NONE), 0, "mprotect");
                        GuardedTail { base, mapped, values, len: src.len() }
                    }
                }
            }

            impl std::ops::Deref for GuardedTail {
                type Target = [f64];
                fn deref(&self) -> &[f64] {
                    // SAFETY: `len` initialised values inside the mapping.
                    unsafe { std::slice::from_raw_parts(self.values, self.len) }
                }
            }

            impl Drop for GuardedTail {
                fn drop(&mut self) {
                    // SAFETY: the mapping `new` made, unmapped once.
                    unsafe { munmap(self.base, self.mapped) };
                }
            }
        }

        /// (iv) A block in the last block column, with `x` ending where
        /// its allocation ends: an exact-length boxed slice everywhere
        /// and, on Linux, a slice whose next byte is an inaccessible
        /// page — there a kernel that loaded a fourth value after
        /// `x_j`'s three would take a fault instead of passing.
        #[test]
        fn last_block_column_reads_nothing_past_x() {
            let a = ragged(6, &[1, 1, 2, 3, 6, 5]);
            for isa in host_isas() {
                for m in NARROW {
                    let values = random_flat(a.n_cols() * m, 60 + m as u64);
                    let rows = 0..a.nb_rows();
                    let boxed = values.clone().into_boxed_slice();
                    check_rows(isa, &a, &boxed, m, rows.clone(), "boxed x");
                    #[cfg(target_os = "linux")]
                    {
                        let x = guarded::GuardedTail::new(&values);
                        check_rows(isa, &a, &x, m, rows, "guarded x");
                    }
                }
            }
        }

        /// The across-block kernel fixes its own reduction order, so at
        /// `m = 1` every ISA the host has gives the same bits — why
        /// `chebyshev_bits_pinned`'s w1 words hold on any CPU.
        #[test]
        fn w1_bits_do_not_depend_on_the_isa() {
            let a = test_matrix(257, 7);
            let x = random_flat(a.n_cols(), 71);
            let mut results = host_isas().into_iter().map(|isa| {
                let mut y = vec![f64::NAN; a.n_rows()];
                Backend::Simd(isa).gspmv_rows(&a, &x, &mut y, 1, 0..a.nb_rows());
                (isa, y)
            });
            let Some((first, want)) = results.next() else { return };
            for (isa, got) in results {
                let tag = format!("{} vs {}", first.as_str(), isa.as_str());
                assert_bitwise(&want, &got, &tag);
            }
        }

        /// Past the parallel threshold serial, auto and both chunked
        /// schedules stay one bitwise group at `m = 1` and `m = 4`: a
        /// row is reduced inside its chunk whatever kernel runs it.
        #[test]
        fn schedules_stay_bitwise_at_w1_and_w4() {
            let a = test_matrix(1400, 6);
            assert!(a.nnz_blocks() >= PARALLEL_THRESHOLD);
            let n = a.n_rows();
            for isa in host_isas() {
                let backend = Backend::Simd(isa);
                for m in [1usize, 4] {
                    let x = MultiVec::from_flat(
                        n,
                        m,
                        random_flat(n * m, 80 + m as u64),
                    );
                    let mut want = MultiVec::zeros(n, m);
                    gspmv_on(backend, &a, &x, &mut want, Schedule::Serial);
                    for schedule in [
                        Schedule::Auto,
                        Schedule::Chunked(7),
                        Schedule::ChunkedInline(7),
                    ] {
                        let mut got = MultiVec::zeros(n, m);
                        gspmv_on(backend, &a, &x, &mut got, schedule);
                        let tag =
                            format!("isa={} m={m} {schedule:?}", isa.as_str());
                        assert_bitwise(want.as_slice(), got.as_slice(), &tag);
                    }
                }
            }
        }
    }
}
