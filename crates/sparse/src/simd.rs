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
use crate::sgs::{self, Factors, Pass, RowSum};
use std::marker::PhantomData;
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
    /// [`Vf64::x3_pattern`] from three scalar loads, which forward from
    /// recent scalar stores where a masked load would wait for them to
    /// retire — what a Gauss–Seidel sweep reads the row it just wrote
    /// with.
    #[inline(always)]
    unsafe fn x3_pattern_fwd(p: *const f64) -> [Self; 4] {
        Self::x3_pattern(p)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Vf64;
    use core::arch::x86_64::*;

    /// `[p[0], p[1], p[2], 0]` from three 8-byte loads. Volatile, so
    /// that LLVM does not merge the first two into one 16-byte load:
    /// a sweep's epilogue writes the row with three 8-byte stores, and
    /// a load that spans two of them cannot forward from them.
    #[inline(always)]
    unsafe fn x3_scalar_loads(p: *const f64) -> __m256d {
        let [x0, x1, x2] = [0, 1, 2].map(|k| p.add(k).read_volatile());
        _mm256_set_pd(0.0, x2, x1, x0)
    }

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
        #[inline(always)]
        unsafe fn x3_pattern_fwd(p: *const f64) -> [Self; 4] {
            let t = x3_scalar_loads(p);
            [
                V4(_mm256_permute4x64_pd::<0b00_10_01_00>(t)),
                V4(_mm256_permute4x64_pd::<0b01_00_10_01>(t)),
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
        #[inline(always)]
        unsafe fn x3_pattern_fwd(p: *const f64) -> [Self; 4] {
            let t = _mm512_castpd256_pd512(x3_scalar_loads(p));
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
    ks: impl Iterator<Item = usize> + Clone,
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
    for (bi, yrow) in rows.zip(y.chunks_exact_mut(3)) {
        let ks = row_ptr[bi]..row_ptr[bi + 1];
        w1_row::<V>(&col_idx[ks.clone()], &blocks[ks], x.as_ptr(), yrow);
    }
}

/// `acc[3i+k] += a_ik · x_k` for one block, into one stream of
/// [`w1_row`] (with `FWD`, `x` read by [`Vf64::x3_pattern_fwd`]).
#[inline(always)]
unsafe fn block_fma<V: Vf64, const FWD: bool>(
    b: &Block3,
    xj: *const f64,
    acc: &mut [V; 4],
    acc8: &mut f64,
) {
    let xs = if FWD { V::x3_pattern_fwd(xj) } else { V::x3_pattern(xj) };
    let bp = b.0.as_ptr();
    for v in 0..8 / V::LANES {
        acc[v] = acc[v].fma(V::load(bp.add(v * V::LANES)), xs[v]);
    }
    *acc8 = b.0[8].mul_add(*xj.add(2), *acc8);
}

/// `s = (even + odd)` per block entry, then `y_i = (s_i0 + s_i1) + s_i2`:
/// the fixed reduction of [`w1_row`]'s two streams.
#[inline(always)]
unsafe fn w1_reduce<V: Vf64>(
    even: [V; 4],
    odd: [V; 4],
    even8: f64,
    odd8: f64,
    y: *mut f64,
) {
    let mut s = [0.0f64; 9];
    for v in 0..8 / V::LANES {
        even[v].add(odd[v]).store(s.as_mut_ptr().add(v * V::LANES));
    }
    s[8] = even8 + odd8;
    for i in 0..3 {
        *y.add(i) = (s[3 * i] + s[3 * i + 1]) + s[3 * i + 2];
    }
}

/// One block row of [`rows_w1`]: the blocks `blks` at block columns
/// `cols`, reduced into the three values of `yrow`.
#[inline(always)]
unsafe fn w1_row<V: Vf64>(
    cols: &[u32],
    blks: &[Block3],
    xp: *const f64,
    yrow: &mut [f64],
) {
    let (mut even, mut odd) = ([V::zero(); 4], [V::zero(); 4]);
    let (mut even8, mut odd8) = (0.0f64, 0.0f64);
    // SAFETY of every `xp.add`: a stored column index is below the
    // block column count and `x` holds three values per block column
    // (asserted by `Backend::gspmv_rows`).
    let (cpairs, bpairs) = (cols.chunks_exact(2), blks.chunks_exact(2));
    let last = (cpairs.remainder(), bpairs.remainder());
    for (c, b) in cpairs.zip(bpairs) {
        block_fma::<V, false>(
            &b[0],
            xp.add(3 * c[0] as usize),
            &mut even,
            &mut even8,
        );
        block_fma::<V, false>(
            &b[1],
            xp.add(3 * c[1] as usize),
            &mut odd,
            &mut odd8,
        );
    }
    if let ([c], [b]) = last {
        block_fma::<V, false>(b, xp.add(3 * *c as usize), &mut even, &mut even8);
    }
    assert!(yrow.len() >= 3);
    w1_reduce(even, odd, even8, odd8, yrow.as_mut_ptr());
}

/// A Gauss–Seidel sweep's [`w1_row`]: the same two streams, in stored
/// order or, with `REV`, last block first; `x` read by
/// [`Vf64::x3_pattern_fwd`], since the row the sweep wrote last is read
/// right away.
#[inline(always)]
unsafe fn sweep_w1<V: Vf64, const REV: bool>(
    cols: &[u32],
    blks: &[Block3],
    x: *const f64,
    y: *mut f64,
) {
    let (mut even, mut odd) = ([V::zero(); 4], [V::zero(); 4]);
    let (mut even8, mut odd8) = (0.0f64, 0.0f64);
    let n = cols.len();
    // SAFETY of every `add`: as in `w1_row`, checked by `SgsSplit`.
    let at =
        |k: usize| (blks.get_unchecked(k), 3 * *cols.get_unchecked(k) as usize);
    for pair in 0..n / 2 {
        let (k0, k1) = if REV {
            (n - 1 - 2 * pair, n - 2 - 2 * pair)
        } else {
            (2 * pair, 2 * pair + 1)
        };
        let ((b0, c0), (b1, c1)) = (at(k0), at(k1));
        block_fma::<V, true>(b0, x.add(c0), &mut even, &mut even8);
        block_fma::<V, true>(b1, x.add(c1), &mut odd, &mut odd8);
    }
    if n % 2 == 1 {
        let (b, c) = at(if REV { 0 } else { n - 1 });
        block_fma::<V, true>(b, x.add(c), &mut even, &mut even8);
    }
    w1_reduce(even, odd, even8, odd8, y);
}

/// The Gauss–Seidel sweeps' register chunk: [`row_chunk`] with the sum
/// split over two accumulator sets (even and odd blocks, added at the
/// store). A sweep cannot hide a row's FMA latency behind the next
/// row, as a product does, because the next row reads this one: two
/// chains hide half of it.
#[inline(always)]
unsafe fn sweep_chunk<V: Vf64, const NV: usize>(
    ks: impl Iterator<Item = usize>,
    col_idx: &[u32],
    blocks: &[Block3],
    x: *const f64,
    m: usize,
    off: usize,
    y: *mut f64,
) {
    let mut even = [[V::zero(); NV]; 3];
    let mut odd = [[V::zero(); NV]; 3];
    let mut ks = ks;
    while let Some(k) = ks.next() {
        let c = *col_idx.get_unchecked(k) as usize;
        apply_fwd::<V, NV>(
            blocks[k].0.as_ptr(),
            x.add(c * 3 * m + off),
            m,
            &mut even,
        );
        let Some(k) = ks.next() else { break };
        let c = *col_idx.get_unchecked(k) as usize;
        apply_fwd::<V, NV>(
            blocks[k].0.as_ptr(),
            x.add(c * 3 * m + off),
            m,
            &mut odd,
        );
    }
    for i in 0..3 {
        for v in 0..NV {
            even[i][v].add(odd[i][v]).store(y.add(i * m + off + v * V::LANES));
        }
    }
}

/// One block row of a sweep: [`sweep_chunk`]s of two vectors, then
/// one, then [`row_tail`].
#[inline(always)]
unsafe fn sweep_row<V: Vf64>(
    ks: impl Iterator<Item = usize> + Clone,
    col_idx: &[u32],
    blocks: &[Block3],
    x: *const f64,
    m: usize,
    y: *mut f64,
) {
    let mut off = 0;
    while off + 2 * V::LANES <= m {
        sweep_chunk::<V, 2>(ks.clone(), col_idx, blocks, x, m, off, y);
        off += 2 * V::LANES;
    }
    if off + V::LANES <= m {
        sweep_chunk::<V, 1>(ks.clone(), col_idx, blocks, x, m, off, y);
        off += V::LANES;
    }
    if off < m {
        row_tail(ks, col_idx, blocks, x, m, off, y);
    }
}

/// The Gauss–Seidel sweeps' epilogue (`sgs::epilogue`) in `V`'s
/// vectors, `LANES` columns at a time, the scalar body on the tail —
/// the same fused arithmetic, a fold's row sums included. The rows a
/// sweep writes are stored in the vectors the next rows' sums load, so
/// those loads forward from the stores (a wide load over narrower
/// stores stalls until they retire, and a sweep's next row waits on
/// exactly that load); a fold's work follows that store, off the
/// chain.
#[inline(always)]
unsafe fn vf_epilogue<V: Vf64, const T: bool, const Q: bool, const F: bool>(
    li: &Block3,
    d: &[f64],
    rows: sgs::Rows,
    m: usize,
) {
    let l = |k: usize| V::splat(li.0[k]);
    let sgs::Rows { p, t, q, w, r, x, coef, acc } = rows;
    let dp = d.as_ptr();
    let mut off = 0;
    while off + V::LANES <= m {
        let at = |k: usize| k * m + off;
        let mut xs = [0, 1, 2].map(|k| V::load(p.add(at(k))));
        if F && !T {
            // p̂ ← r̂ + p̂·β, stored before anything reads it.
            let beta = V::load(coef.add(off));
            for (k, xk) in xs.iter_mut().enumerate() {
                *xk = V::load(r.add(at(k))).fma(*xk, beta);
                xk.store(p.add(at(k)));
            }
        }
        let [x0, x1, x2] = xs;
        let [e0, e1, e2] = [0, 1, 2].map(|i| V::load(dp.add(i * m + off)));
        let q0 = x0.fnma(l(0), e0);
        let q1 = x1.fnma(l(3), e0).fnma(l(4), e1);
        let q2 = x2.fnma(l(6), e0).fnma(l(7), e1).fnma(l(8), e2);
        if Q {
            for (i, qi) in [q0, q1, q2].into_iter().enumerate() {
                qi.store(q.add(i * m + off));
            }
        }
        let ts =
            [0, 1, 2].map(|k| if T { V::load(t.add(at(k))) } else { V::zero() });
        // `−t`, exactly, or zero.
        let minus = |tk| if T { V::zero().fnma(V::splat(1.0), tk) } else { tk };
        let [w0, w1, w2] = ts.map(minus);
        w0.fma(l(0), q0).fma(l(3), q1).fma(l(6), q2).store(w.add(off));
        w1.fma(l(4), q1).fma(l(7), q2).store(w.add(m + off));
        w2.fma(l(8), q2).store(w.add(2 * m + off));
        if F {
            // The row's sum, one multiply-add chain from zero
            // (`sgs::epilogue`): `r_k²` of the updated residual, or
            // `v_k·(2p_k − v_k)` as `−v_k·(v_k − 2p_k)`, the difference
            // rounded once and exactly negated.
            let (c, mut sum) = (V::load(coef.add(off)), V::zero());
            for (k, (qk, xk)) in [q0, q1, q2].into_iter().zip(xs).enumerate() {
                if T {
                    V::load(x.add(at(k))).fma(ts[k], c).store(x.add(at(k)));
                    let rk = V::load(r.add(at(k))).fnma(qk, c);
                    rk.store(r.add(at(k)));
                    sum = sum.fma(rk, rk);
                } else {
                    sum = sum.fnma(qk, qk.fnma(V::splat(2.0), xk));
                }
            }
            V::load(acc.add(off)).add(sum).store(acc.add(off));
        }
        off += V::LANES;
    }
    if off < m {
        sgs::epilogue::<T, Q, F>(true, li, d, rows, m, off..m);
    }
}

/// The SIMD backend's row sums for the Gauss–Seidel sweeps: the
/// [`sweep_row`] and [`rows_w1`] row bodies over a range of a row.
struct VfRow<V>(PhantomData<V>);
struct W1Row<V>(PhantomData<V>);

impl<V: Vf64> RowSum for VfRow<V> {
    const FUSED: bool = true;

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
        let (xp, yp) = (x.as_ptr(), s.as_mut_ptr());
        if rev {
            sweep_row::<V>(ks.rev(), col_idx, blocks, xp, m, yp)
        } else {
            sweep_row::<V>(ks, col_idx, blocks, xp, m, yp)
        }
    }

    #[inline(always)]
    unsafe fn epilogue<const T: bool, const Q: bool, const F: bool>(
        li: &Block3,
        d: &[f64],
        rows: sgs::Rows,
        m: usize,
    ) {
        vf_epilogue::<V, T, Q, F>(li, d, rows, m)
    }
}

impl<V: Vf64> RowSum for W1Row<V> {
    const FUSED: bool = true;
    const W1: bool = true;

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
        let (cols, blks) = (&col_idx[ks.clone()], &blocks[ks]);
        let (xp, yp) = (x.as_ptr(), s.as_mut_ptr());
        if rev {
            sweep_w1::<V, true>(cols, blks, xp, yp)
        } else {
            sweep_w1::<V, false>(cols, blks, xp, yp)
        }
    }
}

// ---------------------------------------------------------------------
// Dense MultiVec kernel bodies: the `n·m²` ones in register-blocked
// tiles over L1-sized row chunks, and block CG's `n·m` column-scaled
// ones, whose column dots add rounded products rows ascending —
// `MultiVec::dot_columns_into`'s portable order, on every backend.
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
// signature says `dst` may alias `init`; `alpha`/`beta`/`dots` cover
// `m`. The safe dispatchers at the bottom of this file check the
// lengths.
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

/// Fused `r ← r − q·C; nsq = diag(rᵀ·r)`: each chunk is updated, then
/// its squared column norms are added while it is still in L1
/// ([`dots_chunk`]) — one pass over memory.
#[inline(always)]
unsafe fn sub_mul_norms_vf<V: Vf64, const T: usize, const WIDE: bool>(
    rm: &mut [f64],
    q: &[f64],
    c: &[f64],
    m: usize,
    nsq: &mut [f64],
) {
    nsq.fill(0.0);
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
        dots_chunk::<V>(rp, rp, m, rows, nsq.as_mut_ptr());
        r0 += rows;
    }
}

/// `dots[j] += Σ_r x[r, j]·y[r, j]` over `rows` rows, rows ascending
/// and each product rounded before it is added (mul-then-add, the
/// order of `MultiVec::dot_columns_into`'s portable loop): the vector
/// columns' running sums in registers, up to four vectors at a time,
/// the tail columns in scalars.
#[inline(always)]
unsafe fn dots_chunk<V: Vf64>(
    x: *const f64,
    y: *const f64,
    m: usize,
    rows: usize,
    dots: *mut f64,
) {
    let mut j = 0;
    while j + 4 * V::LANES <= m {
        dots_tile::<V, 4>(x, y, m, rows, j, dots);
        j += 4 * V::LANES;
    }
    if j + 2 * V::LANES <= m {
        dots_tile::<V, 2>(x, y, m, rows, j, dots);
        j += 2 * V::LANES;
    }
    if j + V::LANES <= m {
        dots_tile::<V, 1>(x, y, m, rows, j, dots);
        j += V::LANES;
    }
    for col in j..m {
        let mut acc = *dots.add(col);
        for r in 0..rows {
            acc += *x.add(r * m + col) * *y.add(r * m + col);
        }
        *dots.add(col) = acc;
    }
}

/// [`dots_chunk`]'s `NV` vector columns from `j0`: `x·y` rounded (an
/// FMA from +0 is the correctly rounded product), then added.
#[inline(always)]
unsafe fn dots_tile<V: Vf64, const NV: usize>(
    x: *const f64,
    y: *const f64,
    m: usize,
    rows: usize,
    j0: usize,
    dots: *mut f64,
) {
    let mut acc: [V; NV] =
        std::array::from_fn(|v| V::load(dots.add(j0 + v * V::LANES)));
    for r in 0..rows {
        let (xr, yr) = (x.add(r * m + j0), y.add(r * m + j0));
        for (v, a) in acc.iter_mut().enumerate() {
            let o = v * V::LANES;
            *a = a.add(V::zero().fma(V::load(xr.add(o)), V::load(yr.add(o))));
        }
    }
    for (v, a) in acc.into_iter().enumerate() {
        a.store(dots.add(j0 + v * V::LANES));
    }
}

/// `dots[j] = Σ_r x[r, j]·y[r, j]` ([`dots_chunk`] over every row).
#[inline(always)]
unsafe fn dots_vf<V: Vf64>(x: &[f64], y: &[f64], m: usize, dots: &mut [f64]) {
    dots.fill(0.0);
    dots_chunk::<V>(x.as_ptr(), y.as_ptr(), m, x.len() / m, dots.as_mut_ptr());
}

/// Block-Jacobi's share of a CG step ([`step_vf`]): the blocks of `D`,
/// `z = D·r` and `rz = diag(rᵀ·z)`.
pub(crate) type JacobiStep<'a> = (&'a [Block3], &'a mut [f64], &'a mut [f64]);

/// One CG step on `m` independent columns, in one pass over memory:
/// per chunk of whole 3-row groups `x += t·diag(α)` and
/// `r −= q·diag(α)` ([`step_chunk`]), then, while the chunk is in L1,
/// `nsq = diag(rᵀ·r)` of the updated `r` ([`dots_chunk`]) — and under
/// block-Jacobi `z = D·r` with `nsq` ([`block_diag_chunk`]) and
/// `rz = diag(rᵀ·z)`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn step_vf<V: Vf64>(
    x: &mut [f64],
    t: &[f64],
    rm: &mut [f64],
    q: &[f64],
    alpha: &[f64],
    m: usize,
    nsq: &mut [f64],
    mut jacobi: Option<JacobiStep<'_>>,
) {
    nsq.fill(0.0);
    if let Some((_, _, rz)) = &mut jacobi {
        rz.fill(0.0);
    }
    let n = q.len() / m;
    let (xp, tp, qp, ap) = (x.as_mut_ptr(), t.as_ptr(), q.as_ptr(), alpha.as_ptr());
    let (rp, np) = (rm.as_mut_ptr(), nsq.as_mut_ptr());
    let step = 3 * (chunk_rows(m) / 3).max(1);
    let mut r0 = 0;
    while r0 < n {
        let (rows, o) = (step.min(n - r0), r0 * m);
        let rc = rp.add(o);
        step_chunk::<V>(xp.add(o), tp.add(o), rc, qp.add(o), ap, m, rows);
        match &mut jacobi {
            Some((d, z, rz)) => {
                let (dp, zp) = (d.as_ptr().add(r0 / 3), z.as_mut_ptr().add(o));
                block_diag_chunk::<V>(dp, rc, zp, m, rows / 3, np);
                dots_chunk::<V>(rc, zp, m, rows, rz.as_mut_ptr());
            }
            None => dots_chunk::<V>(rc, rc, m, rows, np),
        }
        r0 += rows;
    }
}

/// `x += t·diag(α)` and `r −= q·diag(α)` on `rows` rows: one FMA per
/// element in the vector columns, mul-then-add in the tail columns.
#[inline(always)]
unsafe fn step_chunk<V: Vf64>(
    x: *mut f64,
    t: *const f64,
    r: *mut f64,
    q: *const f64,
    alpha: *const f64,
    m: usize,
    rows: usize,
) {
    let tail = m - m % V::LANES;
    for o in (0..rows * m).step_by(m) {
        for j in (0..tail).step_by(V::LANES) {
            let (a, k) = (V::load(alpha.add(j)), o + j);
            V::load(x.add(k)).fma(V::load(t.add(k)), a).store(x.add(k));
            V::load(r.add(k)).fnma(V::load(q.add(k)), a).store(r.add(k));
        }
        for (j, k) in (tail..m).zip(o + tail..) {
            *x.add(k) += *t.add(k) * *alpha.add(j);
            *r.add(k) -= *q.add(k) * *alpha.add(j);
        }
    }
}

/// `p ← r + p·diag(β)`: one FMA per element in the vector columns,
/// mul-then-add in the tail columns.
#[inline(always)]
unsafe fn assign_scaled_vf<V: Vf64>(
    p: &mut [f64],
    r: &[f64],
    beta: &[f64],
    m: usize,
) {
    let tail = m - m % V::LANES;
    let (pp, rp, bp) = (p.as_mut_ptr(), r.as_ptr(), beta.as_ptr());
    for o in (0..r.len()).step_by(m) {
        let mut j = 0;
        while j < tail {
            let k = o + j;
            V::load(rp.add(k))
                .fma(V::load(pp.add(k)), V::load(bp.add(j)))
                .store(pp.add(k));
            j += V::LANES;
        }
        for j in tail..m {
            *pp.add(o + j) = *rp.add(o + j) + *pp.add(o + j) * *bp.add(j);
        }
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
            pub(crate) unsafe fn sgs_sweep(
                f: &Factors,
                pass: Pass,
                m: usize,
                s: &mut [f64],
            ) {
                if m == 1 {
                    sgs::run::<W1Row<$vec>>(f, pass, 1, s)
                } else {
                    sgs::run::<VfRow<$vec>>(f, pass, m, s)
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
            pub unsafe fn sub_mul_norms(
                rm: &mut [f64],
                q: &[f64],
                c: &[f64],
                m: usize,
                nsq: &mut [f64],
            ) {
                sub_mul_norms_vf::<$vec, TILE, WIDE>(rm, q, c, m, nsq)
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
            pub unsafe fn dots(x: &[f64], y: &[f64], m: usize, dots: &mut [f64]) {
                dots_vf::<$vec>(x, y, m, dots)
            }

            $(#[target_feature(enable = $feat)])?
            #[allow(clippy::too_many_arguments)]
            pub unsafe fn step(
                x: &mut [f64],
                t: &[f64],
                rm: &mut [f64],
                q: &[f64],
                alpha: &[f64],
                m: usize,
                nsq: &mut [f64],
                jacobi: Option<JacobiStep<'_>>,
            ) {
                step_vf::<$vec>(x, t, rm, q, alpha, m, nsq, jacobi)
            }

            $(#[target_feature(enable = $feat)])?
            pub unsafe fn assign_scaled(
                p: &mut [f64],
                r: &[f64],
                beta: &[f64],
                m: usize,
            ) {
                assign_scaled_vf::<$vec>(p, r, beta, m)
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

/// One Gauss–Seidel sweep (`crate::sgs`) on `isa`'s row sums.
pub(crate) fn sgs_sweep(
    isa: Isa,
    f: &Factors,
    pass: Pass,
    m: usize,
    s: &mut [f64],
) {
    // SAFETY: `isa` is runtime-detected; `SgsSplit` checked every
    // length `sgs::run` relies on before dispatching.
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => unsafe { avx512::sgs_sweep(f, pass, m, s) },
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => unsafe { avx2::sgs_sweep(f, pass, m, s) },
        #[cfg(target_arch = "aarch64")]
        Isa::Neon => unsafe { neon::sgs_sweep(f, pass, m, s) },
        _ => crate::gspmv::sweep_scalar(f, pass, m, s),
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

pub(crate) fn sub_mul_norms(
    isa: Isa,
    rm: &mut [f64],
    q: &[f64],
    c: &[f64],
    m: usize,
    nsq: &mut [f64],
) {
    assert!(rm.len() == q.len() && q.len().is_multiple_of(m));
    assert!(c.len() == m * m && nsq.len() == m);
    on_dense_isa!(isa, sub_mul_norms(rm, q, c, m, nsq))
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

pub(crate) fn dots(isa: Isa, x: &[f64], y: &[f64], m: usize, dots: &mut [f64]) {
    assert!(x.len() == y.len() && x.len().is_multiple_of(m) && dots.len() == m);
    on_dense_isa!(isa, dots(x, y, m, dots))
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn step(
    isa: Isa,
    x: &mut [f64],
    t: &[f64],
    rm: &mut [f64],
    q: &[f64],
    alpha: &[f64],
    m: usize,
    nsq: &mut [f64],
    jacobi: Option<JacobiStep<'_>>,
) {
    let len = rm.len();
    assert!(x.len() == len && t.len() == len && q.len() == len);
    assert!(len.is_multiple_of(m) && alpha.len() == m && nsq.len() == m);
    if let Some((d, z, rz)) = &jacobi {
        assert!(len == 3 * d.len() * m && z.len() == len && rz.len() == m);
    }
    on_dense_isa!(isa, step(x, t, rm, q, alpha, m, nsq, jacobi))
}

pub(crate) fn assign_scaled(
    isa: Isa,
    p: &mut [f64],
    r: &[f64],
    beta: &[f64],
    m: usize,
) {
    assert!(p.len() == r.len() && r.len().is_multiple_of(m) && beta.len() == m);
    on_dense_isa!(isa, assign_scaled(p, r, beta, m))
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

            // step: x += t·diag(α); r ← r − q·diag(α); nsq = diag(rᵀr)
            let (mut x1, mut r1) = (pseudo_mv(n, m, 15), pseudo_mv(n, m, 19));
            let (x0, r0) = (x1.clone(), r1.clone());
            let (t, q) = (pseudo_mv(n, m, 17), pseudo_mv(n, m, 21));
            let alpha = &c[..m];
            let mut nsq = vec![f64::NAN; m];
            step(
                isa,
                x1.as_mut_slice(),
                t.as_slice(),
                r1.as_mut_slice(),
                q.as_slice(),
                alpha,
                m,
                &mut nsq,
                None,
            );
            let mut nsq_want = vec![0.0; m];
            for r in 0..n {
                for j in 0..m {
                    let x = x0.get(r, j) + t.get(r, j) * alpha[j];
                    let rv = r0.get(r, j) - q.get(r, j) * alpha[j];
                    nsq_want[j] += rv * rv;
                    assert!((x - x1.get(r, j)).abs() <= 1e-12, "step x m={m}");
                    assert!((rv - r1.get(r, j)).abs() <= 1e-12, "step r m={m}");
                }
            }
            for (u, v) in nsq_want.iter().zip(&nsq) {
                assert!(
                    (u - v).abs() <= 1e-12 * u.abs().max(1.0),
                    "step nsq m={m}"
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

    /// `Σ a_i·b_i` with element `i` of each chunk of eight in partial
    /// sum `i % 8`, the sums combined pairwise, then the tail in order.
    fn eight_lane_dot(a: &[f64], b: &[f64]) -> f64 {
        let split = a.len() - a.len() % 8;
        let mut s = [0.0f64; 8];
        for i in 0..split {
            s[i % 8] += a[i] * b[i];
        }
        let tail = (split..a.len()).fold(0.0, |t, i| t + a[i] * b[i]);
        (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail
    }

    /// The register-blocked kernels reproduce the one-row-at-a-time
    /// reference bit for bit, on every ISA the host has; and width 1,
    /// which no ISA vectorises across columns, reduces in [`crate::dot`]'s
    /// eight partial sums in all three of its reductions, on every
    /// backend (lengths around the eight-element chunk).
    #[test]
    fn dense_kernels_bitwise_equal_reference() {
        for n in [1usize, 7, 8, 9, 383, 384, 385] {
            let tag = format!("m=1 n={n}");
            let (a, b) = (random_flat(n, n as u64), random_flat(n, n as u64 + 1));
            let want = eight_lane_dot(&a, &b);
            assert_eq!(crate::dot(&a, &b).to_bits(), want.to_bits(), "dot {tag}");
            let (am, bm) = (MultiVec::from_vec(a.clone()), MultiVec::from_vec(b));
            let mut g = [f64::NAN];
            am.gram_into(&bm, &mut g);
            assert_eq!(bits(&g), bits(&[want]), "gram {tag}");
            let mut g = [f64::NAN];
            am.dot_columns_into(&bm, &mut g);
            assert_eq!(bits(&g), bits(&[want]), "dot_columns {tag}");

            // The width-1 CG step: `x + t·c` and `r − q·c` mul-then-add,
            // the norm in `dot`'s order, and `p ← r + p·c`.
            let c = 0.3711;
            let r_want: Vec<f64> =
                a.iter().zip(bm.as_slice()).map(|(r, q)| r - q * c).collect();
            let x_want: Vec<f64> =
                bm.as_slice().iter().zip(&a).map(|(x, t)| x + t * c).collect();
            let g_want = eight_lane_dot(&r_want, &r_want);
            let (mut r, mut x) = (am.clone(), bm.clone());
            r.sub_scaled_then_norms_into(&bm, &[c], &mut x, &am, &mut g);
            assert_eq!(bits(r.as_slice()), bits(&r_want), "step r {tag}");
            assert_eq!(bits(x.as_slice()), bits(&x_want), "step x {tag}");
            assert_eq!(bits(&g), bits(&[g_want]), "step norms {tag}");
            let mut r = am.clone();
            r.sub_mul_dense_then_norms_into(&bm, &[c], &mut g);
            assert_eq!(bits(r.as_slice()), bits(&r_want), "sub_mul_norms {tag}");
            assert_eq!(bits(&g), bits(&[g_want]), "sub_mul_norms {tag}");
            let mut p = am.clone();
            p.assign_add_scaled(&bm, &[c]);
            assert_eq!(
                bits(p.as_slice()),
                bits(&x_want),
                "assign_add_scaled {tag}"
            );
        }
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

                // The column-scaled kernels against plain per-element
                // loops: column dots, the fused CG step, `p ← r + p·β`.
                let alpha = &c[..m];
                let mut dots_got = vec![f64::NAN; m];
                dots(isa, &a, &b, m, &mut dots_got);
                assert_eq!(
                    bits(&dots_got),
                    bits(&dots_reference(&a, &b, m)),
                    "dots {tag}"
                );
                let (mut x, mut r) = (b.clone(), a.clone());
                let (x_ref, r_ref) = step_reference(isa, &b, &a, &a, &b, alpha, m);
                let mut nsq = vec![f64::NAN; m];
                step(isa, &mut x, &a, &mut r, &b, alpha, m, &mut nsq, None);
                assert_eq!(bits(&x), bits(&x_ref), "step x {tag}");
                assert_eq!(bits(&r), bits(&r_ref), "step r {tag}");
                assert_eq!(
                    bits(&nsq),
                    bits(&dots_reference(&r_ref, &r_ref, m)),
                    "step nsq {tag}"
                );
                let mut p = b.clone();
                assign_scaled(isa, &mut p, &a, alpha, m);
                let vector_cols = m - m % min_vector_width(isa);
                for (k, (got, (pv, rv))) in
                    p.iter().zip(b.iter().zip(&a)).enumerate()
                {
                    let beta = alpha[k % m];
                    let want = if k % m < vector_cols {
                        pv.mul_add(beta, *rv)
                    } else {
                        rv + pv * beta
                    };
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "assign_scaled {tag} k={k}"
                    );
                }

                // The update of `x += p·(−C)`, then the squared column
                // norms mul-then-add, rows ascending.
                let (mut r, mut nsq) = (a.clone(), vec![f64::NAN; m]);
                sub_mul_norms(isa, &mut r, &b, &c, m, &mut nsq);
                let neg: Vec<f64> = c.iter().map(|v| -v).collect();
                let mut r_add = a.clone();
                reference::add_mul(isa, &mut r_add, &b, &neg, m);
                assert_eq!(bits(&r), bits(&r_add), "sub_mul_norms r {tag}");
                let mut nsq_ref = vec![0.0; m];
                for row in r_add.chunks_exact(m) {
                    for (acc, v) in nsq_ref.iter_mut().zip(row) {
                        *acc += v * v;
                    }
                }
                assert_eq!(bits(&nsq), bits(&nsq_ref), "sub_mul_norms nsq {tag}");
            }
        }
    }

    /// `dots[j] = Σ_r x[r, j]·y[r, j]`, rows ascending, mul-then-add.
    fn dots_reference(x: &[f64], y: &[f64], m: usize) -> Vec<f64> {
        let mut dots = vec![0.0; m];
        for (k, (u, v)) in x.iter().zip(y).enumerate() {
            dots[k % m] += u * v;
        }
        dots
    }

    /// `(x + t·diag(α), r − q·diag(α))` in plain Rust, one fused
    /// multiply-add per element in `isa`'s vector columns and
    /// mul-then-add in the tail columns.
    fn step_reference(
        isa: Isa,
        x: &[f64],
        t: &[f64],
        r: &[f64],
        q: &[f64],
        alpha: &[f64],
        m: usize,
    ) -> (Vec<f64>, Vec<f64>) {
        let vector_cols = m - m % min_vector_width(isa);
        let (mut x, mut r) = (x.to_vec(), r.to_vec());
        for k in 0..x.len() {
            let a = alpha[k % m];
            if k % m < vector_cols {
                x[k] = t[k].mul_add(a, x[k]);
                r[k] = (-q[k]).mul_add(a, r[k]);
            } else {
                x[k] += t[k] * a;
                r[k] -= q[k] * a;
            }
        }
        (x, r)
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

    /// The block-diagonal kernel `z = D·r` reproduces the unchunked
    /// sequence ([`block_diag_reference`]) bit for bit on every ISA the
    /// host has, and so does the fused block-Jacobi step against the
    /// step, `z = D·r` and the `rᵀz` dots one after another: block
    /// counts around the chunk boundaries (42 blocks at m = 8, 21 at
    /// m = 16, 7 at m = 48).
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

                    // The fused block-Jacobi step: the step, then `z = D·r`
                    // with the norms and `diag(rᵀz)` of the updated `r`.
                    let (x0, q) = (
                        random_flat(n * m, seed + 5),
                        random_flat(n * m, seed + 6),
                    );
                    let alpha = random_flat(m, seed + 7);
                    let (x_ref, r_ref) =
                        step_reference(isa, &x0, &q, &r0, &q, &alpha, m);
                    let (z_ref, nsq_ref) = block_diag_reference(isa, &d, &r_ref, m);
                    let (mut x, mut r) = (x0.clone(), r0.clone());
                    let mut rz = vec![f64::NAN; m];
                    let jacobi = Some((&d[..], &mut z[..], &mut rz[..]));
                    step(isa, &mut x, &q, &mut r, &q, &alpha, m, &mut nsq, jacobi);
                    assert_eq!(bits(&x), bits(&x_ref), "jacobi step x {tag}");
                    assert_eq!(bits(&r), bits(&r_ref), "jacobi step r {tag}");
                    assert_eq!(bits(&z), bits(&z_ref), "jacobi step z {tag}");
                    assert_eq!(bits(&nsq), bits(&nsq_ref), "jacobi step nsq {tag}");
                    assert_eq!(
                        bits(&rz),
                        bits(&dots_reference(&r_ref, &z_ref, m)),
                        "jacobi step rz {tag}"
                    );
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

                    // The CG step's norms: the poisoned column's must be
                    // NaN and nobody else's.
                    let q = random_flat(n * m, 9);
                    let (mut x, t) = (vec![0.0; n * m], random_flat(n * m, 11));
                    let mut nsq = vec![0.0; m];
                    step(isa, &mut x, &t, &mut a, &q, &c[..m], m, &mut nsq, None);
                    for (j, v) in nsq.iter().enumerate() {
                        assert_eq!(v.is_nan(), j == col, "step norm m={m} col={j}");
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
