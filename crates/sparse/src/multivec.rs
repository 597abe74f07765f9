//! Row-major multivectors: a block of `m` vectors of scalar length `n`.
//!
//! The paper stores the `m` right-hand-side vectors row-major — all `m`
//! values belonging to one scalar row are contiguous — so that the GSPMV
//! inner loop streams unit-stride through both `X` and `Y` (§IV-A1).

use crate::block::Block3;
use std::ops::Range;

/// Dispatches a const-generic helper on [`crate::WIDTH_GRID`] (the
/// same set the GSPMV kernels specialize), yielding `Some(result)` or
/// `None` for other sizes.
macro_rules! dispatch_square_m {
    ($m:expr, $f:ident, ($($args:expr),*)) => {
        match $m {
            1 => Some($f::<1>($($args),*)),
            2 => Some($f::<2>($($args),*)),
            4 => Some($f::<4>($($args),*)),
            8 => Some($f::<8>($($args),*)),
            12 => Some($f::<12>($($args),*)),
            16 => Some($f::<16>($($args),*)),
            24 => Some($f::<24>($($args),*)),
            32 => Some($f::<32>($($args),*)),
            42 => Some($f::<42>($($args),*)),
            48 => Some($f::<48>($($args),*)),
            _ => None,
        }
    };
}

/// Copies the row-major `M×M` coefficient block onto the stack so the
/// streaming loops below read it from registers/L1, not through a heap
/// pointer LLVM must re-load each row.
#[inline(always)]
fn tile<const M: usize>(c: &[f64]) -> [[f64; M]; M] {
    let mut t = [[0.0f64; M]; M];
    for k in 0..M {
        t[k].copy_from_slice(&c[k * M..(k + 1) * M]);
    }
    t
}

/// Monomorphized Gram kernel: fixed-width inner loops, accumulators in a
/// stack tile (a heap destination would force a store per row; the tile
/// lets LLVM keep the partial sums in vector registers across the
/// length-n stream).
fn gram_fixed<const M: usize>(a: &MultiVec, b: &MultiVec, g: &mut [f64]) {
    let mut acc = [[0.0f64; M]; M];
    for (srow, orow) in a.data.chunks_exact(M).zip(b.data.chunks_exact(M)) {
        let o: &[f64; M] = orow.try_into().unwrap();
        for i in 0..M {
            let s = srow[i];
            for j in 0..M {
                acc[i][j] += s * o[j];
            }
        }
    }
    for i in 0..M {
        g[i * M..(i + 1) * M].copy_from_slice(&acc[i]);
    }
}

/// Monomorphized `X += P·C` kernel.
fn add_mul_fixed<const M: usize>(x: &mut MultiVec, p: &MultiVec, c: &[f64]) {
    let ct = tile::<M>(c);
    for (drow, orow) in x.data.chunks_exact_mut(M).zip(p.data.chunks_exact(M)) {
        let d: &mut [f64; M] = drow.try_into().unwrap();
        let mut acc: [f64; M] = *d;
        for k in 0..M {
            let s = orow[k];
            for j in 0..M {
                acc[j] += s * ct[k][j];
            }
        }
        *d = acc;
    }
}

/// Monomorphized `P ← R + P·C` kernel.
fn assign_add_mul_fixed<const M: usize>(p: &mut MultiVec, r: &MultiVec, c: &[f64]) {
    let ct = tile::<M>(c);
    for (drow, orow) in p.data.chunks_exact_mut(M).zip(r.data.chunks_exact(M)) {
        let d: &mut [f64; M] = drow.try_into().unwrap();
        let mut tmp: [f64; M] = *TryInto::<&[f64; M]>::try_into(orow).unwrap();
        for k in 0..M {
            let s = d[k];
            for j in 0..M {
                tmp[j] += s * ct[k][j];
            }
        }
        *d = tmp;
    }
}

/// Monomorphized fused `R −= Q·C; G = RᵀR` kernel.
fn sub_mul_then_gram_fixed<const M: usize>(
    r: &mut MultiVec,
    q: &MultiVec,
    c: &[f64],
    g: &mut [f64],
) {
    let ct = tile::<M>(c);
    let mut acc = [[0.0f64; M]; M];
    for (drow, orow) in r.data.chunks_exact_mut(M).zip(q.data.chunks_exact(M)) {
        let d: &mut [f64; M] = drow.try_into().unwrap();
        for k in 0..M {
            let s = orow[k];
            for j in 0..M {
                d[j] -= s * ct[k][j];
            }
        }
        for i in 0..M {
            let s = d[i];
            for j in 0..M {
                acc[i][j] += s * d[j];
            }
        }
    }
    for i in 0..M {
        g[i * M..(i + 1) * M].copy_from_slice(&acc[i]);
    }
}

/// `z = B·r` for one 3×3 block on a 3×`m` slab (three rows of `m`
/// contiguous values), adding the slab's squared column norms to
/// `nsq` — the unit of the block-diagonal sweeps.
#[inline(always)]
fn block_diag_slab(
    m: usize,
    b: &Block3,
    r: &[f64],
    z: &mut [f64],
    nsq: &mut [f64],
) {
    let (r0, rest) = r.split_at(m);
    let (r1, r2) = rest.split_at(m);
    for (i, zi) in z.chunks_exact_mut(m).enumerate() {
        let (a0, a1, a2) = (b.get(i, 0), b.get(i, 1), b.get(i, 2));
        for j in 0..m {
            zi[j] = a0 * r0[j] + a1 * r1[j] + a2 * r2[j];
        }
    }
    for j in 0..m {
        nsq[j] += r0[j] * r0[j] + r1[j] * r1[j] + r2[j] * r2[j];
    }
}

/// Portable fused `R −= Q·C; Z = D·R; G = RᵀZ; nsq = diag(RᵀR)`, one
/// 3-row group at a time. `#[inline(always)]` so the monomorphized
/// wrapper below compiles it at constant trip counts.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sub_mul_then_precond_gram_rows(
    m: usize,
    r: &mut [f64],
    q: &[f64],
    c: &[f64],
    d: &[Block3],
    z: &mut [f64],
    g: &mut [f64],
    nsq: &mut [f64],
) {
    g.fill(0.0);
    nsq.fill(0.0);
    let slabs = r.chunks_exact_mut(3 * m).zip(q.chunks_exact(3 * m));
    for (((rb, qb), zb), b) in slabs.zip(z.chunks_exact_mut(3 * m)).zip(d) {
        for (drow, qrow) in rb.chunks_exact_mut(m).zip(qb.chunks_exact(m)) {
            for k in 0..m {
                let s = qrow[k];
                for j in 0..m {
                    drow[j] -= s * c[k * m + j];
                }
            }
        }
        block_diag_slab(m, b, rb, zb, nsq);
        for (drow, zrow) in rb.chunks_exact(m).zip(zb.chunks_exact(m)) {
            for i in 0..m {
                let s = drow[i];
                for j in 0..m {
                    g[i * m + j] += s * zrow[j];
                }
            }
        }
    }
}

/// Monomorphized [`sub_mul_then_precond_gram_rows`].
#[allow(clippy::too_many_arguments)]
fn sub_mul_then_precond_gram_fixed<const M: usize>(
    r: &mut [f64],
    q: &[f64],
    c: &[f64],
    d: &[Block3],
    z: &mut [f64],
    g: &mut [f64],
    nsq: &mut [f64],
) {
    sub_mul_then_precond_gram_rows(M, r, q, c, d, z, g, nsq)
}

/// Partial sums a width-1 reduction keeps: element `i` of a chunk of
/// eight adds into sum `i`, so the adds of one chunk are independent (a
/// single running sum is one ordered chain the compiler may not
/// vectorise) and the result depends on the data alone, never on
/// threads.
const LANES: usize = 8;

/// The fixed pairwise combination of the partial sums, then the tail
/// (the `len % 8` trailing products, summed in order).
fn combine(s: [f64; LANES], tail: f64) -> f64 {
    (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail
}

/// `a · b` in eight partial sums: the one inner product of vectors —
/// the spectral-bound iterations' and every width-1 reduction of
/// [`MultiVec`] (`gram_into`, `dot_columns_into`,
/// `sub_mul_dense_then_gram_into`), so CG at one column sums in this
/// order.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail = ca.remainder().iter().zip(cb.remainder()).map(|(x, y)| x * y).sum();
    let mut sums = [0.0f64; LANES];
    for (x, y) in ca.zip(cb) {
        for i in 0..LANES {
            sums[i] += x[i] * y[i];
        }
    }
    combine(sums, tail)
}

/// `y −= q·c`, returning `y · y` of the updated `y` in [`dot`]'s order:
/// the width-1 body of [`MultiVec::sub_mul_dense_then_gram_into`].
fn sub_mul_then_square(y: &mut [f64], q: &[f64], c: f64) -> f64 {
    assert_eq!(q.len(), y.len());
    let split = y.len() - y.len() % LANES;
    let (qh, qt) = q.split_at(split);
    let (yh, yt) = y.split_at_mut(split);
    let mut sums = [0.0f64; LANES];
    for (qc, yc) in qh.chunks_exact(LANES).zip(yh.chunks_exact_mut(LANES)) {
        for i in 0..LANES {
            yc[i] -= qc[i] * c;
            sums[i] += yc[i] * yc[i];
        }
    }
    let mut tail = 0.0;
    for (qi, yi) in qt.iter().zip(yt) {
        *yi -= qi * c;
        tail += *yi * *yi;
    }
    combine(sums, tail)
}

/// `m` column vectors of length `n`, stored row-major: entry `(row, col)`
/// lives at `row * m + col`.
#[derive(Clone, Debug, PartialEq)]
pub struct MultiVec {
    n: usize,
    m: usize,
    data: Vec<f64>,
}

impl MultiVec {
    /// An `n × m` zero multivector.
    pub fn zeros(n: usize, m: usize) -> Self {
        MultiVec { n, m, data: vec![0.0; n * m] }
    }

    /// Makes this an `n × m` zero multivector in the buffer it has,
    /// which allocates only when `n·m` outgrows its capacity.
    pub fn reset(&mut self, n: usize, m: usize) {
        self.data.clear();
        self.data.resize(n * m, 0.0);
        (self.n, self.m) = (n, m);
    }

    /// Builds from a flat row-major buffer of length `n·m`.
    pub fn from_flat(n: usize, m: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n * m, "flat buffer length mismatch");
        MultiVec { n, m, data }
    }

    /// Builds an `n × m` multivector from `m` column slices.
    pub fn from_columns(columns: &[&[f64]]) -> Self {
        let m = columns.len();
        assert!(m > 0, "at least one column required");
        let n = columns[0].len();
        assert!(columns.iter().all(|c| c.len() == n), "column length mismatch");
        let mut mv = MultiVec::zeros(n, m);
        for (j, col) in columns.iter().enumerate() {
            mv.set_column(j, col);
        }
        mv
    }

    /// Builds a single-column multivector from a vector.
    pub fn from_vec(v: Vec<f64>) -> Self {
        let n = v.len();
        MultiVec { n, m: 1, data: v }
    }

    /// Scalar length of each column.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of columns.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// The flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the multivector, returning its flat row-major buffer
    /// without copying. For a width-1 multivector the buffer *is* the
    /// column, which is how gathered single columns hand off to
    /// scalar-vector call sites.
    #[inline]
    pub fn into_flat(self) -> Vec<f64> {
        self.data
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.n && col < self.m);
        self.data[row * self.m + col]
    }

    /// Mutable entry accessor.
    #[inline]
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        debug_assert!(row < self.n && col < self.m);
        &mut self.data[row * self.m + col]
    }

    /// The `m` values of scalar row `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.data[row * self.m..(row + 1) * self.m]
    }

    /// Mutable row.
    #[inline]
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        &mut self.data[row * self.m..(row + 1) * self.m]
    }

    /// Copies column `col` out to a new vector.
    pub fn column(&self, col: usize) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.copy_column_into(col, &mut out);
        out
    }

    /// Copies column `col` into a caller-provided buffer — the
    /// allocation-free form of [`MultiVec::column`] for per-iteration
    /// call sites.
    pub fn copy_column_into(&self, col: usize, out: &mut [f64]) {
        assert!(col < self.m);
        assert_eq!(out.len(), self.n);
        for (r, o) in out.iter_mut().enumerate() {
            *o = self.data[r * self.m + col];
        }
    }

    /// Overwrites column `col` from a slice.
    pub fn set_column(&mut self, col: usize, values: &[f64]) {
        assert!(col < self.m);
        assert_eq!(values.len(), self.n);
        for (r, v) in values.iter().enumerate() {
            self.data[r * self.m + col] = *v;
        }
    }

    /// Fills every entry with `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// `self ← self + alpha · other` with one scalar for all columns.
    pub fn axpy(&mut self, alpha: f64, other: &MultiVec) {
        assert_eq!(self.shape(), other.shape());
        for (d, o) in self.data.iter_mut().zip(other.data.iter()) {
            *d += alpha * o;
        }
    }

    /// Scales every entry by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for d in self.data.iter_mut() {
            *d *= alpha;
        }
    }

    /// Column-wise dot products: returns `[Σ_r self[r,j]·other[r,j]; m]`
    /// (at `m = 1`, [`dot`]).
    pub fn dot_columns(&self, other: &MultiVec) -> Vec<f64> {
        let mut dots = vec![0.0; self.m];
        self.dot_columns_into(other, &mut dots);
        dots
    }

    /// [`MultiVec::dot_columns`] into a caller-provided length-`m`
    /// buffer (overwritten) — the allocation-free form for
    /// per-iteration call sites.
    pub fn dot_columns_into(&self, other: &MultiVec, dots: &mut [f64]) {
        assert_eq!(self.shape(), other.shape());
        let m = self.m;
        assert_eq!(dots.len(), m);
        if m == 1 {
            dots[0] = dot(&self.data, &other.data);
            return;
        }
        dots.fill(0.0);
        for (srow, orow) in
            self.data.chunks_exact(m).zip(other.data.chunks_exact(m))
        {
            for j in 0..m {
                dots[j] += srow[j] * orow[j];
            }
        }
    }

    /// Column-wise Euclidean norms.
    pub fn norms(&self) -> Vec<f64> {
        self.dot_columns(self).into_iter().map(f64::sqrt).collect()
    }

    /// The Gram matrix `selfᵀ · other` as a row-major `m×m'` dense array.
    /// This is the small dense reduction inside block CG: `n·m·m'`
    /// multiply-adds — at `m = 16` more work than the GSPMV beside it.
    /// A 1×1 Gram is [`dot`]; other square Grams run on the active
    /// backend's kernels (register-tiled `crate::simd` bodies, or the
    /// monomorphized scalar ones on the width grid); other shapes take
    /// a strip-mined generic loop.
    pub fn gram(&self, other: &MultiVec) -> Vec<f64> {
        let mut g = vec![0.0; self.m * other.m];
        self.gram_into(other, &mut g);
        g
    }

    /// [`MultiVec::gram`] into a caller-provided `m·m'` buffer
    /// (overwritten) — the allocation-free form for per-iteration call
    /// sites.
    pub fn gram_into(&self, other: &MultiVec, g: &mut [f64]) {
        assert_eq!(self.n, other.n);
        let (ma, mb) = (self.m, other.m);
        assert_eq!(g.len(), ma * mb);
        if ma == 1 && mb == 1 {
            g[0] = dot(&self.data, &other.data);
            return;
        }
        if ma == mb {
            if let Some(isa) = crate::backend::simd_dense_isa(ma) {
                crate::simd::gram(isa, &self.data, &other.data, ma, g);
                return;
            }
            if dispatch_square_m!(ma, gram_fixed, (self, other, g)).is_some() {
                return;
            }
        }
        g.fill(0.0);
        for (srow, orow) in
            self.data.chunks_exact(ma).zip(other.data.chunks_exact(mb))
        {
            for i in 0..ma {
                let s = srow[i];
                axpy_strips(&mut g[i * mb..(i + 1) * mb], s, orow);
            }
        }
    }

    /// `self ← self + other · C` where `C` is a row-major `m'×m` dense
    /// coefficient matrix (the block-CG update `X ← X + P·α`).
    pub fn add_mul_dense(&mut self, other: &MultiVec, c: &[f64]) {
        assert_eq!(self.n, other.n);
        assert_eq!(c.len(), other.m * self.m);
        let (m, mo) = (self.m, other.m);
        if m == mo {
            if let Some(isa) = crate::backend::simd_dense_isa(m) {
                crate::simd::add_mul(isa, &mut self.data, &other.data, c, m);
                return;
            }
            if dispatch_square_m!(m, add_mul_fixed, (self, other, c)).is_some() {
                return;
            }
        }
        for (drow, orow) in
            self.data.chunks_exact_mut(m).zip(other.data.chunks_exact(mo))
        {
            for k in 0..mo {
                let s = orow[k];
                if s != 0.0 {
                    axpy_strips(drow, s, &c[k * m..(k + 1) * m]);
                }
            }
        }
    }

    /// Fused block-CG residual update: `self ← self − other·C`, returning
    /// the Gram matrix `selfᵀ·self` of the *updated* residual — one pass
    /// over memory instead of two (the update and the reduction both
    /// stream `n×m` data, so fusing halves the dominant traffic).
    pub fn sub_mul_dense_then_gram(
        &mut self,
        other: &MultiVec,
        c: &[f64],
    ) -> Vec<f64> {
        let mut g = vec![0.0; self.m * self.m];
        self.sub_mul_dense_then_gram_into(other, c, &mut g);
        g
    }

    /// [`MultiVec::sub_mul_dense_then_gram`] with the Gram matrix
    /// written into a caller-provided `m·m` buffer (overwritten). At
    /// `m = 1` the Gram sums in [`dot`]'s order.
    pub fn sub_mul_dense_then_gram_into(
        &mut self,
        other: &MultiVec,
        c: &[f64],
        g: &mut [f64],
    ) {
        assert_eq!(self.shape(), other.shape());
        let m = self.m;
        assert_eq!(c.len(), m * m);
        assert_eq!(g.len(), m * m);
        if m == 1 {
            g[0] = sub_mul_then_square(&mut self.data, &other.data, c[0]);
            return;
        }
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::sub_mul_gram(isa, &mut self.data, &other.data, c, m, g);
            return;
        }
        if dispatch_square_m!(m, sub_mul_then_gram_fixed, (self, other, c, g))
            .is_some()
        {
            return;
        }
        g.fill(0.0);
        for (drow, orow) in
            self.data.chunks_exact_mut(m).zip(other.data.chunks_exact(m))
        {
            for k in 0..m {
                let s = orow[k];
                if s != 0.0 {
                    for (d, cv) in drow.iter_mut().zip(&c[k * m..(k + 1) * m]) {
                        *d -= s * cv;
                    }
                }
            }
            for i in 0..m {
                let s = drow[i];
                axpy_strips(&mut g[i * m..(i + 1) * m], s, drow);
            }
        }
    }

    /// `z ← D·self` for the block-diagonal matrix `D` with 3×3 blocks
    /// `d` (one per three rows), and `norms_sq[j] ← Σ_r self[r, j]²` —
    /// how a block-Jacobi-preconditioned solve opens: `Z = M⁻¹R` and
    /// the residual's column norms in one pass.
    pub fn block_diag_mul_into(
        &self,
        d: &[Block3],
        z: &mut MultiVec,
        norms_sq: &mut [f64],
    ) {
        assert_eq!(self.shape(), z.shape());
        let m = self.m;
        assert_eq!(self.n, 3 * d.len(), "one block per three rows");
        assert_eq!(norms_sq.len(), m);
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::block_diag(isa, d, &self.data, &mut z.data, m, norms_sq);
            return;
        }
        norms_sq.fill(0.0);
        let slabs =
            self.data.chunks_exact(3 * m).zip(z.data.chunks_exact_mut(3 * m));
        for ((rb, zb), b) in slabs.zip(d) {
            block_diag_slab(m, b, rb, zb, norms_sq);
        }
    }

    /// The block-Jacobi form of
    /// [`MultiVec::sub_mul_dense_then_gram_into`], for a residual
    /// `self = R`: `R ← R − other·C`, `z ← D·R` (as
    /// [`MultiVec::block_diag_mul_into`]), `g ← RᵀZ` and
    /// `norms_sq ← diag(RᵀR)`, in one pass over memory — `Z` and both
    /// reductions are taken while a row chunk is in L1, so the
    /// preconditioner adds `O(n·m)` work and no sweep.
    pub fn sub_mul_dense_then_precond_gram_into(
        &mut self,
        other: &MultiVec,
        c: &[f64],
        d: &[Block3],
        z: &mut MultiVec,
        g: &mut [f64],
        norms_sq: &mut [f64],
    ) {
        assert_eq!(self.shape(), other.shape());
        assert_eq!(self.shape(), z.shape());
        let m = self.m;
        assert_eq!(self.n, 3 * d.len(), "one block per three rows");
        assert_eq!(c.len(), m * m);
        assert_eq!(g.len(), m * m);
        assert_eq!(norms_sq.len(), m);
        let (r, q, z) = (&mut self.data[..], &other.data[..], &mut z.data[..]);
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::sub_mul_precond_gram(isa, r, q, c, d, z, m, g, norms_sq);
            return;
        }
        if dispatch_square_m!(
            m,
            sub_mul_then_precond_gram_fixed,
            (r, q, c, d, z, g, norms_sq)
        )
        .is_none()
        {
            sub_mul_then_precond_gram_rows(m, r, q, c, d, z, g, norms_sq);
        }
    }

    /// `self ← other + self · C` in-place variant used for the block-CG
    /// search-direction update `P ← R + P·β`.
    pub fn assign_add_mul_dense(&mut self, other: &MultiVec, c: &[f64]) {
        assert_eq!(self.shape(), other.shape());
        let m = self.m;
        assert_eq!(c.len(), m * m);
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::assign_add_mul(isa, &mut self.data, &other.data, c, m);
            return;
        }
        if dispatch_square_m!(m, assign_add_mul_fixed, (self, other, c)).is_some() {
            return;
        }
        let mut tmp = vec![0.0; m];
        for (drow, orow) in
            self.data.chunks_exact_mut(m).zip(other.data.chunks_exact(m))
        {
            tmp.copy_from_slice(orow);
            for k in 0..m {
                let s = drow[k];
                if s != 0.0 {
                    axpy_strips(&mut tmp, s, &c[k * m..(k + 1) * m]);
                }
            }
            drow.copy_from_slice(&tmp);
        }
    }

    /// Gathers the listed columns into a packed `n × cols.len()`
    /// multivector (allocating form of
    /// [`MultiVec::gather_columns_into`]).
    pub fn gather_columns(&self, cols: &[usize]) -> MultiVec {
        let mut out = MultiVec::zeros(self.n, cols.len());
        self.gather_columns_into(cols, &mut out);
        out
    }

    /// Gathers the listed columns into a caller-provided multivector of
    /// shape `n × cols.len()` — the allocation-free form used by
    /// per-step call sites (the MRHS driver) and the solve-service
    /// batcher. Duplicate sources are permitted (a gather only reads).
    pub fn gather_columns_into(&self, cols: &[usize], dst: &mut MultiVec) {
        assert_eq!(dst.n, self.n, "gather_columns: row-count mismatch");
        assert_eq!(dst.m, cols.len(), "gather_columns: width mismatch");
        for &c in cols {
            assert!(c < self.m, "gather_columns: column {c} out of range");
        }
        let (ms, md) = (self.m, dst.m);
        for (drow, srow) in
            dst.data.chunks_exact_mut(md).zip(self.data.chunks_exact(ms))
        {
            for (d, &c) in drow.iter_mut().zip(cols) {
                *d = srow[c];
            }
        }
    }

    /// Scatters `src`'s columns into the listed columns of `self`
    /// (`self[:, cols[i]] ← src[:, i]`). `cols` must be duplicate-free
    /// (debug-asserted): aliased destinations would make the result
    /// depend on the scatter order.
    pub fn scatter_columns(&mut self, cols: &[usize], src: &MultiVec) {
        assert_eq!(src.n, self.n, "scatter_columns: row-count mismatch");
        assert_eq!(src.m, cols.len(), "scatter_columns: width mismatch");
        for &c in cols {
            assert!(c < self.m, "scatter_columns: column {c} out of range");
        }
        debug_assert!(
            cols.iter().enumerate().all(|(i, a)| !cols[..i].contains(a)),
            "scatter_columns: duplicate destination column (aliasing)"
        );
        let (md, ms) = (self.m, src.m);
        for (drow, srow) in
            self.data.chunks_exact_mut(md).zip(src.data.chunks_exact(ms))
        {
            for (&c, s) in cols.iter().zip(srow) {
                drow[c] = *s;
            }
        }
    }

    /// Gathers the scalar-row range `rows` into a packed multivector
    /// (distributed halo exchange helper).
    pub fn gather_rows(&self, rows: Range<usize>) -> MultiVec {
        assert!(rows.end <= self.n);
        MultiVec {
            n: rows.len(),
            m: self.m,
            data: self.data[rows.start * self.m..rows.end * self.m].to_vec(),
        }
    }

    /// Gathers an arbitrary list of scalar rows into a packed multivector.
    pub fn gather_row_list(&self, rows: &[usize]) -> MultiVec {
        let mut out = MultiVec::zeros(rows.len(), self.m);
        for (dst, &src) in rows.iter().enumerate() {
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// `(n, m)` shape tuple.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.n, self.m)
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |a, v| a.max(v.abs()))
    }
}

/// `dst += s·src` with fixed-width 8/4 strips plus a scalar tail so the
/// loop autovectorizes despite the runtime length — the inner loop of
/// the any-shape fallbacks (rectangular Grams, off-grid widths without
/// a SIMD backend), not of the block solvers' hot path.
#[inline]
fn axpy_strips(dst: &mut [f64], s: f64, src: &[f64]) {
    debug_assert_eq!(dst.len(), src.len());
    let mut j = 0;
    let m = dst.len();
    while j + 8 <= m {
        let sw: &[f64; 8] = src[j..j + 8].try_into().unwrap();
        let dw = &mut dst[j..j + 8];
        for (d, x) in dw.iter_mut().zip(sw) {
            *d += s * x;
        }
        j += 8;
    }
    while j + 4 <= m {
        let sw: &[f64; 4] = src[j..j + 4].try_into().unwrap();
        let dw = &mut dst[j..j + 4];
        for (d, x) in dw.iter_mut().zip(sw) {
            *d += s * x;
        }
        j += 4;
    }
    while j < m {
        dst[j] += s * src[j];
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_layout() {
        let mv = MultiVec::from_flat(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(mv.row(0), &[1., 2., 3.]);
        assert_eq!(mv.row(1), &[4., 5., 6.]);
        assert_eq!(mv.get(1, 2), 6.0);
        assert_eq!(mv.column(1), vec![2., 5.]);
    }

    #[test]
    fn from_columns_round_trip() {
        let c0 = [1.0, 2.0, 3.0];
        let c1 = [4.0, 5.0, 6.0];
        let mv = MultiVec::from_columns(&[&c0, &c1]);
        assert_eq!(mv.column(0), c0.to_vec());
        assert_eq!(mv.column(1), c1.to_vec());
    }

    #[test]
    fn dot_columns_matches_per_column() {
        let a = MultiVec::from_columns(&[&[1.0, 2.0], &[0.0, 1.0]]);
        let b = MultiVec::from_columns(&[&[3.0, 4.0], &[5.0, 6.0]]);
        assert_eq!(a.dot_columns(&b), vec![11.0, 6.0]);
    }

    #[test]
    fn gram_is_transpose_times_other() {
        let a = MultiVec::from_columns(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, 1.0]]);
        let g = a.gram(&a);
        // columns: a0 = (1,0,2), a1 = (0,1,1)
        assert_eq!(g, vec![5.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn add_mul_dense_matches_manual() {
        // X (3×2) += P (3×2) · C (2×2)
        let mut x = MultiVec::zeros(3, 2);
        let p = MultiVec::from_columns(&[&[1.0, 0.0, 1.0], &[0.0, 2.0, 0.0]]);
        let c = vec![1.0, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
        x.add_mul_dense(&p, &c);
        // col0 = 1*p0 + 3*p1, col1 = 2*p0 + 4*p1
        assert_eq!(x.column(0), vec![1.0, 6.0, 1.0]);
        assert_eq!(x.column(1), vec![2.0, 8.0, 2.0]);
    }

    #[test]
    fn assign_add_mul_dense_matches_manual() {
        // P ← R + P·β
        let mut p = MultiVec::from_columns(&[&[1.0, 0.0], &[0.0, 1.0]]);
        let r = MultiVec::from_columns(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let beta = vec![2.0, 0.0, 0.0, 3.0];
        p.assign_add_mul_dense(&r, &beta);
        assert_eq!(p.column(0), vec![3.0, 1.0]);
        assert_eq!(p.column(1), vec![1.0, 4.0]);
    }

    /// Both block-diagonal sweeps against plain loops, at grid widths
    /// (the monomorphized or SIMD bodies, whichever the active backend
    /// runs) and off-grid ones (the runtime-width body).
    #[test]
    fn block_diagonal_sweeps_match_naive_loops() {
        let value = |k: usize| ((k * 37 % 101) as f64) / 50.0 - 1.0;
        for m in [1usize, 2, 3, 4, 5, 8, 12, 16, 17] {
            let blocks = 50;
            let n = 3 * blocks;
            let r0 = MultiVec::from_flat(n, m, (0..n * m).map(value).collect());
            let q = MultiVec::from_flat(
                n,
                m,
                (0..n * m).map(|k| value(k + 7)).collect(),
            );
            let c: Vec<f64> = (0..m * m).map(|k| value(k + 3) * 0.25).collect();
            let d: Vec<Block3> = (0..blocks)
                .map(|b| {
                    let mut blk = Block3::scaled_identity(1.0 + b as f64);
                    for (k, v) in blk.0.iter_mut().enumerate() {
                        *v += value(9 * b + k);
                    }
                    blk
                })
                .collect();
            let close = |got: &[f64], want: &[f64], what: &str| {
                for (u, v) in got.iter().zip(want) {
                    assert!(
                        (u - v).abs() <= 1e-12 * v.abs().max(1.0),
                        "{what} m={m}: {u} vs {v}"
                    );
                }
            };
            let naive = |r: &MultiVec| {
                let mut z = MultiVec::zeros(n, m);
                let mut nsq = vec![0.0; m];
                for row in 0..n {
                    for j in 0..m {
                        nsq[j] += r.get(row, j) * r.get(row, j);
                        *z.get_mut(row, j) = (0..3)
                            .map(|k| {
                                d[row / 3].get(row % 3, k)
                                    * r.get(row / 3 * 3 + k, j)
                            })
                            .sum();
                    }
                }
                (z, nsq)
            };

            let (mut z, mut nsq) = (MultiVec::zeros(n, m), vec![f64::NAN; m]);
            r0.block_diag_mul_into(&d, &mut z, &mut nsq);
            let (z_want, nsq_want) = naive(&r0);
            close(z.as_slice(), z_want.as_slice(), "block_diag z");
            close(&nsq, &nsq_want, "block_diag norms");

            let mut r = r0.clone();
            let mut g = vec![f64::NAN; m * m];
            r.sub_mul_dense_then_precond_gram_into(
                &q, &c, &d, &mut z, &mut g, &mut nsq,
            );
            let mut r_want = r0.clone();
            r_want.sub_mul_dense_then_gram(&q, &c);
            let (z_want, nsq_want) = naive(&r_want);
            close(r.as_slice(), r_want.as_slice(), "fused r");
            close(z.as_slice(), z_want.as_slice(), "fused z");
            close(&g, &r_want.gram(&z_want), "fused g");
            close(&nsq, &nsq_want, "fused norms");
        }
    }

    #[test]
    fn gather_columns_packs_and_permutes() {
        let mv = MultiVec::from_flat(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let g = mv.gather_columns(&[2, 0]);
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.column(0), vec![3., 6.]);
        assert_eq!(g.column(1), vec![1., 4.]);
        // Duplicate sources are fine for a gather.
        let g = mv.gather_columns(&[1, 1]);
        assert_eq!(g.column(0), g.column(1));
    }

    #[test]
    fn gather_columns_into_reuses_buffer() {
        let mv = MultiVec::from_flat(3, 2, (0..6).map(|v| v as f64).collect());
        let mut dst = MultiVec::zeros(3, 1);
        mv.gather_columns_into(&[1], &mut dst);
        assert_eq!(dst.as_slice(), &[1.0, 3.0, 5.0]);
        mv.gather_columns_into(&[0], &mut dst);
        assert_eq!(dst.as_slice(), &[0.0, 2.0, 4.0]);
    }

    #[test]
    fn scatter_columns_round_trips_gather() {
        let src = MultiVec::from_flat(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let cols = [4usize, 0, 2];
        let mut wide = MultiVec::zeros(2, 5);
        wide.scatter_columns(&cols, &src);
        let back = wide.gather_columns(&cols);
        assert_eq!(back, src);
        // Untouched columns stay zero.
        assert_eq!(wide.column(1), vec![0.0, 0.0]);
        assert_eq!(wide.column(3), vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_columns_rejects_out_of_range() {
        let mv = MultiVec::zeros(2, 2);
        mv.gather_columns(&[2]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "aliasing")]
    fn scatter_columns_rejects_duplicate_destinations() {
        let src = MultiVec::zeros(2, 2);
        let mut dst = MultiVec::zeros(2, 3);
        dst.scatter_columns(&[1, 1], &src);
    }

    #[test]
    fn gather_rows_packs_contiguously() {
        let mv = MultiVec::from_flat(4, 2, (0..8).map(|v| v as f64).collect());
        let g = mv.gather_rows(1..3);
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.as_slice(), &[2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn gather_row_list_arbitrary_order() {
        let mv = MultiVec::from_flat(3, 1, vec![10.0, 20.0, 30.0]);
        let g = mv.gather_row_list(&[2, 0]);
        assert_eq!(g.as_slice(), &[30.0, 10.0]);
    }

    #[test]
    fn norms_and_scale() {
        let mut mv = MultiVec::from_columns(&[&[3.0, 4.0], &[0.0, 2.0]]);
        assert_eq!(mv.norms(), vec![5.0, 2.0]);
        mv.scale(2.0);
        assert_eq!(mv.norms(), vec![10.0, 4.0]);
        mv.scale(0.0);
        assert_eq!(mv.max_abs(), 0.0);
    }
}
