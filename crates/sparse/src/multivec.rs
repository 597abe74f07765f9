//! Row-major multivectors: a block of `m` vectors of scalar length `n`.
//!
//! The paper stores the `m` right-hand-side vectors row-major — all `m`
//! values belonging to one scalar row are contiguous — so that the GSPMV
//! inner loop streams unit-stride through both `X` and `Y` (§IV-A1).
//!
//! Dense kernels are `n·m²` (block BiCGStab's Grams and `m×m` updates)
//! or `n·m` (block CG's column dots and `diag(α)`/`diag(β)` updates),
//! each with a SIMD body where a vector fits the width; at `m = 1` the
//! reductions sum in [`dot`]'s eight partial sums.

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

/// Monomorphized fused `R −= Q·C; nsq = diag(RᵀR)` kernel.
fn sub_mul_then_norms_fixed<const M: usize>(
    r: &mut MultiVec,
    q: &MultiVec,
    c: &[f64],
    nsq: &mut [f64],
) {
    let ct = tile::<M>(c);
    let mut acc = [0.0f64; M];
    for (drow, orow) in r.data.chunks_exact_mut(M).zip(q.data.chunks_exact(M)) {
        let d: &mut [f64; M] = drow.try_into().unwrap();
        for k in 0..M {
            let s = orow[k];
            for j in 0..M {
                d[j] -= s * ct[k][j];
            }
        }
        for j in 0..M {
            acc[j] += d[j] * d[j];
        }
    }
    nsq.copy_from_slice(&acc);
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

/// `x += t·diag(α)` and `r −= q·diag(α)` on whole rows of width `m`,
/// mul-then-add: the portable body of the column-scaled CG step.
/// `#[inline(always)]` so the monomorphized wrapper below compiles it
/// at constant trip counts, as the other portable bodies here are.
#[inline(always)]
fn step_rows(
    m: usize,
    x: &mut [f64],
    t: &[f64],
    r: &mut [f64],
    q: &[f64],
    alpha: &[f64],
) {
    let rows = x.chunks_exact_mut(m).zip(t.chunks_exact(m));
    for ((xr, tr), (rr, qr)) in
        rows.zip(r.chunks_exact_mut(m).zip(q.chunks_exact(m)))
    {
        for j in 0..m {
            xr[j] += tr[j] * alpha[j];
            rr[j] -= qr[j] * alpha[j];
        }
    }
}

fn step_rows_fixed<const M: usize>(
    x: &mut [f64],
    t: &[f64],
    r: &mut [f64],
    q: &[f64],
    alpha: &[f64],
) {
    step_rows(M, x, t, r, q, alpha)
}

/// The block-Jacobi CG step on whole 3-row slabs, mul-then-add: per
/// slab [`step_rows`], then `z = D·r` with the squared column norms
/// ([`block_diag_slab`]) and `rz[j] += r[row, j]·z[row, j]` rows
/// ascending, while the slab is in L1.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn step_precond_rows(
    m: usize,
    x: &mut [f64],
    t: &[f64],
    r: &mut [f64],
    q: &[f64],
    alpha: &[f64],
    d: &[Block3],
    z: &mut [f64],
    rz: &mut [f64],
    nsq: &mut [f64],
) {
    rz.fill(0.0);
    nsq.fill(0.0);
    let steps = x.chunks_exact_mut(3 * m).zip(t.chunks_exact(3 * m));
    let slabs = r.chunks_exact_mut(3 * m).zip(q.chunks_exact(3 * m));
    for (((xb, tb), (rb, qb)), (zb, b)) in
        steps.zip(slabs).zip(z.chunks_exact_mut(3 * m).zip(d))
    {
        step_rows(m, xb, tb, rb, qb, alpha);
        block_diag_slab(m, b, rb, zb, nsq);
        for (rrow, zrow) in rb.chunks_exact(m).zip(zb.chunks_exact(m)) {
            for j in 0..m {
                rz[j] += rrow[j] * zrow[j];
            }
        }
    }
}

/// Monomorphized [`step_precond_rows`].
#[allow(clippy::too_many_arguments)]
fn step_precond_fixed<const M: usize>(
    x: &mut [f64],
    t: &[f64],
    r: &mut [f64],
    q: &[f64],
    alpha: &[f64],
    d: &[Block3],
    z: &mut [f64],
    rz: &mut [f64],
    nsq: &mut [f64],
) {
    step_precond_rows(M, x, t, r, q, alpha, d, z, rz, nsq)
}

/// `p ← r + p·diag(β)` on whole rows of width `m`, mul-then-add.
#[inline(always)]
fn assign_scaled_rows(m: usize, p: &mut [f64], r: &[f64], beta: &[f64]) {
    for (prow, rrow) in p.chunks_exact_mut(m).zip(r.chunks_exact(m)) {
        for j in 0..m {
            prow[j] = rrow[j] + prow[j] * beta[j];
        }
    }
}

fn assign_scaled_fixed<const M: usize>(p: &mut [f64], r: &[f64], beta: &[f64]) {
    assign_scaled_rows(M, p, r, beta)
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
/// `sub_scaled_then_norms_into`, `sub_mul_dense_then_norms_into`), so
/// CG at one column sums in this order.
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
/// the width-1 body of [`MultiVec::sub_scaled_then_norms_into`] and
/// [`MultiVec::sub_mul_dense_then_norms_into`].
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

    /// Column-wise dot products: returns `[Σ_r self[r,j]·other[r,j]; m]`,
    /// rows ascending, each product rounded before it is added, on
    /// every backend (at `m = 1`, [`dot`]).
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
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::dots(isa, &self.data, &other.data, m, dots);
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

    /// One CG step on `m` independent columns, in one pass over memory:
    /// `x ← x + t·diag(α)`, `self ← self − q·diag(α)` and
    /// `norms_sq[j] ← Σ_r self[r, j]²` of the *updated* `self`. The
    /// norms sum in [`MultiVec::dot_columns_into`]'s order; each update
    /// is one FMA on the SIMD backend's vector columns and mul-then-add
    /// elsewhere, so at `m = 1` it is [`MultiVec::add_mul_dense`] and
    /// [`MultiVec::sub_mul_dense_then_norms_into`] with a 1×1 `C`.
    pub fn sub_scaled_then_norms_into(
        &mut self,
        q: &MultiVec,
        alpha: &[f64],
        x: &mut MultiVec,
        t: &MultiVec,
        norms_sq: &mut [f64],
    ) {
        let m = self.m;
        assert!(q.shape() == self.shape() && x.shape() == self.shape());
        assert_eq!(t.shape(), self.shape());
        assert_eq!((alpha.len(), norms_sq.len()), (m, m));
        if m == 1 {
            let a = alpha[0];
            for (xi, ti) in x.data.iter_mut().zip(&t.data) {
                *xi += ti * a;
            }
            norms_sq[0] = sub_mul_then_square(&mut self.data, &q.data, a);
            return;
        }
        let (r, q, x, t) =
            (&mut self.data[..], &q.data[..], &mut x.data[..], &t.data[..]);
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::step(isa, x, t, r, q, alpha, m, norms_sq, None);
            return;
        }
        if dispatch_square_m!(m, step_rows_fixed, (x, t, r, q, alpha)).is_none() {
            step_rows(m, x, t, r, q, alpha);
        }
        norms_sq.fill(0.0);
        for row in r.chunks_exact(m) {
            for (acc, v) in norms_sq.iter_mut().zip(row) {
                *acc += v * v;
            }
        }
    }

    /// `self ← self − other·C` and `norms_sq[j] ← Σ_r self[r, j]²` of
    /// the *updated* `self`, in one pass over memory: the residual
    /// update of a solve that reads only the Gram's diagonal. The
    /// update is [`MultiVec::add_mul_dense`]'s with `−C`, bit for bit,
    /// and the norms sum in [`MultiVec::dot_columns_into`]'s order.
    pub fn sub_mul_dense_then_norms_into(
        &mut self,
        other: &MultiVec,
        c: &[f64],
        norms_sq: &mut [f64],
    ) {
        assert_eq!(self.shape(), other.shape());
        let m = self.m;
        assert_eq!(c.len(), m * m);
        assert_eq!(norms_sq.len(), m);
        if m == 1 {
            norms_sq[0] = sub_mul_then_square(&mut self.data, &other.data, c[0]);
            return;
        }
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::sub_mul_norms(
                isa,
                &mut self.data,
                &other.data,
                c,
                m,
                norms_sq,
            );
            return;
        }
        if dispatch_square_m!(
            m,
            sub_mul_then_norms_fixed,
            (self, other, c, norms_sq)
        )
        .is_some()
        {
            return;
        }
        norms_sq.fill(0.0);
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
            for (acc, d) in norms_sq.iter_mut().zip(drow.iter()) {
                *acc += d * d;
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

    /// The block-Jacobi form of [`MultiVec::sub_scaled_then_norms_into`]
    /// for a residual `self = R`, in one pass over memory: the step,
    /// then `z ← D·R` with `norms_sq ← diag(RᵀR)` (as
    /// [`MultiVec::block_diag_mul_into`]) and `rz ← diag(RᵀZ)` of the
    /// updated `R`, each chunk of whole 3-row groups reduced while it
    /// is in L1. The dots add rounded products rows ascending at every
    /// width (at `m = 1` too, where [`dot`] would sum in eight partial
    /// sums), so the result is the three kernels' one after another,
    /// bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn sub_scaled_then_precond_dots_into(
        &mut self,
        q: &MultiVec,
        alpha: &[f64],
        x: &mut MultiVec,
        t: &MultiVec,
        d: &[Block3],
        z: &mut MultiVec,
        rz: &mut [f64],
        norms_sq: &mut [f64],
    ) {
        let m = self.m;
        assert!(q.shape() == self.shape() && x.shape() == self.shape());
        assert!(t.shape() == self.shape() && z.shape() == self.shape());
        assert_eq!(self.n, 3 * d.len(), "one block per three rows");
        assert_eq!((alpha.len(), rz.len(), norms_sq.len()), (m, m, m));
        let (r, q, x, t, z) = (
            &mut self.data[..],
            &q.data[..],
            &mut x.data[..],
            &t.data[..],
            &mut z.data[..],
        );
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            let jacobi = Some((d, z, rz));
            crate::simd::step(isa, x, t, r, q, alpha, m, norms_sq, jacobi);
            return;
        }
        if dispatch_square_m!(
            m,
            step_precond_fixed,
            (x, t, r, q, alpha, d, z, rz, norms_sq)
        )
        .is_none()
        {
            step_precond_rows(m, x, t, r, q, alpha, d, z, rz, norms_sq);
        }
    }

    /// `self ← other + self·diag(β)`: the search-direction update of `m`
    /// independent CG recurrences, one FMA per element on the SIMD
    /// backend's vector columns and mul-then-add elsewhere (at `m = 1`,
    /// [`MultiVec::assign_add_mul_dense`] with a 1×1 `C`).
    pub fn assign_add_scaled(&mut self, other: &MultiVec, beta: &[f64]) {
        assert_eq!(self.shape(), other.shape());
        let m = self.m;
        assert_eq!(beta.len(), m);
        if let Some(isa) = crate::backend::simd_dense_isa(m) {
            crate::simd::assign_scaled(isa, &mut self.data, &other.data, beta, m);
            return;
        }
        let (p, r) = (&mut self.data[..], &other.data[..]);
        if m == 1 {
            let b = beta[0];
            for (pi, ri) in p.iter_mut().zip(r) {
                *pi = ri + *pi * b;
            }
            return;
        }
        if dispatch_square_m!(m, assign_scaled_fixed, (p, r, beta)).is_none() {
            assign_scaled_rows(m, p, r, beta);
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

    /// The fused residual update and norms is `add_mul_dense` with
    /// `−C` followed by `dot_columns_into`, bit for bit, on the active
    /// backend: on and off the width grid, across chunk boundaries.
    #[test]
    fn sub_mul_dense_then_norms_matches_the_unfused_pair() {
        for m in [1usize, 2, 3, 5, 8, 16] {
            for n in [1usize, 9, 700] {
                let fill = |seed: usize| {
                    MultiVec::from_flat(
                        n,
                        m,
                        (0..n * m)
                            .map(|k| ((k * 7919 + seed) % 113) as f64 / 113.0 - 0.5)
                            .collect(),
                    )
                };
                let (r0, q) = (fill(1), fill(2));
                let c: Vec<f64> = (0..m * m)
                    .map(|k| ((k * 31 + 5) % 17) as f64 / 17.0 - 0.4)
                    .collect();
                let neg: Vec<f64> = c.iter().map(|v| -v).collect();
                let (mut fused, mut want) = (r0.clone(), r0);
                let (mut nsq, mut nsq_want) =
                    (vec![f64::NAN; m], vec![f64::NAN; m]);
                fused.sub_mul_dense_then_norms_into(&q, &c, &mut nsq);
                want.add_mul_dense(&q, &neg);
                want.dot_columns_into(&want, &mut nsq_want);
                let bits =
                    |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(fused.as_slice()),
                    bits(want.as_slice()),
                    "m={m} n={n}"
                );
                assert_eq!(bits(&nsq), bits(&nsq_want), "m={m} n={n}");
            }
        }
    }

    /// Both block-diagonal sweeps against plain loops, at grid widths
    /// (the monomorphized or SIMD bodies, whichever the active backend
    /// runs) and off-grid ones (the runtime-width body); the fused
    /// block-Jacobi step also bit for bit against the step,
    /// `block_diag_mul_into` and the `rᵀz` dots one after another.
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

            let alpha = &c[..m];
            let (mut r, mut x) = (r0.clone(), q.clone());
            let mut rz = vec![f64::NAN; m];
            r.sub_scaled_then_precond_dots_into(
                &q, alpha, &mut x, &r0, &d, &mut z, &mut rz, &mut nsq,
            );
            let (mut r_want, mut x_want) = (r0.clone(), q.clone());
            for row in 0..n {
                for j in 0..m {
                    *r_want.get_mut(row, j) -= q.get(row, j) * alpha[j];
                    *x_want.get_mut(row, j) += r0.get(row, j) * alpha[j];
                }
            }
            let (z_want, nsq_want) = naive(&r_want);
            close(r.as_slice(), r_want.as_slice(), "fused r");
            close(x.as_slice(), x_want.as_slice(), "fused x");
            close(z.as_slice(), z_want.as_slice(), "fused z");
            close(&rz, &r_want.dot_columns(&z_want), "fused rz");
            close(&nsq, &nsq_want, "fused norms");

            // Bit for bit the three kernels one after another, with the
            // `rᵀz` dots rows ascending at every width.
            let (mut r_seq, mut x_seq) = (r0.clone(), q.clone());
            let (mut z_seq, mut nsq_seq) = (MultiVec::zeros(n, m), vec![0.0; m]);
            r_seq.sub_scaled_then_norms_into(
                &q,
                alpha,
                &mut x_seq,
                &r0,
                &mut nsq_seq,
            );
            r_seq.block_diag_mul_into(&d, &mut z_seq, &mut nsq_seq);
            let mut rz_seq = vec![0.0; m];
            let pairs = r_seq.as_slice().iter().zip(z_seq.as_slice());
            for (k, (u, v)) in pairs.enumerate() {
                rz_seq[k % m] += u * v;
            }
            let bits =
                |v: &[f64]| v.iter().map(|u| u.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(r.as_slice()), bits(r_seq.as_slice()), "bits r m={m}");
            assert_eq!(bits(x.as_slice()), bits(x_seq.as_slice()), "bits x m={m}");
            assert_eq!(bits(z.as_slice()), bits(z_seq.as_slice()), "bits z m={m}");
            assert_eq!(bits(&rz), bits(&rz_seq), "bits rz m={m}");
            assert_eq!(bits(&nsq), bits(&nsq_seq), "bits norms m={m}");
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
