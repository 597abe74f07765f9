//! Block symmetric Gauss–Seidel sweeps of a [`BcrsMatrix`] in
//! Eisenstat's split form — what `cg` and `block_cg` precondition with
//! when the operator hands them its block rows.
//!
//! Write `A = L + D + U` by 3×3 blocks (strict lower, diagonal, strict
//! upper) and `D_i = L_i·L_iᵀ` (the Cholesky factor of each diagonal
//! block's symmetric part). The preconditioner is
//! `M = (D+L)·D⁻¹·(D+U) = C·Cᵀ` with `C = (D+L)·L_d⁻ᵀ`, and the solvers
//! iterate on `Â = C⁻¹·A·C⁻ᵀ`. Neither `C` nor `Â` is ever formed; one
//! application of `Â` to `p̂` is two sweeps over the matrix's own
//! stored blocks:
//!
//! * [`SgsSplit::upper`], block rows descending over each row's blocks
//!   right of the diagonal: `t_i = L_i⁻ᵀ·(p̂_i − L_i⁻¹·Σ_{j>i} A_ij·t_j)`,
//!   which is `t = C⁻ᵀ·p̂` (it solves `(D+U)·t = L_d·p̂`);
//! * [`SgsSplit::lower`], block rows ascending over the blocks left of
//!   it, two row sums per row from the same blocks —
//!   `s_v = Σ_{j<i} A_ij·v_j` and `s_t = Σ_{j<i} A_ij·t_j` — then
//!   `q̂_i = p̂_i − L_i⁻¹·(s_v − s_t)`, `v_i = L_i⁻ᵀ·q̂_i` and
//!   `(A·t)_i = s_t + L_i·p̂_i`. `q̂` is `Â·p̂` (`v = t + (D+L)⁻¹(L_d·p̂ −
//!   D·t)` is Eisenstat's vector, `q̂ = L_dᵀ·v`), and `A·t = L·t + L_d·p̂`
//!   because `(D+U)·t = L_d·p̂`: the product the true residual needs
//!   comes out of the same sweep. The sweep keeps `v` where `q̂` goes
//!   and turns it into `q̂ = L_dᵀ·v` after the last row, so it needs no
//!   block of its own.
//!
//! Without `t` the lower sweep is the forward solve `C⁻¹·r`: called on
//! `p̂ = L_d⁻¹·r` ([`SgsSplit::scale`]), `q̂_i = L_i⁻¹·(r_i − s_v)`.
//!
//! Each row sum is a kernel family's GSPMV row body over a range of the
//! row's stored blocks, into a 3×`m` scratch row, and the 3×3 epilogue
//! above follows in the same family's arithmetic ([`RowSum`]): the
//! monomorphized row and a mul-then-add epilogue on the scalar family,
//! the `rows_vf`/`rows_w1` bodies and a fused epilogue in the same
//! vectors on the SIMD one. So a sweep's bits depend on the kernel
//! family alone, like a product's. Sweeps are serial: row `i` reads
//! rows the same sweep wrote.
//!
//! A diagonal block whose symmetric part is not positive definite, not
//! finite or not stored has no factor, and [`SgsSplit::rebuild`]
//! refuses the matrix — the caller's fallback decides what runs.

use crate::backend::Backend;
use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::BLOCK_DIM;
use std::ops::Range;

/// A kernel family's part of a sweep: one block row's sum over a range
/// of its stored blocks, `s (3×m, row-major) = Σ_{k ∈ ks}
/// blocks[k]·x_{col_idx[k]}` with `x` row-major in `m` columns,
/// accumulated in `ks` order or, with `rev`, last block first — the
/// family's GSPMV row body — and the row's epilogue in the same
/// arithmetic.
pub(crate) trait RowSum {
    /// Whether the sweep's 3×3 epilogue fuses its multiply-adds, as
    /// this family's row sums do.
    const FUSED: bool;

    /// # Safety
    /// The implementor's target features are present; every `col_idx`
    /// in `ks` indexes a block row of `x`, and `s` holds `3·m` values.
    #[allow(clippy::too_many_arguments)]
    unsafe fn sum(
        ks: Range<usize>,
        rev: bool,
        col_idx: &[u32],
        blocks: &[Block3],
        x: &[f64],
        m: usize,
        s: &mut [f64],
    );

    /// [`RowSum::sum`] of two sources over the same blocks, in `ks`
    /// order: `s[0]` from `x[0]`, `s[1]` from `x[1]`.
    ///
    /// # Safety
    /// As for [`RowSum::sum`], for both sources.
    #[inline(always)]
    unsafe fn sum2(
        ks: Range<usize>,
        col_idx: &[u32],
        blocks: &[Block3],
        x: [&[f64]; 2],
        m: usize,
        s: [&mut [f64]; 2],
    ) {
        let [s0, s1] = s;
        Self::sum(ks.clone(), false, col_idx, blocks, x[0], m, s0);
        Self::sum(ks, false, col_idx, blocks, x[1], m, s1);
    }

    /// [`epilogue`] on all `m` columns, in this family's arithmetic.
    ///
    /// # Safety
    /// The implementor's target features are present.
    #[inline(always)]
    unsafe fn epilogue(li: &Block3, p: &[f64], d: &[f64], w: &mut [f64], m: usize) {
        epilogue(Self::FUSED, li, p, d, w, m, 0..m)
    }

    /// [`lower_part`] on all `m` columns, in this family's arithmetic.
    ///
    /// # Safety
    /// The implementor's target features are present.
    #[inline(always)]
    unsafe fn lower_part(
        lo: &Block3,
        p: &[f64],
        st: &[f64],
        d: &mut [f64],
        at: &mut [f64],
        m: usize,
    ) {
        lower_part(Self::FUSED, lo, p, st, d, at, m, 0..m)
    }
}

/// The per-solve state of the split: where each block row's diagonal
/// block sits, its Cholesky factor `L_i` and `L_i⁻¹` (both lower
/// triangular), and the scratch rows of the row sums. Built in
/// `O(nnz)` by [`SgsSplit::rebuild`] into the buffers of the last
/// build, so a caller that keeps one per thread allocates only when a
/// matrix outgrows it.
#[derive(Debug)]
pub struct SgsSplit {
    backend: Backend,
    diag: Vec<usize>,
    chol: Vec<Block3>,
    chol_inv: Vec<Block3>,
    scratch: Vec<f64>,
}

/// The borrowed view a sweep runs on.
pub(crate) struct Factors<'a> {
    row_ptr: &'a [usize],
    col_idx: &'a [u32],
    blocks: &'a [Block3],
    diag: &'a [usize],
    chol: &'a [Block3],
    chol_inv: &'a [Block3],
}

impl Factors<'_> {
    /// Row `i`'s stored blocks left and right of its diagonal block.
    /// Clamped to the row, so a split applied to a matrix it was not
    /// built for (same block count, other pattern) computes garbage and
    /// never reads past a row.
    #[inline(always)]
    fn row(&self, i: usize) -> (Range<usize>, Range<usize>) {
        let (start, end) = (self.row_ptr[i], self.row_ptr[i + 1]);
        let d = self.diag[i].clamp(start, end);
        (start..d, (d + 1).min(end)..end)
    }
}

/// What one sweep reads and writes: row-major `3·nb × m` buffers, as
/// raw pointers because a sweep reads rows it wrote earlier in the
/// same pass. Null `t`/`at` make the lower sweep the plain forward
/// solve.
#[derive(Clone, Copy)]
pub(crate) enum Pass {
    Upper { p: *const f64, t: *mut f64 },
    Lower { p: *const f64, t: *const f64, q: *mut f64, at: *mut f64 },
}

impl SgsSplit {
    /// An empty split whose sweeps run on `backend`.
    pub fn new(backend: Backend) -> Self {
        SgsSplit {
            backend,
            diag: Vec::new(),
            chol: Vec::new(),
            chol_inv: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Rebuilds the split of `a` for sweeps `m` columns wide. `false`
    /// (and an unusable split) when `a` is not square, or some block
    /// row stores no diagonal block, or one's symmetric part has no
    /// finite Cholesky factor ([`Block3::cholesky`]: indefinite or
    /// non-finite).
    pub fn rebuild(&mut self, a: &BcrsMatrix, m: usize) -> bool {
        self.diag.clear();
        self.chol.clear();
        self.chol_inv.clear();
        if a.nb_rows() != a.nb_cols() || m == 0 {
            return false;
        }
        let (row_ptr, col_idx, blocks) = (a.row_ptr(), a.col_idx(), a.blocks());
        for i in 0..a.nb_rows() {
            let ks = row_ptr[i]..row_ptr[i + 1];
            let Ok(at) = col_idx[ks.clone()].binary_search(&(i as u32)) else {
                self.diag.clear();
                return false;
            };
            let k = ks.start + at;
            let Some(l) = blocks[k].cholesky() else {
                self.diag.clear();
                return false;
            };
            self.diag.push(k);
            self.chol.push(l);
            self.chol_inv.push(lower_inverse(&l));
        }
        self.scratch.resize(2 * BLOCK_DIM * m, 0.0);
        true
    }

    /// Block rows of the matrix the split was last built for.
    fn nb(&self) -> usize {
        self.diag.len()
    }

    fn check(&self, a: &BcrsMatrix, m: usize, lens: &[usize]) {
        assert_eq!(a.nb_rows(), self.nb(), "split built for another matrix");
        assert!(self.scratch.len() >= 2 * BLOCK_DIM * m, "split built narrower");
        for &len in lens {
            assert_eq!(len, a.n_rows() * m, "buffers must hold n × m values");
        }
    }

    fn run(&mut self, a: &BcrsMatrix, pass: Pass, m: usize) {
        let f = Factors {
            row_ptr: a.row_ptr(),
            col_idx: a.col_idx(),
            blocks: a.blocks(),
            diag: &self.diag,
            chol: &self.chol,
            chol_inv: &self.chol_inv,
        };
        self.backend.sgs_sweep(&f, pass, m, &mut self.scratch);
    }

    /// The backward sweep `t = C⁻ᵀ·p̂` over `a`'s strict upper blocks
    /// (`p`, `t`: row-major `n × m`).
    pub fn upper(&mut self, a: &BcrsMatrix, p: &[f64], t: &mut [f64], m: usize) {
        self.check(a, m, &[p.len(), t.len()]);
        let pass = Pass::Upper { p: p.as_ptr(), t: t.as_mut_ptr() };
        self.run(a, pass, m);
    }

    /// The forward sweep over `a`'s strict lower blocks: `q = Â·p̂`
    /// and `at = A·t` for the `t` of [`SgsSplit::upper`] on the same
    /// `p̂`; with `t_at = None`, `q = C⁻¹·L_d·p̂` (the forward solve, see
    /// the module docs).
    pub fn lower(
        &mut self,
        a: &BcrsMatrix,
        p: &[f64],
        t_at: Option<(&[f64], &mut [f64])>,
        q: &mut [f64],
        m: usize,
    ) {
        let (t, at) = match t_at {
            Some((t, at)) => {
                self.check(a, m, &[t.len(), at.len()]);
                (t.as_ptr(), at.as_mut_ptr())
            }
            None => (std::ptr::null(), std::ptr::null_mut()),
        };
        self.check(a, m, &[p.len(), q.len()]);
        let pass = Pass::Lower { p: p.as_ptr(), t, q: q.as_mut_ptr(), at };
        self.run(a, pass, m);
    }

    /// `y_i = L_i⁻¹·x_i` per block row (row-major `n × m`): the
    /// right-hand side of the forward solve `C⁻¹·r`.
    pub fn scale(&self, x: &[f64], y: &mut [f64], m: usize) {
        assert!(x.len() == self.nb() * BLOCK_DIM * m && y.len() == x.len());
        let rows =
            x.chunks_exact(BLOCK_DIM * m).zip(y.chunks_exact_mut(BLOCK_DIM * m));
        for (li, (x3, y3)) in self.chol_inv.iter().zip(rows) {
            let l = &li.0;
            for j in 0..m {
                let (x0, x1, x2) = (x3[j], x3[m + j], x3[2 * m + j]);
                y3[j] = l[0] * x0;
                y3[m + j] = l[3] * x0 + l[4] * x1;
                y3[2 * m + j] = (l[6] * x0 + l[7] * x1) + l[8] * x2;
            }
        }
    }
}

/// `L⁻¹` of a lower-triangular block with a nonzero diagonal, column
/// by column (its strict upper triangle is exactly zero).
fn lower_inverse(l: &Block3) -> Block3 {
    let cols = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        .map(|e| l.solve_lower(e));
    Block3::from_rows([
        [cols[0][0], cols[1][0], cols[2][0]],
        [cols[0][1], cols[1][1], cols[2][1]],
        [cols[0][2], cols[1][2], cols[2][2]],
    ])
}

/// One sweep through the row sums `R`.
///
/// # Safety
/// `R`'s target features are present; `f` is a split of the matrix
/// whose parts it borrows; every non-null pointer of `pass` covers
/// `3·nb·m` values, the written ones overlap nothing else, and `s`
/// holds `6·m`.
#[inline(always)]
pub(crate) unsafe fn run<R: RowSum>(
    f: &Factors,
    pass: Pass,
    m: usize,
    s: &mut [f64],
) {
    let nb = f.diag.len();
    let len = nb * BLOCK_DIM * m;
    let row = BLOCK_DIM * m;
    let (sv, st) = s[..2 * row].split_at_mut(row);
    match pass {
        Pass::Upper { p, t } => {
            for i in (0..nb).rev() {
                // Last block first: the row written last (i + 1) is
                // the one whose block is applied last.
                let ks = f.row(i).1;
                R::sum(
                    ks,
                    true,
                    f.col_idx,
                    f.blocks,
                    std::slice::from_raw_parts(t, len),
                    m,
                    sv,
                );
                let p_i = std::slice::from_raw_parts(p.add(i * row), row);
                let t_i = std::slice::from_raw_parts_mut(t.add(i * row), row);
                R::epilogue(&f.chol_inv[i], p_i, sv, t_i, m);
            }
        }
        Pass::Lower { p, t, q, at } => {
            // `v` lives where `q̂` goes until the last row is done.
            for i in 0..nb {
                let ks = f.row(i).0;
                let p_i = std::slice::from_raw_parts(p.add(i * row), row);
                let v_all = std::slice::from_raw_parts(q, len);
                if t.is_null() {
                    R::sum(ks, false, f.col_idx, f.blocks, v_all, m, sv);
                } else {
                    let x = [v_all, std::slice::from_raw_parts(t, len)];
                    R::sum2(ks, f.col_idx, f.blocks, x, m, [&mut *sv, &mut *st]);
                    let at_i = std::slice::from_raw_parts_mut(at.add(i * row), row);
                    R::lower_part(&f.chol[i], p_i, st, sv, at_i, m);
                }
                // Row `i` is borrowed only after the sum that read the
                // rows before it.
                let v_i = std::slice::from_raw_parts_mut(q.add(i * row), row);
                R::epilogue(&f.chol_inv[i], p_i, sv, v_i, m);
            }
            let q = std::slice::from_raw_parts_mut(q, len);
            for (lo, q_i) in f.chol.iter().zip(q.chunks_exact_mut(row)) {
                lower_transpose(R::FUSED, lo, q_i, m);
            }
        }
    }
}

/// The three `m`-wide rows of one block row.
#[inline(always)]
fn rows3(x: &[f64], m: usize) -> [&[f64]; 3] {
    let (r0, rest) = x[..3 * m].split_at(m);
    let (r1, r2) = rest.split_at(m);
    [r0, r1, r2]
}

#[inline(always)]
fn rows3_mut(x: &mut [f64], m: usize) -> [&mut [f64]; 3] {
    let (r0, rest) = x[..3 * m].split_at_mut(m);
    let (r1, r2) = rest.split_at_mut(m);
    [r0, r1, r2]
}

/// `a·b + c`, fused or not.
#[inline(always)]
fn madd(fused: bool, a: f64, b: f64, c: f64) -> f64 {
    if fused {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// The epilogue of one block row (3×m, row-major, `li = L_i⁻¹`) on
/// the columns `cols`: `w = liᵀ·(p − li·d)`, multiply-adds fused as the
/// family's row sums are. The SIMD families run their vector columns in
/// vectors (`simd`'s `vf_epilogue`, the same arithmetic) and this on
/// the tail.
#[inline(always)]
pub(crate) fn epilogue(
    fused: bool,
    li: &Block3,
    p: &[f64],
    d: &[f64],
    w: &mut [f64],
    m: usize,
    cols: Range<usize>,
) {
    assert!(cols.end <= m);
    let l = &li.0;
    let ([p0, p1, p2], [d0, d1, d2]) = (rows3(p, m), rows3(d, m));
    let [w0, w1, w2] = rows3_mut(w, m);
    for j in cols {
        let (x0, x1, x2) = (p0[j], p1[j], p2[j]);
        let (e0, e1, e2) = (d0[j], d1[j], d2[j]);
        let q0 = madd(fused, -l[0], e0, x0);
        let q1 = madd(fused, -l[4], e1, madd(fused, -l[3], e0, x1));
        let q2 = madd(
            fused,
            -l[8],
            e2,
            madd(fused, -l[7], e1, madd(fused, -l[6], e0, x2)),
        );
        w0[j] = madd(fused, l[6], q2, madd(fused, l[3], q1, l[0] * q0));
        w1[j] = madd(fused, l[7], q2, l[4] * q1);
        w2[j] = l[8] * q2;
    }
}

/// `w ← loᵀ·w` in place for one block row (`lo = L_i`): the forward
/// sweep's `v_i` into `q̂_i`.
#[inline(always)]
fn lower_transpose(fused: bool, lo: &Block3, w: &mut [f64], m: usize) {
    let c = &lo.0;
    let [w0, w1, w2] = rows3_mut(w, m);
    for j in 0..m {
        let (v0, v1, v2) = (w0[j], w1[j], w2[j]);
        w0[j] = madd(fused, c[6], v2, madd(fused, c[3], v1, c[0] * v0));
        w1[j] = madd(fused, c[7], v2, c[4] * v1);
        w2[j] = c[8] * v2;
    }
}

/// The forward sweep's part of the epilogue, before [`epilogue`], on
/// the columns `cols`: `at = s_t + lo·p` (`lo = L_i`, lower triangular)
/// and `d ← d − s_t`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub(crate) fn lower_part(
    fused: bool,
    lo: &Block3,
    p: &[f64],
    st: &[f64],
    d: &mut [f64],
    at: &mut [f64],
    m: usize,
    cols: Range<usize>,
) {
    assert!(cols.end <= m);
    let c = &lo.0;
    let ([p0, p1, p2], [t0, t1, t2]) = (rows3(p, m), rows3(st, m));
    let ([d0, d1, d2], [a0, a1, a2]) = (rows3_mut(d, m), rows3_mut(at, m));
    for j in cols {
        let (x0, x1, x2) = (p0[j], p1[j], p2[j]);
        let (u0, u1, u2) = (t0[j], t1[j], t2[j]);
        a0[j] = madd(fused, c[0], x0, u0);
        a1[j] = madd(fused, c[4], x1, madd(fused, c[3], x0, u1));
        a2[j] =
            madd(fused, c[8], x2, madd(fused, c[7], x1, madd(fused, c[6], x0, u2)));
        d0[j] -= u0;
        d1[j] -= u1;
        d2[j] -= u2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{active_backend, backend_for, KernelKind};
    use crate::triplet::BlockTripletBuilder;

    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// A symmetric block matrix, diagonally dominant, with non-diagonal
    /// SPD diagonal blocks that span a decade and an irregular pattern
    /// (rows with no lower or no upper blocks, gaps, a long-range pair).
    fn split_matrix(nb: usize) -> BcrsMatrix {
        let mut next = rng(0x51_7cc1_b727_220a);
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            let e = [next(), next(), next()];
            let scale = 1.0 + 9.0 * (i % 5) as f64 / 4.0;
            t.add(
                i,
                i,
                (Block3::scaled_identity(4.0) + Block3::outer(e, e)) * scale,
            );
            for d in [1, 2, 5, nb / 2] {
                if d > 0 && i + d < nb && (i + d) % 4 != 3 {
                    let mut b = Block3::ZERO;
                    for v in b.0.iter_mut() {
                        *v = 0.4 * next();
                    }
                    t.add_symmetric_pair(i, i + d, b);
                }
            }
        }
        t.build()
    }

    fn values(len: usize, seed: u64) -> Vec<f64> {
        let mut next = rng(seed);
        (0..len).map(|_| next()).collect()
    }

    /// The dense parts of `a`: `(D+L, D+U, L_d)`, row-major `n×n`.
    fn dense_parts(a: &BcrsMatrix) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = a.n_rows();
        let full = a.to_dense();
        let (mut dl, mut du, mut ld) =
            (vec![0.0; n * n], full.clone(), vec![0.0; n * n]);
        for r in 0..n {
            for c in 0..n {
                let (bi, bj) = (r / 3, c / 3);
                if bj <= bi {
                    dl[r * n + c] = full[r * n + c];
                }
                if bj < bi {
                    du[r * n + c] = 0.0;
                }
                if bi == bj {
                    let l = a.block_at(bi, bi).unwrap().cholesky().unwrap();
                    ld[r * n + c] = l.get(r % 3, c % 3);
                }
            }
        }
        (dl, du, ld)
    }

    /// `y = M·x` for a dense row-major `n×n` `M` and row-major `n×m` `x`.
    fn dense_mul(mat: &[f64], x: &[f64], m: usize) -> Vec<f64> {
        let n = x.len() / m;
        let mut y = vec![0.0; n * m];
        for r in 0..n {
            for c in 0..n {
                for j in 0..m {
                    y[r * m + j] += mat[r * n + c] * x[c * m + j];
                }
            }
        }
        y
    }

    /// `L_d⁻ᵀ·x` per block row.
    fn chol_inv_t(a: &BcrsMatrix, x: &[f64], m: usize) -> Vec<f64> {
        let mut y = x.to_vec();
        for bi in 0..a.nb_rows() {
            let l = a.block_at(bi, bi).unwrap().cholesky().unwrap();
            for j in 0..m {
                let col = [0, 1, 2].map(|i| x[(3 * bi + i) * m + j]);
                for (i, v) in l.solve_lower_transpose(col).into_iter().enumerate() {
                    y[(3 * bi + i) * m + j] = v;
                }
            }
        }
        y
    }

    fn assert_close(got: &[f64], want: &[f64], what: &str) {
        let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!((g - w).abs() <= 1e-12 * scale, "{what}[{k}]: {g} vs {w}");
        }
    }

    fn kinds() -> Vec<Backend> {
        KernelKind::ALL.iter().filter_map(|&k| backend_for(k)).collect()
    }

    /// The sweeps are the split operator: `(D+U)·t = L_d·p̂`,
    /// `C·q̂ = A·t` with `C = (D+L)·L_d⁻ᵀ` (so `q̂ = Â·p̂`), `at = A·t`,
    /// and without `t` the forward solve `C·q̂ = L_d·p̂` — checked as
    /// residuals against dense products, on every backend at widths
    /// that take each row body (w1, the vector chunks and tails,
    /// the strip-mined width).
    #[test]
    fn sweeps_apply_the_split_operator() {
        let a = split_matrix(23);
        let n = a.n_rows();
        let full = a.to_dense();
        let (dl, du, ld) = dense_parts(&a);
        for backend in kinds() {
            for m in [1, 2, 3, 4, 8, 13, 16] {
                let what = |s: &str| format!("{s} ({backend:?}, m = {m})");
                let mut split = SgsSplit::new(backend);
                assert!(split.rebuild(&a, m));
                let p = values(n * m, 7 + m as u64);
                let mut t = vec![f64::NAN; n * m];
                split.upper(&a, &p, &mut t, m);
                assert_close(
                    &dense_mul(&du, &t, m),
                    &dense_mul(&ld, &p, m),
                    &what("(D+U)t"),
                );

                let (mut q, mut at) = (vec![f64::NAN; n * m], vec![0.0; n * m]);
                split.lower(&a, &p, Some((&t, &mut at)), &mut q, m);
                let a_t = dense_mul(&full, &t, m);
                assert_close(&at, &a_t, &what("at"));
                assert_close(
                    &dense_mul(&dl, &chol_inv_t(&a, &q, m), m),
                    &a_t,
                    &what("Cq"),
                );

                split.lower(&a, &p, None, &mut q, m);
                assert_close(
                    &dense_mul(&dl, &chol_inv_t(&a, &q, m), m),
                    &dense_mul(&ld, &p, m),
                    &what("forward solve"),
                );
                let mut scaled = vec![0.0; n * m];
                split.scale(&dense_mul(&ld, &p, m), &mut scaled, m);
                assert_close(&scaled, &p, &what("scale"));
            }
        }
    }

    /// A matrix without a usable diagonal has no split: a block row
    /// storing no diagonal block, an indefinite one, a NaN entry, a
    /// non-square matrix.
    #[test]
    fn rebuild_refuses_what_has_no_factor() {
        let a = split_matrix(6);
        let mut split = SgsSplit::new(active_backend());
        assert!(split.rebuild(&a, 4));
        let with_diagonal = |block: Option<Block3>| {
            let mut t = BlockTripletBuilder::square(6);
            for row in 0..6 {
                let (cols, blocks) = a.block_row(row);
                for (c, b) in cols.iter().zip(blocks) {
                    if (row, *c as usize) != (3, 3) {
                        t.add(row, *c as usize, *b);
                    }
                }
            }
            if let Some(b) = block {
                t.add(3, 3, b);
            }
            t.build()
        };
        let mut nan = Block3::scaled_identity(3.0);
        *nan.get_mut(2, 1) = f64::NAN;
        let indefinite =
            Block3::from_rows([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        for (what, broken) in [
            ("missing", with_diagonal(None)),
            ("indefinite", with_diagonal(Some(indefinite))),
            ("NaN", with_diagonal(Some(nan))),
        ] {
            assert!(!split.rebuild(&broken, 4), "{what}");
        }
        let mut t = BlockTripletBuilder::new(2, 3);
        t.add(0, 0, Block3::scaled_identity(1.0));
        assert!(!split.rebuild(&t.build(), 1));
    }

    /// FNV-1a over the words of a buffer.
    fn checksum(x: &[f64]) -> u64 {
        x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The sweeps' bits per kernel family: `t`, `q̂` and `at` of one
    /// upper + lower pair at widths 1 (the across-block row), 8 and 16
    /// (vector chunks) and 3 (tail/strip-mined), checksummed for the
    /// active backend. A change that moves these moves every SGS solve.
    #[test]
    fn sgs_bits_pinned() {
        let a = split_matrix(40);
        let n = a.n_rows();
        let backend = active_backend();
        let sums: Vec<u64> = [1, 3, 8, 16]
            .into_iter()
            .map(|m| {
                let mut split = SgsSplit::new(backend);
                assert!(split.rebuild(&a, m));
                let p = values(n * m, 11 * m as u64);
                let mut t = vec![0.0; n * m];
                split.upper(&a, &p, &mut t, m);
                let (mut q, mut at) = (vec![0.0; n * m], vec![0.0; n * m]);
                split.lower(&a, &p, Some((&t, &mut at)), &mut q, m);
                checksum(
                    &[checksum(&t), checksum(&q), checksum(&at)]
                        .map(f64::from_bits),
                )
            })
            .collect();
        let want: [u64; 4] = match backend.kind() {
            KernelKind::Scalar => [
                0x3785_29e3_e158_e4ae,
                0x2523_be42_e08c_2b7b,
                0x7a08_16f4_ae1a_2662,
                0x9e80_eaec_b628_ea54,
            ],
            KernelKind::Simd => [
                0x65b3_29ed_7944_0592,
                0x2523_be42_e08c_2b7b,
                0xd7df_366c_5ee9_a2e2,
                0xd501_43c7_1b17_b3e0,
            ],
        };
        assert_eq!(sums, want);
    }
}
