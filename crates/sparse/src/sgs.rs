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
//!   right of the diagonal: `v_i = p̂_i − L_i⁻¹·Σ_{j>i} A_ij·t_j` and
//!   `t_i = L_i⁻ᵀ·v_i`, which is `t = C⁻ᵀ·p̂` (it solves
//!   `(D+U)·t = L_d·p̂`);
//! * the lower sweep, block rows ascending over the blocks left of it,
//!   one row sum per row, `s = Σ_{j<i} A_ij·u_j`, then
//!   `q̂_i = p̂_i − L_i⁻¹·s` and `u_i = L_i⁻ᵀ·q̂_i − t_i`. `q̂` is `Â·p̂`:
//!   with `v = L_d⁻ᵀ·q̂`, `C·q̂ = A·t` reads `(D+L)·v = L·t + L_d·p̂`
//!   (since `(D+U)·t = L_d·p̂`), so `q̂_i = p̂_i − L_i⁻¹·Σ_{j<i}
//!   A_ij·(v_j − t_j)` and `u = v − t` — Eisenstat's identity, which
//!   holds for `U ≠ Lᵀ` too. `u` is the sweep's own buffer.
//!
//! A CG iteration is these two sweeps and nothing else: each folds the
//! iteration's `n·m` work into its row epilogue, while the row's
//! operands are in registers and off the row-to-row chain (the next
//! row waits on `t_i` or `u_i` only).
//!
//! * [`SgsSplit::upper_cg`] first applies the previous iteration's
//!   `p̂_i ← r̂_i + β_j·p̂_i` at its row, and sums the curvature
//!   `p̂_jᵀq̂_j = t_jᵀA·t_j` from its own `v`: `(D+U)·t = L_d·p̂` gives
//!   `tᵀ(D+U)t = vᵀp̂` with `v = L_dᵀ·t`, `tᵀD·t = vᵀv`, and for
//!   symmetric `A` `tᵀL·t = tᵀU·t`, so `tᵀA·t = Σ_i v_iᵀ(2p̂_i − v_i)`
//!   (block rows descending, each row's three terms in one
//!   multiply-add chain). So `α_j` is known before the lower sweep. On
//!   a stored `U` off `Lᵀ` by roundoff the curvature is off by as
//!   much, which CG absorbs.
//! * [`SgsSplit::lower_cg`] then applies `x_i += α_j·t_i` and
//!   `r̂_i −= α_j·q̂_i` at its row and sums `‖r̂_j‖²` of the updated
//!   residual, rows ascending; `q̂` itself is never stored.
//!
//! Without `t` the lower sweep is the forward solve `C⁻¹·r`
//! ([`SgsSplit::forward`]): called on `p̂ = L_d⁻¹·r` ([`SgsSplit::scale`]),
//! `q̂_i = p̂_i − L_i⁻¹·Σ_{j<i} A_ij·v_j`, and `v_i = L_i⁻ᵀ·q̂_i` is
//! written over `p̂_i` — after the epilogue has read it, while the rows
//! after `i` are still unread — so the same body runs it in place.
//!
//! Each row sum is a kernel family's GSPMV row body over a range of the
//! row's stored blocks, into a 3×`m` scratch row, and the 3×3 epilogue
//! above follows in the same family's arithmetic (`RowSum`): the
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

    /// Whether this family's rows are one column wide.
    const W1: bool = false;

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

    /// [`epilogue`] on all `m` columns, in this family's arithmetic.
    ///
    /// # Safety
    /// The implementor's target features are present, and `rows` is
    /// valid as [`epilogue`] requires.
    #[inline(always)]
    unsafe fn epilogue<const T: bool, const Q: bool, const F: bool>(
        li: &Block3,
        d: &[f64],
        rows: Rows,
        m: usize,
    ) {
        epilogue::<T, Q, F>(Self::FUSED, li, d, rows, m, 0..m)
    }
}

/// The per-solve state of the split: where each block row's diagonal
/// block sits, `L_i⁻¹` (lower triangular) of its Cholesky factor, and
/// the scratch row of the row sums. Built in `O(nnz)` by
/// [`SgsSplit::rebuild`] into the buffers of the last build, so a
/// caller that keeps one per thread allocates only when a matrix
/// outgrows it.
#[derive(Debug)]
pub struct SgsSplit {
    backend: Backend,
    diag: Vec<usize>,
    chol_inv: Vec<Block3>,
    scratch: Vec<f64>,
}

/// The borrowed view a sweep runs on.
pub(crate) struct Factors<'a> {
    row_ptr: &'a [usize],
    col_idx: &'a [u32],
    blocks: &'a [Block3],
    diag: &'a [usize],
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

/// CG's `n·m` work a sweep folds into its epilogue (module docs): in
/// the upper sweep `r` (read only) and `coef = β`, with the curvature
/// summed into `acc`; in the lower one `x` and `r` updated with
/// `coef = α`, and `‖r̂_j‖²` summed into `acc`. `coef` and `acc` hold
/// `m` values (`acc` zeroed); `x` is null in the upper sweep.
#[derive(Clone, Copy)]
pub(crate) struct Fold {
    r: *mut f64,
    x: *mut f64,
    coef: *const f64,
    acc: *mut f64,
}

impl Fold {
    const NONE: Fold = Fold {
        r: std::ptr::null_mut(),
        x: std::ptr::null_mut(),
        coef: std::ptr::null(),
        acc: std::ptr::null_mut(),
    };
}

/// What one sweep reads and writes: row-major `3·nb × m` buffers, as
/// raw pointers because a sweep reads rows it wrote earlier in the
/// same pass.
#[derive(Clone, Copy)]
pub(crate) enum Pass {
    /// `t = C⁻ᵀ·p̂`; with a fold, `p̂` is updated first (so written).
    Upper { p: *mut f64, t: *mut f64, fold: Option<Fold> },
    /// CG's lower sweep: `q̂ = Â·p̂` through `u`, folded, never stored.
    Step { p: *const f64, t: *const f64, u: *mut f64, fold: Fold },
    /// The forward solve, in place: it reads `u` as `p̂` and writes `q`.
    Forward { u: *mut f64, q: *mut f64 },
}

/// One block row's operands of [`epilogue`], each `3·m` values
/// (row-major), but `coef` and `acc` (`m`, shared by every row): it
/// reads `p` and, with `T`, `t`, writes `q` with `Q`, and writes `w`
/// last — which may be `p`; with `F` it applies the sweep's [`Fold`]
/// through `r`, `x`, `coef` and `acc`. An operand the epilogue does not
/// touch may be null.
#[derive(Clone, Copy)]
pub(crate) struct Rows {
    pub(crate) p: *mut f64,
    pub(crate) t: *const f64,
    pub(crate) q: *mut f64,
    pub(crate) w: *mut f64,
    pub(crate) r: *mut f64,
    pub(crate) x: *mut f64,
    pub(crate) coef: *const f64,
    pub(crate) acc: *mut f64,
}

impl SgsSplit {
    /// An empty split whose sweeps run on `backend`.
    pub fn new(backend: Backend) -> Self {
        SgsSplit {
            backend,
            diag: Vec::new(),
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
            self.chol_inv.push(lower_inverse(&l));
        }
        self.scratch.resize(BLOCK_DIM * m, 0.0);
        true
    }

    /// Block rows of the matrix the split was last built for.
    fn nb(&self) -> usize {
        self.diag.len()
    }

    fn check(&self, a: &BcrsMatrix, m: usize, lens: &[usize]) {
        assert_eq!(a.nb_rows(), self.nb(), "split built for another matrix");
        assert!(self.scratch.len() >= BLOCK_DIM * m, "split built narrower");
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
            chol_inv: &self.chol_inv,
        };
        self.backend.sgs_sweep(&f, pass, m, &mut self.scratch);
    }

    /// The backward sweep `t = C⁻ᵀ·p̂` over `a`'s strict upper blocks
    /// (`p`, `t`: row-major `n × m`).
    pub fn upper(&mut self, a: &BcrsMatrix, p: &[f64], t: &mut [f64], m: usize) {
        self.check(a, m, &[p.len(), t.len()]);
        // Unfolded, the sweep never writes `p`.
        let pass =
            Pass::Upper { p: p.as_ptr().cast_mut(), t: t.as_mut_ptr(), fold: None };
        self.run(a, pass, m);
    }

    /// The backward sweep of a CG iteration: at each block row first
    /// `p̂_i ← r̂_i + β_j·p̂_i` (the previous iteration's direction
    /// update), then `t = C⁻ᵀ·p̂` for the updated `p̂`, and
    /// `curvature[j] = p̂_jᵀÂ·p̂_j`, summed from the sweep's own
    /// intermediate (module docs; exact in exact arithmetic for
    /// symmetric `a`).
    #[allow(clippy::too_many_arguments)]
    pub fn upper_cg(
        &mut self,
        a: &BcrsMatrix,
        r: &[f64],
        beta: &[f64],
        p: &mut [f64],
        t: &mut [f64],
        curvature: &mut [f64],
        m: usize,
    ) {
        self.check(a, m, &[r.len(), p.len(), t.len()]);
        assert!(beta.len() == m && curvature.len() == m, "one value per column");
        curvature.fill(0.0);
        let fold = Fold {
            r: r.as_ptr().cast_mut(),
            x: std::ptr::null_mut(),
            coef: beta.as_ptr(),
            acc: curvature.as_mut_ptr(),
        };
        let pass =
            Pass::Upper { p: p.as_mut_ptr(), t: t.as_mut_ptr(), fold: Some(fold) };
        self.run(a, pass, m);
    }

    /// The forward sweep of a CG iteration over `a`'s strict lower
    /// blocks, for the `p̂` and `t` of [`SgsSplit::upper_cg`] (or
    /// [`SgsSplit::upper`]): `q̂ = Â·p̂` through `u`, which it leaves
    /// holding `L_d⁻ᵀ·q̂ − t`, folded at each row into
    /// `x += t·diag(α)` and `r̂ −= q̂·diag(α)`, with
    /// `norms_sq[j] = ‖r̂_j‖²` of the updated `r̂`. `q̂` is not stored.
    #[allow(clippy::too_many_arguments)]
    pub fn lower_cg(
        &mut self,
        a: &BcrsMatrix,
        p: &[f64],
        t: &[f64],
        u: &mut [f64],
        alpha: &[f64],
        x: &mut [f64],
        r: &mut [f64],
        norms_sq: &mut [f64],
        m: usize,
    ) {
        self.check(a, m, &[p.len(), t.len(), u.len(), x.len(), r.len()]);
        assert!(alpha.len() == m && norms_sq.len() == m, "one value per column");
        norms_sq.fill(0.0);
        let fold = Fold {
            r: r.as_mut_ptr(),
            x: x.as_mut_ptr(),
            coef: alpha.as_ptr(),
            acc: norms_sq.as_mut_ptr(),
        };
        let pass =
            Pass::Step { p: p.as_ptr(), t: t.as_ptr(), u: u.as_mut_ptr(), fold };
        self.run(a, pass, m);
    }

    /// The forward solve `q = C⁻¹·L_d·p̂` over `a`'s strict lower
    /// blocks, in place: `p` is left holding `L_d⁻ᵀ·q`.
    pub fn forward(
        &mut self,
        a: &BcrsMatrix,
        p: &mut [f64],
        q: &mut [f64],
        m: usize,
    ) {
        self.check(a, m, &[p.len(), q.len()]);
        let pass = Pass::Forward { u: p.as_mut_ptr(), q: q.as_mut_ptr() };
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
/// `3·nb·m` values (a fold's `coef` and `acc`, `m`), and the written
/// ones overlap nothing else (but the forward solve's `u` is its `p̂`);
/// `s` holds `3·m`.
#[inline(always)]
pub(crate) unsafe fn run<R: RowSum>(
    f: &Factors,
    pass: Pass,
    m: usize,
    s: &mut [f64],
) {
    let s = &mut s[..BLOCK_DIM * m];
    match pass {
        Pass::Upper { p, t, fold: None } => {
            upper::<R, false>(f, p, t, Fold::NONE, m, s)
        }
        Pass::Upper { p, t, fold: Some(fold) } => {
            upper::<R, true>(f, p, t, fold, m, s)
        }
        Pass::Step { p, t, u, fold } => lower::<R, true>(
            f,
            p.cast_mut(),
            t,
            std::ptr::null_mut(),
            u,
            fold,
            m,
            s,
        ),
        Pass::Forward { u, q } => {
            lower::<R, false>(f, u, std::ptr::null(), q, u, Fold::NONE, m, s)
        }
    }
}

/// The operands of block row `i` (rows of `3·m` values) in `base`; the
/// fold's per-column `coef` and `acc` are shared by every row.
#[inline(always)]
fn rows_at(base: Rows, i: usize, m: usize) -> Rows {
    let off = i * BLOCK_DIM * m;
    Rows {
        p: base.p.wrapping_add(off),
        t: base.t.wrapping_add(off),
        q: base.q.wrapping_add(off),
        w: base.w.wrapping_add(off),
        r: base.r.wrapping_add(off),
        x: base.x.wrapping_add(off),
        ..base
    }
}

/// The upper sweep of [`run`]; with `F` it folds CG's direction update
/// and curvature.
#[inline(always)]
unsafe fn upper<R: RowSum, const F: bool>(
    f: &Factors,
    p: *mut f64,
    t: *mut f64,
    fold: Fold,
    m: usize,
    s: &mut [f64],
) {
    let len = f.diag.len() * BLOCK_DIM * m;
    let Fold { r, x, coef, acc } = fold;
    // At width 1 the fold's one sum stays in a register across rows.
    let mut sum = 0.0f64;
    let acc = if R::W1 { &mut sum as *mut f64 } else { acc };
    let base = Rows {
        p,
        t: std::ptr::null(),
        q: std::ptr::null_mut(),
        w: t,
        r,
        x,
        coef,
        acc,
    };
    for i in (0..f.diag.len()).rev() {
        // Last block first: the row written last (i + 1) is the one
        // whose block is applied last.
        let ks = f.row(i).1;
        let t_all = std::slice::from_raw_parts(t, len);
        R::sum(ks, true, f.col_idx, f.blocks, t_all, m, s);
        R::epilogue::<false, false, F>(&f.chol_inv[i], s, rows_at(base, i, m), m);
    }
    if R::W1 && F {
        *fold.acc = sum;
    }
}

/// The lower sweep of [`run`]: with `T` it reads `t` and folds CG's
/// step; without, it is the forward solve, storing `q`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn lower<R: RowSum, const T: bool>(
    f: &Factors,
    p: *mut f64,
    t: *const f64,
    q: *mut f64,
    u: *mut f64,
    fold: Fold,
    m: usize,
    s: &mut [f64],
) {
    let len = f.diag.len() * BLOCK_DIM * m;
    let Fold { r, x, coef, acc } = fold;
    let mut sum = 0.0f64;
    let acc = if R::W1 { &mut sum as *mut f64 } else { acc };
    let base = Rows { p, t, q, w: u, r, x, coef, acc };
    for i in 0..f.diag.len() {
        let ks = f.row(i).0;
        let u_all = std::slice::from_raw_parts(u, len);
        R::sum(ks, false, f.col_idx, f.blocks, u_all, m, s);
        // Row `i` of `u` is written only after the sum that read the
        // rows before it, and after its `p̂` is read.
        let (li, rows) = (&f.chol_inv[i], rows_at(base, i, m));
        if T {
            R::epilogue::<true, false, true>(li, s, rows, m);
        } else {
            R::epilogue::<false, true, false>(li, s, rows, m);
        }
    }
    if R::W1 && T {
        *fold.acc = sum;
    }
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

/// The epilogue of one block row (`li = L_i⁻¹`, `d` the row's sum,
/// 3×m row-major) on the columns `cols`: `q = p − li·d`, stored with
/// `Q`, then `w = liᵀ·q`, or with `T` `liᵀ·q − t`, multiply-adds fused
/// as the family's row sums are. Each column's `p` is read before its
/// `w` is written. With `F` it folds CG's work (module docs): in the
/// upper sweep (no `T`) `p ← r + p·coef` first, stored, and `acc`
/// gains `Σ_k q_k·(2p_k − q_k)` — `q` being the sweep's `v`, `2p − v`
/// rounded once; in the lower one (`T`) `x ← x + t·coef`,
/// `r ← r − q·coef`, and `acc` gains `Σ_k r_k²` of the updated rows.
/// Each row's three terms are one chain of the family's multiply-adds
/// from zero, then one add into `acc`. The SIMD families run their
/// vector columns in vectors (`simd`'s `vf_epilogue`, the same
/// arithmetic) and this on the tail.
///
/// # Safety
/// Each operand of `rows` it touches covers `3·m` values (`coef` and
/// `acc`, `m`); `q`, `r` and `x` overlap nothing else, and `w` nothing
/// but, perhaps, `p`.
#[inline(always)]
pub(crate) unsafe fn epilogue<const T: bool, const Q: bool, const F: bool>(
    fused: bool,
    li: &Block3,
    d: &[f64],
    rows: Rows,
    m: usize,
    cols: Range<usize>,
) {
    assert!(cols.end <= m && d.len() >= 3 * m);
    let l = &li.0;
    let Rows { p, t, q, w, r, x, coef, acc } = rows;
    for j in cols {
        let at = |k: usize| k * m + j;
        let mut xs = [0, 1, 2].map(|k| *p.add(at(k)));
        if F && !T {
            let beta = *coef.add(j);
            for (k, xk) in xs.iter_mut().enumerate() {
                *xk = madd(fused, *xk, beta, *r.add(at(k)));
                *p.add(at(k)) = *xk;
            }
        }
        let [x0, x1, x2] = xs;
        let (e0, e1, e2) = (d[j], d[m + j], d[2 * m + j]);
        let q0 = madd(fused, -l[0], e0, x0);
        let q1 = madd(fused, -l[4], e1, madd(fused, -l[3], e0, x1));
        let q2 = madd(
            fused,
            -l[8],
            e2,
            madd(fused, -l[7], e1, madd(fused, -l[6], e0, x2)),
        );
        if Q {
            *q.add(j) = q0;
            *q.add(m + j) = q1;
            *q.add(2 * m + j) = q2;
        }
        let ts = if T { [0, 1, 2].map(|k| *t.add(at(k))) } else { [0.0; 3] };
        let (w0, w1, w2) = if !T {
            (l[0] * q0, l[4] * q1, l[8] * q2)
        } else {
            (
                madd(fused, l[0], q0, -ts[0]),
                madd(fused, l[4], q1, -ts[1]),
                madd(fused, l[8], q2, -ts[2]),
            )
        };
        *w.add(j) = madd(fused, l[6], q2, madd(fused, l[3], q1, w0));
        *w.add(m + j) = madd(fused, l[7], q2, w1);
        *w.add(2 * m + j) = w2;
        if F {
            let (c, mut sum) = (*coef.add(j), 0.0);
            for (k, qk) in [q0, q1, q2].into_iter().enumerate() {
                let (a, b) = if T {
                    *x.add(at(k)) = madd(fused, ts[k], c, *x.add(at(k)));
                    let rk = madd(fused, -qk, c, *r.add(at(k)));
                    *r.add(at(k)) = rk;
                    (rk, rk)
                } else {
                    (qk, madd(fused, 2.0, xs[k], -qk))
                };
                sum = madd(fused, a, b, sum);
            }
            *acc.add(j) += sum;
        }
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

    /// The bit patterns of a buffer.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `q̂ = Â·p̂` for the `t` of the upper sweep on `p̂`, and the `u` the
    /// lower sweep leaves, read off [`SgsSplit::lower_cg`] from `x = 0`,
    /// `r̂ = 0` with `α = −1`, where `r̂ − α·q̂` is `q̂` exactly; and the
    /// sweep's `‖q̂_j‖²`.
    fn split_apply(
        split: &mut SgsSplit,
        a: &BcrsMatrix,
        p: &[f64],
        t: &[f64],
        m: usize,
    ) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let n = p.len();
        let (mut u, mut x, mut q) = (vec![f64::NAN; n], vec![0.0; n], vec![0.0; n]);
        let mut norms_sq = vec![f64::NAN; m];
        let minus_one = vec![-1.0; m];
        split.lower_cg(
            a,
            p,
            t,
            &mut u,
            &minus_one,
            &mut x,
            &mut q,
            &mut norms_sq,
            m,
        );
        (q, u, norms_sq)
    }

    /// The sweeps are the split operator: `(D+U)·t = L_d·p̂`,
    /// `C·q̂ = A·t` with `C = (D+L)·L_d⁻ᵀ` (so `q̂ = Â·p̂`) and
    /// `u = L_d⁻ᵀ·q̂ − t`, and the forward solve `C·q̂ = L_d·p̂` with
    /// `L_d⁻ᵀ·q̂` left over `p̂` — checked as residuals against dense
    /// products, on every backend at widths that take each row body
    /// (w1, the vector chunks and tails, the strip-mined width). The CG
    /// folds apply what they say: the upper sweep's `p̂ ← r̂ + p̂·diag(β)`
    /// (its `t` then the plain sweep's on that `p̂`, bit for bit), the
    /// lower one's `x += t·diag(α)` and `r̂ −= q̂·diag(α)`, with the
    /// squared column norms of the updated `r̂`.
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

                let (r, beta) = (values(n * m, 3 + m as u64), values(m, 5));
                let (mut pu, mut tu) = (p.clone(), vec![f64::NAN; n * m]);
                let mut curvature = vec![f64::NAN; m];
                split.upper_cg(&a, &r, &beta, &mut pu, &mut tu, &mut curvature, m);
                let want: Vec<f64> =
                    (0..n * m).map(|k| r[k] + p[k] * beta[k % m]).collect();
                assert_close(&pu, &want, &what("r + p·β"));
                let mut t_of_pu = vec![0.0; n * m];
                split.upper(&a, &pu, &mut t_of_pu, m);
                assert_eq!(bits(&tu), bits(&t_of_pu), "{}", what("folded t"));

                let (q, u, norms_sq) = split_apply(&mut split, &a, &p, &t, m);
                let v = chol_inv_t(&a, &q, m);
                assert_close(
                    &dense_mul(&dl, &v, m),
                    &dense_mul(&full, &t, m),
                    &what("Cq"),
                );
                let v_minus_t: Vec<f64> =
                    v.iter().zip(&t).map(|(v, t)| v - t).collect();
                assert_close(&u, &v_minus_t, &what("u"));
                let qm = crate::MultiVec::from_flat(n, m, q.clone());
                assert_close(&norms_sq, &qm.dot_columns(&qm), &what("norms"));

                let (alpha, x0) = (values(m, 9), values(n * m, 11));
                let (mut x, mut rs) = (x0.clone(), r.clone());
                let (mut u2, mut norms_sq) =
                    (vec![f64::NAN; n * m], vec![f64::NAN; m]);
                split.lower_cg(
                    &a,
                    &p,
                    &t,
                    &mut u2,
                    &alpha,
                    &mut x,
                    &mut rs,
                    &mut norms_sq,
                    m,
                );
                assert_eq!(bits(&u2), bits(&u), "{}", what("folded u"));
                let step = |base: &[f64], dir: &[f64], sign: f64| -> Vec<f64> {
                    (0..n * m)
                        .map(|k| base[k] + sign * dir[k] * alpha[k % m])
                        .collect()
                };
                assert_close(&x, &step(&x0, &t, 1.0), &what("x + t·α"));
                assert_close(&rs, &step(&r, &q, -1.0), &what("r − q·α"));
                let rm = crate::MultiVec::from_flat(n, m, rs.clone());
                assert_close(&norms_sq, &rm.dot_columns(&rm), &what("‖r‖²"));

                let mut pu = p.clone();
                let mut q = vec![f64::NAN; n * m];
                split.forward(&a, &mut pu, &mut q, m);
                assert_close(
                    &dense_mul(&dl, &chol_inv_t(&a, &q, m), m),
                    &dense_mul(&ld, &p, m),
                    &what("forward solve"),
                );
                assert_close(
                    &pu,
                    &chol_inv_t(&a, &q, m),
                    &what("forward solve's v"),
                );
                let mut scaled = vec![0.0; n * m];
                split.scale(&dense_mul(&ld, &p, m), &mut scaled, m);
                assert_close(&scaled, &p, &what("scale"));
            }
        }
    }

    /// The solvers' test-kit `lubricated`: `I` plus, per coupled pair, a
    /// positive-definite term `K` on both diagonal blocks and `−K` off
    /// the diagonal, pair strengths over three decades.
    fn lubricated(nb: usize) -> BcrsMatrix {
        const STRENGTHS: [f64; 9] =
            [0.5, 1.0, 0.3, 2.0, 1000.0, 0.7, 40.0, 1.5, 0.2];
        let mut tb = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            tb.add(bi, bi, Block3::IDENTITY);
            for off in [1usize, 4] {
                if bi + off < nb {
                    let t = 7 * bi + off;
                    let e = [
                        (3 * t % 7) as f64 / 7.0 - 0.4,
                        (5 * t % 11) as f64 / 11.0 - 0.5,
                        0.6,
                    ];
                    let k = (Block3::scaled_identity(0.2) + Block3::outer(e, e))
                        * STRENGTHS[t % 9];
                    tb.add(bi, bi, k);
                    tb.add(bi + off, bi + off, k);
                    tb.add_symmetric_pair(bi, bi + off, -k);
                }
            }
        }
        tb.build()
    }

    /// The upper sweep's curvature `Σ_i v_iᵀ(2p̂_i − v_i)` is `p̂_jᵀq̂_j`
    /// with `q̂ = Â·p̂` from the lower sweep (`tᵀA·t` two ways) to 1e-12
    /// relative, per column, on every backend at m ∈ {1, 3, 4, 8, 16}
    /// (the across-block row, tails, vector chunks), on `split_matrix`
    /// and on a lubricated matrix whose pair strengths span 0.2–1000.
    #[test]
    fn upper_sweep_curvature_is_the_lower_sweeps_dots() {
        for (name, a) in
            [("split", split_matrix(40)), ("lubricated", lubricated(60))]
        {
            let n = a.n_rows();
            for backend in kinds() {
                for m in [1, 3, 4, 8, 16] {
                    let mut split = SgsSplit::new(backend);
                    assert!(split.rebuild(&a, m));
                    let (r, beta) = (values(n * m, 21 + m as u64), values(m, 23));
                    let mut p = values(n * m, 29 + m as u64);
                    let (mut t, mut curvature) = (vec![0.0; n * m], vec![0.0; m]);
                    split.upper_cg(
                        &a,
                        &r,
                        &beta,
                        &mut p,
                        &mut t,
                        &mut curvature,
                        m,
                    );
                    let (q, ..) = split_apply(&mut split, &a, &p, &t, m);
                    let dots = crate::MultiVec::from_flat(n, m, p.clone())
                        .dot_columns(&crate::MultiVec::from_flat(n, m, q));
                    for (j, (c, d)) in curvature.iter().zip(&dots).enumerate() {
                        assert!(
                            (c - d).abs() <= 1e-12 * d.abs(),
                            "{name} {backend:?} m = {m} col {j}: {c} vs {d}"
                        );
                    }
                }
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

    /// The sweeps' bits per kernel family: one checksum per buffer —
    /// `t` of the upper sweep, then `q̂` (read off the folded `r̂`, see
    /// `split_apply`) and `u` of the lower sweep on it, and `q` of the
    /// forward solve on the same `p̂` — at widths 1
    /// (the across-block row), 8 and 16 (vector chunks) and 3
    /// (tail/strip-mined), for the active backend. A change that moves
    /// these moves every SGS solve.
    #[test]
    fn sgs_bits_pinned() {
        let a = split_matrix(40);
        let n = a.n_rows();
        let backend = active_backend();
        let sums: Vec<[u64; 4]> = [1, 3, 8, 16]
            .into_iter()
            .map(|m| {
                let mut split = SgsSplit::new(backend);
                assert!(split.rebuild(&a, m));
                let p = values(n * m, 11 * m as u64);
                let mut t = vec![0.0; n * m];
                split.upper(&a, &p, &mut t, m);
                let (q, u, _) = split_apply(&mut split, &a, &p, &t, m);
                let (mut pu, mut fwd) = (p.clone(), vec![0.0; n * m]);
                split.forward(&a, &mut pu, &mut fwd, m);
                [checksum(&t), checksum(&q), checksum(&u), checksum(&fwd)]
            })
            .collect();
        let want: [[u64; 4]; 4] = match backend.kind() {
            KernelKind::Scalar => [
                [
                    0x1396_b47c_b662_913a,
                    0x0c54_95b1_09ff_6821,
                    0xc7f4_f1bd_a97b_e753,
                    0xd3b4_e706_6d22_cf16,
                ],
                [
                    0x41bc_fe52_2d65_f07b,
                    0x9ea7_6076_02f6_4e61,
                    0x988b_ac89_d57a_9529,
                    0x851a_af14_6b34_3cb6,
                ],
                [
                    0x6ee8_7190_d176_45bd,
                    0x2c34_cfcd_207d_5d39,
                    0x5646_9980_edf5_fd3c,
                    0xe873_48fd_9579_3ac1,
                ],
                [
                    0x3c09_b99f_dede_cfda,
                    0x775b_bab2_59e7_477b,
                    0xaac2_69d7_6c14_f869,
                    0xa7d6_ebdd_3872_7711,
                ],
            ],
            KernelKind::Simd => [
                [
                    0xfb05_b554_9ca5_0028,
                    0x5ff8_f0ce_2281_6b74,
                    0x4408_bb6a_9e6d_55b8,
                    0x8ae3_97f1_6bce_cbf1,
                ],
                [
                    0x41bc_fe52_2d65_f07b,
                    0x9ea7_6076_02f6_4e61,
                    0x988b_ac89_d57a_9529,
                    0x851a_af14_6b34_3cb6,
                ],
                [
                    0x35b5_501d_3037_51dc,
                    0x8f9d_da33_886a_ee42,
                    0xf8f2_db36_2bef_08c9,
                    0x5c33_1a16_480d_ed73,
                ],
                [
                    0x635a_3ee2_e6b0_537a,
                    0x96bd_9918_747c_8ab4,
                    0x80d1_d356_6a7a_b645,
                    0x4e2d_5f63_6ebe_8aa2,
                ],
            ],
        };
        assert_eq!(sums, want);
    }
}
