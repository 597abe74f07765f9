//! Naive, obviously-correct dense references.
//!
//! Everything here is written as the plainest possible loops: no
//! unrolling, no strip mining, no threading, no monomorphized `m`.
//! These implementations are the ground truth the optimized kernels
//! are differenced against, so clarity beats speed everywhere.

// Index-explicit loops are the house style here: the references must
// read like the formulas they implement, not like iterator pipelines.
#![allow(clippy::needless_range_loop)]

use mrhs_core::{NoiseSource, ResistanceSystem};
use mrhs_solvers::LinearOperator;
use mrhs_sparse::{BcrsMatrix, MultiVec, SymmetricBcrs, BLOCK_DIM};

/// A dense row-major matrix.
#[derive(Clone, Debug)]
pub struct Dense {
    pub n_rows: usize,
    pub n_cols: usize,
    pub data: Vec<f64>,
}

impl Dense {
    /// Expands a BCRS matrix scalar-by-scalar.
    pub fn from_bcrs(a: &BcrsMatrix) -> Dense {
        let (nr, nc) = (a.n_rows(), a.n_cols());
        let mut data = vec![0.0; nr * nc];
        for bi in 0..a.nb_rows() {
            let (cols, blocks) = a.block_row(bi);
            for (c, b) in cols.iter().zip(blocks) {
                let bj = *c as usize;
                for i in 0..BLOCK_DIM {
                    for j in 0..BLOCK_DIM {
                        data[(bi * BLOCK_DIM + i) * nc + bj * BLOCK_DIM + j] =
                            b.get(i, j);
                    }
                }
            }
        }
        Dense { n_rows: nr, n_cols: nc, data }
    }

    /// Expands symmetric half storage independently of any kernel:
    /// diagonal blocks, the stored upper blocks, and their transposes
    /// mirrored below the diagonal. Cross-checking this against
    /// [`Dense::from_bcrs`] of the full matrix validates
    /// `SymmetricBcrs::from_full` itself.
    pub fn from_symmetric(s: &SymmetricBcrs) -> Dense {
        let n = s.n_rows();
        let mut data = vec![0.0; n * n];
        for (bi, d) in s.diag_blocks().iter().enumerate() {
            for i in 0..BLOCK_DIM {
                for j in 0..BLOCK_DIM {
                    data[(bi * BLOCK_DIM + i) * n + bi * BLOCK_DIM + j] =
                        d.get(i, j);
                }
            }
        }
        let (row_ptr, col_idx, blocks) = s.upper_parts();
        for bi in 0..s.nb_rows() {
            for k in row_ptr[bi]..row_ptr[bi + 1] {
                let bj = col_idx[k] as usize;
                let b = &blocks[k];
                for i in 0..BLOCK_DIM {
                    for j in 0..BLOCK_DIM {
                        data[(bi * BLOCK_DIM + i) * n + bj * BLOCK_DIM + j] =
                            b.get(i, j);
                        data[(bj * BLOCK_DIM + j) * n + bi * BLOCK_DIM + i] =
                            b.get(i, j);
                    }
                }
            }
        }
        Dense { n_rows: n, n_cols: n, data }
    }

    pub fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n_cols + j]
    }

    /// `y = A·x`, one multiply-add at a time.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        let mut y = vec![0.0; self.n_rows];
        for i in 0..self.n_rows {
            let mut acc = 0.0;
            for j in 0..self.n_cols {
                acc += self.at(i, j) * x[j];
            }
            y[i] = acc;
        }
        y
    }

    /// `Y = A·X` column by column — the GSPMV reference.
    pub fn gspmv(&self, x: &MultiVec) -> MultiVec {
        assert_eq!(x.n(), self.n_cols);
        let m = x.m();
        let mut y = MultiVec::zeros(self.n_rows, m);
        for col in 0..m {
            let xc = x.column(col);
            let yc = self.matvec(&xc);
            y.set_column(col, &yc);
        }
        y
    }

    /// `max |a_ij − a_ji|` — the symmetry residual (square only).
    pub fn symmetry_residual(&self) -> f64 {
        assert_eq!(self.n_rows, self.n_cols);
        let mut worst = 0.0f64;
        for i in 0..self.n_rows {
            for j in i + 1..self.n_cols {
                worst = worst.max((self.at(i, j) - self.at(j, i)).abs());
            }
        }
        worst
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |acc, v| acc.max(v.abs()))
    }
}

/// The dense reference participates in solver differentials directly.
impl LinearOperator for Dense {
    fn dim(&self) -> usize {
        assert_eq!(self.n_rows, self.n_cols);
        self.n_rows
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        y.copy_from_slice(&self.matvec(x));
    }
}

/// Solves `A·x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` on a (numerically) singular matrix.
pub fn gauss_solve(a: &Dense, b: &[f64]) -> Option<Vec<f64>> {
    assert_eq!(a.n_rows, a.n_cols);
    let n = a.n_rows;
    assert_eq!(b.len(), n);
    let mut m = a.data.clone();
    let mut x = b.to_vec();
    for col in 0..n {
        let mut piv = col;
        for r in col + 1..n {
            if m[r * n + col].abs() > m[piv * n + col].abs() {
                piv = r;
            }
        }
        if m[piv * n + col].abs() < 1e-300 {
            return None;
        }
        if piv != col {
            for j in 0..n {
                m.swap(col * n + j, piv * n + j);
            }
            x.swap(col, piv);
        }
        for r in col + 1..n {
            let f = m[r * n + col] / m[col * n + col];
            if f != 0.0 {
                for j in col..n {
                    m[r * n + j] -= f * m[col * n + j];
                }
                x[r] -= f * x[col];
            }
        }
    }
    for col in (0..n).rev() {
        let mut acc = x[col];
        for j in col + 1..n {
            acc -= m[col * n + j] * x[j];
        }
        x[col] = acc / m[col * n + col];
    }
    Some(x)
}

/// Direct multi-RHS solve: [`gauss_solve`] per column.
pub fn gauss_solve_multi(a: &Dense, b: &MultiVec) -> Option<MultiVec> {
    let mut x = MultiVec::zeros(b.n(), b.m());
    for col in 0..b.m() {
        let xc = gauss_solve(a, &b.column(col))?;
        x.set_column(col, &xc);
    }
    Some(x)
}

/// Outcome of [`naive_block_cg`].
#[derive(Clone, Debug)]
pub struct NaiveBlockCg {
    pub iterations: usize,
    pub converged: bool,
    pub residual_norms: Vec<f64>,
}

/// Textbook block conjugate gradients (O'Leary 1980), dense and naive:
/// explicit `m×m` Gram matrices, Gaussian elimination for the small
/// solves, no symmetrization or ridge stabilization, no fused updates.
pub fn naive_block_cg(
    a: &Dense,
    b: &MultiVec,
    x: &mut MultiVec,
    tol: f64,
    max_iter: usize,
) -> NaiveBlockCg {
    let n = a.dim();
    let m = b.m();
    assert_eq!(b.n(), n);
    assert_eq!(x.shape(), (n, m));

    let small = |g: &[f64]| Dense { n_rows: m, n_cols: m, data: g.to_vec() };
    let gram = |u: &MultiVec, v: &MultiVec| -> Vec<f64> {
        // G[i][j] = u_i · v_j, one dot product at a time.
        let mut g = vec![0.0; m * m];
        for i in 0..m {
            let ui = u.column(i);
            for j in 0..m {
                let vj = v.column(j);
                g[i * m + j] = ui.iter().zip(&vj).map(|(p, q)| p * q).sum::<f64>();
            }
        }
        g
    };
    let col_norms = |u: &MultiVec| -> Vec<f64> {
        (0..m)
            .map(|j| u.column(j).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect()
    };

    let thresholds: Vec<f64> =
        col_norms(b).iter().map(|bn| tol * bn.max(f64::MIN_POSITIVE)).collect();

    // R = B − A·X, P = R.
    let ax = a.gspmv(x);
    let mut r = b.clone();
    for (rv, av) in r.as_mut_slice().iter_mut().zip(ax.as_slice()) {
        *rv -= av;
    }
    let mut p = r.clone();
    let mut iterations = 0;
    let done = |r: &MultiVec| {
        col_norms(r).iter().zip(&thresholds).all(|(rn, th)| rn <= th)
    };

    while iterations < max_iter && !done(&r) {
        let q = a.gspmv(&p);
        // α solves (PᵀQ)·α = RᵀR.
        let rho = gram(&r, &r);
        let pq = gram(&p, &q);
        let Some(alpha) =
            gauss_solve_multi(&small(&pq), &MultiVec::from_flat(m, m, rho.clone()))
        else {
            break; // rank-deficient block residual: genuine breakdown
        };
        // X += P·α, R −= Q·α, column by column.
        for j in 0..m {
            for i in 0..n {
                let mut xs = 0.0;
                let mut rs = 0.0;
                for k in 0..m {
                    xs += p.get(i, k) * alpha.get(k, j);
                    rs += q.get(i, k) * alpha.get(k, j);
                }
                *x.get_mut(i, j) += xs;
                *r.get_mut(i, j) -= rs;
            }
        }
        iterations += 1;
        if done(&r) {
            break;
        }
        // β solves ρ_old·β = ρ_new, then P ← R + P·β.
        let rho_new = gram(&r, &r);
        let Some(beta) =
            gauss_solve_multi(&small(&rho), &MultiVec::from_flat(m, m, rho_new))
        else {
            break;
        };
        let mut p_next = r.clone();
        for j in 0..m {
            for i in 0..n {
                let mut acc = 0.0;
                for k in 0..m {
                    acc += p.get(i, k) * beta.get(k, j);
                }
                *p_next.get_mut(i, j) += acc;
            }
        }
        p = p_next;
    }

    let norms = col_norms(&r);
    let converged = norms.iter().zip(&thresholds).all(|(rn, th)| rn <= th);
    NaiveBlockCg { iterations, converged, residual_norms: norms }
}

/// Outcome of [`naive_bicgstab`].
#[derive(Clone, Debug)]
pub struct NaiveBicgstab {
    pub iterations: usize,
    pub converged: bool,
    pub residual_norm: f64,
}

/// Textbook BiCGStab (van der Vorst 1992), dense and naive: explicit
/// dot products, no fused updates, the shadow residual frozen at `r₀`.
/// Stops on the tolerance, the iteration cap, or a vanishing
/// denominator (reported as non-convergence — the reference does not
/// classify breakdowns, it only refuses to divide by zero).
pub fn naive_bicgstab(
    a: &Dense,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> NaiveBicgstab {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let dot = |u: &[f64], v: &[f64]| -> f64 {
        let mut acc = 0.0;
        for i in 0..n {
            acc += u[i] * v[i];
        }
        acc
    };

    let b_norm = dot(b, b).sqrt();
    let threshold = tol * b_norm.max(f64::MIN_POSITIVE);
    let ax = a.matvec(x);
    let mut r: Vec<f64> = (0..n).map(|i| b[i] - ax[i]).collect();
    let r_tilde = r.clone();
    let mut p = r.clone();
    let mut rho = dot(&r_tilde, &r);
    let mut iterations = 0;
    let mut residual_norm = dot(&r, &r).sqrt();

    while iterations < max_iter && residual_norm > threshold {
        let v = a.matvec(&p);
        let rv = dot(&r_tilde, &v);
        if rv == 0.0 || !rv.is_finite() {
            break;
        }
        let alpha = rho / rv;
        let s: Vec<f64> = (0..n).map(|i| r[i] - alpha * v[i]).collect();
        let s_norm = dot(&s, &s).sqrt();
        if s_norm <= threshold {
            for i in 0..n {
                x[i] += alpha * p[i];
            }
            iterations += 1;
            residual_norm = s_norm;
            break;
        }
        let t = a.matvec(&s);
        let tt = dot(&t, &t);
        if tt == 0.0 || !tt.is_finite() {
            break;
        }
        let omega = dot(&t, &s) / tt;
        if omega == 0.0 || !omega.is_finite() {
            break;
        }
        for i in 0..n {
            x[i] += alpha * p[i] + omega * s[i];
            r[i] = s[i] - omega * t[i];
        }
        iterations += 1;
        residual_norm = dot(&r, &r).sqrt();
        let rho_new = dot(&r_tilde, &r);
        if rho_new == 0.0 || !rho_new.is_finite() {
            break;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        rho = rho_new;
    }

    NaiveBicgstab {
        iterations,
        converged: residual_norm <= threshold,
        residual_norm,
    }
}

/// Outcome of [`naive_block_bicgstab`].
#[derive(Clone, Debug)]
pub struct NaiveBlockBicgstab {
    pub iterations: usize,
    pub converged: bool,
    pub residual_norms: Vec<f64>,
}

/// Textbook block BiCGStab (El Guennouni–Jbilou–Sadok 2003), dense and
/// naive: explicit `m×m` shadow Grams, Gaussian elimination for the
/// coefficient solves, a scalar Frobenius stabilizer, column-by-column
/// updates. This is the ground truth the production
/// `block_bicgstab` (classic *and* reordered schedules) is differenced
/// against.
pub fn naive_block_bicgstab(
    a: &Dense,
    b: &MultiVec,
    x: &mut MultiVec,
    tol: f64,
    max_iter: usize,
) -> NaiveBlockBicgstab {
    let n = a.dim();
    let m = b.m();
    assert_eq!(b.n(), n);
    assert_eq!(x.shape(), (n, m));

    let small = |g: &[f64]| Dense { n_rows: m, n_cols: m, data: g.to_vec() };
    let gram = |u: &MultiVec, v: &MultiVec| -> Vec<f64> {
        let mut g = vec![0.0; m * m];
        for i in 0..m {
            let ui = u.column(i);
            for j in 0..m {
                let vj = v.column(j);
                g[i * m + j] = ui.iter().zip(&vj).map(|(p, q)| p * q).sum::<f64>();
            }
        }
        g
    };
    let col_norms = |u: &MultiVec| -> Vec<f64> {
        (0..m)
            .map(|j| u.column(j).iter().map(|v| v * v).sum::<f64>().sqrt())
            .collect()
    };
    // C = U·W for n×m U and m×m W, column by column.
    let mul_dense = |u: &MultiVec, w: &MultiVec| -> MultiVec {
        let mut c = MultiVec::zeros(n, m);
        for j in 0..m {
            for i in 0..n {
                let mut acc = 0.0;
                for k in 0..m {
                    acc += u.get(i, k) * w.get(k, j);
                }
                *c.get_mut(i, j) = acc;
            }
        }
        c
    };
    let frob = |u: &MultiVec, v: &MultiVec| -> f64 {
        let mut acc = 0.0;
        for (p, q) in u.as_slice().iter().zip(v.as_slice()) {
            acc += p * q;
        }
        acc
    };

    let thresholds: Vec<f64> =
        col_norms(b).iter().map(|bn| tol * bn.max(f64::MIN_POSITIVE)).collect();
    let done =
        |norms: &[f64]| norms.iter().zip(&thresholds).all(|(rn, th)| rn <= th);

    // R = B − A·X; shadow block frozen at R₀; P = R.
    let ax = a.gspmv(x);
    let mut r = b.clone();
    for (rv, av) in r.as_mut_slice().iter_mut().zip(ax.as_slice()) {
        *rv -= av;
    }
    let r_tilde = r.clone();
    let mut p = r.clone();
    let mut iterations = 0;
    let mut norms = col_norms(&r);

    while iterations < max_iter && !done(&norms) {
        let v = a.gspmv(&p);
        // α solves (R̃ᵀV)·α = R̃ᵀR.
        let rho = gram(&r_tilde, &r);
        let rv = gram(&r_tilde, &v);
        let Some(alpha) =
            gauss_solve_multi(&small(&rv), &MultiVec::from_flat(m, m, rho))
        else {
            break; // rank-deficient shadow Gram: genuine ρ collapse
        };
        // S = R − V·α.
        let va = mul_dense(&v, &alpha);
        let mut s = r.clone();
        for (sv, vv) in s.as_mut_slice().iter_mut().zip(va.as_slice()) {
            *sv -= vv;
        }
        let s_norms = col_norms(&s);
        let pa = mul_dense(&p, &alpha);
        if done(&s_norms) {
            for (xv, pv) in x.as_mut_slice().iter_mut().zip(pa.as_slice()) {
                *xv += pv;
            }
            iterations += 1;
            norms = s_norms;
            break;
        }
        // Scalar stabilizer ω = ⟨T,S⟩_F / ⟨T,T⟩_F.
        let t = a.gspmv(&s);
        let tt = frob(&t, &t);
        if tt == 0.0 || !tt.is_finite() {
            break;
        }
        let omega = frob(&t, &s) / tt;
        if omega == 0.0 || !omega.is_finite() {
            break;
        }
        // X += P·α + ω·S ; R = S − ω·T.
        for i in 0..n {
            for j in 0..m {
                *x.get_mut(i, j) += pa.get(i, j) + omega * s.get(i, j);
                *r.get_mut(i, j) = s.get(i, j) - omega * t.get(i, j);
            }
        }
        iterations += 1;
        norms = col_norms(&r);
        if done(&norms) {
            break;
        }
        // β solves (R̃ᵀV)·β = −R̃ᵀT, then P ← R + (P − ω·V)·β.
        let sigma = gram(&r_tilde, &t);
        let neg_sigma: Vec<f64> = sigma.iter().map(|v| -v).collect();
        let Some(beta) =
            gauss_solve_multi(&small(&rv), &MultiVec::from_flat(m, m, neg_sigma))
        else {
            break;
        };
        let mut pw = p.clone();
        for (pv, vv) in pw.as_mut_slice().iter_mut().zip(v.as_slice()) {
            *pv -= omega * vv;
        }
        let pb = mul_dense(&pw, &beta);
        let mut p_next = r.clone();
        for (pv, bv) in p_next.as_mut_slice().iter_mut().zip(pb.as_slice()) {
            *pv += bv;
        }
        p = p_next;
    }

    NaiveBlockBicgstab {
        iterations,
        converged: done(&norms),
        residual_norms: norms,
    }
}

/// Symmetric eigendecomposition by the cyclic Jacobi method. Returns
/// `(eigenvalues, eigenvectors)` with `A = V·diag(λ)·Vᵀ`, eigenvectors
/// in the *columns* of the returned dense matrix.
pub fn jacobi_eigh(a: &Dense) -> (Vec<f64>, Dense) {
    assert_eq!(a.n_rows, a.n_cols);
    let n = a.n_rows;
    let mut m = a.data.clone();
    let mut v = vec![0.0; n * n];
    for i in 0..n {
        v[i * n + i] = 1.0;
    }
    let off = |m: &[f64]| -> f64 {
        let mut s = 0.0;
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    s += m[i * n + j] * m[i * n + j];
                }
            }
        }
        s
    };
    let scale = a.max_abs().max(1.0);
    for _sweep in 0..100 {
        if off(&m).sqrt() <= 1e-13 * scale {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = m[p * n + q];
                if apq.abs() <= 1e-300 {
                    continue;
                }
                let app = m[p * n + p];
                let aqq = m[q * n + q];
                let theta = (aqq - app) / (2.0 * apq);
                let t =
                    theta.signum() / (theta.abs() + (1.0 + theta * theta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Rotate rows/cols p and q of M and columns of V.
                for k in 0..n {
                    let mkp = m[k * n + p];
                    let mkq = m[k * n + q];
                    m[k * n + p] = c * mkp - s * mkq;
                    m[k * n + q] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[p * n + k];
                    let mqk = m[q * n + k];
                    m[p * n + k] = c * mpk - s * mqk;
                    m[q * n + k] = s * mpk + c * mqk;
                }
                for k in 0..n {
                    let vkp = v[k * n + p];
                    let vkq = v[k * n + q];
                    v[k * n + p] = c * vkp - s * vkq;
                    v[k * n + q] = s * vkp + c * vkq;
                }
            }
        }
    }
    let eigvals: Vec<f64> = (0..n).map(|i| m[i * n + i]).collect();
    (eigvals, Dense { n_rows: n, n_cols: n, data: v })
}

/// `√A·z` via the eigendecomposition — the obviously-correct matrix
/// square root an approximation like Chebyshev must converge to.
/// Requires `A` symmetric positive semi-definite (tiny negative
/// eigenvalues from roundoff are clamped to zero).
pub fn sqrt_matvec_eigh(a: &Dense, z: &[f64]) -> Vec<f64> {
    let (eigvals, v) = jacobi_eigh(a);
    let n = a.n_rows;
    // w = Vᵀ z, scaled by √λ, mapped back: y = V diag(√λ) Vᵀ z.
    let mut w = vec![0.0; n];
    for k in 0..n {
        let mut acc = 0.0;
        for i in 0..n {
            acc += v.at(i, k) * z[i];
        }
        w[k] = acc * eigvals[k].max(0.0).sqrt();
    }
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut acc = 0.0;
        for k in 0..n {
            acc += v.at(i, k) * w[k];
        }
        y[i] = acc;
    }
    y
}

/// `C = A·B`, one multiply-add at a time.
fn matmul(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.n_cols, b.n_rows);
    let mut data = vec![0.0; a.n_rows * b.n_cols];
    for i in 0..a.n_rows {
        for j in 0..b.n_cols {
            let mut acc = 0.0;
            for k in 0..a.n_cols {
                acc += a.at(i, k) * b.at(k, j);
            }
            data[i * b.n_cols + j] = acc;
        }
    }
    Dense { n_rows: a.n_rows, n_cols: b.n_cols, data }
}

fn transpose(a: &Dense) -> Dense {
    let mut data = vec![0.0; a.n_rows * a.n_cols];
    for i in 0..a.n_rows {
        for j in 0..a.n_cols {
            data[j * a.n_rows + i] = a.at(i, j);
        }
    }
    Dense { n_rows: a.n_cols, n_cols: a.n_rows, data }
}

/// The exact Brownian factor the drivers' polynomial approximates:
/// `F = L·Â^{1/2}`, where `L` is block diagonal with the Cholesky
/// factor of each 3×3 diagonal block (its symmetric part) of `d` — the
/// matrix the scaling is taken from: `R` itself, or a chunk's head —
/// and `Â = L⁻¹·R·L⁻ᵀ`; the square root goes through the Jacobi
/// eigensolver. `F·Fᵀ = L·Â·Lᵀ = R` for any such `L`. Returns `None`
/// when a diagonal block of `d` is not positive definite.
pub fn brownian_factor(d: &Dense, r: &Dense) -> Option<Dense> {
    let n = r.n_rows;
    assert_eq!(n, r.n_cols);
    assert_eq!((d.n_rows, d.n_cols), (n, n));
    assert_eq!(n % BLOCK_DIM, 0);
    let zeros = || Dense { n_rows: n, n_cols: n, data: vec![0.0; n * n] };
    let (mut l, mut l_inv) = (zeros(), zeros());
    for o in (0..n).step_by(BLOCK_DIM) {
        // Textbook Cholesky of the block's symmetric part.
        let a =
            |i: usize, j: usize| 0.5 * (d.at(o + i, o + j) + d.at(o + j, o + i));
        let mut c = [[0.0; BLOCK_DIM]; BLOCK_DIM];
        for j in 0..BLOCK_DIM {
            let mut d = a(j, j);
            for k in 0..j {
                d -= c[j][k] * c[j][k];
            }
            if d.is_nan() || d <= 0.0 {
                return None;
            }
            c[j][j] = d.sqrt();
            for i in j + 1..BLOCK_DIM {
                let mut acc = a(i, j);
                for k in 0..j {
                    acc -= c[i][k] * c[j][k];
                }
                c[i][j] = acc / c[j][j];
            }
        }
        // Its inverse, column by column by forward substitution.
        for col in 0..BLOCK_DIM {
            for i in 0..BLOCK_DIM {
                let mut acc = if i == col { 1.0 } else { 0.0 };
                for k in 0..i {
                    acc -= c[i][k] * l_inv.at(o + k, o + col);
                }
                l_inv.data[(o + i) * n + o + col] = acc / c[i][i];
                l.data[(o + i) * n + o + col] = c[i][col];
            }
        }
    }
    let a_hat = matmul(&matmul(&l_inv, r), &transpose(&l_inv));
    let (eigvals, v) = jacobi_eigh(&a_hat);
    let mut v_sqrt = v.clone();
    for i in 0..n {
        for k in 0..n {
            v_sqrt.data[i * n + k] *= eigvals[k].max(0.0).sqrt();
        }
    }
    Some(matmul(&l, &matmul(&v_sqrt, &transpose(&v))))
}

/// What [`naive_mrhs_chunk`] observed.
#[derive(Clone, Debug)]
pub struct NaiveChunkOutcome {
    /// `m` of the chunk.
    pub m: usize,
    /// Per-step solutions `u_k` of the first solve (for differencing
    /// against the production driver's warm-started CG solutions).
    pub first_solutions: Vec<Vec<f64>>,
}

/// Dense reference for one MRHS chunk (paper Alg. 2): the same
/// structure as `mrhs_core::run_mrhs_chunk`, with every linear-algebra
/// ingredient replaced by its naive dense counterpart — assembly is
/// expanded to dense, the Brownian force is the exact factor
/// [`brownian_factor`] (Jacobi eigensolver) scaled by `R_0`'s diagonal
/// for the whole chunk, as the driver scales it, instead of a Chebyshev
/// polynomial, and every solve is a direct Gaussian elimination
/// instead of (block) CG.
///
/// The noise stream is consumed identically to the production driver
/// (one `n×m` row-major fill), so running both against the same seeded
/// source makes the trajectories comparable; they differ only by the
/// Chebyshev approximation error and the CG tolerance.
pub fn naive_mrhs_chunk<S: ResistanceSystem, N: NoiseSource>(
    system: &mut S,
    noise: &mut N,
    m: usize,
) -> NaiveChunkOutcome {
    assert!(m >= 1);
    let n = system.dim();

    let r0 = Dense::from_bcrs(&system.assemble());
    let mut z = MultiVec::zeros(n, m);
    noise.fill_standard_normal(z.as_mut_slice());

    let mut f_ext = vec![0.0; n];
    system.add_external_forces(&mut f_ext);

    let mut first_solutions = Vec::with_capacity(m);
    for k in 0..m {
        let rk =
            if k == 0 { r0.clone() } else { Dense::from_bcrs(&system.assemble()) };
        let zk = z.column(k);
        // The production driver evaluates external forces at the
        // chunk head once and re-evaluates per step afterwards;
        // mirror that so state-dependent forces line up.
        if k > 0 {
            f_ext.iter_mut().for_each(|v| *v = 0.0);
            system.add_external_forces(&mut f_ext);
        }
        let f = brownian_factor(&r0, &rk).expect("SPD diagonal blocks");
        let mut fbk = f.matvec(&zk);
        for (v, e) in fbk.iter_mut().zip(&f_ext) {
            *v = -*v - e;
        }
        let uk = gauss_solve(&rk, &fbk).expect("reference resistance solve");

        // Midpoint scheme, exactly as the production driver does it.
        let dt = system.dt();
        let saved = system.save_state();
        system.advance(&uk, 0.5 * dt);
        let r_mid = Dense::from_bcrs(&system.assemble());
        let u_mid = gauss_solve(&r_mid, &fbk).expect("reference midpoint solve");
        system.restore_state(&saved);
        system.advance(&u_mid, dt);

        first_solutions.push(uk);
    }
    NaiveChunkOutcome { m, first_solutions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn spd_dense(n: usize, seed: u64) -> Dense {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let mut acc = if i == j { 2.0 } else { 0.0 };
                for k in 0..n {
                    acc += b[k * n + i] * b[k * n + j];
                }
                a[i * n + j] = acc;
            }
        }
        Dense { n_rows: n, n_cols: n, data: a }
    }

    #[test]
    fn dense_expansion_matches_to_dense() {
        let mut t = BlockTripletBuilder::square(3);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(1, 2, Block3::IDENTITY);
        let a = t.build();
        let d = Dense::from_bcrs(&a);
        assert_eq!(d.data, a.to_dense());
    }

    #[test]
    fn gauss_solves_spd_system() {
        let a = spd_dense(9, 3);
        let x_true: Vec<f64> = (0..9).map(|i| (i as f64) - 4.0).collect();
        let b = a.matvec(&x_true);
        let x = gauss_solve(&a, &b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn gauss_reports_singular() {
        let a = Dense { n_rows: 2, n_cols: 2, data: vec![1.0, 2.0, 2.0, 4.0] };
        assert!(gauss_solve(&a, &[1.0, 0.0]).is_none());
    }

    #[test]
    fn jacobi_reconstructs_matrix() {
        let a = spd_dense(8, 11);
        let (vals, v) = jacobi_eigh(&a);
        let n = 8;
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += v.at(i, k) * vals[k] * v.at(j, k);
                }
                assert!(
                    (acc - a.at(i, j)).abs() <= 1e-10 * a.max_abs(),
                    "({i},{j}): {acc} vs {}",
                    a.at(i, j)
                );
            }
        }
        assert!(vals.iter().all(|&l| l > 0.0), "SPD eigenvalues");
    }

    #[test]
    fn eigh_sqrt_squares_back() {
        let a = spd_dense(7, 5);
        let z: Vec<f64> = (0..7).map(|i| ((i % 3) as f64) - 1.0).collect();
        let s1 = sqrt_matvec_eigh(&a, &z);
        let s2 = sqrt_matvec_eigh(&a, &s1);
        let az = a.matvec(&z);
        for (u, v) in s2.iter().zip(&az) {
            assert!((u - v).abs() <= 1e-9 * a.max_abs(), "{u} vs {v}");
        }
    }

    /// Diagonally dominant nonsymmetric dense matrix.
    fn nonsym_dense(n: usize, seed: u64) -> Dense {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                a[i * n + j] = if i == j { n as f64 } else { next() };
            }
        }
        Dense { n_rows: n, n_cols: n, data: a }
    }

    #[test]
    fn naive_bicgstab_solves_nonsymmetric() {
        let a = nonsym_dense(14, 9);
        let x_true: Vec<f64> = (0..14).map(|i| (i as f64) * 0.3 - 2.0).collect();
        let b = a.matvec(&x_true);
        let mut x = vec![0.0; 14];
        let res = naive_bicgstab(&a, &b, &mut x, 1e-11, 300);
        assert!(res.converged, "{res:?}");
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-8, "{u} vs {v}");
        }
    }

    #[test]
    fn naive_block_bicgstab_matches_direct_solve() {
        let a = nonsym_dense(12, 21);
        let mut b = MultiVec::zeros(12, 3);
        for j in 0..3 {
            let col: Vec<f64> =
                (0..12).map(|i| (((i + 2 * j) % 7) as f64) - 3.0).collect();
            b.set_column(j, &col);
        }
        let mut x = MultiVec::zeros(12, 3);
        let res = naive_block_bicgstab(&a, &b, &mut x, 1e-10, 300);
        assert!(res.converged, "{res:?}");
        let want = gauss_solve_multi(&a, &b).unwrap();
        for (u, v) in x.as_slice().iter().zip(want.as_slice()) {
            assert!((u - v).abs() <= 1e-6 * v.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn naive_block_cg_solves() {
        let a = spd_dense(12, 7);
        let mut b = MultiVec::zeros(12, 3);
        for j in 0..3 {
            let col: Vec<f64> =
                (0..12).map(|i| (((i + j) % 5) as f64) - 2.0).collect();
            b.set_column(j, &col);
        }
        let mut x = MultiVec::zeros(12, 3);
        let res = naive_block_cg(&a, &b, &mut x, 1e-10, 200);
        assert!(res.converged, "{res:?}");
        let want = gauss_solve_multi(&a, &b).unwrap();
        for (u, v) in x.as_slice().iter().zip(want.as_slice()) {
            assert!((u - v).abs() <= 1e-6 * v.abs().max(1.0), "{u} vs {v}");
        }
    }
}
