//! Krylov subspace recycling — the paper's §III technique #2: "'recycle'
//! components of the Krylov subspace from one solve to the next (Parks
//! et al.) to reduce the number of iterations required for convergence."
//!
//! This is deflated CG in the Frank & Vuik form: a recycle space `W`
//! of approximate eigenvectors — Ritz vectors harvested from a previous
//! solve's implicit Lanczos decomposition — is projected out of the
//! iteration (`P = I − AW·(WᵀAW)⁻¹·Wᵀ`; CG runs on `P·A`, and the
//! components in `span(W)` are recovered exactly afterwards). With `W`
//! spanning the slowly-converging eigendirections of `A`, the deflated
//! operator has a smaller effective condition number, and — because the
//! SD matrices drift slowly — a space harvested at step `k` keeps
//! working for steps `k+1, k+2, …`.

use crate::cg::{CgResult, SolveConfig};
use crate::dense;
use crate::operator::LinearOperator;

/// A recycle space: `k` column vectors `W`, their images `AW`, and the
/// factorized small matrix `WᵀAW`.
pub struct RecycleSpace {
    n: usize,
    k: usize,
    /// Column-major `k` columns of length `n`.
    w: Vec<f64>,
    /// `A·W`, same layout.
    aw: Vec<f64>,
    /// Row-major `k×k` `WᵀAW` (kept for refresh diagnostics).
    wtaw: Vec<f64>,
}

impl RecycleSpace {
    /// Builds a recycle space from candidate vectors (e.g. search
    /// directions of a previous solve), dropping near-dependent ones by
    /// Gram–Schmidt with re-orthogonalization. Returns `None` when no
    /// candidate survives.
    pub fn from_vectors<A: LinearOperator + ?Sized>(
        a: &A,
        candidates: &[Vec<f64>],
    ) -> Option<Self> {
        let n = a.dim();
        let mut w: Vec<f64> = Vec::new();
        let mut kept = 0usize;
        for cand in candidates {
            assert_eq!(cand.len(), n);
            let mut v = cand.clone();
            // two-pass Gram–Schmidt against the kept columns
            for _ in 0..2 {
                for c in 0..kept {
                    let col = &w[c * n..(c + 1) * n];
                    let dot: f64 = col.iter().zip(&v).map(|(a, b)| a * b).sum();
                    for (vi, ci) in v.iter_mut().zip(col) {
                        *vi -= dot * ci;
                    }
                }
            }
            let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
            let orig = cand.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm > 1e-8 * orig.max(1e-300) {
                for vi in v.iter_mut() {
                    *vi /= norm;
                }
                w.extend_from_slice(&v);
                kept += 1;
            }
        }
        if kept == 0 {
            return None;
        }
        // AW and WᵀAW
        let mut aw = vec![0.0; kept * n];
        for c in 0..kept {
            let (src, dst) = (c * n, c * n);
            let mut out = vec![0.0; n];
            a.apply(&w[src..src + n], &mut out);
            aw[dst..dst + n].copy_from_slice(&out);
        }
        let mut wtaw = vec![0.0; kept * kept];
        for i in 0..kept {
            for j in 0..kept {
                wtaw[i * kept + j] = w[i * n..(i + 1) * n]
                    .iter()
                    .zip(&aw[j * n..(j + 1) * n])
                    .map(|(u, v)| u * v)
                    .sum();
            }
        }
        Some(RecycleSpace { n, k: kept, w, aw, wtaw })
    }

    /// Number of recycled directions.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// Solves `(WᵀAW)·y = Wᵀ·v` and returns `y` (length `k`).
    fn project(&self, v: &[f64]) -> Option<Vec<f64>> {
        let mut rhs: Vec<f64> = (0..self.k)
            .map(|c| {
                self.w[c * self.n..(c + 1) * self.n]
                    .iter()
                    .zip(v)
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect();
        let mut lhs = self.wtaw.clone();
        dense::lu_solve(&mut lhs, self.k, &mut rhs, 1).then_some(rhs)
    }

    /// `out −= W·y`.
    fn subtract_w(&self, y: &[f64], out: &mut [f64]) {
        for (c, yc) in y.iter().enumerate() {
            for (o, wv) in out.iter_mut().zip(&self.w[c * self.n..(c + 1) * self.n])
            {
                *o -= yc * wv;
            }
        }
    }

    /// `out += W·y`.
    fn add_w(&self, y: &[f64], out: &mut [f64]) {
        for (c, yc) in y.iter().enumerate() {
            for (o, wv) in out.iter_mut().zip(&self.w[c * self.n..(c + 1) * self.n])
            {
                *o += yc * wv;
            }
        }
    }

    /// Applies the deflation projector `P = I − AW·(WᵀAW)⁻¹·Wᵀ`:
    /// `v ← v − AW·(WᵀAW)⁻¹·Wᵀ·v` (Frank & Vuik's DCG projector; `P·A`
    /// is symmetric positive semidefinite with `W`'s slow directions
    /// removed from its spectrum).
    fn project_out(&self, v: &mut [f64]) {
        if let Some(y) = self.project(v) {
            for (c, yc) in y.iter().enumerate() {
                for (vi, av) in
                    v.iter_mut().zip(&self.aw[c * self.n..(c + 1) * self.n])
                {
                    *vi -= yc * av;
                }
            }
        }
    }

    /// `out −= W·(WᵀAW)⁻¹·(AW)ᵀ·out` — the transpose projector used in
    /// the final solution correction.
    fn project_out_transpose(&self, v: &mut [f64]) {
        let mut rhs: Vec<f64> = (0..self.k)
            .map(|c| {
                self.aw[c * self.n..(c + 1) * self.n]
                    .iter()
                    .zip(v.iter())
                    .map(|(a, b)| a * b)
                    .sum()
            })
            .collect();
        let mut lhs = self.wtaw.clone();
        if dense::lu_solve(&mut lhs, self.k, &mut rhs, 1) {
            self.subtract_w(&rhs, v);
        }
    }
}

/// Outcome of a recycled solve: the CG result plus harvested Ritz
/// vectors for the *next* solve's recycle space.
pub struct RecycledSolve {
    /// Convergence data.
    pub result: CgResult,
    /// Approximate eigenvectors of the smallest Ritz values (at most
    /// `harvest` of them), ready for [`RecycleSpace::from_vectors`].
    pub harvested: Vec<Vec<f64>>,
}

/// Deflated CG: solves `A·x = b` starting from the guess in `x`,
/// projecting the iteration against `space` (if any), and harvesting up
/// to `harvest` search directions for recycling into the next solve.
pub fn recycled_cg<A: LinearOperator + ?Sized>(
    a: &A,
    space: Option<&RecycleSpace>,
    b: &[f64],
    x: &mut [f64],
    cfg: &SolveConfig,
    harvest: usize,
) -> RecycledSolve {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);

    let b_norm = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    if b_norm == 0.0 {
        x.fill(0.0);
        return RecycledSolve {
            result: CgResult { iterations: 0, converged: true, residual_norm: 0.0 },
            harvested: Vec::new(),
        };
    }
    let threshold = cfg.tol * b_norm;

    // Frank & Vuik deflated CG: run plain CG on the projected system
    // `P·A·x̂ = P·b` with `P = I − AW·E⁻¹·Wᵀ`, then recover
    // `x = W·E⁻¹·Wᵀ·b + Pᵀ·x̂`. With no recycle space this reduces to
    // plain CG.
    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    if let Some(space) = space {
        space.project_out(&mut r); // r = P(b − A·x̂₀)
    }

    let mut rho: f64 = r.iter().map(|v| v * v).sum();
    let mut p = r.clone();
    let mut q = vec![0.0; n];
    let mut converged = rho.sqrt() <= threshold;
    let mut iterations = 0;
    // CG-as-Lanczos bookkeeping for Ritz harvesting: the normalized
    // residuals are the Lanczos basis and (α_j, β_j) define the
    // tridiagonal.
    const MAX_BASIS: usize = 48;
    let mut basis: Vec<Vec<f64>> = Vec::new();
    let mut cg_alphas: Vec<f64> = Vec::new();
    let mut cg_betas: Vec<f64> = Vec::new();
    if harvest > 0 && rho > 0.0 {
        basis.push(r.iter().map(|v| v / rho.sqrt()).collect());
    }

    while !converged && iterations < cfg.max_iter {
        // q = P·A·p
        a.apply(&p, &mut q);
        if let Some(space) = space {
            space.project_out(&mut q);
        }
        let pq: f64 = p.iter().zip(&q).map(|(u, v)| u * v).sum();
        if pq <= 0.0 {
            break;
        }
        let alpha = rho / pq;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        iterations += 1;
        let rho_new: f64 = r.iter().map(|v| v * v).sum();
        let beta = rho_new / rho;
        if harvest > 0 && cg_alphas.len() < MAX_BASIS {
            cg_alphas.push(alpha);
            cg_betas.push(beta);
            if rho_new > 0.0 && basis.len() < MAX_BASIS {
                basis.push(r.iter().map(|v| v / rho_new.sqrt()).collect());
            }
        }
        if rho_new.sqrt() <= threshold {
            converged = true;
            rho = rho_new;
            break;
        }
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }

    // Recover the true solution: x = Q·b + Pᵀ·x̂ with Q = W·E⁻¹·Wᵀ.
    if let Some(space) = space {
        space.project_out_transpose(x);
        if let Some(y) = space.project(b) {
            space.add_w(&y, x);
        }
    }

    let harvested = if harvest == 0 {
        Vec::new()
    } else {
        ritz_vectors(&basis, &cg_alphas, &cg_betas, harvest)
    };

    RecycledSolve {
        result: CgResult { iterations, converged, residual_norm: rho.sqrt() },
        harvested,
    }
}

/// Builds the `harvest` smallest Ritz vectors from CG's implicit
/// Lanczos decomposition: the tridiagonal has
/// `T_jj = 1/α_j + β_{j−1}/α_{j−1}` and `T_{j,j+1} = √β_j / α_j`;
/// eigenvalues come from Sturm bisection and eigenvectors from inverse
/// iteration on the small tridiagonal; the full-space Ritz vector is
/// the basis combination.
fn ritz_vectors(
    basis: &[Vec<f64>],
    cg_alphas: &[f64],
    cg_betas: &[f64],
    harvest: usize,
) -> Vec<Vec<f64>> {
    let j = basis.len().min(cg_alphas.len());
    if j < 2 {
        return Vec::new();
    }
    let mut diag = vec![0.0f64; j];
    let mut off = vec![0.0f64; j - 1];
    for i in 0..j {
        diag[i] = 1.0 / cg_alphas[i]
            + if i > 0 { cg_betas[i - 1] / cg_alphas[i - 1] } else { 0.0 };
        if i + 1 < j {
            off[i] = cg_betas[i].sqrt() / cg_alphas[i];
        }
    }
    let want = harvest.min(j);
    let mut out = Vec::with_capacity(want);
    for k in 1..=want {
        let theta = crate::eigbounds::tridiag_kth_eigenvalue(&diag, &off, k);
        if let Some(y) = tridiag_inverse_iteration(&diag, &off, theta) {
            // Ritz vector = Σ (−1)^i·y_i · basis_i: CG's Lanczos
            // vectors are the normalized residuals with alternating
            // sign, v_i = (−1)^i·r_i/‖r_i‖, and the stored basis omits
            // the sign, so it is restored here.
            let n = basis[0].len();
            let mut v = vec![0.0; n];
            for (i, (yi, b)) in y.iter().zip(basis).enumerate() {
                let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
                for (vv, bv) in v.iter_mut().zip(b) {
                    *vv += sign * yi * bv;
                }
            }
            out.push(v);
        }
    }
    out
}

/// One small-space inverse-iteration sweep: solves `(T − θI)·y = e` for
/// a random-ish `e`, twice, normalizing in between.
fn tridiag_inverse_iteration(
    diag: &[f64],
    off: &[f64],
    theta: f64,
) -> Option<Vec<f64>> {
    let j = diag.len();
    let scale = diag.iter().fold(0.0f64, |a, v| a.max(v.abs())).max(1.0);
    let shift = theta - 1e-10 * scale; // avoid exact singularity
    let mut y: Vec<f64> = (0..j).map(|i| 1.0 + (i as f64) * 0.01).collect();
    for _ in 0..2 {
        // dense solve of the small shifted tridiagonal
        let mut t = vec![0.0; j * j];
        for i in 0..j {
            t[i * j + i] = diag[i] - shift;
            if i + 1 < j {
                t[i * j + i + 1] = off[i];
                t[(i + 1) * j + i] = off[i];
            }
        }
        let mut rhs = y.clone();
        if !dense::lu_solve(&mut t, j, &mut rhs, 1) {
            return None;
        }
        let norm = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 || !norm.is_finite() {
            return None;
        }
        y = rhs.into_iter().map(|v| v / norm).collect();
    }
    Some(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    /// A weighted graph Laplacian plus a small shift, mimicking the
    /// slowly drifting SD matrices: strong chains joined by a few weak
    /// links give a handful of isolated small eigenvalues — exactly the
    /// slow directions recycling is meant to deflate.
    fn drifting_matrix(nb: usize, drift: f64) -> BcrsMatrix {
        // Anisotropic per-component weights break the xyz degeneracy
        // (a single Krylov sequence cannot split degenerate triples).
        let aniso = |w: f64| {
            Block3::from_rows([
                [w, 0.0, 0.0],
                [0.0, 1.31 * w, 0.0],
                [0.0, 0.0, 1.77 * w],
            ])
        };
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, aniso(0.1 + drift));
        }
        for i in 0..nb - 1 {
            // weak link every 10th edge splits the chain into segments
            let w = if i % 10 == 9 { 0.02 } else { 30.0 };
            t.add(i, i, aniso(w));
            t.add(i + 1, i + 1, aniso(w));
            t.add_symmetric_pair(i, i + 1, -aniso(w));
        }
        t.build()
    }

    #[test]
    fn no_space_matches_plain_cg() {
        let a = drifting_matrix(30, 0.0);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let cfg = SolveConfig::default();
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let r1 = cg(&a, &b, &mut x1, &cfg);
        let r2 = recycled_cg(&a, None, &b, &mut x2, &cfg, 0);
        assert!(r1.converged && r2.result.converged);
        assert!(r1.iterations.abs_diff(r2.result.iterations) <= 1);
    }

    #[test]
    fn recycling_cuts_iterations_on_next_solve() {
        let a0 = drifting_matrix(40, 0.0);
        let a1 = drifting_matrix(40, 0.02); // slightly drifted matrix
        let n = a0.n_rows();
        let cfg = SolveConfig { tol: 1e-8, max_iter: 5000 };

        let b0: Vec<f64> = (0..n).map(|i| ((i * 3 % 11) as f64) - 5.0).collect();
        let mut x0 = vec![0.0; n];
        let first = recycled_cg(&a0, None, &b0, &mut x0, &cfg, 12);
        assert!(first.result.converged);
        assert!(!first.harvested.is_empty());

        let space = RecycleSpace::from_vectors(&a1, &first.harvested).unwrap();
        let b1: Vec<f64> = (0..n).map(|i| ((i * 7 % 13) as f64) - 6.0).collect();

        let mut x_plain = vec![0.0; n];
        let plain = recycled_cg(&a1, None, &b1, &mut x_plain, &cfg, 0);
        let mut x_rec = vec![0.0; n];
        let rec = recycled_cg(&a1, Some(&space), &b1, &mut x_rec, &cfg, 0);
        assert!(plain.result.converged && rec.result.converged);
        assert!(
            rec.result.iterations < plain.result.iterations,
            "recycled {} vs plain {}",
            rec.result.iterations,
            plain.result.iterations
        );
        // identical solutions
        for (u, v) in x_rec.iter().zip(&x_plain) {
            assert!((u - v).abs() <= 1e-5 * u.abs().max(1.0));
        }
    }

    #[test]
    fn recycled_solution_satisfies_system() {
        let a = drifting_matrix(25, 0.0);
        let n = a.n_rows();
        let cfg = SolveConfig { tol: 1e-9, max_iter: 5000 };
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).cos()).collect();
        let mut x0 = vec![0.0; n];
        let first = recycled_cg(&a, None, &b, &mut x0, &cfg, 8);
        let space = RecycleSpace::from_vectors(&a, &first.harvested).unwrap();

        let b2: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = vec![0.0; n];
        let res = recycled_cg(&a, Some(&space), &b2, &mut x, &cfg, 0);
        assert!(res.result.converged);
        let mut ax = vec![0.0; n];
        a.apply(&x, &mut ax);
        let rn: f64 =
            b2.iter().zip(&ax).map(|(u, v)| (u - v) * (u - v)).sum::<f64>().sqrt();
        let bn: f64 = b2.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rn <= 2e-9 * bn, "{rn} vs {bn}");
    }

    #[test]
    fn dependent_candidates_are_dropped() {
        let a = drifting_matrix(10, 0.0);
        let n = a.n_rows();
        let v: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let scaled: Vec<f64> = v.iter().map(|x| 2.0 * x).collect();
        let space =
            RecycleSpace::from_vectors(&a, &[v, scaled]).expect("one survives");
        assert_eq!(space.len(), 1);
    }

    #[test]
    fn empty_candidates_yield_no_space() {
        let a = drifting_matrix(5, 0.0);
        assert!(RecycleSpace::from_vectors(&a, &[]).is_none());
        let zero = vec![0.0; a.n_rows()];
        assert!(RecycleSpace::from_vectors(&a, &[zero]).is_none());
    }

    #[test]
    fn harvest_thins_to_requested_count() {
        let a = drifting_matrix(30, 0.0);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 5 % 9) as f64) - 4.0).collect();
        let mut x = vec![0.0; n];
        let res = recycled_cg(&a, None, &b, &mut x, &SolveConfig::default(), 5);
        assert!(res.harvested.len() <= 5);
        assert!(!res.harvested.is_empty());
    }
}
