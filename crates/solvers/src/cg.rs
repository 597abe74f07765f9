//! Conjugate gradients with initial guess.
//!
//! The stopping rule matches the paper (§V-B1): iterate until the
//! residual norm drops below `tol` times the norm of the right-hand side
//! (they use `tol = 1e-6`). The initial guess is passed in `x` — this is
//! exactly where the MRHS algorithm's auxiliary solutions enter.
//!
//! The recurrence is preconditioned by the rule `block_cg` follows at
//! every width ([`crate::precond`]): block symmetric Gauss–Seidel in
//! split form when the operator hands over its block rows — `block_cg`'s
//! recurrence at one column, two sweeps and no product per iteration —
//! else block-Jacobi on a usable block diagonal, else nothing (`z` is
//! `r` and this is plain CG). Either way the stopping rule reads the
//! true, unpreconditioned residual.
//!
//! The four `n`-vectors of a solve come out of the thread's recycled
//! solver workspace and go back into it, so a warm solve allocates
//! nothing.

use crate::operator::LinearOperator;
use crate::precond::{self, CgVectors, Precond, Sgs};
use mrhs_sparse::Block3;

/// Convergence controls shared by the CG variants.
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// Relative residual tolerance `‖r‖ ≤ tol·‖b‖`.
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        // The paper's tolerance (residual < 1e-6·‖b‖).
        SolveConfig { tol: 1e-6, max_iter: 1000 }
    }
}

/// Outcome of a CG solve.
#[derive(Clone, Debug)]
pub struct CgResult {
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Final residual norm.
    pub residual_norm: f64,
}

/// Solves `A·x = b` for SPD `A` by conjugate gradients, starting from
/// the initial guess already stored in `x`.
pub fn cg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    cfg: &SolveConfig,
) -> CgResult {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let _span = mrhs_telemetry::span("solver/cg");
    mrhs_telemetry::counter_add("solver/cg/solves", 1);
    // The vectors first, so that they go back after the preconditioner
    // has returned the workspace they live in.
    let mut vectors = CgVectors::take(n);
    let [r, z, p, q] = vectors.get();
    // Chosen before the early exits, so that `preconditioned` below
    // `solves` always means a fallback, never a trivial solve.
    let mut pre = precond::choose(a, 1);
    if pre.is_some() {
        mrhs_telemetry::counter_add("solver/cg/preconditioned", 1);
    }

    let b_norm = norm(b);
    if b_norm == 0.0 {
        x.fill(0.0);
        return CgResult { iterations: 0, converged: true, residual_norm: 0.0 };
    }
    let threshold = cfg.tol * b_norm;

    // r = b − A·x
    a.apply(x, r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    // ‖r‖² — what the stopping rule reads.
    let rr = dot(r, r);
    // A non-finite right-hand side or guess can never meet a threshold
    // (every comparison with NaN is false): report it unconverged now
    // instead of iterating to `max_iter`.
    if !(b_norm.is_finite() && rr.is_finite()) {
        return CgResult {
            iterations: 0,
            converged: false,
            residual_norm: rr.sqrt(),
        };
    }
    if rr.sqrt() <= threshold {
        return CgResult {
            iterations: 0,
            converged: true,
            residual_norm: rr.sqrt(),
        };
    }

    let (iterations, converged, rr) = match &mut pre {
        Some(Precond::Sgs(sgs)) => {
            split_iterations(sgs, x, [r, z, p, q], rr, threshold, cfg.max_iter)
        }
        Some(Precond::Jacobi(inv)) => {
            iterations(a, Some(inv), x, [r, z, p, q], rr, threshold, cfg.max_iter)
        }
        None => iterations(a, None, x, [r, z, p, q], rr, threshold, cfg.max_iter),
    };
    CgResult { iterations, converged, residual_norm: rr.sqrt() }
}

/// The iterations of CG preconditioned with block-Jacobi's `M⁻¹`
/// (`inv`), or with nothing, from the residual `r` with `r·r = rr`:
/// `(iterations, converged, r·r)`. `z = M⁻¹r` lives in `z`; without a
/// preconditioner `z` is `r` and `ρ = r·z` is `rr`.
fn iterations<A: LinearOperator + ?Sized>(
    a: &A,
    inv: Option<&[Block3]>,
    x: &mut [f64],
    [r, z, p, q]: [&mut Vec<f64>; 4],
    mut rr: f64,
    threshold: f64,
    max_iter: usize,
) -> (usize, bool, f64) {
    let mut rho = match inv {
        Some(inv) => {
            let mut sums = [0.0; 3];
            precondition(inv, r, z, &mut sums);
            combine3(sums)
        }
        None => rr,
    };
    p.copy_from_slice(if inv.is_some() { z } else { r });
    for it in 1..=max_iter {
        a.apply(p, q);
        let pq = dot(p, q);
        if pq <= 0.0 || pq.is_nan() {
            // Operator not positive definite along p, or a NaN the
            // comparison alone would let through: stop.
            return (it - 1, false, rr);
        }
        let rho_new;
        let pre = inv.map(|inv| (inv, &mut z[..]));
        (rr, rho_new) = step_and_residual(rho / pq, p, q, x, r, pre);
        mrhs_telemetry::counter_add("solver/cg/iterations", 1);
        if rr.sqrt() <= threshold {
            return (it, true, rr);
        }
        let beta = rho_new / rho;
        rho = rho_new;
        let z = if inv.is_some() { &z[..] } else { &r[..] };
        for (pi, zi) in p.iter_mut().zip(z) {
            *pi = zi + beta * *pi;
        }
    }
    (max_iter, false, rr)
}

/// The iterations of CG under block symmetric Gauss–Seidel in split
/// form — `block_cg`'s recurrence at one column — from the residual
/// `r`: `r̂ = C⁻¹r` (in `r_hat`), `ρ = r̂·r̂`, and per iteration
/// `q̂ = Â·p̂` with `t = C⁻ᵀ·p̂` and `A·t` from the same two sweeps,
/// `x += α·t`, `r −= α·A·t` (the true residual, which the stopping rule
/// reads) and `r̂ −= α·q̂`. No product after the initial residual.
fn split_iterations(
    sgs: &mut Sgs,
    x: &mut [f64],
    [r, r_hat, p, q]: [&mut Vec<f64>; 4],
    mut rr: f64,
    threshold: f64,
    max_iter: usize,
) -> (usize, bool, f64) {
    sgs.forward_solve(r, r_hat, 1);
    let mut rho = dot(r_hat, r_hat);
    p.copy_from_slice(r_hat);
    for it in 1..=max_iter {
        sgs.apply(p, q, 1);
        let pq = dot(p, q);
        if pq <= 0.0 || pq.is_nan() {
            return (it - 1, false, rr);
        }
        let alpha = rho / pq;
        let w = sgs.work();
        (rr, _) =
            step_and_residual(alpha, w.t.as_slice(), w.at.as_slice(), x, r, None);
        let rho_new = sub_and_square(alpha, q, r_hat);
        mrhs_telemetry::counter_add("solver/cg/iterations", 1);
        if rr.sqrt() <= threshold {
            return (it, true, rr);
        }
        let beta = rho_new / rho;
        rho = rho_new;
        for (pi, ri) in p.iter_mut().zip(r_hat.iter()) {
            *pi = ri + beta * *pi;
        }
    }
    (max_iter, false, rr)
}

/// `y −= α·q`, returning `y · y` of the updated `y` with [`dot`]'s
/// summation order.
fn sub_and_square(alpha: f64, q: &[f64], y: &mut [f64]) -> f64 {
    assert_eq!(q.len(), y.len());
    let split = y.len() - y.len() % LANES;
    let (qh, qt) = q.split_at(split);
    let (yh, yt) = y.split_at_mut(split);
    let mut sums = [0.0f64; LANES];
    for (qc, yc) in qh.chunks_exact(LANES).zip(yh.chunks_exact_mut(LANES)) {
        for i in 0..LANES {
            yc[i] -= alpha * qc[i];
            sums[i] += yc[i] * yc[i];
        }
    }
    let mut tail = 0.0;
    for (qi, yi) in qt.iter().zip(yt) {
        *yi -= alpha * qi;
        tail += *yi * *yi;
    }
    combine(sums, tail)
}

/// Partial sums a reduction keeps: element `i` of a chunk of eight adds
/// into sum `i`, so the adds of one chunk are independent (a single
/// running sum is one ordered chain the compiler may not vectorise)
/// and the result depends on the data alone, never on threads.
const LANES: usize = 8;

/// The fixed pairwise combination of the partial sums, then the tail
/// (the `len % 8` trailing products, summed in order).
fn combine(s: [f64; LANES], tail: f64) -> f64 {
    (((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]))) + tail
}

/// `a · b` — the one inner product of the scalar Krylov solvers and the
/// spectral-bound iterations.
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
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

/// `‖a‖₂`.
pub(crate) fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `z = M⁻¹r` over whole 3×3 blocks, adding `r·z` into three partial
/// sums (one per row of a block, so the adds of a block are
/// independent).
fn precondition(inv: &[Block3], r: &[f64], z: &mut [f64], rz: &mut [f64; 3]) {
    for ((b, r3), z3) in
        inv.iter().zip(r.chunks_exact(3)).zip(z.chunks_exact_mut(3))
    {
        for i in 0..3 {
            z3[i] = b.get(i, 0) * r3[0] + b.get(i, 1) * r3[1] + b.get(i, 2) * r3[2];
            rz[i] += r3[i] * z3[i];
        }
    }
}

fn combine3(s: [f64; 3]) -> f64 {
    (s[0] + s[1]) + s[2]
}

/// Elements per pass of [`step_and_residual`]: a multiple of `LANES`
/// (so the partial sums of `r·r` see the elements they see in one long
/// pass) and of 3 (whole diagonal blocks), short enough that a pass of
/// `r` is still in L1 when it is preconditioned.
const PASS: usize = 48 * LANES;

/// One fused sweep of a CG iteration: `x += α·p`, `r −= α·q` and, when
/// there is a preconditioner `(M⁻¹, z)`, `z = M⁻¹r`. Returns `r · r`
/// of the updated residual with [`dot`]'s summation order and `r · z`
/// (which is `r · r` when `z` is `r`).
fn step_and_residual(
    alpha: f64,
    p: &[f64],
    q: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    mut precond: Option<(&[Block3], &mut [f64])>,
) -> (f64, f64) {
    let n = r.len();
    assert!(p.len() == n && q.len() == n && x.len() == n);
    let mut sums = [0.0f64; LANES];
    let mut tail = 0.0;
    let mut rz = [0.0f64; 3];
    for start in (0..n).step_by(PASS) {
        let pass = start..(start + PASS).min(n);
        // Only the last pass can have a tail.
        tail += update_pass(
            alpha,
            &p[pass.clone()],
            &q[pass.clone()],
            &mut x[pass.clone()],
            &mut r[pass.clone()],
            &mut sums,
        );
        if let Some((inv, z)) = &mut precond {
            let blocks = pass.start / 3..pass.end / 3;
            precondition(&inv[blocks], &r[pass.clone()], &mut z[pass], &mut rz);
        }
    }
    let rr = combine(sums, tail);
    (rr, if precond.is_some() { combine3(rz) } else { rr })
}

/// `x += α·p`, `r −= α·q` on one pass, adding the squares of the
/// updated `r` into `sums` lane by lane; returns the sum over the
/// `len % 8` trailing elements.
fn update_pass(
    alpha: f64,
    p: &[f64],
    q: &[f64],
    x: &mut [f64],
    r: &mut [f64],
    sums: &mut [f64; LANES],
) -> f64 {
    let split = r.len() - r.len() % LANES;
    let (ph, pt) = p.split_at(split);
    let (qh, qt) = q.split_at(split);
    let (xh, xt) = x.split_at_mut(split);
    let (rh, rt) = r.split_at_mut(split);
    for (((pc, qc), xc), rc) in ph
        .chunks_exact(LANES)
        .zip(qh.chunks_exact(LANES))
        .zip(xh.chunks_exact_mut(LANES))
        .zip(rh.chunks_exact_mut(LANES))
    {
        for i in 0..LANES {
            xc[i] += alpha * pc[i];
            rc[i] -= alpha * qc[i];
            sums[i] += rc[i] * rc[i];
        }
    }
    let mut tail = 0.0;
    for (((pi, qi), xi), ri) in pt.iter().zip(qt).zip(xt).zip(rt) {
        *xi += alpha * pi;
        *ri -= alpha * qi;
        tail += *ri * *ri;
    }
    tail
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testkit::JacobiOnly;
    use crate::operator::{CountingOperator, DenseOperator};
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    /// SPD block tridiagonal test matrix (discrete Laplacian-like).
    fn laplacian(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(4.0));
            if bi + 1 < nb {
                t.add_symmetric_pair(bi, bi + 1, Block3::scaled_identity(-1.0));
            }
        }
        t.build()
    }

    #[test]
    fn solves_identity_in_one_iteration() {
        let a = BcrsMatrix::scaled_identity(5, 2.0);
        let b: Vec<f64> = (0..15).map(|v| v as f64).collect();
        let mut x = vec![0.0; 15];
        let res = cg(&a, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert!(res.iterations <= 1);
        for (xi, bi) in x.iter().zip(&b) {
            assert!((xi - bi / 2.0).abs() < 1e-10);
        }
    }

    #[test]
    fn residual_meets_tolerance() {
        let a = laplacian(30);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|v| ((v * 7919) % 13) as f64 - 6.0).collect();
        let mut x = vec![0.0; n];
        let cfg = SolveConfig { tol: 1e-8, max_iter: 500 };
        let res = cg(&a, &b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");
        // verify actual residual
        let mut ax = vec![0.0; n];
        use crate::operator::LinearOperator;
        a.apply(&x, &mut ax);
        let rnorm =
            (b.iter().zip(&ax).map(|(u, v)| (u - v) * (u - v)).sum::<f64>()).sqrt();
        let bnorm = (b.iter().map(|v| v * v).sum::<f64>()).sqrt();
        assert!(rnorm <= 1.1e-8 * bnorm);
    }

    #[test]
    fn good_initial_guess_reduces_iterations() {
        let a = laplacian(40);
        let n = a.n_rows();
        let b: Vec<f64> = (0..n).map(|v| (v as f64 * 0.7).cos()).collect();
        let cfg = SolveConfig::default();

        let mut x_cold = vec![0.0; n];
        let cold = cg(&a, &b, &mut x_cold, &cfg);
        assert!(cold.converged);

        // Warm start near the solution.
        let mut x_warm: Vec<f64> =
            x_cold.iter().map(|v| v * (1.0 + 1e-4)).collect();
        let warm = cg(&a, &b, &mut x_warm, &cfg);
        assert!(warm.converged);
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplacian(5);
        let n = a.n_rows();
        let mut x = vec![1.0; n];
        let res = cg(&a, &vec![0.0; n], &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    /// A poisoned column must cost a residual, not `max_iter`
    /// iterations — the service retries each such column solo.
    #[test]
    fn nan_rhs_returns_unconverged_at_once() {
        let a = laplacian(6);
        let n = a.n_rows();
        let c = CountingOperator::new(&a);
        let mut b = vec![1.0; n];
        b[4] = f64::NAN;
        let mut x = vec![0.0; n];
        let res = cg(&c, &b, &mut x, &SolveConfig::default());
        assert!(!res.converged);
        assert_eq!(res.iterations, 0);
        assert!(res.residual_norm.is_nan());
        assert!(c.single_applies() <= 2, "{} applies", c.single_applies());
    }

    /// A NaN that first appears mid-solve (here from the operator)
    /// stops the iteration at the step that sees it.
    #[test]
    fn nan_curvature_stops_the_iteration() {
        struct NanAfter<'a>(CountingOperator<'a, BcrsMatrix>, usize);
        impl LinearOperator for NanAfter<'_> {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.0.apply(x, y);
                if self.0.single_applies() > self.1 {
                    y[0] = f64::NAN;
                }
            }
        }
        let a = laplacian(20);
        let n = a.n_rows();
        let op = NanAfter(CountingOperator::new(&a), 3);
        let b: Vec<f64> = (0..n).map(|v| (v as f64 * 0.7).cos()).collect();
        let mut x = vec![0.0; n];
        let res = cg(&op, &b, &mut x, &SolveConfig { tol: 1e-12, max_iter: 1000 });
        assert!(!res.converged);
        assert!(op.0.single_applies() <= 5, "{} applies", op.0.single_applies());
    }

    /// An operator that keeps block-Jacobi costs one product per
    /// iteration; one that hands over its block rows costs one per
    /// solve (the initial residual), its iterations being sweeps.
    #[test]
    fn residual_drops_and_counts_applies() {
        let a = laplacian(20);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let jacobi = JacobiOnly(&a);
        for (op, per_iteration) in [(&jacobi as &dyn LinearOperator, 1), (&a, 0)] {
            let c = CountingOperator::new(op);
            let mut x = vec![0.0; n];
            let res = cg(&c, &b, &mut x, &SolveConfig::default());
            assert!(res.converged);
            // initial residual + one per iteration, or none
            assert_eq!(c.single_applies(), per_iteration * res.iterations + 1);
            // x₀ = 0, so the initial residual is b itself.
            assert!(res.residual_norm < norm(&b));
        }
    }

    #[test]
    fn exact_convergence_in_at_most_n_iterations() {
        // CG is exact after n steps in exact arithmetic; use a tiny dense SPD.
        let a = DenseOperator::new(
            3,
            vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0],
        );
        let b = vec![1.0, 2.0, 3.0];
        let mut x = vec![0.0; 3];
        let res = cg(&a, &b, &mut x, &SolveConfig { tol: 1e-12, max_iter: 10 });
        assert!(res.converged);
        assert!(res.iterations <= 3 + 1);
    }
}
