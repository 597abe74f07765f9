//! BiCGStab (van der Vorst 1992) for nonsymmetric systems.
//!
//! The SPD solvers in this crate cover the Stokesian-dynamics
//! resistance matrices; the CFD-class systems of Krasnopolsky
//! (arXiv:1907.12874) are convection-dominated and nonsymmetric, where
//! CG's three-term recurrence is invalid. BiCGStab is the standard
//! transpose-free Krylov method for that class and the scalar
//! counterpart of [`crate::block_bicgstab()`]: the solve service retries
//! a failed batch column through this solver exactly as the SPD path
//! retries through [`crate::cg::cg`].
//!
//! Unlike CG, BiCGStab has two *structural* failure modes that are not
//! mere stagnation, and callers need to tell them apart:
//!
//! * **ρ collapse** — the shadow inner product `r̃ᵀr` (or the `r̃ᵀv`
//!   denominator of α) vanishes while the residual does not; the
//!   bi-Lanczos recursion has broken down and no further progress is
//!   possible from this shadow vector.
//! * **ω collapse** — the stabilizer step `ω = ⟨t,s⟩/⟨t,t⟩` is
//!   undefined (`t = 0`) or zero, so the half-iterate cannot be
//!   stabilized.
//!
//! Both are reported through [`Breakdown`] with the iteration they
//! occurred in, the vocabulary of [`mod@crate::block`]: the reported
//! residual norm always describes the returned `x` exactly.

use crate::block::{Breakdown, BreakdownKind};
use crate::cg::{dot, norm, SolveConfig};
use crate::operator::LinearOperator;

/// Outcome of a BiCGStab solve.
#[derive(Clone, Debug)]
pub struct BicgstabResult {
    /// Iterations completed. An ω collapse counts its iteration as
    /// completed-at-the-half-step: the `x += α·p` update was applied
    /// and `residual_norm` describes `s = b − A·x` exactly.
    pub iterations: usize,
    /// Whether the tolerance was met.
    pub converged: bool,
    /// Residual norm of the returned `x`.
    pub residual_norm: f64,
    /// `Some` if a structural collapse stopped the solve.
    pub breakdown: Option<Breakdown>,
}

/// Solves `A·x = b` for nonsymmetric `A` by BiCGStab, starting from
/// the guess already in `x`. Stops when `‖r‖ ≤ tol·‖b‖`, at the
/// iteration cap, or on a structural breakdown (reported, not
/// panicked). The shadow vector is the initial residual.
pub fn bicgstab<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    x: &mut [f64],
    cfg: &SolveConfig,
) -> BicgstabResult {
    let n = a.dim();
    assert_eq!(b.len(), n);
    assert_eq!(x.len(), n);
    let _span = mrhs_telemetry::span("solver/bicgstab");
    mrhs_telemetry::counter_add("solver/bicgstab/solves", 1);

    let b_norm = norm(b);
    if b_norm == 0.0 {
        x.fill(0.0);
        return BicgstabResult {
            iterations: 0,
            converged: true,
            residual_norm: 0.0,
            breakdown: None,
        };
    }
    let threshold = cfg.tol * b_norm;

    // r = b − A·x; the shadow residual r̃ is frozen at r₀.
    let mut r = vec![0.0; n];
    a.apply(x, &mut r);
    for (ri, bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let r_tilde = r.clone();
    let mut rho = dot(&r_tilde, &r);
    let mut residual_norm = norm(&r);
    if residual_norm <= threshold {
        return BicgstabResult {
            iterations: 0,
            converged: true,
            residual_norm,
            breakdown: None,
        };
    }

    let mut p = r.clone();
    let mut v = vec![0.0; n];
    let mut s = vec![0.0; n];
    let mut t = vec![0.0; n];
    let mut iterations = 0;
    let mut converged = false;
    let mut breakdown = None;

    for it in 1..=cfg.max_iter {
        a.apply(&p, &mut v);
        let rv = dot(&r_tilde, &v);
        if rv == 0.0 || !rv.is_finite() {
            // α is undefined: the bi-orthogonality recursion collapsed
            // before this iteration touched x.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        let alpha = rho / rv;
        for i in 0..n {
            s[i] = r[i] - alpha * v[i];
        }
        let s_norm = norm(&s);
        if !s_norm.is_finite() {
            // α blew up (near-singular r̃ᵀv); x is untouched.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        if s_norm <= threshold {
            // Converged at the half step; ω is not needed.
            for i in 0..n {
                x[i] += alpha * p[i];
            }
            iterations = it;
            mrhs_telemetry::counter_add("solver/bicgstab/iterations", 1);
            residual_norm = s_norm;
            converged = true;
            break;
        }
        a.apply(&s, &mut t);
        let tt = dot(&t, &t);
        let omega = dot(&t, &s) / tt;
        if tt == 0.0 || omega == 0.0 || !omega.is_finite() {
            // The stabilizer is undefined; accept the half step so the
            // reported norm describes the returned x (= s exactly).
            for i in 0..n {
                x[i] += alpha * p[i];
            }
            iterations = it;
            mrhs_telemetry::counter_add("solver/bicgstab/iterations", 1);
            residual_norm = s_norm;
            breakdown =
                Some(Breakdown { iteration: it, kind: BreakdownKind::Omega });
            break;
        }
        for i in 0..n {
            x[i] += alpha * p[i] + omega * s[i];
            r[i] = s[i] - omega * t[i];
        }
        iterations = it;
        mrhs_telemetry::counter_add("solver/bicgstab/iterations", 1);
        residual_norm = norm(&r);
        if residual_norm <= threshold {
            converged = true;
            break;
        }
        let rho_new = dot(&r_tilde, &r);
        if rho_new == 0.0 || !rho_new.is_finite() {
            // r̃ has become orthogonal to the residual while ‖r‖ > tol:
            // the Lanczos recursion is exhausted for this shadow vector.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        let beta = (rho_new / rho) * (alpha / omega);
        for i in 0..n {
            p[i] = r[i] + beta * (p[i] - omega * v[i]);
        }
        rho = rho_new;
    }

    BicgstabResult { iterations, converged, residual_norm, breakdown }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::operator::{CountingOperator, DenseOperator, LinearOperator};
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    /// Nonsymmetric convection–diffusion block tridiagonal: the upwind
    /// coupling is stronger than the downwind one.
    fn convection(nb: usize, peclet: f64) -> BcrsMatrix {
        let mut tb = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            tb.add(bi, bi, Block3::scaled_identity(4.0));
            if bi + 1 < nb {
                tb.add(bi, bi + 1, Block3::scaled_identity(-1.0 + peclet));
                tb.add(bi + 1, bi, Block3::scaled_identity(-1.0 - peclet));
            }
        }
        tb.build()
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 7919) % 23) as f64 / 11.0 - 1.0).collect()
    }

    #[test]
    fn solves_nonsymmetric_system_to_tolerance() {
        let a = convection(40, 0.4);
        let n = a.n_rows();
        let b = rhs(n);
        let mut x = vec![0.0; n];
        let cfg = SolveConfig { tol: 1e-10, max_iter: 600 };
        let res = bicgstab(&a, &b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");
        assert!(res.breakdown.is_none());

        let mut ax = vec![0.0; n];
        a.apply(&x, &mut ax);
        let rn =
            b.iter().zip(&ax).map(|(u, v)| (u - v) * (u - v)).sum::<f64>().sqrt();
        let bn = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(rn <= 2e-10 * bn, "{rn} vs {bn}");
    }

    #[test]
    fn matches_cg_on_spd_systems() {
        // On an SPD matrix both methods must find the same solution.
        let mut tb = BlockTripletBuilder::square(20);
        for bi in 0..20 {
            tb.add(bi, bi, Block3::scaled_identity(4.0));
            if bi + 1 < 20 {
                tb.add_symmetric_pair(bi, bi + 1, Block3::scaled_identity(-1.0));
            }
        }
        let a = tb.build();
        let n = a.n_rows();
        let b = rhs(n);
        let cfg = SolveConfig { tol: 1e-11, max_iter: 500 };
        let mut x_bi = vec![0.0; n];
        let mut x_cg = vec![0.0; n];
        assert!(bicgstab(&a, &b, &mut x_bi, &cfg).converged);
        assert!(cg(&a, &b, &mut x_cg, &cfg).converged);
        for (u, v) in x_bi.iter().zip(&x_cg) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn two_applies_per_iteration() {
        let a = convection(25, 0.3);
        let c = CountingOperator::new(&a);
        let n = a.n_rows();
        let b = rhs(n);
        let mut x = vec![0.0; n];
        let res = bicgstab(&c, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        // Initial residual plus two per full iteration; a half-step
        // convergence exit saves the second apply of its iteration.
        let applies = c.single_applies();
        assert!(
            applies == 2 * res.iterations + 1 || applies == 2 * res.iterations,
            "{applies} applies over {} iterations",
            res.iterations
        );
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = convection(5, 0.2);
        let n = a.n_rows();
        let mut x = vec![1.0; n];
        let res = bicgstab(&a, &vec![0.0; n], &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rho_breakdown_on_skew_operator_is_reported_with_x_untouched() {
        // For skew-symmetric A, r̃ᵀ·A·r̃ = 0 exactly, so the very first
        // α denominator vanishes: the canonical ρ collapse.
        struct Skew;
        impl LinearOperator for Skew {
            fn dim(&self) -> usize {
                2
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                y[0] = x[1];
                y[1] = -x[0];
            }
        }
        let b = vec![1.0, 2.0];
        let mut x = vec![0.0; 2];
        let res = bicgstab(&Skew, &b, &mut x, &SolveConfig::default());
        assert!(!res.converged);
        assert_eq!(
            res.breakdown,
            Some(Breakdown { iteration: 1, kind: BreakdownKind::Rho })
        );
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0), "x must be untouched");
        // The reported norm is still the initial residual's, ‖b‖.
        assert_eq!(res.residual_norm, 5.0f64.sqrt());
    }

    #[test]
    fn omega_breakdown_accepts_the_half_step() {
        // Rank-deficient A = [[1,1],[0,0]]: with b = (1,1) the half-step
        // residual s = (−1,1) lands exactly in ker A, so t = A·s = 0 and
        // ω = 0/0 is undefined — but x must still carry the α·p half
        // update and the reported norm must equal ‖b − A·x‖.
        struct RankOne;
        impl LinearOperator for RankOne {
            fn dim(&self) -> usize {
                2
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                y[0] = x[0] + x[1];
                y[1] = 0.0;
            }
        }
        let b = vec![1.0, 1.0];
        let mut x = vec![0.0; 2];
        let res = bicgstab(
            &RankOne,
            &b,
            &mut x,
            &SolveConfig { tol: 1e-14, max_iter: 10 },
        );
        assert_eq!(
            res.breakdown,
            Some(Breakdown { iteration: 1, kind: BreakdownKind::Omega }),
            "{res:?}"
        );
        assert_eq!(res.iterations, 1);
        assert!(!res.converged);
        let mut ax = vec![0.0; 2];
        RankOne.apply(&x, &mut ax);
        let rn =
            b.iter().zip(&ax).map(|(u, v)| (u - v) * (u - v)).sum::<f64>().sqrt();
        assert!(
            (rn - res.residual_norm).abs() <= 1e-12 * (1.0 + rn),
            "reported {} vs recomputed {rn}: bookkeeping must describe x",
            res.residual_norm
        );
    }

    #[test]
    fn nan_operator_reports_breakdown_not_convergence() {
        struct NanOp;
        impl LinearOperator for NanOp {
            fn dim(&self) -> usize {
                4
            }
            fn apply(&self, _x: &[f64], y: &mut [f64]) {
                y.fill(f64::NAN);
            }
        }
        let b = vec![1.0; 4];
        let mut x = vec![0.0; 4];
        let res = bicgstab(&NanOp, &b, &mut x, &SolveConfig::default());
        assert!(!res.converged);
        assert!(res.breakdown.is_some());
    }

    #[test]
    fn dense_nonsymmetric_small_system_exact() {
        let a = DenseOperator::new(
            3,
            vec![3.0, 1.0, 0.5, -1.0, 4.0, 1.0, 0.0, -0.5, 5.0],
        );
        let b = vec![1.0, -2.0, 0.5];
        let mut x = vec![0.0; 3];
        let res =
            bicgstab(&a, &b, &mut x, &SolveConfig { tol: 1e-13, max_iter: 50 });
        assert!(res.converged, "{res:?}");
        let mut ax = vec![0.0; 3];
        a.apply(&x, &mut ax);
        for (u, v) in ax.iter().zip(&b) {
            assert!((u - v).abs() < 1e-10);
        }
    }
}
