//! Classic single-vector BiCGStab behaviours, pinned on the one
//! BiCGStab: [`block_bicgstab`] at width 1, where every `m×m` solve is
//! a scalar division.

use crate::block::testkit::{
    convection, laplacian, pseudo_multivec, true_residual_norms,
};
use crate::{
    block_bicgstab, cg, Breakdown, BreakdownKind, CountingOperator, DenseOperator,
    LinearOperator, SolveConfig,
};
use mrhs_sparse::MultiVec;

#[test]
fn solves_nonsymmetric_system_to_tolerance() {
    let a = convection(40, 0.4);
    let n = a.n_rows();
    let b = pseudo_multivec(n, 1, 17);
    let mut x = MultiVec::zeros(n, 1);
    let cfg = SolveConfig { tol: 1e-10, max_iter: 600 };
    let res = block_bicgstab(&a, &b, &mut x, &cfg);
    assert!(res.converged, "{res:?}");
    assert!(res.breakdown.is_none());

    let rn = true_residual_norms(&a, &b, &x)[0];
    let bn = b.norms()[0];
    assert!(rn <= 2e-10 * bn, "{rn} vs {bn}");
}

#[test]
fn matches_cg_on_spd_systems() {
    // On an SPD matrix both methods must find the same solution.
    let a = laplacian(20);
    let n = a.n_rows();
    let b = pseudo_multivec(n, 1, 13);
    let cfg = SolveConfig { tol: 1e-11, max_iter: 500 };
    let mut x_bi = MultiVec::zeros(n, 1);
    let mut x_cg = vec![0.0; n];
    assert!(block_bicgstab(&a, &b, &mut x_bi, &cfg).converged);
    assert!(cg(&a, b.as_slice(), &mut x_cg, &cfg).converged);
    for (u, v) in x_bi.as_slice().iter().zip(&x_cg) {
        assert!((u - v).abs() < 1e-8, "{u} vs cg {v}");
    }
}

#[test]
fn two_applies_per_iteration() {
    let a = convection(25, 0.3);
    let c = CountingOperator::new(&a);
    let n = a.n_rows();
    let b = pseudo_multivec(n, 1, 5);
    let mut x = MultiVec::zeros(n, 1);
    let res = block_bicgstab(&c, &b, &mut x, &SolveConfig::default());
    assert!(res.converged);
    // Initial residual plus two per full iteration; a half-step
    // convergence exit saves the second apply of its iteration.
    let applies = c.multi_applies();
    assert!(
        applies == 2 * res.iterations + 1 || applies == 2 * res.iterations,
        "{applies} applies over {} iterations",
        res.iterations
    );
    assert_eq!(c.single_applies(), 0);
}

#[test]
fn zero_rhs_returns_zero() {
    let a = convection(5, 0.2);
    let n = a.n_rows();
    let mut x = MultiVec::from_vec(vec![1.0; n]);
    let res =
        block_bicgstab(&a, &MultiVec::zeros(n, 1), &mut x, &SolveConfig::default());
    assert!(res.converged);
    assert_eq!(res.iterations, 0);
    assert!(x.as_slice().iter().all(|&v| v == 0.0));
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
    let b = MultiVec::from_vec(vec![1.0, 2.0]);
    let mut x = MultiVec::zeros(2, 1);
    let res = block_bicgstab(&Skew, &b, &mut x, &SolveConfig::default());
    assert!(!res.converged);
    assert_eq!(
        res.breakdown,
        Some(Breakdown { iteration: 1, kind: BreakdownKind::Rho })
    );
    assert_eq!(res.iterations, 0);
    assert!(x.as_slice().iter().all(|&v| v == 0.0), "x must be untouched");
    // The reported norm is still the initial residual's, ‖b‖.
    assert_eq!(res.residual_norms, vec![5.0f64.sqrt()]);
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
    let b = MultiVec::from_vec(vec![1.0, 1.0]);
    let mut x = MultiVec::zeros(2, 1);
    let cfg = SolveConfig { tol: 1e-14, max_iter: 10 };
    let res = block_bicgstab(&RankOne, &b, &mut x, &cfg);
    assert_eq!(
        res.breakdown,
        Some(Breakdown { iteration: 1, kind: BreakdownKind::Omega }),
        "{res:?}"
    );
    assert_eq!(res.iterations, 1);
    assert!(!res.converged);
    let rn = true_residual_norms(&RankOne, &b, &x)[0];
    assert!(
        (rn - res.residual_norms[0]).abs() <= 1e-12 * (1.0 + rn),
        "reported {} vs recomputed {rn}: bookkeeping must describe x",
        res.residual_norms[0]
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
    let b = MultiVec::from_vec(vec![1.0; 4]);
    let mut x = MultiVec::zeros(4, 1);
    let res = block_bicgstab(&NanOp, &b, &mut x, &SolveConfig::default());
    assert!(!res.converged);
    assert!(res.breakdown.is_some(), "{res:?}");
    assert_eq!(res.iterations, 0);
}

#[test]
fn dense_nonsymmetric_small_system_exact() {
    let a =
        DenseOperator::new(3, vec![3.0, 1.0, 0.5, -1.0, 4.0, 1.0, 0.0, -0.5, 5.0]);
    let b = MultiVec::from_vec(vec![1.0, -2.0, 0.5]);
    let mut x = MultiVec::zeros(3, 1);
    let res =
        block_bicgstab(&a, &b, &mut x, &SolveConfig { tol: 1e-13, max_iter: 50 });
    assert!(res.converged, "{res:?}");
    let rn = true_residual_norms(&a, &b, &x)[0];
    assert!(rn < 1e-10, "‖b − A·x‖ = {rn}");
}
