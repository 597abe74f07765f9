//! Conjugate gradients with initial guess.
//!
//! The stopping rule matches the paper (§V-B1): iterate until the
//! residual norm drops below `tol` times the norm of the right-hand side
//! (they use `tol = 1e-6`). The initial guess is passed in `x` — this is
//! exactly where the MRHS algorithm's auxiliary solutions enter.
//!
//! There is one CG: [`cg()`] is [`crate::block_cg()`]'s recurrence on
//! width-1 blocks (block CG at m = 1 is CG), counted under its own
//! `solver/cg/…` names. So it preconditions by the same rule
//! ([`crate::precond`]), stops on the same true residual, breaks down
//! on the same coefficients (a zero or NaN `pᵀq`, or a non-finite `α`
//! or `β`) and draws its vectors from the same
//! per-thread workspace — a warm solve allocates nothing. Every width-1
//! reduction sums in [`mrhs_sparse::dot`]'s eight partial sums and every
//! product is [`LinearOperator::apply`].

use crate::block::{BlockSolveOptions, CG};
use crate::block_cg;
use crate::operator::LinearOperator;
use crate::work::Work;

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
    let opts = BlockSolveOptions::from(*cfg);
    let mut work = Work::take();
    work.get().single(b, x, |b, x, work| {
        let (track, breakdown) = block_cg::iterate(&CG, a, b, x, &opts, work);
        track.finish_column(breakdown)
    })
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
    /// iteration; one that hands over its block rows costs one for the
    /// initial residual and one per check of the true residual (here
    /// one, where the solve stops), its iterations being sweeps.
    #[test]
    fn residual_drops_and_counts_applies() {
        let a = laplacian(20);
        let n = a.n_rows();
        let b = vec![1.0; n];
        let jacobi = JacobiOnly(&a);
        let ops = [(&jacobi as &dyn LinearOperator, 1, 0), (&a, 0, 1)];
        for (op, per_iteration, checks) in ops {
            let c = CountingOperator::new(op);
            let mut x = vec![0.0; n];
            let res = cg(&c, &b, &mut x, &SolveConfig::default());
            assert!(res.converged);
            // initial residual + one per iteration, or one per check
            assert_eq!(
                c.single_applies(),
                per_iteration * res.iterations + 1 + checks
            );
            // x₀ = 0, so the initial residual is b itself.
            assert!(res.residual_norm < mrhs_sparse::dot(&b, &b).sqrt());
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
