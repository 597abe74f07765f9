//! The block-Jacobi preconditioner of [`cg()`](crate::cg()) and
//! [`block_cg()`](crate::block_cg()): `M⁻¹` is the block-diagonal
//! matrix of the inverses of the operator's 3×3 diagonal blocks,
//! symmetrised, built once per solve at `O(n)`.
//!
//! A resistance matrix `R = μ_F·I + R_lub` is what it is for: every
//! near-contact pair adds a large positive-definite term to the two
//! particles' diagonal blocks, so those blocks span decades while the
//! spectrum of `M⁻¹R` does not (EXPERIMENTS "Preconditioning trial":
//! ×0.33 iterations on the benchmark's operators).
//!
//! Nothing selects it. The solvers ask the operator
//! ([`LinearOperator::diagonal_blocks`]) and take what they are given:
//!
//! * an operator that names no diagonal — or the wrong number of
//!   blocks for its dimension — is solved with `M = I`, which is the
//!   unpreconditioned recurrence bit for bit;
//! * so is one with a diagonal block whose symmetric part is not
//!   positive definite, or not finite ([`Block3::spd_inverse`]): a
//!   missing block (stored as zero), an indefinite one or a NaN entry
//!   would make `M` indefinite and conjugate gradients invalid, and
//!   must cost iterations, not the solve.
//!
//! The stopping test is not the preconditioner's business: both
//! solvers still compare `‖b_j − A·x_j‖₂`, the unpreconditioned
//! residual, against `tol·‖b_j‖₂` — the quantity their callers (and
//! the benchmark's verifier) recompute. A test on `rᵀM⁻¹r` would stop
//! at a different, operator-dependent accuracy.

use crate::operator::LinearOperator;
use mrhs_sparse::Block3;

/// The blocks of `M⁻¹` for `a`, or `None` when the solve must run with
/// the identity (see the module docs).
pub(crate) fn block_jacobi<A: LinearOperator + ?Sized>(
    a: &A,
) -> Option<Vec<Block3>> {
    let mut blocks = a.diagonal_blocks()?;
    if 3 * blocks.len() != a.dim() {
        return None;
    }
    for block in &mut blocks {
        *block = block.spd_inverse()?;
    }
    Some(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testkit::{
        lubricated, pseudo_multivec, true_residual_norms, HiddenDiagonal,
    };
    use crate::{block_cg, cg, DenseOperator, SolveConfig};
    use mrhs_sparse::{BcrsMatrix, BlockTripletBuilder, KernelKind, MultiVec};

    /// `a` with block `(bi, bi)` replaced (or, with `None`, left out of
    /// the pattern).
    fn with_diagonal_block(
        a: &BcrsMatrix,
        bi: usize,
        block: Option<Block3>,
    ) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(a.nb_rows());
        for row in 0..a.nb_rows() {
            let (cols, blocks) = a.block_row(row);
            for (c, b) in cols.iter().zip(blocks) {
                if (row, *c as usize) != (bi, bi) {
                    t.add(row, *c as usize, *b);
                }
            }
        }
        if let Some(b) = block {
            t.add(bi, bi, b);
        }
        t.build()
    }

    /// Solution and outcome of `cg` and a width-4 `block_cg`, as bits.
    fn solve_bits(op: &dyn LinearOperator) -> (Vec<u64>, Vec<usize>, Vec<bool>) {
        let n = op.dim();
        let b = pseudo_multivec(n, 4, 13);
        let cfg = SolveConfig { tol: 1e-8, max_iter: 60 };
        let mut x1 = vec![0.0; n];
        let scalar = cg(op, &b.column(0), &mut x1, &cfg);
        let mut x4 = MultiVec::zeros(n, 4);
        let block = block_cg(op, &b, &mut x4, &cfg);
        (
            x1.iter().chain(x4.as_slice()).map(|v| v.to_bits()).collect(),
            vec![scalar.iterations, block.iterations],
            vec![scalar.converged, block.converged],
        )
    }

    #[test]
    fn precond_is_built_from_a_usable_diagonal_only() {
        let a = lubricated(12);
        let inv = block_jacobi(&a).expect("SPD diagonal blocks");
        assert_eq!(inv.len(), 12);
        assert!(inv.iter().all(Block3::is_symmetric));
        assert!(block_jacobi(&HiddenDiagonal(&a)).is_none());
        assert!(block_jacobi(&DenseOperator::new(3, vec![1.0; 9])).is_none());

        /// Names one block too few for its dimension.
        struct ShortDiagonal<'a>(&'a BcrsMatrix);
        impl LinearOperator for ShortDiagonal<'_> {
            fn dim(&self) -> usize {
                self.0.dim()
            }
            fn apply(&self, x: &[f64], y: &mut [f64]) {
                self.0.apply(x, y);
            }
            fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
                Some(self.0.diagonal_blocks()[1..].to_vec())
            }
        }
        assert!(block_jacobi(&ShortDiagonal(&a)).is_none());
    }

    /// A diagonal that cannot precondition costs iterations, never the
    /// solve: with a diagonal block missing from the pattern (its
    /// inverse would be ∞) or indefinite (`M` would be, and PCG
    /// invalid), both solvers run the unpreconditioned recurrence bit
    /// for bit.
    #[test]
    fn precond_falls_back_on_a_missing_or_indefinite_diagonal_block() {
        let a = lubricated(12);
        let indefinite =
            Block3::from_rows([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        for (what, broken) in [
            ("missing", with_diagonal_block(&a, 5, None)),
            ("indefinite", with_diagonal_block(&a, 5, Some(indefinite))),
        ] {
            assert!(block_jacobi(&broken).is_none(), "{what}");
            let got = solve_bits(&broken);
            assert_eq!(got, solve_bits(&HiddenDiagonal(&broken)), "{what}");
            assert!(
                got.0.iter().all(|w| f64::from_bits(*w).is_finite()),
                "{what}: the solve was poisoned"
            );
        }
    }

    /// A NaN in a diagonal block poisons the operator's products
    /// whatever the solver does; what must hold is PR 19's policy,
    /// reached through the fallback: `cg` unconverged at iteration 0,
    /// `block_cg` a breakdown before `X` is touched.
    #[test]
    fn precond_nan_diagonal_entry_keeps_the_nan_policy() {
        let a = lubricated(12);
        let mut nan = Block3::scaled_identity(3.0);
        *nan.get_mut(1, 2) = f64::NAN;
        let broken = with_diagonal_block(&a, 5, Some(nan));
        assert!(block_jacobi(&broken).is_none());
        let n = broken.n_rows();
        let b = pseudo_multivec(n, 4, 13);
        let cfg = SolveConfig::default();

        let mut x1 = vec![0.0; n];
        let scalar = cg(&broken, &b.column(0), &mut x1, &cfg);
        assert!(!scalar.converged);
        assert_eq!(scalar.iterations, 0);

        let guess = pseudo_multivec(n, 4, 17);
        let mut x4 = guess.clone();
        let block = block_cg(&broken, &b, &mut x4, &cfg);
        assert!(!block.converged);
        assert_eq!(block.iterations, 0);
        assert_eq!(block.breakdown.map(|bd| bd.iteration), Some(1));
        assert_eq!(x4, guess, "X was touched");
    }

    /// What the preconditioner is for, and what it must not change:
    /// on a matrix with a resistance-like diagonal both solvers take
    /// well under half the iterations they take with the diagonal
    /// hidden, and the residual they report and stop on is still the
    /// true 2-norm one.
    #[test]
    fn precond_cuts_iterations_and_keeps_the_true_residual() {
        let a = lubricated(200);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 29);
        let cfg = SolveConfig { tol: 1e-8, max_iter: 5000 };
        let hidden = HiddenDiagonal(&a);
        // Recomputed `‖b_j − A·x_j‖₂` against the reported norm and
        // the threshold.
        let check = |x: &MultiVec, b: &MultiVec, reported: &[f64]| {
            let truth = true_residual_norms(&a, b, x);
            for (j, bn) in b.norms().iter().enumerate() {
                assert!(truth[j] <= 1.1 * cfg.tol * bn, "col {j}: {truth:?}");
                assert!(
                    (reported[j] - truth[j]).abs() <= 1e-3 * cfg.tol * bn,
                    "col {j}: reported {} true {}",
                    reported[j],
                    truth[j]
                );
            }
        };

        let b0 = b.gather_columns(&[0]);
        let mut x = vec![0.0; n];
        let bare = cg(&hidden, b0.as_slice(), &mut x, &cfg);
        x.fill(0.0);
        let jacobi = cg(&a, b0.as_slice(), &mut x, &cfg);
        assert!(bare.converged && jacobi.converged);
        assert!(2 * jacobi.iterations < bare.iterations, "{jacobi:?} {bare:?}");
        check(&MultiVec::from_vec(x), &b0, &[jacobi.residual_norm]);

        let mut x = MultiVec::zeros(n, m);
        let bare = block_cg(&hidden, &b, &mut x, &cfg);
        x.fill(0.0);
        let jacobi = block_cg(&a, &b, &mut x, &cfg);
        assert!(bare.converged && jacobi.converged);
        assert!(2 * jacobi.iterations < bare.iterations, "{jacobi:?} {bare:?}");
        check(&x, &b, &jacobi.residual_norms);
    }

    /// FNV-1a over the words of a solution.
    fn checksum(x: &[f64]) -> u64 {
        x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// An operator that does not name its diagonal runs the arithmetic
    /// it ran before there was a preconditioner: solution checksums
    /// recorded at 8c31030 (the parent of the PR that added it), for
    /// `cg` on a `DenseOperator` (no kernel backend involved), and for
    /// `cg` and a width-8 `block_cg` through a wrapper that hides a
    /// `BcrsMatrix`'s diagonal, per kernel family.
    #[test]
    fn precond_absent_hook_reproduces_unpreconditioned_bits() {
        let n = 24;
        let dense = DenseOperator::new(
            n,
            (0..n * n)
                .map(|k| {
                    let (i, j) = (k / n, k % n);
                    1.0 / (1.0 + i.abs_diff(j) as f64)
                        + if i == j { 2.0 } else { 0.0 }
                })
                .collect(),
        );
        let b: Vec<f64> =
            (0..n).map(|i| ((i * 7 % 11) as f64) / 11.0 - 0.4).collect();
        let mut x = vec![0.0; n];
        let cfg = SolveConfig { tol: 1e-10, max_iter: 200 };
        assert!(cg(&dense, &b, &mut x, &cfg).converged);
        assert_eq!(checksum(&x), 0x32d6_db81_d138_5fa1, "cg on DenseOperator");

        let a = lubricated(60);
        let hidden = HiddenDiagonal(&a);
        let bm = pseudo_multivec(a.n_rows(), 8, 5);
        let cfg = SolveConfig { tol: 1e-8, max_iter: 2000 };
        let mut x1 = vec![0.0; a.n_rows()];
        assert!(cg(&hidden, &bm.column(0), &mut x1, &cfg).converged);
        let mut x8 = MultiVec::zeros(a.n_rows(), 8);
        assert!(block_cg(&hidden, &bm, &mut x8, &cfg).converged);
        let want: [u64; 2] = match mrhs_sparse::active_backend().kind() {
            KernelKind::Scalar => [0xe004_8158_6b07_5ee2, 0xb049_0d61_706b_81e9],
            KernelKind::Simd => [0x36ff_e3d7_7ff9_9a78, 0xb4de_f0a0_8503_545a],
        };
        assert_eq!([checksum(&x1), checksum(x8.as_slice())], want);
    }
}
