//! The preconditioners of the block solvers — the one CG recurrence,
//! [`block_cg()`](crate::block_cg()), whose width-1 case is
//! [`cg()`](crate::cg()), and block BiCGStab,
//! [`block_bicgstab()`](crate::block_bicgstab()) — chosen once per
//! solve from what the operator names, by one rule at every width.
//! Nothing selects a preconditioner and nothing switches it off; the
//! solve asks the operator and takes the strongest it allows:
//!
//! * **Block symmetric Gauss–Seidel**, when it hands over its block
//!   rows ([`LinearOperator::block_rows`]), at every width:
//!   `M = (D+L)·D⁻¹·(D+U) = C·Cᵀ` from the matrix's own 3×3 blocks
//!   (`Cᵀ` standing for `L_d⁻¹·(D+U)` when `U ≠ Lᵀ`), applied by
//!   [`mrhs_sparse::sgs`]. CG runs it in Eisenstat's split form: the
//!   solve iterates on `Â = C⁻¹·A·C⁻ᵀ`, and one application of `Â` is a
//!   backward sweep over the upper blocks (`t = C⁻ᵀ·p̂`) and a forward
//!   sweep over the lower ones, which sums one source (Eisenstat's
//!   `u = v − t`). A CG iteration is those two sweeps and nothing else:
//!   the backward one also updates `p̂` and sums the curvature, the
//!   forward one moves the iterate (`x += α·t`) and the split residual
//!   `r̂` and sums its norms. It reads the matrix once and applies no
//!   product; the true residual is recomputed where the solve could
//!   stop ([`crate::block_cg()`]). BiCGStab applies
//!   `M⁻¹ = C⁻ᵀ·C⁻¹` on the right — the
//!   split's `scale`, a forward sweep and a backward sweep, which
//!   together read the matrix once — beside its two products.
//! * **Block-Jacobi**, when it names only its diagonal
//!   ([`LinearOperator::diagonal_blocks`]): `M⁻¹` is the block-diagonal
//!   matrix of the inverses of the diagonal blocks, symmetrised.
//!
//! A resistance matrix `R = μ_F·I + R_lub` is what both are for: every
//! near-contact pair adds a large positive-definite term to the two
//! particles' diagonal blocks — which Jacobi reads (EXPERIMENTS
//! "Preconditioning trial": ×0.33 iterations) — and the same coupling,
//! negated, to the off-diagonal block between them, which only
//! Gauss–Seidel reads (EXPERIMENTS "Block symmetric Gauss–Seidel":
//! ×0.46–0.5 of Jacobi's iterations again).
//!
//! The fallback: an operator that names neither — or a diagonal of the
//! wrong size, or a diagonal block whose symmetric part is not positive
//! definite, or not finite, or not stored — is solved with `M = I`,
//! which is the unpreconditioned recurrence bit for bit. A missing
//! block, an indefinite one or a NaN entry would make `M` indefinite
//! and conjugate gradients invalid, and must cost iterations, not the
//! solve. ([`Block3::cholesky`] and [`Block3::spd_inverse`] refuse the
//! same kinds of block, so such a diagonal sends the solve past both
//! preconditioners to the identity; the tests below check each kind.)
//!
//! The stopping test is not the preconditioner's business: the solve
//! still compares `‖b_j − A·x_j‖₂`, the unpreconditioned residual,
//! against `tol·‖b_j‖₂` — the quantity their callers (and the
//! benchmark's verifier) recompute; applied on the right, the
//! preconditioner leaves BiCGStab's residual that one. A test on
//! `rᵀM⁻¹r` (or on the split residual `r̂`) would stop at a different,
//! operator-dependent accuracy: on the resistance operators `r̂`
//! reaches `tol` while the true residual is still 3–4× above it.

use crate::operator::LinearOperator;
use mrhs_sparse::{BcrsMatrix, Block3, MultiVec, SgsSplit};

/// What a solve preconditions with (see the module docs).
pub(crate) enum Precond<'a> {
    /// Block symmetric Gauss–Seidel in split form.
    Sgs(Sgs<'a>),
    /// The blocks of `M⁻¹` of block-Jacobi.
    Jacobi(Vec<Block3>),
}

/// The preconditioner for an `m`-column solve on `a`, or `None` when
/// the solve must run with the identity. Gauss–Seidel builds `split`.
pub(crate) fn choose<'a, A: LinearOperator + ?Sized>(
    a: &'a A,
    m: usize,
    split: &'a mut SgsSplit,
) -> Option<Precond<'a>> {
    if let Some(rows) = a.block_rows() {
        if rows.n_rows() == a.dim() && split.rebuild(rows, m) {
            return Some(Precond::Sgs(Sgs { a: rows, split }));
        }
    }
    block_jacobi(a).map(Precond::Jacobi)
}

impl Precond<'_> {
    /// `z = M⁻¹·r`, the right preconditioner's step. Gauss–Seidel
    /// sweeps through `scratch`; block-Jacobi writes `r`'s squared
    /// column norms into `norms_sq` on the way.
    pub(crate) fn solve_into(
        &mut self,
        r: &MultiVec,
        z: &mut MultiVec,
        scratch: &mut MultiVec,
        norms_sq: &mut [f64],
    ) {
        match self {
            Precond::Sgs(sgs) => sgs.solve_into(r, z, scratch),
            Precond::Jacobi(inv) => r.block_diag_mul_into(inv, z, norms_sq),
        }
    }
}

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

/// A Gauss–Seidel preconditioner on one matrix. Its sweeps run in
/// blocks the solve passes in, each row-major `n × m`.
pub(crate) struct Sgs<'a> {
    a: &'a BcrsMatrix,
    split: &'a mut SgsSplit,
}

impl Sgs<'_> {
    /// The backward sweep of a split-form CG iteration
    /// ([`SgsSplit::upper_cg`]): `P̂ ← R̂ + P̂·diag(β)`, `T = C⁻ᵀ·P̂`, and
    /// the curvatures `p̂_jᵀÂ·p̂_j`.
    pub(crate) fn upper(
        &mut self,
        r_hat: &MultiVec,
        beta: &[f64],
        p: &mut MultiVec,
        t: &mut MultiVec,
        curvature: &mut [f64],
    ) {
        let (r, m) = (r_hat.as_slice(), r_hat.m());
        let (p, t) = (p.as_mut_slice(), t.as_mut_slice());
        self.split.upper_cg(self.a, r, beta, p, t, curvature, m);
    }

    /// The forward sweep of the same iteration ([`SgsSplit::lower_cg`],
    /// through `u`): `X += T·diag(α)`, `R̂ −= Â·P̂·diag(α)`, and the
    /// squared column norms of the updated `R̂`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lower(
        &mut self,
        p: &MultiVec,
        t: &MultiVec,
        u: &mut MultiVec,
        alpha: &[f64],
        x: &mut MultiVec,
        r_hat: &mut MultiVec,
        norms_sq: &mut [f64],
    ) {
        let (p, t, m) = (p.as_slice(), t.as_slice(), p.m());
        let (u, x, r) = (u.as_mut_slice(), x.as_mut_slice(), r_hat.as_mut_slice());
        self.split.lower_cg(self.a, p, t, u, alpha, x, r, norms_sq, m);
    }

    /// `r̂ = C⁻¹·r`, the split residual a split-form solve opens with
    /// (`scratch` holds `L_d⁻¹·r`, then what the forward solve leaves).
    pub(crate) fn forward_solve(
        &mut self,
        r: &MultiVec,
        scratch: &mut MultiVec,
        r_hat: &mut MultiVec,
    ) {
        let m = r.m();
        self.split.scale(r.as_slice(), scratch.as_mut_slice(), m);
        self.split.forward(self.a, scratch.as_mut_slice(), r_hat.as_mut_slice(), m);
    }

    /// `z = M⁻¹·r = C⁻ᵀ·C⁻¹·r`: the forward solve into `scratch` (with
    /// `z` as its scratch), then the backward sweep into `z`.
    fn solve_into(
        &mut self,
        r: &MultiVec,
        z: &mut MultiVec,
        scratch: &mut MultiVec,
    ) {
        self.forward_solve(r, z, scratch);
        self.split.upper(self.a, scratch.as_slice(), z.as_mut_slice(), r.m());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testkit::{
        lubricated, pseudo_multivec, true_residual_norms, HiddenDiagonal,
    };
    use crate::work::Work;
    use crate::{block_cg, cg, DenseOperator, SolveConfig};
    use mrhs_sparse::{BcrsMatrix, BlockTripletBuilder, KernelKind, MultiVec};

    /// Whether `choose` picks Gauss–Seidel (`Some(true)`), block-Jacobi
    /// (`Some(false)`) or the identity (`None`) for `m` columns on `a`.
    fn chosen<A: LinearOperator + ?Sized>(a: &A, m: usize) -> Option<bool> {
        let mut held = Work::take();
        choose(a, m, &mut held.get().split).map(|p| matches!(p, Precond::Sgs(_)))
    }

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
    /// invalid), Gauss–Seidel has no split and Jacobi no inverse, and
    /// both solvers run the unpreconditioned recurrence bit for bit.
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
            assert!(chosen(&broken, 4).is_none(), "{what}");
            let got = solve_bits(&broken);
            assert_eq!(got, solve_bits(&HiddenDiagonal(&broken)), "{what}");
            assert!(
                got.0.iter().all(|w| f64::from_bits(*w).is_finite()),
                "{what}: the solve was poisoned"
            );
        }
    }

    /// A NaN in a diagonal block poisons the operator's products
    /// whatever the solver does; what must hold is the NaN policy of the
    /// block-solve contract, reached through the fallback (neither
    /// Gauss–Seidel nor Jacobi takes the block): `cg` unconverged at
    /// iteration 0, `block_cg` a breakdown before `X` is touched.
    #[test]
    fn precond_nan_diagonal_entry_keeps_the_nan_policy() {
        let a = lubricated(12);
        let mut nan = Block3::scaled_identity(3.0);
        *nan.get_mut(1, 2) = f64::NAN;
        let broken = with_diagonal_block(&a, 5, Some(nan));
        assert!(block_jacobi(&broken).is_none());
        assert!(chosen(&broken, 4).is_none());
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

    /// What Gauss–Seidel is for, measured against Jacobi on the same
    /// matrix: fewer `block_cg` iterations, no product but the initial
    /// residual and the checks of the true one (two here), and — the
    /// split residual `r̂` being a different quantity — the residual it
    /// reports and stops on is still the true 2-norm one. The rule is the same at every width: one column
    /// gets Gauss–Seidel too.
    #[test]
    fn sgs_cuts_jacobi_iterations_and_keeps_the_true_residual() {
        use crate::block::testkit::JacobiOnly;
        use crate::operator::CountingOperator;
        let a = lubricated(200);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 29);
        let cfg = SolveConfig { tol: 1e-8, max_iter: 5000 };
        let counting = CountingOperator::new(&a);
        let mut x = MultiVec::zeros(n, m);
        let jacobi = block_cg(&JacobiOnly(&a), &b, &mut x, &cfg);
        x.fill(0.0);
        let sgs = block_cg(&counting, &b, &mut x, &cfg);
        assert!(jacobi.converged && sgs.converged);
        assert!(sgs.iterations < jacobi.iterations, "{sgs:?} {jacobi:?}");
        assert_eq!(counting.multi_applies(), 1 + 2);
        let truth = true_residual_norms(&a, &b, &x);
        for (j, bn) in b.norms().iter().enumerate() {
            assert!(truth[j] <= 1.1 * cfg.tol * bn, "col {j}: {truth:?}");
            let reported = sgs.residual_norms[j];
            assert!(
                (reported - truth[j]).abs() <= 1e-3 * cfg.tol * bn,
                "col {j}: reported {reported} true {}",
                truth[j]
            );
        }
        assert_eq!(chosen(&a, 1), Some(true));
        assert_eq!(chosen(&a, 2), Some(true));
    }

    /// A roundoff-asymmetric matrix — every off-diagonal block of the
    /// upper triangle off its lower mirror by a relative 1e-13, so
    /// `U ≠ Lᵀ` — converges under Gauss–Seidel: the sweeps read `U` and
    /// `L` as stored, Eisenstat's identity holds for the stored `A`, and
    /// the true residual `block_cg` stops on is that of the stored `A`.
    #[test]
    fn sgs_converges_on_a_roundoff_asymmetric_matrix() {
        let mut a = lubricated(120);
        let mut bump = 0x9e37_79b9_7f4a_7c15u64;
        for row in 0..a.nb_rows() {
            let (start, end) = (a.row_ptr()[row], a.row_ptr()[row + 1]);
            for k in start..end {
                if (a.col_idx()[k] as usize) > row {
                    for v in a.blocks_mut()[k].0.iter_mut() {
                        bump ^= bump << 13;
                        bump ^= bump >> 7;
                        bump ^= bump << 17;
                        *v *= 1.0
                            + 1e-13
                                * ((bump >> 11) as f64 / (1u64 << 53) as f64 - 0.5);
                    }
                }
            }
        }
        assert!(!a.is_symmetric_within(0.0) && a.is_symmetric_within(1e-9));
        assert_eq!(chosen(&a, 4), Some(true));
        let n = a.n_rows();
        let b = pseudo_multivec(n, 4, 61);
        let cfg = SolveConfig { tol: 1e-10, max_iter: 2000 };
        let mut x = MultiVec::zeros(n, 4);
        let res = block_cg(&a, &b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");
        let truth = true_residual_norms(&a, &b, &x);
        for (j, bn) in b.norms().iter().enumerate() {
            assert!(truth[j] <= 1.1 * cfg.tol * bn, "col {j}: {truth:?}");
        }
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
    /// `BcrsMatrix`'s diagonal, per kernel family — the width-8 one
    /// re-recorded when block CG became one CG per column.
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
            KernelKind::Scalar => [0xe004_8158_6b07_5ee2, 0x887e_1a5b_741a_76e5],
            KernelKind::Simd => [0x36ff_e3d7_7ff9_9a78, 0x2d28_6e56_d497_bb07],
        };
        assert_eq!([checksum(&x1), checksum(x8.as_slice())], want);
    }
}
