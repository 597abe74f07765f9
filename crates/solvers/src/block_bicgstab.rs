//! Block BiCGStab (El Guennouni–Jbilou–Sadok 2003) for nonsymmetric
//! systems with `m` right-hand sides.
//!
//! This is the nonsymmetric counterpart of [`crate::block_cg()`]: each
//! iteration streams the matrix through **two** GSPMVs with all `m`
//! columns (`V = A·P` and `T = A·S`) plus small `m×m` Gram reductions
//! and coefficient solves. Krasnopolsky (arXiv:1907.12874) shows the
//! MRHS amortization argument of the source paper carries over to this
//! structure on convection-dominated CFD systems: the matrix-stream
//! cost is paid once per sweep regardless of `m`, so batching
//! right-hand sides amortizes memory traffic exactly as block CG does,
//! at two matrix streams per iteration instead of one.
//!
//! The shadow Gram `ρ = R̃ᵀR` is recomputed from scratch every
//! iteration — three `n·m²` shadow reductions per iteration (`R̃ᵀV`,
//! `R̃ᵀT`, `R̃ᵀR`).
//!
//! All dense sweeps go through the register-tiled, kernel-backend-
//! dispatched [`MultiVec`] kernels (`gram`, `add_mul_dense`,
//! `sub_mul_dense_then_gram`, `assign_add_mul_dense`), so the solve is
//! bitwise deterministic whenever the operator's `apply_multi` is.
//!
//! At m = 1 every `m×m` solve is a scalar division and this is classic
//! BiCGStab (van der Vorst 1992): α = ρ/r̃ᵀv, ω = ⟨t,s⟩/⟨t,t⟩,
//! β = −r̃ᵀt/r̃ᵀv, with the same half-step exit. It is the repo's one
//! BiCGStab; a single right-hand side is a width-1 `MultiVec`.
//!
//! Breakdowns are structural, not stagnation: a singular `R̃ᵀV`
//! coefficient solve is a ρ collapse (the bi-orthogonality recursion
//! lost rank), an undefined or zero stabilizer is an ω collapse.
//! Options, result and per-column bookkeeping are the contract of
//! [`mod@crate::block`].

use crate::block::{
    diag, solve_coefficients, sqrt_into, BlockSolveOptions, BlockSolveResult,
    Breakdown, BreakdownKind, ColumnTracker, BLOCK_BICGSTAB,
};
use crate::cg::SolveConfig;
use crate::operator::LinearOperator;
use mrhs_sparse::MultiVec;

/// Solves `A·X = B` for nonsymmetric `A` and `m` right-hand sides,
/// starting from the guess already in `x`.
pub fn block_bicgstab<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    cfg: &SolveConfig,
) -> BlockSolveResult {
    block_bicgstab_with_options(a, b, x, &BlockSolveOptions::from(*cfg))
}

/// [`block_bicgstab`] with explicit [`BlockSolveOptions`]. An ω
/// collapse counts its iteration as completed at the half step:
/// `X += P·α` was applied and `residual_norms` describes
/// `S = B − A·X` exactly.
pub fn block_bicgstab_with_options<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockSolveOptions,
) -> BlockSolveResult {
    // R = B − A·X; the shadow block R̃ is frozen at R₀.
    let (mut track, mut r) = ColumnTracker::start(&BLOCK_BICGSTAB, a, b, x, opts);
    let (n, m) = b.shape();
    let r_tilde = r.clone();

    // ρ = R̃ᵀR (m×m). At iteration 0, R = R̃ so this is the residual
    // Gram and its diagonal gives the initial norms.
    let mut rho = r_tilde.gram(&r);
    if track.initial(diag(&rho, m)) {
        return track.finish(None);
    }

    let mut p = r.clone();
    let mut v = MultiVec::zeros(n, m);
    let mut s = MultiVec::zeros(n, m);
    let mut t = MultiVec::zeros(n, m);
    let mut breakdown = None;
    // The small temporaries of an iteration, allocated once per solve.
    // `lu` is the copy of R̃ᵀV that `lu_solve` destroys; `gram` holds
    // SᵀS, then RᵀR (only their diagonals are used).
    let mut rv = vec![0.0; m * m];
    let mut lu = vec![0.0; m * m];
    let mut alpha = vec![0.0; m * m];
    let mut beta = vec![0.0; m * m];
    let mut sigma = vec![0.0; m * m];
    let mut gram = vec![0.0; m * m];
    let mut norms_s = vec![0.0; m];
    let mut dots = vec![0.0; m];

    for it in 1..=opts.solve.max_iter {
        let _iter_timer = track.iter_timer();
        // V = A·P (GSPMV 1); α solves (R̃ᵀV)·α = ρ. No symmetrization
        // and no ridge: R̃ᵀV is genuinely nonsymmetric, and a singular
        // coefficient matrix *is* the ρ collapse — reporting it is the
        // contract, papering over it is not.
        a.apply_multi(&p, &mut v);
        r_tilde.gram_into(&v, &mut rv);
        lu.copy_from_slice(&rv);
        alpha.copy_from_slice(&rho);
        if !solve_coefficients(&mut lu, &mut alpha, m) {
            // X, R and ρ still describe iteration `it − 1`.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // S = R − V·α, fused with the SᵀS reduction whose diagonal is
        // the half-step residual norms.
        s.as_mut_slice().copy_from_slice(r.as_slice());
        s.sub_mul_dense_then_gram_into(&v, &alpha, &mut gram);
        sqrt_into(diag(&gram, m), &mut norms_s);
        if norms_s.iter().any(|v| v.is_infinite()) {
            // α blew up through a near-singular R̃ᵀV; X is untouched.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        if track.would_converge(&norms_s) {
            // Every still-active column converged at the half step: take
            // the half update and stop — ω is not needed, and the
            // reported norms describe X + P·α exactly (R = S there).
            x.add_mul_dense(&p, &alpha);
            track.completed_with_norms(it, &norms_s);
            break;
        }

        // T = A·S (GSPMV 2); scalar stabilizer ω = ⟨T,S⟩_F / ⟨T,T⟩_F.
        a.apply_multi(&s, &mut t);
        t.dot_columns_into(&t, &mut dots);
        let tt: f64 = dots.iter().sum();
        t.dot_columns_into(&s, &mut dots);
        let ts: f64 = dots.iter().sum();
        let omega = ts / tt;
        if tt == 0.0 || omega == 0.0 || !omega.is_finite() {
            // Stabilizer undefined. S is finite here (checked above), so
            // accept the half step: residual of the returned X is S.
            x.add_mul_dense(&p, &alpha);
            track.completed_with_norms(it, &norms_s);
            breakdown =
                Some(Breakdown { iteration: it, kind: BreakdownKind::Omega });
            break;
        }

        // σ = R̃ᵀT feeds β.
        r_tilde.gram_into(&t, &mut sigma);

        // X += P·α + ω·S ; R = S − ω·T, then the RᵀR reduction. The old
        // R is dead, so R takes S's buffer (S is rebuilt from R at the
        // top of the next iteration).
        x.add_mul_dense(&p, &alpha);
        x.axpy(omega, &s);
        std::mem::swap(&mut r, &mut s);
        r.axpy(-omega, &t);
        r.gram_into(&r, &mut gram);
        if track.completed(it, diag(&gram, m)) {
            break;
        }

        // ρ_{k+1}: a fresh shadow Gram.
        r_tilde.gram_into(&r, &mut rho);
        // β solves (R̃ᵀV)·β = −σ with the same coefficient matrix as α.
        for (beta_v, sigma_v) in beta.iter_mut().zip(&sigma) {
            *beta_v = -sigma_v;
        }
        if !solve_coefficients(&mut rv, &mut beta, m) {
            // Iteration `it` completed its X/R updates; the reported
            // norms already describe it.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // P ← R + (P − ω·V)·β
        p.axpy(-omega, &v);
        p.assign_add_mul_dense(&r, &beta);
    }

    track.finish(breakdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testkit::{
        convection, pseudo_multivec, true_residual_norms, PoisonAfter,
    };
    use crate::operator::CountingOperator;
    use oracle::reference::{gauss_solve, naive_bicgstab, Dense};

    #[test]
    fn solves_each_column_to_tolerance() {
        let a = convection(30, 0.35);
        let n = a.n_rows();
        let m = 6;
        let b = pseudo_multivec(n, m, 17);
        let mut x = MultiVec::zeros(n, m);
        let cfg = SolveConfig { tol: 1e-8, max_iter: 600 };
        let res = block_bicgstab(&a, &b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");
        assert!(res.breakdown.is_none());

        let rn = true_residual_norms(&a, &b, &x);
        let bn = b.norms();
        for j in 0..m {
            assert!(rn[j] <= 5e-8 * bn[j], "col {j}: {} vs {}", rn[j], bn[j]);
        }
    }

    /// At m = 1 every m×m solve is a scalar division and the recursion
    /// is classic BiCGStab: it tracks the oracle's textbook scalar
    /// BiCGStab (±1 iteration each way for the half-step exit) and
    /// lands on the direct solution.
    #[test]
    fn single_column_matches_scalar_bicgstab() {
        let a = convection(25, 0.3);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 1, 9);
        let cfg = SolveConfig { tol: 1e-9, max_iter: 500 };

        let mut xb = MultiVec::zeros(n, 1);
        let rb = block_bicgstab(&a, &b, &mut xb, &cfg);
        let dense = Dense::from_bcrs(&a);
        let mut xs = vec![0.0; n];
        let rs =
            naive_bicgstab(&dense, b.as_slice(), &mut xs, cfg.tol, cfg.max_iter);
        assert!(rb.converged && rs.converged, "{rb:?} {rs:?}");
        assert!(
            rb.iterations.abs_diff(rs.iterations) <= 2,
            "block {} vs scalar {}",
            rb.iterations,
            rs.iterations
        );
        let exact = gauss_solve(&dense, b.as_slice()).expect("nonsingular");
        for ((u, v), w) in xb.as_slice().iter().zip(&xs).zip(&exact) {
            assert!((u - v).abs() < 1e-5, "{u} vs scalar {v}");
            assert!((u - w).abs() < 1e-5, "{u} vs direct {w}");
        }
    }

    #[test]
    fn two_gspmv_per_iteration() {
        let a = convection(20, 0.25);
        let c = CountingOperator::new(&a);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 3);
        let mut x = MultiVec::zeros(n, m);
        let res = block_bicgstab(&c, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        // Initial residual plus two per full iteration; a half-step
        // exit saves the trailing T = A·S of its iteration.
        let applies = c.multi_applies();
        assert!(
            applies == 2 * res.iterations + 1 || applies == 2 * res.iterations,
            "{applies} multi-applies over {} iterations",
            res.iterations
        );
        assert_eq!(c.single_applies(), 0);
    }

    #[test]
    fn rho_breakdown_reports_last_completed_iteration() {
        let a = convection(25, 0.3);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 41);
        let cfg = SolveConfig { tol: 1e-13, max_iter: 100 };

        // Good for the initial residual plus 3 full iterations (two
        // GSPMVs each), then poison: iteration 4's V = A·P is NaN and
        // its R̃ᵀV solve must fail.
        let poisoned = PoisonAfter::new(&a, 7);
        let mut x = MultiVec::zeros(n, m);
        let res = block_bicgstab(&poisoned, &b, &mut x, &cfg);
        assert!(!res.converged);
        assert_eq!(
            res.breakdown,
            Some(Breakdown { iteration: 4, kind: BreakdownKind::Rho }),
            "{res:?}"
        );
        assert_eq!(res.iterations, 3);

        // The reported norms and X must match a clean run truncated at
        // the same iteration count.
        let clean_cfg = SolveConfig { tol: 1e-13, max_iter: 3 };
        let mut x_clean = MultiVec::zeros(n, m);
        let clean = block_bicgstab(&a, &b, &mut x_clean, &clean_cfg);
        assert_eq!(clean.iterations, 3);
        assert!(clean.breakdown.is_none());
        for (u, v) in res.residual_norms.iter().zip(&clean.residual_norms) {
            assert!(u.is_finite(), "stale/poisoned norm leaked: {u}");
            assert_eq!(u, v, "norms must match the completed iteration");
        }
        for (u, v) in x.as_slice().iter().zip(x_clean.as_slice()) {
            assert_eq!(u, v);
        }
    }

    #[test]
    fn omega_breakdown_on_second_gspmv_accepts_half_step() {
        // Poison exactly the T = A·S apply of iteration 1 (the third
        // multi-apply): ⟨T,T⟩ is NaN, ω is undefined, and the solve
        // must take the half step and report an ω collapse with norms
        // describing B − A·X exactly.
        let a = convection(25, 0.3);
        let n = a.n_rows();
        let m = 3;
        let b = pseudo_multivec(n, m, 53);
        let poisoned = PoisonAfter::new(&a, 2);
        let mut x = MultiVec::zeros(n, m);
        let cfg = SolveConfig { tol: 1e-13, max_iter: 50 };
        let res = block_bicgstab(&poisoned, &b, &mut x, &cfg);
        assert!(!res.converged);
        assert_eq!(
            res.breakdown,
            Some(Breakdown { iteration: 1, kind: BreakdownKind::Omega }),
            "{res:?}"
        );
        assert_eq!(res.iterations, 1);

        let rn = true_residual_norms(&a, &b, &x);
        for (u, v) in res.residual_norms.iter().zip(&rn) {
            assert!(u.is_finite());
            assert!(
                (u - v).abs() <= 1e-10 * (1.0 + v),
                "reported {u} vs recomputed {v}"
            );
        }
    }

    #[test]
    fn rank_deficient_rhs_reports_rho_breakdown() {
        // Two identical columns make R₀ rank-deficient, so R̃ᵀV is
        // singular from the start — the block ρ collapse in its purest
        // form, detected before X is touched.
        let a = convection(15, 0.3);
        let n = a.n_rows();
        let col = pseudo_multivec(n, 1, 7).column(0);
        let b = MultiVec::from_columns(&[col.as_slice(), col.as_slice()]);
        let mut x = MultiVec::zeros(n, 2);
        let res = block_bicgstab(&a, &b, &mut x, &SolveConfig::default());
        assert!(!res.converged);
        let bd = res.breakdown.expect("must report breakdown");
        assert_eq!(bd.kind, BreakdownKind::Rho);
        assert_eq!(res.iterations, bd.iteration - 1);
        assert!(x.as_slice().iter().all(|&v| v == 0.0), "x must be untouched");
    }
}
