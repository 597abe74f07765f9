//! Block BiCGStab (El Guennouni–Jbilou–Sadok 2003) for nonsymmetric
//! systems with `m` right-hand sides, preconditioned on the right.
//!
//! This is the nonsymmetric counterpart of [`crate::block_cg()`]: each
//! iteration streams the matrix through **two** GSPMVs with all `m`
//! columns (`V = A·P̂` and `T = A·Ŝ`) plus small `m×m` Gram reductions
//! and coefficient solves. Krasnopolsky (arXiv:1907.12874) shows the
//! MRHS amortization argument of the source paper carries over to this
//! structure on convection-dominated CFD systems: the matrix-stream
//! cost is paid once per sweep regardless of `m`, so batching
//! right-hand sides amortizes memory traffic exactly as block CG does,
//! at two matrix streams per iteration instead of one.
//!
//! The preconditioner is what [`crate::precond`] chooses for block CG,
//! at every width: block symmetric Gauss–Seidel when the operator
//! hands over its block rows (`M⁻¹ = C⁻ᵀ·C⁻¹`, a forward and a
//! backward sweep, which together read the matrix once), else
//! block-Jacobi on its diagonal, else the identity — which is the
//! unpreconditioned recurrence bit for bit. It is applied on the
//! right, in van der Vorst's form:
//!
//! ```text
//!   P̂ = M⁻¹P   V = A·P̂   S = R − V·α   Ŝ = M⁻¹S   T = A·Ŝ
//!   X += P̂·α + ω·Ŝ      R = S − ω·T
//! ```
//!
//! so `R` stays the recurrence for the true residual `B − A·X` and the
//! stopping rule compares what it compares unpreconditioned.
//!
//! The recurrence's residual drifts from the true one, and on an
//! ill-conditioned operator it can read below a threshold the true
//! residual is still above. So where the recurrence would stop — at
//! the half step or the full step — `B − A·X` is recomputed once: the
//! solve stops only if every column's recomputed norm meets its
//! threshold; otherwise the recomputed residual replaces the
//! recurrence's and the solve goes on (Krasnopolsky's remedy). A
//! column above its threshold there no longer counts as converged, so
//! `converged` means every reported norm meets its threshold.
//!
//! The shadow Gram `ρ = R̃ᵀR` is recomputed from scratch every
//! iteration — three `n·m²` shadow reductions per iteration (`R̃ᵀV`,
//! `R̃ᵀT`, `R̃ᵀR`).
//!
//! All dense sweeps go through the register-tiled, kernel-backend-
//! dispatched [`MultiVec`] kernels (`gram`, `add_mul_dense`,
//! `sub_mul_dense_then_norms`, `assign_add_mul_dense`), so the solve is
//! bitwise deterministic whenever the operator's `apply_multi` is.
//!
//! At m = 1 every `m×m` solve is a scalar division and this is classic
//! BiCGStab (van der Vorst 1992): α = ρ/r̃ᵀv, ω = ⟨t,s⟩/⟨t,t⟩,
//! β = −r̃ᵀt/r̃ᵀv, with the same half-step exit. It is the repo's one
//! BiCGStab; a single right-hand side is a width-1 `MultiVec`.
//!
//! The solve keeps six `n × m` blocks — `R`, the frozen shadow `R̃`,
//! `P`, `V = A·P̂`, `S` and `T = A·Ŝ` — and a preconditioner adds
//! none: `P̂` lives in `T`'s slot until `X += P̂·α` has read it, its
//! sweeps passing through `V` before `V = A·P̂` fills it; `Ŝ` lives in
//! `R`'s slot, dead once `S = R − V·α` is formed, its sweeps passing
//! through `T` before `T = A·Ŝ` fills it. These, the `m × m` and
//! `m`-length buffers and the split live in the per-thread workspace
//! the other solvers share, so a warm solve allocates only its result.
//!
//! Breakdowns are structural, not stagnation: a singular `R̃ᵀV`
//! coefficient solve is a ρ collapse (the bi-orthogonality recursion
//! lost rank), an undefined or zero stabilizer is an ω collapse.
//! Options, result and per-column bookkeeping are the contract of
//! [`mod@crate::block`].

use crate::block::{
    solve_coefficients, sqrt_into, BlockSolveOptions, BlockSolveResult, Breakdown,
    BreakdownKind, ColumnTracker, BLOCK_BICGSTAB,
};
use crate::cg::SolveConfig;
use crate::operator::LinearOperator;
use crate::precond;
use crate::work::{Work, Workspace};
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;

/// Dense `n·m²` sweeps one iteration is priced at beside its matrix
/// streams (`perfmodel::GspmvModel::dense_time`): the two shadow Grams
/// `R̃ᵀV` and `R̃ᵀT` and the fresh `R̃ᵀR`, the residual update
/// `S = R − V·α` (fused with its column norms), and the two update
/// sweeps (`X`, `P`).
pub const DENSE_SWEEPS: usize = 6;

/// Matrix streams of one iteration on an operator that hands over its
/// block rows: the two products and the two Gauss–Seidel applications
/// `M⁻¹P` and `M⁻¹S`, each a forward and a backward sweep that
/// together read the matrix once.
pub const MATRIX_STREAMS: usize = 4;

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
/// `X += P̂·α` was applied and `residual_norms` describes
/// `S = B − A·X`.
pub fn block_bicgstab_with_options<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockSolveOptions,
) -> BlockSolveResult {
    let (n, m) = b.shape();
    assert_eq!(n, a.dim());
    let mut held = Work::take();
    let work = held.get();
    work.size_buffers(m);
    let Workspace { blocks, squares, lines, columns, split, .. } = work;
    let [r, r_tilde, p, v, s, t] = blocks;
    // The m×m buffers: `lu` is the copy of R̃ᵀV that `lu_solve`
    // destroys.
    let [rho, rv, lu, alpha, beta, sigma] = squares;
    // `norms` holds the residual norms of the step in hand; `dots` the
    // squares they come from, then the ω reductions.
    let [norms, dots, ..] = lines;

    // R = B − A·X; the shadow block R̃ is frozen at R₀.
    let mut track =
        ColumnTracker::start(&BLOCK_BICGSTAB, b, x, opts, columns, r, |x, r| {
            a.apply_multi(x, r)
        });
    let mut pre = precond::choose(a, m, split);
    if pre.is_some() {
        telemetry::counter_add(BLOCK_BICGSTAB.preconditioned, 1);
    }
    for block in [&mut *r_tilde, &mut *p, &mut *v, &mut *s, &mut *t] {
        block.reset(n, m);
    }
    r_tilde.as_mut_slice().copy_from_slice(r.as_slice());

    // ρ = R̃ᵀR (m×m). At iteration 0, R = R̃ so this is the residual
    // Gram and its diagonal gives the initial norms.
    r_tilde.gram_into(r, rho);
    if track.initial(rho.iter().step_by(m + 1)) {
        return track.finish(None);
    }

    p.as_mut_slice().copy_from_slice(r.as_slice());
    let mut breakdown = None;

    for it in 1..=opts.solve.max_iter {
        let _iter_timer = track.iter_timer();
        // P̂ = M⁻¹P in T's slot (Gauss–Seidel sweeps through V); V =
        // A·P̂ (GSPMV 1); α solves (R̃ᵀV)·α = ρ. No symmetrization and
        // no ridge: R̃ᵀV is genuinely nonsymmetric, and a singular
        // coefficient matrix *is* the ρ collapse — reporting it is the
        // contract, papering over it is not.
        let p_hat = match &mut pre {
            Some(pre) => {
                pre.solve_into(p, t, v, dots);
                &*t
            }
            None => &*p,
        };
        a.apply_multi(p_hat, v);
        r_tilde.gram_into(v, rv);
        lu.copy_from_slice(rv);
        alpha.copy_from_slice(rho);
        if !solve_coefficients(lu, alpha, m) {
            // X, R and ρ still describe iteration `it − 1`.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // S = R − V·α, fused with its column norms: the half-step
        // residual's.
        s.as_mut_slice().copy_from_slice(r.as_slice());
        s.sub_mul_dense_then_norms_into(v, alpha, dots);
        sqrt_into(&*dots, norms);
        if norms.iter().any(|v| v.is_infinite()) {
            // α blew up through a near-singular R̃ᵀV; X is untouched.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // X += P̂·α: the half step, which every path from here keeps.
        x.add_mul_dense(p_hat, alpha);
        if track.would_converge(norms) {
            // Every still-active column converged at the half step:
            // stop there — ω is not needed — if the true residual
            // agrees, else go on from it.
            track.true_residual(b, x, s, dots, norms, |x, s| a.apply_multi(x, s));
            if track.recheck(norms) {
                track.completed_with_norms(it, norms);
                break;
            }
        }

        // Ŝ = M⁻¹S in R's slot, dead since S was formed (sweeps through
        // T, whose P̂ X has read); T = A·Ŝ (GSPMV 2); scalar stabilizer
        // ω = ⟨T,S⟩_F / ⟨T,T⟩_F.
        let s_hat = match &mut pre {
            Some(pre) => {
                pre.solve_into(s, r, t, dots);
                &*r
            }
            None => &*s,
        };
        a.apply_multi(s_hat, t);
        t.dot_columns_into(t, dots);
        let tt: f64 = dots.iter().sum();
        t.dot_columns_into(s, dots);
        let ts: f64 = dots.iter().sum();
        let omega = ts / tt;
        if tt == 0.0 || omega == 0.0 || !omega.is_finite() {
            // Stabilizer undefined. S is finite here (checked above), so
            // accept the half step: residual of the returned X is S.
            track.completed_with_norms(it, norms);
            breakdown =
                Some(Breakdown { iteration: it, kind: BreakdownKind::Omega });
            break;
        }

        // σ = R̃ᵀT feeds β.
        r_tilde.gram_into(t, sigma);

        // X += ω·Ŝ ; R = S − ω·T and its column norms. R's slot holds
        // Ŝ or the old R, both dead now, so R takes S's buffer (S is
        // rebuilt from R at the top of the next iteration).
        x.axpy(omega, s_hat);
        std::mem::swap(r, s);
        r.axpy(-omega, t);
        r.dot_columns_into(r, dots);
        sqrt_into(&*dots, norms);
        if track.would_converge(norms) {
            // The full step's stop, checked on the true residual: a
            // column above its threshold there keeps the solve going.
            track.true_residual(b, x, r, dots, norms, |x, r| a.apply_multi(x, r));
            track.recheck(norms);
        }
        if track.completed_with_norms(it, norms) {
            break;
        }

        // ρ_{k+1}: a fresh shadow Gram.
        r_tilde.gram_into(r, rho);
        // β solves (R̃ᵀV)·β = −σ with the same coefficient matrix as α.
        for (beta_v, sigma_v) in beta.iter_mut().zip(sigma.iter()) {
            *beta_v = -sigma_v;
        }
        if !solve_coefficients(rv, beta, m) {
            // Iteration `it` completed its X/R updates; the reported
            // norms already describe it.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // P ← R + (P − ω·V)·β
        p.axpy(-omega, v);
        p.assign_add_mul_dense(r, beta);
    }

    track.finish(breakdown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testkit::{
        convection, pseudo_multivec, true_residual_norms, HiddenDiagonal,
        JacobiOnly, PoisonAfter,
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
    /// is classic BiCGStab: unpreconditioned, it tracks the oracle's
    /// textbook scalar BiCGStab (±1 iteration each way for the
    /// half-step exit) and lands on the direct solution.
    #[test]
    fn single_column_matches_scalar_bicgstab() {
        let a = convection(25, 0.3);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 1, 9);
        let cfg = SolveConfig { tol: 1e-9, max_iter: 500 };

        let mut xb = MultiVec::zeros(n, 1);
        let rb = block_bicgstab(&HiddenDiagonal(&a), &b, &mut xb, &cfg);
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

    /// Every preconditioner path costs the same products: the initial
    /// residual, two per full iteration (`V = A·P̂`, `T = A·Ŝ`; a
    /// half-step exit saves the second) and the true residual
    /// recomputed at the stop. Gauss–Seidel's sweeps and Jacobi's
    /// block-diagonal pass are no products; what they buy is
    /// iterations.
    #[test]
    fn two_gspmv_per_iteration() {
        let a = convection(20, 0.25);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 3);
        let (jacobi, hidden) = (JacobiOnly(&a), HiddenDiagonal(&a));
        let paths: [(&str, &dyn LinearOperator); 3] =
            [("sgs", &a), ("jacobi", &jacobi), ("none", &hidden)];
        let mut iterations = Vec::new();
        for (path, op) in paths {
            let c = CountingOperator::new(op);
            let mut x = MultiVec::zeros(n, m);
            let res = block_bicgstab(&c, &b, &mut x, &SolveConfig::default());
            assert!(res.converged, "{path}: {res:?}");
            let (k, applies) = (res.iterations, c.multi_applies());
            assert!(
                applies == 2 * k + 2 || applies == 2 * k + 1,
                "{path}: {applies} multi-applies over {k} iterations"
            );
            assert_eq!(c.single_applies(), 0, "{path}");
            iterations.push(k);
        }
        assert!(iterations[0] < iterations[2], "{iterations:?}");
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
        // the same iteration count (`PoisonAfter` keeps block-Jacobi,
        // so the clean run does too).
        let clean_cfg = SolveConfig { tol: 1e-13, max_iter: 3 };
        let mut x_clean = MultiVec::zeros(n, m);
        let clean = block_bicgstab(&JacobiOnly(&a), &b, &mut x_clean, &clean_cfg);
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

    /// FNV-1a over the words of a solution.
    fn checksum(x: &MultiVec) -> u64 {
        x.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Solutions of `op` at m = 1 and m = 8 as checksums, each solve
    /// converged.
    fn solve_checksums(op: &dyn LinearOperator) -> Vec<u64> {
        let n = op.dim();
        let cfg = SolveConfig { tol: 1e-10, max_iter: 200 };
        [1usize, 8]
            .into_iter()
            .map(|m| {
                let b = pseudo_multivec(n, m, 71);
                let mut x = MultiVec::zeros(n, m);
                let res = block_bicgstab(op, &b, &mut x, &cfg);
                assert!(res.converged, "m = {m}: {res:?}");
                checksum(&x)
            })
            .collect()
    }

    /// Solution bits per kernel family at m = 1 and m = 8, recorded at
    /// 8799975, on a convection operator past the 2^14-block parallel
    /// threshold whose diagonal is hidden: where the solver's blocks
    /// come from must not move them, and the identity preconditioner
    /// is the unpreconditioned recurrence bit for bit.
    #[test]
    fn bicgstab_bits_pinned() {
        use mrhs_sparse::KernelKind;
        let a = convection(6000, 0.35);
        assert!(a.nnz_blocks() >= 1 << 14);
        let got = solve_checksums(&HiddenDiagonal(&a));
        let want: [u64; 2] = match mrhs_sparse::active_backend().kind() {
            KernelKind::Scalar => [0xdb9b_f9c5_da75_07cb, 0x2677_ed44_10de_e250],
            KernelKind::Simd => [0x4ccf_1107_fd28_d372, 0xa42f_e51c_e4f5_bdf1],
        };
        assert_eq!(got, want, "got {got:#018x?}");
    }

    /// The Gauss–Seidel path's solution bits per kernel family at
    /// m = 1 and m = 8, on the operator of [`bicgstab_bits_pinned`]
    /// with its block rows handed over.
    #[test]
    fn preconditioned_bicgstab_bits_pinned() {
        use mrhs_sparse::KernelKind;
        let a = convection(6000, 0.35);
        let got = solve_checksums(&a);
        let want: [u64; 2] = match mrhs_sparse::active_backend().kind() {
            KernelKind::Scalar => [0xa854_de31_551a_619d, 0x3461_b0f3_26f6_031d],
            KernelKind::Simd => [0xcffd_5a92_f86c_a861, 0x2670_d390_fc6b_942e],
        };
        assert_eq!(got, want, "got {got:#018x?}");
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
