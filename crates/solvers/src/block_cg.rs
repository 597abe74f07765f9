//! Block conjugate gradients (O'Leary 1980).
//!
//! One block-CG iteration performs a single GSPMV with all `m` columns
//! plus small `m×m` reductions and solves — this is the kernel structure
//! the MRHS algorithm exploits: the auxiliary system `R₀·U = F_B` with
//! `m` right-hand sides (paper Alg. 2 step 3) costs little more per
//! iteration than single-vector CG because the matrix is streamed once
//! for all columns.
//!
//! The paper notes block methods "have been avoided because of numerical
//! issues" (rank deficiency of the block residual); we guard the small
//! solves with symmetrization and a trace-scaled ridge, which is enough
//! for the random right-hand sides that occur here (they are almost
//! surely full rank).

use crate::block::{
    solve_coefficients, BlockSolveOptions, BlockSolveResult, Breakdown,
    BreakdownKind, ColumnTracker, BLOCK_CG,
};
use crate::cg::SolveConfig;
use crate::dense;
use crate::operator::LinearOperator;
use mrhs_sparse::MultiVec;

/// Solves `A·X = B` for SPD `A` and `m` right-hand sides by block CG,
/// starting from the guess already in `x`. Each column converges when
/// its residual norm is below `cfg.tol` times that column's `‖b_j‖`.
pub fn block_cg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    cfg: &SolveConfig,
) -> BlockSolveResult {
    block_cg_with_options(a, b, x, &BlockSolveOptions::from(*cfg))
}

/// [`block_cg`] with explicit [`BlockSolveOptions`]. A failed
/// `(PᵀQ)·α = ρ` solve in iteration `k` reports
/// [`BreakdownKind::Curvature`] with `iterations = k − 1` (X untouched
/// in iteration `k`); a failed `ρ·β = ρ_new` solve reports
/// [`BreakdownKind::Rho`] with `iterations = k` (X updated).
pub fn block_cg_with_options<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockSolveOptions,
) -> BlockSolveResult {
    let (mut track, mut r) = ColumnTracker::start(&BLOCK_CG, a, b, x, opts);
    let (n, m) = b.shape();

    let mut rho = r.gram(&r); // m×m
    if track.initial(&rho) {
        return track.finish(None);
    }

    let mut p = r.clone();
    let mut q = MultiVec::zeros(n, m);
    let mut breakdown = None;
    // The m×m temporaries of an iteration, allocated once per solve:
    // `lhs` is the left-hand side `lu_solve` destroys (PᵀQ, then ρ),
    // `coef` its right-hand side and solution (α, then β).
    let mut lhs = vec![0.0; m * m];
    let mut coef = vec![0.0; m * m];
    let mut rho_new = vec![0.0; m * m];

    for it in 1..=opts.solve.max_iter {
        let _iter_timer = track.iter_timer();
        a.apply_multi(&p, &mut q);
        // α solves (PᵀQ)·α = ρ
        p.gram_into(&q, &mut lhs);
        dense::symmetrize(&mut lhs, m);
        ridge(&mut lhs, m);
        coef.copy_from_slice(&rho);
        if !solve_coefficients(&mut lhs, &mut coef, m) {
            // X, R and ρ still describe iteration `it − 1` — the state
            // reported below stays internally consistent.
            breakdown =
                Some(Breakdown { iteration: it, kind: BreakdownKind::Curvature });
            break;
        }
        // X += P·α ; R −= Q·α fused with the ρ_new = RᵀR reduction
        x.add_mul_dense(&p, &coef);
        r.sub_mul_dense_then_gram_into(&q, &coef, &mut rho_new);
        if track.completed(it, &rho_new) {
            break;
        }

        // β solves ρ·β = ρ_new. ρ_new is adopted either way: iteration
        // `it` completed its X/R updates, so on a breakdown here the
        // reported norms still describe that completed iteration.
        lhs.copy_from_slice(&rho);
        std::mem::swap(&mut rho, &mut rho_new);
        dense::symmetrize(&mut lhs, m);
        ridge(&mut lhs, m);
        coef.copy_from_slice(&rho);
        if !solve_coefficients(&mut lhs, &mut coef, m) {
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // P ← R + P·β
        p.assign_add_mul_dense(&r, &coef);
    }

    track.finish(breakdown)
}

/// Adds a tiny trace-scaled ridge so rank-deficient Gram matrices stay
/// factorizable after some columns converge.
fn ridge(a: &mut [f64], m: usize) {
    let trace: f64 = (0..m).map(|i| a[i * m + i]).sum();
    let eps = trace.abs().max(f64::MIN_POSITIVE) * 1e-14 / m as f64;
    for i in 0..m {
        a[i * m + i] += eps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::testkit::{
        laplacian, pseudo_multivec, true_residual_norms, PoisonAfter,
    };
    use crate::cg::cg;
    use crate::operator::CountingOperator;
    use mrhs_sparse::BcrsMatrix;

    #[test]
    fn solves_each_column_to_tolerance() {
        let a = laplacian(25);
        let n = a.n_rows();
        let m = 6;
        let b = pseudo_multivec(n, m, 17);
        let mut x = MultiVec::zeros(n, m);
        let cfg = SolveConfig { tol: 1e-8, max_iter: 400 };
        let res = block_cg(&a, &b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");

        let rn = true_residual_norms(&a, &b, &x);
        let bn = b.norms();
        for j in 0..m {
            assert!(rn[j] <= 2e-8 * bn[j], "col {j}: {} vs {}", rn[j], bn[j]);
        }
    }

    #[test]
    fn matches_single_cg_solutions() {
        let a = laplacian(15);
        let n = a.n_rows();
        let m = 3;
        let b = pseudo_multivec(n, m, 5);
        let cfg = SolveConfig { tol: 1e-10, max_iter: 500 };

        let mut xb = MultiVec::zeros(n, m);
        let res = block_cg(&a, &b, &mut xb, &cfg);
        assert!(res.converged);

        for j in 0..m {
            let mut xj = vec![0.0; n];
            let r = cg(&a, &b.column(j), &mut xj, &cfg);
            assert!(r.converged);
            for (u, v) in xb.column(j).iter().zip(&xj) {
                assert!((u - v).abs() < 1e-7, "col {j}");
            }
        }
    }

    #[test]
    fn block_cg_converges_in_fewer_iterations_than_cg() {
        // Block Krylov spaces are richer: iterations should not exceed
        // the worst single-vector count, and usually beat it.
        let a = laplacian(40);
        let n = a.n_rows();
        let m = 8;
        let b = pseudo_multivec(n, m, 23);
        let cfg = SolveConfig { tol: 1e-6, max_iter: 500 };

        let mut xb = MultiVec::zeros(n, m);
        let res = block_cg(&a, &b, &mut xb, &cfg);
        assert!(res.converged);

        let mut worst = 0;
        for j in 0..m {
            let mut xj = vec![0.0; n];
            let r = cg(&a, &b.column(j), &mut xj, &cfg);
            worst = worst.max(r.iterations);
        }
        assert!(
            res.iterations <= worst,
            "block {} vs worst single {}",
            res.iterations,
            worst
        );
    }

    #[test]
    fn one_gspmv_per_iteration() {
        let a = laplacian(20);
        let c = CountingOperator::new(&a);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 3);
        let mut x = MultiVec::zeros(n, m);
        let res = block_cg(&c, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        // initial residual + one per iteration
        assert_eq!(c.multi_applies(), res.iterations + 1);
        assert_eq!(c.single_applies(), 0);
    }

    #[test]
    fn initial_guess_helps_block_solve() {
        let a = laplacian(30);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 77);
        let cfg = SolveConfig::default();

        let mut x_cold = MultiVec::zeros(n, m);
        let cold = block_cg(&a, &b, &mut x_cold, &cfg);

        let mut x_warm = x_cold.clone();
        x_warm.scale(1.0 + 1e-5);
        let warm = block_cg(&a, &b, &mut x_warm, &cfg);
        assert!(warm.iterations < cold.iterations);
    }

    #[test]
    fn single_column_block_cg_equals_cg_iterations() {
        let a = laplacian(30);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 1, 9);
        let cfg = SolveConfig::default();

        let mut xb = MultiVec::zeros(n, 1);
        let rb = block_cg(&a, &b, &mut xb, &cfg);
        let mut xs = vec![0.0; n];
        let rs = cg(&a, &b.column(0), &mut xs, &cfg);
        assert!(rb.converged && rs.converged);
        assert!(rb.iterations.abs_diff(rs.iterations) <= 1);
    }

    #[test]
    fn breakdown_reports_last_completed_iteration() {
        let a = laplacian(25);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 41);
        let cfg = SolveConfig { tol: 1e-12, max_iter: 100 };

        // Good for the initial residual plus 3 iterations, then poison:
        // the 4th iteration's PᵀQ solve must fail.
        let poisoned = PoisonAfter::new(&a, 4);
        let mut x = MultiVec::zeros(n, m);
        let res = block_cg(&poisoned, &b, &mut x, &cfg);
        assert!(!res.converged);
        assert_eq!(
            res.breakdown,
            Some(Breakdown { iteration: 4, kind: BreakdownKind::Curvature }),
            "{res:?}"
        );
        assert_eq!(res.iterations, 3);

        // The reported norms must describe the last completed iteration:
        // identical to a clean run truncated at the same count.
        let clean_cfg = SolveConfig { tol: 1e-12, max_iter: 3 };
        let mut x_clean = MultiVec::zeros(n, m);
        let clean = block_cg(&a, &b, &mut x_clean, &clean_cfg);
        assert_eq!(clean.iterations, 3);
        assert!(clean.breakdown.is_none());
        for (u, v) in res.residual_norms.iter().zip(&clean.residual_norms) {
            assert!(u.is_finite(), "stale/poisoned norm leaked: {u}");
            assert_eq!(u, v, "norms must match the completed iteration");
        }
        // X likewise stops at the completed iteration.
        for (u, v) in x.as_slice().iter().zip(x_clean.as_slice()) {
            assert_eq!(u, v);
        }
    }

    /// One-row-at-a-time dense sweeps in the arithmetic the active
    /// backend's dense path uses at widths 8 and 16 (lane multiples on
    /// every ISA, so there are no tail columns): fused multiply-adds
    /// under the SIMD backend, mul-then-add otherwise; rows ascending
    /// per Gram entry, `k` ascending per update.
    struct RowAtATime {
        fused: bool,
    }

    impl RowAtATime {
        fn madd(&self, acc: f64, a: f64, b: f64) -> f64 {
            if self.fused {
                a.mul_add(b, acc)
            } else {
                acc + a * b
            }
        }

        fn gram(&self, a: &MultiVec, b: &MultiVec) -> Vec<f64> {
            let m = a.m();
            let mut g = vec![0.0; m * m];
            for r in 0..a.n() {
                for i in 0..m {
                    for j in 0..m {
                        g[i * m + j] =
                            self.madd(g[i * m + j], a.get(r, i), b.get(r, j));
                    }
                }
            }
            g
        }

        /// `dst ← init + sign·coef·C`, row by row.
        fn update(
            &self,
            init: &MultiVec,
            sign: f64,
            coef: &MultiVec,
            c: &[f64],
        ) -> MultiVec {
            let m = init.m();
            let mut dst = init.clone();
            for r in 0..init.n() {
                for j in 0..m {
                    let mut acc = init.get(r, j);
                    for k in 0..m {
                        acc = self.madd(acc, sign * coef.get(r, k), c[k * m + j]);
                    }
                    *dst.get_mut(r, j) = acc;
                }
            }
            dst
        }
    }

    /// Block CG's recurrence written against [`RowAtATime`]: what
    /// `block_cg` computed before its dense sweeps were register-
    /// blocked. Returns the iteration count.
    fn block_cg_row_at_a_time(
        a: &BcrsMatrix,
        b: &MultiVec,
        x: &mut MultiVec,
        cfg: &SolveConfig,
    ) -> usize {
        let kernels = RowAtATime {
            fused: mrhs_sparse::active_backend().kind()
                == mrhs_sparse::KernelKind::Simd,
        };
        let (n, m) = b.shape();
        let thresholds: Vec<f64> =
            b.norms().iter().map(|bn| cfg.tol * bn).collect();
        let mut r = MultiVec::zeros(n, m);
        a.apply_multi(x, &mut r);
        for (ri, bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *ri = bi - *ri;
        }
        let mut rho = kernels.gram(&r, &r);
        let mut p = r.clone();
        let mut q = MultiVec::zeros(n, m);
        for it in 1..=cfg.max_iter {
            a.apply_multi(&p, &mut q);
            let mut pq = kernels.gram(&p, &q);
            dense::symmetrize(&mut pq, m);
            ridge(&mut pq, m);
            let mut alpha = rho.clone();
            assert!(dense::lu_solve(&mut pq, m, &mut alpha, m));
            *x = kernels.update(x, 1.0, &p, &alpha);
            r = kernels.update(&r, -1.0, &q, &alpha);
            let rho_new = kernels.gram(&r, &r);
            if (0..m).all(|j| rho_new[j * m + j].max(0.0).sqrt() <= thresholds[j]) {
                return it;
            }
            let mut rho_lhs = rho;
            dense::symmetrize(&mut rho_lhs, m);
            ridge(&mut rho_lhs, m);
            let mut beta = rho_new.clone();
            assert!(dense::lu_solve(&mut rho_lhs, m, &mut beta, m));
            p = kernels.update(&r, 1.0, &p, &beta);
            rho = rho_new;
        }
        cfg.max_iter
    }

    /// The register-blocked dense kernels keep every per-element
    /// operation sequence, so whole solves are bit-identical to the
    /// row-at-a-time recurrence — at m = 8 (one register pass) and
    /// m = 16 (two), across several row chunks.
    #[test]
    fn solve_bits_pinned_against_row_at_a_time_kernels() {
        let a = laplacian(100);
        let n = a.n_rows();
        let cfg = SolveConfig { tol: 1e-8, max_iter: 400 };
        for m in [8usize, 16] {
            let b = pseudo_multivec(n, m, 71 + m as u64);
            let mut x = MultiVec::zeros(n, m);
            let res = block_cg(&a, &b, &mut x, &cfg);
            assert!(res.converged, "m={m}: {res:?}");

            let mut x_ref = MultiVec::zeros(n, m);
            let iters_ref = block_cg_row_at_a_time(&a, &b, &mut x_ref, &cfg);
            assert_eq!(res.iterations, iters_ref, "m={m}");
            for (u, v) in x.as_slice().iter().zip(x_ref.as_slice()) {
                assert_eq!(u.to_bits(), v.to_bits(), "m={m}");
            }
        }
    }
}
