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
//!
//! The recurrence is preconditioned with the operator's block diagonal
//! when it names a usable one ([`crate::precond`]): `ρ` is `RᵀZ` with
//! `Z = M⁻¹R`, produced — with the column norms `diag(RᵀR)` the
//! stopping rule reads — by the same fused sweep that updates `R`, so
//! an iteration is still one GSPMV and five `n·m²` sweeps. Otherwise
//! `Z` is `R` and this is plain block CG.

use crate::block::{
    diag, solve_coefficients, BlockSolveOptions, BlockSolveResult, Breakdown,
    BreakdownKind, ColumnTracker, BLOCK_CG,
};
use crate::cg::SolveConfig;
use crate::dense;
use crate::operator::LinearOperator;
use crate::precond::block_jacobi;
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;

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
    // M⁻¹ and the block Z = M⁻¹R; without them Z is R.
    let mut precond = block_jacobi(a).map(|inv| (inv, MultiVec::zeros(n, m)));
    if precond.is_some() {
        telemetry::counter_add("solver/block_cg/preconditioned", 1);
    }

    // ρ = RᵀZ (m×m). The stopping rule reads the squared column norms
    // of R, which are ρ's diagonal when Z is R.
    let mut rho = vec![0.0; m * m];
    let mut norms_sq = vec![0.0; m];
    let done = match &mut precond {
        Some((inv, z)) => {
            r.block_diag_mul_into(inv, z, &mut norms_sq);
            r.gram_into(z, &mut rho);
            track.initial(&norms_sq)
        }
        None => {
            r.gram_into(&r, &mut rho);
            track.initial(diag(&rho, m))
        }
    };
    if done {
        return track.finish(None);
    }

    let mut p = precond.as_ref().map_or(&r, |(_, z)| z).clone();
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
        // X += P·α ; R −= Q·α fused with Z = M⁻¹R, ρ_new = RᵀZ and the
        // column norms
        x.add_mul_dense(&p, &coef);
        let done = match &mut precond {
            Some((inv, z)) => {
                r.sub_mul_dense_then_precond_gram_into(
                    &q,
                    &coef,
                    inv,
                    z,
                    &mut rho_new,
                    &mut norms_sq,
                );
                track.completed(it, &norms_sq)
            }
            None => {
                r.sub_mul_dense_then_gram_into(&q, &coef, &mut rho_new);
                track.completed(it, diag(&rho_new, m))
            }
        };
        if done {
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
        // P ← Z + P·β
        p.assign_add_mul_dense(precond.as_ref().map_or(&r, |(_, z)| z), &coef);
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
        laplacian, lubricated, pseudo_multivec, true_residual_norms, PoisonAfter,
    };
    use crate::cg::cg;
    use crate::operator::CountingOperator;
    use mrhs_sparse::{BcrsMatrix, Block3};

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
        let a = lubricated(20);
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
        let a = lubricated(30);
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

        /// `Z = M⁻¹R` and the squared column norms of `R`, one 3-row
        /// group at a time: each entry of `Z` three multiply-adds
        /// from zero, each norm one add per group of the group's
        /// three squares.
        fn precondition(
            &self,
            inv: &[Block3],
            r: &MultiVec,
        ) -> (MultiVec, Vec<f64>) {
            let m = r.m();
            let mut z = MultiVec::zeros(r.n(), m);
            let mut norms_sq = vec![0.0; m];
            for (b, block) in inv.iter().enumerate() {
                for j in 0..m {
                    let mut squares = 0.0;
                    for k in 0..3 {
                        let rk = r.get(3 * b + k, j);
                        squares = self.madd(squares, rk, rk);
                    }
                    norms_sq[j] += squares;
                    for i in 0..3 {
                        let mut acc = 0.0;
                        for k in 0..3 {
                            acc = self.madd(
                                acc,
                                block.get(i, k),
                                r.get(3 * b + k, j),
                            );
                        }
                        *z.get_mut(3 * b + i, j) = acc;
                    }
                }
            }
            (z, norms_sq)
        }
    }

    /// Block CG's recurrence written against [`RowAtATime`]: what
    /// `block_cg` computes, without register blocking, chunking or
    /// fusion of sweeps. Returns the iteration count.
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
        let inv = block_jacobi(a).expect("SPD diagonal blocks");
        let mut r = MultiVec::zeros(n, m);
        a.apply_multi(x, &mut r);
        for (ri, bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *ri = bi - *ri;
        }
        let (mut z, _) = kernels.precondition(&inv, &r);
        let mut rho = kernels.gram(&r, &z);
        let mut p = z.clone();
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
            let norms_sq;
            (z, norms_sq) = kernels.precondition(&inv, &r);
            let rho_new = kernels.gram(&r, &z);
            if (0..m).all(|j| norms_sq[j].max(0.0).sqrt() <= thresholds[j]) {
                return it;
            }
            let mut rho_lhs = rho;
            dense::symmetrize(&mut rho_lhs, m);
            ridge(&mut rho_lhs, m);
            let mut beta = rho_new.clone();
            assert!(dense::lu_solve(&mut rho_lhs, m, &mut beta, m));
            p = kernels.update(&z, 1.0, &p, &beta);
            rho = rho_new;
        }
        cfg.max_iter
    }

    /// The register-blocked, fused dense kernels keep every per-element
    /// operation sequence, so whole preconditioned solves are
    /// bit-identical to the row-at-a-time recurrence — at m = 8 (one
    /// register pass) and m = 16 (two), across several row chunks, on
    /// a matrix whose diagonal blocks are neither uniform nor diagonal
    /// (on `laplacian`'s 4·I, `M⁻¹` is a power-of-two scaling that
    /// commutes with every rounding: a pin there cannot see `M`).
    #[test]
    fn solve_bits_pinned_against_row_at_a_time_kernels() {
        let a = lubricated(100);
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
