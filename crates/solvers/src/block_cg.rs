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
//! solves with symmetrization and, at m ≥ 2, a trace-scaled ridge, which
//! is enough for the random right-hand sides that occur here (they are
//! almost surely full rank). A 1×1 Gram is singular only at zero or NaN,
//! which `lu_solve` reports, so one breakdown rule holds at every width.
//!
//! Block CG at m = 1 is CG, and [`crate::cg()`] is this recurrence
//! (`iterate`) on width-1 blocks: a width-1 product goes through
//! [`LinearOperator::apply`], and every block and buffer of a solve
//! comes from the per-thread workspace every solver of this crate
//! shares: `R`, `Z` or `R̂`, `P`, `Q`, and Gauss–Seidel's `T` and `U`
//! are six `n × m` slots of it.
//!
//! The recurrence is preconditioned with what the operator names
//! ([`crate::precond`]):
//!
//! * block symmetric Gauss–Seidel on its block rows, in split form
//!   (at every width): the search block `P̂`, the split residual `R̂` and
//!   `Q̂ = Â·P̂` live in the hat space, and `X += T·α` moves the iterate
//!   along `T = C⁻ᵀ·P̂`. `T` and `Q̂` come out of the two sweeps, the
//!   forward one summing a single source (Eisenstat's `U = V − T`), so
//!   an iteration reads the matrix once for all `m` columns, applies no
//!   product and makes four dense `n·m²` passes: `PᵀQ̂`, `X += T·α`,
//!   `R̂ −= Q̂·α` with `ρ = R̂ᵀR̂`, and `P̂ ← R̂ + P̂·β`. No recurrence
//!   keeps the true residual. Each column's is predicted as
//!   `γ_j·‖r̂_j‖`, `‖r̂_j‖` from `ρ`'s diagonal and the ratio
//!   `γ_j = ‖r_j‖/‖r̂_j‖` taken from the opening residual and again at
//!   every check; where every column not yet converged is predicted at
//!   or under its threshold, the solve recomputes `R = B − A·X` (one
//!   product, counted under `{base}/residual_checks`) and stops only if
//!   every column meets its threshold there, as block BiCGStab does. An
//!   exit no check saw — `max_iter`, a breakdown — recomputes `R` once,
//!   so the norms it reports are those of the `X` it returns.
//! * else block-Jacobi on its diagonal: `ρ` is `RᵀZ` with `Z = M⁻¹R`,
//!   produced — with the column norms `diag(RᵀR)` the stopping rule
//!   reads — by the same fused sweep that updates `R`, so an iteration
//!   is one GSPMV and five `n·m²` sweeps.
//! * else nothing: `Z` is `R` and this is plain block CG.

use crate::block::{
    diag, solve_coefficients, sqrt_into, BlockSolveOptions, BlockSolveResult,
    Breakdown, BreakdownKind, ColumnTracker, SolverNames, BLOCK_CG,
};
use crate::cg::SolveConfig;
use crate::dense;
use crate::operator::LinearOperator;
use crate::precond::{self, Precond};
use crate::work::{Work, Workspace};
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
    let mut work = Work::take();
    let (track, breakdown) = iterate(&BLOCK_CG, a, b, x, opts, work.get());
    track.finish(breakdown)
}

/// The recurrence, counted under `names`, with every block and buffer
/// it needs drawn from `work`: the tracker it returns closes the solve.
pub(crate) fn iterate<'w, A: LinearOperator + ?Sized>(
    names: &'static SolverNames,
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockSolveOptions,
    work: &'w mut Workspace,
) -> (ColumnTracker<'w>, Option<Breakdown>) {
    let (n, m) = b.shape();
    assert_eq!(n, a.dim());
    work.size_buffers(m);
    let Workspace { blocks, squares, lines, columns, split, .. } = work;
    let [r, z, p, q, t, u] = blocks;
    // The m×m buffers of an iteration: `lhs` is the left-hand side
    // `lu_solve` destroys (PᵀQ, then ρ), `coef` its right-hand side and
    // solution (α, then β).
    let [rho, rho_new, lhs, coef, ..] = squares;
    // Squared column norms of R; under Gauss–Seidel also the norms the
    // stopping rule reads (predicted or checked) and the ratios γ that
    // predict them.
    let [norms_sq, norms, gamma] = lines;
    let mut track = ColumnTracker::start(names, b, x, opts, columns, r, |x, y| {
        product(a, x, y)
    });
    let mut pre = precond::choose(a, m, split);
    if pre.is_some() {
        telemetry::counter_add(names.preconditioned, 1);
    }
    if let Some(Precond::Sgs(_)) = pre {
        t.reset(n, m);
        u.reset(n, m);
    }

    // The block the search block is built from: Z = M⁻¹R (Jacobi),
    // R̂ = C⁻¹R (Gauss–Seidel); without a preconditioner it is R.
    // ρ = RᵀZ, R̂ᵀR̂ or RᵀR (m×m). The stopping rule reads the squared
    // column norms of R, which are ρ's diagonal when Z is R.
    z.reset(n, m);
    let done = match &mut pre {
        Some(Precond::Sgs(sgs)) => {
            sgs.forward_solve(r, t, z);
            z.gram_into(z, rho);
            r.dot_columns_into(r, norms_sq);
            sqrt_into(&*norms_sq, norms);
            ratios(gamma, norms, rho);
            track.initial(&*norms_sq)
        }
        Some(Precond::Jacobi(inv)) => {
            r.block_diag_mul_into(inv, z, norms_sq);
            r.gram_into(z, rho);
            track.initial(&*norms_sq)
        }
        None => {
            r.gram_into(r, rho);
            track.initial(diag(rho, m))
        }
    };
    if done {
        return (track, None);
    }

    p.reset(n, m);
    let z_or_r = if pre.is_some() { &*z } else { &*r };
    p.as_mut_slice().copy_from_slice(z_or_r.as_slice());
    q.reset(n, m);
    let mut breakdown = None;
    // Whether the norms the tracker holds are those of `B − A·X` for
    // the X in hand: always, but under Gauss–Seidel between checks.
    let mut checked = true;

    for it in 1..=opts.solve.max_iter {
        let _iter_timer = track.iter_timer();
        // Q = A·P, or Q̂ = Â·P̂ with T beside it.
        match &mut pre {
            Some(Precond::Sgs(sgs)) => sgs.apply(p, t, u, q),
            _ => product(a, p, q),
        }
        // α solves (PᵀQ)·α = ρ
        p.gram_into(q, lhs);
        dense::symmetrize(lhs, m);
        ridge(lhs, m);
        coef.copy_from_slice(rho);
        if !solve_coefficients(lhs, coef, m) {
            // X, R and ρ still describe iteration `it − 1` — the state
            // reported below stays internally consistent.
            breakdown =
                Some(Breakdown { iteration: it, kind: BreakdownKind::Curvature });
            break;
        }
        let done = match &mut pre {
            // X += T·α ; R̂ −= Q̂·α with ρ_new = R̂ᵀR̂ ; the norms
            // predicted, and checked on R = B − A·X where every column
            // would stop.
            Some(Precond::Sgs(_)) => {
                x.add_mul_dense(t, coef);
                z.sub_mul_dense_then_gram_into(q, coef, rho_new);
                predict(norms, gamma, rho_new);
                checked = track.would_converge(norms);
                if checked {
                    track.true_residual(b, x, r, norms_sq, norms, |x, r| {
                        product(a, x, r)
                    });
                    ratios(gamma, norms, rho_new);
                    track.recheck(norms);
                }
                track.completed_with_norms(it, norms)
            }
            // X += P·α ; R −= Q·α fused with Z = M⁻¹R, ρ_new = RᵀZ and
            // the column norms
            Some(Precond::Jacobi(inv)) => {
                x.add_mul_dense(p, coef);
                r.sub_mul_dense_then_precond_gram_into(
                    q, coef, inv, z, rho_new, norms_sq,
                );
                track.completed(it, &*norms_sq)
            }
            None => {
                x.add_mul_dense(p, coef);
                r.sub_mul_dense_then_gram_into(q, coef, rho_new);
                track.completed(it, diag(rho_new, m))
            }
        };
        if done {
            break;
        }

        // β solves ρ·β = ρ_new. ρ_new is adopted either way: iteration
        // `it` completed its X/R updates, so on a breakdown here the
        // reported norms still describe that completed iteration.
        lhs.copy_from_slice(rho);
        std::mem::swap(rho, rho_new);
        dense::symmetrize(lhs, m);
        ridge(lhs, m);
        coef.copy_from_slice(rho);
        if !solve_coefficients(lhs, coef, m) {
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // P ← Z + P·β
        p.assign_add_mul_dense(if pre.is_some() { z } else { r }, coef);
    }

    if !checked {
        // An exit no check saw: the norms become those of the X
        // returned.
        track.true_residual(b, x, r, norms_sq, norms, |x, r| product(a, x, r));
        track.settle(norms);
    }
    (track, breakdown)
}

/// `γ_j = ‖r_j‖/‖r̂_j‖` from the true norms and the split residual's
/// Gram `R̂ᵀR̂`: zero where `‖r̂_j‖` is zero (a zero right-hand side's
/// column) or NaN, which [`predict`] reads as NaN again.
fn ratios(gamma: &mut [f64], norms: &[f64], gram: &[f64]) {
    let m = gamma.len();
    for (j, (g, norm)) in gamma.iter_mut().zip(norms).enumerate() {
        let split = gram[j * m + j].max(0.0).sqrt();
        *g = if split == 0.0 { 0.0 } else { norm / split };
    }
}

/// The predicted true norms `γ_j·‖r̂_j‖` from the split residual's Gram
/// `R̂ᵀR̂`. A NaN propagates, so a poisoned column never meets its
/// threshold.
fn predict(norms: &mut [f64], gamma: &[f64], gram: &[f64]) {
    let m = norms.len();
    for (j, (norm, g)) in norms.iter_mut().zip(gamma).enumerate() {
        let v = gram[j * m + j];
        *norm = if v.is_nan() { f64::NAN } else { g * v.max(0.0).sqrt() };
    }
}

/// `Y = A·X`: a width-1 block through the single-vector product, wider
/// ones through the multivector product.
fn product<A: LinearOperator + ?Sized>(a: &A, x: &MultiVec, y: &mut MultiVec) {
    if x.m() == 1 {
        a.apply(x.as_slice(), y.as_mut_slice());
    } else {
        a.apply_multi(x, y);
    }
}

/// Adds a tiny trace-scaled ridge so rank-deficient Gram matrices stay
/// factorizable after some columns converge. Only at `m ≥ 2`: a 1×1
/// Gram is singular only at zero, which `lu_solve` reports.
fn ridge(a: &mut [f64], m: usize) {
    if m < 2 {
        return;
    }
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
        laplacian, lubricated, pseudo_multivec, true_residual_norms,
        HiddenDiagonal, JacobiOnly, PoisonAfter,
    };
    use crate::cg::cg;
    use crate::operator::CountingOperator;
    use crate::precond::block_jacobi;
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

    /// An operator that keeps block-Jacobi costs one GSPMV per
    /// iteration; one that hands over its block rows costs one for the
    /// initial residual and one per check of the true residual (here
    /// one, where the solve stops), its iterations being sweeps.
    #[test]
    fn one_gspmv_per_iteration() {
        let a = lubricated(20);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 3);
        let jacobi = JacobiOnly(&a);
        let ops = [(&jacobi as &dyn LinearOperator, 1, 0), (&a, 0, 1)];
        for (op, per_iteration, checks) in ops {
            let c = CountingOperator::new(op);
            let mut x = MultiVec::zeros(n, m);
            let res = block_cg(&c, &b, &mut x, &SolveConfig::default());
            assert!(res.converged);
            // initial residual + one per iteration, or one per check
            assert_eq!(
                c.multi_applies(),
                per_iteration * res.iterations + 1 + checks
            );
            assert_eq!(c.single_applies(), 0);
        }
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

    /// Block CG at one column is CG, on every preconditioner path:
    /// Gauss–Seidel (the bare matrix), block-Jacobi (`JacobiOnly`) and
    /// none (`HiddenDiagonal`) give the same solution bits, iterations
    /// and residual.
    #[test]
    fn single_column_block_cg_equals_cg_iterations() {
        let a = lubricated(30);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 1, 9);
        let cfg = SolveConfig::default();
        let (jacobi, hidden) = (JacobiOnly(&a), HiddenDiagonal(&a));
        let paths: [(&str, &dyn LinearOperator); 3] =
            [("sgs", &a), ("jacobi", &jacobi), ("none", &hidden)];
        for (path, op) in paths {
            let mut xb = MultiVec::zeros(n, 1);
            let rb = block_cg(op, &b, &mut xb, &cfg);
            let mut xs = vec![0.0; n];
            let rs = cg(op, b.as_slice(), &mut xs, &cfg);
            assert!(rb.converged && rs.converged, "{path}");
            assert_eq!(rb.iterations, rs.iterations, "{path}");
            assert_eq!(
                rb.residual_norms[0].to_bits(),
                rs.residual_norm.to_bits(),
                "{path}"
            );
            for (u, v) in xb.as_slice().iter().zip(&xs) {
                assert_eq!(u.to_bits(), v.to_bits(), "{path}");
            }
        }
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
        // (`PoisonAfter` keeps block-Jacobi, so the clean run does too.)
        let clean_cfg = SolveConfig { tol: 1e-12, max_iter: 3 };
        let mut x_clean = MultiVec::zeros(n, m);
        let clean = block_cg(&JacobiOnly(&a), &b, &mut x_clean, &clean_cfg);
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
    /// operation sequence, so whole block-Jacobi solves are
    /// bit-identical to the row-at-a-time recurrence — at m = 8 (one
    /// register pass) and m = 16 (two), across several row chunks, on
    /// a matrix whose diagonal blocks are neither uniform nor diagonal
    /// (on `laplacian`'s 4·I, `M⁻¹` is a power-of-two scaling that
    /// commutes with every rounding: a pin there cannot see `M`). The
    /// operator names its diagonal and not its block rows, so the solve
    /// runs block-Jacobi, as an engine operator's does.
    #[test]
    fn solve_bits_pinned_against_row_at_a_time_kernels() {
        let a = lubricated(100);
        let n = a.n_rows();
        let cfg = SolveConfig { tol: 1e-8, max_iter: 400 };
        for m in [8usize, 16] {
            let b = pseudo_multivec(n, m, 71 + m as u64);
            let mut x = MultiVec::zeros(n, m);
            let res = block_cg(&JacobiOnly(&a), &b, &mut x, &cfg);
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
