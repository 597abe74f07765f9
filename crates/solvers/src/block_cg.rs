//! Simultaneous conjugate gradients: `m` CG recurrences, one per
//! column, that share every product and sweep.
//!
//! One iteration streams the matrix once for all `m` columns — the
//! kernel structure the MRHS algorithm exploits: the auxiliary system
//! `R₀·U = F_B` with `m` right-hand sides (paper Alg. 2 step 3) costs
//! little more per iteration than single-vector CG (Eq. 8). Each
//! column keeps its own coefficients, `α_j = ρ_j / p_jᵀq_j` and
//! `β_j = ρ'_j / ρ_j`, so the dense work beside the product is `n·m`:
//! the column dots `p_jᵀq_j` ([`MultiVec::dot_columns_into`]), one
//! fused pass for `X += P·diag(α)` and `R −= Q·diag(α)` with the column
//! norms ([`MultiVec::sub_scaled_then_norms_into`]), and
//! `P ← Z + P·diag(β)` ([`MultiVec::assign_add_scaled`]) — all of it
//! folded into the two sweeps under Gauss–Seidel (below). O'Leary's
//! //! block recurrence paid four `n·m²` passes an iteration for the one or
//! two iterations its coupling saves here, and lost rank once the block
//! neared the whole space (EXPERIMENTS "Simultaneous CG (PR 44)").
//!
//! A column whose `ρ_j` is zero (its residual vanished) takes
//! `α_j = β_j = 0`. A zero or NaN pivot `p_jᵀq_j`, or a non-finite
//! `α_j`, is a [`BreakdownKind::Curvature`] before `X` is touched; a
//! non-finite `β_j` is [`BreakdownKind::Rho`], and so is a `ρ'_j` past
//! `ρ_0,j/ε²`. CG minimises the error's `Â`-norm, so on an SPD matrix
//! `ρ_j = ‖r̂_j‖²` stays within `κ(Â)·ρ_0,j`; growth past `1/ε²` means a
//! matrix singular or indefinite to working precision, where the
//! recurrence diverges geometrically until `X` overflows. The solve
//! stops there with `X` finite.
//!
//! At m = 1 this is CG, and [`crate::cg()`] is this recurrence
//! (`iterate`) on width-1 blocks: a width-1 product goes through
//! [`LinearOperator::apply`], the width-1 reductions outside the sweeps
//! sum in [`mrhs_sparse::dot`]'s eight partial sums, and every block and
//! buffer of a solve comes from the per-thread workspace every solver
//! of this crate shares: `R`, `Z` or `R̂`, `P`, `Q`, and Gauss–Seidel's
//! `T` and `U` are six `n × m` slots of it.
//!
//! The recurrences are preconditioned with what the operator names
//! ([`crate::precond`]), by one rule in all three branches:
//!
//! * block symmetric Gauss–Seidel on its block rows, in split form
//!   (at every width): the search block `P̂`, the split residual `R̂` and
//!   `Q̂ = Â·P̂` live in the hat space, and `X += T·diag(α)` moves the
//!   iterate along `T = C⁻ᵀ·P̂`. An iteration is the two sweeps and
//!   nothing else ([`mrhs_sparse::sgs`]): the backward one applies the
//!   last iteration's `P̂ ← R̂ + P̂·diag(β)` at each row, writes `T` and
//!   sums the curvature `p̂_jᵀq̂_j` from its own intermediate, so `α` is
//!   known before the forward one, which applies `X += T·diag(α)` and
//!   `R̂ −= Q̂·diag(α)` at each row and sums `‖r̂_j‖²` — `Q̂` is never
//!   stored. So an iteration reads the matrix once for all `m` columns,
//!   applies no product and makes no dense pass. No recurrence keeps the true
//!   residual. Each column's is predicted as `γ_j·‖r̂_j‖`, `‖r̂_j‖² = ρ_j`
//!   and the ratio `γ_j = ‖r_j‖/‖r̂_j‖` taken from the opening residual
//!   and again at every check; where every column not yet converged is
//!   predicted at or under its threshold, the solve recomputes
//!   `R = B − A·X` (one product, counted under
//!   `{base}/residual_checks`) and stops only if every column meets its
//!   threshold there, as block BiCGStab does. An exit no check saw —
//!   `max_iter`, a breakdown — recomputes `R` once, so the norms it
//!   reports are those of the `X` it returns.
//! * else block-Jacobi on its diagonal: `ρ_j = r_jᵀz_j` with
//!   `Z = M⁻¹R`, taken with the column norms in the step's own pass
//!   ([`MultiVec::sub_scaled_then_precond_dots_into`]), so an iteration
//!   is one GSPMV and three `n·m` passes.
//! * else nothing: `Z` is `R`, `ρ_j = ‖r_j‖²`, and this is plain CG per
//!   column.

use crate::block::{
    sqrt_into, BlockSolveOptions, BlockSolveResult, Breakdown, BreakdownKind,
    ColumnTracker, SolverNames, BLOCK_CG,
};
use crate::cg::SolveConfig;
use crate::operator::LinearOperator;
use crate::precond::{self, Precond};
use crate::work::{Work, Workspace};
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;

/// Solves `A·X = B` for SPD `A` and `m` right-hand sides by `m` CG
/// recurrences that share every product and sweep, starting from the
/// guess already in `x`. Each column converges when its residual norm
/// is below `cfg.tol` times that column's `‖b_j‖`.
pub fn block_cg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    cfg: &SolveConfig,
) -> BlockSolveResult {
    block_cg_with_options(a, b, x, &BlockSolveOptions::from(*cfg))
}

/// [`block_cg`] with explicit [`BlockSolveOptions`]. A zero or NaN
/// pivot `p̂_jᵀq̂_j` (or a non-finite `α_j`) in iteration `k` reports
/// [`BreakdownKind::Curvature`] with `iterations = k − 1` (X untouched
/// in iteration `k`); a non-finite `β_j`, or a `ρ'_j` past
/// `ρ_0,j/ε²`, reports [`BreakdownKind::Rho`] with `iterations = k`
/// (X updated).
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
    let Workspace { blocks, lines, columns, split, .. } = work;
    let [r, z, p, q, t, u] = blocks;
    // Per column: ρ_j and the next iteration's ρ'_j; α_j (first
    // `p̂_jᵀq̂_j`) and β_j; the squared norms of R, and under
    // Gauss–Seidel the norms the stopping rule reads (predicted or
    // checked) and the ratios γ that predict them; the ceiling ρ_0,j/ε²
    // no SPD recurrence reaches.
    let [rho, rho_new, alpha, beta, norms_sq, norms, gamma, ceiling] = lines;
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
    // ρ_j = r_jᵀz_j, ‖r̂_j‖² or ‖r_j‖². The stopping rule reads the
    // squared column norms of R, which are ρ when Z is R.
    z.reset(n, m);
    let done = match &mut pre {
        Some(Precond::Sgs(sgs)) => {
            sgs.forward_solve(r, t, z);
            z.dot_columns_into(z, rho);
            r.dot_columns_into(r, norms_sq);
            sqrt_into(&*norms_sq, norms);
            ratios(gamma, norms, rho);
            track.initial(&*norms_sq)
        }
        Some(Precond::Jacobi(inv)) => {
            r.block_diag_mul_into(inv, z, norms_sq);
            r.dot_columns_into(z, rho);
            track.initial(&*norms_sq)
        }
        None => {
            r.dot_columns_into(r, rho);
            track.initial(&*rho)
        }
    };
    if done {
        return (track, None);
    }
    for (c, r) in ceiling.iter_mut().zip(&*rho) {
        *c = r / (f64::EPSILON * f64::EPSILON);
    }

    // P = Z, and β = 0, which the Gauss–Seidel upper sweep applies in
    // the first iteration as it does the later ones' β.
    p.reset(n, m);
    let z_or_r = if pre.is_some() { &*z } else { &*r };
    p.as_mut_slice().copy_from_slice(z_or_r.as_slice());
    beta.fill(0.0);
    // Unused under Gauss–Seidel, but sized like the other slots, so
    // that the next solve on this workspace finds them all as wide.
    q.reset(n, m);
    let mut breakdown = None;
    // Whether the norms the tracker holds are those of `B − A·X` for
    // the X in hand: always, but under Gauss–Seidel between checks.
    let mut checked = true;

    for it in 1..=opts.solve.max_iter {
        let _iter_timer = track.iter_timer();
        // p_jᵀq_j: under Gauss–Seidel the upper sweep's curvature, after
        // it applied the last iteration's P̂ ← R̂ + P̂·diag(β); else the
        // dots of P and Q = A·P.
        match &mut pre {
            Some(Precond::Sgs(sgs)) => sgs.upper(z, beta, p, t, alpha),
            _ => {
                product(a, p, q);
                p.dot_columns_into(q, alpha);
            }
        }
        // α_j = ρ_j / p_jᵀq_j
        if !coefficients(rho, alpha) {
            // X, R and ρ still describe iteration `it − 1` — the state
            // reported below stays internally consistent.
            breakdown =
                Some(Breakdown { iteration: it, kind: BreakdownKind::Curvature });
            break;
        }
        let done = match &mut pre {
            // The lower sweep: X += T·diag(α) ; R̂ −= Q̂·diag(α) with
            // ρ'_j = ‖r̂_j‖² ; the norms predicted, and checked on
            // R = B − A·X where every column would stop.
            Some(Precond::Sgs(sgs)) => {
                sgs.lower(p, t, u, alpha, x, z, rho_new);
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
            // X += P·diag(α) ; R −= Q·diag(α) ; then Z = M⁻¹R with
            // the column norms and ρ'_j = r_jᵀz_j
            Some(Precond::Jacobi(inv)) => {
                r.sub_scaled_then_precond_dots_into(
                    q, alpha, x, p, inv, z, rho_new, norms_sq,
                );
                track.completed(it, &*norms_sq)
            }
            None => {
                r.sub_scaled_then_norms_into(q, alpha, x, p, rho_new);
                track.completed(it, &*rho_new)
            }
        };
        if done {
            break;
        }

        // β_j = ρ'_j / ρ_j. ρ' is adopted either way: iteration `it`
        // completed its X/R updates, so on a breakdown here the
        // reported norms still describe that completed iteration.
        std::mem::swap(rho, rho_new);
        beta.copy_from_slice(rho_new);
        if !coefficients(rho, beta) || diverged(rho, ceiling) {
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // P ← Z + P·diag(β), which the next upper sweep applies under
        // Gauss–Seidel.
        if !matches!(pre, Some(Precond::Sgs(_))) {
            p.assign_add_scaled(if pre.is_some() { z } else { r }, beta);
        }
    }

    if !checked {
        // An exit no check saw: the norms become those of the X
        // returned.
        track.true_residual(b, x, r, norms_sq, norms, |x, r| product(a, x, r));
        track.settle(norms);
    }
    (track, breakdown)
}

/// `coef_j ← num_j / coef_j`, one CG coefficient per column: zero
/// where `num_j` is zero (a column whose residual vanished keeps its
/// iterate), and `false` — a breakdown, before anything is applied —
/// where one is not finite (a zero or NaN pivot, a NaN numerator).
fn coefficients(num: &[f64], coef: &mut [f64]) -> bool {
    let mut finite = true;
    for (c, &v) in coef.iter_mut().zip(num) {
        *c = if v == 0.0 { 0.0 } else { v / *c };
        finite &= c.is_finite();
    }
    finite
}

/// Whether a column's `ρ_j` passed its ceiling `ρ_0,j/ε²`. A NaN
/// compares false: [`coefficients`] reports it.
fn diverged(rho: &[f64], ceiling: &[f64]) -> bool {
    rho.iter().zip(ceiling).any(|(r, c)| r > c)
}

/// `γ_j = ‖r_j‖/‖r̂_j‖` from the true norms and the split residual's
/// squared norms `‖r̂_j‖²`: zero where `‖r̂_j‖` is zero (a zero
/// right-hand side's column) or NaN, which [`predict`] reads as NaN
/// again.
fn ratios(gamma: &mut [f64], norms: &[f64], split_sq: &[f64]) {
    for ((g, norm), v) in gamma.iter_mut().zip(norms).zip(split_sq) {
        let split = v.max(0.0).sqrt();
        *g = if split == 0.0 { 0.0 } else { norm / split };
    }
}

/// The predicted true norms `γ_j·‖r̂_j‖` from the split residual's
/// squared norms. A NaN propagates, so a poisoned column never meets
/// its threshold.
fn predict(norms: &mut [f64], gamma: &[f64], split_sq: &[f64]) {
    for ((norm, g), &v) in norms.iter_mut().zip(gamma).zip(split_sq) {
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

    /// The least `k` at which a solve capped at `k` iterations returns
    /// column `j`'s true residual norm at or under `thresholds[j]`, for
    /// each `j` (`usize::MAX` if none up to `most` does): where each
    /// column first meets its threshold, whatever the timing of the
    /// checks that confirm it.
    fn first_met(
        thresholds: &[f64],
        most: usize,
        norms_at: impl Fn(usize) -> Vec<f64>,
    ) -> Vec<usize> {
        let mut first = vec![usize::MAX; thresholds.len()];
        for k in 0..=most {
            for ((f, norm), t) in first.iter_mut().zip(norms_at(k)).zip(thresholds)
            {
                if *f == usize::MAX && norm <= *t {
                    *f = k;
                }
            }
        }
        first
    }

    /// Each column of a width-`m` solve is its own CG recurrence: it
    /// meets its threshold within one iteration of `cg` on that column
    /// alone, at m ∈ {3, 4, 5, 8, 12, 16} — the scalar tails, the AVX2
    /// bodies on an AVX-512 host and the vector chunks, each with the
    /// sweeps' folds — on every preconditioner path —
    /// Gauss–Seidel (the bare matrix), block-Jacobi (`JacobiOnly`) and
    /// none (`HiddenDiagonal`, on a Laplacian: unpreconditioned,
    /// `lubricated` takes about `n` iterations, where rounding alone
    /// moves CG's count by several). Only rounding separates the two: a
    /// width-1 reduction sums in eight partial sums, a wider one rows
    /// ascending.
    #[test]
    fn each_column_converges_within_one_iteration_of_cg_alone() {
        let (a, spd) = (lubricated(30), laplacian(30));
        let n = a.n_rows();
        let tol = 1e-6;
        let capped = |max_iter| SolveConfig { tol, max_iter };
        let (jacobi, hidden) = (JacobiOnly(&a), HiddenDiagonal(&spd));
        let paths: [(&str, &dyn LinearOperator); 3] =
            [("sgs", &a), ("jacobi", &jacobi), ("none", &hidden)];
        for (path, op) in paths {
            for m in [3usize, 4, 5, 8, 12, 16] {
                let b = pseudo_multivec(n, m, 13 + m as u64);
                let thresholds: Vec<f64> =
                    b.norms().iter().map(|v| tol * v).collect();
                let solve = |k| {
                    let mut x = MultiVec::zeros(n, m);
                    block_cg(op, &b, &mut x, &capped(k))
                };
                let res = solve(1000);
                assert!(res.converged, "{path} m={m}: {res:?}");
                let block = first_met(&thresholds, res.iterations, |k| {
                    solve(k).residual_norms
                });
                for j in 0..m {
                    let column = b.column(j);
                    let alone = |k| cg(op, &column, &mut vec![0.0; n], &capped(k));
                    let most = alone(1000).iterations;
                    let single = first_met(&thresholds[j..=j], most, |k| {
                        vec![alone(k).residual_norm]
                    });
                    assert!(
                        block[j].abs_diff(single[0]) <= 1,
                        "{path} m={m} col {j}: {} vs cg {}",
                        block[j],
                        single[0]
                    );
                }
            }
        }
    }

    /// Under Gauss–Seidel the curvature comes out of the upper sweep,
    /// before the lower sweep moves `X`: a NaN off-diagonal block (the
    /// split reads only the diagonal ones, so it is still built)
    /// poisons it in iteration 1, which reports a `Curvature` breakdown
    /// with `X` as it came in.
    #[test]
    fn sgs_curvature_breakdown_leaves_x_untouched() {
        let mut a = lubricated(20);
        let k = (a.row_ptr()[0]..a.row_ptr()[1])
            .find(|&k| a.col_idx()[k] != 0)
            .expect("an off-diagonal block in row 0");
        a.blocks_mut()[k].0[4] = f64::NAN;
        let n = a.n_rows();
        let b = pseudo_multivec(n, 4, 7);
        let guess = pseudo_multivec(n, 4, 11);
        let mut x = guess.clone();
        let res = block_cg(&a, &b, &mut x, &SolveConfig::default());
        assert_eq!(
            res.breakdown,
            Some(Breakdown { iteration: 1, kind: BreakdownKind::Curvature }),
            "{res:?}"
        );
        assert_eq!(res.iterations, 0);
        assert_eq!(x, guess, "X was touched");
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
    /// under the SIMD backend, mul-then-add otherwise; column dots rows
    /// ascending, each product rounded before it is added.
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

        fn dots(&self, a: &MultiVec, b: &MultiVec) -> Vec<f64> {
            let m = a.m();
            let mut d = vec![0.0; m];
            for r in 0..a.n() {
                for j in 0..m {
                    d[j] += a.get(r, j) * b.get(r, j);
                }
            }
            d
        }

        /// `init + sign·v·diag(c)`, entry by entry.
        fn scaled(
            &self,
            init: &MultiVec,
            sign: f64,
            v: &MultiVec,
            c: &[f64],
        ) -> MultiVec {
            let mut dst = init.clone();
            for r in 0..init.n() {
                for j in 0..init.m() {
                    *dst.get_mut(r, j) =
                        self.madd(init.get(r, j), sign * v.get(r, j), c[j]);
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
    /// `block_cg` computes, one CG per column, without chunking or
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
        let mut rho = kernels.dots(&r, &z);
        let mut p = z.clone();
        let mut q = MultiVec::zeros(n, m);
        for it in 1..=cfg.max_iter {
            a.apply_multi(&p, &mut q);
            let pq = kernels.dots(&p, &q);
            let alpha: Vec<f64> = (0..m).map(|j| rho[j] / pq[j]).collect();
            *x = kernels.scaled(x, 1.0, &p, &alpha);
            r = kernels.scaled(&r, -1.0, &q, &alpha);
            let norms_sq;
            (z, norms_sq) = kernels.precondition(&inv, &r);
            let rho_new = kernels.dots(&r, &z);
            if (0..m).all(|j| norms_sq[j].max(0.0).sqrt() <= thresholds[j]) {
                return it;
            }
            let beta: Vec<f64> = (0..m).map(|j| rho_new[j] / rho[j]).collect();
            p = kernels.scaled(&z, 1.0, &p, &beta);
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
