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
//! Two variants are provided, selected by [`BicgstabVariant`]:
//!
//! * [`Classic`](BicgstabVariant::Classic) recomputes the shadow Gram
//!   `ρ = R̃ᵀR` from scratch every iteration — three `n·m²` shadow
//!   reductions per iteration (`R̃ᵀV`, `R̃ᵀT`, `R̃ᵀR`).
//! * [`Reordered`](BicgstabVariant::Reordered) uses the identity
//!   `R̃ᵀS = 0` (exact in exact arithmetic, because `α` solves
//!   `(R̃ᵀV)·α = R̃ᵀR`) to replace the fresh Gram with the recurrence
//!   `ρ_{k+1} = −ω_k · (R̃ᵀT_k)`, reusing the reduction already needed
//!   for `β`. This drops one global `n·m²` reduction per iteration —
//!   the communication-avoiding reordering the arXiv:1907.12874 family
//!   benchmarks. The two variants round differently but converge to
//!   the same tolerances.
//!
//! All dense sweeps go through the register-tiled, kernel-backend-
//! dispatched [`MultiVec`] kernels (`gram`, `add_mul_dense`,
//! `sub_mul_dense_then_gram`, `assign_add_mul_dense`), so the solve is
//! bitwise deterministic whenever the operator's `apply_multi` is.
//!
//! Breakdown reporting follows the taxonomy of [`mod@crate::bicgstab`]:
//! a singular `R̃ᵀV` coefficient solve is a ρ collapse (the block
//! bi-orthogonality recursion lost rank), an undefined or zero
//! stabilizer is an ω collapse. The bookkeeping contract matches block
//! CG: `residual_norms` always describes the returned `X` exactly.

use crate::bicgstab::{Breakdown, BreakdownKind};
use crate::cg::SolveConfig;
use crate::dense;
use crate::operator::LinearOperator;
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;
use std::time::Instant;

/// Which block-BiCGStab reduction schedule to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BicgstabVariant {
    /// Fresh `ρ = R̃ᵀR` Gram every iteration (three shadow reductions).
    #[default]
    Classic,
    /// `ρ_{k+1} = −ω_k·(R̃ᵀT_k)` recurrence reusing the β reduction
    /// (two shadow reductions) — the communication-avoiding reordering.
    Reordered,
}

/// Outcome of a block-BiCGStab solve. Field semantics mirror
/// [`crate::block_cg::BlockCgResult`] so service-side bookkeeping
/// (per-column cost attribution, acceptance, solo retry) is shared.
#[derive(Clone, Debug)]
pub struct BlockBicgstabResult {
    /// Block iterations completed (each is two GSPMVs plus the dense
    /// sweeps). An ω collapse counts its iteration as completed at the
    /// half step: `X += P·α` was applied and `residual_norms` describes
    /// `S = B − A·X` exactly.
    pub iterations: usize,
    /// Whether every column met its tolerance.
    pub converged: bool,
    /// Per-column residual norms of the returned `X`.
    pub residual_norms: Vec<f64>,
    /// Iteration at which each column first met its tolerance.
    pub column_converged_at: Vec<Option<usize>>,
    /// Block iterations each column effectively paid for (see
    /// [`crate::block_cg::BlockCgResult::column_iterations`]).
    pub column_iterations: Vec<usize>,
    /// `Some` if a structural ρ/ω collapse stopped the solve.
    pub breakdown: Option<Breakdown>,
    /// Per-column residual-norm history (entry 0 = initial residual),
    /// recorded only when
    /// [`BlockBicgstabOptions::record_residual_history`] is set.
    pub residual_history: Vec<Vec<f64>>,
}

/// Options for a block-BiCGStab solve.
#[derive(Clone, Debug, Default)]
pub struct BlockBicgstabOptions {
    /// Tolerance and iteration cap.
    pub solve: SolveConfig,
    /// Reduction schedule (classic vs. reordered).
    pub variant: BicgstabVariant,
    /// Record per-column, per-iteration residual norms.
    pub record_residual_history: bool,
    /// Per-column relative tolerances overriding `solve.tol`
    /// column-by-column (length `m` when present) — the coalesced-solve
    /// contract shared with [`crate::block_cg::BlockCgOptions`].
    pub column_tols: Option<Vec<f64>>,
}

impl From<SolveConfig> for BlockBicgstabOptions {
    fn from(solve: SolveConfig) -> Self {
        BlockBicgstabOptions { solve, ..Default::default() }
    }
}

/// Solves `A·X = B` for nonsymmetric `A` and `m` right-hand sides with
/// the classic reduction schedule, starting from the guess already in
/// `x`.
pub fn block_bicgstab<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    cfg: &SolveConfig,
) -> BlockBicgstabResult {
    block_bicgstab_observed(
        a,
        b,
        x,
        &BlockBicgstabOptions::from(*cfg),
        |_, _, _| {},
    )
}

/// [`block_bicgstab`] with explicit [`BlockBicgstabOptions`].
pub fn block_bicgstab_with_options<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockBicgstabOptions,
) -> BlockBicgstabResult {
    block_bicgstab_observed(a, b, x, opts, |_, _, _| {})
}

/// Times one block-BiCGStab iteration (see the block-CG `IterTimer`):
/// records the span and a log₂-bucketed latency sample on every exit
/// path. Inert while telemetry is disabled.
struct IterTimer(Option<Instant>);

impl IterTimer {
    fn start() -> Self {
        IterTimer(telemetry::enabled().then(Instant::now))
    }
}

impl Drop for IterTimer {
    fn drop(&mut self) {
        if let Some(t) = self.0.take() {
            let dt = t.elapsed();
            telemetry::record_span_secs(
                "solver/block_bicgstab/iter",
                dt.as_secs_f64(),
            );
            telemetry::histogram_record_ns(
                "solver/block_bicgstab/iter_ns",
                dt.as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    }
}

/// The instrumented core. `observe` runs once for the initial residual
/// (`iteration = 0`) and once after every completed iteration with the
/// iteration number, per-column residual norms, and the current
/// iterate — the same hook contract as
/// [`crate::block_cg::block_cg_observed`].
pub fn block_bicgstab_observed<A, F>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockBicgstabOptions,
    mut observe: F,
) -> BlockBicgstabResult
where
    A: LinearOperator + ?Sized,
    F: FnMut(usize, &[f64], &MultiVec),
{
    let cfg = &opts.solve;
    let n = a.dim();
    let m = b.m();
    assert_eq!(b.n(), n);
    assert_eq!(x.shape(), (n, m));

    let _solve_span = telemetry::span("solver/block_bicgstab");
    telemetry::counter_add("solver/block_bicgstab/solves", 1);
    let init_span = telemetry::span("solver/block_bicgstab/init");

    let b_norms = b.norms();
    let thresholds: Vec<f64> = match &opts.column_tols {
        Some(tols) => {
            assert_eq!(tols.len(), m, "column_tols length must equal m");
            b_norms
                .iter()
                .zip(tols)
                .map(|(bn, t)| t * bn.max(f64::MIN_POSITIVE))
                .collect()
        }
        None => {
            b_norms.iter().map(|bn| cfg.tol * bn.max(f64::MIN_POSITIVE)).collect()
        }
    };

    // R = B − A·X; the shadow block R̃ is frozen at R₀.
    let mut r = MultiVec::zeros(n, m);
    a.apply_multi(x, &mut r);
    {
        let (rs, bs) = (r.as_mut_slice(), b.as_slice());
        for (ri, bi) in rs.iter_mut().zip(bs) {
            *ri = bi - *ri;
        }
    }
    let r_tilde = r.clone();

    let mut column_converged_at: Vec<Option<usize>> = vec![None; m];
    // ρ = R̃ᵀR (m×m). At iteration 0, R = R̃ so this is the residual
    // Gram and its diagonal gives the initial norms.
    let mut rho = r_tilde.gram(&r);
    let mut norms = vec![0.0; m];
    diag_sqrt_into(&rho, m, &mut norms);
    let mut history: Vec<Vec<f64>> =
        if opts.record_residual_history { vec![Vec::new(); m] } else { Vec::new() };
    push_history(&mut history, &norms);
    observe(0, &norms, x);
    update_convergence(&norms, &thresholds, &mut column_converged_at, 0);
    crate::block_cg::trace_iteration(
        "solver/block_bicgstab",
        0,
        &norms,
        &column_converged_at,
    );
    drop(init_span);
    if column_converged_at.iter().all(Option::is_some) {
        return BlockBicgstabResult {
            iterations: 0,
            converged: true,
            residual_norms: norms,
            column_iterations: vec![0; m],
            column_converged_at,
            breakdown: None,
            residual_history: history,
        };
    }

    let mut p = r.clone();
    let mut v = MultiVec::zeros(n, m);
    let mut s = MultiVec::zeros(n, m);
    let mut t = MultiVec::zeros(n, m);
    let mut iterations = 0;
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

    for it in 1..=cfg.max_iter {
        let _iter_timer = IterTimer::start();
        // V = A·P (GSPMV 1); α solves (R̃ᵀV)·α = ρ. No symmetrization
        // and no ridge: R̃ᵀV is genuinely nonsymmetric, and a singular
        // coefficient matrix *is* the ρ collapse — reporting it is the
        // contract, papering over it is not.
        a.apply_multi(&p, &mut v);
        r_tilde.gram_into(&v, &mut rv);
        lu.copy_from_slice(&rv);
        alpha.copy_from_slice(&rho);
        if !dense::lu_solve(&mut lu, m, &mut alpha, m) {
            // X, R and ρ still describe iteration `it − 1`.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // S = R − V·α, fused with the SᵀS reduction whose diagonal is
        // the half-step residual norms.
        s.as_mut_slice().copy_from_slice(r.as_slice());
        s.sub_mul_dense_then_gram_into(&v, &alpha, &mut gram);
        diag_sqrt_into(&gram, m, &mut norms_s);
        if norms_s.iter().any(|v| !v.is_finite() && !v.is_nan()) || has_nan(&alpha)
        {
            // α blew up through a near-singular R̃ᵀV; X is untouched.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        if all_below(&norms_s, &thresholds, &column_converged_at) {
            // Every still-active column converged at the half step: take
            // the half update and stop — ω is not needed, and the
            // reported norms describe X + P·α exactly (R = S there).
            x.add_mul_dense(&p, &alpha);
            iterations = it;
            telemetry::counter_add("solver/block_bicgstab/iterations", 1);
            norms.copy_from_slice(&norms_s);
            push_history(&mut history, &norms);
            observe(it, &norms, x);
            update_convergence(&norms, &thresholds, &mut column_converged_at, it);
            crate::block_cg::trace_iteration(
                "solver/block_bicgstab",
                it,
                &norms,
                &column_converged_at,
            );
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
            iterations = it;
            telemetry::counter_add("solver/block_bicgstab/iterations", 1);
            norms.copy_from_slice(&norms_s);
            push_history(&mut history, &norms);
            observe(it, &norms, x);
            update_convergence(&norms, &thresholds, &mut column_converged_at, it);
            crate::block_cg::trace_iteration(
                "solver/block_bicgstab",
                it,
                &norms,
                &column_converged_at,
            );
            breakdown =
                Some(Breakdown { iteration: it, kind: BreakdownKind::Omega });
            break;
        }

        // σ = R̃ᵀT feeds β (and, reordered, the ρ recurrence).
        r_tilde.gram_into(&t, &mut sigma);

        // X += P·α + ω·S ; R = S − ω·T, then the RᵀR reduction. The old
        // R is dead, so R takes S's buffer (S is rebuilt from R at the
        // top of the next iteration).
        x.add_mul_dense(&p, &alpha);
        x.axpy(omega, &s);
        std::mem::swap(&mut r, &mut s);
        r.axpy(-omega, &t);
        r.gram_into(&r, &mut gram);
        iterations = it;
        telemetry::counter_add("solver/block_bicgstab/iterations", 1);
        diag_sqrt_into(&gram, m, &mut norms);
        push_history(&mut history, &norms);
        observe(it, &norms, x);
        update_convergence(&norms, &thresholds, &mut column_converged_at, it);
        crate::block_cg::trace_iteration(
            "solver/block_bicgstab",
            it,
            &norms,
            &column_converged_at,
        );
        if column_converged_at.iter().all(Option::is_some) {
            break;
        }

        // ρ_{k+1}: fresh shadow Gram (classic) or the −ω·σ recurrence
        // (reordered; exact because R̃ᵀS = 0 in exact arithmetic).
        match opts.variant {
            BicgstabVariant::Classic => r_tilde.gram_into(&r, &mut rho),
            BicgstabVariant::Reordered => {
                for (rho_v, sigma_v) in rho.iter_mut().zip(&sigma) {
                    *rho_v = -omega * sigma_v;
                }
            }
        }
        // β solves (R̃ᵀV)·β = −σ with the same coefficient matrix as α.
        for (beta_v, sigma_v) in beta.iter_mut().zip(&sigma) {
            *beta_v = -sigma_v;
        }
        if !dense::lu_solve(&mut rv, m, &mut beta, m) {
            // Iteration `it` completed its X/R updates; the reported
            // norms already describe it.
            breakdown = Some(Breakdown { iteration: it, kind: BreakdownKind::Rho });
            break;
        }
        // P ← R + (P − ω·V)·β
        p.axpy(-omega, &v);
        p.assign_add_mul_dense(&r, &beta);
    }

    let converged =
        breakdown.is_none() && column_converged_at.iter().all(Option::is_some);
    let column_iterations = column_converged_at
        .iter()
        .map(|c| c.unwrap_or(iterations))
        .collect::<Vec<_>>();
    BlockBicgstabResult {
        iterations,
        converged,
        residual_norms: norms,
        column_iterations,
        column_converged_at,
        breakdown,
        residual_history: history,
    }
}

/// Square roots of the Gram diagonal; NaN propagates (never masked as
/// converged) — same contract as block CG's helper.
fn diag_sqrt_into(gram: &[f64], m: usize, norms: &mut [f64]) {
    for (j, norm) in norms.iter_mut().enumerate() {
        let v = gram[j * m + j];
        *norm = if v.is_nan() { f64::NAN } else { v.max(0.0).sqrt() };
    }
}

fn has_nan(a: &[f64]) -> bool {
    a.iter().any(|v| v.is_nan())
}

/// True when every column is at or below its threshold (or already
/// marked converged). NaN compares false, so a poisoned column keeps
/// the solve from taking a half-step exit.
fn all_below(
    norms: &[f64],
    thresholds: &[f64],
    converged_at: &[Option<usize>],
) -> bool {
    norms
        .iter()
        .zip(thresholds)
        .zip(converged_at)
        .all(|((n, t), c)| c.is_some() || *n <= *t)
}

fn push_history(history: &mut [Vec<f64>], norms: &[f64]) {
    for (h, n) in history.iter_mut().zip(norms) {
        h.push(*n);
    }
}

fn update_convergence(
    norms: &[f64],
    thresholds: &[f64],
    converged_at: &mut [Option<usize>],
    iteration: usize,
) {
    for (j, norm) in norms.iter().enumerate() {
        if converged_at[j].is_none() && *norm <= thresholds[j] {
            converged_at[j] = Some(iteration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::bicgstab;
    use crate::operator::{CountingOperator, LinearOperator};
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    /// Nonsymmetric convection–diffusion block tridiagonal.
    fn convection(nb: usize, peclet: f64) -> BcrsMatrix {
        let mut tb = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            tb.add(bi, bi, Block3::scaled_identity(4.0));
            if bi + 1 < nb {
                tb.add(bi, bi + 1, Block3::scaled_identity(-1.0 + peclet));
                tb.add(bi + 1, bi, Block3::scaled_identity(-1.0 - peclet));
            }
        }
        tb.build()
    }

    fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut mv = MultiVec::zeros(n, m);
        for v in mv.as_mut_slice() {
            *v = next();
        }
        mv
    }

    fn true_residual_norms(
        a: &dyn LinearOperator,
        b: &MultiVec,
        x: &MultiVec,
    ) -> Vec<f64> {
        let (n, m) = b.shape();
        let mut ax = MultiVec::zeros(n, m);
        a.apply_multi(x, &mut ax);
        (0..m)
            .map(|j| {
                b.column(j)
                    .iter()
                    .zip(&ax.column(j))
                    .map(|(u, v)| (u - v) * (u - v))
                    .sum::<f64>()
                    .sqrt()
            })
            .collect()
    }

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

    #[test]
    fn reordered_variant_reaches_the_same_tolerance() {
        let a = convection(30, 0.35);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 29);
        let opts = BlockBicgstabOptions {
            solve: SolveConfig { tol: 1e-9, max_iter: 600 },
            variant: BicgstabVariant::Reordered,
            ..Default::default()
        };
        let mut x = MultiVec::zeros(n, m);
        let res = block_bicgstab_with_options(&a, &b, &mut x, &opts);
        assert!(res.converged, "{res:?}");

        // The two variants round differently; both must hit the true
        // tolerance, and their solutions agree to solver accuracy.
        let mut x_classic = MultiVec::zeros(n, m);
        let classic = block_bicgstab_with_options(
            &a,
            &b,
            &mut x_classic,
            &BlockBicgstabOptions {
                variant: BicgstabVariant::Classic,
                ..opts.clone()
            },
        );
        assert!(classic.converged);
        let rn = true_residual_norms(&a, &b, &x);
        let bn = b.norms();
        for j in 0..m {
            assert!(rn[j] <= 5e-9 * bn[j], "col {j}");
        }
        for (u, v) in x.as_slice().iter().zip(x_classic.as_slice()) {
            assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn single_column_matches_scalar_bicgstab() {
        // At m = 1 every m×m solve is a scalar division and the block
        // recursion reduces to classic BiCGStab: same iteration count
        // (±1 for the half-step exit) and matching solutions.
        let a = convection(25, 0.3);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 1, 9);
        let cfg = SolveConfig { tol: 1e-9, max_iter: 500 };

        let mut xb = MultiVec::zeros(n, 1);
        let rb = block_bicgstab(&a, &b, &mut xb, &cfg);
        let mut xs = vec![0.0; n];
        let rs = bicgstab(&a, &b.column(0), &mut xs, &cfg);
        assert!(rb.converged && rs.converged, "{rb:?} {rs:?}");
        assert!(
            rb.iterations.abs_diff(rs.iterations) <= 2,
            "block {} vs scalar {}",
            rb.iterations,
            rs.iterations
        );
        for (u, v) in xb.column(0).iter().zip(&xs) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
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
    fn column_tols_stop_each_column_at_its_own_tolerance() {
        let a = convection(30, 0.3);
        let n = a.n_rows();
        let m = 3;
        let b = pseudo_multivec(n, m, 19);
        let tols = vec![1e-2, 1e-5, 1e-9];
        let opts = BlockBicgstabOptions {
            solve: SolveConfig { tol: 1e-5, max_iter: 800 },
            record_residual_history: true,
            column_tols: Some(tols.clone()),
            ..Default::default()
        };
        let mut x = MultiVec::zeros(n, m);
        let res = block_bicgstab_with_options(&a, &b, &mut x, &opts);
        assert!(res.converged, "{res:?}");

        let b_norms = b.norms();
        for j in 0..m {
            let at = res.column_converged_at[j].expect("converged");
            assert_eq!(res.column_iterations[j], at);
            let threshold = tols[j] * b_norms[j];
            let h = &res.residual_history[j];
            assert!(h[at] <= threshold, "col {j}: {} > {threshold}", h[at]);
            if at > 0 {
                assert!(h[at - 1] > threshold, "col {j} converged early");
            }
        }
        assert!(res.column_iterations[0] <= res.column_iterations[2]);
    }

    #[test]
    fn residual_history_matches_hook_cadence_and_final_norms() {
        let a = convection(20, 0.3);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 47);
        let opts = BlockBicgstabOptions {
            solve: SolveConfig { tol: 1e-8, max_iter: 600 },
            record_residual_history: true,
            ..Default::default()
        };
        let mut hook_iters = Vec::new();
        let mut x = MultiVec::zeros(n, m);
        let res =
            block_bicgstab_observed(&a, &b, &mut x, &opts, |it, norms, xi| {
                assert_eq!(norms.len(), m);
                assert_eq!(xi.shape(), (n, m));
                hook_iters.push(it);
            });
        assert!(res.converged);
        assert_eq!(hook_iters, (0..=res.iterations).collect::<Vec<_>>());
        assert_eq!(res.residual_history.len(), m);
        for (j, h) in res.residual_history.iter().enumerate() {
            assert_eq!(h.len(), res.iterations + 1);
            assert_eq!(*h.last().unwrap(), res.residual_norms[j]);
        }
    }

    /// Delegates to an inner matrix for the first `good_applies` GSPMV
    /// calls, then fills the output with NaN — forcing the R̃ᵀV solve
    /// into an unfactorizable state (all-NaN Gram → zero scale → LU
    /// failure), i.e. the deterministic ρ-collapse path.
    struct PoisonAfter {
        inner: BcrsMatrix,
        good_applies: usize,
        applies: std::sync::atomic::AtomicUsize,
    }

    impl LinearOperator for PoisonAfter {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y);
        }
        fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
            use std::sync::atomic::Ordering;
            if self.applies.fetch_add(1, Ordering::Relaxed) < self.good_applies {
                self.inner.apply_multi(x, y);
            } else {
                y.fill(f64::NAN);
            }
        }
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
        let poisoned = PoisonAfter {
            inner: a.clone(),
            good_applies: 7,
            applies: std::sync::atomic::AtomicUsize::new(0),
        };
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
        let poisoned = PoisonAfter {
            inner: a.clone(),
            good_applies: 2,
            applies: std::sync::atomic::AtomicUsize::new(0),
        };
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

    #[test]
    fn nan_column_never_reports_converged() {
        // One poisoned RHS column must not be masked as converged, and
        // its NaN must surface in the reported norms — the per-column
        // isolation contract the service's solo retry relies on.
        let a = convection(20, 0.3);
        let n = a.n_rows();
        let m = 4;
        let mut b = pseudo_multivec(n, m, 61);
        let mut poisoned_col = b.column(2);
        poisoned_col[0] = f64::NAN;
        b.set_column(2, &poisoned_col);
        let mut x = MultiVec::zeros(n, m);
        let res = block_bicgstab(&a, &b, &mut x, &SolveConfig::default());
        assert!(!res.converged);
        assert!(
            res.column_converged_at[2].is_none(),
            "poisoned column reported converged: {res:?}"
        );
        assert!(res.residual_norms[2].is_nan());
    }

    #[test]
    fn zero_rhs_block() {
        let a = convection(5, 0.2);
        let n = a.n_rows();
        let b = MultiVec::zeros(n, 2);
        let mut x = MultiVec::zeros(n, 2);
        let res = block_bicgstab(&a, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn successful_solves_report_no_breakdown() {
        let a = convection(20, 0.25);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 3, 13);
        let mut x = MultiVec::zeros(n, 3);
        let res = block_bicgstab(&a, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert!(res.breakdown.is_none());
    }
}
