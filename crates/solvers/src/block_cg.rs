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

use crate::cg::SolveConfig;
use crate::dense;
use crate::operator::LinearOperator;
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;
use std::time::Instant;

/// Emits the per-iteration trace points for a block solver under
/// `{base}/iter` (`a` = iteration index, `b` = worst per-column
/// residual norm as f64 bits), plus a `{base}/col_converged` point for
/// each column whose convergence was first recorded at `it` — the
/// member-column tagging the request span tree surfaces. No-op unless
/// the calling thread carries a trace context.
pub(crate) fn trace_iteration(
    base: &str,
    it: usize,
    norms: &[f64],
    column_converged_at: &[Option<usize>],
) {
    if !telemetry::trace::trace_enabled() {
        return;
    }
    let max = norms.iter().cloned().fold(0.0f64, f64::max);
    telemetry::trace::point(&format!("{base}/iter"), it as u64, max.to_bits());
    for (col, conv) in column_converged_at.iter().enumerate() {
        if *conv == Some(it) {
            telemetry::trace::point(
                &format!("{base}/col_converged"),
                col as u64,
                it as u64,
            );
        }
    }
}

/// Outcome of a block-CG solve.
#[derive(Clone, Debug)]
pub struct BlockCgResult {
    /// Block iterations *completed* (each is one GSPMV plus the X/R
    /// updates). `residual_norms` always describes the residual after
    /// exactly this many iterations.
    pub iterations: usize,
    /// Whether every column met the tolerance.
    pub converged: bool,
    /// Per-column residual norms after `iterations` completed
    /// iterations — on breakdown, the last completed iteration, not a
    /// stale or half-updated state.
    pub residual_norms: Vec<f64>,
    /// Iteration at which each column first met its tolerance.
    pub column_converged_at: Vec<Option<usize>>,
    /// Block iterations each column *effectively paid for*: the
    /// iteration at which it first met its tolerance, or `iterations`
    /// for columns that never converged. The solve-service batcher uses
    /// these to attribute cost per coalesced request.
    pub column_iterations: Vec<usize>,
    /// `Some(k)` if one of the small `m×m` solves failed during
    /// iteration `k` (rank-deficient block residual — the numerical
    /// hazard of block methods); the solve stopped there with
    /// `iterations = k − 1` (Pᵀ·Q breakdown, X untouched in iteration
    /// `k`) or `iterations = k` (ρ·β breakdown, X updated).
    pub breakdown: Option<usize>,
    /// Per-column residual-norm history: `residual_history[j][k]` is
    /// column `j`'s norm after `k` completed iterations (entry 0 is the
    /// initial residual). Recorded only when
    /// [`BlockCgOptions::record_residual_history`] is set; empty
    /// otherwise.
    pub residual_history: Vec<Vec<f64>>,
}

/// Options for a block-CG solve. [`SolveConfig`] stays the small Copy
/// struct every solver shares; the block-specific switches live here.
#[derive(Clone, Debug, Default)]
pub struct BlockCgOptions {
    /// Tolerance and iteration cap.
    pub solve: SolveConfig,
    /// Record the per-column, per-iteration residual norms into
    /// [`BlockCgResult::residual_history`].
    pub record_residual_history: bool,
    /// Per-column relative tolerances overriding `solve.tol`
    /// column-by-column (length `m` when present). Coalesced solves use
    /// this so every batched request keeps its own stopping criterion:
    /// an early-converged column is marked done at its own tolerance
    /// and stops contributing to the convergence test, instead of
    /// riding along to the tightest batchmate's tolerance.
    pub column_tols: Option<Vec<f64>>,
}

impl From<SolveConfig> for BlockCgOptions {
    fn from(solve: SolveConfig) -> Self {
        BlockCgOptions { solve, record_residual_history: false, column_tols: None }
    }
}

/// Solves `A·X = B` for SPD `A` and `m` right-hand sides by block CG,
/// starting from the guess already in `x`. Each column converges when
/// its residual norm is below `cfg.tol` times that column's `‖b_j‖`.
pub fn block_cg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    cfg: &SolveConfig,
) -> BlockCgResult {
    block_cg_observed(a, b, x, &BlockCgOptions::from(*cfg), |_, _, _| {})
}

/// [`block_cg`] with explicit [`BlockCgOptions`].
pub fn block_cg_with_options<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockCgOptions,
) -> BlockCgResult {
    block_cg_observed(a, b, x, opts, |_, _, _| {})
}

/// Times one block-CG iteration: its drop records the
/// `solver/block_cg/iter` span and a log₂-bucketed latency sample, so
/// the measurement covers the iteration body on every exit path
/// (convergence break, breakdown break, loop bottom). Inert — no clock
/// read — while telemetry is disabled.
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
            telemetry::record_span_secs("solver/block_cg/iter", dt.as_secs_f64());
            telemetry::histogram_record_ns(
                "solver/block_cg/iter_ns",
                dt.as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    }
}

/// The instrumented core of block CG. `observe` runs once for the
/// initial residual (`iteration = 0`) and once after every *completed*
/// iteration, receiving the iteration number, the per-column residual
/// norms at that point, and the current iterate `X`. It is the single
/// hook both telemetry consumers and
/// [`BlockCgResult::residual_history`] are fed from, and what tests use
/// to check per-iteration invariants (e.g. A-norm error monotonicity)
/// without re-running the solve at every truncation depth.
pub fn block_cg_observed<A, F>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &BlockCgOptions,
    mut observe: F,
) -> BlockCgResult
where
    A: LinearOperator + ?Sized,
    F: FnMut(usize, &[f64], &MultiVec),
{
    let cfg = &opts.solve;
    let n = a.dim();
    let m = b.m();
    assert_eq!(b.n(), n);
    assert_eq!(x.shape(), (n, m));

    let _solve_span = telemetry::span("solver/block_cg");
    telemetry::counter_add("solver/block_cg/solves", 1);
    let init_span = telemetry::span("solver/block_cg/init");

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

    // R = B − A·X
    let mut r = MultiVec::zeros(n, m);
    a.apply_multi(x, &mut r);
    {
        let (rs, bs) = (r.as_mut_slice(), b.as_slice());
        for (ri, bi) in rs.iter_mut().zip(bs) {
            *ri = bi - *ri;
        }
    }

    let mut column_converged_at: Vec<Option<usize>> = vec![None; m];
    let mut rho = r.gram(&r); // m×m
    let mut norms = vec![0.0; m];
    diag_sqrt_into(&rho, m, &mut norms);
    let mut history: Vec<Vec<f64>> =
        if opts.record_residual_history { vec![Vec::new(); m] } else { Vec::new() };
    push_history(&mut history, &norms);
    observe(0, &norms, x);
    update_convergence(&norms, &thresholds, &mut column_converged_at, 0);
    trace_iteration("solver/block_cg", 0, &norms, &column_converged_at);
    drop(init_span);
    if column_converged_at.iter().all(Option::is_some) {
        return BlockCgResult {
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
    let mut q = MultiVec::zeros(n, m);
    let mut iterations = 0;
    let mut breakdown = None;
    // The m×m temporaries of an iteration, allocated once per solve:
    // `lhs` is the left-hand side `lu_solve` destroys (PᵀQ, then ρ),
    // `coef` its right-hand side and solution (α, then β).
    let mut lhs = vec![0.0; m * m];
    let mut coef = vec![0.0; m * m];
    let mut rho_new = vec![0.0; m * m];

    for it in 1..=cfg.max_iter {
        let _iter_timer = IterTimer::start();
        a.apply_multi(&p, &mut q);
        // α solves (PᵀQ)·α = ρ
        p.gram_into(&q, &mut lhs);
        dense::symmetrize(&mut lhs, m);
        ridge(&mut lhs, m);
        coef.copy_from_slice(&rho);
        if !dense::lu_solve(&mut lhs, m, &mut coef, m) {
            // X, R and ρ still describe iteration `it − 1` — the state
            // reported below stays internally consistent.
            breakdown = Some(it);
            break;
        }
        // X += P·α ; R −= Q·α fused with the ρ_new = RᵀR reduction
        x.add_mul_dense(&p, &coef);
        r.sub_mul_dense_then_gram_into(&q, &coef, &mut rho_new);
        iterations = it;
        telemetry::counter_add("solver/block_cg/iterations", 1);
        diag_sqrt_into(&rho_new, m, &mut norms);
        push_history(&mut history, &norms);
        observe(it, &norms, x);
        update_convergence(&norms, &thresholds, &mut column_converged_at, it);
        trace_iteration("solver/block_cg", it, &norms, &column_converged_at);
        if column_converged_at.iter().all(Option::is_some) {
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
        if !dense::lu_solve(&mut lhs, m, &mut coef, m) {
            breakdown = Some(it);
            break;
        }
        // P ← R + P·β
        p.assign_add_mul_dense(&r, &coef);
    }

    let converged =
        breakdown.is_none() && column_converged_at.iter().all(Option::is_some);
    let column_iterations = column_converged_at
        .iter()
        .map(|c| c.unwrap_or(iterations))
        .collect::<Vec<_>>();
    // `norms` was last written from the ρ of the last completed
    // iteration on every exit path (a PᵀQ breakdown leaves X, R and ρ
    // at iteration `it − 1`).
    BlockCgResult {
        iterations,
        converged,
        residual_norms: norms,
        column_iterations,
        column_converged_at,
        breakdown,
        residual_history: history,
    }
}

/// Square roots of the Gram diagonal. Negative round-off clamps to
/// zero, but NaN must propagate (`f64::max` would silently mask it):
/// a poisoned column has residual NaN, not 0, and must never be
/// reported as converged.
fn diag_sqrt_into(gram: &[f64], m: usize, norms: &mut [f64]) {
    for (j, norm) in norms.iter_mut().enumerate() {
        let v = gram[j * m + j];
        *norm = if v.is_nan() { f64::NAN } else { v.max(0.0).sqrt() };
    }
}

/// Appends one per-column entry; a no-op when history recording is off
/// (`history` is then the empty Vec and the zip visits nothing).
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
    use crate::cg::{cg, SolveConfig};
    use crate::operator::CountingOperator;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

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

        // verify true residuals column by column
        use crate::operator::LinearOperator;
        let mut ax = MultiVec::zeros(n, m);
        a.apply_multi(&x, &mut ax);
        for j in 0..m {
            let bj = b.column(j);
            let axj = ax.column(j);
            let rn: f64 = bj
                .iter()
                .zip(&axj)
                .map(|(u, v)| (u - v) * (u - v))
                .sum::<f64>()
                .sqrt();
            let bn: f64 = bj.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(rn <= 2e-8 * bn, "col {j}: {rn} vs {bn}");
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
    fn column_convergence_order_recorded() {
        let a = laplacian(25);
        let n = a.n_rows();
        let m = 3;
        let b = pseudo_multivec(n, m, 31);
        let mut x = MultiVec::zeros(n, m);
        let res = block_cg(&a, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        for c in &res.column_converged_at {
            let at = c.expect("every column converged");
            assert!(at <= res.iterations);
        }
    }

    /// Delegates to an inner matrix for the first `good_applies` GSPMV
    /// calls, then fills the output with NaN — which drives the PᵀQ
    /// Gram matrix to an unfactorizable state and forces the breakdown
    /// path deterministically.
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
    fn breakdown_reports_last_completed_iteration() {
        let a = laplacian(25);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 41);
        let cfg = SolveConfig { tol: 1e-12, max_iter: 100 };

        // Good for the initial residual plus 3 iterations, then poison:
        // the 4th iteration's PᵀQ solve must fail.
        let poisoned = PoisonAfter {
            inner: a.clone(),
            good_applies: 4,
            applies: std::sync::atomic::AtomicUsize::new(0),
        };
        let mut x = MultiVec::zeros(n, m);
        let res = block_cg(&poisoned, &b, &mut x, &cfg);
        assert!(!res.converged);
        assert_eq!(res.breakdown, Some(4), "{res:?}");
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

    #[test]
    fn successful_solves_report_no_breakdown() {
        let a = laplacian(20);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 3, 13);
        let mut x = MultiVec::zeros(n, 3);
        let res = block_cg(&a, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert!(res.breakdown.is_none());
    }

    #[test]
    fn residual_history_off_by_default() {
        let a = laplacian(15);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 3, 61);
        let mut x = MultiVec::zeros(n, 3);
        let res = block_cg(&a, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert!(res.residual_history.is_empty());
    }

    #[test]
    fn residual_history_matches_hook_cadence_and_final_norms() {
        let a = laplacian(20);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 47);
        let opts = BlockCgOptions {
            solve: SolveConfig { tol: 1e-8, max_iter: 400 },
            record_residual_history: true,
            ..Default::default()
        };
        let mut hook_iters = Vec::new();
        let mut x = MultiVec::zeros(n, m);
        let res = block_cg_observed(&a, &b, &mut x, &opts, |it, norms, xi| {
            assert_eq!(norms.len(), m);
            assert_eq!(xi.shape(), (n, m));
            hook_iters.push(it);
        });
        assert!(res.converged);
        // Hook fires at iteration 0 and after each completed iteration;
        // the history has exactly one entry per firing, per column.
        assert_eq!(hook_iters, (0..=res.iterations).collect::<Vec<_>>());
        assert_eq!(res.residual_history.len(), m);
        for (j, h) in res.residual_history.iter().enumerate() {
            assert_eq!(h.len(), res.iterations + 1);
            assert_eq!(*h.last().unwrap(), res.residual_norms[j]);
        }
    }

    /// Per-iteration iterates captured through the observer hook must
    /// decrease the A-norm error monotonically — the invariant the
    /// oracle's `a_norm_error` pins for CG, extended here to every
    /// column of the block solve (each column's error is minimized over
    /// the same growing block Krylov space).
    #[test]
    fn observed_iterates_decrease_a_norm_error_per_column() {
        use oracle::invariants::a_norm_error;
        use oracle::reference::Dense;

        let a = laplacian(20);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 51);

        let mut x_star = MultiVec::zeros(n, m);
        let tight = SolveConfig { tol: 1e-13, max_iter: 2000 };
        assert!(block_cg(&a, &b, &mut x_star, &tight).converged);

        let dense = Dense::from_bcrs(&a);
        let opts = BlockCgOptions {
            solve: SolveConfig { tol: 1e-8, max_iter: 400 },
            record_residual_history: true,
            ..Default::default()
        };
        let mut iterates = Vec::new();
        let mut x = MultiVec::zeros(n, m);
        let res = block_cg_observed(&a, &b, &mut x, &opts, |_, _, xi| {
            iterates.push(xi.clone());
        });
        assert!(res.converged);
        assert_eq!(iterates.len(), res.iterations + 1);

        for j in 0..m {
            let xs = x_star.column(j);
            let mut last = f64::INFINITY;
            for (k, xi) in iterates.iter().enumerate() {
                let e = a_norm_error(&dense, &xi.column(j), &xs);
                assert!(
                    e <= last * (1.0 + 1e-9) + 1e-12,
                    "col {j} iter {k}: A-norm error rose {last} -> {e}"
                );
                last = e;
            }
        }
    }

    #[test]
    fn column_tols_stop_each_column_at_its_own_tolerance() {
        let a = laplacian(30);
        let n = a.n_rows();
        let m = 3;
        let b = pseudo_multivec(n, m, 19);
        let tols = vec![1e-2, 1e-6, 1e-10];
        let opts = BlockCgOptions {
            solve: SolveConfig { tol: 1e-6, max_iter: 800 },
            record_residual_history: true,
            column_tols: Some(tols.clone()),
        };
        let mut x = MultiVec::zeros(n, m);
        let res = block_cg_with_options(&a, &b, &mut x, &opts);
        assert!(res.converged, "{res:?}");

        let b_norms = b.norms();
        for j in 0..m {
            let at = res.column_converged_at[j].expect("converged");
            assert_eq!(res.column_iterations[j], at);
            // The recorded history shows the column first crossed *its
            // own* threshold at `at`, not the uniform solve.tol.
            let threshold = tols[j] * b_norms[j];
            let h = &res.residual_history[j];
            assert!(h[at] <= threshold, "col {j}: {} > {threshold}", h[at]);
            if at > 0 {
                assert!(h[at - 1] > threshold, "col {j} converged early");
            }
        }
        // Loose columns stop earlier than tight ones.
        assert!(res.column_iterations[0] <= res.column_iterations[2]);
    }

    #[test]
    fn column_iterations_cap_at_total_for_unconverged_columns() {
        let a = laplacian(40);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 2, 29);
        // Unreachable tolerance within the iteration budget.
        let cfg = SolveConfig { tol: 1e-300, max_iter: 3 };
        let mut x = MultiVec::zeros(n, 2);
        let res = block_cg(&a, &b, &mut x, &cfg);
        assert!(!res.converged);
        assert_eq!(res.column_iterations, vec![res.iterations; 2]);
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

    #[test]
    fn zero_rhs_block() {
        let a = laplacian(5);
        let n = a.n_rows();
        let b = MultiVec::zeros(n, 2);
        let mut x = MultiVec::zeros(n, 2);
        let res = block_cg(&a, &b, &mut x, &SolveConfig::default());
        assert!(res.converged);
        assert_eq!(res.iterations, 0);
    }
}
