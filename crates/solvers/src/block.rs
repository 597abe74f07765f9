//! The block-solve contract: how a block Krylov solve is configured,
//! tracked and reported, written once under [`crate::block_cg()`] (and
//! so [`crate::cg()`], its width-1 case) and [`crate::block_bicgstab()`].
//!
//! * **Thresholds.** Column `j` is converged once its residual norm is
//!   at or below `tol_j · max(‖b_j‖, f64::MIN_POSITIVE)`, where `tol_j`
//!   is `column_tols[j]` when given and `solve.tol` otherwise. The
//!   first iteration at which that held is kept in
//!   `column_converged_at[j]`; the solve stops when every column has
//!   one, at `solve.max_iter`, or on a breakdown.
//! * **Zero right-hand side.** A column with `b_j = 0` has the exact
//!   solution `x_j = 0`: whatever the guess, its column of `X` and of
//!   the residual are zeroed and it is converged at iteration 0, as
//!   [`crate::cg()`] does for a zero `b`.
//! * **Honest state.** `iterations` counts *completed* iterations and
//!   `residual_norms` describes the returned `X` after exactly that
//!   many. A breakdown detected in iteration `k` before `X` was
//!   touched (a failed α solve) reports `iterations = k − 1`; one
//!   detected after the update (a failed β solve, an undefined ω)
//!   reports `iterations = k`.
//! * **NaN.** A non-finite norm never compares as converged, and a
//!   coefficient block with a non-finite entry is a breakdown *before*
//!   it is applied: one poisoned right-hand-side column stops the
//!   solve with every column of `X` as the caller left it.
//! * **The norm is the 2-norm of the true residual.** The
//!   preconditioners ([`crate::precond`]) change block CG's inner
//!   products and BiCGStab's search space, not what is tested or
//!   reported: thresholds, `residual_norms` and `column_converged_at`
//!   describe `‖b_j − A·x_j‖₂`. Block BiCGStab's recurrence residual
//!   drifts from that, and block CG under Gauss–Seidel keeps none (it
//!   predicts each column's norm from its split residual), so both
//!   recompute `B − A·X` where they would stop and go on unless every
//!   column meets its threshold there: their `converged` means every
//!   `residual_norms[j]` is at or below column `j`'s threshold. Block
//!   CG recomputes it also where it stops unchecked (`max_iter`, a
//!   breakdown), so the norms it reports are those of the `X` it
//!   returns.

use crate::cg::{CgResult, SolveConfig};
use crate::dense;
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;
use std::time::Instant;

/// Options of a block solve. [`SolveConfig`] stays the small `Copy`
/// struct every solver shares; what only a block of columns needs
/// lives here.
#[derive(Clone, Debug, Default)]
pub struct BlockSolveOptions {
    /// Tolerance and iteration cap.
    pub solve: SolveConfig,
    /// Per-column relative tolerances overriding `solve.tol`
    /// column-by-column (length `m` when present). Coalesced solves use
    /// this so every batched request keeps its own stopping criterion:
    /// an early-converged column is marked done at its own tolerance
    /// and stops contributing to the convergence test, instead of
    /// riding along to the tightest batchmate's tolerance.
    pub column_tols: Option<Vec<f64>>,
}

impl From<SolveConfig> for BlockSolveOptions {
    fn from(solve: SolveConfig) -> Self {
        BlockSolveOptions { solve, column_tols: None }
    }
}

/// Which small solve or recursion of a Krylov method collapsed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakdownKind {
    /// The residual inner product lost rank: block BiCGStab's `R̃ᵀV`
    /// coefficient solves (at m = 1 the `r̃ᵀv` α denominator), or a
    /// block CG column's `β_j = ρ'_j/ρ_j` was not finite or its `ρ'_j`
    /// grew past `ρ_0,j/ε²` (a matrix singular or indefinite to working
    /// precision).
    Rho,
    /// The stabilizer `ω = ⟨t,s⟩/⟨t,t⟩` was zero or undefined.
    Omega,
    /// A block CG column's curvature `p_jᵀA·p_j` was zero or NaN, or
    /// its `α_j` not finite.
    Curvature,
}

/// A structural breakdown: which recursion collapsed and in which
/// iteration. The solver stops there with internally consistent
/// bookkeeping (the reported residual describes the returned iterate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Breakdown {
    /// Iteration in which the collapse was detected (1-based, like the
    /// iteration counter in the result).
    pub iteration: usize,
    /// Which recursion collapsed.
    pub kind: BreakdownKind,
}

/// Outcome of a block solve (see the module docs for the contract).
#[derive(Clone, Debug)]
pub struct BlockSolveResult {
    /// Block iterations *completed*. Block BiCGStab counts an
    /// iteration that stopped at its half step (`X += P̂·α` applied, ω
    /// not needed or undefined) as completed.
    pub iterations: usize,
    /// Whether every column met its tolerance and nothing broke down.
    pub converged: bool,
    /// Per-column residual norms of the returned `X`.
    pub residual_norms: Vec<f64>,
    /// Iteration at which each column first met its tolerance.
    pub column_converged_at: Vec<Option<usize>>,
    /// Block iterations each column *effectively paid for*: the
    /// iteration at which it first met its tolerance, or `iterations`
    /// for columns that never converged. The solve-service batcher uses
    /// these to attribute cost per coalesced request.
    pub column_iterations: Vec<usize>,
    /// `Some` if a breakdown stopped the solve.
    pub breakdown: Option<Breakdown>,
}

/// The telemetry names of one block solver, spelled out at compile
/// time so no iteration formats a string.
pub(crate) struct SolverNames {
    solve: &'static str,
    init: &'static str,
    /// Both the per-iteration span and the `{base}/iter` trace point.
    iter: &'static str,
    iter_ns: &'static str,
    solves: &'static str,
    pub(crate) preconditioned: &'static str,
    iterations: &'static str,
    col_converged: &'static str,
    residual_checks: &'static str,
}

macro_rules! solver_names {
    ($base:literal) => {
        SolverNames {
            solve: $base,
            init: concat!($base, "/init"),
            iter: concat!($base, "/iter"),
            iter_ns: concat!($base, "/iter_ns"),
            solves: concat!($base, "/solves"),
            preconditioned: concat!($base, "/preconditioned"),
            iterations: concat!($base, "/iterations"),
            col_converged: concat!($base, "/col_converged"),
            residual_checks: concat!($base, "/residual_checks"),
        }
    };
}

pub(crate) static CG: SolverNames = solver_names!("solver/cg");
pub(crate) static BLOCK_CG: SolverNames = solver_names!("solver/block_cg");
pub(crate) static BLOCK_BICGSTAB: SolverNames =
    solver_names!("solver/block_bicgstab");

/// Times one block iteration: its drop records the `{base}/iter` span
/// and a log₂-bucketed latency sample, so the measurement covers the
/// iteration body on every exit path (convergence break, breakdown
/// break, loop bottom). Inert — no clock read — while telemetry is
/// disabled.
pub(crate) struct IterTimer {
    names: &'static SolverNames,
    start: Option<Instant>,
}

impl Drop for IterTimer {
    fn drop(&mut self) {
        if let Some(t) = self.start.take() {
            let dt = t.elapsed();
            telemetry::record_span_secs(self.names.iter, dt.as_secs_f64());
            telemetry::histogram_record_ns(
                self.names.iter_ns,
                dt.as_nanos().min(u64::MAX as u128) as u64,
            );
        }
    }
}

/// The per-column vectors of a [`ColumnTracker`], kept between solves
/// by the caller so that a warm solve allocates none of them.
#[derive(Default)]
pub(crate) struct Columns {
    thresholds: Vec<f64>,
    norms: Vec<f64>,
    converged_at: Vec<Option<usize>>,
}

/// Per-column bookkeeping of one block solve: thresholds, the norms of
/// the last completed iteration, which column converged when, the
/// iteration counter, the solve's spans, counters and trace points,
/// and the final [`BlockSolveResult`].
pub(crate) struct ColumnTracker<'w> {
    names: &'static SolverNames,
    columns: &'w mut Columns,
    iterations: usize,
    _solve_span: telemetry::SpanGuard,
    init_span: Option<telemetry::SpanGuard>,
}

impl<'w> ColumnTracker<'w> {
    /// Opens the solve: checks shapes, starts the `{base}` and
    /// `{base}/init` spans, fixes the thresholds in `columns`, sets
    /// each column of `X` whose right-hand side is zero to its solution
    /// and leaves the initial residual `R = B − A·X` in `r`, with
    /// `product(X, R)` computing `A·X`.
    pub(crate) fn start(
        names: &'static SolverNames,
        b: &MultiVec,
        x: &mut MultiVec,
        opts: &BlockSolveOptions,
        columns: &'w mut Columns,
        r: &mut MultiVec,
        product: impl FnOnce(&MultiVec, &mut MultiVec),
    ) -> Self {
        let (n, m) = b.shape();
        assert_eq!(x.shape(), (n, m));

        let solve_span = telemetry::span(names.solve);
        telemetry::counter_add(names.solves, 1);
        let init_span = telemetry::span(names.init);

        let Columns { thresholds, norms, converged_at } = &mut *columns;
        if let Some(tols) = &opts.column_tols {
            assert_eq!(tols.len(), m, "column_tols length must equal m");
        }
        // ‖b_j‖², then the threshold, in place.
        thresholds.resize(m, 0.0);
        b.dot_columns_into(b, thresholds);
        converged_at.clear();
        for (j, threshold) in thresholds.iter_mut().enumerate() {
            let bn = threshold.sqrt();
            let tol = opts.column_tols.as_ref().map_or(opts.solve.tol, |t| t[j]);
            *threshold = tol * bn.max(f64::MIN_POSITIVE);
            converged_at.push((bn == 0.0).then_some(0));
        }
        norms.resize(m, 0.0);

        zero_columns(x, converged_at);
        r.reset(n, m);
        product(x, r);
        for (ri, bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *ri = bi - *ri;
        }
        zero_columns(r, converged_at);

        ColumnTracker {
            names,
            columns,
            iterations: 0,
            _solve_span: solve_span,
            init_span: Some(init_span),
        }
    }

    /// Records the initial residual norms from their squares
    /// (`‖r_j‖₂²`, e.g. the diagonal of `RᵀR`) and closes the init span.
    /// `true` when every column already meets its threshold.
    pub(crate) fn initial<'a>(
        &mut self,
        norms_sq: impl IntoIterator<Item = &'a f64>,
    ) -> bool {
        sqrt_into(norms_sq, &mut self.columns.norms);
        let done = self.update_convergence(0);
        self.init_span = None;
        done
    }

    pub(crate) fn iter_timer(&self) -> IterTimer {
        IterTimer {
            names: self.names,
            start: telemetry::enabled().then(Instant::now),
        }
    }

    /// Iteration `it` completed its `X`/`R` updates and `norms_sq` are
    /// the squared norms of the new residual's columns. `true` when
    /// every column has converged.
    pub(crate) fn completed<'a>(
        &mut self,
        it: usize,
        norms_sq: impl IntoIterator<Item = &'a f64>,
    ) -> bool {
        sqrt_into(norms_sq, &mut self.columns.norms);
        self.count(it)
    }

    /// [`ColumnTracker::completed`] for an iteration whose residual
    /// norms the solver already holds (a half-step exit, a recomputed
    /// residual).
    pub(crate) fn completed_with_norms(
        &mut self,
        it: usize,
        norms: &[f64],
    ) -> bool {
        self.columns.norms.copy_from_slice(norms);
        self.count(it)
    }

    /// The check where a recurrence that drifts from its true residual
    /// would stop: `norms` are those of `B − A·X` recomputed. `true`
    /// when every column meets its threshold; otherwise each column
    /// that does not is no longer counted as converged, so the solve
    /// goes on until it meets it again.
    pub(crate) fn recheck(&mut self, norms: &[f64]) -> bool {
        let c = &mut *self.columns;
        let mut all = true;
        for ((norm, threshold), at) in
            norms.iter().zip(&c.thresholds).zip(&mut c.converged_at)
        {
            if !meets(*norm, *threshold) {
                *at = None;
                all = false;
            }
        }
        all
    }

    /// True when `norms` would leave every column converged: at or
    /// below its threshold, or marked converged earlier. A non-finite
    /// norm never meets a threshold, so a poisoned column never opens a
    /// half-step exit.
    pub(crate) fn would_converge(&self, norms: &[f64]) -> bool {
        let c = &*self.columns;
        norms
            .iter()
            .zip(&c.thresholds)
            .zip(&c.converged_at)
            .all(|((n, t), at)| at.is_some() || meets(*n, *t))
    }

    /// `R = B − A·X` recomputed with `product(X, R)` computing `A·X`,
    /// and its column norms (`norms_sq` their squares): a check of the
    /// true residual, counted under `{base}/residual_checks`.
    pub(crate) fn true_residual(
        &self,
        b: &MultiVec,
        x: &MultiVec,
        r: &mut MultiVec,
        norms_sq: &mut [f64],
        norms: &mut [f64],
        product: impl FnOnce(&MultiVec, &mut MultiVec),
    ) {
        telemetry::counter_add(self.names.residual_checks, 1);
        product(x, r);
        for (ri, bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
            *ri = bi - *ri;
        }
        r.dot_columns_into(r, norms_sq);
        sqrt_into(&*norms_sq, norms);
    }

    /// The true residual norms of the `X` the solve returns, where it
    /// stops without a check having seen that `X` (at `max_iter`, on a
    /// breakdown): they replace the norms the tracker holds, a column
    /// above its threshold is no longer counted as converged, and one
    /// at or below it is counted from the last completed iteration.
    pub(crate) fn settle(&mut self, norms: &[f64]) {
        self.recheck(norms);
        self.columns.norms.copy_from_slice(norms);
        self.update_convergence(self.iterations);
    }

    fn count(&mut self, it: usize) -> bool {
        self.iterations = it;
        telemetry::counter_add(self.names.iterations, 1);
        self.update_convergence(it)
    }

    /// Marks the columns that first meet their threshold at `it` and
    /// emits the trace points: `{base}/iter` (`a` = iteration, `b` =
    /// worst norm as f64 bits) and one `{base}/col_converged` per
    /// newly converged column — the member-column tagging the request
    /// span tree surfaces.
    fn update_convergence(&mut self, it: usize) -> bool {
        let c = &mut *self.columns;
        for ((norm, threshold), at) in
            c.norms.iter().zip(&c.thresholds).zip(&mut c.converged_at)
        {
            if at.is_none() && meets(*norm, *threshold) {
                *at = Some(it);
            }
        }
        if telemetry::trace::trace_enabled() {
            let max = c.norms.iter().cloned().fold(0.0f64, f64::max);
            telemetry::trace::point(self.names.iter, it as u64, max.to_bits());
            for (col, at) in c.converged_at.iter().enumerate() {
                if *at == Some(it) {
                    telemetry::trace::point(
                        self.names.col_converged,
                        col as u64,
                        it as u64,
                    );
                }
            }
        }
        c.converged_at.iter().all(Option::is_some)
    }

    fn converged(&self, breakdown: Option<Breakdown>) -> bool {
        breakdown.is_none() && self.columns.converged_at.iter().all(Option::is_some)
    }

    /// Closes the solve. The norms were last written from the last
    /// completed iteration on every exit path.
    pub(crate) fn finish(self, breakdown: Option<Breakdown>) -> BlockSolveResult {
        let iterations = self.iterations;
        let c = &*self.columns;
        BlockSolveResult {
            iterations,
            converged: self.converged(breakdown),
            residual_norms: c.norms.clone(),
            column_iterations: c
                .converged_at
                .iter()
                .map(|at| at.unwrap_or(iterations))
                .collect(),
            column_converged_at: c.converged_at.clone(),
            breakdown,
        }
    }

    /// [`ColumnTracker::finish`] for one column, as [`CgResult`]: it
    /// allocates nothing.
    pub(crate) fn finish_column(self, breakdown: Option<Breakdown>) -> CgResult {
        CgResult {
            iterations: self.iterations,
            converged: self.converged(breakdown),
            residual_norm: self.columns.norms[0],
        }
    }
}

/// Whether a residual norm meets its threshold. NaN compares false; an
/// infinite norm fails too, even against the infinite threshold of an
/// infinite right-hand side.
fn meets(norm: f64, threshold: f64) -> bool {
    norm <= threshold && norm.is_finite()
}

/// Sets to zero the columns of `mv` whose right-hand side is zero: those
/// converged at iteration 0 before the first residual.
fn zero_columns(mv: &mut MultiVec, converged_at: &[Option<usize>]) {
    if converged_at.iter().all(Option::is_none) {
        return;
    }
    for row in mv.as_mut_slice().chunks_exact_mut(converged_at.len()) {
        for (v, at) in row.iter_mut().zip(converged_at) {
            if at.is_some() {
                *v = 0.0;
            }
        }
    }
}

/// Square roots of squared norms. Negative round-off clamps to zero,
/// but NaN must propagate (`f64::max` would silently mask it): a
/// poisoned column has residual NaN, not 0, and must never be reported
/// as converged.
pub(crate) fn sqrt_into<'a>(
    norms_sq: impl IntoIterator<Item = &'a f64>,
    norms: &mut [f64],
) {
    for (norm, &v) in norms.iter_mut().zip(norms_sq) {
        *norm = if v.is_nan() { f64::NAN } else { v.max(0.0).sqrt() };
    }
}

/// Solves the `m×m` system `lhs·C = coef` in place (`lhs` is
/// destroyed, `coef` becomes `C`). `false` means breakdown: `lhs` is
/// numerically singular or `C` has a non-finite entry — the caller
/// must stop *before* applying `C`.
pub(crate) fn solve_coefficients(
    lhs: &mut [f64],
    coef: &mut [f64],
    m: usize,
) -> bool {
    dense::lu_solve(lhs, m, coef, m) && coef.iter().all(|v| v.is_finite())
}

/// Matrices, right-hand sides and a fault-injecting operator shared by
/// the block solvers' unit tests.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::operator::LinearOperator;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder, MultiVec};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// SPD block tridiagonal `(−1, 4, −1)`.
    pub(crate) fn laplacian(nb: usize) -> BcrsMatrix {
        convection(nb, 0.0)
    }

    /// Nonsymmetric convection–diffusion block tridiagonal.
    pub(crate) fn convection(nb: usize, peclet: f64) -> BcrsMatrix {
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

    /// SPD with the structure of a resistance matrix: `I` plus, per
    /// coupled pair, a positive-definite 3×3 term `K` added to both
    /// diagonal blocks and subtracted off the diagonal, with pair
    /// strengths over three decades and a direction that turns with
    /// the pair — so the diagonal blocks are non-uniform and not
    /// diagonal, and block-Jacobi has something to do. Integer
    /// arithmetic only: the same bits on every platform.
    pub(crate) fn lubricated(nb: usize) -> BcrsMatrix {
        const STRENGTHS: [f64; 9] =
            [0.5, 1.0, 0.3, 2.0, 1000.0, 0.7, 40.0, 1.5, 0.2];
        let mut tb = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            tb.add(bi, bi, Block3::IDENTITY);
            for off in [1usize, 4] {
                if bi + off < nb {
                    let t = 7 * bi + off;
                    let e = [
                        (3 * t % 7) as f64 / 7.0 - 0.4,
                        (5 * t % 11) as f64 / 11.0 - 0.5,
                        0.6,
                    ];
                    let k = (Block3::scaled_identity(0.2) + Block3::outer(e, e))
                        * STRENGTHS[t % 9];
                    tb.add(bi, bi, k);
                    tb.add(bi + off, bi + off, k);
                    tb.add_symmetric_pair(bi, bi + off, -k);
                }
            }
        }
        tb.build()
    }

    /// Forwards the products of a matrix and does not name its
    /// diagonal: how an operator opts out of preconditioning.
    pub(crate) struct HiddenDiagonal<'a, A: ?Sized>(pub(crate) &'a A);

    impl<A: LinearOperator + ?Sized> LinearOperator for HiddenDiagonal<'_, A> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y);
        }
        fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
            self.0.apply_multi(x, y);
        }
    }

    pub(crate) fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
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

    /// `‖(B − A·X)_j‖` recomputed from scratch.
    pub(crate) fn true_residual_norms(
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

    /// Delegates to an inner matrix for the first `good_applies` GSPMV
    /// calls, then fills the output with NaN — which drives the next
    /// coefficient solve to an unusable state and forces a breakdown
    /// path deterministically.
    pub(crate) struct PoisonAfter {
        inner: BcrsMatrix,
        good_applies: usize,
        applies: AtomicUsize,
    }

    impl PoisonAfter {
        pub(crate) fn new(inner: &BcrsMatrix, good_applies: usize) -> Self {
            PoisonAfter {
                inner: inner.clone(),
                good_applies,
                applies: AtomicUsize::new(0),
            }
        }
    }

    impl LinearOperator for PoisonAfter {
        fn dim(&self) -> usize {
            self.inner.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.inner.apply(x, y);
        }
        fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
            if self.applies.fetch_add(1, Ordering::Relaxed) < self.good_applies {
                self.inner.apply_multi(x, y);
            } else {
                y.fill(f64::NAN);
            }
        }
        fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
            LinearOperator::diagonal_blocks(&self.inner)
        }

        // No `block_rows`: the poisoned products are what this wrapper
        // tests, and a solve swept over the inner matrix's rows would
        // route around them. It runs block-Jacobi.
    }

    /// Forwards the products and the diagonal of a matrix but not its
    /// block rows: how an operator keeps block-Jacobi (the engine
    /// operators do; see DESIGN.md §15.3).
    pub(crate) struct JacobiOnly<'a>(pub(crate) &'a BcrsMatrix);

    impl LinearOperator for JacobiOnly<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y);
        }
        fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
            self.0.apply_multi(x, y);
        }
        fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
            LinearOperator::diagonal_blocks(self.0)
        }
    }
}

/// The contract both block solvers share, run over each from one table.
#[cfg(test)]
mod tests {
    use super::testkit::{convection, laplacian, pseudo_multivec};
    use super::*;
    use crate::{block_bicgstab_with_options, block_cg_with_options};
    use mrhs_sparse::BcrsMatrix;

    type Solve = fn(
        &BcrsMatrix,
        &MultiVec,
        &mut MultiVec,
        &BlockSolveOptions,
    ) -> BlockSolveResult;

    type Matrix = fn(usize) -> BcrsMatrix;

    /// Each solver with an operator class it converges on.
    fn solvers() -> [(&'static str, Solve, Matrix); 2] {
        [
            ("block_cg", block_cg_with_options::<BcrsMatrix>, laplacian),
            ("block_bicgstab", block_bicgstab_with_options::<BcrsMatrix>, |nb| {
                convection(nb, 0.3)
            }),
        ]
    }

    #[test]
    fn column_tols_stop_each_column_at_its_own_tolerance() {
        for (name, solve, matrix) in solvers() {
            let a = matrix(30);
            let n = a.n_rows();
            let m = 3;
            let b = pseudo_multivec(n, m, 19);
            let tols = vec![1e-2, 1e-6, 1e-10];
            let opts_capped = |max_iter| BlockSolveOptions {
                solve: SolveConfig { tol: 1e-6, max_iter },
                column_tols: Some(tols.clone()),
            };
            let mut x = MultiVec::zeros(n, m);
            let res = solve(&a, &b, &mut x, &opts_capped(800));
            assert!(res.converged, "{name}: {res:?}");

            // Column j's norm after k iterations, from the same solve
            // stopped at k.
            let norm_at = |j: usize, k: usize| {
                let mut x = MultiVec::zeros(n, m);
                let capped = solve(&a, &b, &mut x, &opts_capped(k));
                assert_eq!(capped.iterations, k, "{name}");
                capped.residual_norms[j]
            };
            let b_norms = b.norms();
            for j in 0..m {
                let at = res.column_converged_at[j].expect("converged");
                assert_eq!(res.column_iterations[j], at, "{name}");
                // The column first crossed *its own* threshold at `at`,
                // not the uniform solve.tol.
                let threshold = tols[j] * b_norms[j];
                assert!(at > 0, "{name} col {j}: a zero guess cannot be converged");
                assert!(norm_at(j, at) <= threshold, "{name} col {j} late");
                assert!(norm_at(j, at - 1) > threshold, "{name} col {j} early");
            }
            // Loose columns stop earlier than tight ones.
            assert!(res.column_iterations[0] <= res.column_iterations[2], "{name}");
        }
    }

    #[test]
    fn column_iterations_cap_at_total_for_unconverged_columns() {
        for (name, solve, matrix) in solvers() {
            let a = matrix(40);
            let n = a.n_rows();
            let b = pseudo_multivec(n, 2, 29);
            // Unreachable tolerance within the iteration budget.
            let cfg = SolveConfig { tol: 1e-300, max_iter: 3 };
            let mut x = MultiVec::zeros(n, 2);
            let res = solve(&a, &b, &mut x, &cfg.into());
            assert!(!res.converged, "{name}");
            assert_eq!(res.iterations, 3, "{name}");
            assert_eq!(res.column_iterations, vec![3; 2], "{name}");
            assert_eq!(res.column_converged_at, vec![None; 2], "{name}");
        }
    }

    /// `x = 0` solves `b = 0` exactly: whatever the guess, the solve
    /// returns it converged at iteration 0, as `cg` does.
    #[test]
    fn zero_rhs_block_converges_in_zero_iterations() {
        for (name, solve, matrix) in solvers() {
            let a = matrix(5);
            let n = a.n_rows();
            for m in [1usize, 4] {
                let b = MultiVec::zeros(n, m);
                let mut x = MultiVec::from_flat(n, m, vec![1.0; n * m]);
                let res = solve(&a, &b, &mut x, &BlockSolveOptions::default());
                assert!(res.converged, "{name} m={m}: {res:?}");
                assert_eq!(res.iterations, 0, "{name} m={m}");
                assert_eq!(
                    res.column_converged_at,
                    vec![Some(0); m],
                    "{name} m={m}"
                );
                assert_eq!(res.column_iterations, vec![0; m], "{name} m={m}");
                assert_eq!(res.residual_norms, vec![0.0; m], "{name} m={m}");
                assert!(x.as_slice().iter().all(|&v| v == 0.0), "{name} m={m}");
            }
            // A zero column among others: its guess changes no bit.
            let mut b = pseudo_multivec(n, 3, 7);
            b.set_column(1, &vec![0.0; n]);
            let mut x_zero = MultiVec::zeros(n, 3);
            let mut x_ones = x_zero.clone();
            x_ones.set_column(1, &vec![1.0; n]);
            let opts = BlockSolveOptions::default();
            let r_zero = solve(&a, &b, &mut x_zero, &opts);
            let r_ones = solve(&a, &b, &mut x_ones, &opts);
            assert_eq!(x_zero, x_ones, "{name}");
            assert_eq!(r_zero.iterations, r_ones.iterations, "{name}");
            assert_eq!(r_zero.residual_norms, r_ones.residual_norms, "{name}");
        }
    }

    #[test]
    fn healthy_solve_records_convergence_order_and_no_breakdown() {
        for (name, solve, matrix) in solvers() {
            let a = matrix(25);
            let n = a.n_rows();
            let m = 3;
            let b = pseudo_multivec(n, m, 31);
            let mut x = MultiVec::zeros(n, m);
            let res = solve(&a, &b, &mut x, &BlockSolveOptions::default());
            assert!(res.converged, "{name}: {res:?}");
            assert!(res.breakdown.is_none(), "{name}");
            for c in &res.column_converged_at {
                let at = c.expect("every column converged");
                assert!(at <= res.iterations, "{name}");
            }
            assert!(
                res.column_converged_at.contains(&Some(res.iterations)),
                "{name}"
            );
        }
    }

    /// One NaN entry in one right-hand-side column is a breakdown in
    /// iteration 1 that leaves `X` exactly as the caller passed it: the
    /// per-column isolation the service's solo retry relies on.
    #[test]
    fn nan_rhs_entry_breaks_down_before_x_is_touched() {
        for (name, solve, matrix) in solvers() {
            let a = matrix(20);
            let n = a.n_rows();
            let m = 4;
            let mut b = pseudo_multivec(n, m, 61);
            let mut poisoned = b.column(2);
            poisoned[0] = f64::NAN;
            b.set_column(2, &poisoned);
            let guess = pseudo_multivec(n, m, 67);
            let mut x = guess.clone();
            let res = solve(&a, &b, &mut x, &BlockSolveOptions::default());

            assert!(!res.converged, "{name}");
            assert_eq!(res.iterations, 0, "{name}: {res:?}");
            assert_eq!(res.breakdown.map(|bd| bd.iteration), Some(1), "{name}");
            for (u, v) in x.as_slice().iter().zip(guess.as_slice()) {
                assert_eq!(u.to_bits(), v.to_bits(), "{name}: X was touched");
            }
            for (j, rn) in res.residual_norms.iter().enumerate() {
                assert_eq!(rn.is_nan(), j == 2, "{name} col {j}: {rn}");
            }
            assert_eq!(res.column_converged_at, vec![None; m], "{name}");
        }
    }
}
