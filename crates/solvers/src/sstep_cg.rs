//! s-step (communication-avoiding) block conjugate gradients.
//!
//! Classic block CG ([`crate::block_cg()`]) streams the matrix once per
//! iteration. The s-step variant (Chronopoulos & Gear's formulation,
//! extended to `m` right-hand sides) instead expands the block Krylov
//! space `s` levels at a time with a single matrix-powers sweep:
//!
//! ```text
//!   W  = [R, A·R, …, A^{s−1}·R]      (n × s·m basis block)
//!   AW = [A·R, …, A^s·R]             (produced by the same sweep)
//! ```
//!
//! When the operator is a [`mrhs_sparse::BcrsMatrix`], the powers come
//! from the level-blocked SpMPV wavefront
//! ([`mrhs_sparse::spmpv_powers`]), so the matrix is streamed ~once per
//! cycle instead of `s` times — the communication-avoiding payoff. Any
//! other [`LinearOperator`] transparently falls back to `s` chained
//! [`LinearOperator::apply_multi`] calls through the default
//! [`LinearOperator::apply_powers`].
//!
//! One cycle then A-conjugates `W` against the previous cycle's
//! direction block, solves one `(s·m)×(s·m)` Gram system for the step,
//! and updates `X` and `R`. In exact arithmetic conjugating against the
//! previous block alone suffices (the Krylov structure makes older
//! blocks automatically conjugate); in floating point the monomial
//! basis loses conditioning roughly like `κ(A)^s`, which keeps
//! practical `s` small (≲ 5). The basis columns are norm-scaled before
//! the Gram solves to push that wall out, and every small solve is
//! symmetrized and ridge-guarded exactly like block CG; a singular
//! Gram system reports as [`SStepCgResult::breakdown`] rather than
//! poisoning the iterate.

use crate::cg::SolveConfig;
use crate::dense;
use crate::operator::LinearOperator;
use mrhs_sparse::MultiVec;
use mrhs_telemetry as telemetry;

/// Outcome of an s-step block-CG solve.
#[derive(Clone, Debug)]
pub struct SStepCgResult {
    /// s-step cycles completed (each is one matrix-powers sweep of
    /// depth `s` plus one `(s·m)×(s·m)` Gram solve).
    pub cycles: usize,
    /// Matrix applications performed by completed cycles
    /// (`cycles · s`) — comparable to [`crate::BlockCgResult::iterations`],
    /// which costs one application each.
    pub iterations: usize,
    /// Whether every column met the tolerance.
    pub converged: bool,
    /// Per-column residual norms after `cycles` completed cycles.
    pub residual_norms: Vec<f64>,
    /// `Some(c)` if a Gram solve failed during cycle `c` (conditioning
    /// wall of the monomial basis, or rank-deficient residual); the
    /// solve stopped with `cycles = c − 1` and `X` untouched by the
    /// failed cycle.
    pub breakdown: Option<usize>,
}

/// Options for [`sstep_cg_with_options`].
#[derive(Clone, Debug)]
pub struct SStepCgOptions {
    /// Tolerance and iteration cap. `max_iter` counts matrix
    /// applications (as in block CG), so the cycle budget is
    /// `ceil(max_iter / s)`.
    pub solve: SolveConfig,
    /// Krylov levels expanded per cycle. `1` reduces to a conjugate-
    /// direction variant of block CG; the monomial basis keeps useful
    /// values ≲ 5.
    pub s: usize,
}

impl Default for SStepCgOptions {
    fn default() -> Self {
        SStepCgOptions { solve: SolveConfig::default(), s: 2 }
    }
}

/// Solves `A·X = B` for SPD `A` by s-step block CG, starting from the
/// guess in `x`. Each column converges when its residual norm falls
/// below `opts.solve.tol` times that column's `‖b_j‖`.
pub fn sstep_cg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    s: usize,
    cfg: &SolveConfig,
) -> SStepCgResult {
    sstep_cg_with_options(a, b, x, &SStepCgOptions { solve: *cfg, s })
}

/// [`sstep_cg`] with explicit [`SStepCgOptions`].
pub fn sstep_cg_with_options<A: LinearOperator + ?Sized>(
    a: &A,
    b: &MultiVec,
    x: &mut MultiVec,
    opts: &SStepCgOptions,
) -> SStepCgResult {
    let s = opts.s;
    assert!(s >= 1, "s-step CG needs s >= 1");
    let cfg = &opts.solve;
    let n = a.dim();
    let m = b.m();
    assert_eq!(b.n(), n);
    assert_eq!(x.shape(), (n, m));

    let _solve_span = telemetry::span("solver/sstep_cg");
    telemetry::counter_add("solver/sstep_cg/solves", 1);

    let thresholds: Vec<f64> =
        b.norms().iter().map(|bn| cfg.tol * bn.max(f64::MIN_POSITIVE)).collect();

    // R = B − A·X
    let mut r = MultiVec::zeros(n, m);
    a.apply_multi(x, &mut r);
    for (ri, bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *ri = bi - *ri;
    }

    let mut norms = r.norms();
    if converged_all(&norms, &thresholds) {
        return SStepCgResult {
            cycles: 0,
            iterations: 0,
            converged: true,
            residual_norms: norms,
            breakdown: None,
        };
    }

    let sm = s * m;
    let mut powers: Vec<MultiVec> = (0..s).map(|_| MultiVec::zeros(n, m)).collect();
    let mut w = MultiVec::zeros(n, sm);
    let mut aw = MultiVec::zeros(n, sm);
    // Previous cycle's conjugated direction block and its image.
    let mut q_prev: Option<(MultiVec, MultiVec, Vec<f64>)> = None;

    let max_cycles = cfg.max_iter.div_ceil(s).max(1);
    let mut cycles = 0;
    let mut breakdown = None;

    for cycle in 1..=max_cycles {
        // Basis sweep: powers[p] = A^{p+1}·R. One fused SpMPV stream
        // for BCRS operators; chained apply_multi otherwise.
        a.apply_powers(&r, &mut powers);
        pack_basis(&r, &powers, &mut w, &mut aw);

        // Norm-scale the basis columns (spans are unchanged; the Gram
        // systems stay conditioned as the monomial columns blow apart).
        let scales: Vec<f64> = w
            .norms()
            .iter()
            .map(|&v| if v > 0.0 { 1.0 / v } else { 1.0 })
            .collect();
        w.scale_columns(&scales);
        aw.scale_columns(&scales);

        // A-conjugate against the previous cycle's block:
        //   Q  = W  − Q_prev·C   with  G_prev·C = AQ_prevᵀ·W.
        if let Some((qp, aqp, g_prev)) = &q_prev {
            let mut lhs = g_prev.clone();
            dense::symmetrize(&mut lhs, sm);
            ridge(&mut lhs, sm);
            let mut c = aqp.gram(&w);
            if !dense::lu_solve(&mut lhs, sm, &mut c, sm) {
                breakdown = Some(cycle);
                break;
            }
            for v in &mut c {
                *v = -*v;
            }
            w.add_mul_dense(qp, &c);
            aw.add_mul_dense(aqp, &c);
        }

        // Step: (QᵀAQ)·α = QᵀR, then X += Q·α, R −= AQ·α.
        let g = w.gram(&aw);
        let mut lhs = g.clone();
        dense::symmetrize(&mut lhs, sm);
        ridge(&mut lhs, sm);
        let mut alpha = w.gram(&r);
        if !dense::lu_solve(&mut lhs, sm, &mut alpha, m) {
            breakdown = Some(cycle);
            break;
        }
        x.add_mul_dense(&w, &alpha);
        for v in &mut alpha {
            *v = -*v;
        }
        r.add_mul_dense(&aw, &alpha);

        cycles = cycle;
        telemetry::counter_add("solver/sstep_cg/cycles", 1);
        norms = r.norms();
        if converged_all(&norms, &thresholds) {
            break;
        }

        q_prev = match q_prev.take() {
            Some((mut qp, mut aqp, _)) => {
                std::mem::swap(&mut qp, &mut w);
                std::mem::swap(&mut aqp, &mut aw);
                Some((qp, aqp, g))
            }
            None => Some((w.clone(), aw.clone(), g)),
        };
    }

    let converged = breakdown.is_none() && converged_all(&norms, &thresholds);
    SStepCgResult {
        cycles,
        iterations: cycles * s,
        converged,
        residual_norms: norms,
        breakdown,
    }
}

fn converged_all(norms: &[f64], thresholds: &[f64]) -> bool {
    norms.iter().zip(thresholds).all(|(n, t)| *n <= *t)
}

/// Packs `[R | powers[0] | … | powers[s−2]]` into `w` and
/// `[powers[0] | … | powers[s−1]]` into `aw`, column-block by
/// column-block (row-major interleave).
fn pack_basis(
    r: &MultiVec,
    powers: &[MultiVec],
    w: &mut MultiVec,
    aw: &mut MultiVec,
) {
    let s = powers.len();
    let m = r.m();
    for row in 0..r.n() {
        let wr = w.row_mut(row);
        wr[..m].copy_from_slice(r.row(row));
        for (j, p) in powers[..s - 1].iter().enumerate() {
            wr[(j + 1) * m..(j + 2) * m].copy_from_slice(p.row(row));
        }
    }
    for row in 0..r.n() {
        let ar = aw.row_mut(row);
        for (j, p) in powers.iter().enumerate() {
            ar[j * m..(j + 1) * m].copy_from_slice(p.row(row));
        }
    }
}

/// Trace-scaled ridge, as in block CG, so rank-deficient Gram systems
/// stay factorizable once some columns converge.
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
    use crate::block_cg::block_cg;
    use crate::operator::{CountingOperator, DenseOperator};
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

    fn true_residual_ok(a: &BcrsMatrix, b: &MultiVec, x: &MultiVec, tol: f64) {
        use crate::operator::LinearOperator;
        let (n, m) = x.shape();
        let mut ax = MultiVec::zeros(n, m);
        a.apply_multi(x, &mut ax);
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
            assert!(rn <= tol * bn, "col {j}: {rn} vs {bn}");
        }
    }

    #[test]
    fn converges_for_each_s_and_matches_block_cg() {
        let a = laplacian(25);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 17);
        let cfg = SolveConfig { tol: 1e-9, max_iter: 600 };

        let mut x_ref = MultiVec::zeros(n, m);
        assert!(block_cg(&a, &b, &mut x_ref, &cfg).converged);

        for s in [1, 2, 3] {
            let mut x = MultiVec::zeros(n, m);
            let res = sstep_cg(&a, &b, &mut x, s, &cfg);
            assert!(res.converged, "s={s}: {res:?}");
            assert!(res.breakdown.is_none());
            assert_eq!(res.iterations, res.cycles * s);
            true_residual_ok(&a, &b, &x, 1e-8);
            for (u, v) in x.as_slice().iter().zip(x_ref.as_slice()) {
                assert!((u - v).abs() < 1e-6, "s={s}");
            }
        }
    }

    #[test]
    fn fused_bcrs_powers_agree_with_generic_operator() {
        // BcrsMatrix routes the basis sweep through the SpMPV wavefront;
        // DenseOperator uses the default chained apply_multi. Both must
        // land on the same solution.
        let a = laplacian(15);
        let n = a.n_rows();
        let m = 3;
        let b = pseudo_multivec(n, m, 5);
        let cfg = SolveConfig { tol: 1e-10, max_iter: 600 };
        let dense_op = DenseOperator::new(n, a.to_dense());

        for s in [2, 3] {
            let mut x_fused = MultiVec::zeros(n, m);
            let rf = sstep_cg(&a, &b, &mut x_fused, s, &cfg);
            let mut x_gen = MultiVec::zeros(n, m);
            let rg = sstep_cg(&dense_op, &b, &mut x_gen, s, &cfg);
            assert!(rf.converged && rg.converged, "s={s}: {rf:?} / {rg:?}");
            for (u, v) in x_fused.as_slice().iter().zip(x_gen.as_slice()) {
                assert!((u - v).abs() < 1e-7, "s={s}");
            }
        }
    }

    #[test]
    fn one_powers_sweep_per_cycle() {
        let a = laplacian(20);
        let c = CountingOperator::new(&a);
        let n = a.n_rows();
        let m = 4;
        let s = 3;
        let b = pseudo_multivec(n, m, 3);
        let mut x = MultiVec::zeros(n, m);
        let res = sstep_cg(&c, &b, &mut x, s, &SolveConfig::default());
        assert!(res.converged, "{res:?}");
        // Initial residual + s chained applies per cycle (the counting
        // operator funnels the default apply_powers through apply_multi).
        assert_eq!(c.multi_applies(), res.cycles * s + 1);
        assert_eq!(c.single_applies(), 0);
    }

    #[test]
    fn deeper_s_takes_fewer_cycles() {
        let a = laplacian(40);
        let n = a.n_rows();
        let m = 4;
        let b = pseudo_multivec(n, m, 23);
        let cfg = SolveConfig { tol: 1e-7, max_iter: 800 };

        let mut cycles = Vec::new();
        for s in [1, 2, 4] {
            let mut x = MultiVec::zeros(n, m);
            let res = sstep_cg(&a, &b, &mut x, s, &cfg);
            assert!(res.converged, "s={s}: {res:?}");
            cycles.push(res.cycles);
        }
        // Each doubling of s should at least roughly halve the number of
        // (communication-bearing) cycles.
        assert!(cycles[1] < cycles[0], "{cycles:?}");
        assert!(cycles[2] < cycles[1], "{cycles:?}");
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let a = laplacian(5);
        let n = a.n_rows();
        let b = MultiVec::zeros(n, 2);
        let mut x = MultiVec::zeros(n, 2);
        let res = sstep_cg(&a, &b, &mut x, 3, &SolveConfig::default());
        assert!(res.converged);
        assert_eq!(res.cycles, 0);
        assert_eq!(res.iterations, 0);
    }

    #[test]
    fn unconverged_when_budget_exhausted() {
        let a = laplacian(40);
        let n = a.n_rows();
        let b = pseudo_multivec(n, 2, 29);
        // Budget of 6 applications at s=2 → 3 cycles, unreachable tol.
        let cfg = SolveConfig { tol: 1e-300, max_iter: 6 };
        let mut x = MultiVec::zeros(n, 2);
        let res = sstep_cg(&a, &b, &mut x, 2, &cfg);
        assert!(!res.converged);
        assert_eq!(res.cycles, 3);
        assert!(res.residual_norms.iter().all(|v| v.is_finite()));
    }
}
