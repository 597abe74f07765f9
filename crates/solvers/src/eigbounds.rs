//! Spectral interval estimation for the Chebyshev square root.
//!
//! The Chebyshev approximation needs an interval `[λ_lo, λ_hi]` that
//! brackets the spectrum of the SPD resistance matrix. We provide three
//! estimators and a combined driver:
//!
//! * Gershgorin bounds (exact brackets, often loose) — on [`mrhs_sparse::BcrsMatrix`];
//! * power iteration for `λ_max`;
//! * a short Lanczos recurrence whose tridiagonal Ritz values estimate
//!   both ends; extreme eigenvalues of the tridiagonal are found by
//!   Sturm-sequence bisection.

use crate::operator::LinearOperator;
use mrhs_sparse::dot;

/// A bracketing interval for the spectrum of an SPD operator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpectralBounds {
    /// Lower bound (strictly positive for SPD matrices).
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

/// Safety factor for turning a power-iteration Rayleigh quotient into
/// a Chebyshev interval's upper end. The Rayleigh quotient converges to
/// `λ_max` **from below** (it is a weighted mean of eigenvalues, and
/// with few iterations on a clustered spectrum it visibly undershoots),
/// while [`crate::chebyshev::ChebyshevSqrt::new`] requires `[lo, hi]`
/// to *bracket* the spectrum — an undershot `hi` silently degrades the
/// approximation outside the interval. Any estimate fed to the
/// Chebyshev interval must therefore be inflated; 1.5 covers the
/// undershoot of short runs (a handful of iterations) on the clustered
/// spectra the regression test pins, at the cost of a slightly wider
/// (less accurate, never wrong) approximation interval.
pub const POWER_UPPER_SAFETY: f64 = 1.5;

/// Power iterations used to guard [`spectral_bounds`]'s upper end when
/// no exact Gershgorin bracket is supplied. Public so operator-count
/// tests can state "Lanczos steps + guard applies" exactly.
pub const POWER_GUARD_ITERS: usize = 8;

/// A `λ_max` estimate that is safe to use as a Chebyshev interval's
/// upper end: the power-iteration Rayleigh quotient inflated by
/// [`POWER_UPPER_SAFETY`] (see its docs for why the raw quotient must
/// never feed `ChebyshevSqrt` directly).
pub fn power_upper_bound<A: LinearOperator + ?Sized>(a: &A, iters: usize) -> f64 {
    power_iteration(a, iters) * POWER_UPPER_SAFETY
}

/// Estimates `λ_max` by power iteration with a deterministic start
/// vector. Returns the Rayleigh quotient after `iters` steps — a bound
/// from **below**; inflate with [`power_upper_bound`] before using it
/// as a bracketing interval's upper end.
pub fn power_iteration<A: LinearOperator + ?Sized>(a: &A, iters: usize) -> f64 {
    let n = a.dim();
    assert!(n > 0);
    let mut v = deterministic_unit(n, 0x5eed);
    let mut av = vec![0.0; n];
    let mut lambda = 0.0;
    for _ in 0..iters.max(1) {
        a.apply(&v, &mut av);
        lambda = dot(&v, &av);
        let norm = dot(&av, &av).sqrt();
        if norm == 0.0 {
            return 0.0;
        }
        for (vi, avi) in v.iter_mut().zip(&av) {
            *vi = avi / norm;
        }
    }
    lambda
}

/// Runs `steps` of plain Lanczos and returns the extreme Ritz values
/// `(θ_min, θ_max)` of the resulting tridiagonal. These converge to the
/// extreme eigenvalues from inside the spectrum.
pub fn lanczos_extremes<A: LinearOperator + ?Sized>(
    a: &A,
    steps: usize,
) -> (f64, f64) {
    let n = a.dim();
    let k = steps.min(n).max(1);
    let mut alpha = Vec::with_capacity(k);
    let mut beta: Vec<f64> = Vec::with_capacity(k.saturating_sub(1));

    let mut v = deterministic_unit(n, 0x1a2b3c);
    let mut v_prev = vec![0.0; n];
    let mut w = vec![0.0; n];

    for j in 0..k {
        a.apply(&v, &mut w);
        if j > 0 {
            let b = beta[j - 1];
            for (wi, vp) in w.iter_mut().zip(&v_prev) {
                *wi -= b * vp;
            }
        }
        let aj = dot(&v, &w);
        alpha.push(aj);
        for (wi, vi) in w.iter_mut().zip(&v) {
            *wi -= aj * vi;
        }
        let b = dot(&w, &w).sqrt();
        if j + 1 < k {
            if b < 1e-14 {
                break; // invariant subspace found; tridiagonal is exact
            }
            beta.push(b);
            v_prev.copy_from_slice(&v);
            for (vi, wi) in v.iter_mut().zip(&w) {
                *vi = wi / b;
            }
        }
    }
    let m = alpha.len();
    let beta = &beta[..m.saturating_sub(1)];
    (
        tridiag_kth_eigenvalue(&alpha, beta, 1),
        tridiag_kth_eigenvalue(&alpha, beta, m),
    )
}

/// Combined estimator: Lanczos Ritz values widened by a safety margin,
/// clipped against the (exact) Gershgorin bracket when one is supplied.
/// The lower end is floored at `hi · 1e-8` so the Chebyshev interval is
/// always positive even for nearly singular matrices.
pub fn spectral_bounds<A: LinearOperator + ?Sized>(
    a: &A,
    lanczos_steps: usize,
    gershgorin: Option<(f64, f64)>,
) -> SpectralBounds {
    let (ritz_lo, ritz_hi) = lanczos_extremes(a, lanczos_steps);
    // Ritz values lie inside the spectrum: widen outward.
    let mut lo = ritz_lo * 0.9;
    let mut hi = ritz_hi * 1.1;
    match gershgorin {
        Some((g_lo, g_hi)) => {
            // Gershgorin is a true bracket: never exceed it, and use it
            // to tighten the widened Ritz estimates.
            hi = hi.min(g_hi);
            if g_lo > 0.0 {
                lo = lo.max(g_lo);
            }
        }
        None => {
            // Without an exact bracket, every estimate here converges
            // from *below*; guard the top end with the inflated
            // power-iteration bound so a Chebyshev interval built on
            // these bounds actually brackets λ_max.
            hi = hi.max(power_upper_bound(a, POWER_GUARD_ITERS));
        }
    }
    let floor = hi.abs() * 1e-8;
    if lo < floor {
        lo = floor.max(f64::MIN_POSITIVE);
    }
    if hi <= lo {
        hi = lo * (1.0 + 1e-6);
    }
    SpectralBounds { lo, hi }
}

/// Number of eigenvalues of the symmetric tridiagonal `(alpha, beta)`
/// strictly less than `x` (Sturm sequence count).
fn sturm_count(alpha: &[f64], beta: &[f64], x: f64) -> usize {
    let mut count = 0;
    let mut d = 1.0f64;
    for (i, &a) in alpha.iter().enumerate() {
        let b2 = if i == 0 { 0.0 } else { beta[i - 1] * beta[i - 1] };
        d = a - x - b2 / if d != 0.0 { d } else { f64::MIN_POSITIVE };
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

/// Finds the `target`-th smallest eigenvalue (1-based) of the symmetric
/// tridiagonal by bisection with Sturm counts.
fn tridiag_kth_eigenvalue(alpha: &[f64], beta: &[f64], target: usize) -> f64 {
    let m = alpha.len();
    assert!(m > 0 && (1..=m).contains(&target));
    // Gershgorin bracket for the tridiagonal itself.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..m {
        let r = if i == 0 { 0.0 } else { beta[i - 1].abs() }
            + if i + 1 < m { beta[i].abs() } else { 0.0 };
        lo = lo.min(alpha[i] - r);
        hi = hi.max(alpha[i] + r);
    }
    if m == 1 {
        return alpha[0];
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if sturm_count(alpha, beta, mid) >= target {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= 1e-13 * hi.abs().max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Deterministic pseudo-random unit vector (xorshift fill).
fn deterministic_unit(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    let mut v: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect();
    let norm = dot(&v, &v).sqrt();
    for vi in v.iter_mut() {
        *vi /= norm;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::DenseOperator;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    fn diag_operator(diag: &[f64]) -> DenseOperator {
        let n = diag.len();
        let mut d = vec![0.0; n * n];
        for (i, v) in diag.iter().enumerate() {
            d[i * n + i] = *v;
        }
        DenseOperator::new(n, d)
    }

    #[test]
    fn power_iteration_finds_dominant_eigenvalue() {
        let a = diag_operator(&[1.0, 3.0, 7.0, 2.0]);
        let lambda = power_iteration(&a, 200);
        assert!((lambda - 7.0).abs() < 1e-6, "{lambda}");
    }

    #[test]
    fn lanczos_extremes_on_diagonal_matrix() {
        let a = diag_operator(&[0.5, 1.0, 2.0, 4.0, 9.0]);
        let (lo, hi) = lanczos_extremes(&a, 5);
        assert!((lo - 0.5).abs() < 1e-6, "lo={lo}");
        assert!((hi - 9.0).abs() < 1e-6, "hi={hi}");
    }

    #[test]
    fn sturm_count_matches_known_spectrum() {
        // T = [[2,1],[1,2]] has eigenvalues 1 and 3.
        let alpha = [2.0, 2.0];
        let beta = [1.0];
        assert_eq!(sturm_count(&alpha, &beta, 0.5), 0);
        assert_eq!(sturm_count(&alpha, &beta, 2.0), 1);
        assert_eq!(sturm_count(&alpha, &beta, 3.5), 2);
        assert!((tridiag_kth_eigenvalue(&alpha, &beta, 1) - 1.0).abs() < 1e-10);
        assert!((tridiag_kth_eigenvalue(&alpha, &beta, 2) - 3.0).abs() < 1e-10);
    }

    #[test]
    fn spectral_bounds_bracket_block_laplacian() {
        let nb = 20;
        let mut t = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(4.0));
            if bi + 1 < nb {
                t.add_symmetric_pair(bi, bi + 1, Block3::scaled_identity(-1.0));
            }
        }
        let a = t.build();
        let g = (a.gershgorin_lower_bound(), a.gershgorin_upper_bound());
        let b = spectral_bounds(&a, 30, Some(g));
        // true spectrum is 4 − 2cos(kπ/(nb+1)) ⊂ (2, 6)
        assert!(b.lo > 0.0 && b.lo <= 2.1, "lo={}", b.lo);
        assert!(b.hi >= 5.9 && b.hi <= 6.6, "hi={}", b.hi);
    }

    #[test]
    fn power_upper_bound_brackets_despite_rayleigh_undershoot() {
        // Clustered spectrum: 40 eigenvalues at 9, one at 10. Three
        // power iterations leave the Rayleigh quotient visibly below
        // λ_max = 10 (the ratio 9/10 decays slowly), which is exactly
        // the case where feeding the raw quotient to ChebyshevSqrt
        // would hand it a non-bracketing interval.
        let mut diag = vec![9.0; 40];
        diag.push(10.0);
        let a = diag_operator(&diag);
        let raw = power_iteration(&a, 3);
        assert!(raw < 9.5, "expected visible undershoot, got {raw}");
        // The inflated bound brackets λ_max anyway.
        assert!(power_upper_bound(&a, 3) >= 10.0);
        // And spectral_bounds without an exact bracket inherits the
        // guard: its interval must cover λ_max.
        let b = spectral_bounds(&a, 3, None);
        assert!(b.hi >= 10.0, "hi={} fails to bracket λ_max", b.hi);
    }

    #[test]
    fn bounds_are_positive_even_for_tiny_lower_end() {
        let a = diag_operator(&[1e-12, 1.0]);
        let b = spectral_bounds(&a, 2, None);
        assert!(b.lo > 0.0);
        assert!(b.hi >= b.lo);
    }

    #[test]
    fn lanczos_handles_identity_breakdown() {
        // Lanczos on the identity breaks down after one step; the single
        // Ritz value 1 must still come out.
        let a = BcrsMatrix::scaled_identity(6, 1.0);
        let (lo, hi) = lanczos_extremes(&a, 10);
        assert!((lo - 1.0).abs() < 1e-10);
        assert!((hi - 1.0).abs() < 1e-10);
    }
}
