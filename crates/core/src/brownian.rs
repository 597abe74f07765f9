//! The Brownian factor: `f_B = F·z` with `F·Fᵀ = R` (paper §II-C),
//! with the paper's §III technique #1 — precondition — applied to the
//! square root instead of the solves.
//!
//! Fixman's method takes `F = S(R)`, a Chebyshev polynomial for `√λ`
//! on an interval that brackets `R`'s spectrum; its order grows with
//! `√κ(R)`, and a resistance matrix's diagonal blocks span decades.
//! Here the polynomial runs on the block-Jacobi-scaled matrix. With
//! `D = blockdiag(R) = L·Lᵀ` (one 3×3 Cholesky per diagonal block) and
//! `Â = L⁻¹·R·L⁻ᵀ`,
//!
//! ```text
//!     F = L·S(Â) = D·S(D⁻¹R)·L⁻ᵀ,        F·Fᵀ = L·S(Â)²·Lᵀ ≈ L·Â·Lᵀ = R,
//! ```
//!
//! because `D⁻¹R = L⁻ᵀ·Â·Lᵀ`. The recurrence runs on `D⁻¹R` — each
//! product followed by the block-Jacobi apply, inside the recurrence's
//! shift pass ([`ChebyshevSqrt::apply_multi_scaled`]) — so there is no
//! explicit `Â` and no second matrix; `L⁻ᵀ` is applied once to the noise
//! ([`BrownianFactor::whiten`]) and `D` once per evaluation. On the
//! benchmark's suspension `κ(Â) ≈ 180` against `κ(R) ≈ 1,600`.
//!
//! **One scaling per chunk.** `F·Fᵀ = R` holds for any fixed `L`, so an
//! Alg. 2 chunk keeps its head's `L` for all `m` steps:
//! `F_k = L_0·S(L_0⁻¹R_kL_0⁻ᵀ)`. Each step's noise then moves with its
//! matrix as smoothly as `√R_k·z` does, which is what the guesses
//! need. Refactoring `L` from every `R_k` instead makes the map
//! `z ↦ u_k` turn with the near-contact blocks: on the benchmark's
//! suspension the guess error doubles and the first solves take seven
//! more iterations, more than the shorter polynomial saves. Alg. 1 has
//! no guesses and scales each step by its own diagonal.
//!
//! **Interval.** Lanczos on `Â`, through a bounds-only operator that
//! wraps each product in two block-triangular sweeps. Its lowest Ritz
//! value converges from above, so the lower end is that value times
//! 0.5, divided by [`BOUNDS_MARGIN`] for the drift over
//! a chunk; the margin is the one the bracket tests pin (the 600-step
//! extremes of `Â` on the benchmark's operator and a suspension
//! corpus). When `R` is in pair form
//! ([`BcrsMatrix::row_sum_lower_bound`] positive) the top is the exact
//! `λ_max(Â) ≤ 2` and no power guard runs. A later matrix of the chunk
//! under the head's scaling has `λ_max(D_0⁻¹R_k) ≤ g·2`, with
//! `g = λ_max(D_0⁻¹D_k)` exact per block ([`BrownianFactor::follow`]).
//!
//! **Order.** Derived from the matrix, with the caller's order as the
//! cap (the paper's `C_max`): the smallest order whose worst-case
//! relative error of `√λ` on `Â`'s interval is no larger than that of
//! the cap on `[ℓ_R, u_R]`, where `ℓ_R` is the pair-form lower bound
//! (a true lower end of `R`'s spectrum) and `u_R` is `R`'s largest
//! diagonal entry (a lower bound on `λ_max(R)`). The reference interval
//! thus lies inside `R`'s bracket, and the derived polynomial is never
//! less accurate than a bracketing order-cap polynomial on `R`. A later
//! step keeps the head polynomial's accuracy on its wider interval.
//! Off the pair form the order is the cap, and a diagonal block that
//! cannot be factored leaves `F = S(R)` on `R` itself.

use mrhs_solvers::eigbounds::lanczos_extremes;
use mrhs_solvers::{
    power_upper_bound, ChebyshevSqrt, LinearOperator, POWER_GUARD_ITERS,
};
use mrhs_sparse::{BcrsMatrix, Block3, MultiVec};
use std::sync::Mutex;

/// Lanczos steps for the spectral-bound estimate of each polynomial.
pub const LANCZOS_STEPS: usize = 20;

/// Multiplicative widening of the spectral interval (its lower end in
/// pair form) so one Chebyshev polynomial stays valid while `R` drifts
/// over a chunk.
pub const BOUNDS_MARGIN: f64 = 1.15;

/// Factor on the lowest Ritz value of `Â` after [`LANCZOS_STEPS`]
/// steps. That value sits 1.7–1.9× above `λ_min(Â)` on the benchmark's
/// suspensions (1.97e-2 against 1.09e-2 at 2,000 particles), so the
/// 20-step estimate needs this margin to bracket; taking more steps
/// instead would cost products per polynomial.
const RITZ_LOW_MARGIN: f64 = 0.5;

/// Log-spaced samples of the relative-error comparison.
const ERROR_SAMPLES: usize = 128;

/// The block-Jacobi scaling of the Brownian factor, built from one
/// matrix's diagonal (`D = L·Lᵀ`) and applied to that matrix or to a
/// later one of its chunk: `F_k = L·S(L⁻¹R_kL⁻ᵀ)`, with `F_k·F_kᵀ = R_k`
/// for any fixed `L`.
pub struct BrownianFactor {
    /// `None` when a diagonal block is not SPD: then `F = S(R)`.
    scaling: Option<Scaling>,
}

/// Per diagonal block `D_i` (its symmetric part): `L_i` and `D_i⁻¹`.
struct Scaling {
    l: Vec<Block3>,
    d_inv: Vec<Block3>,
}

impl Scaling {
    fn of(r: &BcrsMatrix) -> Option<Scaling> {
        let mut s = SPARE
            .with(|spare| spare.take())
            .unwrap_or(Scaling { l: Vec::new(), d_inv: Vec::new() });
        s.l.clear();
        s.d_inv.clear();
        for b in diagonal(r) {
            s.l.push(b.cholesky()?);
            s.d_inv.push(b.spd_inverse()?);
        }
        Some(s)
    }
}

impl Drop for BrownianFactor {
    /// Hands the buffers to the next factor this thread builds: an
    /// Alg. 1 step builds one per step, and a fresh pair of `n`-block
    /// buffers each time would move the heap under the step's own
    /// matrices (measured: page faults in assembly).
    fn drop(&mut self) {
        if let Some(s) = self.scaling.take() {
            // During thread teardown the spare is gone; drop the buffers.
            let _ = SPARE.try_with(|spare| spare.set(Some(s)));
        }
    }
}

thread_local! {
    /// The buffers of the last factor dropped on this thread.
    static SPARE: std::cell::Cell<Option<Scaling>> = const { std::cell::Cell::new(None) };
}

/// `r`'s diagonal blocks, zero where none is stored, without
/// collecting them.
fn diagonal(r: &BcrsMatrix) -> impl Iterator<Item = Block3> + '_ {
    (0..r.nb_rows()).map(|i| r.block_at(i, i).copied().unwrap_or(Block3::ZERO))
}

/// The largest eigenvalue of a block similar to a symmetric one (as
/// `D_0⁻¹·D` is to `L_0⁻¹·D·L_0⁻ᵀ`), from its similarity invariants:
/// the closed form for a symmetric 3×3 matrix (Smith, 1961), nudged up
/// by `1e-12` relative so roundoff cannot leave it below.
fn largest_eigenvalue(p: &Block3) -> f64 {
    let q = p.trace() / 3.0;
    let b = *p - Block3::scaled_identity(q);
    // tr(B²) = Σ b_ij·b_ji, a similarity invariant.
    let tr_b2: f64 = (0..3)
        .flat_map(|i| (0..3).map(move |j| (i, j)))
        .map(|(i, j)| b.get(i, j) * b.get(j, i))
        .sum();
    let s = (tr_b2.max(0.0) / 6.0).sqrt();
    if s == 0.0 {
        return q;
    }
    let c = b * (1.0 / s);
    let det = c.get(0, 0) * (c.get(1, 1) * c.get(2, 2) - c.get(1, 2) * c.get(2, 1))
        - c.get(0, 1) * (c.get(1, 0) * c.get(2, 2) - c.get(1, 2) * c.get(2, 0))
        + c.get(0, 2) * (c.get(1, 0) * c.get(2, 1) - c.get(1, 1) * c.get(2, 0));
    let phi = (0.5 * det).clamp(-1.0, 1.0).acos() / 3.0;
    (q + 2.0 * s * phi.cos()) * (1.0 + 1e-12)
}

/// `D·x = L·(Lᵀ·x)` for one diagonal block.
fn mul_llt(l: &Block3, x: [f64; 3]) -> [f64; 3] {
    l.mul_vec(l.transpose().mul_vec(x))
}

impl BrownianFactor {
    /// Factors `r`'s diagonal blocks: `O(n)`.
    pub fn new(r: &BcrsMatrix) -> Self {
        BrownianFactor { scaling: Scaling::of(r) }
    }

    /// The polynomial `S` for `r`, the matrix this factor was built
    /// from (see the module docs): its interval from [`LANCZOS_STEPS`]
    /// products on `Â`, its order derived and at most `cap`.
    pub fn polynomial(&self, r: &BcrsMatrix, cap: usize) -> ChebyshevSqrt {
        let pair_bound =
            r.row_sum_lower_bound().filter(|&l| l > 0.0 && self.scaling.is_some());
        let (ritz_lo, ritz_hi) = self.ritz_extremes(r, LANCZOS_STEPS);
        let hi = match pair_bound {
            Some(_) => 2.0,
            None => {
                let guard = self
                    .with_scaled(r, |op| power_upper_bound(op, POWER_GUARD_ITERS));
                (1.1 * ritz_hi).max(guard) * BOUNDS_MARGIN
            }
        };
        let lo = (ritz_lo * RITZ_LOW_MARGIN / BOUNDS_MARGIN).max(hi * 1e-8);
        let reference = pair_bound.map(|l_r| {
            let u_r = diagonal(r).fold(0.0f64, |u, b| {
                u.max(b.get(0, 0)).max(b.get(1, 1)).max(b.get(2, 2))
            });
            (l_r, u_r)
        });
        let order = match reference {
            Some((l_r, u_r)) if l_r < u_r => {
                let target = ChebyshevSqrt::new(l_r, u_r, cap)
                    .max_relative_error(ERROR_SAMPLES);
                lowest_order((lo, hi), target, 1, cap)
            }
            _ => cap,
        };
        ChebyshevSqrt::new(lo, hi, order)
    }

    /// `s`, built for this factor's own matrix, moved to a later matrix
    /// `r` of its chunk. The top scales by `g = λ_max(D⁻¹·D_r)`, `D_r`
    /// being `r`'s block diagonal, taken block by block:
    /// `λ_max(D⁻¹R_r) ≤ g·λ_max(D_r⁻¹R_r)`, and the latter is what `s`'s
    /// top covers. The order is the lowest, up to `cap`, that keeps
    /// `s`'s own accuracy on the wider interval. `s` itself when `g ≤ 1`.
    pub fn follow(
        &self,
        s: &ChebyshevSqrt,
        r: &BcrsMatrix,
        cap: usize,
    ) -> ChebyshevSqrt {
        let Some(sc) = &self.scaling else { return s.clone() };
        let g = sc.d_inv.iter().zip(diagonal(r)).fold(0.0f64, |g, (d_inv, b)| {
            let p = *d_inv * ((b + b.transpose()) * 0.5);
            // Gershgorin first: only a block that could raise g pays
            // for its exact eigenvalue.
            let disc =
                (0..3).map(|i| (0..3).map(|j| p.get(i, j).abs()).sum::<f64>());
            if disc.fold(0.0, f64::max) <= g {
                g
            } else {
                g.max(largest_eigenvalue(&p))
            }
        });
        if g.is_nan() || g <= 1.0 {
            return s.clone();
        }
        let (lo, hi) = s.interval();
        let target = s.max_relative_error(ERROR_SAMPLES);
        // The order grows about as the square root of the interval's
        // condition number: start there.
        let guess =
            (s.order() as f64 * ((hi * g - lo) / (hi - lo)).sqrt()) as usize;
        let order =
            lowest_order((lo, hi * g), target, guess.clamp(s.order(), cap), cap);
        ChebyshevSqrt::new(lo, hi * g, order)
    }

    /// The extreme Ritz values of `L⁻¹rL⁻ᵀ` (of `r` when unscaled)
    /// after `steps` Lanczos steps; they converge to its extreme
    /// eigenvalues from inside the spectrum.
    pub fn ritz_extremes(&self, r: &BcrsMatrix, steps: usize) -> (f64, f64) {
        self.with_scaled(r, |op| lanczos_extremes(op, steps))
    }

    /// `f` on the bounds-only operator `L⁻¹rL⁻ᵀ` (on `r` when unscaled).
    fn with_scaled<T>(
        &self,
        r: &BcrsMatrix,
        f: impl FnOnce(&dyn LinearOperator) -> T,
    ) -> T {
        match &self.scaling {
            Some(s) => f(&Whitened {
                r,
                l: &s.l,
                scratch: Mutex::new(vec![0.0; r.n_rows()]),
            }),
            None => f(r),
        }
    }

    /// `z ← L⁻ᵀ·z` for a row-major block of `m` vectors: noise as the
    /// recurrence takes it, so that [`Self::apply_multi`] of it is
    /// `F·z`. Under one scaling a chunk whitens its noise once.
    pub fn whiten(&self, z: &mut [f64], m: usize) {
        if let Some(sc) = &self.scaling {
            blockwise(&sc.l, z, m, Block3::solve_lower_transpose);
        }
    }

    /// `Y = D·S(D⁻¹r)·W` for whitened noise `W` (see [`Self::whiten`]):
    /// `F·Z` for `r` with the polynomial `s`, in `s.order()` products.
    pub fn apply_multi(
        &self,
        r: &BcrsMatrix,
        s: &ChebyshevSqrt,
        w: &MultiVec,
        y: &mut MultiVec,
    ) {
        let Some(sc) = &self.scaling else {
            return s.apply_multi(r, w, y);
        };
        s.apply_multi_scaled(r, &sc.d_inv, w, y);
        let m = y.m();
        blockwise(&sc.l, y.as_mut_slice(), m, mul_llt);
    }

    /// [`Self::apply_multi`] for one whitened vector.
    pub fn apply(
        &self,
        r: &BcrsMatrix,
        s: &ChebyshevSqrt,
        w: &[f64],
        y: &mut [f64],
    ) {
        let Some(sc) = &self.scaling else {
            return s.apply(r, w, y);
        };
        s.apply_scaled(r, &sc.d_inv, w, y);
        blockwise(&sc.l, y, 1, mul_llt);
    }
}

/// The lowest order up to `cap` whose worst-case relative error of `√λ`
/// on `interval` is at most `target` (`cap` when none is), searched
/// from `start` down while the order below still meets it and up until
/// one does.
fn lowest_order(
    interval: (f64, f64),
    target: f64,
    start: usize,
    cap: usize,
) -> usize {
    let meets = |k: usize| {
        ChebyshevSqrt::new(interval.0, interval.1, k)
            .max_relative_error(ERROR_SAMPLES)
            <= target
    };
    let mut k = start.clamp(1, cap);
    if meets(k) {
        while k > 1 && meets(k - 1) {
            k -= 1;
        }
        k
    } else {
        (k + 1..cap).find(|&k| meets(k)).unwrap_or(cap)
    }
}

/// `Â = L⁻¹·R·L⁻ᵀ`, for the interval's Lanczos only. `scratch` holds
/// `L⁻ᵀ·x` between the two sweeps, one vector for all of a Lanczos
/// run's products.
struct Whitened<'a> {
    r: &'a BcrsMatrix,
    l: &'a [Block3],
    scratch: Mutex<Vec<f64>>,
}

impl LinearOperator for Whitened<'_> {
    fn dim(&self) -> usize {
        self.r.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        // A poisoned lock still guards a usable vector: every product
        // overwrites it before reading it.
        let mut w = self.scratch.lock().unwrap_or_else(|e| e.into_inner());
        w.copy_from_slice(x);
        blockwise(self.l, &mut w, 1, Block3::solve_lower_transpose);
        self.r.apply(&w, y);
        blockwise(self.l, y, 1, Block3::solve_lower);
    }
}

/// `x_i ← f(B_i, x_i)` for every 3-row slab `x_i` of a row-major block
/// of `m` vectors, column by column.
fn blockwise(
    blocks: &[Block3],
    data: &mut [f64],
    m: usize,
    f: impl Fn(&Block3, [f64; 3]) -> [f64; 3],
) {
    assert_eq!(data.len(), 3 * m * blocks.len(), "one block per three rows");
    for (b, slab) in blocks.iter().zip(data.chunks_exact_mut(3 * m)) {
        let (r0, rest) = slab.split_at_mut(m);
        let (r1, r2) = rest.split_at_mut(m);
        for j in 0..m {
            [r0[j], r1[j], r2[j]] = f(b, [r0[j], r1[j], r2[j]]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::BlockTripletBuilder;

    /// A chain in pair form whose drag spans three decades, coupled
    /// weakly: `κ(R) ≈ 10³`, `Â` is well conditioned.
    fn graded_chain(nb: usize) -> BcrsMatrix {
        let drag = |i: usize| 10f64.powf(3.0 * i as f64 / (nb - 1) as f64);
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(drag(i)));
            if i + 1 < nb {
                let w = 0.3 * drag(i);
                let a = Block3::from_rows([
                    [w, 0.1 * w, 0.0],
                    [0.1 * w, w, 0.0],
                    [0.0, 0.0, w],
                ]);
                t.add(i, i, a);
                t.add(i + 1, i + 1, a);
                t.add_symmetric_pair(i, i + 1, -a);
            }
        }
        t.build()
    }

    #[test]
    fn lowest_order_meets_the_target() {
        let target =
            ChebyshevSqrt::new(1.0, 1e3, 30).max_relative_error(ERROR_SAMPLES);
        let err =
            |k| ChebyshevSqrt::new(1e-2, 2.0, k).max_relative_error(ERROR_SAMPLES);
        let k = lowest_order((1e-2, 2.0), target, 1, 30);
        assert!(k < 30 && err(k) <= target && err(k - 1) > target, "order {k}");
        assert_eq!(lowest_order((1e-2, 2.0), target, k + 3, 30), k, "from above");
        assert_eq!(lowest_order((1e-2, 2.0), 0.0, 1, 30), 30);
    }

    /// On a pair-form matrix the top is the exact 2, the order is
    /// derived, and `F·Fᵀ·v` reproduces `R·v` to the polynomial's
    /// accuracy.
    #[test]
    fn factor_squares_back_to_the_matrix() {
        let r = graded_chain(40);
        let n = r.n_rows();
        let factor = BrownianFactor::new(&r);
        let cheb = factor.polynomial(&r, 60);
        assert_eq!(cheb.interval().1, 2.0);
        assert!(cheb.order() < 60, "order {}", cheb.order());
        let mut identity = MultiVec::zeros(n, n);
        for i in 0..n {
            *identity.get_mut(i, i) = 1.0;
        }
        factor.whiten(identity.as_mut_slice(), n);
        let mut f = MultiVec::zeros(n, n);
        factor.apply_multi(&r, &cheb, &identity, &mut f);
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let ftv: Vec<f64> =
            (0..n).map(|j| (0..n).map(|i| f.get(i, j) * v[i]).sum()).collect();
        let mut rv = vec![0.0; n];
        r.apply(&v, &mut rv);
        let (mut diff, mut norm) = (0.0, 0.0);
        for (i, rvi) in rv.iter().enumerate() {
            let fftv: f64 = (0..n).map(|j| f.get(i, j) * ftv[j]).sum();
            diff += (fftv - rvi) * (fftv - rvi);
            norm += rvi * rvi;
        }
        let err = (diff / norm).sqrt();
        // S(λ)² = λ·(1 + e)² with |e| the relative error of √λ.
        let e = cheb.max_relative_error(ERROR_SAMPLES);
        assert!(
            err <= 2.0 * e + e * e,
            "order {}: ‖F·Fᵀ·v − R·v‖/‖R·v‖ = {err:e}",
            cheb.order()
        );
        // A column of the block apply is the single-vector apply.
        let mut col = vec![0.0; n];
        factor.apply(&r, &cheb, &identity.column(5), &mut col);
        for (u, w) in col.iter().zip(f.column(5)) {
            assert!((u - w).abs() <= 1e-12, "{u} vs {w}");
        }
    }

    /// A diagonal block that cannot be factored leaves Fixman's
    /// `S(R)`, bit for bit, at the cap.
    #[test]
    fn unfactorable_diagonal_falls_back_to_s_of_r() {
        let mut r = graded_chain(6);
        let k = r.row_ptr()[2] + 1; // row 2 holds (2, 1), (2, 2), (2, 3)
        r.blocks_mut()[k] = -Block3::IDENTITY;
        let factor = BrownianFactor::new(&r);
        assert!(factor.scaling.is_none());
        let cheb = factor.polynomial(&r, 30);
        assert_eq!(cheb.order(), 30);
        let z: Vec<f64> = (0..r.n_rows()).map(|i| (i as f64).cos()).collect();
        let (mut got, mut want) = (vec![0.0; z.len()], vec![0.0; z.len()]);
        let mut w = z.clone();
        factor.whiten(&mut w, 1);
        assert_eq!(w, z, "nothing to whiten with");
        factor.apply(&r, &cheb, &w, &mut got);
        cheb.apply(&r, &z, &mut want);
        assert_eq!(got, want);
    }
}
