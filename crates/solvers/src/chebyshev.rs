//! Shifted Chebyshev polynomial approximation of the matrix square root.
//!
//! Brownian forces need `f_B = L·z` with `L·Lᵀ = R`. Following Fixman
//! (1986) and the paper (§II-C), we instead compute `S(R)·z` where
//! `S` is a Chebyshev polynomial approximating `√λ` on an interval
//! `[λ_lo, λ_hi]` that brackets the spectrum of `R`. The evaluation uses
//! only matrix–vector products — `C_max` of them, 30 in the paper — and
//! with a block of noise vectors they all become GSPMV (Alg. 2 step 2,
//! "Cheb vectors"). The drivers run it on the block-Jacobi-scaled
//! matrix `D⁻¹R` instead of `R` (`mrhs_core::brownian`), where a
//! lower order reaches the same accuracy.
//!
//! The evaluation is one three-term recurrence over
//! [`LinearOperator::apply_multi`], on every operator: it rotates three
//! `n × m` blocks and reads `z` directly for the first step. The blocks
//! are three slots of the per-thread workspace the solvers share, so a
//! chunk head's Chebyshev block and the block solve after it run in
//! the same memory, and a warm apply at any width allocates nothing.

use crate::operator::LinearOperator;
use crate::work::{Work, Workspace};
use mrhs_sparse::{Block3, MultiVec};

/// A fixed-degree Chebyshev approximation of `√λ` on `[lo, hi]`.
#[derive(Clone, Debug)]
pub struct ChebyshevSqrt {
    lo: f64,
    hi: f64,
    /// Chebyshev coefficients `c_0..c_order`; the approximation is
    /// `c_0/2 + Σ_{k≥1} c_k T_k(t)` with `t = (λ − mid)/half`.
    coeffs: Vec<f64>,
}

impl ChebyshevSqrt {
    /// Builds the degree-`order` approximation of `√λ` on `[lo, hi]`.
    /// `order` is the maximum polynomial order, i.e. the number of
    /// operator applications per evaluation (the paper's `C_max = 30`).
    ///
    /// # Panics
    /// If `lo ≤ 0`, `hi ≤ lo`, or `order == 0`.
    pub fn new(lo: f64, hi: f64, order: usize) -> Self {
        assert!(lo > 0.0, "spectrum bound must be positive, got lo={lo}");
        assert!(hi > lo, "need hi > lo, got [{lo}, {hi}]");
        assert!(order >= 1);
        let k_pts = order + 1;
        let mid = 0.5 * (hi + lo);
        let half = 0.5 * (hi - lo);
        // Values of √λ at the Chebyshev nodes of the interval.
        let node_vals: Vec<f64> = (0..k_pts)
            .map(|j| {
                let t =
                    (std::f64::consts::PI * (j as f64 + 0.5) / k_pts as f64).cos();
                (mid + half * t).sqrt()
            })
            .collect();
        let coeffs: Vec<f64> = (0..=order)
            .map(|k| {
                let mut acc = 0.0;
                for (j, fv) in node_vals.iter().enumerate() {
                    acc += fv
                        * (std::f64::consts::PI * k as f64 * (j as f64 + 0.5)
                            / k_pts as f64)
                            .cos();
                }
                2.0 * acc / k_pts as f64
            })
            .collect();
        ChebyshevSqrt { lo, hi, coeffs }
    }

    /// Polynomial order (= operator applications per evaluation).
    pub fn order(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// The approximation interval.
    pub fn interval(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Evaluates the scalar polynomial at `lambda` (Clenshaw recurrence).
    pub fn evaluate_scalar(&self, lambda: f64) -> f64 {
        let mid = 0.5 * (self.hi + self.lo);
        let half = 0.5 * (self.hi - self.lo);
        let t = (lambda - mid) / half;
        let mut b1 = 0.0;
        let mut b2 = 0.0;
        for &c in self.coeffs.iter().skip(1).rev() {
            let b0 = 2.0 * t * b1 - b2 + c;
            b2 = b1;
            b1 = b0;
        }
        t * b1 - b2 + 0.5 * self.coeffs[0]
    }

    /// Maximum absolute error of the scalar approximation sampled at
    /// `samples` evenly spaced points of the interval.
    pub fn max_error(&self, samples: usize) -> f64 {
        (0..samples)
            .map(|i| {
                let lambda = self.lo
                    + (self.hi - self.lo) * i as f64 / (samples - 1).max(1) as f64;
                (self.evaluate_scalar(lambda) - lambda.sqrt()).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Maximum relative error `|S(λ) − √λ| / √λ` sampled at `samples`
    /// log-spaced points of the interval, ends included. Log spacing
    /// because the relative error peaks at the low end, where √λ is
    /// smallest.
    pub fn max_relative_error(&self, samples: usize) -> f64 {
        let ratio = self.hi / self.lo;
        (0..samples)
            .map(|i| {
                let t = i as f64 / (samples - 1).max(1) as f64;
                let lambda = self.lo * ratio.powf(t);
                (self.evaluate_scalar(lambda) / lambda.sqrt() - 1.0).abs()
            })
            .fold(0.0, f64::max)
    }

    /// Computes `Y = S(A)·Z` for a block of vectors; performs exactly
    /// `order` operator applications. The three-term recurrence:
    /// `u_0 = z` (read in place), `u_1 = Ã·z`,
    /// `u_{p+1} = 2·Ã·u_p − u_{p−1}` with `Ã = (A − mid·I)/half`,
    /// accumulated as `y = c_0/2·z + Σ c_p·u_p`.
    pub fn apply_multi<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        z: &MultiVec,
        y: &mut MultiVec,
    ) {
        self.recurrence(a, None, z, y, Work::take().get());
    }

    /// `Y = S(D⁻¹A)·Z` for the block-diagonal `D⁻¹` whose 3×3 blocks
    /// are `d_inv`, one per three rows: [`Self::apply_multi`] on `D⁻¹A`,
    /// with the block apply inside the recurrence's shift pass, so it
    /// costs no pass over the vectors of its own.
    pub fn apply_multi_scaled<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        d_inv: &[Block3],
        z: &MultiVec,
        y: &mut MultiVec,
    ) {
        self.recurrence(a, Some(d_inv), z, y, Work::take().get());
    }

    fn recurrence<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        d_inv: Option<&[Block3]>,
        z: &MultiVec,
        y: &mut MultiVec,
        work: &mut Workspace,
    ) {
        assert_eq!(z.n(), a.dim());
        assert_eq!(z.shape(), y.shape());
        if let Some(d_inv) = d_inv {
            assert_eq!(3 * d_inv.len(), a.dim(), "one block per three rows");
        }
        let _span = mrhs_telemetry::span("solver/cheb/apply");
        mrhs_telemetry::counter_add("solver/cheb/applies", 1);
        mrhs_telemetry::counter_add("solver/cheb/terms", self.order() as u64);
        let mid = 0.5 * (self.hi + self.lo);
        let half = 0.5 * (self.hi - self.lo);
        let (n, m) = z.shape();
        let [cur, next, prev, ..] = &mut work.blocks;
        for u in [&mut *cur, &mut *next, &mut *prev] {
            u.reset(n, m);
        }
        // u_1 = Ã·z ; y = c0/2 · z + c1 · u_1
        apply_shifted(a, d_inv, z, cur, mid, half);
        y.fill(0.0);
        y.axpy(0.5 * self.coeffs[0], z);
        y.axpy(self.coeffs[1], cur);

        // First recurrence step reads u_0 = z directly; afterwards
        // `prev` holds u_{p−1}.
        let mut prev_is_z = true;
        for &c in self.coeffs.iter().skip(2) {
            apply_shifted(a, d_inv, cur, next, mid, half);
            next.scale(2.0);
            next.axpy(-1.0, if prev_is_z { z } else { &*prev });
            y.axpy(c, next);
            prev_is_z = false;
            // Rotate: prev ← u_p, cur ← u_{p+1}, next ← free.
            std::mem::swap(prev, cur);
            std::mem::swap(cur, next);
        }
    }

    /// Single-vector convenience wrapper around [`Self::apply_multi`].
    /// Stages `z` and `y` as width-1 blocks in the workspace (a width-1
    /// `MultiVec` has the vector's exact layout), as `cg` does.
    pub fn apply<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        z: &[f64],
        y: &mut [f64],
    ) {
        let mut work = Work::take();
        work.get().single(z, y, |z, y, work| self.recurrence(a, None, z, y, work));
    }

    /// [`Self::apply_multi_scaled`] for one vector, staged as
    /// [`Self::apply`] is.
    pub fn apply_scaled<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        d_inv: &[Block3],
        z: &[f64],
        y: &mut [f64],
    ) {
        let mut work = Work::take();
        work.get()
            .single(z, y, |z, y, work| self.recurrence(a, Some(d_inv), z, y, work));
    }
}

/// `out = Ã·x = (A·x − mid·x)/half`, with `A` replaced by `D⁻¹A` when
/// `d_inv` holds `D⁻¹`'s blocks. Pure out-of-place shift — it touches
/// nothing but `out`; the recurrence's buffer rotation lives entirely in
/// [`ChebyshevSqrt::apply_multi`].
fn apply_shifted<A: LinearOperator + ?Sized>(
    a: &A,
    d_inv: Option<&[Block3]>,
    x: &MultiVec,
    out: &mut MultiVec,
    mid: f64,
    half: f64,
) {
    a.apply_multi(x, out);
    let inv = 1.0 / half;
    let Some(d_inv) = d_inv else {
        for (o, xi) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = (*o - mid * xi) * inv;
        }
        return;
    };
    let (out, x) = (out.as_mut_slice(), x.as_slice());
    // A constant width lets the compiler vectorize across the columns.
    match x.len() / (3 * d_inv.len()) {
        1 => scaled_shift(d_inv, out, x, 1, mid, inv),
        8 => scaled_shift(d_inv, out, x, 8, mid, inv),
        16 => scaled_shift(d_inv, out, x, 16, mid, inv),
        m => scaled_shift(d_inv, out, x, m, mid, inv),
    }
}

/// `out_i = (D⁻¹_i·out_i − mid·x_i)·inv` for every 3-row slab `i` of `m`
/// columns.
#[inline(always)]
fn scaled_shift(
    d_inv: &[Block3],
    out: &mut [f64],
    x: &[f64],
    m: usize,
    mid: f64,
    inv: f64,
) {
    let slabs = out.chunks_exact_mut(3 * m).zip(x.chunks_exact(3 * m));
    for (Block3(b), (os, xs)) in d_inv.iter().zip(slabs) {
        let (o0, os) = os.split_at_mut(m);
        let (o1, o2) = os.split_at_mut(m);
        let (x0, xs) = xs.split_at(m);
        let (x1, x2) = xs.split_at(m);
        for j in 0..m {
            let (a0, a1, a2) = (o0[j], o1[j], o2[j]);
            o0[j] = (b[0] * a0 + b[1] * a1 + b[2] * a2 - mid * x0[j]) * inv;
            o1[j] = (b[3] * a0 + b[4] * a1 + b[5] * a2 - mid * x1[j]) * inv;
            o2[j] = (b[6] * a0 + b[7] * a1 + b[8] * a2 - mid * x2[j]) * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{CountingOperator, DenseOperator};
    use mrhs_sparse::BcrsMatrix;

    #[test]
    fn scalar_approximation_is_accurate() {
        let cheb = ChebyshevSqrt::new(0.1, 10.0, 30);
        assert!(cheb.max_error(1000) < 2e-3, "err = {}", cheb.max_error(1000));
        // and improves with order
        let cheb50 = ChebyshevSqrt::new(0.1, 10.0, 60);
        assert!(cheb50.max_error(1000) < cheb.max_error(1000));
    }

    #[test]
    fn relative_error_peaks_at_the_low_end_and_falls_with_order() {
        let cheb = ChebyshevSqrt::new(1e-2, 2.0, 12);
        let worst = cheb.max_relative_error(512);
        let at_lo = (cheb.evaluate_scalar(1e-2) / 0.1 - 1.0).abs();
        assert!(worst >= at_lo && at_lo > 0.5 * worst, "{at_lo} of {worst}");
        assert!(ChebyshevSqrt::new(1e-2, 2.0, 24).max_relative_error(512) < worst);
    }

    #[test]
    fn scalar_matches_sqrt_at_midpoint() {
        let cheb = ChebyshevSqrt::new(1.0, 4.0, 24);
        for lambda in [1.0, 1.7, 2.5, 3.3, 4.0] {
            assert!(
                (cheb.evaluate_scalar(lambda) - lambda.sqrt()).abs() < 1e-6,
                "λ={lambda}"
            );
        }
    }

    #[test]
    fn matrix_apply_matches_scalar_on_diagonal_operator() {
        // For a diagonal matrix, S(A)z has entries S(d_i)·z_i.
        let n = 4;
        let diag = [0.5, 1.0, 2.0, 3.5];
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            dense[i * n + i] = diag[i];
        }
        let a = DenseOperator::new(n, dense);
        let cheb = ChebyshevSqrt::new(0.4, 4.0, 30);
        let z = vec![1.0, -2.0, 0.5, 3.0];
        let mut y = vec![0.0; n];
        cheb.apply(&a, &z, &mut y);
        for i in 0..n {
            let want = cheb.evaluate_scalar(diag[i]) * z[i];
            assert!((y[i] - want).abs() < 1e-10, "i={i}: {} vs {want}", y[i]);
        }
    }

    #[test]
    fn squaring_recovers_matrix_action() {
        // S(A)·S(A)·z ≈ A·z when the spectrum is inside the interval.
        let n = 3;
        let dense = vec![2.0, 0.3, 0.0, 0.3, 1.5, 0.2, 0.0, 0.2, 2.5];
        let a = DenseOperator::new(n, dense.clone());
        let cheb = ChebyshevSqrt::new(0.8, 3.5, 40);
        let z = vec![1.0, 2.0, -1.0];
        let mut s1 = vec![0.0; n];
        let mut s2 = vec![0.0; n];
        cheb.apply(&a, &z, &mut s1);
        cheb.apply(&a, &s1, &mut s2);
        let mut az = vec![0.0; n];
        use crate::operator::LinearOperator;
        a.apply(&z, &mut az);
        for i in 0..n {
            assert!((s2[i] - az[i]).abs() < 1e-6, "{} vs {}", s2[i], az[i]);
        }
    }

    #[test]
    fn apply_multi_performs_order_gspmvs() {
        let a = BcrsMatrix::scaled_identity(5, 2.0);
        let c = CountingOperator::new(&a);
        let cheb = ChebyshevSqrt::new(1.0, 3.0, 30);
        let z = MultiVec::zeros(15, 4);
        let mut y = MultiVec::zeros(15, 4);
        cheb.apply_multi(&c, &z, &mut y);
        assert_eq!(c.multi_applies(), 30);
    }

    #[test]
    fn multi_columns_match_single_applies() {
        let n = 9;
        let a = BcrsMatrix::scaled_identity(3, 2.5);
        let cheb = ChebyshevSqrt::new(2.0, 3.0, 16);
        let mut z = MultiVec::zeros(n, 3);
        for j in 0..3 {
            let col: Vec<f64> = (0..n).map(|i| ((i + j) as f64).sin()).collect();
            z.set_column(j, &col);
        }
        let mut y = MultiVec::zeros(n, 3);
        cheb.apply_multi(&a, &z, &mut y);
        for j in 0..3 {
            let mut yj = vec![0.0; n];
            cheb.apply(&a, &z.column(j), &mut yj);
            for (u, v) in y.column(j).iter().zip(&yj) {
                assert!((u - v).abs() < 1e-12);
            }
        }
    }

    /// The fused block apply is the recurrence on `D⁻¹A` itself, at
    /// every width the shift pass dispatches (1, 8, 16) and off them.
    #[test]
    fn scaled_apply_is_the_recurrence_on_the_scaled_operator() {
        use mrhs_sparse::{Block3, BlockTripletBuilder};
        let nb = 10;
        let mut t = BlockTripletBuilder::square(nb);
        let mut d_inv = Vec::new();
        for i in 0..nb {
            let d = Block3::from_rows([
                [4.0 + i as f64, 0.5, 0.0],
                [0.5, 3.0, 0.25],
                [0.0, 0.25, 2.0 + 0.3 * i as f64],
            ]);
            t.add(i, i, d);
            d_inv.push(d.spd_inverse().unwrap());
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-0.7));
            }
        }
        let a = t.build();
        let n = a.n_rows();
        // D⁻¹A as a dense operator.
        let dense = a.to_dense();
        let mut scaled = vec![0.0; n * n];
        for (bi, b) in d_inv.iter().enumerate() {
            for r in 0..3 {
                for c in 0..n {
                    scaled[(3 * bi + r) * n + c] = (0..3)
                        .map(|k| b.get(r, k) * dense[(3 * bi + k) * n + c])
                        .sum();
                }
            }
        }
        let reference = DenseOperator::new(n, scaled);
        let cheb = ChebyshevSqrt::new(0.2, 2.5, 20);
        for m in [1usize, 3, 8, 16] {
            let mut z = MultiVec::zeros(n, m);
            for (i, v) in z.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 7 % 13) as f64) / 13.0 - 0.5;
            }
            let (mut got, mut want) =
                (MultiVec::zeros(n, m), MultiVec::zeros(n, m));
            cheb.apply_multi_scaled(&a, &d_inv, &z, &mut got);
            cheb.apply_multi(&reference, &z, &mut want);
            for (u, v) in got.as_slice().iter().zip(want.as_slice()) {
                assert!((u - v).abs() < 1e-12, "m={m}: {u} vs {v}");
            }
            if m == 1 {
                let mut y = vec![0.0; n];
                cheb.apply_scaled(&a, &d_inv, z.as_slice(), &mut y);
                assert_eq!(y, got.as_slice());
            }
        }
    }

    #[test]
    fn identity_scaling_gives_sqrt_scale() {
        // A = 4·I ⇒ S(A)z ≈ 2z.
        let a = BcrsMatrix::scaled_identity(4, 4.0);
        let cheb = ChebyshevSqrt::new(1.0, 5.0, 30);
        let z = vec![1.0; 12];
        let mut y = vec![0.0; 12];
        cheb.apply(&a, &z, &mut y);
        for v in &y {
            assert!((v - 2.0).abs() < 1e-4, "{v}");
        }
    }

    #[test]
    fn bcrs_and_dense_operators_agree() {
        // The same operator stored as a BcrsMatrix (GSPMV) and as a
        // DenseOperator (column-by-column default) must agree.
        use mrhs_sparse::{Block3, BlockTripletBuilder};
        let nb = 8;
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-0.7));
            }
        }
        let a = t.build();
        let n = a.n_rows();
        let dense = DenseOperator::new(n, a.to_dense());
        let cheb = ChebyshevSqrt::new(1.0, 7.0, 25);
        for m in [1usize, 3] {
            let mut z = MultiVec::zeros(n, m);
            for (i, v) in z.as_mut_slice().iter_mut().enumerate() {
                *v = ((i * 13 % 17) as f64) / 17.0 - 0.5;
            }
            let mut y_sparse = MultiVec::zeros(n, m);
            cheb.apply_multi(&a, &z, &mut y_sparse);
            let mut y_dense = MultiVec::zeros(n, m);
            cheb.apply_multi(&dense, &z, &mut y_dense);
            for (u, v) in y_sparse.as_slice().iter().zip(y_dense.as_slice()) {
                assert!((u - v).abs() < 1e-10, "m={m}: {u} vs {v}");
            }
        }
    }

    #[test]
    fn apply_pool_survives_shape_changes() {
        // Back-to-back applies at different dimensions must reshape the
        // workspace's blocks correctly.
        for n_blocks in [2usize, 4, 2, 3] {
            let a = BcrsMatrix::scaled_identity(n_blocks, 4.0);
            let n = 3 * n_blocks;
            let cheb = ChebyshevSqrt::new(1.0, 5.0, 20);
            let z = vec![1.0; n];
            let mut y = vec![0.0; n];
            cheb.apply(&a, &z, &mut y);
            for v in &y {
                assert!((v - 2.0).abs() < 1e-4, "n={n}: {v}");
            }
        }
    }

    /// FNV-1a over the output words.
    fn bits_checksum(y: &MultiVec) -> u64 {
        y.as_slice().iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
            (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Output bits per kernel family, recorded at 549585b through the
    /// level-blocked path this recurrence replaced on `BcrsMatrix`:
    /// order 30 (the paper's) and order 7 (= 4 + 3, across that path's
    /// group depth), each at w1 and w8, past the parallel threshold.
    /// The two `Simd` w1 words were re-recorded when width 1 got its own
    /// SIMD kernel (PR 20). Host-independent: that kernel reduces a row
    /// in an order of its own, the same on every ISA
    /// (`mrhs_sparse`'s `narrow_width::w1_bits_do_not_depend_on_the_isa`
    /// runs it under each ISA the host has, where the ISA is an
    /// argument), and w8 is a lane multiple on all of them.
    #[test]
    fn chebyshev_bits_pinned() {
        use mrhs_sparse::{Block3, BlockTripletBuilder, KernelKind};
        // 2400 rows × 13 blocks: past the 2^14-block parallel threshold.
        let nb = 2400;
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(8.0));
            for off in 1..=6 {
                if i + off < nb {
                    let mut blk = Block3::ZERO;
                    for v in blk.0.iter_mut() {
                        *v = rng() * 0.25;
                    }
                    t.add_symmetric_pair(i, i + off, blk);
                }
            }
        }
        let a = t.build();
        assert!(a.nnz_blocks() >= 1 << 14);
        let n = a.n_rows();
        let mut got = Vec::new();
        for order in [30usize, 7] {
            // Gershgorin: |off-diagonal row sum| < 12 · 3 · 0.125 = 4.5.
            let cheb = ChebyshevSqrt::new(3.5, 12.5, order);
            for m in [1usize, 8] {
                let mut z = MultiVec::zeros(n, m);
                for v in z.as_mut_slice() {
                    *v = rng();
                }
                let mut y = MultiVec::zeros(n, m);
                cheb.apply_multi(&a, &z, &mut y);
                got.push(bits_checksum(&y));
            }
        }
        // [order 30 w1, order 30 w8, order 7 w1, order 7 w8]
        let want: [u64; 4] = match mrhs_sparse::active_backend().kind() {
            KernelKind::Scalar => [
                0x6d59_2796_7e1e_4d01,
                0xc2c4_9b07_5446_19d5,
                0x8e9e_a55f_8b4c_80ac,
                0x245a_caf4_23eb_0daf,
            ],
            KernelKind::Simd => [
                0xfabb_eeb3_ef36_1c64,
                0x77f8_acad_8aee_35bd,
                0x1871_0d0c_dfca_dd31,
                0x844c_4b6f_3e8a_7101,
            ],
        };
        assert_eq!(got, want, "got {got:#018x?}");
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn rejects_nonpositive_interval() {
        ChebyshevSqrt::new(0.0, 1.0, 10);
    }
}
