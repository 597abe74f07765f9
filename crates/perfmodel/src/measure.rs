//! Host calibration probes.
//!
//! The model's two machine rates are measured on the host the same way
//! the paper measured its machines: bandwidth with a STREAM-triad-like
//! sweep over arrays far larger than cache, and the compute rate by
//! running the basic kernel repeatedly over a block of memory that fits
//! in cache. The probes feed a [`MachineProfile`] so every model-based
//! figure can be regenerated against the hardware this code runs on.

use crate::machine::MachineProfile;
use crate::model::FA_FLOPS;
use mrhs_sparse::{
    active_backend, gspmv_on, gspmv_serial, Backend, BcrsMatrix, Block3,
    BlockTripletBuilder, MultiVec, Schedule,
};
use std::time::Instant;

/// Measures streaming bandwidth (bytes/second) with a triad
/// `a[i] = b[i] + s·c[i]` over arrays of `words` f64 each, best of
/// `reps` passes. Counts 4 accesses per element (read b, read c, write
/// a with write-allocate), matching the paper's STREAM correction.
pub fn stream_bandwidth(words: usize, reps: usize) -> f64 {
    let n = words.max(1 << 16);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = 3.0f64;
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        for i in 0..n {
            a[i] = b[i] + s * c[i];
        }
        let dt = t.elapsed().as_secs_f64();
        best = best.min(dt);
        std::hint::black_box(&a);
    }
    (4 * n * 8) as f64 / best
}

/// Measures the basic-kernel compute rate (flops/second) for `m`
/// vectors: a small dense-banded BCRS matrix that stays in cache is
/// multiplied `reps` times; each block element costs 18 flops per
/// vector.
pub fn kernel_flops(m: usize, reps: usize) -> f64 {
    let a = in_cache_matrix();
    let n = a.n_rows();
    let x = MultiVec::from_flat(n, m, vec![1.0; n * m]);
    let mut y = MultiVec::zeros(n, m);
    // warm-up
    gspmv_serial(&a, &x, &mut y);
    let t = Instant::now();
    for _ in 0..reps.max(1) {
        gspmv_serial(&a, &x, &mut y);
        std::hint::black_box(&y);
    }
    let dt = t.elapsed().as_secs_f64();
    (FA_FLOPS * (a.nnz_blocks() * m * reps.max(1)) as f64) / dt
}

/// Times one GSPMV with `m` vectors through an explicit backend and
/// schedule (see [`mrhs_sparse::gspmv_on`]):
/// minimum over `reps` runs, in seconds. The minimum is the
/// noise-robust estimator on shared machines — scheduler steal time
/// only ever *adds* to a sample, so the smallest sample is the closest
/// to the true cost. The probe behind the per-backend ablation rows;
/// `Schedule::Auto` honors `RAYON_NUM_THREADS`.
pub fn time_gspmv_on(
    backend: Backend,
    a: &BcrsMatrix,
    m: usize,
    reps: usize,
    schedule: Schedule,
) -> f64 {
    let x = MultiVec::from_flat(a.n_cols(), m, vec![1.0; a.n_cols() * m]);
    let mut y = MultiVec::zeros(a.n_rows(), m);
    gspmv_on(backend, a, &x, &mut y, schedule); // warm-up
    (0..reps.max(3))
        .map(|_| {
            let t = Instant::now();
            gspmv_on(backend, a, &x, &mut y, schedule);
            std::hint::black_box(&y);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Times one serial GSPMV on `a` with `m` vectors through the active
/// backend ([`time_gspmv_on`]'s common case).
pub fn time_gspmv(a: &BcrsMatrix, m: usize, reps: usize) -> f64 {
    time_gspmv_on(active_backend(), a, m, reps, Schedule::Serial)
}

/// Seconds of the four dense `n·m²` sweeps of one block-CG iteration
/// (see [`time_dense_sweeps`]).
#[derive(Clone, Copy, Debug)]
pub struct DenseSweepSecs {
    /// `PᵀQ` Gram reduction (`2·n·m²` flops, reads two multivectors).
    pub gram: f64,
    /// `X += P·α` (`2·n·m²` flops).
    pub add_mul: f64,
    /// Fused `R −= Q·α; Z = M⁻¹R; RᵀZ; diag(RᵀR)` (`4·n·m²` flops plus
    /// `O(n·m)` for the block diagonal, one pass).
    pub sub_mul_gram: f64,
    /// In-place `P ← R + P·β` (`2·n·m²` flops).
    pub assign: f64,
}

impl DenseSweepSecs {
    /// Dense time of one block-CG iteration.
    pub fn total(&self) -> f64 {
        self.gram + self.add_mul + self.sub_mul_gram + self.assign
    }
}

/// Times the dense sweeps of one block-CG iteration on `n×m`
/// multivectors (`n` rounded down to whole 3×3 blocks), in the order
/// and through the entry points the solver uses on an operator that
/// names its diagonal (`gram_into`, `add_mul_dense`,
/// `sub_mul_dense_then_precond_gram_into`, `assign_add_mul_dense`), on
/// non-constant data: minimum over `reps` iterations per sweep, in
/// seconds.
pub fn time_dense_sweeps(n: usize, m: usize, reps: usize) -> DenseSweepSecs {
    let n = n - n % 3;
    let mut state = 0x9e3779b97f4a7c15u64;
    let mut random = |len: usize, scale: f64| -> Vec<f64> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                scale * ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            })
            .collect()
    };
    let mut x = MultiVec::zeros(n, m);
    let mut p = MultiVec::from_flat(n, m, random(n * m, 1.0));
    let q = MultiVec::from_flat(n, m, random(n * m, 1.0));
    let mut r = MultiVec::from_flat(n, m, random(n * m, 1.0));
    // Small coefficients keep the repeated in-place updates bounded.
    let alpha = random(m * m, 1e-3);
    let beta = random(m * m, 1e-3);
    let inverses = vec![Block3::scaled_identity(0.5); n / 3];
    let mut z = MultiVec::zeros(n, m);
    let mut norms_sq = vec![0.0; m];
    let mut g = vec![0.0; m * m];
    let mut best = DenseSweepSecs {
        gram: f64::INFINITY,
        add_mul: f64::INFINITY,
        sub_mul_gram: f64::INFINITY,
        assign: f64::INFINITY,
    };
    fn timed(slot: &mut f64, sweep: impl FnOnce()) {
        let t = Instant::now();
        sweep();
        *slot = slot.min(t.elapsed().as_secs_f64());
    }
    for _ in 0..reps.max(3) {
        timed(&mut best.gram, || p.gram_into(&q, &mut g));
        std::hint::black_box(&g);
        timed(&mut best.add_mul, || x.add_mul_dense(&p, &alpha));
        timed(&mut best.sub_mul_gram, || {
            r.sub_mul_dense_then_precond_gram_into(
                &q,
                &alpha,
                &inverses,
                &mut z,
                &mut g,
                &mut norms_sq,
            )
        });
        std::hint::black_box((&g, &z, &norms_sq));
        timed(&mut best.assign, || p.assign_add_mul_dense(&r, &beta));
    }
    std::hint::black_box((&x, &p, &r));
    best
}

/// Measures the relative-time curve `r(m) = T(m)/T(1)` on the host for
/// the given matrix — the measured counterpart of Fig. 2.
pub fn measured_relative_curve(
    a: &BcrsMatrix,
    ms: &[usize],
    reps: usize,
) -> Vec<(usize, f64)> {
    let t1 = time_gspmv(a, 1, reps);
    ms.iter().map(|&m| (m, time_gspmv(a, m, reps) / t1)).collect()
}

/// Builds a host [`MachineProfile`]: measured bandwidth and compute
/// rate (averaged over several `m`, excluding `m = 1` as the paper
/// does), with the paper's typical `k = 3`.
pub fn host_profile() -> MachineProfile {
    let bandwidth = stream_bandwidth(1 << 22, 3);
    let ms = [4usize, 8, 16, 32];
    let flops =
        ms.iter().map(|&m| kernel_flops(m, 20)).sum::<f64>() / ms.len() as f64;
    MachineProfile { bandwidth, flops, k: 3.0 }
}

/// A banded BCRS matrix small enough to live in L2 (~500 blocks).
fn in_cache_matrix() -> BcrsMatrix {
    let nb = 64;
    let band = 4;
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        t.add(i, i, Block3::scaled_identity(2.0));
        for d in 1..=band {
            if i + d < nb {
                t.add_symmetric_pair(i, i + d, Block3::scaled_identity(-0.1));
            }
        }
    }
    t.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_probe_is_plausible() {
        let b = stream_bandwidth(1 << 20, 2);
        // Anything from an embedded board to an HBM part.
        assert!(b > 1e8 && b < 1e13, "bandwidth {b}");
    }

    #[test]
    fn kernel_flops_probe_is_plausible() {
        let f = kernel_flops(8, 5);
        assert!(f > 1e7 && f < 1e13, "flops {f}");
    }

    #[test]
    fn dense_sweep_probe_times_every_sweep() {
        let t = time_dense_sweeps(600, 8, 3);
        for secs in [t.gram, t.add_mul, t.sub_mul_gram, t.assign] {
            assert!(secs.is_finite() && secs > 0.0, "{t:?}");
        }
        assert!(t.total() >= t.sub_mul_gram);
    }

    #[test]
    fn relative_curve_starts_at_one_and_grows() {
        let a = in_cache_matrix();
        let curve = measured_relative_curve(&a, &[1, 4, 16], 5);
        assert_eq!(curve[0].0, 1);
        assert!((curve[0].1 - 1.0).abs() < 0.5);
        // 16 vectors cost more than 4 in absolute time terms: r grows.
        assert!(curve[2].1 > curve[1].1 * 0.8);
    }

    #[test]
    fn host_profile_has_positive_rates() {
        let p = host_profile();
        assert!(p.bandwidth > 0.0 && p.flops > 0.0);
        assert!(p.byte_per_flop() > 0.0);
    }

    #[test]
    fn time_gspmv_scales_superlinearly_never() {
        // T(8) should be well under 8× T(1) — vectors amortize the
        // matrix stream (this is the whole point of the paper).
        let a = in_cache_matrix();
        let t1 = time_gspmv(&a, 1, 9);
        let t8 = time_gspmv(&a, 8, 9);
        assert!(t8 < 8.0 * t1 * 1.5, "t1={t1} t8={t8}");
    }
}
