//! `refsolve` — the frozen pace reference.
//!
//! **This file is never edited after the PR that added it.** Every
//! timing the benchmark reports is divided by the time this code takes
//! on the same host in the same seconds, so any change here — to the
//! matrix, the arithmetic, the pass count, even the iteration order —
//! silently rescales every number ever recorded. The unit test at the
//! bottom pins the bits of the result so the work cannot drift; if it
//! fails, revert the edit instead of updating the constant.
//!
//! The reference deliberately has the *character* of the code under
//! test (a 3×3-block sparse matrix–vector product over a few MiB of
//! matrix, followed by a dot product and a vector update) so that
//! whatever a noisy neighbour takes from the solvers — core time, cache
//! capacity, memory bandwidth — it takes from the reference in the same
//! proportion. It shares no code with the repository: own generator,
//! own storage, own plain scalar loops.

use std::time::Instant;

/// Block rows of the reference matrix.
const NB: usize = 4000;
/// Scalar dimension.
const N: usize = 3 * NB;
/// Column offsets are drawn from `[-BAND, BAND]` around the diagonal.
const BAND: i64 = 300;
/// SpMV + dot + axpy passes per window; fixed so that one window is the
/// same work on every host and every commit.
pub const REF_PASSES: usize = 660;
/// Seconds one window takes on the nominal host: the median of 400
/// windows on the quiet 2-vCPU box this benchmark was written on.
/// Corrected timings read "seconds on the nominal host".
pub const REF_NOMINAL_S: f64 = 0.0983;
/// Wrapping sum of the bit patterns of the iterate after one window.
pub const REF_CHECKSUM: u64 = 169_239_403_767_841_658;

/// The reference problem: matrix, start vector and work buffers.
pub struct RefSolve {
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<[f64; 9]>,
    x0: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
}

/// 64-bit LCG (Knuth's MMIX constants); the high bits are the output.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        self.next() as f64 / (1u64 << 53) as f64
    }
}

impl Default for RefSolve {
    fn default() -> Self {
        Self::new()
    }
}

impl RefSolve {
    /// Generates the fixed reference problem (≈46,000 blocks, ≈3.4 MiB
    /// of matrix). Takes a few milliseconds; not part of any timing.
    pub fn new() -> Self {
        let mut rng = Lcg(0x5DEE_CE66_D1CE_4E5B);
        let mut row_ptr = Vec::with_capacity(NB + 1);
        let mut col = Vec::new();
        let mut val = Vec::new();
        row_ptr.push(0u32);
        for i in 0..NB {
            // Diagonal block: dominant, so the iterate stays O(1).
            let mut d = [0.0; 9];
            for (k, v) in d.iter_mut().enumerate() {
                *v = 0.05 * rng.unit() + if k % 4 == 0 { 1.0 } else { 0.0 };
            }
            col.push(i as u32);
            val.push(d);
            // 10 or 11 off-diagonal blocks inside the band.
            let off = 10 + (rng.next() & 1) as usize;
            for _ in 0..off {
                let delta = (rng.next() % (2 * BAND as u64 + 1)) as i64 - BAND;
                let j = (i as i64 + delta).rem_euclid(NB as i64) as u32;
                let mut b = [0.0; 9];
                for v in b.iter_mut() {
                    *v = 0.04 * rng.unit();
                }
                col.push(j);
                val.push(b);
            }
            row_ptr.push(col.len() as u32);
        }
        let x0: Vec<f64> = (0..N).map(|_| 0.5 + rng.unit()).collect();
        RefSolve { row_ptr, col, val, x: x0.clone(), y: vec![0.0; N], x0 }
    }

    /// Bytes of matrix one pass streams (values + column indices + row
    /// pointers), computed from the array sizes.
    pub fn matrix_bytes(&self) -> usize {
        self.val.len() * 72 + self.col.len() * 4 + self.row_ptr.len() * 4
    }

    /// One window: resets the iterate, runs [`REF_PASSES`] passes, and
    /// returns `(seconds, checksum)`. The checksum must equal
    /// [`REF_CHECKSUM`] on every host.
    pub fn window(&mut self) -> (f64, u64) {
        let t = Instant::now();
        self.x.copy_from_slice(&self.x0);
        for _ in 0..REF_PASSES {
            self.pass();
        }
        let secs = t.elapsed().as_secs_f64();
        let sum = self.x.iter().fold(0u64, |acc, v| acc.wrapping_add(v.to_bits()));
        (secs, sum)
    }

    /// `y = A·x`, `s = y·y`, `x = ½·x + (½/√s)·y`.
    #[inline(never)]
    fn pass(&mut self) {
        let (x, y) = (&self.x, &mut self.y);
        for i in 0..NB {
            let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
            let (mut a0, mut a1, mut a2) = (0.0f64, 0.0f64, 0.0f64);
            for k in lo..hi {
                let b = &self.val[k];
                let j = 3 * self.col[k] as usize;
                let (x0, x1, x2) = (x[j], x[j + 1], x[j + 2]);
                a0 += b[0] * x0 + b[1] * x1 + b[2] * x2;
                a1 += b[3] * x0 + b[4] * x1 + b[5] * x2;
                a2 += b[6] * x0 + b[7] * x1 + b[8] * x2;
            }
            y[3 * i] = a0;
            y[3 * i + 1] = a1;
            y[3 * i + 2] = a2;
        }
        let mut s = 0.0f64;
        for v in y.iter() {
            s += v * v;
        }
        let c = 0.5 / s.sqrt();
        for (xv, yv) in self.x.iter_mut().zip(self.y.iter()) {
            *xv = 0.5 * *xv + c * *yv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The work a window does is pinned bit for bit.
    #[test]
    fn window_checksum_is_pinned() {
        let mut r = RefSolve::new();
        let (_, first) = r.window();
        let (_, second) = r.window();
        assert_eq!(first, second, "a window must not depend on the one before");
        assert_eq!(first, REF_CHECKSUM, "refsolve changed: revert the edit");
    }

    #[test]
    fn matrix_is_about_three_and_a_half_mib() {
        let r = RefSolve::new();
        let mib = r.matrix_bytes() as f64 / (1 << 20) as f64;
        assert!((3.2..3.7).contains(&mib), "{mib} MiB");
        assert!(r.x.iter().all(|v| v.is_finite() && *v > 0.0));
    }
}
