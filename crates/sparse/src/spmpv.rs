//! Level-blocked sparse matrix-power kernels (SpMPV).
//!
//! Every Chebyshev term and every CG iteration streams the whole matrix
//! once per multiply. Level-based blocking (Alappat et al.,
//! arXiv:2205.01598) computes `A·X, A²·X, …, A^k·X` in roughly **one**
//! matrix stream: block rows are split into contiguous cache-sized
//! chunks, and the chunk×power grid is executed along anti-diagonals —
//! chunk `i` at power `p` runs at stage `t = i + p − 1`, powers
//! ascending within a stage. A chunk's matrix rows are then touched at
//! `k` *consecutive* stages, so they stay cache-resident between powers
//! and the matrix is effectively fetched from memory once.
//!
//! **Validity.** Chunk `i` at power `p` reads columns of level `p − 1`
//! inside chunks `i − 1, i, i + 1` only, which is guaranteed by making
//! every chunk at least as long as the matrix's block bandwidth
//! ([`PowerPlan`] enforces this). Those dependencies execute at stages
//! `t − 2`, `t − 1`, and earlier in stage `t` (smaller `p` runs first),
//! so every read sees a fully computed level.
//!
//! **Determinism.** Each `(chunk, power)` cell is one
//! [`Backend::gspmv_rows`] call over the full previous-level
//! vector, and a block row's accumulation never crosses a chunk — so
//! per backend kind, [`spmpv_powers`] is **bitwise identical** to `k`
//! sequential full-sweep GSPMV calls (the oracle pins this per kind).
//!
//! The fused Chebyshev entry point [`spmpv_chebyshev`] evaluates the
//! whole shifted three-term recurrence `u_{p+1} = 2·Ã·u_p − u_{p−1}`,
//! `Ã = (A − mid·I)/half`, accumulating `y = c_0/2·z + Σ c_p·u_p`
//! per chunk as each level is produced. Coefficients are processed in
//! fused groups of at most [`SPMPV_MAX_DEPTH`] so memory stays bounded
//! at `depth + 2` full multivectors while each group costs one matrix
//! stream instead of `depth`.

use crate::backend::{active_backend, Backend, KernelKind};
use crate::bcrs::BcrsMatrix;
use crate::instrument;
use crate::multivec::MultiVec;
use crate::BLOCK_DIM;
use std::ops::Range;

/// Upper bound on how many recurrence levels one fused Chebyshev pass
/// computes per matrix stream. Each pass holds `depth + 2` full
/// multivectors, so this bounds workspace while still amortizing the
/// matrix stream over several multiplies.
pub const SPMPV_MAX_DEPTH: usize = 4;

/// Telemetry family of the fused kernels: calls count under
/// `spmpv/m{m}/…` and time under `kernel/spmpv/m{m}`, next to the GSPMV
/// families of [`crate::KERNEL_NAMES`].
pub const SPMPV_KERNEL: &str = "spmpv";

/// Target bytes of matrix stream per chunk — sized so a chunk's blocks
/// and indices sit comfortably in a private L2 slice while `k` powers
/// revisit them.
const CHUNK_TARGET_BYTES: usize = 256 << 10;

/// The level-blocking schedule for one matrix: contiguous block-row
/// chunks whose length is at least the block bandwidth, so each chunk's
/// column reach spans at most one neighbouring chunk.
#[derive(Clone, Debug)]
pub struct PowerPlan {
    /// Chunk `i` covers block rows `bounds[i]..bounds[i + 1]`.
    bounds: Vec<usize>,
    /// Maximum `|row − col|` over stored blocks.
    bandwidth: usize,
}

impl PowerPlan {
    /// Plans chunks for `a` with the default cache target.
    ///
    /// # Panics
    /// When `a` is not square (powers need matching shapes).
    pub fn new(a: &BcrsMatrix) -> Self {
        let nb = a.nb_rows();
        let bytes_per_row = a.stream_bytes().checked_div(nb).unwrap_or(1).max(1);
        Self::with_chunk_rows(a, (CHUNK_TARGET_BYTES / bytes_per_row).max(1))
    }

    /// Plans with an explicit row target per chunk (tests and benches
    /// use this to force multi-chunk schedules on small matrices). The
    /// target is raised to the block bandwidth when narrower.
    pub fn with_chunk_rows(a: &BcrsMatrix, chunk_rows: usize) -> Self {
        assert_eq!(
            a.nb_rows(),
            a.nb_cols(),
            "matrix powers require a square matrix"
        );
        let bandwidth = block_bandwidth(a);
        let step = chunk_rows.max(bandwidth).max(1);
        let nb = a.nb_rows();
        let mut bounds = Vec::with_capacity(nb / step + 2);
        bounds.push(0);
        let mut s = 0;
        while s < nb {
            s = (s + step).min(nb);
            bounds.push(s);
        }
        PowerPlan { bounds, bandwidth }
    }

    /// Number of row chunks (0 for an empty matrix).
    pub fn n_chunks(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the schedule actually fuses: with a single chunk the
    /// wavefront degenerates to plain sequential sweeps and the matrix
    /// is streamed once per power (it may still be cache-resident —
    /// a single chunk means the whole matrix met the cache target).
    pub fn fused(&self) -> bool {
        self.n_chunks() > 1
    }

    /// The matrix's block bandwidth.
    pub fn bandwidth(&self) -> usize {
        self.bandwidth
    }

    fn chunk(&self, i: usize) -> Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }
}

/// Maximum `|row − col|` over stored blocks — the column reach that
/// chunk sizing must cover.
fn block_bandwidth(a: &BcrsMatrix) -> usize {
    let mut bw = 0usize;
    for bi in 0..a.nb_rows() {
        let (cols, _) = a.block_row(bi);
        for &c in cols {
            bw = bw.max((c as isize - bi as isize).unsigned_abs());
        }
    }
    bw
}

/// `outs[p − 1] = A^p · x` for `p = 1..=outs.len()`, through the active
/// backend, in one level-blocked wavefront. Bitwise identical (per
/// backend kind) to `outs.len()` sequential [`crate::gspmv_serial`]
/// sweeps.
pub fn spmpv_powers(a: &BcrsMatrix, x: &MultiVec, outs: &mut [MultiVec]) {
    spmpv_powers_impl(active_backend(), a, x, outs);
}

/// [`spmpv_powers`] through an explicitly chosen backend kind.
///
/// # Panics
/// When `kind` is unavailable on this host; gate with
/// [`crate::backend::backend_available`].
pub fn spmpv_powers_with(
    kind: KernelKind,
    a: &BcrsMatrix,
    x: &MultiVec,
    outs: &mut [MultiVec],
) {
    spmpv_powers_impl(Backend::forced(kind), a, x, outs);
}

/// [`spmpv_powers_with`] over an explicit [`PowerPlan`] — how the
/// oracle (and tests) force a multi-chunk wavefront on matrices too
/// small for the default plan to fuse. Shape checks match
/// [`spmpv_powers`]; the plan must have been built for `a`.
pub fn spmpv_powers_with_plan(
    kind: KernelKind,
    a: &BcrsMatrix,
    plan: &PowerPlan,
    x: &MultiVec,
    outs: &mut [MultiVec],
) {
    let k = outs.len();
    if k == 0 {
        return;
    }
    let m = x.m();
    assert_eq!(x.n(), a.n_cols(), "X row count must equal matrix columns");
    for out in outs.iter() {
        assert_eq!(out.n(), a.n_rows(), "out row count must equal matrix rows");
        assert_eq!(out.m(), m, "out width must match X");
    }
    let b = Backend::forced(kind);
    let _span = instrument_spmpv(a, m, k, 1, plan, b);
    powers_wavefront(b, a, plan, x, outs);
}

fn spmpv_powers_impl(
    b: Backend,
    a: &BcrsMatrix,
    x: &MultiVec,
    outs: &mut [MultiVec],
) {
    let k = outs.len();
    if k == 0 {
        return;
    }
    let m = x.m();
    assert_eq!(x.n(), a.n_cols(), "X row count must equal matrix columns");
    for out in outs.iter() {
        assert_eq!(out.n(), a.n_rows(), "out row count must equal matrix rows");
        assert_eq!(out.m(), m, "out width must match X");
    }
    let plan = PowerPlan::new(a);
    // The whole depth runs in one wavefront: one matrix stream.
    let _span = instrument_spmpv(a, m, k, 1, &plan, b);
    powers_wavefront(b, a, &plan, x, outs);
}

/// The anti-diagonal schedule over an explicit plan (tests force
/// multi-chunk plans on small matrices through this).
fn powers_wavefront(
    b: Backend,
    a: &BcrsMatrix,
    plan: &PowerPlan,
    x: &MultiVec,
    outs: &mut [MultiVec],
) {
    let m = x.m();
    let k = outs.len();
    let q = plan.n_chunks();
    if q == 0 || k == 0 {
        return;
    }
    for t in 0..q + k - 1 {
        for p in 1..=k {
            let i = t as isize - (p as isize - 1);
            if i < 0 || i >= q as isize {
                continue;
            }
            let rows = plan.chunk(i as usize);
            let win = rows.start * BLOCK_DIM * m..rows.end * BLOCK_DIM * m;
            if p == 1 {
                let y = &mut outs[0].as_mut_slice()[win];
                b.gspmv_rows(a, x.as_slice(), y, m, rows);
            } else {
                let (prev, cur) = outs.split_at_mut(p - 1);
                let y = &mut cur[0].as_mut_slice()[win];
                b.gspmv_rows(a, prev[p - 2].as_slice(), y, m, rows);
            }
        }
    }
}

/// Evaluates the full shifted-Chebyshev sum
/// `y = c_0/2 · z + Σ_{p=1}^{order} c_p · T_p(Ã) z`,
/// `Ã = (A − mid·I)/half`, with `order = coeffs.len() − 1` operator
/// applications fused in level-blocked groups — each group of up to
/// [`SPMPV_MAX_DEPTH`] levels costs about one matrix stream.
pub fn spmpv_chebyshev(
    a: &BcrsMatrix,
    z: &MultiVec,
    mid: f64,
    half: f64,
    coeffs: &[f64],
    y: &mut MultiVec,
) {
    spmpv_chebyshev_impl(active_backend(), a, z, mid, half, coeffs, y);
}

/// [`spmpv_chebyshev`] through an explicitly chosen backend kind
/// (panics when unavailable, like [`spmpv_powers_with`]).
pub fn spmpv_chebyshev_with(
    kind: KernelKind,
    a: &BcrsMatrix,
    z: &MultiVec,
    mid: f64,
    half: f64,
    coeffs: &[f64],
    y: &mut MultiVec,
) {
    spmpv_chebyshev_impl(Backend::forced(kind), a, z, mid, half, coeffs, y);
}

fn spmpv_chebyshev_impl(
    b: Backend,
    a: &BcrsMatrix,
    z: &MultiVec,
    mid: f64,
    half: f64,
    coeffs: &[f64],
    y: &mut MultiVec,
) {
    assert!(!coeffs.is_empty(), "need at least the constant coefficient");
    assert_eq!(a.nb_rows(), a.nb_cols(), "Chebyshev needs a square matrix");
    assert_eq!(z.n(), a.n_cols(), "Z row count must equal matrix columns");
    assert_eq!(z.shape(), y.shape(), "Y must match Z");
    let m = z.m();
    let half_c0 = 0.5 * coeffs[0];
    for (yv, zv) in y.as_mut_slice().iter_mut().zip(z.as_slice()) {
        *yv = half_c0 * zv;
    }
    let order = coeffs.len() - 1;
    if order == 0 {
        return;
    }
    let plan = PowerPlan::new(a);
    let depth = order.min(SPMPV_MAX_DEPTH);
    // One matrix stream per fused group of `depth` levels.
    let passes = order.div_ceil(depth) as u64;
    let _span = instrument_spmpv(a, m, order, passes, &plan, b);
    chebyshev_wavefront(b, a, &plan, z, mid, half, coeffs, y);
}

/// The grouped recurrence over an explicit plan (tests force
/// multi-chunk plans on small matrices through this). `y` must already
/// hold the `c_0/2 · z` term.
#[allow(clippy::too_many_arguments)]
fn chebyshev_wavefront(
    b: Backend,
    a: &BcrsMatrix,
    plan: &PowerPlan,
    z: &MultiVec,
    mid: f64,
    half: f64,
    coeffs: &[f64],
    y: &mut MultiVec,
) {
    let order = coeffs.len() - 1;
    let m = z.m();
    if plan.n_chunks() == 0 || order == 0 {
        return;
    }
    let n = a.n_rows();
    let depth = order.min(SPMPV_MAX_DEPTH);
    let mut levels: Vec<MultiVec> =
        (0..depth).map(|_| MultiVec::zeros(n, m)).collect();
    // `u_{p0}` and `u_{p0 − 1}` carried between groups; meaningless
    // until the first rotation (the first group reads `z` directly).
    let mut prev1 = MultiVec::zeros(n, m);
    let mut prev2 = MultiVec::zeros(n, m);
    let mut p0 = 0usize;
    while p0 < order {
        let d = depth.min(order - p0);
        let entry0 = (p0 > 0).then(|| prev2.as_slice());
        let entry1 = if p0 == 0 { z.as_slice() } else { prev1.as_slice() };
        cheb_pass(
            b,
            a,
            plan,
            m,
            entry0,
            entry1,
            &mut levels[..d],
            &coeffs[p0 + 1..p0 + 1 + d],
            mid,
            half,
            y,
        );
        p0 += d;
        if p0 < order {
            // Carry the group's top two levels into the next group.
            if d >= 2 {
                std::mem::swap(&mut prev2, &mut levels[d - 2]);
            } else {
                std::mem::swap(&mut prev2, &mut prev1);
            }
            std::mem::swap(&mut prev1, &mut levels[d - 1]);
        }
    }
}

/// One fused group: computes levels `p0 + 1 ..= p0 + d` of the shifted
/// recurrence into `levels[..d]` along the anti-diagonal wavefront,
/// accumulating `y += c_p · u_p` chunk by chunk as each level lands
/// (per element the accumulation stays in ascending-`p` order, so the
/// result is independent of the chunking).
#[allow(clippy::too_many_arguments)]
fn cheb_pass(
    b: Backend,
    a: &BcrsMatrix,
    plan: &PowerPlan,
    m: usize,
    entry0: Option<&[f64]>,
    entry1: &[f64],
    levels: &mut [MultiVec],
    coeffs: &[f64],
    mid: f64,
    half: f64,
    y: &mut MultiVec,
) {
    let d = levels.len();
    let q = plan.n_chunks();
    for t in 0..q + d - 1 {
        for j in 1..=d {
            let i = t as isize - (j as isize - 1);
            if i < 0 || i >= q as isize {
                continue;
            }
            let rows = plan.chunk(i as usize);
            let win = rows.start * BLOCK_DIM * m..rows.end * BLOCK_DIM * m;
            let (done, rest) = levels.split_at_mut(j - 1);
            let cur = if j == 1 { entry1 } else { done[j - 2].as_slice() };
            let prev = match j {
                1 => entry0,
                2 => Some(entry1),
                _ => Some(done[j - 3].as_slice()),
            };
            b.cheb_shifted_rows(
                a,
                cur,
                prev,
                &mut rest[0].as_mut_slice()[win.clone()],
                mid,
                half,
                m,
                rows,
            );
            let c = coeffs[j - 1];
            let u = &rest[0].as_slice()[win.clone()];
            for (yv, uv) in y.as_mut_slice()[win].iter_mut().zip(u) {
                *yv += c * *uv;
            }
        }
    }
}

/// Counts one SpMPV call: `depth` fused multiplies' worth of flops and
/// vector traffic, but the matrix stream charged once per wavefront
/// pass (the minimum-traffic accounting of `instrument.rs`; the
/// degenerate single-chunk schedule charges one stream per multiply).
/// Also bumps the per-depth counter `spmpv/depth{depth}/calls`.
fn instrument_spmpv(
    a: &BcrsMatrix,
    m: usize,
    depth: usize,
    passes: u64,
    plan: &PowerPlan,
    b: Backend,
) -> crate::instrument::KernelGuard {
    let nb = a.nb_rows() as u64;
    let nnzb = a.nnz_blocks() as u64;
    let stream = 4 * nb + 76 * nnzb;
    let streams = if plan.fused() { passes } else { depth as u64 };
    instrument::record_kernel_call(
        SPMPV_KERNEL,
        m,
        nb * depth as u64,
        nnzb * depth as u64,
        streams * stream,
    );
    instrument::record_backend(b.name());
    if mrhs_telemetry::enabled() {
        mrhs_telemetry::counter_add(&format!("spmpv/depth{depth}/calls"), 1);
        mrhs_telemetry::counter_add(
            "spmpv/fused_multiplies",
            if plan.fused() { depth as u64 } else { 0 },
        );
    }
    instrument::kernel_span(SPMPV_KERNEL, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::backend_available;
    use crate::block::Block3;
    use crate::gspmv::{gspmv_on, Schedule};
    use crate::triplet::BlockTripletBuilder;

    fn banded(nb: usize, band: usize, seed: u64) -> BcrsMatrix {
        let mut state = seed | 1;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut t = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(4.0 + band as f64));
            for d in 1..=band {
                if bi + d < nb {
                    let mut blk = Block3::ZERO;
                    for v in blk.0.iter_mut() {
                        *v = rng() * 0.4;
                    }
                    t.add_symmetric_pair(bi, bi + d, blk);
                }
            }
        }
        t.build()
    }

    fn pseudo(n: usize, m: usize, seed: u64) -> MultiVec {
        let mut state = seed | 1;
        let mut v = MultiVec::zeros(n, m);
        for x in v.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *x = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        v
    }

    #[test]
    fn plan_chunks_cover_rows_and_respect_bandwidth() {
        let a = banded(40, 3, 9);
        let plan = PowerPlan::with_chunk_rows(&a, 2);
        assert_eq!(plan.bandwidth(), 3);
        assert!(plan.fused());
        let mut next = 0;
        for i in 0..plan.n_chunks() {
            let c = plan.chunk(i);
            assert_eq!(c.start, next);
            assert!(c.end - c.start >= plan.bandwidth() || c.end == 40);
            next = c.end;
        }
        assert_eq!(next, 40);
    }

    #[test]
    fn powers_bitwise_match_repeated_gspmv_per_kind() {
        let a = banded(37, 4, 1234);
        let n = a.n_rows();
        for kind in KernelKind::ALL {
            if !backend_available(kind) {
                continue;
            }
            for &m in &[1usize, 3, 8] {
                let x = pseudo(n, m, 77);
                for k in 1..=4usize {
                    let mut outs: Vec<MultiVec> =
                        (0..k).map(|_| MultiVec::zeros(n, m)).collect();
                    // Force a genuinely multi-chunk wavefront.
                    let plan = PowerPlan::with_chunk_rows(&a, 5);
                    assert!(plan.fused());
                    powers_wavefront(
                        Backend::forced(kind),
                        &a,
                        &plan,
                        &x,
                        &mut outs,
                    );
                    let mut want = x.clone();
                    for out in &outs {
                        let mut next = MultiVec::zeros(n, m);
                        gspmv_on(
                            Backend::forced(kind),
                            &a,
                            &want,
                            &mut next,
                            Schedule::Serial,
                        );
                        assert_eq!(
                            next.as_slice(),
                            out.as_slice(),
                            "kind={kind:?} m={m} k={k}"
                        );
                        want = next;
                    }
                }
            }
        }
    }

    #[test]
    fn single_chunk_plan_degenerates_to_sequential_sweeps() {
        let a = banded(6, 2, 5);
        let plan = PowerPlan::with_chunk_rows(&a, 100);
        assert!(!plan.fused());
        let x = pseudo(a.n_rows(), 2, 3);
        let mut outs =
            vec![MultiVec::zeros(a.n_rows(), 2), MultiVec::zeros(a.n_rows(), 2)];
        spmpv_powers(&a, &x, &mut outs);
        // The active backend may be SIMD; compare against the active
        // kind's own sweeps for bitwise identity.
        let mut a1 = MultiVec::zeros(a.n_rows(), 2);
        crate::gspmv::gspmv_serial(&a, &x, &mut a1);
        assert_eq!(outs[0].as_slice(), a1.as_slice());
        let mut a2 = MultiVec::zeros(a.n_rows(), 2);
        crate::gspmv::gspmv_serial(&a, &a1, &mut a2);
        assert_eq!(outs[1].as_slice(), a2.as_slice());
    }

    #[test]
    fn chebyshev_fusion_matches_reference_recurrence() {
        let a = banded(30, 2, 88);
        let n = a.n_rows();
        let (mid, half) = (5.0, 2.0);
        for &m in &[1usize, 4] {
            for order in [1usize, 2, 3, 4, 5, 9] {
                let coeffs: Vec<f64> =
                    (0..=order).map(|p| 1.0 / (1.0 + p as f64)).collect();
                let z = pseudo(n, m, 17);
                let mut y = MultiVec::zeros(n, m);
                spmpv_chebyshev(&a, &z, mid, half, &coeffs, &mut y);

                // Reference: plain sequential shifted recurrence.
                let inv = 1.0 / half;
                let apply_shift = |x: &MultiVec| {
                    let mut t = MultiVec::zeros(n, m);
                    crate::gspmv::gspmv_serial(&a, x, &mut t);
                    for (tv, xv) in t.as_mut_slice().iter_mut().zip(x.as_slice()) {
                        *tv = (*tv - mid * xv) * inv;
                    }
                    t
                };
                let mut want = MultiVec::zeros(n, m);
                for (wv, zv) in want.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    *wv = 0.5 * coeffs[0] * zv;
                }
                let mut u_prev = z.clone();
                let mut u_cur = apply_shift(&z);
                for p in 1..=order {
                    for (wv, uv) in
                        want.as_mut_slice().iter_mut().zip(u_cur.as_slice())
                    {
                        *wv += coeffs[p] * uv;
                    }
                    if p == order {
                        break;
                    }
                    let mut u_next = apply_shift(&u_cur);
                    for (nv, pv) in
                        u_next.as_mut_slice().iter_mut().zip(u_prev.as_slice())
                    {
                        *nv = 2.0 * *nv - pv;
                    }
                    u_prev = u_cur;
                    u_cur = u_next;
                }
                for (g, w) in y.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        (g - w).abs() <= 1e-11 * w.abs().max(1.0),
                        "m={m} order={order}: {g} vs {w}"
                    );
                }

                // Forced multi-chunk plan: same sum, chunking-blind.
                let plan = PowerPlan::with_chunk_rows(&a, 4);
                assert!(plan.fused());
                let mut yc = MultiVec::zeros(n, m);
                for (yv, zv) in yc.as_mut_slice().iter_mut().zip(z.as_slice()) {
                    *yv = 0.5 * coeffs[0] * zv;
                }
                chebyshev_wavefront(
                    active_backend(),
                    &a,
                    &plan,
                    &z,
                    mid,
                    half,
                    &coeffs,
                    &mut yc,
                );
                for (g, w) in yc.as_slice().iter().zip(want.as_slice()) {
                    assert!(
                        (g - w).abs() <= 1e-11 * w.abs().max(1.0),
                        "chunked m={m} order={order}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_and_tiny_matrices_are_handled() {
        let a = BlockTripletBuilder::square(1).build();
        let x = MultiVec::zeros(3, 2);
        let mut outs = vec![MultiVec::zeros(3, 2); 3];
        spmpv_powers(&a, &x, &mut outs);
        for out in &outs {
            assert_eq!(out.max_abs(), 0.0);
        }
        let mut y = MultiVec::zeros(3, 2);
        spmpv_chebyshev(&a, &x, 1.0, 1.0, &[0.5, 0.25], &mut y);
        assert_eq!(y.max_abs(), 0.0);
    }
}
