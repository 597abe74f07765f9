//! Block-value deduplication: BCRS with a unique-block pool.
//!
//! Dynamical-simulation matrices frequently repeat block values — near
//! lattices produce translation-invariant couplings, far-field
//! truncation produces many identical (often zero-padded or scaled
//! identity) blocks, and symmetric pair insertion duplicates every
//! diagonal-symmetric block. [`DedupBcrs`] stores each *distinct* 3×3
//! block once in a pool and keeps a `u32` pool index per entry, so a
//! repeated-structure matrix streams 8 B of indices per block instead
//! of 72 B of values; Eq. 8's matrix term shrinks by the dedup ratio
//! and GSPMV's bandwidth bound moves accordingly (`mrhs-perfmodel`
//! accounts for this in `dedup_memory_traffic_exact`).
//!
//! **Bit-exactness.** Blocks are keyed on the raw bit patterns of their
//! nine entries (`f64::to_bits`), never on numeric equality: `0.0` and
//! `-0.0` stay distinct, NaNs compare by payload, and expanding the
//! pool back out ([`DedupBcrs::to_bcrs`]) reproduces the original
//! blocks bit-for-bit. Under the GSPMV driver ([`crate::gspmv_on`])
//! dedup storage runs the *same* row kernels and the same chunk runner
//! as full storage (via the pool-indirect `BlockGet` fetch), in the
//! same order — the dedup result is bitwise identical to the
//! full-storage result under every backend, which the oracle harness
//! pins by putting both in one bitwise group.
//!
//! **Opportunistic construction.** Deduplication only pays when blocks
//! actually repeat; [`DedupBcrs::try_from_bcrs`] builds the pool and
//! keeps it only when `unique/total` clears a threshold
//! ([`DEDUP_DEFAULT_MAX_RATIO`]), otherwise callers stay on plain
//! [`BcrsMatrix`]. The indirection costs one extra indexed load per
//! block; at ratios near 1 that is pure overhead, at small ratios the
//! pool lives in cache and the value stream disappears.

use crate::backend::Backend;
use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::gspmv::{
    check_lens, row_auto_chunks, run_row_chunks, BlockGet, GspmvStorage,
};
use crate::BLOCK_DIM;
use std::collections::HashMap;

/// Keep the dedup form only when `unique_blocks / nnz_blocks` is at or
/// below this. At 0.5 the value stream is at least halved, which
/// comfortably covers the extra 4 B/block index stream (8 B vs 4 B of
/// indices against ≥36 B/block of values saved) plus the indirect-load
/// overhead.
pub const DEDUP_DEFAULT_MAX_RATIO: f64 = 0.5;

/// BCRS structure with deduplicated block values: per-entry `u32`
/// indices into a pool of unique [`Block3`]s.
#[derive(Clone, Debug)]
pub struct DedupBcrs {
    nb_rows: usize,
    nb_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    pool_idx: Vec<u32>,
    pool: Vec<Block3>,
}

/// The pool-indirect block fetch: entry `k`'s block is
/// `pool[pool_idx[k]]`. Implements [`BlockGet`] so the full-storage row
/// kernels (scalar, generic, and SIMD) run unchanged over dedup
/// storage.
#[derive(Clone, Copy)]
pub(crate) struct PoolBlocks<'a> {
    pool: &'a [Block3],
    idx: &'a [u32],
}

impl BlockGet for PoolBlocks<'_> {
    #[inline(always)]
    fn block(&self, k: usize) -> &Block3 {
        &self.pool[self.idx[k] as usize]
    }
}

impl DedupBcrs {
    /// Builds the dedup form unconditionally. Pool order is
    /// first-appearance order (deterministic for a given matrix).
    pub fn from_bcrs(a: &BcrsMatrix) -> DedupBcrs {
        let blocks = a.blocks();
        let mut pool: Vec<Block3> = Vec::new();
        let mut pool_idx: Vec<u32> = Vec::with_capacity(blocks.len());
        let mut seen: HashMap<[u64; 9], u32> = HashMap::new();
        for b in blocks {
            let mut key = [0u64; 9];
            for (k, v) in key.iter_mut().zip(&b.0) {
                *k = v.to_bits();
            }
            let next = pool.len() as u32;
            let id = *seen.entry(key).or_insert_with(|| {
                pool.push(*b);
                next
            });
            pool_idx.push(id);
        }
        DedupBcrs {
            nb_rows: a.nb_rows(),
            nb_cols: a.nb_cols(),
            row_ptr: a.row_ptr().to_vec(),
            col_idx: a.col_idx().to_vec(),
            pool_idx,
            pool,
        }
    }

    /// Builds the dedup form only when it pays: returns `None` when the
    /// dedup ratio exceeds `max_ratio` (use
    /// [`DEDUP_DEFAULT_MAX_RATIO`] unless you have a reason not to).
    pub fn try_from_bcrs(a: &BcrsMatrix, max_ratio: f64) -> Option<DedupBcrs> {
        let d = DedupBcrs::from_bcrs(a);
        (d.dedup_ratio() <= max_ratio).then_some(d)
    }

    /// Expands back to full storage; blocks are bit-identical to the
    /// matrix this was built from.
    pub fn to_bcrs(&self) -> BcrsMatrix {
        let blocks: Vec<Block3> =
            self.pool_idx.iter().map(|&i| self.pool[i as usize]).collect();
        BcrsMatrix::from_parts(
            self.nb_rows,
            self.nb_cols,
            self.row_ptr.clone(),
            self.col_idx.clone(),
            blocks,
        )
    }

    /// `unique_blocks / nnz_blocks` — 1.0 means nothing repeats (and
    /// also covers the empty matrix).
    pub fn dedup_ratio(&self) -> f64 {
        if self.pool_idx.is_empty() {
            1.0
        } else {
            self.pool.len() as f64 / self.pool_idx.len() as f64
        }
    }

    /// Block rows.
    pub fn nb_rows(&self) -> usize {
        self.nb_rows
    }

    /// Block columns.
    pub fn nb_cols(&self) -> usize {
        self.nb_cols
    }

    /// Scalar rows.
    pub fn n_rows(&self) -> usize {
        self.nb_rows * BLOCK_DIM
    }

    /// Scalar columns.
    pub fn n_cols(&self) -> usize {
        self.nb_cols * BLOCK_DIM
    }

    /// Stored (structural) blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.pool_idx.len()
    }

    /// Unique blocks in the pool.
    pub fn unique_blocks(&self) -> usize {
        self.pool.len()
    }

    /// Bytes streamed per multiply: 4 B row pointer per block row, 8 B
    /// of indices per entry (column + pool), 72 B per *unique* block —
    /// the dedup counterpart of [`BcrsMatrix::stream_bytes`].
    pub fn stream_bytes(&self) -> usize {
        4 * self.nb_rows + 8 * self.pool_idx.len() + 72 * self.pool.len()
    }

    /// CSR row pointers.
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Block-column indices.
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The unique-block pool.
    pub fn pool(&self) -> &[Block3] {
        &self.pool
    }

    /// Per-entry pool indices.
    pub fn pool_indices(&self) -> &[u32] {
        &self.pool_idx
    }
}

/// Dedup storage under the GSPMV driver: the full-storage chunk rule
/// and chunk runner with the pool-indirect block fetch, counted under
/// `gspmv_dedup/m{m}/…` with the reduced matrix stream. Bitwise
/// identical to the expanded matrix under every backend and schedule.
impl GspmvStorage for DedupBcrs {
    const KERNEL: &'static str = "gspmv_dedup";

    fn n_rows(&self) -> usize {
        DedupBcrs::n_rows(self)
    }
    fn n_cols(&self) -> usize {
        DedupBcrs::n_cols(self)
    }
    fn applied_blocks(&self) -> usize {
        self.nnz_blocks()
    }
    fn stream_bytes(&self) -> usize {
        DedupBcrs::stream_bytes(self)
    }
    fn auto_chunks(&self) -> usize {
        row_auto_chunks(self.nnz_blocks())
    }
    fn run_chunks(
        &self,
        backend: Backend,
        x: &[f64],
        y: &mut [f64],
        m: usize,
        nchunks: usize,
        inline: bool,
    ) {
        check_lens(self, x, y, m);
        let blocks = PoolBlocks { pool: &self.pool, idx: &self.pool_idx };
        let csr = (&self.row_ptr[..], &self.col_idx[..], blocks);
        run_row_chunks(backend, csr, x, y, m, nchunks, inline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{active_backend, backend_available, KernelKind};
    use crate::gspmv::{gspmv, gspmv_on, gspmv_serial, spmv, Schedule};
    use crate::multivec::MultiVec;
    use crate::triplet::BlockTripletBuilder;

    /// A lattice-like matrix reusing a tiny set of coupling blocks.
    fn repeated_matrix(nb: usize) -> BcrsMatrix {
        let coupling = Block3::from_rows([
            [-1.0, 0.25, 0.0],
            [0.5, -1.0, 0.25],
            [0.0, 0.5, -1.0],
        ]);
        let mut t = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(4.0));
            if bi + 1 < nb {
                t.add_symmetric_pair(bi, bi + 1, coupling);
            }
        }
        t.build()
    }

    fn unique_matrix(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(1.0 + bi as f64));
        }
        t.build()
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let a = repeated_matrix(20);
        let d = DedupBcrs::from_bcrs(&a);
        let back = d.to_bcrs();
        assert_eq!(back.row_ptr(), a.row_ptr());
        assert_eq!(back.col_idx(), a.col_idx());
        assert_eq!(back.blocks().len(), a.blocks().len());
        for (u, v) in a.blocks().iter().zip(back.blocks()) {
            for (x, y) in u.0.iter().zip(&v.0) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn signed_zero_blocks_stay_distinct() {
        let mut plus = Block3::ZERO;
        let mut minus = Block3::ZERO;
        plus.0[4] = 0.0;
        minus.0[4] = -0.0;
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, plus);
        t.add(1, 1, minus);
        let d = DedupBcrs::from_bcrs(&t.build());
        assert_eq!(d.unique_blocks(), 2, "-0.0 must not alias 0.0");
    }

    #[test]
    fn dedup_ratio_and_threshold() {
        // Chain: diagonal is one repeated block, couplings are one
        // repeated block + its transpose → 3 unique among ~3·nb.
        let a = repeated_matrix(40);
        let d = DedupBcrs::from_bcrs(&a);
        assert_eq!(d.unique_blocks(), 3);
        assert!(d.dedup_ratio() < 0.05);
        assert!(DedupBcrs::try_from_bcrs(&a, DEDUP_DEFAULT_MAX_RATIO).is_some());

        let u = unique_matrix(40);
        let du = DedupBcrs::from_bcrs(&u);
        assert_eq!(du.unique_blocks(), du.nnz_blocks());
        assert_eq!(du.dedup_ratio(), 1.0);
        assert!(DedupBcrs::try_from_bcrs(&u, DEDUP_DEFAULT_MAX_RATIO).is_none());
    }

    #[test]
    fn stream_bytes_shrink_with_sharing() {
        let a = repeated_matrix(50);
        let d = DedupBcrs::from_bcrs(&a);
        assert!(d.stream_bytes() < a.stream_bytes() / 4);
        // And never lie: recomputable from the counts.
        assert_eq!(
            d.stream_bytes(),
            4 * d.nb_rows() + 8 * d.nnz_blocks() + 72 * d.unique_blocks()
        );
    }

    #[test]
    fn gspmv_bitwise_matches_full_storage() {
        let a = repeated_matrix(60);
        let d = DedupBcrs::from_bcrs(&a);
        let n = a.n_rows();
        for m in [1usize, 4, 7, 8, 16] {
            let x = MultiVec::from_flat(
                n,
                m,
                (0..n * m).map(|v| ((v % 13) as f64) - 6.0).collect(),
            );
            let mut y_full = MultiVec::zeros(n, m);
            let mut y_dedup = MultiVec::zeros(n, m);
            gspmv_serial(&a, &x, &mut y_full);
            gspmv_serial(&d, &x, &mut y_dedup);
            assert_eq!(y_full, y_dedup, "m={m}: dedup must be bit-identical");

            for schedule in [Schedule::Chunked(3), Schedule::ChunkedInline(3)] {
                let mut y_chunked = MultiVec::zeros(n, m);
                gspmv_on(active_backend(), &d, &x, &mut y_chunked, schedule);
                assert_eq!(
                    y_dedup, y_chunked,
                    "m={m} {schedule:?}: chunking must not change bits"
                );
            }

            let mut y_auto = MultiVec::zeros(n, m);
            gspmv(&d, &x, &mut y_auto);
            assert_eq!(y_dedup, y_auto, "m={m}: auto must not change bits");
        }
    }

    #[test]
    fn forced_backends_match_their_full_storage_counterparts() {
        let a = repeated_matrix(30);
        let d = DedupBcrs::from_bcrs(&a);
        let n = a.n_rows();
        let m = 8;
        let x = MultiVec::from_flat(
            n,
            m,
            (0..n * m).map(|v| ((v % 11) as f64) - 5.0).collect(),
        );
        for kind in KernelKind::ALL {
            if !backend_available(kind) {
                continue;
            }
            let b = Backend::forced(kind);
            let mut y_full = MultiVec::zeros(n, m);
            let mut y_dedup = MultiVec::zeros(n, m);
            gspmv_on(b, &a, &x, &mut y_full, Schedule::Serial);
            gspmv_on(b, &d, &x, &mut y_dedup, Schedule::Serial);
            assert_eq!(y_full, y_dedup, "kind={:?}", kind);
        }
    }

    #[test]
    fn spmv_matches_gspmv_column() {
        let a = repeated_matrix(25);
        let d = DedupBcrs::from_bcrs(&a);
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7 % 19) as f64) - 9.0).collect();
        let mut y = vec![0.0; n];
        spmv(&d, &x, &mut y);
        let xm = MultiVec::from_flat(n, 1, x);
        let mut ym = MultiVec::zeros(n, 1);
        gspmv_serial(&d, &xm, &mut ym);
        assert_eq!(y, ym.into_flat());
    }
}
