//! Symmetric half storage — a compact container, beyond the paper.
//!
//! The paper's kernels "do not exploit any symmetry in the matrices"
//! (§IV). [`SymmetricBcrs`] keeps the diagonal plus the strictly-upper
//! blocks, and its product applies each stored off-diagonal block twice
//! (`y_i += B·x_j` and `y_j += Bᵀ·x_i`).
//!
//! Nothing selects it for a solve, and the GSPMV driver does not take
//! it. Per stored off-diagonal block the format saves 76 B of matrix and
//! one 3×m read of `X`, and adds a read-modify-write of a 3×m row of `Y`
//! (48·m B): break-even at m ≈ 2–3 on traffic alone, on matrices that
//! sit in L2/L3 anyway. Measured, it lost to full storage at every
//! registered width (1.3–1.5× at m = 4…16), and its scattered writes
//! admit no row-disjoint decomposition, so the only parallel schedule
//! it ever had (private slabs plus a reduction) ran 18–29× slower —
//! EXPERIMENTS "Symmetric storage cut (PR 21)". The solve service and
//! the Alg. 1/2 drivers therefore run on [`BcrsMatrix`];
//! [`SymmetricBcrs::to_full`] is the way back.
//!
//! **Determinism.** [`SymmetricBcrs::multiply`] is one serial pass of
//! one portable kernel family: its bits depend on neither the kernel
//! backend nor the pool width.

use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use crate::triplet::BlockTripletBuilder;
use crate::BLOCK_DIM;

/// A symmetric block matrix storing the diagonal plus the strictly
/// upper triangle in block-CSR layout.
#[derive(Clone, Debug)]
pub struct SymmetricBcrs {
    nb: usize,
    /// Diagonal blocks, one per block row.
    diag: Vec<Block3>,
    /// CSR structure of the strictly-upper blocks.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    blocks: Vec<Block3>,
}

impl SymmetricBcrs {
    /// Builds from a full symmetric matrix, verifying symmetry within
    /// `tol`. Returns `None` if `a` is not symmetric.
    pub fn from_full(a: &BcrsMatrix, tol: f64) -> Option<Self> {
        if a.nb_rows() != a.nb_cols() || !a.is_symmetric_within(tol) {
            return None;
        }
        let nb = a.nb_rows();
        let mut diag = vec![Block3::ZERO; nb];
        let mut row_ptr = vec![0usize; nb + 1];
        let mut col_idx = Vec::new();
        let mut blocks = Vec::new();
        for bi in 0..nb {
            let (cols, blks) = a.block_row(bi);
            for (c, b) in cols.iter().zip(blks) {
                let bj = *c as usize;
                if bj == bi {
                    diag[bi] = *b;
                } else if bj > bi {
                    col_idx.push(*c);
                    blocks.push(*b);
                }
            }
            row_ptr[bi + 1] = blocks.len();
        }
        Some(SymmetricBcrs { nb, diag, row_ptr, col_idx, blocks })
    }

    /// Expands to full storage: every diagonal block, and every stored
    /// upper block with its transpose below the diagonal. The bit-exact
    /// inverse of [`SymmetricBcrs::from_full`] on an exactly symmetric
    /// matrix (a row that stored no diagonal block comes back with an
    /// explicit zero one).
    pub fn to_full(&self) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(self.nb);
        t.reserve(self.nb + 2 * self.blocks.len());
        for bi in 0..self.nb {
            t.add(bi, bi, self.diag[bi]);
            for k in self.row_ptr[bi]..self.row_ptr[bi + 1] {
                t.add_symmetric_pair(bi, self.col_idx[k] as usize, self.blocks[k]);
            }
        }
        t.build()
    }

    /// Block rows.
    pub fn nb_rows(&self) -> usize {
        self.nb
    }

    /// Scalar dimension `3·nb` (the matrix is square).
    pub fn n_rows(&self) -> usize {
        self.nb * BLOCK_DIM
    }

    /// Stored blocks (diagonal + upper triangle).
    pub fn stored_blocks(&self) -> usize {
        self.nb + self.blocks.len()
    }

    /// Bytes streamed per multiply — roughly half the full-storage
    /// figure for matrices with many off-diagonal blocks (72 B per
    /// stored block, 4 B per upper column index, 4 B per row pointer).
    pub fn stream_bytes(&self) -> usize {
        self.stored_blocks() * 72 + self.blocks.len() * 4 + 4 * self.nb
    }

    /// Diagonal blocks, one per block row (read-only view for reference
    /// implementations).
    pub fn diag_blocks(&self) -> &[Block3] {
        &self.diag
    }

    /// CSR structure of the strictly-upper blocks:
    /// `(row_ptr, col_idx, blocks)`.
    pub fn upper_parts(&self) -> (&[usize], &[u32], &[Block3]) {
        (&self.row_ptr, &self.col_idx, &self.blocks)
    }

    /// `y = A·x` on row-major `n × m` slices, on the calling thread,
    /// through the portable two-pass kernel: each stored off-diagonal
    /// block is applied forward, then transposed into the row below.
    /// Uninstrumented.
    pub fn multiply(&self, x: &[f64], y: &mut [f64], m: usize) {
        let n = self.n_rows();
        assert_eq!(x.len(), n * m, "x must hold n_cols × m values");
        assert_eq!(y.len(), n * m, "y must hold n_rows × m values");
        match m {
            1 => sym_rows_fixed::<1>(self, x, y),
            2 => sym_rows_fixed::<2>(self, x, y),
            4 => sym_rows_fixed::<4>(self, x, y),
            8 => sym_rows_fixed::<8>(self, x, y),
            12 => sym_rows_fixed::<12>(self, x, y),
            16 => sym_rows_fixed::<16>(self, x, y),
            24 => sym_rows_fixed::<24>(self, x, y),
            32 => sym_rows_fixed::<32>(self, x, y),
            42 => sym_rows_fixed::<42>(self, x, y),
            48 => sym_rows_fixed::<48>(self, x, y),
            _ => sym_rows_generic(self, x, y, m),
        }
    }
}

/// The monomorphized symmetric product `y = A·x` on row-major
/// `n × M` slices.
fn sym_rows_fixed<const M: usize>(s: &SymmetricBcrs, x: &[f64], y: &mut [f64]) {
    // Pass 1 — overwrite each row with its diagonal + forward terms.
    // Must complete before any transpose term lands (transpose targets
    // are strictly below their source row).
    for bi in 0..s.nb {
        let xi = &x[bi * BLOCK_DIM * M..(bi + 1) * BLOCK_DIM * M];
        let mut acc = [[0.0f64; M]; BLOCK_DIM];
        block_madd_fixed::<M>(&s.diag[bi], xi, &mut acc, false);
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            let xj = &x[bj * BLOCK_DIM * M..(bj + 1) * BLOCK_DIM * M];
            block_madd_fixed::<M>(&s.blocks[k], xj, &mut acc, false);
        }
        let yo = bi * BLOCK_DIM * M;
        for i in 0..BLOCK_DIM {
            y[yo + i * M..yo + (i + 1) * M].copy_from_slice(&acc[i]);
        }
    }
    // Pass 2 — scatter the transpose terms.
    for bi in 0..s.nb {
        let xi = &x[bi * BLOCK_DIM * M..(bi + 1) * BLOCK_DIM * M];
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let yo = s.col_idx[k] as usize * BLOCK_DIM * M;
            let target = &mut y[yo..yo + BLOCK_DIM * M];
            let mut acc = [[0.0f64; M]; BLOCK_DIM];
            block_madd_fixed::<M>(&s.blocks[k], xi, &mut acc, true);
            for i in 0..BLOCK_DIM {
                let t = &mut target[i * M..(i + 1) * M];
                for (tv, av) in t.iter_mut().zip(&acc[i]) {
                    *tv += av;
                }
            }
        }
    }
}

/// `acc (3×M) += B·x_slab` (or `Bᵀ·x_slab` when `transpose`) with
/// compile-time trip counts — the symmetric-storage version of the
/// paper's basic kernel.
#[inline]
fn block_madd_fixed<const M: usize>(
    b: &Block3,
    x: &[f64],
    acc: &mut [[f64; M]; BLOCK_DIM],
    transpose: bool,
) {
    let x0: &[f64; M] = x[..M].try_into().unwrap();
    let x1: &[f64; M] = x[M..2 * M].try_into().unwrap();
    let x2: &[f64; M] = x[2 * M..3 * M].try_into().unwrap();
    for i in 0..BLOCK_DIM {
        let (a0, a1, a2) = if transpose {
            (b.get(0, i), b.get(1, i), b.get(2, i))
        } else {
            (b.get(i, 0), b.get(i, 1), b.get(i, 2))
        };
        let acc_i = &mut acc[i];
        for j in 0..M {
            acc_i[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j];
        }
    }
}

/// Any-`m` fallback with the same two-pass structure as
/// [`sym_rows_fixed`], for widths off [`crate::WIDTH_GRID`].
fn sym_rows_generic(s: &SymmetricBcrs, x: &[f64], y: &mut [f64], m: usize) {
    let row = BLOCK_DIM * m;
    for bi in 0..s.nb {
        let yr = &mut y[bi * row..(bi + 1) * row];
        block_mul_slab(&s.diag[bi], &x[bi * row..(bi + 1) * row], yr, m);
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            accumulate_block(
                &s.blocks[k],
                &x[bj * row..(bj + 1) * row],
                yr,
                m,
                false,
            );
        }
    }
    for bi in 0..s.nb {
        let xi = &x[bi * row..(bi + 1) * row];
        for k in s.row_ptr[bi]..s.row_ptr[bi + 1] {
            let bj = s.col_idx[k] as usize;
            accumulate_block(
                &s.blocks[k],
                xi,
                &mut y[bj * row..(bj + 1) * row],
                m,
                true,
            );
        }
    }
}

/// `y_slab (3×m) = B·x_slab`.
fn block_mul_slab(b: &Block3, x: &[f64], y: &mut [f64], m: usize) {
    for i in 0..BLOCK_DIM {
        for j in 0..m {
            let mut acc = 0.0;
            for c in 0..BLOCK_DIM {
                acc += b.get(i, c) * x[c * m + j];
            }
            y[i * m + j] = acc;
        }
    }
}

/// `y_slab += B·x_slab` (or `Bᵀ·x_slab` when `transpose`).
fn accumulate_block(
    b: &Block3,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    transpose: bool,
) {
    for i in 0..BLOCK_DIM {
        for c in 0..BLOCK_DIM {
            let a = if transpose { b.get(c, i) } else { b.get(i, c) };
            if a != 0.0 {
                let xr = &x[c * m..c * m + m];
                let yr = &mut y[i * m..i * m + m];
                for (yv, xv) in yr.iter_mut().zip(xr) {
                    *yv += a * xv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gspmv::{gspmv_serial, spmv};
    use crate::multivec::MultiVec;
    use crate::triplet::BlockTripletBuilder;

    fn random_symmetric(nb: usize, seed: u64) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for i in 0..nb {
            let mut d = Block3::ZERO;
            for v in d.0.iter_mut() {
                *v = next();
            }
            t.add(i, i, (d + d.transpose()) * 0.5 + Block3::scaled_identity(4.0));
            for off in 1..4 {
                if i + off < nb && next() > 0.0 {
                    let mut b = Block3::ZERO;
                    for v in b.0.iter_mut() {
                        *v = next();
                    }
                    t.add_symmetric_pair(i, i + off, b);
                }
            }
        }
        t.build()
    }

    fn pseudo_multivec(n: usize, m: usize, seed: u64) -> MultiVec {
        MultiVec::from_flat(
            n,
            m,
            (0..n * m)
                .map(|v| (((v as u64).wrapping_mul(seed | 1) % 23) as f64) - 11.0)
                .collect(),
        )
    }

    fn assert_matches_full(
        a: &BcrsMatrix,
        got: &MultiVec,
        x: &MultiVec,
        ctx: &str,
    ) {
        let mut want = MultiVec::zeros(x.n(), x.m());
        gspmv_serial(a, x, &mut want);
        for (u, v) in want.as_slice().iter().zip(got.as_slice()) {
            assert!(
                (u - v).abs() <= 1e-12 * u.abs().max(v.abs()).max(1.0),
                "{ctx}: {u} vs {v}"
            );
        }
    }

    #[test]
    fn rejects_asymmetric_matrix() {
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::IDENTITY);
        t.add(1, 1, Block3::IDENTITY);
        t.add(0, 1, Block3::scaled_identity(2.0)); // no transpose partner
        let a = t.build();
        assert!(SymmetricBcrs::from_full(&a, 1e-12).is_none());
    }

    #[test]
    fn stores_about_half_the_blocks() {
        let a = random_symmetric(40, 3);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let full = a.nnz_blocks();
        let half = s.stored_blocks();
        // exactly the diagonal plus half of the off-diagonal blocks
        assert_eq!(half, (full + a.nb_rows()) / 2, "{half} vs {full}");
        assert!(s.stream_bytes() < a.stream_bytes());
        assert_eq!(s.to_full(), a);
    }

    #[test]
    fn spmv_matches_full_storage() {
        let a = random_symmetric(30, 7);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        spmv(&a, &x, &mut y1);
        s.multiply(&x, &mut y2, 1);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() <= 1e-10 * u.abs().max(1.0), "{u} vs {v}");
        }
    }

    #[test]
    fn serial_gspmv_matches_full_storage_all_specialized_m() {
        let a = random_symmetric(25, 11);
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for m in crate::WIDTH_GRID {
            let x = pseudo_multivec(n, m, 7);
            let mut y = MultiVec::zeros(n, m);
            s.multiply(x.as_slice(), y.as_mut_slice(), m);
            assert_matches_full(&a, &y, &x, &format!("serial m={m}"));
        }
        // And a non-specialized size through the generic fallback.
        let x = pseudo_multivec(n, 7, 13);
        let mut y = MultiVec::zeros(n, 7);
        s.multiply(x.as_slice(), y.as_mut_slice(), 7);
        assert_matches_full(&a, &y, &x, "serial m=7 (generic)");
    }

    #[test]
    fn handles_empty_and_dense_rows() {
        // Row 0 dense (couples to every other row), rows 2 and 5 empty
        // apart from the (implicit, zero) diagonal.
        let nb = 9;
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            if i != 2 && i != 5 {
                t.add(i, i, Block3::scaled_identity(3.0));
            }
        }
        for j in 1..nb {
            if j != 2 && j != 5 {
                t.add_symmetric_pair(0, j, Block3::scaled_identity(0.5 + j as f64));
            }
        }
        let a = t.build();
        let s = SymmetricBcrs::from_full(&a, 1e-12).unwrap();
        let n = a.n_rows();
        for m in [1usize, 4, 8] {
            let x = pseudo_multivec(n, m, 11);
            let mut y = MultiVec::zeros(n, m);
            s.multiply(x.as_slice(), y.as_mut_slice(), m);
            assert_matches_full(&a, &y, &x, &format!("dense/empty m={m}"));
        }
    }

    #[test]
    fn diagonal_matrix_round_trip() {
        let a = BcrsMatrix::scaled_identity(6, 3.0);
        let s = SymmetricBcrs::from_full(&a, 0.0).unwrap();
        assert_eq!(s.stored_blocks(), 6);
        let x = vec![2.0; 18];
        let mut y = vec![0.0; 18];
        s.multiply(&x, &mut y, 1);
        assert!(y.iter().all(|&v| (v - 6.0).abs() < 1e-14));
        assert_eq!(s.to_full(), a);
    }
}
