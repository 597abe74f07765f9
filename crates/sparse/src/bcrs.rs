//! Block Compressed Row Storage with 3×3 blocks.
//!
//! This is the format the paper uses for all experiments (§IV-A1): an
//! array of non-zero blocks stored row-wise, a column-index array, and a
//! row-pointer array, exactly like CSR but at block granularity. The
//! Stokesian dynamics matrices studied have a natural 3×3 block structure
//! (translational coupling of particle pairs), which is why the paper
//! skips register blocking — the format already provides it.

use crate::block::Block3;
use crate::stats::MatrixStats;
use crate::BLOCK_DIM;

/// A sparse block matrix with 3×3 blocks in compressed row storage.
#[derive(Clone, Debug, PartialEq)]
pub struct BcrsMatrix {
    nb_rows: usize,
    nb_cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the blocks of block row `i`.
    row_ptr: Vec<usize>,
    /// Block-column index of each stored block.
    col_idx: Vec<u32>,
    /// The stored blocks, row-wise.
    blocks: Vec<Block3>,
}

impl BcrsMatrix {
    /// Assembles a matrix from raw CSR-style parts.
    ///
    /// # Panics
    /// If the arrays are inconsistent (lengths, non-monotone `row_ptr`,
    /// column indices out of range, or unsorted/duplicate columns within
    /// a row).
    pub fn from_parts(
        nb_rows: usize,
        nb_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        blocks: Vec<Block3>,
    ) -> Self {
        assert_eq!(row_ptr.len(), nb_rows + 1, "row_ptr length mismatch");
        assert_eq!(col_idx.len(), blocks.len(), "col_idx/blocks length mismatch");
        assert_eq!(
            *row_ptr.last().unwrap_or(&0),
            col_idx.len(),
            "row_ptr tail mismatch"
        );
        for i in 0..nb_rows {
            assert!(
                row_ptr[i] <= row_ptr[i + 1],
                "row_ptr not monotone at row {i}"
            );
            let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns not strictly increasing in row {i}");
            }
            if let Some(&last) = cols.last() {
                assert!(
                    (last as usize) < nb_cols,
                    "column out of range in row {i}"
                );
            }
        }
        BcrsMatrix { nb_rows, nb_cols, row_ptr, col_idx, blocks }
    }

    /// A square zero matrix with `nb` block rows.
    pub fn zero(nb: usize) -> Self {
        BcrsMatrix {
            nb_rows: nb,
            nb_cols: nb,
            row_ptr: vec![0; nb + 1],
            col_idx: Vec::new(),
            blocks: Vec::new(),
        }
    }

    /// The scaled block identity `s·I` of `nb` block rows.
    pub fn scaled_identity(nb: usize, s: f64) -> Self {
        BcrsMatrix {
            nb_rows: nb,
            nb_cols: nb,
            row_ptr: (0..=nb).collect(),
            col_idx: (0..nb as u32).collect(),
            blocks: vec![Block3::scaled_identity(s); nb],
        }
    }

    /// Number of block rows.
    #[inline]
    pub fn nb_rows(&self) -> usize {
        self.nb_rows
    }

    /// Number of block columns.
    #[inline]
    pub fn nb_cols(&self) -> usize {
        self.nb_cols
    }

    /// Number of scalar rows (`3 × nb_rows`).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.nb_rows * BLOCK_DIM
    }

    /// Number of scalar columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.nb_cols * BLOCK_DIM
    }

    /// Number of stored blocks (`nnzb`).
    #[inline]
    pub fn nnz_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Number of stored scalars (`nnz = 9 · nnzb`).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.blocks.len() * BLOCK_DIM * BLOCK_DIM
    }

    /// Row pointer array (block granularity).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Column index array (block granularity).
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Stored blocks, row-wise.
    #[inline]
    pub fn blocks(&self) -> &[Block3] {
        &self.blocks
    }

    /// Mutable access to the stored blocks (pattern is fixed).
    #[inline]
    pub fn blocks_mut(&mut self) -> &mut [Block3] {
        &mut self.blocks
    }

    /// The columns and blocks of block row `bi`.
    #[inline]
    pub fn block_row(&self, bi: usize) -> (&[u32], &[Block3]) {
        let range = self.row_ptr[bi]..self.row_ptr[bi + 1];
        (&self.col_idx[range.clone()], &self.blocks[range])
    }

    /// Looks up the block at `(bi, bj)`, if stored.
    pub fn block_at(&self, bi: usize, bj: usize) -> Option<&Block3> {
        let (cols, blocks) = self.block_row(bi);
        cols.binary_search(&(bj as u32)).ok().map(|k| &blocks[k])
    }

    /// Summary statistics (Table I quantities).
    pub fn stats(&self) -> MatrixStats {
        MatrixStats {
            n: self.n_rows(),
            nb: self.nb_rows,
            nnz: self.nnz(),
            nnzb: self.nnz_blocks(),
        }
    }

    /// Average number of non-zero blocks per block row (`nnzb/nb`), the
    /// density parameter of the paper's performance model.
    pub fn blocks_per_row(&self) -> f64 {
        if self.nb_rows == 0 {
            0.0
        } else {
            self.nnz_blocks() as f64 / self.nb_rows as f64
        }
    }

    /// The transposed matrix.
    pub fn transpose(&self) -> BcrsMatrix {
        let mut counts = vec![0usize; self.nb_cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.nb_cols {
            counts[i + 1] += counts[i];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz_blocks()];
        let mut blocks = vec![Block3::ZERO; self.nnz_blocks()];
        let mut next = counts;
        for bi in 0..self.nb_rows {
            let (cols, blks) = self.block_row(bi);
            for (c, b) in cols.iter().zip(blks) {
                let dst = next[*c as usize];
                col_idx[dst] = bi as u32;
                blocks[dst] = b.transpose();
                next[*c as usize] += 1;
            }
        }
        BcrsMatrix {
            nb_rows: self.nb_cols,
            nb_cols: self.nb_rows,
            row_ptr,
            col_idx,
            blocks,
        }
    }

    /// Whether the matrix is structurally and numerically symmetric
    /// within absolute tolerance `tol`. A NaN entry or a NaN tolerance
    /// is not symmetric: this check alone chooses CG or BiCGStab in
    /// the solve service.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // `!(d <= tol)` is true for NaN, `d > tol` is not
    pub fn is_symmetric_within(&self, tol: f64) -> bool {
        if self.nb_rows != self.nb_cols {
            return false;
        }
        for bi in 0..self.nb_rows {
            let (cols, blks) = self.block_row(bi);
            for (c, b) in cols.iter().zip(blks) {
                match self.block_at(*c as usize, bi) {
                    None => return false,
                    Some(bt) => {
                        let d = *b - bt.transpose();
                        if d.0.iter().any(|v| !(v.abs() <= tol)) {
                            return false;
                        }
                    }
                }
            }
        }
        true
    }

    /// Extracts the diagonal blocks (zero block where none is stored).
    pub fn diagonal_blocks(&self) -> Vec<Block3> {
        assert_eq!(self.nb_rows, self.nb_cols, "diagonal of non-square matrix");
        (0..self.nb_rows)
            .map(|bi| self.block_at(bi, bi).copied().unwrap_or(Block3::ZERO))
            .collect()
    }

    /// Gershgorin upper bound on the spectrum: `max_i (a_ii + Σ_{j≠i} |a_ij|)`
    /// computed on the scalar matrix.
    pub fn gershgorin_upper_bound(&self) -> f64 {
        let mut bound = f64::NEG_INFINITY;
        for bi in 0..self.nb_rows {
            let (cols, blks) = self.block_row(bi);
            let mut row_sums = [0.0f64; BLOCK_DIM];
            let mut diag = [0.0f64; BLOCK_DIM];
            for (c, b) in cols.iter().zip(blks) {
                let sums = b.row_abs_sums();
                for i in 0..BLOCK_DIM {
                    row_sums[i] += sums[i];
                }
                if *c as usize == bi {
                    for i in 0..BLOCK_DIM {
                        diag[i] = b.get(i, i);
                    }
                }
            }
            for i in 0..BLOCK_DIM {
                // row_sums includes |a_ii|; Gershgorin disc is centered at
                // a_ii with radius (row_sums - |a_ii|).
                let radius = row_sums[i] - diag[i].abs();
                bound = bound.max(diag[i] + radius);
            }
        }
        if bound == f64::NEG_INFINITY {
            0.0
        } else {
            bound
        }
    }

    /// Gershgorin lower bound on the spectrum.
    pub fn gershgorin_lower_bound(&self) -> f64 {
        let mut bound = f64::INFINITY;
        for bi in 0..self.nb_rows {
            let (cols, blks) = self.block_row(bi);
            let mut row_sums = [0.0f64; BLOCK_DIM];
            let mut diag = [0.0f64; BLOCK_DIM];
            for (c, b) in cols.iter().zip(blks) {
                let sums = b.row_abs_sums();
                for i in 0..BLOCK_DIM {
                    row_sums[i] += sums[i];
                }
                if *c as usize == bi {
                    for i in 0..BLOCK_DIM {
                        diag[i] = b.get(i, i);
                    }
                }
            }
            for i in 0..BLOCK_DIM {
                let radius = row_sums[i] - diag[i].abs();
                bound = bound.min(diag[i] - radius);
            }
        }
        if bound == f64::INFINITY {
            0.0
        } else {
            bound
        }
    }

    /// A lower bound on the spectrum of a matrix in pair form — the
    /// shape of a resistance matrix, `R = blockdiag(S_i) + Σ_{i<j} P_ij`
    /// with `S_i = Σ_j R_ij` the block row sums and `P_ij` the pair
    /// term `[A, −A; −A, A]`, `A = −R_ij`: `min_i` of the Gershgorin
    /// lower bound of `S_i`. Valid, and `Some`, only when the matrix is
    /// square, every off-diagonal block is symmetric negative definite
    /// (so each `P_ij ⪰ 0`, and `R ⪰ blockdiag(S_i)`) and stored with
    /// its mirror `R_ji = R_ij`; `None` otherwise. One pass over the
    /// blocks, and one lookup per pair.
    ///
    /// When the bound is positive, `R ⪯ 2·blockdiag(R_ii)` as well:
    /// `2·blockdiag(R_ii) − R = blockdiag(S_i) + Σ [A, A; A, A] ⪰ 0`.
    pub fn row_sum_lower_bound(&self) -> Option<f64> {
        if self.nb_rows != self.nb_cols {
            return None;
        }
        // Leading minors of −B, B symmetric: all positive.
        let negative_definite = |b: &Block3| {
            let a = &b.0;
            let minor2 = a[0] * a[4] - a[1] * a[1];
            let det = a[0] * (a[4] * a[8] - a[5] * a[5])
                - a[1] * (a[1] * a[8] - a[5] * a[2])
                + a[2] * (a[1] * a[5] - a[4] * a[2]);
            a[0] < 0.0 && minor2 > 0.0 && det < 0.0
        };
        let mut bound = f64::INFINITY;
        // Each pair is checked from its upper block, whose lower mirror
        // must be equal; equally many upper and lower blocks then leave
        // no lower block without its upper one.
        let mut upper_minus_lower = 0isize;
        for bi in 0..self.nb_rows {
            let (cols, blks) = self.block_row(bi);
            let mut sum = Block3::ZERO;
            for (&c, b) in cols.iter().zip(blks) {
                let c = c as usize;
                if c > bi {
                    let paired = b.is_symmetric()
                        && negative_definite(b)
                        && self.block_at(c, bi) == Some(b);
                    if !paired {
                        return None;
                    }
                    upper_minus_lower += 1;
                } else if c < bi {
                    upper_minus_lower -= 1;
                }
                // The bound is on quadratic forms: the diagonal block
                // enters through its symmetric part.
                sum += if c == bi { (*b + b.transpose()) * 0.5 } else { *b };
            }
            for i in 0..BLOCK_DIM {
                let radius: f64 = (0..BLOCK_DIM)
                    .filter(|&j| j != i)
                    .map(|j| sum.get(i, j).abs())
                    .sum();
                let lo = sum.get(i, i) - radius;
                if lo.is_nan() {
                    return None;
                }
                bound = bound.min(lo);
            }
        }
        (upper_minus_lower == 0 && bound < f64::INFINITY).then_some(bound)
    }

    /// Converts the matrix to a dense row-major scalar array (test/debug
    /// helper; use only for small matrices).
    pub fn to_dense(&self) -> Vec<f64> {
        let (nr, nc) = (self.n_rows(), self.n_cols());
        let mut dense = vec![0.0; nr * nc];
        for bi in 0..self.nb_rows {
            let (cols, blks) = self.block_row(bi);
            for (c, b) in cols.iter().zip(blks) {
                let bj = *c as usize;
                for i in 0..BLOCK_DIM {
                    for j in 0..BLOCK_DIM {
                        dense[(bi * BLOCK_DIM + i) * nc + bj * BLOCK_DIM + j] =
                            b.get(i, j);
                    }
                }
            }
        }
        dense
    }

    /// Extracts the square submatrix whose block rows and columns are
    /// `keep` (in the given order). Used by the distributed simulator to
    /// form per-node local/remote operators.
    pub fn submatrix(&self, row_range: std::ops::Range<usize>) -> BcrsMatrix {
        let lo = row_range.start;
        let hi = row_range.end;
        assert!(hi <= self.nb_rows);
        let base = self.row_ptr[lo];
        let row_ptr: Vec<usize> =
            self.row_ptr[lo..=hi].iter().map(|p| p - base).collect();
        BcrsMatrix {
            nb_rows: hi - lo,
            nb_cols: self.nb_cols,
            row_ptr,
            col_idx: self.col_idx[base..self.row_ptr[hi]].to_vec(),
            blocks: self.blocks[base..self.row_ptr[hi]].to_vec(),
        }
    }

    /// Bytes of matrix data streamed by one SPMV/GSPMV pass: blocks,
    /// column indices, and row pointers. This is the `4·nb + nnzb·(4+s_a)`
    /// term of the paper's memory-traffic model.
    pub fn stream_bytes(&self) -> usize {
        self.nnz_blocks() * (4 + 72) + 4 * self.nb_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::BlockTripletBuilder;

    fn sample() -> BcrsMatrix {
        // [ 2I  B  ]
        // [ Bt  3I ]  with B = upper-triangular test block
        let b =
            Block3::from_rows([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]);
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(1, 1, Block3::scaled_identity(3.0));
        t.add_symmetric_pair(0, 1, b);
        t.build()
    }

    #[test]
    fn counts_and_density() {
        let m = sample();
        assert_eq!(m.nb_rows(), 2);
        assert_eq!(m.n_rows(), 6);
        assert_eq!(m.nnz_blocks(), 4);
        assert_eq!(m.nnz(), 36);
        assert!((m.blocks_per_row() - 2.0).abs() < 1e-15);
    }

    #[test]
    fn symmetric_detection() {
        let m = sample();
        assert!(m.is_symmetric_within(0.0));
        let mut asym = m.clone();
        asym.blocks_mut()[1].0[0] += 1.0; // perturb the (0,1) block only
        assert!(!asym.is_symmetric_within(1e-12));
    }

    /// A NaN difference or a NaN tolerance compares false both ways, so
    /// the check must be written as "not within", never as "beyond".
    #[test]
    fn nan_is_never_symmetric() {
        let mut nan = sample();
        nan.blocks_mut()[1].0[0] = f64::NAN; // in the (0,1) block
        assert!(!nan.is_symmetric_within(1e-12));
        assert!(!nan.is_symmetric_within(f64::INFINITY));
        assert!(crate::SymmetricBcrs::from_full(&nan, 1e-12).is_none());
        assert!(!sample().is_symmetric_within(f64::NAN));
        assert!(crate::SymmetricBcrs::from_full(&sample(), f64::NAN).is_none());
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        let d = m.to_dense();
        let dt = t.to_dense();
        let n = m.n_rows();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(d[i * n + j], dt[j * n + i]);
            }
        }
    }

    #[test]
    fn diagonal_blocks_and_shift() {
        let m = sample();
        let d = m.diagonal_blocks();
        assert_eq!(d[0].get(0, 0), 2.0);
        assert_eq!(d[1].get(2, 2), 3.0);
    }

    #[test]
    fn gershgorin_bounds_bracket_identity() {
        let m = BcrsMatrix::scaled_identity(5, 4.0);
        assert_eq!(m.gershgorin_lower_bound(), 4.0);
        assert_eq!(m.gershgorin_upper_bound(), 4.0);
    }

    #[test]
    fn gershgorin_bounds_bracket_sample_spectrum() {
        let m = sample();
        // spectrum of the dense matrix lies within [lower, upper]
        let lo = m.gershgorin_lower_bound();
        let hi = m.gershgorin_upper_bound();
        assert!(lo <= 2.0 && hi >= 3.0);
        // off-diagonal entries 1 and 2 widen the discs
        assert!(lo <= 2.0 - 1.0 + 1e-12);
        assert!(hi >= 3.0 + 2.0 - 1e-12);
    }

    /// A chain in pair form: drag `4·I` per block plus a pair term
    /// `[A, −A; −A, A]` per neighbour, with `A` symmetric positive
    /// definite. Every block row sums to `4·I`.
    fn pair_chain(nb: usize) -> BcrsMatrix {
        let mut t = crate::BlockTripletBuilder::square(nb);
        let a = Block3::from_rows([
            [2.0, 0.5, 0.0],
            [0.5, 1.0, 0.25],
            [0.0, 0.25, 3.0],
        ]);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < nb {
                t.add(i, i, a);
                t.add(i + 1, i + 1, a);
                t.add_symmetric_pair(i, i + 1, -a);
            }
        }
        t.build()
    }

    #[test]
    fn row_sum_lower_bound_reads_the_drag() {
        let lb = pair_chain(6).row_sum_lower_bound().expect("pair form");
        assert!((lb - 4.0).abs() < 1e-14, "{lb}");
        assert_eq!(
            BcrsMatrix::scaled_identity(3, 2.5).row_sum_lower_bound(),
            Some(2.5)
        );
        // A nonsymmetric diagonal block counts through its symmetric
        // part, whose lowest eigenvalue is 5 − √29 < 0; the block's own
        // row discs would claim 0.
        let skew = Block3::from_rows([
            [0.0, 0.0, 0.0],
            [4.0, 10.0, 0.0],
            [0.0, 0.0, 10.0],
        ]);
        let one = BcrsMatrix::from_parts(1, 1, vec![0, 1], vec![0], vec![skew]);
        let lb = one.row_sum_lower_bound().expect("no off-diagonal blocks");
        assert!(lb <= 5.0 - 29f64.sqrt(), "{lb}");
    }

    /// Off the pair form the bound is not a bound: an indefinite, an
    /// asymmetric and a NaN off-diagonal block, and a mirror that is
    /// not the same block, each give `None`.
    #[test]
    fn row_sum_lower_bound_refuses_what_is_not_pair_form() {
        let indefinite = Block3::from_rows([
            [-1.0, 2.0, 0.0],
            [2.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]);
        let asymmetric = Block3::from_rows([
            [-1.0, 0.5, 0.0],
            [0.0, -1.0, 0.0],
            [0.0, 0.0, -1.0],
        ]);
        let mut nan = -Block3::IDENTITY;
        *nan.get_mut(1, 2) = f64::NAN;
        *nan.get_mut(2, 1) = f64::NAN;
        for (what, block) in
            [("indefinite", indefinite), ("asymmetric", asymmetric), ("NaN", nan)]
        {
            let mut a = pair_chain(4);
            let k = a.row_ptr()[1] + 2; // row 1 holds (1, 0), (1, 1), (1, 2)
            assert_eq!(a.col_idx()[k], 2);
            a.blocks_mut()[k] = block;
            assert_eq!(a.row_sum_lower_bound(), None, "{what}");
        }
        let mut a = pair_chain(4);
        let k = a.row_ptr()[1] + 2;
        a.blocks_mut()[k] = a.blocks()[k] * 2.0;
        assert_eq!(a.row_sum_lower_bound(), None, "unequal mirror");
        let mut a = pair_chain(4);
        let k = a.row_ptr()[2]; // (2, 1), the mirror of (1, 2)
        a.blocks_mut()[k] = -Block3::IDENTITY;
        assert_eq!(a.row_sum_lower_bound(), None, "unequal lower block");
        let (chain, mut t) = (pair_chain(4), crate::BlockTripletBuilder::square(4));
        for bi in 0..4 {
            let (cols, blocks) = chain.block_row(bi);
            for (c, b) in cols.iter().zip(blocks) {
                t.add(bi, *c as usize, *b);
            }
        }
        t.add(3, 0, -Block3::IDENTITY);
        assert_eq!(t.build().row_sum_lower_bound(), None, "lower block alone");
    }

    #[test]
    fn submatrix_takes_row_slice() {
        let m = sample();
        let s = m.submatrix(1..2);
        assert_eq!(s.nb_rows(), 1);
        assert_eq!(s.nb_cols(), 2);
        assert_eq!(s.nnz_blocks(), 2);
        assert_eq!(*s.block_at(0, 1).unwrap(), Block3::scaled_identity(3.0));
    }

    #[test]
    #[should_panic(expected = "columns not strictly increasing")]
    fn from_parts_rejects_unsorted_columns() {
        BcrsMatrix::from_parts(
            1,
            2,
            vec![0, 2],
            vec![1, 0],
            vec![Block3::IDENTITY, Block3::IDENTITY],
        );
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn from_parts_rejects_out_of_range_column() {
        BcrsMatrix::from_parts(1, 1, vec![0, 1], vec![3], vec![Block3::IDENTITY]);
    }

    #[test]
    fn stream_bytes_matches_formula() {
        let m = sample();
        assert_eq!(m.stream_bytes(), 4 * 76 + 4 * 2);
    }
}
