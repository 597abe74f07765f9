//! Scalar compressed sparse row format.
//!
//! Used as the ablation baseline against BCRS: same matrices, no block
//! structure, so each scalar non-zero carries its own column index and
//! the kernel cannot amortize index decoding over nine values.

use crate::bcrs::BcrsMatrix;
use crate::multivec::MultiVec;
use crate::BLOCK_DIM;

/// A scalar CSR matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles from raw parts, validating invariants.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), n_rows + 1);
        assert_eq!(col_idx.len(), values.len());
        assert_eq!(*row_ptr.last().unwrap_or(&0), values.len());
        for i in 0..n_rows {
            assert!(row_ptr[i] <= row_ptr[i + 1]);
            let cols = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            for w in cols.windows(2) {
                assert!(w[0] < w[1], "columns not strictly increasing in row {i}");
            }
            if let Some(&last) = cols.last() {
                assert!((last as usize) < n_cols);
            }
        }
        CsrMatrix { n_rows, n_cols, row_ptr, col_idx, values }
    }

    /// Number of scalar rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of scalar columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored scalars.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `y = A·x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n_cols);
        assert_eq!(y.len(), self.n_rows);
        for i in 0..self.n_rows {
            let mut acc = 0.0;
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                acc += self.values[k] * x[self.col_idx[k] as usize];
            }
            y[i] = acc;
        }
    }

    /// `Y = A·X` on row-major multivectors (scalar-CSR GSPMV; the
    /// ablation comparator for the BCRS kernels).
    pub fn gspmv(&self, x: &MultiVec, y: &mut MultiVec) {
        assert_eq!(x.n(), self.n_cols);
        assert_eq!(y.n(), self.n_rows);
        assert_eq!(x.m(), y.m());
        let m = x.m();
        let xs = x.as_slice();
        for i in 0..self.n_rows {
            let yrow = y.row_mut(i);
            yrow.fill(0.0);
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let v = self.values[k];
                let xrow = &xs[self.col_idx[k] as usize * m..][..m];
                for j in 0..m {
                    yrow[j] += v * xrow[j];
                }
            }
        }
    }

    /// Bytes of matrix data streamed per multiply (values + indices +
    /// row pointers), for the bandwidth model comparison with BCRS.
    pub fn stream_bytes(&self) -> usize {
        self.nnz() * (8 + 4) + 4 * self.n_rows
    }
}

impl From<&BcrsMatrix> for CsrMatrix {
    /// Expands a BCRS matrix into scalar CSR, dropping explicit zeros
    /// inside blocks.
    fn from(a: &BcrsMatrix) -> Self {
        let n_rows = a.n_rows();
        let n_cols = a.n_cols();
        let mut row_ptr = vec![0usize; n_rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for bi in 0..a.nb_rows() {
            let (cols, blocks) = a.block_row(bi);
            for i in 0..BLOCK_DIM {
                for (c, b) in cols.iter().zip(blocks) {
                    for j in 0..BLOCK_DIM {
                        let v = b.get(i, j);
                        if v != 0.0 {
                            col_idx.push((*c as usize * BLOCK_DIM + j) as u32);
                            values.push(v);
                        }
                    }
                }
                row_ptr[bi * BLOCK_DIM + i + 1] = values.len();
            }
        }
        CsrMatrix { n_rows, n_cols, row_ptr, col_idx, values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block3;
    use crate::triplet::BlockTripletBuilder;

    fn sample_bcrs() -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(3);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(1, 1, Block3::scaled_identity(1.0));
        t.add(2, 2, Block3::scaled_identity(4.0));
        t.add_symmetric_pair(
            0,
            2,
            Block3::from_rows([[0.0, 1.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, -1.0]]),
        );
        t.build()
    }

    #[test]
    fn conversion_preserves_spmv() {
        let a = sample_bcrs();
        let c = CsrMatrix::from(&a);
        let n = a.n_rows();
        let x: Vec<f64> = (0..n).map(|v| (v as f64) * 0.3 - 1.0).collect();
        let mut y1 = vec![0.0; n];
        let mut y2 = vec![0.0; n];
        crate::gspmv::spmv(&a, &x, &mut y1);
        c.spmv(&x, &mut y2);
        for (u, v) in y1.iter().zip(&y2) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn conversion_drops_in_block_zeros() {
        let a = sample_bcrs();
        let c = CsrMatrix::from(&a);
        // identity blocks contribute 3 scalars each, the pair block has 3
        // non-zeros and its transpose 3 more: 9 + 6 = 15
        assert_eq!(c.nnz(), 15);
        assert!(c.nnz() < a.nnz());
    }

    #[test]
    fn csr_gspmv_matches_bcrs_gspmv() {
        let a = sample_bcrs();
        let c = CsrMatrix::from(&a);
        let n = a.n_rows();
        let m = 4;
        let mut x = MultiVec::zeros(n, m);
        for j in 0..m {
            let col: Vec<f64> =
                (0..n).map(|r| (r * (j + 1)) as f64 * 0.1).collect();
            x.set_column(j, &col);
        }
        let mut y1 = MultiVec::zeros(n, m);
        let mut y2 = MultiVec::zeros(n, m);
        crate::gspmv::gspmv_serial(&a, &x, &mut y1);
        c.gspmv(&x, &mut y2);
        for (u, v) in y1.as_slice().iter().zip(y2.as_slice()) {
            assert!((u - v).abs() < 1e-14);
        }
    }

    #[test]
    fn stream_bytes_smaller_per_scalar_for_bcrs() {
        // BCRS carries one 4-byte index per 9 scalars; CSR one per scalar.
        let a = sample_bcrs();
        let c = CsrMatrix::from(&a);
        let bcrs_per_scalar = a.stream_bytes() as f64 / a.nnz() as f64;
        let csr_per_scalar = c.stream_bytes() as f64 / c.nnz() as f64;
        assert!(bcrs_per_scalar < csr_per_scalar + 8.0 / 9.0);
    }

    #[test]
    #[should_panic]
    fn from_parts_rejects_bad_row_ptr() {
        CsrMatrix::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
    }
}
