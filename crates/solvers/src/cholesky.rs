//! Dense Cholesky factorization — the small-problem reference path.
//!
//! Many SD implementations factor `R = L·Lᵀ` once per step, using `L`
//! both for the Brownian force (`f_B = L·z`) and the velocity solves
//! (paper §II-C). That is impractical at scale but invaluable here as a
//! correctness oracle for the Chebyshev and CG paths.

use crate::dense;
use mrhs_sparse::{BcrsMatrix, MultiVec};

/// A dense lower-triangular Cholesky factor.
#[derive(Clone, Debug)]
pub struct DenseCholesky {
    n: usize,
    /// Row-major `n×n`; strictly upper part is zero.
    l: Vec<f64>,
}

impl DenseCholesky {
    /// Factors a row-major dense SPD matrix. Returns `None` if a
    /// non-positive pivot is encountered.
    pub fn factor_dense(a: &[f64], n: usize) -> Option<Self> {
        assert_eq!(a.len(), n * n);
        let mut l = a.to_vec();
        if dense::cholesky_in_place(&mut l, n) {
            Some(DenseCholesky { n, l })
        } else {
            None
        }
    }

    /// Densifies and factors a (small) BCRS matrix.
    pub fn factor_bcrs(a: &BcrsMatrix) -> Option<Self> {
        assert_eq!(a.n_rows(), a.n_cols());
        Self::factor_dense(&a.to_dense(), a.n_rows())
    }

    /// Scalar dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// The factor `L` (row-major).
    pub fn l(&self) -> &[f64] {
        &self.l
    }

    /// Solves `L·Lᵀ·x = b` in place.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        dense::cholesky_solve(&self.l, self.n, b);
    }

    /// Solves for every column of a multivector in place.
    pub fn solve_multi_in_place(&self, b: &mut MultiVec) {
        assert_eq!(b.n(), self.n);
        let mut col = vec![0.0; self.n];
        for j in 0..b.m() {
            for (i, c) in col.iter_mut().enumerate() {
                *c = b.get(i, j);
            }
            dense::cholesky_solve(&self.l, self.n, &mut col);
            b.set_column(j, &col);
        }
    }

    /// Computes `y = L·z` — the exact correlated-noise transform that
    /// the Chebyshev polynomial approximates.
    pub fn mul_l(&self, z: &[f64], y: &mut [f64]) {
        assert_eq!(z.len(), self.n);
        assert_eq!(y.len(), self.n);
        for i in (0..self.n).rev() {
            let mut acc = 0.0;
            for k in 0..=i {
                acc += self.l[i * self.n + k] * z[k];
            }
            y[i] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn spd_bcrs(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(5.0));
            if bi + 1 < nb {
                t.add_symmetric_pair(
                    bi,
                    bi + 1,
                    Block3::from_rows([
                        [-1.0, 0.2, 0.0],
                        [0.2, -1.0, 0.1],
                        [0.0, 0.1, -1.0],
                    ]),
                );
            }
        }
        t.build()
    }

    #[test]
    fn factor_and_solve_recovers_solution() {
        let a = spd_bcrs(4);
        let n = a.n_rows();
        let chol = DenseCholesky::factor_bcrs(&a).expect("SPD");
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut b = vec![0.0; n];
        use crate::operator::LinearOperator;
        a.apply(&x_true, &mut b);
        chol.solve_in_place(&mut b);
        for (u, v) in b.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn l_times_lt_reproduces_matrix() {
        let a = spd_bcrs(3);
        let n = a.n_rows();
        let chol = DenseCholesky::factor_bcrs(&a).unwrap();
        let lt = dense::transpose(chol.l(), n, n);
        let llt = dense::matmul(chol.l(), n, n, &lt, n);
        assert!(dense::max_diff(&llt, &a.to_dense()) < 1e-10);
    }

    #[test]
    fn mul_l_covariance_matches_matrix() {
        // E[(Lz)(Lz)ᵀ] = LLᵀ = A; check deterministically via L e_k.
        let a = spd_bcrs(2);
        let n = a.n_rows();
        let chol = DenseCholesky::factor_bcrs(&a).unwrap();
        let mut cov = vec![0.0; n * n];
        let mut col = vec![0.0; n];
        for k in 0..n {
            let mut e = vec![0.0; n];
            e[k] = 1.0;
            chol.mul_l(&e, &mut col);
            for i in 0..n {
                for j in 0..n {
                    cov[i * n + j] += col[i] * col[j];
                }
            }
        }
        assert!(dense::max_diff(&cov, &a.to_dense()) < 1e-10);
    }

    #[test]
    fn solve_multi_matches_column_solves() {
        let a = spd_bcrs(3);
        let n = a.n_rows();
        let chol = DenseCholesky::factor_bcrs(&a).unwrap();
        let mut mv = MultiVec::zeros(n, 2);
        for j in 0..2 {
            let col: Vec<f64> =
                (0..n).map(|i| ((i * (j + 2)) as f64).cos()).collect();
            mv.set_column(j, &col);
        }
        let reference: Vec<Vec<f64>> = (0..2)
            .map(|j| {
                let mut c = mv.column(j);
                chol.solve_in_place(&mut c);
                c
            })
            .collect();
        chol.solve_multi_in_place(&mut mv);
        for j in 0..2 {
            for (u, v) in mv.column(j).iter().zip(&reference[j]) {
                assert!((u - v).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn indefinite_matrix_fails_to_factor() {
        let a = vec![1.0, 2.0, 2.0, 1.0];
        assert!(DenseCholesky::factor_dense(&a, 2).is_none());
    }
}
