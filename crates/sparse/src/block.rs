//! Dense 3×3 blocks.
//!
//! Resistance matrices in Stokesian dynamics are block matrices whose
//! 3×3 blocks couple the translational degrees of freedom of a particle
//! pair. `Block3` stores one such block row-major in a flat `[f64; 9]`.

use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub};

/// A dense 3×3 block stored row-major: entry `(i, j)` lives at `3*i + j`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Block3(pub [f64; 9]);

impl Block3 {
    /// The zero block.
    pub const ZERO: Block3 = Block3([0.0; 9]);

    /// The identity block.
    pub const IDENTITY: Block3 =
        Block3([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);

    /// Builds a block from a row-major 2-D array.
    #[inline]
    pub fn from_rows(rows: [[f64; 3]; 3]) -> Self {
        Block3([
            rows[0][0], rows[0][1], rows[0][2], //
            rows[1][0], rows[1][1], rows[1][2], //
            rows[2][0], rows[2][1], rows[2][2],
        ])
    }

    /// `s · I`.
    #[inline]
    pub fn scaled_identity(s: f64) -> Self {
        Block3([s, 0.0, 0.0, 0.0, s, 0.0, 0.0, 0.0, s])
    }

    /// The dyadic (outer) product `a ⊗ b`.
    #[inline]
    pub fn outer(a: [f64; 3], b: [f64; 3]) -> Self {
        let mut m = [0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                m[3 * i + j] = a[i] * b[j];
            }
        }
        Block3(m)
    }

    /// Entry accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.0[3 * i + j]
    }

    /// Mutable entry accessor.
    #[inline]
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        &mut self.0[3 * i + j]
    }

    /// The transposed block.
    #[inline]
    pub fn transpose(&self) -> Block3 {
        let a = &self.0;
        Block3([a[0], a[3], a[6], a[1], a[4], a[7], a[2], a[5], a[8]])
    }

    /// Matrix–vector product with a length-3 vector.
    #[inline]
    pub fn mul_vec(&self, x: [f64; 3]) -> [f64; 3] {
        let a = &self.0;
        [
            a[0] * x[0] + a[1] * x[1] + a[2] * x[2],
            a[3] * x[0] + a[4] * x[1] + a[5] * x[2],
            a[6] * x[0] + a[7] * x[1] + a[8] * x[2],
        ]
    }

    /// Sum of absolute values of all entries (used for Gershgorin bounds).
    pub fn abs_sum(&self) -> f64 {
        self.0.iter().map(|v| v.abs()).sum()
    }

    /// Row-wise absolute sums.
    pub fn row_abs_sums(&self) -> [f64; 3] {
        let a = &self.0;
        [
            a[0].abs() + a[1].abs() + a[2].abs(),
            a[3].abs() + a[4].abs() + a[5].abs(),
            a[6].abs() + a[7].abs() + a[8].abs(),
        ]
    }

    /// Trace of the block.
    #[inline]
    pub fn trace(&self) -> f64 {
        self.0[0] + self.0[4] + self.0[8]
    }

    /// The inverse of the block's symmetric part `(B + Bᵀ)/2`, exactly
    /// symmetric, when that part is positive definite (leading minors
    /// all `> 0`, which a NaN entry fails) and every entry of the
    /// inverse is finite; `None` otherwise. What a block-Jacobi
    /// preconditioner may apply: an indefinite or non-finite block
    /// would make conjugate gradients invalid.
    pub fn spd_inverse(&self) -> Option<Block3> {
        let a = &self.0;
        let (a00, a11, a22) = (a[0], a[4], a[8]);
        let a01 = 0.5 * (a[1] + a[3]);
        let a02 = 0.5 * (a[2] + a[6]);
        let a12 = 0.5 * (a[5] + a[7]);
        // Cofactors of the symmetric part (its adjugate is symmetric).
        let c00 = a11 * a22 - a12 * a12;
        let c01 = a02 * a12 - a01 * a22;
        let c02 = a01 * a12 - a02 * a11;
        let c11 = a00 * a22 - a02 * a02;
        let c12 = a01 * a02 - a00 * a12;
        let c22 = a00 * a11 - a01 * a01;
        let det = a00 * c00 + a01 * c01 + a02 * c02;
        if !(a00 > 0.0 && c22 > 0.0 && det > 0.0) {
            return None;
        }
        let [i00, i01, i02, i11, i12, i22] =
            [c00, c01, c02, c11, c12, c22].map(|c| c / det);
        let inv = Block3([i00, i01, i02, i01, i11, i12, i02, i12, i22]);
        inv.0.iter().all(|v| v.is_finite()).then_some(inv)
    }

    /// The lower-triangular Cholesky factor `L` of the block's
    /// symmetric part, `L·Lᵀ = (B + Bᵀ)/2`, when that part is positive
    /// definite and every entry of `L` is finite; `None` otherwise (the
    /// same refusals as [`Block3::spd_inverse`]).
    pub fn cholesky(&self) -> Option<Block3> {
        let a = |i: usize, j: usize| 0.5 * (self.get(i, j) + self.get(j, i));
        let d0 = a(0, 0);
        let l00 = d0.sqrt();
        let (l10, l20) = (a(1, 0) / l00, a(2, 0) / l00);
        let d1 = a(1, 1) - l10 * l10;
        let l11 = d1.sqrt();
        let l21 = (a(2, 1) - l20 * l10) / l11;
        let d2 = a(2, 2) - l20 * l20 - l21 * l21;
        if !(d0 > 0.0 && d1 > 0.0 && d2 > 0.0) {
            return None;
        }
        let l = Block3::from_rows([
            [l00, 0.0, 0.0],
            [l10, l11, 0.0],
            [l20, l21, d2.sqrt()],
        ]);
        l.0.iter().all(|v| v.is_finite()).then_some(l)
    }

    /// `L⁻¹·x` for a lower-triangular block `L` (forward substitution;
    /// the strict upper triangle is not read).
    #[inline]
    pub fn solve_lower(&self, x: [f64; 3]) -> [f64; 3] {
        let l = &self.0;
        let y0 = x[0] / l[0];
        let y1 = (x[1] - l[3] * y0) / l[4];
        let y2 = (x[2] - l[6] * y0 - l[7] * y1) / l[8];
        [y0, y1, y2]
    }

    /// `L⁻ᵀ·x` for a lower-triangular block `L` (back substitution with
    /// `Lᵀ`; the strict upper triangle is not read).
    #[inline]
    pub fn solve_lower_transpose(&self, x: [f64; 3]) -> [f64; 3] {
        let l = &self.0;
        let y2 = x[2] / l[8];
        let y1 = (x[1] - l[7] * y2) / l[4];
        let y0 = (x[0] - l[3] * y1 - l[6] * y2) / l[0];
        [y0, y1, y2]
    }

    /// Whether the block is (exactly) symmetric.
    pub fn is_symmetric(&self) -> bool {
        let a = &self.0;
        a[1] == a[3] && a[2] == a[6] && a[5] == a[7]
    }

    /// Whether the block is symmetric within tolerance `tol` (absolute).
    pub fn is_symmetric_within(&self, tol: f64) -> bool {
        let a = &self.0;
        (a[1] - a[3]).abs() <= tol
            && (a[2] - a[6]).abs() <= tol
            && (a[5] - a[7]).abs() <= tol
    }
}

impl Default for Block3 {
    fn default() -> Self {
        Block3::ZERO
    }
}

impl Add for Block3 {
    type Output = Block3;
    #[inline]
    fn add(self, rhs: Block3) -> Block3 {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0.iter()) {
            *o += r;
        }
        Block3(out)
    }
}

impl AddAssign for Block3 {
    #[inline]
    fn add_assign(&mut self, rhs: Block3) {
        for (o, r) in self.0.iter_mut().zip(rhs.0.iter()) {
            *o += r;
        }
    }
}

impl Sub for Block3 {
    type Output = Block3;
    #[inline]
    fn sub(self, rhs: Block3) -> Block3 {
        let mut out = self.0;
        for (o, r) in out.iter_mut().zip(rhs.0.iter()) {
            *o -= r;
        }
        Block3(out)
    }
}

impl Neg for Block3 {
    type Output = Block3;
    #[inline]
    fn neg(self) -> Block3 {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o = -*o;
        }
        Block3(out)
    }
}

impl Mul<f64> for Block3 {
    type Output = Block3;
    #[inline]
    fn mul(self, s: f64) -> Block3 {
        let mut out = self.0;
        for o in out.iter_mut() {
            *o *= s;
        }
        Block3(out)
    }
}

impl Mul<Block3> for Block3 {
    type Output = Block3;
    /// Dense 3×3 matrix product.
    fn mul(self, rhs: Block3) -> Block3 {
        let mut out = [0.0; 9];
        for i in 0..3 {
            for j in 0..3 {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += self.get(i, k) * rhs.get(k, j);
                }
                out[3 * i + j] = acc;
            }
        }
        Block3(out)
    }
}

impl Index<(usize, usize)> for Block3 {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.0[3 * i + j]
    }
}

impl IndexMut<(usize, usize)> for Block3 {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.0[3 * i + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_mul_vec_is_noop() {
        let v = [1.0, -2.0, 3.5];
        assert_eq!(Block3::IDENTITY.mul_vec(v), v);
    }

    #[test]
    fn transpose_involution() {
        let b =
            Block3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        assert_eq!(b.transpose().transpose(), b);
    }

    #[test]
    fn transpose_swaps_entries() {
        let b =
            Block3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        let t = b.transpose();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(t.get(i, j), b.get(j, i));
            }
        }
    }

    #[test]
    fn outer_product_symmetric_for_same_vector() {
        let e = [1.0, 2.0, 3.0];
        let b = Block3::outer(e, e);
        assert!(b.is_symmetric());
        assert_eq!(b.get(0, 1), 2.0);
        assert_eq!(b.get(2, 2), 9.0);
    }

    #[test]
    fn block_matmul_matches_manual() {
        let a =
            Block3::from_rows([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]);
        let b =
            Block3::from_rows([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]);
        let c = a * b;
        // row 0: [1+2, 1, 2]
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(0, 2), 2.0);
        // row 2: [4+5, 4, 5]
        assert_eq!(c.get(2, 0), 9.0);
        assert_eq!(c.get(2, 1), 4.0);
        assert_eq!(c.get(2, 2), 5.0);
    }

    #[test]
    fn spd_inverse_inverts_the_symmetric_part() {
        // Not symmetric: the symmetric part has 0.5, −0.25, 0.75 off
        // the diagonal.
        let b =
            Block3::from_rows([[4.0, 1.0, -0.5], [0.0, 3.0, 1.0], [0.0, 0.5, 2.0]]);
        let inv = b.spd_inverse().expect("SPD symmetric part");
        assert!(inv.is_symmetric());
        let sym = (b + b.transpose()) * 0.5;
        let id = sym * inv;
        for i in 0..3 {
            for j in 0..3 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((id.get(i, j) - want).abs() < 1e-14, "({i},{j})");
            }
        }
    }

    #[test]
    fn cholesky_factors_the_symmetric_part() {
        let b =
            Block3::from_rows([[4.0, 1.0, -0.5], [0.0, 3.0, 1.0], [0.0, 0.5, 2.0]]);
        let l = b.cholesky().expect("SPD symmetric part");
        assert_eq!([l.get(0, 1), l.get(0, 2), l.get(1, 2)], [0.0; 3]);
        let sym = (b + b.transpose()) * 0.5;
        let llt = l * l.transpose();
        for k in 0..9 {
            assert!((llt.0[k] - sym.0[k]).abs() < 1e-14, "entry {k}");
        }
        let x = [0.3, -1.2, 2.0];
        let back = l.mul_vec(l.solve_lower(x));
        let back_t = l.transpose().mul_vec(l.solve_lower_transpose(x));
        for i in 0..3 {
            assert!((back[i] - x[i]).abs() < 1e-14, "L·L⁻¹x, row {i}");
            assert!((back_t[i] - x[i]).abs() < 1e-14, "Lᵀ·L⁻ᵀx, row {i}");
        }
    }

    #[test]
    fn cholesky_refuses_what_spd_inverse_refuses() {
        let indefinite =
            Block3::from_rows([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        for b in [Block3::ZERO, indefinite, -Block3::IDENTITY] {
            assert!(b.cholesky().is_none(), "{b:?}");
        }
        for k in 0..9 {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut b = Block3::scaled_identity(2.0);
                b.0[k] = bad;
                assert!(b.cholesky().is_none(), "entry {k} = {bad}");
            }
        }
    }

    #[test]
    fn spd_inverse_refuses_what_cannot_precondition() {
        assert!(Block3::ZERO.spd_inverse().is_none());
        // Positive diagonal, indefinite: eigenvalues 3, −1, 1.
        let indefinite =
            Block3::from_rows([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]);
        assert!(indefinite.spd_inverse().is_none());
        assert!((-Block3::IDENTITY).spd_inverse().is_none());
        for k in 0..9 {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut b = Block3::scaled_identity(2.0);
                b.0[k] = bad;
                assert!(b.spd_inverse().is_none(), "entry {k} = {bad}");
            }
        }
        // Definite, but the inverse overflows.
        assert!(Block3::scaled_identity(1e-320).spd_inverse().is_none());
    }

    #[test]
    fn scaled_identity_trace() {
        assert_eq!(Block3::scaled_identity(2.5).trace(), 7.5);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a =
            Block3::from_rows([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]);
        let b = Block3::scaled_identity(0.5);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn row_abs_sums_with_negatives() {
        let b = Block3::from_rows([
            [-1.0, 2.0, -3.0],
            [0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0],
        ]);
        assert_eq!(b.row_abs_sums(), [6.0, 0.0, 3.0]);
    }

    #[test]
    fn neg_negates_every_entry() {
        let b = Block3::from_rows([
            [1.0, -2.0, 3.0],
            [0.0, 4.0, 0.0],
            [5.0, 0.0, -6.0],
        ]);
        let n = -b;
        for i in 0..9 {
            assert_eq!(n.0[i], -b.0[i]);
        }
    }

    #[test]
    fn index_operators() {
        let mut b = Block3::ZERO;
        b[(1, 2)] = 7.0;
        assert_eq!(b[(1, 2)], 7.0);
        assert_eq!(b.get(1, 2), 7.0);
    }
}
