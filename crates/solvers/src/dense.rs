//! Small dense linear algebra on row-major buffers.
//!
//! Block CG reduces each iteration to tiny `m×m` systems (`PᵀAP·α = RᵀR`
//! etc., O'Leary 1980); these helpers solve them with partial-pivoted LU
//! and provide the dense products used in tests. Everything is row-major
//! `Vec<f64>` with explicit dimensions — no matrix type ceremony for
//! matrices that are at most a few dozen square.

/// Solves `A·X = B` in place where `A` is `m×m` and `B` is `m×k`, both
/// row-major. `A` is destroyed (replaced by its LU factors); `B` is
/// replaced by `X`. Returns `false` if `A` is numerically singular.
/// Allocation-free: pivoting swaps rows physically, so back substitution
/// can overwrite `B` from the bottom up — block solvers call this twice
/// per iteration.
pub fn lu_solve(a: &mut [f64], m: usize, b: &mut [f64], k: usize) -> bool {
    assert_eq!(a.len(), m * m);
    assert_eq!(b.len(), m * k);
    let scale = a.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    if scale == 0.0 {
        return false;
    }
    for col in 0..m {
        // Partial pivot.
        let mut best = col;
        let mut best_val = a[col * m + col].abs();
        for row in col + 1..m {
            let v = a[row * m + col].abs();
            if v > best_val {
                best = row;
                best_val = v;
            }
        }
        if best_val < f64::EPSILON * m as f64 * scale {
            return false;
        }
        if best != col {
            for j in 0..m {
                a.swap(col * m + j, best * m + j);
            }
            for j in 0..k {
                b.swap(col * k + j, best * k + j);
            }
        }
        let pivot = a[col * m + col];
        for row in col + 1..m {
            let factor = a[row * m + col] / pivot;
            a[row * m + col] = factor;
            for j in col + 1..m {
                a[row * m + j] -= factor * a[col * m + j];
            }
            for j in 0..k {
                b[row * k + j] -= factor * b[col * k + j];
            }
        }
    }
    // Back substitution: row `col` of X needs only rows below it, which
    // already hold X.
    for col in (0..m).rev() {
        for j in 0..k {
            let mut acc = b[col * k + j];
            for jj in col + 1..m {
                acc -= a[col * m + jj] * b[jj * k + j];
            }
            b[col * k + j] = acc / a[col * m + col];
        }
    }
    true
}

/// In-place Cholesky factorization of a row-major SPD `m×m` matrix:
/// on success the lower triangle holds `L` with `A = L·Lᵀ`. Returns
/// `false` if a non-positive pivot is met.
pub fn cholesky_in_place(a: &mut [f64], m: usize) -> bool {
    assert_eq!(a.len(), m * m);
    for i in 0..m {
        for j in 0..=i {
            let mut sum = a[i * m + j];
            for k in 0..j {
                sum -= a[i * m + k] * a[j * m + k];
            }
            if i == j {
                if sum <= 0.0 {
                    return false;
                }
                a[i * m + j] = sum.sqrt();
            } else {
                a[i * m + j] = sum / a[j * m + j];
            }
        }
        for j in i + 1..m {
            a[i * m + j] = 0.0;
        }
    }
    true
}

/// Solves `L·Lᵀ·x = b` for one right-hand side given the factor from
/// [`cholesky_in_place`].
pub fn cholesky_solve(l: &[f64], m: usize, b: &mut [f64]) {
    assert_eq!(l.len(), m * m);
    assert_eq!(b.len(), m);
    // Forward: L y = b
    for i in 0..m {
        let mut acc = b[i];
        for k in 0..i {
            acc -= l[i * m + k] * b[k];
        }
        b[i] = acc / l[i * m + i];
    }
    // Backward: Lᵀ x = y
    for i in (0..m).rev() {
        let mut acc = b[i];
        for k in i + 1..m {
            acc -= l[k * m + i] * b[k];
        }
        b[i] = acc / l[i * m + i];
    }
}

/// Row-major dense product `C = A·B` with `A` `p×q` and `B` `q×r`.
pub fn matmul(a: &[f64], p: usize, q: usize, b: &[f64], r: usize) -> Vec<f64> {
    assert_eq!(a.len(), p * q);
    assert_eq!(b.len(), q * r);
    let mut c = vec![0.0; p * r];
    for i in 0..p {
        for k in 0..q {
            let av = a[i * q + k];
            if av != 0.0 {
                for j in 0..r {
                    c[i * r + j] += av * b[k * r + j];
                }
            }
        }
    }
    c
}

/// Transpose of a row-major `p×q` matrix.
pub fn transpose(a: &[f64], p: usize, q: usize) -> Vec<f64> {
    let mut t = vec![0.0; p * q];
    for i in 0..p {
        for j in 0..q {
            t[j * p + i] = a[i * q + j];
        }
    }
    t
}

/// Symmetrizes a square matrix in place: `A ← (A + Aᵀ)/2`. The small
/// Gram matrices in block CG are symmetric in exact arithmetic; this
/// removes rounding drift before factorization.
pub fn symmetrize(a: &mut [f64], m: usize) {
    for i in 0..m {
        for j in 0..i {
            let v = 0.5 * (a[i * m + j] + a[j * m + i]);
            a[i * m + j] = v;
            a[j * m + i] = v;
        }
    }
}

/// Max-norm of `A − B`.
pub fn max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0f64, |acc, (x, y)| acc.max((x - y).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lu_solves_known_system() {
        // A = [[2,1],[1,3]], b = [3,5] -> x = [4/5, 7/5]
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![3.0, 5.0];
        assert!(lu_solve(&mut a, 2, &mut b, 1));
        assert!((b[0] - 0.8).abs() < 1e-14);
        assert!((b[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn lu_handles_multiple_rhs() {
        let a0 = vec![4.0, 1.0, 0.0, 1.0, 3.0, 1.0, 0.0, 1.0, 2.0];
        let x_true = vec![1.0, -1.0, 0.0, 2.0, 3.0, 0.5];
        let b = matmul(&a0, 3, 3, &x_true, 2);
        let mut a = a0.clone();
        let mut x = b;
        assert!(lu_solve(&mut a, 3, &mut x, 2));
        assert!(max_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn lu_needs_pivoting() {
        // Zero in the (0,0) position requires a row swap.
        let mut a = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![2.0, 3.0];
        assert!(lu_solve(&mut a, 2, &mut b, 1));
        assert_eq!(b, vec![3.0, 2.0]);
    }

    #[test]
    fn lu_detects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(!lu_solve(&mut a, 2, &mut b, 1));
    }

    /// The permutation-vector LU this module used before `lu_solve`
    /// went allocation-free: logical row swaps through `piv`, back
    /// substitution into a temporary.
    fn lu_solve_permuted(a: &mut [f64], m: usize, b: &mut [f64], k: usize) -> bool {
        let scale = a.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
        if scale == 0.0 {
            return false;
        }
        let mut piv: Vec<usize> = (0..m).collect();
        for col in 0..m {
            let mut best = col;
            let mut best_val = a[piv[col] * m + col].abs();
            for row in col + 1..m {
                let v = a[piv[row] * m + col].abs();
                if v > best_val {
                    best = row;
                    best_val = v;
                }
            }
            if best_val < f64::EPSILON * m as f64 * scale {
                return false;
            }
            piv.swap(col, best);
            let p = piv[col];
            let pivot = a[p * m + col];
            for row in col + 1..m {
                let r = piv[row];
                let factor = a[r * m + col] / pivot;
                a[r * m + col] = factor;
                for j in col + 1..m {
                    a[r * m + j] -= factor * a[p * m + j];
                }
                for j in 0..k {
                    b[r * k + j] -= factor * b[p * k + j];
                }
            }
        }
        let mut x = vec![0.0; m * k];
        for col in (0..m).rev() {
            let p = piv[col];
            for j in 0..k {
                let mut acc = b[p * k + j];
                for jj in col + 1..m {
                    acc -= a[p * m + jj] * x[jj * k + j];
                }
                x[col * k + j] = acc / a[p * m + col];
            }
        }
        b.copy_from_slice(&x);
        true
    }

    /// Physical row swaps perform the same arithmetic as the
    /// permutation vector did: solutions are bitwise equal on matrices
    /// that pivot at most columns (no diagonal dominance).
    #[test]
    fn lu_in_place_bitwise_equals_permutation_vector_form() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for (m, k) in [(1, 1), (3, 1), (8, 8), (16, 16), (17, 5), (48, 48)] {
            let a0: Vec<f64> = (0..m * m).map(|_| next()).collect();
            let b0: Vec<f64> = (0..m * k).map(|_| next()).collect();
            let (mut a1, mut b1) = (a0.clone(), b0.clone());
            let (mut a2, mut b2) = (a0, b0);
            assert!(lu_solve(&mut a1, m, &mut b1, k));
            assert!(lu_solve_permuted(&mut a2, m, &mut b2, k));
            let bits =
                |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&b1), bits(&b2), "m={m} k={k}");
        }
    }

    #[test]
    fn cholesky_factorizes_spd() {
        let a0 = vec![4.0, 2.0, 2.0, 3.0];
        let mut l = a0.clone();
        assert!(cholesky_in_place(&mut l, 2));
        // L = [[2,0],[1,sqrt(2)]]
        assert!((l[0] - 2.0).abs() < 1e-14);
        assert!((l[2] - 1.0).abs() < 1e-14);
        assert!((l[3] - 2f64.sqrt()).abs() < 1e-14);
        let mut b = vec![6.0, 5.0];
        cholesky_solve(&l, 2, &mut b);
        // check A x = b
        let ax = matmul(&a0, 2, 2, &b, 1);
        assert!(max_diff(&ax, &[6.0, 5.0]) < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = vec![1.0, 2.0, 2.0, 1.0];
        assert!(!cholesky_in_place(&mut a, 2));
    }

    #[test]
    fn transpose_and_matmul_agree() {
        let a = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2x3
        let at = transpose(&a, 2, 3);
        let g = matmul(&at, 3, 2, &a, 3); // AᵀA, 3x3 symmetric
        let mut gs = g.clone();
        symmetrize(&mut gs, 3);
        assert!(max_diff(&g, &gs) < 1e-15);
        assert!((g[0] - 17.0).abs() < 1e-14); // 1+16
    }

    #[test]
    fn symmetrize_averages_off_diagonal() {
        let mut a = vec![1.0, 2.0, 4.0, 1.0];
        symmetrize(&mut a, 2);
        assert_eq!(a, vec![1.0, 3.0, 3.0, 1.0]);
    }
}
