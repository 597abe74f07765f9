//! Symmetric permutation of a block matrix.
//!
//! The distributed engine renumbers rows so that each node's rows are
//! contiguous; this applies that renumbering to rows and columns alike.

use crate::bcrs::BcrsMatrix;
use crate::block::Block3;

/// Applies the symmetric permutation `perm` (`perm[new] = old`) to both
/// rows and columns of `a`.
pub fn permute_symmetric(a: &BcrsMatrix, perm: &[usize]) -> BcrsMatrix {
    let nb = a.nb_rows();
    assert_eq!(a.nb_cols(), nb);
    assert_eq!(perm.len(), nb);
    let mut inv = vec![usize::MAX; nb];
    for (new, &old) in perm.iter().enumerate() {
        assert!(inv[old] == usize::MAX, "perm is not a permutation");
        inv[old] = new;
    }

    let mut row_ptr = vec![0usize; nb + 1];
    for new in 0..nb {
        let old = perm[new];
        row_ptr[new + 1] = row_ptr[new] + (a.row_ptr()[old + 1] - a.row_ptr()[old]);
    }
    let nnzb = a.nnz_blocks();
    let mut col_idx = vec![0u32; nnzb];
    let mut blocks = vec![Block3::ZERO; nnzb];
    let mut entry: Vec<(u32, Block3)> = Vec::new();
    for new in 0..nb {
        let old = perm[new];
        let (cols, blks) = a.block_row(old);
        entry.clear();
        entry.extend(
            cols.iter().zip(blks).map(|(c, b)| (inv[*c as usize] as u32, *b)),
        );
        entry.sort_unstable_by_key(|&(c, _)| c);
        let base = row_ptr[new];
        for (k, (c, b)) in entry.iter().enumerate() {
            col_idx[base + k] = *c;
            blocks[base + k] = *b;
        }
    }
    BcrsMatrix::from_parts(nb, nb, row_ptr, col_idx, blocks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::BlockTripletBuilder;

    /// A ring lattice: each block row couples to its two neighbours.
    fn ring(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
        }
        for i in 0..nb {
            t.add_symmetric_pair(i, (i + 1) % nb, Block3::scaled_identity(-1.0));
        }
        t.build()
    }

    /// `perm[new] = old` visiting the rows with stride 5 (coprime with 16).
    fn strided(nb: usize) -> Vec<usize> {
        (0..nb).map(|i| (5 * i + 3) % nb).collect()
    }

    #[test]
    fn permutation_preserves_spmv_up_to_reordering() {
        let a = ring(16);
        let n = a.n_rows();
        let perm = strided(16);
        let b = permute_symmetric(&a, &perm);

        let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        // permuted x: xb[new block] = x[old block]
        let mut xb = vec![0.0; n];
        for (new, &old) in perm.iter().enumerate() {
            xb[3 * new..3 * new + 3].copy_from_slice(&x[3 * old..3 * old + 3]);
        }
        let mut y = vec![0.0; n];
        let mut yb = vec![0.0; n];
        crate::gspmv::spmv(&a, &x, &mut y);
        crate::gspmv::spmv(&b, &xb, &mut yb);
        for (new, &old) in perm.iter().enumerate() {
            for k in 0..3 {
                assert!((yb[3 * new + k] - y[3 * old + k]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn permutation_preserves_symmetry() {
        let a = ring(16);
        let b = permute_symmetric(&a, &strided(16));
        assert!(b.is_symmetric_within(0.0));
        assert_eq!(b.nnz_blocks(), a.nnz_blocks());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        let a = ring(4);
        permute_symmetric(&a, &[0, 0, 1, 2]);
    }
}
