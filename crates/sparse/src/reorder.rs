//! Reverse Cuthill–McKee reordering and symmetric permutation.
//!
//! Ordering is one of the classical SPMV optimizations the paper cites
//! (Pinar & Heath); reducing bandwidth improves the reuse of `x` rows
//! across consecutive block rows (shrinks `k(m)` in the performance
//! model). The ablation bench measures its effect on the SD matrices.

use crate::bcrs::BcrsMatrix;
use crate::block::Block3;
use std::collections::VecDeque;

/// Computes a reverse Cuthill–McKee ordering of the block graph of `a`.
/// Returns `perm` with `perm[new] = old`. Disconnected components are
/// each started from a minimum-degree vertex.
pub fn reverse_cuthill_mckee(a: &BcrsMatrix) -> Vec<usize> {
    assert_eq!(a.nb_rows(), a.nb_cols(), "RCM requires a square matrix");
    let nb = a.nb_rows();
    let degree = |bi: usize| -> usize { a.row_ptr()[bi + 1] - a.row_ptr()[bi] };

    let mut visited = vec![false; nb];
    let mut order = Vec::with_capacity(nb);
    let mut queue = VecDeque::new();
    let mut neighbors: Vec<usize> = Vec::new();

    // Vertices sorted by degree serve as component seeds.
    let mut seeds: Vec<usize> = (0..nb).collect();
    seeds.sort_by_key(|&bi| degree(bi));

    for &seed in &seeds {
        if visited[seed] {
            continue;
        }
        visited[seed] = true;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            neighbors.clear();
            let (cols, _) = a.block_row(v);
            for &c in cols {
                let u = c as usize;
                if u != v && !visited[u] {
                    visited[u] = true;
                    neighbors.push(u);
                }
            }
            neighbors.sort_by_key(|&u| degree(u));
            for &u in &neighbors {
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    order
}

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

/// The (block) bandwidth of `a`: max over stored blocks of `|row − col|`.
pub fn bandwidth(a: &BcrsMatrix) -> usize {
    let mut bw = 0usize;
    for bi in 0..a.nb_rows() {
        let (cols, _) = a.block_row(bi);
        for &c in cols {
            bw = bw.max(bi.abs_diff(c as usize));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triplet::BlockTripletBuilder;

    /// A ring lattice numbered so its natural order has large bandwidth.
    fn shuffled_ring(nb: usize) -> BcrsMatrix {
        // Connect i to i+1 in a *shuffled* labelling: label = bit-reversed.
        let bits = nb.next_power_of_two().trailing_zeros();
        let relabel = |i: usize| -> usize {
            let mut r = (i as u32).reverse_bits() >> (32 - bits);
            while r as usize >= nb {
                r /= 2;
            }
            r as usize
        };
        let mut t = BlockTripletBuilder::square(nb);
        let mut seen = std::collections::HashSet::new();
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
        }
        for i in 0..nb {
            let (a, b) = (relabel(i), relabel((i + 1) % nb));
            if a != b && seen.insert((a.min(b), a.max(b))) {
                t.add_symmetric_pair(a, b, Block3::scaled_identity(-1.0));
            }
        }
        t.build()
    }

    #[test]
    fn rcm_is_a_permutation() {
        let a = shuffled_ring(32);
        let perm = reverse_cuthill_mckee(&a);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn rcm_reduces_bandwidth() {
        let a = shuffled_ring(64);
        let before = bandwidth(&a);
        let perm = reverse_cuthill_mckee(&a);
        let b = permute_symmetric(&a, &perm);
        let after = bandwidth(&b);
        assert!(after <= before, "bandwidth {before} -> {after}");
        assert!(after < 64 / 2, "ring should order near-linearly, got {after}");
    }

    #[test]
    fn permutation_preserves_spmv_up_to_reordering() {
        let a = shuffled_ring(16);
        let n = a.n_rows();
        let perm = reverse_cuthill_mckee(&a);
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
        let a = shuffled_ring(16);
        let perm = reverse_cuthill_mckee(&a);
        let b = permute_symmetric(&a, &perm);
        assert!(b.is_symmetric_within(0.0));
        assert_eq!(b.nnz_blocks(), a.nnz_blocks());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn permute_rejects_duplicates() {
        let a = shuffled_ring(4);
        permute_symmetric(&a, &[0, 0, 1, 2]);
    }
}
