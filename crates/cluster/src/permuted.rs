//! [`DistEngine`] behind the partition permutation.
//!
//! The engine operates in the *permuted* global ordering
//! ([`DistributedMatrix::permutation`], `perm[new] = old`) so each node
//! owns a contiguous block-row range. That is the right ordering for a
//! solver driving the engine directly, but wrong for a serving layer:
//! fleet clients submit right-hand sides in the ordering they built the
//! matrix in and expect solutions back the same way. [`PermutedEngine`]
//! wraps the engine as a [`LinearOperator`] over the **original**
//! ordering — operands are permuted in, results permuted back out, at
//! `O(n·m)` per apply (noise against the multiply itself).

use crate::distmat::DistributedMatrix;
use crate::engine::DistEngine;
use mrhs_solvers::operator::LinearOperator;
use mrhs_sparse::{Block3, MultiVec};

/// A [`DistEngine`] re-indexed to the original (pre-partition) block-row
/// ordering. See the module docs.
pub struct PermutedEngine {
    engine: DistEngine,
    /// `perm[new] = old` block rows, cloned from the engine's matrix.
    perm: Vec<usize>,
}

impl PermutedEngine {
    /// Wraps an engine; the permutation is read off its matrix.
    pub fn new(engine: DistEngine) -> Self {
        let perm = engine.matrix().permutation().to_vec();
        PermutedEngine { engine, perm }
    }

    /// The wrapped engine (permuted ordering).
    pub fn engine(&self) -> &DistEngine {
        &self.engine
    }

    /// The distributed matrix behind the engine.
    pub fn matrix(&self) -> &DistributedMatrix {
        self.engine.matrix()
    }

    /// Original-order operand → engine (permuted) order.
    fn to_engine(&self, x: &MultiVec) -> MultiVec {
        let mut out = MultiVec::zeros(x.n(), x.m());
        for (new_b, &old_b) in self.perm.iter().enumerate() {
            for d in 0..3 {
                out.row_mut(3 * new_b + d).copy_from_slice(x.row(3 * old_b + d));
            }
        }
        out
    }

    /// Engine (permuted) result → original order.
    fn unpermute_from_engine(&self, y_p: &MultiVec, out: &mut MultiVec) {
        for (new_b, &old_b) in self.perm.iter().enumerate() {
            for d in 0..3 {
                out.row_mut(3 * old_b + d).copy_from_slice(y_p.row(3 * new_b + d));
            }
        }
    }
}

impl LinearOperator for PermutedEngine {
    fn dim(&self) -> usize {
        self.engine.scalar_dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let xm = MultiVec::from_vec(x.to_vec());
        let mut ym = MultiVec::zeros(x.len(), 1);
        self.apply_multi(&xm, &mut ym);
        y.copy_from_slice(ym.as_slice());
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        let xp = self.to_engine(x);
        let (yp, _) = self.engine.multiply(&xp);
        self.unpermute_from_engine(&yp, y);
    }

    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        let permuted = self.engine.diagonal_blocks()?;
        let mut original = vec![Block3::ZERO; permuted.len()];
        for (block, &old_b) in permuted.iter().zip(&self.perm) {
            original[old_b] = *block;
        }
        Some(original)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::with_deadline;
    use mrhs_sparse::partition::contiguous_partition;
    use mrhs_sparse::{gspmv_serial, Block3, BlockTripletBuilder, MultiVec};
    use std::time::Duration;

    fn banded(nb: usize) -> mrhs_sparse::BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(6.0));
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
            }
            if i + 3 < nb {
                t.add_symmetric_pair(i, i + 3, Block3::scaled_identity(-0.5));
            }
        }
        t.build()
    }

    fn pseudo(n: usize, m: usize, seed: u64) -> MultiVec {
        let mut state = seed | 1;
        let mut mv = MultiVec::zeros(n, m);
        for v in mv.as_mut_slice() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *v = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        mv
    }

    #[test]
    fn permuted_engine_matches_original_ordering_operator() {
        with_deadline(Duration::from_secs(120), || {
            let a = banded(24);
            let part = contiguous_partition(&a, 3);
            let dm = DistributedMatrix::new(&a, &part);
            let engine = PermutedEngine::new(DistEngine::new(dm));
            for m in [1usize, 4] {
                let x = pseudo(a.n_rows(), m, 7 + m as u64);
                let mut y = MultiVec::zeros(a.n_rows(), m);
                engine.apply_multi(&x, &mut y);
                // Reference in the ORIGINAL ordering — no permutation.
                let mut want = MultiVec::zeros(a.n_rows(), m);
                gspmv_serial(&a, &x, &mut want);
                for (u, v) in y.as_slice().iter().zip(want.as_slice()) {
                    assert!((u - v).abs() < 1e-12, "{u} vs {v}");
                }
            }
        });
    }

    /// Both engine operators forward `diagonal_blocks` — the engine in
    /// its permuted ordering, the wrapper un-permuted — so a block solve
    /// through either takes the iterations it takes on the bare matrix
    /// (in the matching ordering), on a matrix whose diagonal blocks
    /// differ row to row and a partition that interleaves the rows.
    #[test]
    fn each_engine_forwards_diagonal_blocks() {
        use mrhs_solvers::{block_cg, SolveConfig};
        use mrhs_sparse::partition::Partition;
        use mrhs_sparse::reorder::permute_symmetric;

        with_deadline(Duration::from_secs(120), || {
            let nb = 30;
            let mut t = BlockTripletBuilder::square(nb);
            for i in 0..nb {
                // SPD by dominance: the diagonal spans two decades.
                let scale = [3.0, 40.0, 300.0][i % 3] + i as f64;
                let mut d = Block3::scaled_identity(scale);
                *d.get_mut(0, 1) = 0.25 * scale;
                *d.get_mut(1, 0) = 0.25 * scale;
                t.add(i, i, d);
                if i + 1 < nb {
                    t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
                }
                if i + 4 < nb {
                    t.add_symmetric_pair(i, i + 4, Block3::scaled_identity(-0.5));
                }
            }
            let a = t.build();
            let part = Partition::from_assignment(
                3,
                (0..nb).map(|i| (i % 3) as u32).collect(),
            );
            let dm = DistributedMatrix::new(&a, &part);
            let perm = dm.permutation().to_vec();
            assert!(perm.iter().enumerate().any(|(new, &old)| new != old));
            let engine = PermutedEngine::new(DistEngine::new(dm));

            let b = pseudo(a.n_rows(), 4, 19);
            let iterations = |op: &dyn LinearOperator, b: &MultiVec| {
                let mut x = MultiVec::zeros(b.n(), b.m());
                let res = block_cg(op, b, &mut x, &SolveConfig::default());
                assert!(res.converged, "{res:?}");
                res.iterations
            };

            assert_eq!(engine.diagonal_blocks(), Some(a.diagonal_blocks()));
            assert_eq!(
                iterations(&engine, &b),
                iterations(&a, &b),
                "PermutedEngine"
            );

            let permuted = permute_symmetric(&a, &perm);
            assert_eq!(
                engine.engine().diagonal_blocks(),
                Some(permuted.diagonal_blocks())
            );
            let b_perm = engine.to_engine(&b);
            assert_eq!(
                iterations(engine.engine(), &b_perm),
                iterations(&permuted, &b_perm),
                "DistEngine"
            );
        });
    }
}
