//! The multi-node MRHS projection (beyond the paper's evaluation — the
//! distributed SD code it defers). Not a model of its own: it feeds the
//! cluster GSPMV curve [`ClusterGspmvModel::time`] to `perfmodel`'s
//! Eq. 9 (`SolveCounts::{tmrhs, toriginal}`) and its one minimizer,
//! `optimal_m_from_costs`. Every solver iteration is one distributed
//! GSPMV, so the cluster time substitutes for Eq. 8's.

use crate::distmat::DistributedMatrix;
use crate::sim::ClusterGspmvModel;
use mrhs_perfmodel::mrhs_model::{optimal_m_from_costs, SolveCounts};

/// Widest batch the projection prices.
pub const MAX_M: usize = 32;

/// Eq. 9 over `T(m, p)` for m in 1..=[`MAX_M`], on `dm`'s partition
/// projected by `scale`: `(m*, T_mrhs(m*), T_orig)`. `block` holds the
/// counts of the MRHS algorithm's solves, `counts` those of the
/// original algorithm.
pub fn project(
    model: &ClusterGspmvModel,
    dm: &DistributedMatrix,
    scale: f64,
    counts: &SolveCounts,
    block: &SolveCounts,
) -> (usize, f64, f64) {
    let curve: Vec<(usize, f64)> =
        (1..=MAX_M).map(|m| (m, model.time(dm, m, scale))).collect();
    let m = optimal_m_from_costs(&curve, block);
    (m, block.tmrhs(m, curve[m - 1].1, curve[0].1), counts.toriginal(curve[0].1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::partition::contiguous_partition;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    /// The projection on a banded stand-in for an SD matrix (2,000
    /// block rows, band 12) at scale 150, with the Fig. 7 counts and
    /// the MRHS block solves stopped at 2/3 of the cold iterations:
    /// `(m*, T_mrhs(m*), T_orig)`.
    fn projection(nodes: usize) -> (usize, f64, f64) {
        let mut t = BlockTripletBuilder::square(2_000);
        for i in 0..2_000 {
            t.add(i, i, Block3::scaled_identity(4.0));
            for d in (1..=12).filter(|d| i + d < 2_000) {
                t.add_symmetric_pair(i, i + d, Block3::scaled_identity(-0.1));
            }
        }
        let a = t.build();
        let dm = DistributedMatrix::new(&a, &contiguous_partition(&a, nodes));
        let counts = SolveCounts::fig7();
        let block = SolveCounts {
            cold: (counts.cold as f64 * 2.0 / 3.0).round() as usize,
            ..counts
        };
        project(&ClusterGspmvModel::paper_cluster(), &dm, 150.0, &counts, &block)
    }

    #[test]
    fn single_node_speedup_in_paper_band() {
        let (m, t_mrhs, t_orig) = projection(1);
        let s = t_orig / t_mrhs;
        assert!(m >= 4, "optimal m {m}");
        assert!(s > 1.0 && s < 2.0, "speedup {s}");
    }

    #[test]
    fn speedup_survives_at_scale_out() {
        // At 64 nodes GSPMV is latency-dominated and extra vectors are
        // nearly free (Figs. 3–4): MRHS stays profitable and its
        // optimal m grows or holds.
        let (m1, t1_mrhs, t1_orig) = projection(1);
        let (m64, t64_mrhs, t64_orig) = projection(64);
        let (s1, s64) = (t1_orig / t1_mrhs, t64_orig / t64_mrhs);
        assert!(s64 > 1.0, "64-node speedup {s64}");
        assert!(m64 >= m1, "optimal m should not shrink: {m1} -> {m64}");
        assert!(s64 >= s1 * 0.8, "{s1} -> {s64}");
    }

    #[test]
    fn tmrhs_at_optimum_below_original() {
        let (_, t_mrhs, t_orig) = projection(16);
        assert!(t_mrhs < t_orig, "T_mrhs(m*) {t_mrhs} vs T_orig {t_orig}");
    }
}
