//! Multi-node MRHS projection — the experiment the paper leaves for the
//! future ("we do not currently have a distributed memory SD simulation
//! code", §V-A), composed from two pieces it *does* validate: the
//! cluster GSPMV time model (Figs. 3–4) and the Eq. 9 step-time
//! decomposition. Every solver iteration costs one distributed GSPMV,
//! so substituting the cluster `T(m, p)` into Eq. 9 predicts the MRHS
//! speedup at any node count.

use crate::distmat::DistributedMatrix;
use crate::sim::ClusterGspmvModel;
use mrhs_perfmodel::mrhs_model::SolveCounts;

/// Eq. 9 evaluated with distributed GSPMV times, projected to a problem
/// `scale` times larger (see [`crate::sim::NodeShape::scaled`]).
#[derive(Clone, Copy, Debug)]
pub struct ClusterMrhsModel {
    /// The distributed GSPMV time model.
    pub gspmv: ClusterGspmvModel,
    /// Measured (or assumed) iteration counts.
    pub counts: SolveCounts,
    /// Fraction of the cold iteration count the auxiliary block solve
    /// runs (the driver stops it at `guess_tol`; 2/3 for 1e-4 vs 1e-6).
    pub block_fraction: f64,
}

impl ClusterMrhsModel {
    /// Average per-step time of the MRHS algorithm on `dm`'s partition
    /// layout with `m` right-hand sides. Differs from
    /// [`SolveCounts::tmrhs`] on purpose, following the driver: every
    /// step, the head included, pays a warm first solve (`m·N₁`), and
    /// the block solve stops at `guess_tol` (`block_fraction`).
    pub fn tmrhs(&self, dm: &DistributedMatrix, m: usize, scale: f64) -> f64 {
        assert!(m >= 1);
        let t1 = self.gspmv.time_scaled(dm, 1, scale);
        let t_m = self.gspmv.time_scaled(dm, m, scale);
        let c = &self.counts;
        let block = (c.cold as f64 * self.block_fraction).max(1.0);
        let (n1, n2, cmax) =
            (c.warm_first as f64, c.warm_second as f64, c.cheb_order as f64);
        let mf = m as f64;
        ((block + cmax) * t_m + (mf * n1 + mf * n2 + (mf - 1.0) * cmax) * t1) / mf
    }

    /// Average per-step time of the original algorithm on the cluster.
    pub fn toriginal(&self, dm: &DistributedMatrix, scale: f64) -> f64 {
        self.counts.toriginal(self.gspmv.time_scaled(dm, 1, scale))
    }

    /// Predicted MRHS speedup at the Eq. 9-optimal `m ≤ max_m`.
    pub fn predicted_speedup(
        &self,
        dm: &DistributedMatrix,
        max_m: usize,
        scale: f64,
    ) -> (usize, f64) {
        let m_best = (1..=max_m.max(1))
            .min_by(|&a, &b| {
                self.tmrhs(dm, a, scale)
                    .partial_cmp(&self.tmrhs(dm, b, scale))
                    .unwrap()
            })
            .unwrap();
        (m_best, self.toriginal(dm, scale) / self.tmrhs(dm, m_best, scale))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::partition::contiguous_partition;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    fn banded(nb: usize, band: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            for d in 1..=band {
                if i + d < nb {
                    t.add_symmetric_pair(i, i + d, Block3::scaled_identity(-0.1));
                }
            }
        }
        t.build()
    }

    fn model() -> ClusterMrhsModel {
        ClusterMrhsModel {
            gspmv: ClusterGspmvModel::paper_cluster(),
            counts: SolveCounts::fig7(),
            block_fraction: 2.0 / 3.0,
        }
    }

    fn dm(nodes: usize) -> DistributedMatrix {
        let a = banded(2_000, 12);
        DistributedMatrix::new(&a, &contiguous_partition(&a, nodes))
    }

    #[test]
    fn single_node_speedup_in_paper_band() {
        let (m, s) = model().predicted_speedup(&dm(1), 32, 150.0);
        assert!(m >= 4, "optimal m {m}");
        assert!(s > 1.0 && s < 2.0, "speedup {s}");
    }

    #[test]
    fn speedup_survives_at_scale_out() {
        // At 64 nodes GSPMV is latency-dominated and extra vectors are
        // nearly free (Fig. 3/4): MRHS remains profitable and its
        // optimal m grows or holds.
        let md = model();
        let (m1, s1) = md.predicted_speedup(&dm(1), 32, 150.0);
        let (m64, s64) = md.predicted_speedup(&dm(64), 32, 150.0);
        assert!(s64 > 1.0, "64-node speedup {s64}");
        assert!(m64 >= m1, "optimal m should not shrink: {m1} -> {m64}");
        assert!(s64 >= s1 * 0.8, "{s1} -> {s64}");
    }

    #[test]
    fn tmrhs_at_optimum_below_original() {
        let md = model();
        let d = dm(16);
        let (m, _) = md.predicted_speedup(&d, 32, 150.0);
        assert!(md.tmrhs(&d, m, 150.0) < md.toriginal(&d, 150.0));
    }
}
