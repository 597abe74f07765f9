//! Time model of distributed GSPMV (Fig. 3, Fig. 4, Table III).
//!
//! Matches the paper's implementation structure (§IV-A2): each node
//! overlaps its halo communication with the multiply by the *local*
//! part of its matrix (columns it owns), then multiplies the remote
//! part once the halo has arrived. A node's time is therefore
//!
//! ```text
//!   t(p) = max(t_comm(p), t_local(p)) + t_remote(p)
//! ```
//!
//! with per-node compute from the Eq. 8 model and communication as
//! serialized `latency + bytes/bandwidth` message costs. The cluster
//! time is the slowest node (GSPMV has a global synchronization at the
//! next iteration's reduction).

use crate::distmat::DistributedMatrix;
use crate::network::NetworkModel;
use mrhs_perfmodel::machine::MachineProfile;
use mrhs_perfmodel::model::GspmvModel;

/// Modeled per-node timing of one distributed GSPMV.
#[derive(Clone, Copy, Debug, Default)]
pub struct NodeTime {
    /// Multiply by locally-owned columns (overlappable).
    pub compute_local: f64,
    /// Multiply by halo columns (after communication completes).
    pub compute_remote: f64,
    /// Halo receive time.
    pub comm: f64,
    /// `max(comm, compute_local) + compute_remote`.
    pub total: f64,
}

impl NodeTime {
    /// Fraction of this node's activity that is communication,
    /// `comm / (comm + compute)` — the quantity of Table III.
    pub fn comm_fraction(&self) -> f64 {
        let compute = self.compute_local + self.compute_remote;
        if self.comm + compute == 0.0 {
            0.0
        } else {
            self.comm / (self.comm + compute)
        }
    }
}

/// The shape quantities of one node that the time model consumes.
/// Obtained from a real [`DistributedMatrix`] or scaled from one: rows
/// and non-zeros grow linearly with problem size, halos (partition
/// surfaces) with its ⅔ power, and the peer count stays fixed.
#[derive(Clone, Debug)]
pub struct NodeShape {
    /// Owned block rows.
    pub rows: f64,
    /// Stored blocks on owned columns (overlappable compute).
    pub nnzb_local: f64,
    /// Stored blocks on halo columns.
    pub nnzb_remote: f64,
    /// Halo block rows received from each peer (one entry per message).
    pub message_rows: Vec<f64>,
}

impl NodeShape {
    /// Extracts the shape of node `p`.
    pub fn of(dm: &DistributedMatrix, p: usize) -> Self {
        let node = &dm.nodes()[p];
        NodeShape {
            rows: node.rows.len() as f64,
            nnzb_local: node.nnzb_local as f64,
            nnzb_remote: node.nnzb_remote as f64,
            message_rows: dm
                .recv_plan(p)
                .iter()
                .map(|(_, rows)| rows.len() as f64)
                .collect(),
        }
    }

    /// Projects this shape to a problem `factor` times larger: volume
    /// quantities scale linearly, surface quantities (halo rows and the
    /// blocks touching them) by `factor^(2/3)`.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0);
        let surface = factor.powf(2.0 / 3.0);
        NodeShape {
            rows: self.rows * factor,
            nnzb_local: self.nnzb_local * factor,
            nnzb_remote: self.nnzb_remote * surface,
            message_rows: self.message_rows.iter().map(|&r| r * surface).collect(),
        }
    }

    fn halo_rows(&self) -> f64 {
        self.message_rows.iter().sum()
    }
}

/// The cluster model: per-node machine plus interconnect.
#[derive(Clone, Copy, Debug)]
pub struct ClusterGspmvModel {
    /// Per-node machine parameters.
    pub machine: MachineProfile,
    /// Interconnect parameters.
    pub network: NetworkModel,
    /// Effective software cost per received message (seconds), on top
    /// of the wire latency: MPI matching/progression and the gather of
    /// elements to be communicated. The paper's Table III shows
    /// communication consuming 88–97% of GSPMV at 32–64 nodes and
    /// "mainly consumed by message-passing latency" — far above what
    /// 1.5 µs of wire latency alone explains — so this term carries the
    /// measured per-message software overhead. Calibrated to 30 µs,
    /// which reproduces the Table III fractions and the Fig. 3/4
    /// flattening of `r(m)` at 64 nodes.
    pub per_message_overhead: f64,
}

impl ClusterGspmvModel {
    /// The paper's cluster: 2.9 GHz WSM nodes on InfiniBand (one socket
    /// used per node).
    pub fn paper_cluster() -> Self {
        ClusterGspmvModel {
            machine: MachineProfile::wsm_cluster_node(),
            network: NetworkModel::infiniband(),
            per_message_overhead: 30e-6,
        }
    }

    /// Models one node, described by its shape quantities
    /// ([`NodeShape::of`] a real partition, or [`NodeShape::scaled`] to
    /// project it), for one GSPMV with `m` vectors.
    pub fn node_time(&self, shape: &NodeShape, m: usize) -> NodeTime {
        let local_model = GspmvModel {
            nb: shape.rows,
            nnzb: shape.nnzb_local,
            machine: self.machine,
        };
        // The remote part streams its blocks plus the received halo
        // values; the halo rows stand in for `nb` in the traffic term.
        let remote_model = GspmvModel {
            nb: shape.halo_rows(),
            nnzb: shape.nnzb_remote,
            machine: self.machine,
        };
        let compute_local = local_model.time(m);
        let compute_remote =
            if shape.nnzb_remote == 0.0 { 0.0 } else { remote_model.time(m) };

        let message_bytes: Vec<usize> = shape
            .message_rows
            .iter()
            .map(|&rows| (rows * (3 * m * 8) as f64) as usize)
            .collect();
        let comm = self.network.receive_time(&message_bytes)
            + message_bytes.len() as f64 * self.per_message_overhead;

        NodeTime {
            compute_local,
            compute_remote,
            comm,
            total: comm.max(compute_local) + compute_remote,
        }
    }

    /// Every node of `dm`, projected to a problem `factor` times larger
    /// (see [`NodeShape::scaled`]; a factor of 1.0 is `dm` itself).
    fn node_times<'a>(
        &'a self,
        dm: &'a DistributedMatrix,
        m: usize,
        factor: f64,
    ) -> impl Iterator<Item = NodeTime> + 'a {
        (0..dm.n_nodes())
            .map(move |p| self.node_time(&NodeShape::of(dm, p).scaled(factor), m))
    }

    /// Cluster time of one GSPMV at projection `factor`: the slowest
    /// node.
    pub fn time(&self, dm: &DistributedMatrix, m: usize, factor: f64) -> f64 {
        self.node_times(dm, m, factor).map(|t| t.total).fold(0.0, f64::max)
    }

    /// Relative time `r(m, p) = T(m)/T(1)` on this node count at
    /// projection `factor`.
    pub fn relative_time(
        &self,
        dm: &DistributedMatrix,
        m: usize,
        factor: f64,
    ) -> f64 {
        self.time(dm, m, factor) / self.time(dm, 1, factor)
    }

    /// Communication fraction at the slowest node (Table III) at
    /// projection `factor`.
    pub fn comm_fraction(
        &self,
        dm: &DistributedMatrix,
        m: usize,
        factor: f64,
    ) -> f64 {
        self.node_times(dm, m, factor)
            .max_by(|a, b| a.total.partial_cmp(&b.total).unwrap())
            .map(|t| t.comm_fraction())
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::partition::contiguous_partition;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    /// A banded matrix standing in for an SD matrix slice: `nb` block
    /// rows, ~2·band stored blocks per row.
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

    fn dm(nb: usize, band: usize, nodes: usize) -> DistributedMatrix {
        let a = banded(nb, band);
        let part = contiguous_partition(&a, nodes);
        DistributedMatrix::new(&a, &part)
    }

    #[test]
    fn single_node_matches_serial_model() {
        let d = dm(4000, 12, 1);
        let model = ClusterGspmvModel::paper_cluster();
        let t = model.node_time(&NodeShape::of(&d, 0), 8);
        assert_eq!(t.comm, 0.0);
        assert_eq!(t.compute_remote, 0.0);
        assert!(t.total > 0.0);
    }

    /// A projection factor of 1.0 is the partition itself, bit for bit,
    /// so the one `time`/`relative_time`/`comm_fraction` at 1.0 is the
    /// unscaled model.
    #[test]
    fn unit_projection_is_the_shape_itself() {
        let d = dm(4000, 12, 8);
        for p in 0..8 {
            let (a, b) = (NodeShape::of(&d, p), NodeShape::of(&d, p).scaled(1.0));
            assert_eq!(a.rows.to_bits(), b.rows.to_bits());
            assert_eq!(a.nnzb_local.to_bits(), b.nnzb_local.to_bits());
            assert_eq!(a.nnzb_remote.to_bits(), b.nnzb_remote.to_bits());
            let bits = |s: &NodeShape| -> Vec<u64> {
                s.message_rows.iter().map(|r| r.to_bits()).collect()
            };
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn comm_fraction_grows_with_node_count() {
        // Table III's mechanism: more nodes ⇒ less compute per node but
        // latency-bound communication ⇒ larger communication fraction.
        let model = ClusterGspmvModel::paper_cluster();
        let f8 = model.comm_fraction(&dm(20_000, 3, 8), 1, 1.0);
        let f64_ = model.comm_fraction(&dm(20_000, 3, 64), 1, 1.0);
        assert!(f64_ > f8, "fraction must grow: {f8} -> {f64_}");
        assert!(f64_ > 0.5, "64 nodes should be comm-dominated: {f64_}");
    }

    #[test]
    fn comm_fraction_falls_with_m() {
        // Table III row trend: more vectors amortize latency.
        let model = ClusterGspmvModel::paper_cluster();
        let d = dm(20_000, 3, 32);
        let f1 = model.comm_fraction(&d, 1, 1.0);
        let f32 = model.comm_fraction(&d, 32, 1.0);
        assert!(f32 < f1, "{f1} -> {f32}");
    }

    #[test]
    fn relative_time_flattens_at_many_nodes() {
        // Fig. 3/4: at 64 nodes communication latency dominates, so the
        // marginal cost of extra vectors is smaller than on few nodes.
        let model = ClusterGspmvModel::paper_cluster();
        let d1 = dm(20_000, 3, 1);
        let d64 = dm(20_000, 3, 64);
        let r1 = model.relative_time(&d1, 16, 1.0);
        let r64 = model.relative_time(&d64, 16, 1.0);
        assert!(
            r64 < r1,
            "r(16) should drop at scale: single {r1}, 64 nodes {r64}"
        );
    }

    #[test]
    fn relative_time_monotone_in_m() {
        let model = ClusterGspmvModel::paper_cluster();
        let d = dm(8_000, 6, 16);
        let mut last = 0.0;
        for m in [1usize, 2, 4, 8, 16, 32] {
            let r = model.relative_time(&d, m, 1.0);
            assert!(r >= last * 0.999, "m={m}: {r} < {last}");
            last = r;
        }
    }

    #[test]
    fn total_respects_overlap_formula() {
        let model = ClusterGspmvModel::paper_cluster();
        let d = dm(5_000, 4, 8);
        for p in 0..8 {
            let t = model.node_time(&NodeShape::of(&d, p), 4);
            assert!(
                (t.total - (t.comm.max(t.compute_local) + t.compute_remote)).abs()
                    < 1e-15
            );
        }
    }
}
