//! Row-partitioned matrix with halo bookkeeping.
//!
//! After partitioning, the global matrix is permuted so each node owns
//! a contiguous block-row range, and each node's rows are split into
//! *two* local matrices — the structure the overlap discipline of
//! §IV-A2 needs at execution time:
//!
//! * `a_local`: the blocks whose columns the node owns. Multiplying by
//!   it needs no communication, so it runs while the halo is in flight.
//! * `a_remote`: the blocks referencing off-node columns, rewritten
//!   onto the compact halo index space (one column per distinct remote
//!   block row, sorted). It runs once the halo has arrived.
//!
//! Off-node columns appear once in the halo regardless of how many
//! local rows reference them — the deduplication that makes
//! communication volume scale with the partition surface, not with nnz.
//!
//! Communication *plans* are precomputed here too, once, at
//! construction: for every node, which peers it receives from (and
//! which rows), and — the inversion of that — which peers it must send
//! to. Executors ([`crate::exchange`], [`crate::engine`]) only read
//! these cached plans; nothing is recomputed per multiply.

use mrhs_sparse::partition::Partition;
use mrhs_sparse::reorder::permute_symmetric;
use mrhs_sparse::{BcrsMatrix, Block3};
use std::ops::Range;

/// A halo transfer plan: `(peer, rows)` pairs, with rows in ascending
/// global (permuted) block-row order within each peer.
pub type CommPlan = Vec<(usize, Vec<usize>)>;

/// One node's slice of the matrix.
#[derive(Clone, Debug)]
pub struct NodeMatrix {
    /// Global (permuted) block rows owned: `range.start..range.end`.
    pub rows: Range<usize>,
    /// Blocks on owned columns: `rows.len()` block rows ×
    /// `rows.len()` block columns in local indexing (own col `c` maps
    /// to `c − rows.start`). The overlappable part of the multiply.
    pub a_local: BcrsMatrix,
    /// Blocks on halo columns: `rows.len()` block rows ×
    /// `halo.len()` block columns (halo col at halo index `h` maps to
    /// `h`). Applied after the halo arrives.
    pub a_remote: BcrsMatrix,
    /// Global (permuted) block rows this node must receive, sorted.
    pub halo: Vec<usize>,
    /// Count of stored blocks whose column is owned locally (the part
    /// of the multiply that can overlap communication).
    pub nnzb_local: usize,
    /// Count of stored blocks referencing halo columns.
    pub nnzb_remote: usize,
}

impl NodeMatrix {
    /// Total stored blocks across both parts.
    pub fn nnz_blocks(&self) -> usize {
        self.nnzb_local + self.nnzb_remote
    }
}

/// A matrix distributed over `n_nodes` row partitions.
#[derive(Clone, Debug)]
pub struct DistributedMatrix {
    nodes: Vec<NodeMatrix>,
    /// `perm[new] = old` mapping from permuted to original block rows.
    perm: Vec<usize>,
    nb: usize,
    /// `range_starts[p] = nodes[p].rows.start` — non-decreasing, used
    /// for O(log p) ownership lookups.
    range_starts: Vec<usize>,
    /// Per node: which peers send to it, and which rows (cached).
    recv_plans: Vec<CommPlan>,
    /// Per node: which peers it must send to, and which rows (the
    /// inversion of `recv_plans`, cached).
    send_plans: Vec<CommPlan>,
}

impl DistributedMatrix {
    /// Partitions and permutes `a` (square, symmetric pattern assumed)
    /// according to `partition`.
    pub fn new(a: &BcrsMatrix, partition: &Partition) -> Self {
        assert_eq!(a.nb_rows(), a.nb_cols());
        let perm = partition.permutation();
        let permuted = permute_symmetric(a, &perm);
        let nb = permuted.nb_rows();

        // Contiguous ranges per node in the permuted ordering.
        let mut ranges: Vec<Range<usize>> = Vec::new();
        {
            let parts = partition.parts();
            let mut start = 0usize;
            for p in &parts {
                ranges.push(start..start + p.len());
                start += p.len();
            }
            assert_eq!(start, nb);
        }

        let nodes: Vec<NodeMatrix> = ranges
            .iter()
            .map(|range| build_node(&permuted, range.clone()))
            .collect();

        let range_starts: Vec<usize> = nodes.iter().map(|n| n.rows.start).collect();

        // Receive plans: one binary search per halo row. Halo rows are
        // sorted and node ranges are contiguous, so owners come out
        // grouped; still, group defensively by owner.
        let p = nodes.len();
        let recv_plans: Vec<CommPlan> = nodes
            .iter()
            .enumerate()
            .map(|(q, node)| {
                let mut plan: CommPlan = Vec::new();
                for &row in &node.halo {
                    let owner = owner_from_starts(&range_starts, nb, row);
                    debug_assert_ne!(owner, q);
                    match plan.last_mut() {
                        Some((peer, rows)) if *peer == owner => rows.push(row),
                        _ => plan.push((owner, vec![row])),
                    }
                }
                plan
            })
            .collect();

        // Send plans: invert the receive plans once.
        let mut send_plans: Vec<CommPlan> = vec![Vec::new(); p];
        for (dst, plan) in recv_plans.iter().enumerate() {
            for (src, rows) in plan {
                send_plans[*src].push((dst, rows.clone()));
            }
        }

        DistributedMatrix { nodes, perm, nb, range_starts, recv_plans, send_plans }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Global block-row count.
    pub fn nb_rows(&self) -> usize {
        self.nb
    }

    /// Per-node slices.
    pub fn nodes(&self) -> &[NodeMatrix] {
        &self.nodes
    }

    /// The permutation applied (`perm[new] = old`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// The node owning permuted block row `row` — O(log p) binary
    /// search over the contiguous range starts.
    pub fn owner_of(&self, row: usize) -> usize {
        owner_from_starts(&self.range_starts, self.nb, row)
    }

    /// For node `p`: the halo rows grouped by owning peer, as
    /// `(peer, rows)` with rows in the order they appear in `halo`.
    /// Cached at construction.
    pub fn recv_plan(&self, p: usize) -> &[(usize, Vec<usize>)] {
        &self.recv_plans[p]
    }

    /// For node `p`: the owned rows it must ship, grouped by
    /// destination peer, as `(peer, rows)`. Cached at construction
    /// (the inversion of the receive plans).
    pub fn send_plan(&self, p: usize) -> &[(usize, Vec<usize>)] {
        &self.send_plans[p]
    }

    /// Total halo entries (block rows) each node receives; index = node.
    pub fn recv_volumes(&self) -> Vec<usize> {
        self.nodes.iter().map(|n| n.halo.len()).collect()
    }
}

/// Binary search for the owner of `row` among contiguous, possibly
/// empty ranges described by their starts. Among nodes tied on the same
/// start, all but the last are empty, and `partition_point` lands on
/// the last — the only one that can own anything.
fn owner_from_starts(starts: &[usize], nb: usize, row: usize) -> usize {
    assert!(row < nb, "row {row} out of range (nb = {nb})");
    starts.partition_point(|&s| s <= row) - 1
}

fn build_node(permuted: &BcrsMatrix, rows: Range<usize>) -> NodeMatrix {
    let sub = permuted.submatrix(rows.clone());
    let own = rows.len();

    // Collect sorted unique halo columns.
    let mut halo: Vec<usize> = sub
        .col_idx()
        .iter()
        .map(|&c| c as usize)
        .filter(|c| !rows.contains(c))
        .collect();
    halo.sort_unstable();
    halo.dedup();

    // Split each row's blocks: own col c → c − rows.start into
    // `a_local`; halo col → its halo index into `a_remote`. Column
    // order within a row is preserved from the (sorted) submatrix, so
    // both parts come out column-sorted.
    let mut local_row_ptr = vec![0usize; own + 1];
    let mut local_cols: Vec<u32> = Vec::new();
    let mut local_blocks: Vec<Block3> = Vec::new();
    let mut remote_row_ptr = vec![0usize; own + 1];
    let mut remote_cols: Vec<u32> = Vec::new();
    let mut remote_blocks: Vec<Block3> = Vec::new();
    for bi in 0..own {
        let (cols, blks) = sub.block_row(bi);
        for (c, b) in cols.iter().zip(blks) {
            let c = *c as usize;
            if rows.contains(&c) {
                local_cols.push((c - rows.start) as u32);
                local_blocks.push(*b);
            } else {
                let h = halo.binary_search(&c).unwrap();
                remote_cols.push(h as u32);
                remote_blocks.push(*b);
            }
        }
        local_row_ptr[bi + 1] = local_cols.len();
        remote_row_ptr[bi + 1] = remote_cols.len();
    }
    let nnzb_local = local_cols.len();
    let nnzb_remote = remote_cols.len();
    let a_local =
        BcrsMatrix::from_parts(own, own, local_row_ptr, local_cols, local_blocks);
    let a_remote = BcrsMatrix::from_parts(
        own,
        halo.len(),
        remote_row_ptr,
        remote_cols,
        remote_blocks,
    );
    NodeMatrix { rows, a_local, a_remote, halo, nnzb_local, nnzb_remote }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::partition::contiguous_partition;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    fn chain(nb: usize) -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < nb {
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-1.0));
            }
        }
        t.build()
    }

    #[test]
    fn chain_halo_is_partition_boundary() {
        let a = chain(16);
        let part = contiguous_partition(&a, 4);
        let dm = DistributedMatrix::new(&a, &part);
        assert_eq!(dm.n_nodes(), 4);
        // interior nodes need one row from each side
        assert_eq!(dm.nodes()[1].halo.len(), 2);
        // end nodes need one
        assert_eq!(dm.nodes()[0].halo.len(), 1);
        assert_eq!(dm.nodes()[3].halo.len(), 1);
    }

    #[test]
    fn local_matrices_cover_all_blocks() {
        let a = chain(20);
        let part = contiguous_partition(&a, 3);
        let dm = DistributedMatrix::new(&a, &part);
        let total: usize = dm.nodes().iter().map(|n| n.nnz_blocks()).sum();
        assert_eq!(total, a.nnz_blocks());
        for n in dm.nodes() {
            assert_eq!(n.nnzb_local, n.a_local.nnz_blocks());
            assert_eq!(n.nnzb_remote, n.a_remote.nnz_blocks());
            assert_eq!(n.a_local.nb_cols(), n.rows.len(), "own column space");
            assert_eq!(n.a_remote.nb_cols(), n.halo.len(), "halo column space");
        }
    }

    #[test]
    fn recv_plan_points_at_true_owners() {
        let a = chain(12);
        let part = contiguous_partition(&a, 3);
        let dm = DistributedMatrix::new(&a, &part);
        for p in 0..3 {
            for (peer, rows) in dm.recv_plan(p) {
                assert_ne!(*peer, p);
                for r in rows {
                    assert!(dm.nodes()[*peer].rows.contains(r));
                }
            }
        }
    }

    #[test]
    fn send_plan_is_inverse_of_recv_plan() {
        let a = chain(18);
        let part = contiguous_partition(&a, 4);
        let dm = DistributedMatrix::new(&a, &part);
        for src in 0..4 {
            for (dst, rows) in dm.send_plan(src) {
                // every shipped row is owned by src …
                for r in rows {
                    assert!(dm.nodes()[src].rows.contains(r));
                }
                // … and appears verbatim in dst's receive plan for src.
                let recv = dm
                    .recv_plan(*dst)
                    .iter()
                    .find(|(peer, _)| *peer == src)
                    .expect("matching recv entry");
                assert_eq!(&recv.1, rows);
            }
        }
    }

    #[test]
    fn single_node_has_no_halo() {
        let a = chain(10);
        let part = contiguous_partition(&a, 1);
        let dm = DistributedMatrix::new(&a, &part);
        assert!(dm.nodes()[0].halo.is_empty());
        assert_eq!(dm.nodes()[0].nnzb_remote, 0);
        assert!(dm.recv_plan(0).is_empty());
        assert!(dm.send_plan(0).is_empty());
    }

    #[test]
    fn owner_of_is_consistent_with_ranges() {
        let a = chain(9);
        let part = contiguous_partition(&a, 3);
        let dm = DistributedMatrix::new(&a, &part);
        for row in 0..9 {
            let p = dm.owner_of(row);
            assert!(dm.nodes()[p].rows.contains(&row));
        }
    }

    #[test]
    fn owner_of_skips_empty_partitions() {
        // More nodes than block rows: some partitions are empty and
        // share identical (empty) row ranges — ownership must still
        // resolve to the node that actually holds each row.
        let a = chain(3);
        let assignment = vec![0u32, 2, 4];
        let part = Partition::from_assignment(5, assignment);
        let dm = DistributedMatrix::new(&a, &part);
        assert_eq!(dm.n_nodes(), 5);
        for row in 0..3 {
            let p = dm.owner_of(row);
            assert!(
                dm.nodes()[p].rows.contains(&row),
                "row {row} resolved to node {p} with range {:?}",
                dm.nodes()[p].rows
            );
            assert!(!dm.nodes()[p].rows.is_empty());
        }
    }
}
