//! Row partitioning for distributed GSPMV.
//!
//! The paper (§IV-A2) balances load with a *coordinate-based* scheme:
//! particles are binned on a 3D grid and bins are assigned to partitions
//! so that stored-non-zero counts balance; the result had communication
//! volume and balance comparable to METIS. We implement that scheme
//! (with Morton-ordered bins for locality) plus recursive coordinate
//! bisection (RCB) as the METIS-substitute comparator, and quality
//! metrics (load imbalance, communication volume) used by the ablation
//! bench.

use crate::bcrs::BcrsMatrix;

/// An assignment of block rows to `n_parts` partitions ("nodes").
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    n_parts: usize,
    /// `assignment[block_row] = partition id`.
    assignment: Vec<u32>,
}

impl Partition {
    /// Wraps a raw assignment vector.
    pub fn from_assignment(n_parts: usize, assignment: Vec<u32>) -> Self {
        assert!(n_parts > 0);
        assert!(assignment.iter().all(|&p| (p as usize) < n_parts));
        Partition { n_parts, assignment }
    }

    /// Number of partitions.
    pub fn n_parts(&self) -> usize {
        self.n_parts
    }

    /// Partition of block row `bi`.
    pub fn part_of(&self, bi: usize) -> usize {
        self.assignment[bi] as usize
    }

    /// The assignment array.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Block rows of each partition, in ascending row order.
    pub fn parts(&self) -> Vec<Vec<usize>> {
        let mut parts = vec![Vec::new(); self.n_parts];
        for (bi, &p) in self.assignment.iter().enumerate() {
            parts[p as usize].push(bi);
        }
        parts
    }

    /// A permutation placing each partition's rows contiguously:
    /// `perm[new] = old`.
    pub fn permutation(&self) -> Vec<usize> {
        self.parts().into_iter().flatten().collect()
    }

    /// Load imbalance: max partition nnzb over mean partition nnzb
    /// (1.0 = perfect).
    pub fn load_imbalance(&self, a: &BcrsMatrix) -> f64 {
        assert_eq!(a.nb_rows(), self.assignment.len());
        let mut loads = vec![0usize; self.n_parts];
        for bi in 0..a.nb_rows() {
            loads[self.assignment[bi] as usize] +=
                a.row_ptr()[bi + 1] - a.row_ptr()[bi];
        }
        let max = *loads.iter().max().unwrap_or(&0) as f64;
        let mean = a.nnz_blocks() as f64 / self.n_parts as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }

    /// Total communication volume in *block columns*: for each partition,
    /// the number of distinct off-partition block rows of `x` it must
    /// receive. This scales linearly with `m` in actual bytes, as the
    /// paper notes.
    pub fn communication_volume(&self, a: &BcrsMatrix) -> usize {
        assert_eq!(a.nb_rows(), self.assignment.len());
        let nb = a.nb_rows();
        // For each partition, mark needed remote rows with an epoch array.
        let mut needed = vec![u32::MAX; nb];
        let mut volume = 0usize;
        for bi in 0..nb {
            let p = self.assignment[bi];
            let (cols, _) = a.block_row(bi);
            for &c in cols {
                let cb = c as usize;
                if self.assignment[cb] != p && needed[cb] != p {
                    needed[cb] = p;
                    volume += 1;
                }
            }
        }
        volume
    }
}

/// Contiguous chunking by balanced nnzb — the degenerate 1-D scheme used
/// when no coordinates are available.
pub fn contiguous_partition(a: &BcrsMatrix, n_parts: usize) -> Partition {
    let chunks = crate::gspmv::balanced_row_chunks(a, n_parts);
    let mut assignment = vec![0u32; a.nb_rows()];
    for (p, r) in chunks.iter().enumerate() {
        for bi in r.clone() {
            assignment[bi] = p as u32;
        }
    }
    Partition { n_parts, assignment }
}

/// The paper's coordinate-based partitioner: bin particles on a 3D grid,
/// walk bins in Morton order, and cut into `n_parts` pieces of balanced
/// nnzb. One particle ↔ one block row.
pub fn coordinate_partition(
    a: &BcrsMatrix,
    positions: &[[f64; 3]],
    box_lengths: [f64; 3],
    n_parts: usize,
) -> Partition {
    assert_eq!(positions.len(), a.nb_rows(), "one position per block row");
    assert!(n_parts > 0);
    let nb = a.nb_rows();
    if n_parts == 1 || nb == 0 {
        return Partition { n_parts, assignment: vec![0; nb] };
    }

    // Grid with ~8 bins per partition, power-of-two side for Morton codes.
    let target_bins = (8 * n_parts).max(8);
    let side = (target_bins as f64).powf(1.0 / 3.0).ceil() as u32;
    let side = side.next_power_of_two().min(1 << 10);

    let cell_of = |p: &[f64; 3]| -> [u32; 3] {
        let mut c = [0u32; 3];
        for d in 0..3 {
            let frac = (p[d] / box_lengths[d]).rem_euclid(1.0);
            c[d] = ((frac * side as f64) as u32).min(side - 1);
        }
        c
    };

    // Sort rows by Morton code of their bin (stable within a bin).
    let mut order: Vec<usize> = (0..nb).collect();
    let codes: Vec<u64> = positions.iter().map(|p| morton3(cell_of(p))).collect();
    order.sort_by_key(|&bi| codes[bi]);

    // Greedy balanced cut along the Morton walk.
    let total = a.nnz_blocks();
    let mut assignment = vec![0u32; nb];
    let mut part = 0u32;
    let mut acc = 0usize;
    let mut remaining = total;
    let mut rows_left = nb;
    for &bi in &order {
        let row_nnz = a.row_ptr()[bi + 1] - a.row_ptr()[bi];
        let parts_left = n_parts as u32 - part;
        let target = (remaining as f64 / parts_left as f64).ceil() as usize;
        if acc >= target
            && (part as usize) < n_parts - 1
            && rows_left > (parts_left as usize - 1)
        {
            part += 1;
            remaining -= acc;
            acc = 0;
        }
        assignment[bi] = part;
        acc += row_nnz;
        rows_left -= 1;
    }
    Partition { n_parts, assignment }
}

/// Recursive coordinate bisection on row coordinates with nnzb weights —
/// the METIS substitute used for comparison in the partitioning ablation.
pub fn rcb_partition(
    a: &BcrsMatrix,
    positions: &[[f64; 3]],
    n_parts: usize,
) -> Partition {
    assert_eq!(positions.len(), a.nb_rows());
    assert!(n_parts > 0);
    let nb = a.nb_rows();
    let weights: Vec<usize> =
        (0..nb).map(|bi| a.row_ptr()[bi + 1] - a.row_ptr()[bi]).collect();
    let mut assignment = vec![0u32; nb];
    let all: Vec<usize> = (0..nb).collect();
    rcb_recurse(&all, positions, &weights, 0, n_parts, &mut assignment);
    Partition { n_parts, assignment }
}

fn rcb_recurse(
    rows: &[usize],
    positions: &[[f64; 3]],
    weights: &[usize],
    first_part: usize,
    n_parts: usize,
    assignment: &mut [u32],
) {
    if n_parts == 1 {
        for &r in rows {
            assignment[r] = first_part as u32;
        }
        return;
    }
    // Split along the axis of largest extent.
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for &r in rows {
        for d in 0..3 {
            lo[d] = lo[d].min(positions[r][d]);
            hi[d] = hi[d].max(positions[r][d]);
        }
    }
    let axis = (0..3)
        .max_by(|&a, &b| (hi[a] - lo[a]).partial_cmp(&(hi[b] - lo[b])).unwrap());
    let axis = axis.unwrap_or(0);

    let mut sorted: Vec<usize> = rows.to_vec();
    sorted.sort_by(|&x, &y| {
        positions[x][axis].partial_cmp(&positions[y][axis]).unwrap()
    });

    let left_parts = n_parts / 2;
    let total: usize = sorted.iter().map(|&r| weights[r]).sum();
    let target = total * left_parts / n_parts;
    let mut acc = 0usize;
    let mut cut = 0usize;
    for (i, &r) in sorted.iter().enumerate() {
        if acc >= target && i > 0 {
            cut = i;
            break;
        }
        acc += weights[r];
        cut = i + 1;
    }
    // Keep at least one row on each side when possible.
    let cut = cut.clamp(
        usize::from(sorted.len() > 1),
        sorted.len().saturating_sub(usize::from(sorted.len() > 1)).max(1),
    );
    let (left, right) = sorted.split_at(cut);
    rcb_recurse(left, positions, weights, first_part, left_parts, assignment);
    rcb_recurse(
        right,
        positions,
        weights,
        first_part + left_parts,
        n_parts - left_parts,
        assignment,
    );
}

/// Interleaves the low 21 bits of each coordinate into a Morton code.
fn morton3(c: [u32; 3]) -> u64 {
    fn spread(v: u32) -> u64 {
        let mut x = v as u64 & 0x1f_ffff;
        x = (x | x << 32) & 0x1f00000000ffff;
        x = (x | x << 16) & 0x1f0000ff0000ff;
        x = (x | x << 8) & 0x100f00f00f00f00f;
        x = (x | x << 4) & 0x10c30c30c30c30c3;
        x = (x | x << 2) & 0x1249249249249249;
        x
    }
    spread(c[0]) | spread(c[1]) << 1 | spread(c[2]) << 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block3;
    use crate::triplet::BlockTripletBuilder;

    /// A chain matrix whose rows correspond to points along a line.
    fn chain(nb: usize) -> (BcrsMatrix, Vec<[f64; 3]>) {
        let mut t = BlockTripletBuilder::square(nb);
        for bi in 0..nb {
            t.add(bi, bi, Block3::scaled_identity(2.0));
            if bi + 1 < nb {
                t.add_symmetric_pair(bi, bi + 1, Block3::scaled_identity(-1.0));
            }
        }
        let pos: Vec<[f64; 3]> =
            (0..nb).map(|i| [i as f64 + 0.5, 0.5, 0.5]).collect();
        (t.build(), pos)
    }

    #[test]
    fn morton_orders_locally() {
        assert!(morton3([0, 0, 0]) < morton3([1, 0, 0]));
        assert_eq!(morton3([1, 0, 0]), 1);
        assert_eq!(morton3([0, 1, 0]), 2);
        assert_eq!(morton3([0, 0, 1]), 4);
        assert_eq!(morton3([1, 1, 1]), 7);
    }

    #[test]
    fn contiguous_partition_covers_everything() {
        let (a, _) = chain(20);
        let p = contiguous_partition(&a, 4);
        let parts = p.parts();
        assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), 20);
        assert!(p.load_imbalance(&a) < 1.5);
    }

    /// The fleet registers a `DistEngine` built on this partition
    /// without re-ordering operands: its permutation must be the
    /// identity at every part count, including `p > nb`, where the
    /// trailing parts are empty.
    #[test]
    fn contiguous_partition_keeps_row_order() {
        let nb = 9;
        let (a, _) = chain(nb);
        for p in [1, 2, 3, nb, nb + 3] {
            let part = contiguous_partition(&a, p);
            assert_eq!(part.permutation(), (0..nb).collect::<Vec<_>>(), "p={p}");
        }
        let parts = contiguous_partition(&a, nb + 3).parts();
        assert!(parts[nb..].iter().all(Vec::is_empty));
    }

    #[test]
    fn coordinate_partition_is_balanced_on_chain() {
        let (a, pos) = chain(64);
        let p = coordinate_partition(&a, &pos, [64.0, 1.0, 1.0], 4);
        assert_eq!(p.n_parts(), 4);
        assert!(p.load_imbalance(&a) < 1.4, "imbalance {}", p.load_imbalance(&a));
        // A chain cut into 4 pieces has few cut edges: volume small.
        assert!(p.communication_volume(&a) <= 12);
    }

    #[test]
    fn rcb_partition_is_balanced_on_chain() {
        let (a, pos) = chain(64);
        let p = rcb_partition(&a, &pos, 4);
        assert!(p.load_imbalance(&a) < 1.4);
        assert!(p.communication_volume(&a) <= 12);
        // every part non-empty
        assert!(p.parts().iter().all(|v| !v.is_empty()));
    }

    #[test]
    fn single_part_has_zero_communication() {
        let (a, pos) = chain(10);
        let p = coordinate_partition(&a, &pos, [10.0, 1.0, 1.0], 1);
        assert_eq!(p.communication_volume(&a), 0);
        assert_eq!(p.load_imbalance(&a), 1.0);
    }

    #[test]
    fn permutation_groups_parts_contiguously() {
        let (a, pos) = chain(16);
        let p = rcb_partition(&a, &pos, 4);
        let perm = p.permutation();
        let mut seen_parts = Vec::new();
        for &old in &perm {
            let part = p.part_of(old);
            if seen_parts.last() != Some(&part) {
                assert!(!seen_parts.contains(&part), "part interleaved");
                seen_parts.push(part);
            }
        }
        assert_eq!(seen_parts.len(), 4);
    }

    #[test]
    fn communication_volume_counts_distinct_remote_rows() {
        // 2 rows, dense coupling, 2 parts: each part needs 1 remote row.
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::IDENTITY);
        t.add(1, 1, Block3::IDENTITY);
        t.add_symmetric_pair(0, 1, Block3::IDENTITY);
        let a = t.build();
        let p = Partition::from_assignment(2, vec![0, 1]);
        assert_eq!(p.communication_volume(&a), 2);
    }
}
