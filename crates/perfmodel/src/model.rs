//! The single-node GSPMV performance model (paper Eq. 8).
//!
//! Memory traffic of one GSPMV with `m` vectors:
//!
//! ```text
//!   M_tr(m) = m·nb·(3 + k(m))·s_x + 4·nb + nnzb·(4 + s_a)
//! ```
//!
//! (read X, read+write Y, `k(m)` extra X accesses; 4-byte row pointers
//! and column indices; `s_a = 72`-byte blocks). The bandwidth bound is
//! `M_tr/B`, the compute bound `f_a·m·nnzb/F` with `f_a = 18` flops per
//! block-element multiply, and the predicted time is their maximum.

use crate::machine::MachineProfile;
use mrhs_sparse::MatrixStats;

/// Bytes of a stored 3×3 double-precision block.
pub const SA_BYTES: f64 = 72.0;
/// Bytes of a vector scalar.
pub const SX_BYTES: f64 = 8.0;
/// Flops to multiply one 3×3 block by one vector's 3-element slab.
pub const FA_FLOPS: f64 = 18.0;

/// Eq. 8 specialized to a matrix shape and a machine.
#[derive(Clone, Copy, Debug)]
pub struct GspmvModel {
    /// Block rows `nb`.
    pub nb: f64,
    /// Stored blocks `nnzb`.
    pub nnzb: f64,
    /// Machine parameters.
    pub machine: MachineProfile,
}

impl GspmvModel {
    /// Builds the model from matrix statistics.
    pub fn new(stats: &MatrixStats, machine: MachineProfile) -> Self {
        GspmvModel { nb: stats.nb as f64, nnzb: stats.nnzb as f64, machine }
    }

    /// Builds the model directly from a density `nnzb/nb`, using a
    /// nominal row count (the relative time is row-count invariant).
    pub fn from_density(density: f64, machine: MachineProfile) -> Self {
        GspmvModel { nb: 1.0, nnzb: density, machine }
    }

    /// Average non-zero blocks per block row.
    pub fn density(&self) -> f64 {
        self.nnzb / self.nb
    }

    /// Memory traffic in bytes for `m` vectors.
    pub fn memory_traffic(&self, m: usize) -> f64 {
        m as f64 * self.nb * (3.0 + self.machine.k) * SX_BYTES
            + 4.0 * self.nb
            + self.nnzb * (4.0 + SA_BYTES)
    }

    /// Bandwidth-bound time (seconds).
    pub fn time_bandwidth(&self, m: usize) -> f64 {
        self.memory_traffic(m) / self.machine.bandwidth
    }

    /// Compute-bound time (seconds).
    pub fn time_compute(&self, m: usize) -> f64 {
        FA_FLOPS * m as f64 * self.nnzb / self.machine.flops
    }

    /// Predicted GSPMV time: `max(T_bw, T_comp)`.
    pub fn time(&self, m: usize) -> f64 {
        self.time_bandwidth(m).max(self.time_compute(m))
    }

    /// Predicted time of `sweeps` dense passes over an `n×m` block
    /// (`n = 3·nb`), each with `O(m)` multiply-adds per element — a
    /// block solver's Gram and update sweeps beside its GSPMVs:
    /// `max(sweeps·n·m·3·s_x/B, 2·sweeps·n·m²/F)`, each element read
    /// from two operands and written once.
    pub fn dense_time(&self, m: usize, sweeps: usize) -> f64 {
        let (sweeps, n, m) = (sweeps as f64, 3.0 * self.nb, m as f64);
        let bw = sweeps * n * m * 3.0 * SX_BYTES / self.machine.bandwidth;
        let comp = 2.0 * sweeps * n * (m * m) / self.machine.flops;
        bw.max(comp)
    }

    /// Relative time `r(m) = T(m)/T_bw(1)` (the single-vector product is
    /// assumed bandwidth-bound, as in the paper).
    pub fn relative_time(&self, m: usize) -> f64 {
        self.time(m) / self.time_bandwidth(1)
    }

    /// The switch point `m_s`: the smallest `m` at which GSPMV becomes
    /// compute-bound, or `None` if it stays bandwidth-bound for all `m`
    /// (e.g. a diagonal matrix, as discussed in §IV-B1).
    pub fn switch_point(&self) -> Option<usize> {
        let d = self.density();
        let comp_slope = FA_FLOPS * d * self.machine.byte_per_flop();
        let bw_slope = (3.0 + self.machine.k) * SX_BYTES;
        if comp_slope <= bw_slope {
            return None;
        }
        let fixed = 4.0 + d * (4.0 + SA_BYTES);
        Some((fixed / (comp_slope - bw_slope)).ceil().max(1.0) as usize)
    }

    /// The largest `m` multipliable within `factor` times the
    /// single-vector time — the quantity plotted in Fig. 1 (factor 2).
    pub fn vectors_within_factor(&self, factor: f64) -> usize {
        assert!(factor >= 1.0);
        let denom = self.memory_traffic(1) / self.nb;
        let d = self.density();
        // Bandwidth constraint: m·(3+k)·sx + 4 + d(4+s_a) ≤ factor·denom
        let bw_cap = (factor * denom - 4.0 - d * (4.0 + SA_BYTES))
            / ((3.0 + self.machine.k) * SX_BYTES);
        // Compute constraint: m·f_a·d·(B/F) ≤ factor·denom
        let comp_cap =
            factor * denom / (FA_FLOPS * d * self.machine.byte_per_flop());
        bw_cap.min(comp_cap).floor().max(1.0) as usize
    }

    /// The Fig. 1 grid: `vectors_within_factor(2)` over a mesh of
    /// densities (x-axis) and byte/flop ratios (y-axis), with `k = 0` as
    /// in the paper's figure.
    pub fn fig1_grid(densities: &[f64], byte_per_flops: &[f64]) -> Vec<Vec<usize>> {
        byte_per_flops
            .iter()
            .map(|&bf| {
                densities
                    .iter()
                    .map(|&d| {
                        let machine =
                            MachineProfile { bandwidth: bf, flops: 1.0, k: 0.0 };
                        GspmvModel::from_density(d, machine)
                            .vectors_within_factor(2.0)
                    })
                    .collect()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat2_on_wsm() -> GspmvModel {
        // Table I: mat2 has nb = 395k, nnzb = 9M, density 24.9.
        let stats = MatrixStats {
            n: 1_185_000,
            nb: 395_000,
            nnz: 81_000_000,
            nnzb: 9_000_000,
        };
        GspmvModel::new(&stats, MachineProfile::wsm())
    }

    #[test]
    fn relative_time_is_one_at_single_vector() {
        let m = mat2_on_wsm();
        assert!((m.relative_time(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn relative_time_monotone_in_m() {
        let m = mat2_on_wsm();
        let mut last = 0.0;
        for v in 1..48 {
            let r = m.relative_time(v);
            assert!(r >= last);
            last = r;
        }
    }

    #[test]
    fn paper_headline_eight_to_sixteen_vectors_at_2x() {
        // The paper measures 12 vectors at 2× for mat2 on WSM and notes
        // (§IV-D1) that measured values sit somewhat below this k=const
        // model; the model should land in the right neighbourhood.
        let mat2 = mat2_on_wsm();
        let v2 = mat2.vectors_within_factor(2.0);
        assert!((10..=20).contains(&v2), "mat2/WSM: {v2}");

        // mat3 on SNB (density 45.3, lower B/F) supports more vectors
        // (paper: 16 measured).
        let stats3 = MatrixStats {
            n: 1_185_000,
            nb: 395_000,
            nnz: 162_000_000,
            nnzb: 17_893_500,
        };
        let mat3 = GspmvModel::new(&stats3, MachineProfile::snb());
        let v3 = mat3.vectors_within_factor(2.0);
        assert!(v3 > v2, "denser matrix on SNB supports more: {v3} vs {v2}");
        assert!((14..=30).contains(&v3), "mat3/SNB: {v3}");
    }

    #[test]
    fn sparse_matrix_supports_fewer_vectors() {
        // mat1: density 5.6 — bandwidth-bound, fewest vectors (paper: 8).
        let stats1 = MatrixStats {
            n: 900_000,
            nb: 300_000,
            nnz: 15_300_000,
            nnzb: 1_700_000,
        };
        let mat1 = GspmvModel::new(&stats1, MachineProfile::wsm());
        let v1 = mat1.vectors_within_factor(2.0);
        let v2 = mat2_on_wsm().vectors_within_factor(2.0);
        assert!(v1 < v2, "mat1 {v1} < mat2 {v2}");
        // Paper measures 8; the optimistic k=const model gives ~11.
        assert!((6..=13).contains(&v1), "mat1/WSM ≈ 8–11: {v1}");
    }

    #[test]
    fn switch_point_matches_bound_crossing() {
        let m = mat2_on_wsm();
        let ms = m.switch_point().expect("dense enough to switch");
        assert!(m.time_compute(ms) >= m.time_bandwidth(ms));
        assert!(m.time_compute(ms - 1) < m.time_bandwidth(ms - 1));
        // Table VIII reports m_s ≈ 12 for the 50%-occupancy system whose
        // density is mat2-like; the model should land nearby.
        assert!((6..=16).contains(&ms), "ms = {ms}");
    }

    #[test]
    fn diagonal_matrix_never_switches() {
        // Density 1 (diagonal): bandwidth-bound for all m (§IV-B1).
        let m = GspmvModel::from_density(1.0, MachineProfile::wsm());
        assert_eq!(m.switch_point(), None);
    }

    #[test]
    fn fig1_grid_trends() {
        // More vectors for denser matrices; fewer for higher B/F, where
        // the (byte-equivalent) compute bound `m·f_a·d·(B/F)` bites
        // sooner. (SNB, with B/F 0.37 < WSM's 0.55, supports 16 vs 12
        // vectors in the paper's measurements.)
        let densities = [6.0, 24.0, 84.0];
        let bfs = [0.02, 0.3, 0.6];
        let grid = GspmvModel::fig1_grid(&densities, &bfs);
        assert_eq!(grid.len(), 3);
        // along density at fixed (low) B/F: denser ⇒ more vectors
        assert!(grid[0][0] <= grid[0][2], "{:?}", grid[0]);
        // along B/F at fixed density: higher B/F ⇒ fewer vectors
        for c in 0..3 {
            assert!(grid[0][c] >= grid[2][c], "col {c}: {grid:?}");
        }
        // Fig 1's colorbar spans ~10..60.
        assert!(grid[0][2] >= 30, "dense/low-B/F corner {}", grid[0][2]);
        assert!(grid[2][0] <= 15, "sparse/high-B/F corner {}", grid[2][0]);
    }

    #[test]
    fn memory_traffic_formula() {
        let m = GspmvModel {
            nb: 10.0,
            nnzb: 50.0,
            machine: MachineProfile { bandwidth: 1.0, flops: 1.0, k: 0.0 },
        };
        // m=2: 2·10·3·8 + 40 + 50·76 = 480 + 40 + 3800
        assert_eq!(m.memory_traffic(2), 4320.0);
    }
}
