//! Eq. 8-style cost model for the block-BiCGStab iteration, used to
//! pick coalescing widths for *nonsymmetric* tenants of the solve
//! service (the SPD path uses [`crate::mrhs_model::MrhsModel`]).
//!
//! One block-BiCGStab iteration with `m` right-hand sides costs
//!
//! ```text
//!   T_iter(m) = 2·T(m) + T_dense(m)
//! ```
//!
//! two GSPMVs (`V = A·P`, `T = A·S`), each priced by the Eq. 8 model,
//! plus the dense block machinery: the shadow Grams (`R̃ᵀV`, `R̃ᵀT` or
//! `R̃ᵀR`), the fused residual-update-and-Gram sweeps, and the `X`/`P`
//! update sweeps. Those are `DENSE_SWEEPS` passes over `n·m` doubles
//! with `O(m)` flops per element, so
//!
//! ```text
//!   T_dense(m) = max( DENSE_SWEEPS·n·m·3·s_x / B,
//!                     2·DENSE_SWEEPS·n·m² / F )
//! ```
//!
//! The per-column amortized cost `T_iter(m)/m` is what coalescing
//! optimizes: while GSPMV is bandwidth-bound the fixed matrix stream
//! amortizes and the curve falls; past the switch point the GSPMV term
//! flattens per column while the dense `n·m²` Gram term keeps growing
//! linearly, so the curve turns — the minimizer is interior, sitting at
//! or below the Eq. 8 switch point `m_s`.

use crate::model::{GspmvModel, SX_BYTES};

/// Dense `n·m`-sweep count of one block-BiCGStab iteration: two fused
/// residual-update+Gram sweeps (`S`, `R`), two shadow Grams, and two
/// update sweeps (`X`, `P`).
pub const DENSE_SWEEPS: f64 = 6.0;

/// Per-column cost model of the block-BiCGStab iteration.
#[derive(Clone, Copy, Debug)]
pub struct BicgstabModel {
    /// The Eq. 8 GSPMV model (matrix shape + machine).
    pub gspmv: GspmvModel,
}

impl BicgstabModel {
    /// Model over the given Eq. 8 GSPMV model.
    pub fn new(gspmv: GspmvModel) -> Self {
        BicgstabModel { gspmv }
    }

    /// Scalar rows `n = 3·nb`.
    fn n(&self) -> f64 {
        3.0 * self.gspmv.nb
    }

    /// Bytes moved by the dense sweeps (each element is read from two
    /// operands and written once).
    pub fn dense_traffic(&self, m: usize) -> f64 {
        DENSE_SWEEPS * self.n() * m as f64 * 3.0 * SX_BYTES
    }

    /// Flops of the dense sweeps: `O(m)` multiply-adds per element.
    pub fn dense_flops(&self, m: usize) -> f64 {
        2.0 * DENSE_SWEEPS * self.n() * (m * m) as f64
    }

    /// Predicted dense-machinery time: `max(T_bw, T_comp)`.
    pub fn dense_time(&self, m: usize) -> f64 {
        let bw = self.dense_traffic(m) / self.gspmv.machine.bandwidth;
        let comp = self.dense_flops(m) / self.gspmv.machine.flops;
        bw.max(comp)
    }

    /// Predicted time of one block-BiCGStab iteration with `m` columns.
    pub fn iter_time(&self, m: usize) -> f64 {
        assert!(m >= 1);
        2.0 * self.gspmv.time(m) + self.dense_time(m)
    }

    /// Amortized per-column iteration cost — the quantity coalescing
    /// minimizes (iteration counts are treated as width-invariant; in
    /// practice block solves need *fewer* iterations, so this is the
    /// conservative estimate).
    pub fn per_column_time(&self, m: usize) -> f64 {
        self.iter_time(m) / m as f64
    }

    /// The minimizer of [`BicgstabModel::per_column_time`] over
    /// `1..=max_m`.
    pub fn m_optimal(&self, max_m: usize) -> usize {
        (1..=max_m.max(1))
            .min_by(|&a, &b| {
                self.per_column_time(a)
                    .partial_cmp(&self.per_column_time(b))
                    .unwrap()
            })
            .unwrap()
    }

    /// Predicted per-column speedup of a width-`m` block solve over `m`
    /// independent width-1 solves (same iteration count).
    pub fn predicted_speedup(&self, m: usize) -> f64 {
        self.per_column_time(1) / self.per_column_time(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineProfile;

    fn mat2_model() -> BicgstabModel {
        BicgstabModel::new(GspmvModel::from_density(24.9, MachineProfile::wsm()))
    }

    #[test]
    fn per_column_cost_falls_then_rises() {
        let m = mat2_model();
        let mo = m.m_optimal(64);
        assert!(mo > 1 && mo < 64, "interior optimum, got {mo}");
        assert!(m.per_column_time(1) > m.per_column_time(mo));
        assert!(m.per_column_time(64) > m.per_column_time(mo));
    }

    #[test]
    fn optimum_near_gspmv_switch_point() {
        // Past m_s the GSPMV term is flat per column while the dense
        // n·m² Gram term still grows, so the minimizer sits in the
        // switch-point neighbourhood (not at the cap, not at 1).
        let m = mat2_model();
        let ms = m.gspmv.switch_point().expect("dense enough to switch");
        let mo = m.m_optimal(64);
        assert!(mo.abs_diff(ms) <= 3, "m_optimal {mo} vs m_s {ms}");
    }

    #[test]
    fn predicted_speedup_meaningful_at_optimum() {
        let m = mat2_model();
        let s = m.predicted_speedup(m.m_optimal(64));
        assert!(s > 1.2 && s < 10.0, "speedup {s}");
        assert!((m.predicted_speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_gspmvs_dominate_at_width_one() {
        // At m = 1 the iteration is two sparse products plus cheap
        // vector sweeps: the GSPMV share must dominate.
        let m = mat2_model();
        assert!(2.0 * m.gspmv.time(1) > m.dense_time(1));
        assert!(
            (m.iter_time(1) - 2.0 * m.gspmv.time(1) - m.dense_time(1)).abs()
                < 1e-18
        );
    }

    #[test]
    fn dense_term_eventually_dominates() {
        // The n·m² Gram flops outgrow the linear-in-m GSPMV cost, which
        // is what turns the per-column curve upward.
        let m = mat2_model();
        assert!(m.dense_time(256) > 2.0 * m.gspmv.time(256));
    }

    #[test]
    fn sparser_matrix_prefers_wider_batches() {
        // Lower density ⇒ the fixed matrix stream amortizes over more
        // columns before compute takes over (same trend as Fig. 1).
        let sparse = BicgstabModel::new(GspmvModel::from_density(
            6.0,
            MachineProfile::wsm(),
        ));
        let dense = mat2_model();
        assert!(sparse.m_optimal(64) >= dense.m_optimal(64));
    }
}
