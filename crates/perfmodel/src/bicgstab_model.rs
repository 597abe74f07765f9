//! The price of one block-BiCGStab iteration, composed from Eq. 8.
//! Not a model of its own: two GSPMVs (`V = A·P`, `T = A·S`), each
//! [`GspmvModel::time`], plus the block machinery's dense sweeps,
//! [`GspmvModel::dense_time`]:
//!
//! ```text
//!   T_iter(m) = 2·T(m) + T_dense(m, sweeps)
//! ```
//!
//! The sweep count is the solver's (`solvers::block_bicgstab::DENSE_SWEEPS`).

use crate::model::GspmvModel;

/// Predicted time of one block-BiCGStab iteration at width `m` with
/// `sweeps` dense `n·m` sweeps beside its two products.
pub fn iteration_time(gspmv: &GspmvModel, m: usize, sweeps: usize) -> f64 {
    2.0 * gspmv.time(m) + gspmv.dense_time(m, sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineProfile;

    /// mat2's density on the paper's WSM machine.
    fn mat2() -> GspmvModel {
        GspmvModel::from_density(24.9, MachineProfile::wsm())
    }

    /// One iteration with six dense sweeps prices as it did under the
    /// per-iteration model this composition replaced (values from that
    /// model).
    #[test]
    fn iteration_price_is_pinned() {
        let g = mat2();
        for (m, want) in [
            (1, 1.8786086956521737e-7),
            (8, 3.485565217391304e-7),
            (16, 6.192417391304347e-7),
            (64, 4.55168e-6),
        ] {
            let t = iteration_time(&g, m, 6);
            assert!((t / want - 1.0).abs() < 1e-12, "m = {m}: {t}");
        }
    }

    #[test]
    fn two_gspmvs_dominate_at_width_one() {
        // At m = 1 the iteration is two sparse products plus cheap
        // vector sweeps: the GSPMV share must dominate.
        let g = mat2();
        assert!(2.0 * g.time(1) > g.dense_time(1, 6));
        assert!(
            (iteration_time(&g, 1, 6) - 2.0 * g.time(1) - g.dense_time(1, 6)).abs()
                < 1e-18
        );
    }

    #[test]
    fn dense_term_eventually_dominates() {
        // The n·m² Gram flops outgrow the linear-in-m GSPMV cost.
        let g = mat2();
        assert!(g.dense_time(256, 6) > 2.0 * g.time(256));
    }
}
