//! The MRHS step-time model (paper Eq. 9, 11, 12).
//!
//! With `m` right-hand sides, one chunk costs its head's block solve
//! `H(m)` and the block Chebyshev (`C_max` GSPMVs) once, plus per-step
//! single-vector work; the average per step is
//!
//! ```text
//! T_mrhs(m) = (1/m)·[H(m) + C_max·T(m)
//!                    + (m−1)·N₁·T(1) + m·N₂·T(1) + (m−1)·C_max·T(1)]
//! ```
//!
//! where `N₁`/`N₂` are the warm-started first/second-solve counts and
//! `C_max` the Chebyshev order. The paper's head is `N` products,
//! `H(m) = N·T(m)` with `N` the cold count ([`SolveCounts::tmrhs`]);
//! `repro` passes the seconds of the head the driver runs to
//! [`SolveCounts::tmrhs_with_head`], the one formula both go through.
//! The bandwidth branch of `T(m)` gives the decreasing Eq. 11, the
//! compute branch the increasing Eq. 12; the minimizer sits near the
//! switch point `m_s` (§V-B3, Table VIII). [`MrhsModel`] feeds Eq. 9
//! the Eq. 8 model's `T(m)`, [`optimal_m`] is the one minimizer and
//! [`optimal_m_from_costs`] its paper-form call on a cost curve, and
//! [`detect_switch_point`] reads `m_s` off a measured curve's shape.

use crate::model::GspmvModel;

/// Iteration counts entering Eq. 9 (the paper's Fig. 7 uses
/// N = 162, N₁ = 80, N₂ = 63, C_max = 30).
#[derive(Clone, Copy, Debug)]
pub struct SolveCounts {
    /// Cold first-solve iterations `N`.
    pub cold: usize,
    /// Warm first-solve iterations `N₁`.
    pub warm_first: usize,
    /// Warm second-solve iterations `N₂`.
    pub warm_second: usize,
    /// Chebyshev order per evaluation: the paper's `C_max`, or the
    /// order the drivers derived below it (`repro` reads it off the
    /// `solver/cheb/{terms, applies}` counters).
    pub cheb_order: usize,
}

impl SolveCounts {
    /// The Fig. 7 calibration values.
    pub fn fig7() -> Self {
        SolveCounts { cold: 162, warm_first: 80, warm_second: 63, cheb_order: 30 }
    }

    /// Eq. 9 for one `m` given `T(m)` and `T(1)` in arbitrary
    /// (consistent) time units: the paper's form, whose chunk head is
    /// `N` products, `N·T(m)`.
    pub fn tmrhs(&self, m: usize, t_m: f64, t_1: f64) -> f64 {
        self.tmrhs_with_head(m, self.cold as f64 * t_m, t_m, t_1)
    }

    /// Eq. 9 with the chunk head's block solve priced at `head`, in the
    /// units of `T(m)` and `T(1)`.
    pub fn tmrhs_with_head(&self, m: usize, head: f64, t_m: f64, t_1: f64) -> f64 {
        assert!(m >= 1);
        let (n1, n2) = (self.warm_first as f64, self.warm_second as f64);
        let (cmax, mf) = (self.cheb_order as f64, m as f64);
        let first = head + cmax * t_m + (mf - 1.0) * n1 * t_1;
        (first + mf * n2 * t_1 + (mf - 1.0) * cmax * t_1) / mf
    }

    /// Average per-step time of the *original* algorithm in the same
    /// units: `(N + N₂ + C_max)·T(1)` (cold first solve, warm second
    /// solve, one single-vector Chebyshev).
    pub fn toriginal(&self, t_1: f64) -> f64 {
        (self.cold + self.warm_second + self.cheb_order) as f64 * t_1
    }
}

/// Eq. 9 with `T(m)` supplied by the Eq. 8 model.
#[derive(Clone, Copy, Debug)]
pub struct MrhsModel {
    /// The GSPMV cost model.
    pub gspmv: GspmvModel,
    /// Measured iteration counts.
    pub counts: SolveCounts,
}

impl MrhsModel {
    /// Average per-step time (seconds) with `m` right-hand sides, using
    /// `T(m) = max(T_bw, T_comp)`.
    pub fn tmrhs(&self, m: usize) -> f64 {
        self.counts.tmrhs(m, self.gspmv.time(m), self.gspmv.time(1))
    }

    /// The bandwidth-bound estimate (paper Eq. 11): decreasing in `m`.
    pub fn tmrhs_bandwidth(&self, m: usize) -> f64 {
        self.counts.tmrhs(m, self.gspmv.time_bandwidth(m), self.gspmv.time(1))
    }

    /// The compute-bound estimate (paper Eq. 12): increasing in `m`.
    pub fn tmrhs_compute(&self, m: usize) -> f64 {
        self.counts.tmrhs(m, self.gspmv.time_compute(m), self.gspmv.time(1))
    }

    /// Average per-step time of the original algorithm.
    pub fn toriginal(&self) -> f64 {
        self.counts.toriginal(self.gspmv.time(1))
    }

    /// The minimizer of Eq. 9 over `1..=max_m`.
    pub fn m_optimal(&self, max_m: usize) -> usize {
        let costs: Vec<(usize, f64)> =
            (1..=max_m.max(1)).map(|m| (m, self.gspmv.time(m))).collect();
        optimal_m_from_costs(&costs, &self.counts)
    }

    /// Predicted end-to-end speedup of MRHS at its optimal `m`.
    pub fn predicted_speedup(&self, max_m: usize) -> f64 {
        self.toriginal() / self.tmrhs(self.m_optimal(max_m))
    }
}

/// Given a GSPMV cost curve `costs = [(m, T(m)); …]` (must contain
/// `m = 1`), measured or modelled, returns the first `m` minimizing
/// the paper's Eq. 9 ([`SolveCounts::tmrhs`]) through [`optimal_m`].
pub fn optimal_m_from_costs(costs: &[(usize, f64)], it: &SolveCounts) -> usize {
    let t1 = costs
        .iter()
        .find(|(m, _)| *m == 1)
        .map(|(_, t)| *t)
        .expect("cost curve must include m = 1");
    optimal_m(costs.iter().map(|&(m, t_m)| (m, it.tmrhs(m, t_m, t1)))).0
}

/// The one Eq. 9 minimizer every `m` choice in the workspace goes
/// through: of `steps = [(m, T_mrhs(m)); …]`, the first `m` with the
/// least step time, and that time.
pub fn optimal_m(steps: impl IntoIterator<Item = (usize, f64)>) -> (usize, f64) {
    let by_time = |a: &(usize, f64), b: &(usize, f64)| a.1.total_cmp(&b.1);
    steps.into_iter().min_by(by_time).unwrap_or((1, f64::INFINITY))
}

/// Detects `m_s`, the bandwidth→compute switch point, from a measured
/// relative-time curve `r = [(m, r(m)); …]` sorted by `m`: in the
/// bandwidth-bound regime the marginal cost per added vector is small;
/// in the compute-bound regime `r(m)` grows linearly with slope
/// `r_∞ = T_comp(1 vector)·1/T(1)`. We estimate the asymptotic slope
/// from the curve tail and return the first `m` from which every
/// forward marginal cost reaches 80% of it — where the curve turns
/// compute-bound for good, so a narrow head dearer than the width after
/// it (`r(2) > r(4)`, measured where `m = 2` runs no vector kernel)
/// does not end the search at its steep first step.
pub fn detect_switch_point(curve: &[(usize, f64)]) -> usize {
    assert!(curve.len() >= 3, "need at least three samples");
    for w in curve.windows(2) {
        assert!(w[0].0 < w[1].0, "curve must be sorted by m");
    }
    // Asymptotic marginal slope from the last two samples.
    let (m_a, r_a) = curve[curve.len() - 2];
    let (m_b, r_b) = curve[curve.len() - 1];
    let tail_slope = (r_b - r_a) / (m_b - m_a) as f64;
    if tail_slope <= 0.0 {
        // Never became compute-bound within the measured range.
        return curve.last().unwrap().0;
    }
    let below = curve.windows(2).rev().find(|w| {
        (w[1].1 - w[0].1) / ((w[1].0 - w[0].0) as f64) < 0.8 * tail_slope
    });
    below.map_or(curve[0].0, |w| w[1].0).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineProfile;

    /// The paper's Fig. 7 system: 300k particles, 50% occupancy
    /// (mat2-like density ≈ 25), dual-socket server with 19.4 GB/s.
    fn fig7_model() -> MrhsModel {
        let gspmv = GspmvModel::from_density(24.9, MachineProfile::sd_server());
        MrhsModel { gspmv, counts: SolveCounts::fig7() }
    }

    #[test]
    fn tmrhs_decreases_then_increases() {
        let m = fig7_model();
        let mo = m.m_optimal(40);
        assert!(mo > 1 && mo < 40, "interior optimum, got {mo}");
        assert!(m.tmrhs(1) > m.tmrhs(mo));
        assert!(m.tmrhs(40) > m.tmrhs(mo));
    }

    #[test]
    fn optimal_m_near_switch_point() {
        // Table VIII: m_optimal within a couple of m_s.
        let m = fig7_model();
        let ms = m.gspmv.switch_point().expect("switches");
        let mo = m.m_optimal(40);
        assert!(mo.abs_diff(ms) <= 3, "m_optimal {mo} should be near m_s {ms}");
    }

    #[test]
    fn paper_scale_optimum_and_switch() {
        // Table VIII reports m_s = 12, m_optimal = 10 for this system;
        // the model should land in that neighbourhood.
        let m = fig7_model();
        let ms = m.gspmv.switch_point().unwrap();
        let mo = m.m_optimal(40);
        assert!((6..=16).contains(&ms), "ms = {ms}");
        assert!((6..=16).contains(&mo), "mo = {mo}");
    }

    #[test]
    fn predicted_speedup_in_paper_range() {
        // The paper measures 10–30% end-to-end speedups (Tables VI/VII);
        // the model should predict a gain of that order, not 5× and not
        // a slowdown.
        let m = fig7_model();
        let s = m.predicted_speedup(40);
        assert!(s > 1.05 && s < 2.0, "speedup {s}");
    }

    #[test]
    fn bandwidth_estimate_decreasing_compute_increasing() {
        let m = fig7_model();
        assert!(m.tmrhs_bandwidth(2) > m.tmrhs_bandwidth(16));
        assert!(m.tmrhs_compute(16) < m.tmrhs_compute(32));
        // The achieved curve is bounded below by both estimates at the
        // crossover region.
        for v in [2usize, 8, 16, 32] {
            assert!(
                m.tmrhs(v) + 1e-15 >= m.tmrhs_bandwidth(v).min(m.tmrhs_compute(v))
            );
        }
    }

    #[test]
    fn m1_costs_more_than_original() {
        // With one RHS the chunk solve replaces the cold solve but adds
        // nothing; MRHS(1) ≈ original + no gain (second solve of the
        // head step still runs), so no speedup at m = 1.
        let m = fig7_model();
        assert!(m.tmrhs(1) >= m.toriginal() * 0.95);
    }

    /// A synthetic cost curve: bandwidth-bound (slowly growing) until
    /// m_s, then compute-bound (linear).
    fn synthetic_costs(ms: usize, max_m: usize) -> Vec<(usize, f64)> {
        // Bandwidth bound grows slowly; the compute bound is linear in m
        // and calibrated to cross the bandwidth bound exactly at m = ms.
        let bw = |m: usize| 1.0 + 0.05 * (m - 1) as f64;
        let comp_slope = bw(ms) / ms as f64;
        (1..=max_m).map(|m| (m, bw(m).max(comp_slope * m as f64))).collect()
    }

    #[test]
    fn tmrhs_at_m1_close_to_original_plus_extra_solve() {
        let it = SolveCounts::fig7();
        // With m = 1 the MRHS chunk is one block solve (N iters) plus the
        // per-step solves: strictly more work than the original step.
        let t = it.tmrhs(1, 1.0, 1.0);
        let orig = it.toriginal(1.0);
        assert!(t > orig * 0.9);
    }

    #[test]
    fn measured_optimal_m_near_switch_point() {
        let it = SolveCounts::fig7();
        for ms in [5usize, 10, 15] {
            let costs = synthetic_costs(ms, 40);
            let mo = optimal_m_from_costs(&costs, &it);
            assert!(mo.abs_diff(ms) <= 3, "m_optimal {mo} should be near m_s {ms}");
        }
    }

    #[test]
    fn mrhs_beats_original_at_optimal_m() {
        let it = SolveCounts::fig7();
        let costs = synthetic_costs(12, 40);
        let mo = optimal_m_from_costs(&costs, &it);
        let t_m = costs.iter().find(|(m, _)| *m == mo).unwrap().1;
        assert!(it.tmrhs(mo, t_m, 1.0) < it.toriginal(1.0));
    }

    #[test]
    fn detect_switch_point_on_synthetic_curve() {
        for ms in [6usize, 12, 20] {
            let curve = synthetic_costs(ms, 40);
            let got = detect_switch_point(&curve);
            assert!(got.abs_diff(ms) <= 2, "got {got}, want ≈{ms}");
        }
    }

    /// A narrow head dearer than the width after it — `r(2)` above
    /// `r(4)`, on the widths the kernels are measured at — does not end
    /// the search at `m = 1`: the switch point is still where the curve
    /// turns compute-bound.
    #[test]
    fn detect_switch_point_survives_a_non_monotone_head() {
        let grid = [1usize, 2, 4, 8, 12, 16, 24, 32, 42, 48];
        for ms in [6usize, 12, 20] {
            let mut curve: Vec<(usize, f64)> = synthetic_costs(ms, 48)
                .into_iter()
                .filter(|(m, _)| grid.contains(m))
                .collect();
            curve[1].1 = curve[2].1 + 0.4;
            let got = detect_switch_point(&curve);
            assert!(got.abs_diff(ms) <= 4, "got {got}, want ≈{ms}");
        }
    }

    #[test]
    fn detect_switch_point_bandwidth_only_curve() {
        // Diagonal-like matrix: never compute-bound.
        let curve: Vec<(usize, f64)> =
            (1..=16).map(|m| (m, 1.0 + 0.02 * m as f64)).collect();
        // With a flat tail the detector returns a boundary value; it
        // must not panic and must return a sampled m.
        let got = detect_switch_point(&curve);
        assert!(curve.iter().any(|(m, _)| *m == got));
    }

    #[test]
    fn tmrhs_is_the_head_form_at_n_products() {
        // Both forms against the paper's Eq. 9 as written out.
        let (model, it) = (fig7_model(), SolveCounts::fig7());
        let (n, n1, n2, c, t1) = (162.0, 80.0, 63.0, 30.0, model.gspmv.time(1));
        for m in 1..=40 {
            let (t_m, k) = (model.gspmv.time(m), m as f64);
            let eq9 = ((n + c) * t_m + (k - 1.0) * (n1 + c) * t1 + k * n2 * t1) / k;
            for v in [model.tmrhs(m), it.tmrhs_with_head(m, n * t_m, t_m, t1)] {
                assert!((v - eq9).abs() <= 1e-12 * eq9, "m = {m}: {v} vs {eq9}");
            }
        }
    }

    #[test]
    fn cheaper_head_never_widens_the_argmin() {
        // The head's share of a step, s·N·T(m)/m, does not grow with m,
        // so a cheaper head (smaller s) adds a non-decreasing function
        // of m to Eq. 9: the argmin holds or moves narrower.
        let it = SolveCounts::fig7();
        for ms in [5usize, 10, 15] {
            let costs = synthetic_costs(ms, 40);
            let argmin = |s: f64| {
                let head = |m, t: f64| it.tmrhs_with_head(m, s * 162.0 * t, t, 1.0);
                optimal_m(costs.iter().map(|&(m, t)| (m, head(m, t)))).0
            };
            let mut wider = optimal_m_from_costs(&costs, &it);
            for s in [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1] {
                let m = argmin(s);
                assert!(m <= wider, "m_s {ms}, head share {s}: {m} > {wider}");
                wider = m;
            }
        }
    }

    #[test]
    #[should_panic(expected = "must include m = 1")]
    fn optimal_m_requires_unit_sample() {
        optimal_m_from_costs(&[(2, 1.0), (4, 1.5)], &SolveCounts::fig7());
    }
}
