//! No narrow width may cost more than a wide one: with the SIMD backend
//! present, a width-4 product stays within 1.25× of a width-8 one and a
//! width-1 product does not exceed it (before the per-width vector
//! rule, m = 4 read 1.7× m = 8 on AVX-512). A timing test, alone in its
//! process and run in release only.

use mrhs_perfmodel::measure::time_gspmv_on;
use mrhs_sparse::{backend_available, Backend, KernelKind, Schedule};
use mrhs_stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

#[test]
#[cfg_attr(debug_assertions, ignore = "timing: release only")]
fn narrow_widths_cost_no_more_than_wide_ones() {
    if !backend_available(KernelKind::Simd) {
        return;
    }
    // Table I's mat2: 2,000 particles at φ = 0.5, cutoff 3.2, `repro`'s
    // default seed.
    let sys = SystemBuilder::new(2000).volume_fraction(0.5).seed(20120521).build();
    let a = assemble_resistance(
        sys.particles(),
        &ResistanceConfig { s_cut: 3.2, ..Default::default() },
    );
    let secs = |m| {
        time_gspmv_on(Backend::forced(KernelKind::Simd), &a, m, 3, Schedule::Serial)
    };
    let (s1, s4, s8) = (secs(1), secs(4), secs(8));
    assert!(s4 <= 1.25 * s8, "m = 4 took {s4:.3e} s, m = 8 {s8:.3e} s");
    assert!(s1 <= s8, "m = 1 took {s1:.3e} s, m = 8 {s8:.3e} s");
}
