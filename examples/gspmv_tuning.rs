//! GSPMV auto-tuning: measure this machine, pick the number of
//! right-hand sides.
//!
//! Calibrates a machine profile on the host (STREAM-like bandwidth and
//! basic-kernel flop rate), measures the relative-time curve r(m) for
//! an SD matrix, and reports the model's switch point `m_s` and the
//! Eq. 9 optimum `m_optimal` — the procedure a user would run before a
//! long simulation campaign.
//!
//! ```text
//! cargo run --release --example gspmv_tuning
//! ```

use mrhs::perfmodel::measure::{host_profile, time_gspmv};
use mrhs::perfmodel::mrhs_model::{optimal_m_from_costs, SolveCounts};
use mrhs::perfmodel::GspmvModel;
use mrhs::stokes::{assemble_resistance, ResistanceConfig, SystemBuilder};

fn main() {
    println!("calibrating host...");
    let host = host_profile();
    println!(
        "  bandwidth B = {:.1} GB/s, kernel rate F = {:.1} Gflop/s, B/F = {:.2}",
        host.bandwidth / 1e9,
        host.flops / 1e9,
        host.byte_per_flop()
    );

    let system = SystemBuilder::new(1500).volume_fraction(0.5).seed(11).build();
    let a = assemble_resistance(system.particles(), &ResistanceConfig::default());
    println!(
        "\nSD matrix: nb = {}, nnzb/nb = {:.1}",
        a.nb_rows(),
        a.blocks_per_row()
    );

    let ms = [1usize, 2, 4, 8, 12, 16, 24, 32];
    println!("\nmeasured GSPMV cost curve:");
    println!("{:>4} {:>12} {:>8} {:>8}", "m", "T(m) [us]", "r(m)", "model");
    let model = GspmvModel::new(&a.stats(), host);
    let costs: Vec<(usize, f64)> =
        ms.iter().map(|&m| (m, time_gspmv(&a, m, 5))).collect();
    let t1 = costs[0].1;
    for &(m, t) in &costs {
        println!(
            "{m:>4} {:>12.1} {:>8.2} {:>8.2}",
            t * 1e6,
            t / t1,
            model.relative_time(m)
        );
    }

    println!(
        "\nmodel switch point m_s = {}",
        model
            .switch_point()
            .map_or("never (bandwidth-bound)".into(), |v: usize| v.to_string())
    );
    println!(
        "model: {} vectors fit within 2x the single-vector time",
        model.vectors_within_factor(2.0)
    );

    // With typical SD iteration counts, the Eq. 9 optimum:
    let counts =
        SolveCounts { cold: 120, warm_first: 60, warm_second: 50, cheb_order: 30 };
    let mo = optimal_m_from_costs(&costs, &counts);
    println!(
        "\nEq. 9 with N = {}, N1 = {}, N2 = {}, Cmax = {} on the measured curve:\n  \
         use m = {mo} right-hand sides on this machine",
        counts.cold, counts.warm_first, counts.warm_second, counts.cheb_order
    );
}
