//! End-to-end MRHS experiments: Tables VI, VII, VIII, Fig. 7, Fig. 8.

use crate::common::{f, section, Options, TABLE1_CUTOFFS};
use mrhs_core::{run_mrhs_chunk, run_original_step, MrhsConfig};
use mrhs_perfmodel::measure::{host_profile, time_dense_sweeps, time_gspmv};
use mrhs_perfmodel::mrhs_model::{
    detect_switch_point, optimal_m_from_costs, MrhsModel, SolveCounts,
};
use mrhs_perfmodel::{GspmvModel, MachineProfile};
use mrhs_stokes::{
    assemble_resistance, GaussianNoise, ResistanceConfig, StokesianSystem,
    SystemBuilder,
};
use mrhs_telemetry::Snapshot;

fn build(n: usize, phi: f64, seed: u64) -> (StokesianSystem, GaussianNoise) {
    SystemBuilder::new(n).volume_fraction(phi).seed(seed).build_with_noise()
}

/// The drivers' step phases: the six `mrhs/*` spans.
const PHASES: [&str; 6] = [
    "mrhs/assemble",
    "mrhs/cheb_vectors",
    "mrhs/calc_guesses",
    "mrhs/cheb_single",
    "mrhs/first_solve",
    "mrhs/second_solve",
];

/// What the registry recorded over one loop of `steps` time steps.
struct StepSpans {
    recorded: Snapshot,
    steps: usize,
}

impl StepSpans {
    /// Seconds per step spent in the given spans.
    fn per_step(&self, spans: &[&str]) -> f64 {
        let secs: f64 = spans.iter().map(|s| self.recorded.span_secs(s)).sum();
        secs / self.steps.max(1) as f64
    }
}

/// Runs `m·chunks` steps of the MRHS algorithm (in chunks of `m`) and
/// the same number of baseline steps on an identical system, each loop
/// bracketed by registry snapshots, returning what the two loops
/// recorded and the measured counts: iterations `(N, N1, N2)` and the
/// Chebyshev order the drivers derived, read off the two loops'
/// `solver/cheb/{terms, applies}` counters.
fn run_both(
    n: usize,
    phi: f64,
    seed: u64,
    m: usize,
    chunks: usize,
) -> (StepSpans, StepSpans, SolveCounts) {
    let cfg = MrhsConfig { m, ..Default::default() };
    let steps = m * chunks;
    // The drivers' phase spans are the only step clock; the registry
    // goes back to its previous state so the cost-curve probes of a
    // later table row are not timed with instrumentation on.
    let was_enabled = mrhs_telemetry::enabled();
    mrhs_telemetry::set_enabled(true);

    let (mut sys, mut noise) = build(n, phi, seed);
    let (mut n1_sum, mut n2_sum) = (0usize, 0usize);
    let before = mrhs_telemetry::snapshot();
    for _ in 0..chunks {
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        for (k, s) in report.steps.iter().enumerate() {
            if k > 0 {
                n1_sum += s.first_solve_iterations;
            }
            n2_sum += s.second_solve_iterations;
        }
    }
    let mrhs =
        StepSpans { recorded: mrhs_telemetry::snapshot().diff(&before), steps };

    let (mut sys2, mut noise2) = build(n, phi, seed);
    let mut cache = None;
    let mut n_sum = 0usize;
    let before = mrhs_telemetry::snapshot();
    for _ in 0..steps {
        let s = run_original_step(&mut sys2, &mut noise2, &cfg, &mut cache);
        n_sum += s.first_solve_iterations;
    }
    let orig =
        StepSpans { recorded: mrhs_telemetry::snapshot().diff(&before), steps };
    mrhs_telemetry::set_enabled(was_enabled);

    let mean =
        |sum: usize, cnt: usize| (sum as f64 / cnt.max(1) as f64).round() as usize;
    let cheb = |name: &str| {
        (mrhs.recorded.counter(name) + orig.recorded.counter(name)) as usize
    };
    let counts = SolveCounts {
        cold: mean(n_sum, steps),
        warm_first: mean(n1_sum, steps - chunks),
        warm_second: mean(n2_sum, steps),
        cheb_order: mean(cheb("solver/cheb/terms"), cheb("solver/cheb/applies")),
    };
    (mrhs, orig, counts)
}

fn print_breakdown_pair(labels: &[String], pairs: &[(StepSpans, StepSpans)]) {
    println!("{:<14} {}", "", labels.join("  |  "));
    let rows: [(&str, &[&str]); 6] = [
        ("Cheb vectors", &["mrhs/cheb_vectors"]),
        ("Calc guesses", &["mrhs/calc_guesses"]),
        ("Cheb single", &["mrhs/cheb_single"]),
        ("1st solve", &["mrhs/first_solve"]),
        ("2nd solve", &["mrhs/second_solve"]),
        ("Average", &PHASES),
    ];
    for (name, spans) in rows {
        print!("{name:<14}");
        for (mrhs, orig) in pairs {
            print!(
                " mrhs {:>8}  orig {:>8}",
                f(mrhs.per_step(spans)),
                if name == "Cheb vectors" || name == "Calc guesses" {
                    "-".to_string()
                } else {
                    f(orig.per_step(spans))
                }
            );
        }
        println!();
    }
    print!("{:<14}", "Speedup");
    for (mrhs, orig) in pairs {
        print!(" {:>23}x", f(orig.per_step(&PHASES) / mrhs.per_step(&PHASES)));
    }
    println!("   (paper: 1.1x-1.4x)");
}

/// Measured *effective* block-iteration cost curve: the GSPMV plus, for
/// `m > 1`, the four dense `O(n·m²)` sweeps block CG runs beside it
/// (`PᵀQ` Gram, `X += P·α`, fused `R −= Q·α; RᵀR`, `P ← R + P·β`). The
/// paper's Eq. 9 treats a block iteration as one GSPMV; on hosts where
/// the matrix is cache-resident these BLAS-like terms are not
/// negligible, so `m`-selection prices them in.
fn effective_costs(
    a: &mrhs_sparse::BcrsMatrix,
    ms: &[usize],
    reps: usize,
) -> Vec<(usize, f64)> {
    ms.iter()
        .map(|&m| {
            let dense = if m > 1 {
                time_dense_sweeps(a.n_rows(), m, reps).total()
            } else {
                0.0
            };
            (m, time_gspmv(a, m, reps) + dense)
        })
        .collect()
}

/// Picks the number of right-hand sides for this host and system via
/// Eq. 9 on the measured effective cost curve — the procedure §V-B3
/// prescribes, with the implementation overhead priced in. A short
/// probe chunk supplies the iteration counts.
fn pick_m(
    n: usize,
    phi: f64,
    opts: &Options,
) -> (usize, Vec<(usize, f64)>, SolveCounts) {
    let (sys, _) = build(n, phi, opts.seed);
    let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
    let costs = effective_costs(&a, &[1, 2, 4, 8, 12, 16], opts.reps);
    let (_, _, counts) = run_both(n, phi, opts.seed, 4, 1);
    let m = optimal_m_from_costs(&costs, &counts).clamp(2, 16);
    (m, costs, counts)
}

/// Deterministic Eq. 9 speedup from stable quantities: measured
/// iteration counts and the min-estimator cost curve. This is robust to
/// scheduler noise, unlike single-run wall-clock ratios on a shared
/// machine.
fn eq9_speedup(costs: &[(usize, f64)], counts: &SolveCounts, m: usize) -> f64 {
    let t1 = costs[0].1;
    let t_m = costs
        .iter()
        .find(|(mm, _)| *mm == m)
        .map(|(_, t)| *t)
        .unwrap_or_else(|| costs.last().unwrap().1);
    // The block solve stops at guess_tol = 1e-4 instead of 1e-6, so it
    // takes about log(1e4)/log(1e6) = 2/3 of the cold iteration count.
    let block = SolveCounts {
        cold: (counts.cold as f64 * 2.0 / 3.0).round() as usize,
        ..*counts
    };
    counts.toriginal(t1) / block.tmrhs(m, t_m, t1)
}

/// Two Alg. 2 chunks on a small suspension — the only time stepping in
/// `repro quick`. The same workload, with telemetry on, is the test
/// `crates/bench/tests/quick_telemetry.rs`, which checks the pair
/// list's `stokes/pairlist/*` and the solvers' preconditioner counters.
pub fn quick_steps(opts: &Options) {
    section("Alg. 2 smoke: two chunks of 8 steps, 300 particles");
    let (mut sys, mut noise) = build(300, 0.5, opts.seed);
    let cfg = MrhsConfig { m: 8, ..Default::default() };
    for chunk in 0..2 {
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        let warm: usize =
            report.steps[1..].iter().map(|s| s.first_solve_iterations).sum();
        println!(
            "chunk {chunk}: {} block iterations, {:.1} warm first-solve iterations",
            report.block_iterations,
            warm as f64 / (cfg.m - 1) as f64
        );
    }
}

/// Table VI: per-step timing breakdown vs problem size at 50%
/// occupancy. Paper sizes 3k/30k/300k; ours scale with `--particles`.
/// `m` is chosen per system by Eq. 9, as the paper prescribes (§V-B3);
/// the paper's own runs used m = 16 at 300k scale.
pub fn table6(opts: &Options) {
    let sizes = [
        (opts.particles / 20).max(100),
        (opts.particles / 5).max(300),
        opts.particles,
    ];
    section(&format!(
        "Table VI: timing breakdown per step vs problem size {sizes:?} (50%)"
    ));
    for &n in &sizes {
        let (m, costs, probe_counts) = pick_m(n, 0.5, opts);
        let (mrhs, orig, counts) = run_both(n, 0.5, opts.seed, m, 2);
        println!(
            "\n-- {n} particles (m={m}, N={}, N1={}, N2={}, Cheb order={}) --",
            counts.cold, counts.warm_first, counts.warm_second, counts.cheb_order
        );
        print_breakdown_pair(&[format!("{n} particles")], &[(mrhs, orig)]);
        println!(
            "Eq.9 speedup from measured counts + cost curve: {:.2}x",
            eq9_speedup(&costs, &probe_counts, m)
        );
    }
}

/// Table VII: per-step timing breakdown vs volume occupancy at fixed
/// size. Paper: speedups grow with occupancy (1.06x → 1.23x → 1.41x).
pub fn table7(opts: &Options) {
    let n = opts.particles;
    section(&format!(
        "Table VII: timing breakdown per step vs occupancy ({n} particles)"
    ));
    for phi in [0.1, 0.3, 0.5] {
        let (m, costs, probe_counts) = pick_m(n, phi, opts);
        let (mrhs, orig, counts) = run_both(n, phi, opts.seed, m, 2);
        println!(
            "\n-- occupancy {phi} (m={m}, N={}, N1={}, N2={}, Cheb order={}) --",
            counts.cold, counts.warm_first, counts.warm_second, counts.cheb_order
        );
        print_breakdown_pair(&[format!("phi={phi}")], &[(mrhs, orig)]);
        println!(
            "Eq.9 speedup from measured counts + cost curve: {:.2}x",
            eq9_speedup(&costs, &probe_counts, m)
        );
    }
}

/// Fig. 7: predicted vs achieved average step time as a function of m.
pub fn fig7(opts: &Options) {
    let n = opts.particles;
    section(&format!(
        "Fig. 7: predicted vs achieved average step time vs m ({n} particles, 50%)"
    ));
    // Measure the GSPMV cost curve of this system's matrix.
    let (sys, _) = build(n, 0.5, opts.seed);
    let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
    let ms = [1usize, 2, 4, 8, 12, 16, 24, 32];
    let costs: Vec<(usize, f64)> =
        ms.iter().map(|&m| (m, time_gspmv(&a, m, opts.reps))).collect();

    // Measure iteration counts once (m = 16 chunk).
    let (_, _, counts) = run_both(n, 0.5, opts.seed, 16, 1);
    println!(
        "measured counts: N = {}, N1 = {}, N2 = {}, Cheb order = {}",
        counts.cold, counts.warm_first, counts.warm_second, counts.cheb_order
    );

    // Model curves with the host profile.
    let host = host_profile();
    let model = MrhsModel { gspmv: GspmvModel::new(&a.stats(), host), counts };

    let t1 = costs[0].1;
    // Normalize the model to the measured single-vector time: on hosts
    // with very large LLCs the matrices are cache-resident and the
    // DRAM-bandwidth model over-predicts absolute times; the *shape*
    // (where the minimum falls) is the prediction of interest, exactly
    // as in the paper's Fig. 7.
    let norm = t1 / model.gspmv.time(1);
    println!(
        "{:>4} {:>12} {:>12} {:>12} {:>12}   (model scaled by {:.2})",
        "m", "achieved*", "predicted", "bw-estimate", "comp-estimate", norm
    );
    for &(m, t_m) in &costs {
        // "Achieved" via Eq. 9 on the *measured* cost curve (the true
        // end-to-end runs appear in Tables VI/VII); predicted uses the
        // model curve scaled to the measured T(1).
        println!(
            "{m:>4} {:>12} {:>12} {:>12} {:>12}",
            f(counts.tmrhs(m, t_m, t1)),
            f(model.tmrhs(m) * norm),
            f(model.tmrhs_bandwidth(m) * norm),
            f(model.tmrhs_compute(m) * norm)
        );
    }
    println!(
        "original algorithm: measured-curve {} / model {}",
        f(counts.toriginal(t1)),
        f(model.toriginal() * norm)
    );
    let mo_measured = optimal_m_from_costs(&costs, &counts);
    let mo_model = model.m_optimal(32);
    println!("m_optimal: measured-curve {mo_measured}, model {mo_model}");
}

/// Table VIII: the switch point `m_s` vs the optimal `m` across several
/// systems. Paper: they are within 1–3 of each other everywhere. The
/// last column is the measured optimum with the dense block-CG sweeps
/// priced into the cost curve — the `m` [`pick_m`] would choose.
pub fn table8(opts: &Options) {
    section("Table VIII: m_s vs m_optimal for different systems");
    let host = host_profile();
    let systems: [(usize, f64); 5] = [
        ((opts.particles / 20).max(100), 0.5),
        ((opts.particles / 5).max(300), 0.5),
        (opts.particles, 0.1),
        (opts.particles, 0.3),
        (opts.particles, 0.5),
    ];
    println!(
        "{:>10} {:>6} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "particles",
        "phi",
        "ms(model)",
        "ms(meas.)",
        "mo(model)",
        "mo(meas.)",
        "mo(priced)"
    );
    for (n, phi) in systems {
        let (sys, _) = build(n, phi, opts.seed);
        let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
        let gspmv = GspmvModel::new(&a.stats(), host);
        let ms_model = gspmv.switch_point();

        let mvals = [1usize, 2, 4, 8, 12, 16, 24, 32];
        let costs: Vec<(usize, f64)> =
            mvals.iter().map(|&m| (m, time_gspmv(&a, m, opts.reps))).collect();
        let curve: Vec<(usize, f64)> =
            costs.iter().map(|&(m, t)| (m, t / costs[0].1)).collect();
        let ms_measured = detect_switch_point(&curve);

        let (_, _, counts) = run_both(n, phi, opts.seed, 8, 1);
        let model = MrhsModel { gspmv, counts };
        let mo_model = model.m_optimal(32);
        let mo_measured = optimal_m_from_costs(&costs, &counts);
        // The same argmin with the dense block-CG sweeps priced in.
        let mo_priced =
            optimal_m_from_costs(&effective_costs(&a, &mvals, opts.reps), &counts);
        println!(
            "{n:>10} {phi:>6} {:>12} {ms_measured:>12} {mo_model:>12} {mo_measured:>12} {mo_priced:>12}",
            ms_model.map_or("never".to_string(), |v| v.to_string()),
        );
    }
}

/// Fig. 8: (a) modeled GSPMV time vs thread count; (b) modeled MRHS
/// speedup vs thread count. More threads raise compute throughput much
/// faster than bandwidth, lowering B/F — extra vectors get cheaper, so
/// the MRHS advantage grows (the paper's observation for large
/// manycore nodes). The host of record has few cores, so this
/// experiment replays the paper's WSM parameters.
pub fn fig8(opts: &Options) {
    section("Fig. 8: thread scaling (paper-machine model)");
    let base = MachineProfile::wsm();
    let density = TABLE1_CUTOFFS[1].2; // mat2-like
    let counts = SolveCounts::fig7();
    println!(
        "{:>8} {:>8} {:>14} {:>14} {:>10}",
        "threads", "B/F", "T_gspmv(16)", "rel. t(16)", "speedup"
    );
    for threads in [1usize, 2, 4, 8] {
        let machine = base.with_threads(threads, 8);
        let gspmv = GspmvModel::from_density(density, machine);
        let model = MrhsModel { gspmv, counts };
        println!(
            "{threads:>8} {:>8.2} {:>14} {:>14} {:>9}x",
            machine.byte_per_flop(),
            f(gspmv.time(16) * 1e3),
            f(gspmv.relative_time(16)),
            f(model.predicted_speedup(32))
        );
    }
    println!("(paper Fig. 8b: speedup grows with threads, ~1.3x at 8 threads)");
    let _ = opts;
}
