//! Stokesian-dynamics accuracy experiments: Table IV, Fig. 5, Fig. 6,
//! Table V.

use crate::common::{build, section, Options};
use mrhs_core::{run_mrhs_chunk, run_original_step, MrhsConfig};
use mrhs_stokes::ecoli_radii_distribution;

/// Table IV: the particle radii distribution used for every SD system.
pub fn table4(_opts: &Options) {
    section("Table IV: distribution of particle radii (E. coli cytoplasm)");
    println!("{:>14} {:>14}", "radius (A)", "fraction (%)");
    for (r, p) in ecoli_radii_distribution() {
        println!("{r:>14.2} {:>14.2}", 100.0 * p);
    }
}

/// Fig. 5: relative error of the auxiliary-system initial guesses vs
/// time step. The paper (3,000 particles, 50% occupancy) observes
/// `‖u_k − u'_k‖/‖u_k‖ ≈ c·√k` with c ≈ 0.006 — the Brownian √t law.
pub fn fig5(opts: &Options) {
    let n = (opts.particles / 2).clamp(200, 3000);
    section(&format!(
        "Fig. 5: initial-guess relative error vs step ({n} particles, 50%)"
    ));
    let (mut sys, mut noise) = build(n, 0.5, opts.seed);
    let m = 16;
    let cfg = MrhsConfig { m, ..Default::default() };
    let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
    println!("{:>6} {:>14} {:>12}", "step", "rel. error", "err/sqrt(k)");
    let mut consts = Vec::new();
    for (k, s) in report.steps.iter().enumerate().skip(1) {
        let e = s.guess_relative_error.unwrap_or(f64::NAN);
        let c = e / (k as f64).sqrt();
        consts.push(c);
        println!("{k:>6} {e:>14.6} {c:>12.6}");
    }
    let mean_c = consts.iter().sum::<f64>() / consts.len() as f64;
    let spread = consts.iter().map(|c| (c - mean_c).abs()).fold(0.0f64, f64::max);
    println!(
        "sqrt-law constant c = {mean_c:.6} (max dev {:.1}% — paper: c ≈ 0.006, \
         constant in k)",
        100.0 * spread / mean_c
    );
}

/// Fig. 6: warm-started first-solve iterations vs time step for three
/// system sizes at 50% occupancy — slow growth over the chunk.
pub fn fig6(opts: &Options) {
    let sizes = [
        (opts.particles / 20).max(100),
        (opts.particles / 5).max(300),
        opts.particles,
    ];
    section(&format!(
        "Fig. 6: iterations vs step with initial guesses (sizes {sizes:?}, 50%)"
    ));
    let m = 12;
    let mut tables = Vec::new();
    for &n in &sizes {
        let (mut sys, mut noise) = build(n, 0.5, opts.seed);
        let cfg = MrhsConfig { m, ..Default::default() };
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        tables.push(
            report
                .steps
                .iter()
                .map(|s| s.first_solve_iterations)
                .collect::<Vec<_>>(),
        );
    }
    print!("{:>6}", "step");
    for n in sizes {
        print!(" {:>10}", format!("{n} part."));
    }
    println!();
    for k in 1..m {
        print!("{k:>6}");
        for t in &tables {
            print!(" {:>10}", t[k]);
        }
        println!();
    }
}

/// Table V: first-solve iterations with and without initial guesses at
/// 10%/30%/50% occupancy. Paper (300k particles): with guesses
/// 8–9/12–15/80–89, without 16/30/162 — a 30–40% reduction.
pub fn table5(opts: &Options) {
    let n = opts.particles;
    section(&format!(
        "Table V: iterations with/without initial guesses ({n} particles)"
    ));
    let phis = [0.1, 0.3, 0.5];
    let m = 13; // reports steps 1..12 of a chunk
    let mut with_guess: Vec<Vec<usize>> = Vec::new();
    let mut without: Vec<Vec<usize>> = Vec::new();
    for &phi in &phis {
        let (mut sys, mut noise) = build(n, phi, opts.seed);
        let cfg = MrhsConfig { m, ..Default::default() };
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        with_guess.push(
            report.steps[1..].iter().map(|s| s.first_solve_iterations).collect(),
        );

        // Identical system and noise stream, original algorithm.
        let (mut sys2, mut noise2) = build(n, phi, opts.seed);
        let mut cache = None;
        let mut cold = Vec::new();
        for _ in 0..m {
            let s = run_original_step(&mut sys2, &mut noise2, &cfg, &mut cache);
            cold.push(s.first_solve_iterations);
        }
        without.push(cold[1..].to_vec());
    }
    println!(
        "{:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "step", "w 0.1", "w 0.3", "w 0.5", "wo 0.1", "wo 0.3", "wo 0.5"
    );
    for k in 0..m - 1 {
        println!(
            "{:>6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
            k + 1,
            with_guess[0][k],
            with_guess[1][k],
            with_guess[2][k],
            without[0][k],
            without[1][k],
            without[2][k]
        );
    }
    for (i, phi) in phis.iter().enumerate() {
        let w: f64 =
            with_guess[i].iter().sum::<usize>() as f64 / with_guess[i].len() as f64;
        let wo: f64 =
            without[i].iter().sum::<usize>() as f64 / without[i].len() as f64;
        println!(
            "phi = {phi}: mean {w:.1} with vs {wo:.1} without -> {:.0}% reduction \
             (paper: 30-50%)",
            100.0 * (1.0 - w / wo)
        );
    }
}
