//! `sd-sim` — a standalone Stokesian dynamics simulation driver.
//!
//! Runs a crowded-suspension trajectory with the MRHS algorithm and
//! reports the physics (MSD, diffusion constant, radial distribution)
//! and the solver behaviour (iteration counts, block-solve costs).
//!
//! ```text
//! sd-sim [--particles N] [--occupancy F] [--steps N] [--m N]
//!        [--seed N] [--baseline]
//! ```

use mrhs_core::{run_mrhs_chunk, run_original_step, MrhsConfig, ResistanceSystem};
use mrhs_stokes::analysis::{radial_distribution, MsdTracker};
use mrhs_stokes::{GaussianNoise, SystemBuilder};

struct Args {
    particles: usize,
    occupancy: f64,
    steps: usize,
    m: usize,
    seed: u64,
    baseline: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        particles: 500,
        occupancy: 0.4,
        steps: 24,
        m: 8,
        seed: 7,
        baseline: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--particles" => args.particles = next_val(&mut it, &a),
            "--occupancy" => args.occupancy = next_val(&mut it, &a),
            "--steps" => args.steps = next_val(&mut it, &a),
            "--m" => args.m = next_val(&mut it, &a),
            "--seed" => args.seed = next_val(&mut it, &a),
            "--baseline" => args.baseline = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: sd-sim [--particles N] [--occupancy F] [--steps N] \
                     [--m N] [--seed N] [--baseline]"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn next_val<T: std::str::FromStr>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    it.next()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} needs a value"))
}

fn main() {
    let args = parse_args();
    let (mut system, mut noise) = SystemBuilder::new(args.particles)
        .volume_fraction(args.occupancy)
        .seed(args.seed)
        .build_with_noise();
    println!(
        "sd-sim: {} particles, occupancy {:.2}, box {:.0} A, algorithm: {}",
        args.particles,
        system.particles().volume_fraction(),
        system.particles().box_lengths()[0],
        if args.baseline { "original (Alg. 1)" } else { "MRHS (Alg. 2)" }
    );

    let cfg = MrhsConfig { m: args.m, ..Default::default() };
    let mut msd = MsdTracker::new(system.particles());
    let mut total_first = 0usize;
    let mut total_second = 0usize;
    let mut steps_done = 0usize;
    let start = std::time::Instant::now();

    if args.baseline {
        let mut cache = None;
        let mut noise = GaussianNoise::seed_from_u64(args.seed);
        while steps_done < args.steps {
            let s = run_original_step(&mut system, &mut noise, &cfg, &mut cache);
            total_first += s.first_solve_iterations;
            total_second += s.second_solve_iterations;
            steps_done += 1;
            msd.record(system.particles(), system.dt());
        }
    } else {
        while steps_done < args.steps {
            let report = run_mrhs_chunk(&mut system, &mut noise, &cfg);
            for s in &report.steps {
                total_first += s.first_solve_iterations;
                total_second += s.second_solve_iterations;
            }
            steps_done += report.steps.len();
            msd.record(system.particles(), report.steps.len() as f64 * system.dt());
            println!(
                "  chunk done: block {} it, msd {:.4} A^2",
                report.block_iterations,
                msd.msd()
            );
        }
    }
    let elapsed = start.elapsed().as_secs_f64();

    println!("\n== trajectory ({steps_done} steps, {elapsed:.2} s) ==");
    println!(
        "mean first-solve iterations : {:.1}",
        total_first as f64 / steps_done as f64
    );
    println!(
        "mean second-solve iterations: {:.1}",
        total_second as f64 / steps_done as f64
    );
    println!("final MSD: {:.4} A^2", msd.msd());
    if let Some(d) = msd.diffusion_constant() {
        println!("diffusion constant (MSD/6t fit): {d:.5} A^2/time");
    }

    println!("\n== structure: g(gap) ==");
    for (gap, g) in radial_distribution(system.particles(), 30.0, 6) {
        let bar = "#".repeat((g * 10.0).min(60.0) as usize);
        println!("  gap {gap:6.1} A: {g:7.3} {bar}");
    }
}
