//! Integration tests of the paper's §III technique for *sequences* of
//! slowly-varying systems — previous-solution initial guesses, which
//! MRHS builds on — exercised on genuinely evolving Stokesian dynamics
//! matrices.

use mrhs::core::{MrhsConfig, NoiseSource, ResistanceSystem};
use mrhs::solvers::{cg, SolveConfig};
use mrhs::stokes::{GaussianNoise, SystemBuilder};

/// Evolves the system a few Brownian steps and returns the matrix
/// sequence (R_0, R_1, …) the solvers see.
fn matrix_sequence(n: usize, steps: usize) -> Vec<mrhs::sparse::BcrsMatrix> {
    let (mut system, mut noise) =
        SystemBuilder::new(n).volume_fraction(0.4).seed(31).build_with_noise();
    let cfg = MrhsConfig { m: 2, ..Default::default() };
    let mut out = vec![system.assemble()];
    for _ in 0..steps {
        // one cheap chunk of motion
        let mut cache = None;
        mrhs::core::run_original_step(&mut system, &mut noise, &cfg, &mut cache);
        out.push(system.assemble());
    }
    out
}

fn rhs(n: usize, seed: u64) -> Vec<f64> {
    let mut noise = GaussianNoise::seed_from_u64(seed);
    let mut b = vec![0.0; n];
    noise.fill_standard_normal(&mut b);
    b
}

#[test]
fn previous_solution_guess_beats_cold_start_across_steps() {
    let seq = matrix_sequence(60, 2);
    let n = seq[0].n_rows();
    let cfg = SolveConfig::default();
    // Same physical RHS solved against consecutive matrices — the
    // pattern of the paper's midpoint solve (step 5 of Alg. 1).
    let b = rhs(n, 9);
    let mut u_prev = vec![0.0; n];
    let cold0 = cg(&seq[0], &b, &mut u_prev, &cfg);
    assert!(cold0.converged);

    let mut warm_x = u_prev.clone();
    let warm = cg(&seq[1], &b, &mut warm_x, &cfg);
    let mut cold_x = vec![0.0; n];
    let cold = cg(&seq[1], &b, &mut cold_x, &cfg);
    assert!(warm.converged && cold.converged);
    assert!(
        warm.iterations < cold.iterations,
        "warm {} vs cold {}",
        warm.iterations,
        cold.iterations
    );
}

#[test]
fn noise_source_trait_object_compatible() {
    // The drivers take generic NoiseSource; make sure the trait is
    // usable through &mut dyn as well (API ergonomics guard).
    fn fill(src: &mut dyn NoiseSource, out: &mut [f64]) {
        src.fill_standard_normal(out);
    }
    let mut g = GaussianNoise::seed_from_u64(3);
    let mut buf = [0.0; 8];
    fill(&mut g, &mut buf);
    assert!(buf.iter().any(|v| *v != 0.0));
}

#[test]
fn resistance_system_dim_consistent_with_assemble() {
    let system = SystemBuilder::new(30).volume_fraction(0.3).seed(5).build();
    let a = system.assemble();
    assert_eq!(a.n_rows(), system.dim());
    assert_eq!(a.n_cols(), system.dim());
}
