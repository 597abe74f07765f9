//! The Stokesian dynamics system driven by the MRHS algorithm.
//!
//! [`StokesianSystem`] implements [`mrhs_core::ResistanceSystem`], so
//! both the original (Alg. 1) and MRHS (Alg. 2) drivers in `mrhs-core`
//! run it unchanged. Units are reduced: lengths in ångströms, `η = 1`,
//! and the Brownian displacement scale is folded into
//! [`StokesianSystem::brownian_scale`] (the paper's physical constants
//! enter only through that prefactor, which does not affect iteration
//! counts or the √t drift law that the experiments measure).

use crate::forces::{add_bond_forces, HarmonicBond};
use crate::packing::pack_ecoli;
use crate::particle::ParticleSystem;
use crate::resistance::{PairList, ResistanceConfig};
use mrhs_core::{NoiseSource, ResistanceSystem};
use mrhs_sparse::BcrsMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A periodic suspension of spheres with lubrication-dominated
/// hydrodynamics.
///
/// The system holds the candidate pair list of its resistance assembly
/// and keeps it valid from every method that moves particles, so
/// [`ResistanceSystem::assemble`] only refills values.
#[derive(Clone, Debug)]
pub struct StokesianSystem {
    particles: ParticleSystem,
    resistance: ResistanceConfig,
    pairs: PairList,
    dt: f64,
    brownian_scale: f64,
    bonds: Vec<HarmonicBond>,
}

impl StokesianSystem {
    /// Wraps an existing particle configuration.
    pub fn new(
        particles: ParticleSystem,
        resistance: ResistanceConfig,
        dt: f64,
        brownian_scale: f64,
    ) -> Self {
        assert!(dt > 0.0);
        assert!(brownian_scale > 0.0);
        StokesianSystem {
            pairs: PairList::build(&particles, &resistance),
            particles,
            resistance,
            dt,
            brownian_scale,
            bonds: Vec::new(),
        }
    }

    /// Attaches harmonic bonds (e.g. from [`crate::forces::chain_bonds`])
    /// that act as the deterministic force `f_P` in the governing
    /// equation.
    pub fn with_bonds(mut self, bonds: Vec<HarmonicBond>) -> Self {
        for b in &bonds {
            assert!(b.i < self.particles.len() && b.j < self.particles.len());
        }
        self.bonds = bonds;
        self
    }

    /// The attached bonds.
    pub fn bonds(&self) -> &[HarmonicBond] {
        &self.bonds
    }

    /// The particle configuration.
    pub fn particles(&self) -> &ParticleSystem {
        &self.particles
    }

    /// The resistance-assembly parameters.
    pub fn resistance_config(&self) -> &ResistanceConfig {
        &self.resistance
    }

    /// The Brownian displacement prefactor multiplying `Δt·u`.
    pub fn brownian_scale(&self) -> f64 {
        self.brownian_scale
    }
}

impl ResistanceSystem for StokesianSystem {
    fn dim(&self) -> usize {
        3 * self.particles.len()
    }

    fn assemble(&self) -> BcrsMatrix {
        self.pairs.fill(&self.particles, &self.resistance)
    }

    fn advance(&mut self, u: &[f64], dt: f64) {
        assert_eq!(u.len(), self.dim());
        let s = dt * self.brownian_scale;
        for i in 0..self.particles.len() {
            self.particles
                .displace(i, [s * u[3 * i], s * u[3 * i + 1], s * u[3 * i + 2]]);
        }
        self.pairs.refresh(&self.particles, &self.resistance);
    }

    fn dt(&self) -> f64 {
        self.dt
    }

    fn save_state(&self) -> Vec<f64> {
        self.particles.positions_flat()
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.particles.set_positions_flat(state);
        self.pairs.refresh(&self.particles, &self.resistance);
    }

    fn add_external_forces(&self, out: &mut [f64]) {
        if !self.bonds.is_empty() {
            add_bond_forces(&self.particles, &self.bonds, out);
        }
    }
}

/// A seeded Gaussian noise source backed by `rand` (Box–Muller over the
/// standard uniform), implementing [`mrhs_core::NoiseSource`].
#[derive(Clone, Debug)]
pub struct GaussianNoise {
    rng: StdRng,
    cached: Option<f64>,
}

impl GaussianNoise {
    /// Creates a source with the given seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        GaussianNoise { rng: StdRng::seed_from_u64(seed), cached: None }
    }
}

impl NoiseSource for GaussianNoise {
    fn fill_standard_normal(&mut self, out: &mut [f64]) {
        for v in out.iter_mut() {
            if let Some(c) = self.cached.take() {
                *v = c;
                continue;
            }
            let u1: f64 = loop {
                let u = self.rng.random::<f64>();
                if u > 0.0 {
                    break u;
                }
            };
            let u2: f64 = self.rng.random();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            *v = r * theta.cos();
            self.cached = Some(r * theta.sin());
        }
    }
}

/// Builder for the experiment systems of §V: `n` particles drawn from
/// the E. coli distribution, packed to a target occupancy.
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    n_particles: usize,
    volume_fraction: f64,
    resistance: ResistanceConfig,
    dt: f64,
    brownian_scale: f64,
    seed: u64,
}

impl SystemBuilder {
    /// Starts a builder for `n_particles` spheres.
    pub fn new(n_particles: usize) -> Self {
        SystemBuilder {
            n_particles,
            volume_fraction: 0.5,
            resistance: ResistanceConfig::default(),
            dt: 1.0,
            // Keeps per-step displacements a small fraction of a radius
            // (the regime of the paper's √t guess-drift law), calibrated
            // so the Fig. 5 error constant lands near the paper's 0.006.
            brownian_scale: 2.0,
            seed: 12345,
        }
    }

    /// Target volume occupancy (the paper tests 0.1, 0.3, 0.5).
    pub fn volume_fraction(mut self, phi: f64) -> Self {
        assert!(phi > 0.0 && phi < 0.64);
        self.volume_fraction = phi;
        self
    }

    /// Pair cutoff in scaled separation (`s_cut`), controlling matrix
    /// density as in Table I.
    pub fn s_cut(mut self, s_cut: f64) -> Self {
        assert!(s_cut > 2.0);
        self.resistance.s_cut = s_cut;
        self
    }

    /// Gap floor `ξ_min`.
    pub fn xi_min(mut self, xi_min: f64) -> Self {
        assert!(xi_min > 0.0);
        self.resistance.xi_min = xi_min;
        self
    }

    /// Time step length.
    pub fn dt(mut self, dt: f64) -> Self {
        assert!(dt > 0.0);
        self.dt = dt;
        self
    }

    /// Brownian displacement prefactor.
    pub fn brownian_scale(mut self, s: f64) -> Self {
        assert!(s > 0.0);
        self.brownian_scale = s;
        self
    }

    /// RNG seed for packing.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Packs the particles and builds the system.
    pub fn build(self) -> StokesianSystem {
        let particles =
            pack_ecoli(self.n_particles, self.volume_fraction, self.seed);
        StokesianSystem::new(
            particles,
            self.resistance,
            self.dt,
            self.brownian_scale,
        )
    }

    /// Builds the system plus a noise source seeded consistently.
    pub fn build_with_noise(self) -> (StokesianSystem, GaussianNoise) {
        let seed = self.seed;
        (
            self.build(),
            GaussianNoise::seed_from_u64(seed.wrapping_mul(31).wrapping_add(7)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_core::{run_mrhs_chunk, run_original_step, MrhsConfig};

    fn small() -> StokesianSystem {
        SystemBuilder::new(40).volume_fraction(0.4).seed(5).build()
    }

    #[test]
    fn dim_is_three_per_particle() {
        let s = small();
        assert_eq!(s.dim(), 120);
    }

    #[test]
    fn save_restore_round_trip() {
        let mut s = small();
        let saved = s.save_state();
        let u = vec![1.0; s.dim()];
        s.advance(&u, 0.5);
        assert_ne!(s.save_state(), saved);
        s.restore_state(&saved);
        assert_eq!(s.save_state(), saved);
    }

    #[test]
    fn advance_scales_by_brownian_prefactor() {
        let mut s = small();
        let before = s.particles().positions()[0];
        let mut u = vec![0.0; s.dim()];
        u[0] = 1.0;
        s.advance(&u, 2.0);
        let after = s.particles().positions()[0];
        let moved = after[0] - before[0];
        assert!((moved - 2.0 * s.brownian_scale()).abs() < 1e-12);
    }

    #[test]
    fn original_step_runs_on_stokesian_system() {
        let mut s = small();
        let mut noise = GaussianNoise::seed_from_u64(1);
        let cfg = MrhsConfig::default();
        let mut cache = None;
        let stats = run_original_step(&mut s, &mut noise, &cfg, &mut cache);
        assert!(stats.first_solve_iterations > 0);
        assert!(stats.second_solve_iterations <= stats.first_solve_iterations);
    }

    #[test]
    fn mrhs_chunk_gives_warm_starts_on_stokesian_system() {
        let mut s = SystemBuilder::new(60).volume_fraction(0.5).seed(9).build();
        let mut noise = GaussianNoise::seed_from_u64(2);
        let cfg = MrhsConfig { m: 6, ..Default::default() };
        let report = run_mrhs_chunk(&mut s, &mut noise, &cfg);
        assert_eq!(report.steps.len(), 6);
        assert!(report.block_iterations > 0);

        // Compare against cold-start iterations on an identical system.
        let mut s2 = SystemBuilder::new(60).volume_fraction(0.5).seed(9).build();
        let mut noise2 = GaussianNoise::seed_from_u64(2);
        let mut cache = None;
        let cold = run_original_step(&mut s2, &mut noise2, &cfg, &mut cache);

        let warm_mean: f64 = report.steps[1..]
            .iter()
            .map(|st| st.first_solve_iterations as f64)
            .sum::<f64>()
            / (report.steps.len() - 1) as f64;
        assert!(
            warm_mean < cold.first_solve_iterations as f64,
            "warm {warm_mean} vs cold {}",
            cold.first_solve_iterations
        );
    }

    #[test]
    fn benchmark_like_steps_rarely_search_for_pairs() {
        // The benchmark's suspension and driver settings, six chunks of
        // eight steps: a skin too thin for the per-step displacement
        // would show up here as a search every few steps.
        let (mut s, mut noise) = SystemBuilder::new(300).build_with_noise();
        let cfg =
            MrhsConfig { m: 8, record_guess_errors: false, ..Default::default() };
        for _ in 0..6 {
            run_mrhs_chunk(&mut s, &mut noise, &cfg);
        }
        assert!(s.pairs.rebuilds <= 3, "{} searches in 48 steps", s.pairs.rebuilds);
    }

    #[test]
    fn pair_list_reports_searches_and_fills() {
        use mrhs_core::telemetry;
        telemetry::set_enabled(true);
        let count = |name: &str| telemetry::global().counter_value(name);
        let before =
            (count("stokes/pairlist/rebuilds"), count("stokes/pairlist/fills"));
        let mut s = small();
        for _ in 0..3 {
            s.assemble();
        }
        s.advance(&vec![1.0; s.dim()], 10.0); // far past the skin
        s.assemble();
        assert_eq!(s.pairs.rebuilds, 2);
        // Other tests add to the global registry, never subtract.
        assert!(count("stokes/pairlist/rebuilds") >= before.0 + 2);
        assert!(count("stokes/pairlist/fills") >= before.1 + 4);
        for name in ["stokes/pairlist/candidates", "stokes/pairlist/active"] {
            assert!(telemetry::global().gauge_value(name).unwrap() > 0.0);
        }
    }

    #[test]
    fn builder_honors_parameters() {
        let s = SystemBuilder::new(30)
            .volume_fraction(0.2)
            .s_cut(2.5)
            .dt(0.5)
            .brownian_scale(0.01)
            .seed(3)
            .build();
        assert_eq!(s.particles().len(), 30);
        assert!((s.particles().volume_fraction() - 0.2).abs() < 1e-9);
        assert_eq!(s.dt(), 0.5);
        assert_eq!(s.resistance_config().s_cut, 2.5);
    }

    #[test]
    fn gaussian_noise_moments() {
        let mut g = GaussianNoise::seed_from_u64(8);
        let mut v = vec![0.0; 50_000];
        g.fill_standard_normal(&mut v);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var =
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.03);
        assert!((var - 1.0).abs() < 0.05);
    }
}
