//! Abstractions the MRHS algorithm is generic over.

use mrhs_sparse::BcrsMatrix;

/// A dynamical system governed by `R(r)·dr/dt = −f_B` with a
/// configuration-dependent SPD resistance matrix — the structure the
/// MRHS algorithm exploits. `mrhs-stokes` implements this for Stokesian
/// dynamics; tests use small synthetic systems.
pub trait ResistanceSystem {
    /// Scalar dimension of the state and of the resistance matrix
    /// (`3 × n_particles` for SD).
    fn dim(&self) -> usize;

    /// Assembles the resistance matrix at the current configuration
    /// (paper Alg. 1 step 1 / Alg. 2 steps 1 and 8).
    fn assemble(&self) -> BcrsMatrix;

    /// Advances the configuration: `r ← r + dt·u`.
    fn advance(&mut self, u: &[f64], dt: f64);

    /// Time step length `Δt`.
    fn dt(&self) -> f64;

    /// Snapshot of the configuration, used by the explicit midpoint
    /// scheme to return from the half step.
    fn save_state(&self) -> Vec<f64>;

    /// Restores a snapshot taken by [`Self::save_state`].
    fn restore_state(&mut self, state: &[f64]);

    /// Adds the deterministic inter-particle/external forces `f_P` at
    /// the current configuration into `out` (paper §II-A: bonded forces
    /// for chain molecules, external fields, …). The governing equation
    /// becomes `R·dr/dt = −(f_B + f_P)`. Default: no external forces
    /// (`f_P = 0`, as in the paper's experiments).
    fn add_external_forces(&self, out: &mut [f64]) {
        let _ = out;
    }
}

/// A stream of standard normal variates for the Brownian noise vectors
/// `z_k`. Implementations must be reproducible under seeding so that
/// MRHS and baseline runs can consume identical noise.
pub trait NoiseSource {
    /// Fills `out` with independent `N(0, 1)` samples.
    fn fill_standard_normal(&mut self, out: &mut [f64]);
}

/// A deterministic xorshift-based Gaussian source (Box–Muller). This is
/// the reference [`NoiseSource`] used by tests and examples; the
/// Stokesian application may use any source.
#[derive(Clone, Debug)]
pub struct XorShiftNoise {
    state: u64,
    cached: Option<f64>,
}

impl XorShiftNoise {
    /// Creates a source from a non-zero seed.
    pub fn new(seed: u64) -> Self {
        XorShiftNoise { state: seed | 1, cached: None }
    }

    fn next_u64(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    fn next_uniform(&mut self) -> f64 {
        // in (0, 1]
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }
}

impl NoiseSource for XorShiftNoise {
    fn fill_standard_normal(&mut self, out: &mut [f64]) {
        for v in out.iter_mut() {
            if let Some(c) = self.cached.take() {
                *v = c;
            } else {
                let u1 = self.next_uniform();
                let u2 = self.next_uniform();
                let r = (-2.0 * u1.ln()).sqrt();
                let theta = 2.0 * std::f64::consts::PI * u2;
                *v = r * theta.cos();
                self.cached = Some(r * theta.sin());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_reproducible_under_seed() {
        let mut a = XorShiftNoise::new(7);
        let mut b = XorShiftNoise::new(7);
        let mut va = [0.0; 16];
        let mut vb = [0.0; 16];
        a.fill_standard_normal(&mut va);
        b.fill_standard_normal(&mut vb);
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = XorShiftNoise::new(7);
        let mut b = XorShiftNoise::new(8);
        let mut va = [0.0; 8];
        let mut vb = [0.0; 8];
        a.fill_standard_normal(&mut va);
        b.fill_standard_normal(&mut vb);
        assert_ne!(va, vb);
    }

    #[test]
    fn noise_has_roughly_standard_moments() {
        let mut src = XorShiftNoise::new(42);
        let mut v = vec![0.0; 100_000];
        src.fill_standard_normal(&mut v);
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var =
            v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn odd_lengths_use_cached_sample() {
        let mut src = XorShiftNoise::new(11);
        let mut a = [0.0; 3];
        let mut b = [0.0; 3];
        src.fill_standard_normal(&mut a);
        src.fill_standard_normal(&mut b);
        // The cache must not duplicate values across calls.
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }
}
