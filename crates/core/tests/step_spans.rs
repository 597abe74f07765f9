//! The drivers time each phase of a step as a `mrhs/*` telemetry span —
//! the one step clock — and the solvers count the solves they
//! preconditioned. This test sits alone in its file so that it runs in
//! a process of its own and the global registry counts exactly what it
//! ran.

use mrhs_core::system::XorShiftNoise;
use mrhs_core::{run_mrhs_chunk, run_original_step, MrhsConfig, ResistanceSystem};
use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};
use mrhs_telemetry::Snapshot;

/// Particles on a line with separation-dependent spring couplings, so
/// the matrix moves with the configuration.
struct LineSystem {
    positions: Vec<f64>,
}

impl ResistanceSystem for LineSystem {
    fn dim(&self) -> usize {
        self.positions.len() * 3
    }

    fn assemble(&self) -> BcrsMatrix {
        let nb = self.positions.len();
        let mut t = BlockTripletBuilder::square(nb);
        for i in 0..nb {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < nb {
                let d = self.positions[i + 1] - self.positions[i];
                let w = 1.0 / (0.5 + d * d);
                t.add(i, i, Block3::scaled_identity(w));
                t.add(i + 1, i + 1, Block3::scaled_identity(w));
                t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-w));
            }
        }
        t.build()
    }

    fn advance(&mut self, u: &[f64], dt: f64) {
        for (i, p) in self.positions.iter_mut().enumerate() {
            *p += dt * u[3 * i];
        }
    }

    fn dt(&self) -> f64 {
        0.05
    }

    fn save_state(&self) -> Vec<f64> {
        self.positions.clone()
    }

    fn restore_state(&mut self, state: &[f64]) {
        self.positions.copy_from_slice(state);
    }
}

fn count(diff: &Snapshot, name: &str) -> u64 {
    diff.spans.get(name).map_or(0, |s| s.count)
}

fn counter(diff: &Snapshot, name: &str) -> u64 {
    diff.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn each_phase_is_one_span_per_occurrence() {
    mrhs_telemetry::set_enabled(true);
    let mut sys = LineSystem { positions: (0..15).map(f64::from).collect() };
    let mut noise = XorShiftNoise::new(21);
    let m = 4u64;
    let cfg = MrhsConfig { m: m as usize, ..Default::default() };

    // Alg. 2: the head work once per chunk, the head step's Brownian
    // force taken from the block (so m − 1 single-vector Chebyshevs).
    let before = mrhs_telemetry::snapshot();
    let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
    let chunk = mrhs_telemetry::snapshot().diff(&before);
    assert_eq!(report.steps.len() as u64, m);
    assert_eq!(count(&chunk, "mrhs/cheb_vectors"), 1);
    assert_eq!(count(&chunk, "mrhs/calc_guesses"), 1);
    assert_eq!(count(&chunk, "mrhs/first_solve"), m);
    assert_eq!(count(&chunk, "mrhs/second_solve"), m);
    assert_eq!(count(&chunk, "mrhs/cheb_single"), m - 1);
    // R_0, then per step R_k (k > 0) and the midpoint matrix.
    assert_eq!(count(&chunk, "mrhs/assemble"), 1 + (m - 1) + m);
    assert!(chunk.span_secs("mrhs/calc_guesses") > 0.0);
    assert!(chunk.span_secs("mrhs/first_solve") > 0.0);

    // Alg. 1: no head work at all.
    let before = mrhs_telemetry::snapshot();
    run_original_step(&mut sys, &mut noise, &cfg, &mut None);
    let step = mrhs_telemetry::snapshot().diff(&before);
    assert_eq!(count(&step, "mrhs/cheb_vectors"), 0);
    assert_eq!(count(&step, "mrhs/calc_guesses"), 0);
    assert_eq!(count(&step, "mrhs/cheb_single"), 1);
    assert_eq!(count(&step, "mrhs/first_solve"), 1);
    assert_eq!(count(&step, "mrhs/second_solve"), 1);

    // On a real suspension every solve of a chunk — the block solve
    // and the 2m warm-started ones — is preconditioned: the drivers
    // hand the solvers the assembled matrix itself, whose diagonal
    // blocks are positive definite. A solve that fell back, or went
    // through a wrapper that hides the diagonal, shows here as a gap.
    let mut suspension =
        mrhs_stokes::SystemBuilder::new(60).volume_fraction(0.4).seed(3).build();
    let before = mrhs_telemetry::snapshot();
    run_mrhs_chunk(&mut suspension, &mut noise, &cfg);
    let chunk = mrhs_telemetry::snapshot().diff(&before);
    assert_eq!(counter(&chunk, "solver/block_cg/solves"), 1);
    assert_eq!(counter(&chunk, "solver/block_cg/preconditioned"), 1);
    assert_eq!(counter(&chunk, "solver/cg/solves"), 2 * m);
    assert_eq!(counter(&chunk, "solver/cg/preconditioned"), 2 * m);
}
