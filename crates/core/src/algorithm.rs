//! The MRHS driver (paper Algorithm 2) and the original baseline
//! (Algorithm 1). Both report iteration counts per step and time the
//! paper's phases (Tables VI/VII) as `mrhs/*` telemetry spans:
//! `mrhs/assemble`, `mrhs/cheb_vectors`, `mrhs/calc_guesses`,
//! `mrhs/cheb_single`, `mrhs/first_solve`, `mrhs/second_solve`.

use crate::system::{NoiseSource, ResistanceSystem};
use mrhs_solvers::{block_cg, cg, spectral_bounds, ChebyshevSqrt, SolveConfig};
use mrhs_sparse::{BcrsMatrix, MultiVec};
use mrhs_telemetry::span;

/// Lanczos steps for the spectral-bound estimate of each polynomial.
pub const LANCZOS_STEPS: usize = 20;

/// Multiplicative widening of the spectral interval so one Chebyshev
/// polynomial stays valid while `R` drifts over a chunk.
pub const BOUNDS_MARGIN: f64 = 1.15;

/// Parameters of both drivers.
#[derive(Clone, Debug)]
pub struct MrhsConfig {
    /// Number of right-hand sides per chunk (the paper's `m`; 16 in the
    /// headline experiments).
    pub m: usize,
    /// Maximum Chebyshev order `C_max` (30 in the paper).
    pub cheb_order: usize,
    /// Convergence controls for all solves.
    pub solve: SolveConfig,
    /// Relative tolerance of the auxiliary block solve. The auxiliary
    /// solutions are only *initial guesses*, and for every step after
    /// the first their error is dominated by the √t matrix drift
    /// (Fig. 5: ~3·10⁻³ after one step) — so the block solve stops one
    /// decade below that floor (10⁻⁴ default) instead of running to
    /// full tolerance, and every step (including the chunk head)
    /// refines its own solution to `solve.tol` from its column.
    pub guess_tol: f64,
    /// Record `‖u_k − u'_k‖/‖u_k‖` per step (Fig. 5). Costs one vector
    /// copy per solve.
    pub record_guess_errors: bool,
}

impl Default for MrhsConfig {
    fn default() -> Self {
        MrhsConfig {
            m: 16,
            cheb_order: 30,
            solve: SolveConfig::default(),
            guess_tol: 1e-4,
            record_guess_errors: true,
        }
    }
}

/// Per-step observations.
#[derive(Clone, Debug)]
pub struct StepStats {
    /// CG iterations of the step's first solve, warm-started from the
    /// step's auxiliary-system column.
    pub first_solve_iterations: usize,
    /// CG iterations of the midpoint solve.
    pub second_solve_iterations: usize,
    /// `‖u_k − u'_k‖/‖u_k‖` where `u'_k` was the initial guess used for
    /// the first solve; `None` when not recorded or no guess was used.
    pub guess_relative_error: Option<f64>,
}

/// Everything observed while running one MRHS chunk of `m` steps.
#[derive(Clone, Debug)]
pub struct ChunkReport {
    /// Right-hand sides in the chunk.
    pub m: usize,
    /// Block-CG iterations of the auxiliary solve.
    pub block_iterations: usize,
    /// Per-step observations, length `m`.
    pub steps: Vec<StepStats>,
}

/// Runs one chunk of `cfg.m` time steps with the MRHS algorithm
/// (paper Alg. 2), advancing `system` by `cfg.m` steps.
pub fn run_mrhs_chunk<S: ResistanceSystem, N: NoiseSource>(
    system: &mut S,
    noise: &mut N,
    cfg: &MrhsConfig,
) -> ChunkReport {
    assert!(cfg.m >= 1);
    let n = system.dim();
    let m = cfg.m;

    // -- Alg. 2 step 1: construct R_0 ---------------------------------
    let mut r0 = {
        let _t = span("mrhs/assemble");
        system.assemble()
    };

    // Spectral interval for the whole chunk.
    let cheb = chebyshev_sqrt(&r0, cfg);

    // -- Alg. 2 step 2: F_B = S(R_0)·Z with all m noise vectors --------
    let mut z = MultiVec::zeros(n, m);
    noise.fill_standard_normal(z.as_mut_slice());
    let mut rhs = {
        let _t = span("mrhs/cheb_vectors");
        let mut rhs = MultiVec::zeros(n, m);
        cheb.apply_multi(&r0, &z, &mut rhs);
        rhs.scale(-1.0); // solve R·u = −(f_B + f_P)
        rhs
    };
    let mut f_ext = vec![0.0; n];
    system.add_external_forces(&mut f_ext);
    for (row, fe) in (0..n).zip(&f_ext) {
        for v in rhs.row_mut(row) {
            *v -= fe;
        }
    }

    // -- Alg. 2 step 3: block solve R_0·U = −F_B -----------------------
    // Solved only to `guess_tol`: the columns are initial guesses whose
    // quality is bounded by the matrix drift anyway; each step below
    // refines its own solution to full tolerance.
    let mut u = MultiVec::zeros(n, m);
    let guess_cfg = SolveConfig { tol: cfg.guess_tol, ..cfg.solve };
    let block = {
        let _t = span("mrhs/calc_guesses");
        block_cg(&r0, &rhs, &mut u, &guess_cfg)
    };

    let mut steps = Vec::with_capacity(m);

    // Reused per-step column buffers (no per-iteration allocation),
    // filled through the same `gather_columns_into` helper the solve
    // service's batcher uses; a width-1 `MultiVec`'s flat buffer *is*
    // the column, so the scalar solvers consume it directly.
    let mut zk = MultiVec::zeros(n, 1);
    let mut uk = MultiVec::zeros(n, 1);
    let mut fbk = MultiVec::zeros(n, 1);
    let mut u_mid = vec![0.0; n];

    // -- Alg. 2 steps 4–14: every step warm-starts from its column ----
    for k in 0..m {
        // R_k (the chunk head reuses R_0, already assembled).
        let rk = if k == 0 {
            std::mem::replace(&mut r0, BcrsMatrix::zero(0))
        } else {
            let _t = span("mrhs/assemble");
            system.assemble()
        };

        // f_B(k) = S(R_k)·z_k; the head step's is column 0 of the block.
        if k == 0 {
            rhs.gather_columns_into(&[0], &mut fbk);
        } else {
            z.gather_columns_into(&[k], &mut zk);
            let _t = span("mrhs/cheb_single");
            brownian_rhs(
                system,
                &cheb,
                &rk,
                zk.as_slice(),
                fbk.as_mut_slice(),
                &mut f_ext,
            );
        }
        let fbk = fbk.as_slice();

        // First solve, warm-started from the auxiliary solution u'_k.
        u.gather_columns_into(&[k], &mut uk);
        let guess =
            (k > 0 && cfg.record_guess_errors).then(|| uk.as_slice().to_vec());
        let res1 = {
            let _t = span("mrhs/first_solve");
            cg(&rk, fbk, uk.as_mut_slice(), &cfg.solve)
        };
        let guess_relative_error = guess.map(|g| relative_error(uk.as_slice(), &g));

        let stats =
            midpoint_second_half(system, uk.as_slice(), fbk, &mut u_mid, cfg);
        steps.push(StepStats {
            first_solve_iterations: res1.iterations,
            guess_relative_error,
            ..stats
        });
    }

    ChunkReport { m, block_iterations: block.iterations, steps }
}

/// Runs one time step of the original algorithm (paper Alg. 1): a cold
/// first solve, then the midpoint solve warm-started from it. `cheb`
/// caches the Chebyshev polynomial across steps; pass `None` initially
/// (or to force a bounds refresh) and reuse the returned cache.
pub fn run_original_step<S: ResistanceSystem, N: NoiseSource>(
    system: &mut S,
    noise: &mut N,
    cfg: &MrhsConfig,
    cheb_cache: &mut Option<ChebyshevSqrt>,
) -> StepStats {
    let n = system.dim();

    let rk = {
        let _t = span("mrhs/assemble");
        system.assemble()
    };

    let cheb = cheb_cache.get_or_insert_with(|| chebyshev_sqrt(&rk, cfg));

    let mut zk = vec![0.0; n];
    noise.fill_standard_normal(&mut zk);
    let mut fbk = vec![0.0; n];
    let mut u_mid = vec![0.0; n];
    {
        let _t = span("mrhs/cheb_single");
        // `u_mid` is free until the midpoint solve: scratch for f_P.
        brownian_rhs(system, cheb, &rk, &zk, &mut fbk, &mut u_mid);
    }

    // Cold first solve (no initial guess available in the original
    // algorithm).
    let mut uk = vec![0.0; n];
    let res1 = {
        let _t = span("mrhs/first_solve");
        cg(&rk, &fbk, &mut uk, &cfg.solve)
    };

    let stats = midpoint_second_half(system, &uk, &fbk, &mut u_mid, cfg);
    StepStats {
        first_solve_iterations: res1.iterations,
        guess_relative_error: None,
        ..stats
    }
}

/// The order-`cfg.cheb_order` polynomial for `S(R) = R^{1/2}` on `r`'s
/// Lanczos interval widened by [`BOUNDS_MARGIN`].
fn chebyshev_sqrt(r: &BcrsMatrix, cfg: &MrhsConfig) -> ChebyshevSqrt {
    let g = (r.gershgorin_lower_bound(), r.gershgorin_upper_bound());
    let b = spectral_bounds(r, LANCZOS_STEPS, Some(g));
    ChebyshevSqrt::new(b.lo / BOUNDS_MARGIN, b.hi * BOUNDS_MARGIN, cfg.cheb_order)
}

/// The right-hand side of one step, `out = −(S(R)·z + f_P)`, with `ext`
/// as scratch for the external forces.
fn brownian_rhs<S: ResistanceSystem>(
    system: &S,
    cheb: &ChebyshevSqrt,
    op: &BcrsMatrix,
    z: &[f64],
    out: &mut [f64],
    ext: &mut [f64],
) {
    cheb.apply(op, z, out);
    ext.fill(0.0);
    system.add_external_forces(ext);
    for (v, e) in out.iter_mut().zip(ext.iter()) {
        *v = -*v - e;
    }
}

/// Shared tail of both algorithms: advance to the midpoint, solve
/// `R(r_{k+1/2})·u_{k+1/2} = b` in `u_mid` warm-started from `u_k`,
/// return to the start of the step, and advance by the full
/// `Δt·u_{k+1/2}`.
fn midpoint_second_half<S: ResistanceSystem>(
    system: &mut S,
    u_first: &[f64],
    b: &[f64],
    u_mid: &mut [f64],
    cfg: &MrhsConfig,
) -> StepStats {
    let dt = system.dt();
    let saved = system.save_state();
    system.advance(u_first, 0.5 * dt);

    let r_mid = {
        let _t = span("mrhs/assemble");
        system.assemble()
    };

    u_mid.copy_from_slice(u_first); // warm start from the first solve
    let res2 = {
        let _t = span("mrhs/second_solve");
        cg(&r_mid, b, u_mid, &cfg.solve)
    };

    system.restore_state(&saved);
    system.advance(u_mid, dt);

    StepStats {
        first_solve_iterations: 0,
        second_solve_iterations: res2.iterations,
        guess_relative_error: None,
    }
}

fn relative_error(solution: &[f64], guess: &[f64]) -> f64 {
    let mut diff = 0.0;
    let mut norm = 0.0;
    for (s, g) in solution.iter().zip(guess) {
        diff += (s - g) * (s - g);
        norm += s * s;
    }
    if norm == 0.0 {
        0.0
    } else {
        (diff / norm).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::XorShiftNoise;
    use mrhs_sparse::{BcrsMatrix, Block3, BlockTripletBuilder};

    /// A synthetic resistance system: particles on a periodic line with
    /// spring-like couplings whose strength depends on separation, so
    /// the matrix genuinely evolves with the configuration.
    struct LineSystem {
        positions: Vec<f64>, // one scalar coordinate per particle
        dt: f64,
    }

    impl LineSystem {
        fn new(n_particles: usize) -> Self {
            LineSystem {
                positions: (0..n_particles).map(|i| i as f64).collect(),
                dt: 0.05,
            }
        }
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
                    let d = (self.positions[i + 1] - self.positions[i]).abs();
                    let w = 1.0 / (0.5 + d * d);
                    t.add(i, i, Block3::scaled_identity(w));
                    t.add(i + 1, i + 1, Block3::scaled_identity(w));
                    t.add_symmetric_pair(i, i + 1, Block3::scaled_identity(-w));
                }
            }
            t.build()
        }

        fn advance(&mut self, u: &[f64], dt: f64) {
            // Use the x-component of each particle's velocity.
            for (i, p) in self.positions.iter_mut().enumerate() {
                *p += dt * u[3 * i];
            }
        }

        fn dt(&self) -> f64 {
            self.dt
        }

        fn save_state(&self) -> Vec<f64> {
            self.positions.clone()
        }

        fn restore_state(&mut self, state: &[f64]) {
            self.positions.copy_from_slice(state);
        }
    }

    #[test]
    fn mrhs_chunk_advances_m_steps() {
        let mut sys = LineSystem::new(20);
        let before = sys.positions.clone();
        let mut noise = XorShiftNoise::new(1);
        let cfg = MrhsConfig { m: 4, ..Default::default() };
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        assert_eq!(report.steps.len(), 4);
        assert!(report.block_iterations > 0);
        assert_ne!(before, sys.positions);
    }

    #[test]
    fn guesses_cut_iterations_versus_baseline() {
        // Same system, same noise stream: warm-started steps of the MRHS
        // chunk should need fewer first-solve iterations than the cold
        // baseline steps.
        let cfg = MrhsConfig { m: 8, ..Default::default() };

        let mut sys_a = LineSystem::new(30);
        let mut noise_a = XorShiftNoise::new(99);
        let report = run_mrhs_chunk(&mut sys_a, &mut noise_a, &cfg);

        let mut sys_b = LineSystem::new(30);
        let mut noise_b = XorShiftNoise::new(99);
        let mut cache = None;
        let mut cold_iters = Vec::new();
        for _ in 0..8 {
            let s = run_original_step(&mut sys_b, &mut noise_b, &cfg, &mut cache);
            cold_iters.push(s.first_solve_iterations);
        }

        let warm: f64 = report.steps[1..]
            .iter()
            .map(|s| s.first_solve_iterations as f64)
            .sum::<f64>()
            / (report.steps.len() - 1) as f64;
        let cold: f64 = cold_iters[1..].iter().map(|&v| v as f64).sum::<f64>()
            / (cold_iters.len() - 1) as f64;
        assert!(warm < cold, "warm-start mean {warm} should beat cold mean {cold}");
    }

    #[test]
    fn guess_errors_grow_with_step_index() {
        let mut sys = LineSystem::new(25);
        let mut noise = XorShiftNoise::new(5);
        let cfg = MrhsConfig { m: 8, ..Default::default() };
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        let errs: Vec<f64> =
            report.steps.iter().filter_map(|s| s.guess_relative_error).collect();
        assert_eq!(errs.len(), 7);
        // √t-like growth: the last error should exceed the first.
        assert!(errs.last().unwrap() >= errs.first().unwrap());
        assert!(errs.iter().all(|&e| e.is_finite() && e >= 0.0));
    }

    #[test]
    fn second_solve_warm_start_is_cheap() {
        let mut sys = LineSystem::new(20);
        let mut noise = XorShiftNoise::new(3);
        let cfg = MrhsConfig::default();
        let mut cache = None;
        let s = run_original_step(&mut sys, &mut noise, &cfg, &mut cache);
        // Midpoint matrix is near R_k, so the warm-started second solve
        // should need no more iterations than the cold first solve.
        assert!(s.second_solve_iterations <= s.first_solve_iterations);
    }

    #[test]
    fn original_step_reuses_cheb_cache() {
        let mut sys = LineSystem::new(10);
        let mut noise = XorShiftNoise::new(4);
        let cfg = MrhsConfig::default();
        let mut cache = None;
        run_original_step(&mut sys, &mut noise, &cfg, &mut cache);
        assert!(cache.is_some());
        let interval = cache.as_ref().unwrap().interval();
        run_original_step(&mut sys, &mut noise, &cfg, &mut cache);
        assert_eq!(cache.as_ref().unwrap().interval(), interval);
    }
}
