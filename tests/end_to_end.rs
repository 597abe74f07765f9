//! Cross-crate integration tests: the full pipeline from packed
//! particles through resistance assembly, Brownian forces, block
//! solves, and the MRHS driver.

use mrhs::core::{
    run_mrhs_chunk, run_original_step, BrownianFactor, MrhsConfig, ResistanceSystem,
};
use mrhs::solvers::{
    block_cg, cg, spectral_bounds, ChebyshevSqrt, DenseCholesky, LinearOperator,
    SolveConfig,
};
use mrhs::sparse::{BcrsMatrix, MultiVec};
use mrhs::stokes::{
    assemble_resistance, GaussianNoise, ResistanceConfig, SystemBuilder,
};

fn small_system(n: usize, phi: f64, seed: u64) -> mrhs::stokes::StokesianSystem {
    SystemBuilder::new(n).volume_fraction(phi).seed(seed).build()
}

#[test]
fn resistance_matrix_drives_cg_to_convergence() {
    let sys = small_system(80, 0.4, 1);
    let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
    let n = a.n_rows();
    let b: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.11).sin()).collect();
    let mut x = vec![0.0; n];
    let res = cg(&a, &b, &mut x, &SolveConfig::default());
    assert!(res.converged, "{res:?}");
    // true residual check
    let mut ax = vec![0.0; n];
    a.apply(&x, &mut ax);
    let rn: f64 =
        b.iter().zip(&ax).map(|(u, v)| (u - v) * (u - v)).sum::<f64>().sqrt();
    let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
    assert!(rn <= 2e-6 * bn);
}

#[test]
fn chebyshev_noise_has_resistance_covariance() {
    // The whole point of the Brownian factor: cov(F·z) = F·Fᵀ ≈ R.
    // Validate on a small system by comparing F·Fᵀ·v ≈ R·v, with F
    // expanded column by column through the drivers' own factor.
    let sys = small_system(30, 0.3, 2);
    let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
    let n = a.n_rows();
    let factor = BrownianFactor::new(&a);
    let cheb = factor.polynomial(&a, 60);
    let mut identity = MultiVec::zeros(n, n);
    for i in 0..n {
        *identity.get_mut(i, i) = 1.0;
    }
    factor.whiten(identity.as_mut_slice(), n);
    let mut f = MultiVec::zeros(n, n);
    factor.apply_multi(&a, &cheb, &identity, &mut f);

    let v: Vec<f64> = (0..n).map(|i| ((i * 7) as f64).cos()).collect();
    // Fᵀ·v, then F·(Fᵀ·v); `f` holds F row-major.
    let ftv: Vec<f64> =
        (0..n).map(|j| (0..n).map(|i| f.get(i, j) * v[i]).sum()).collect();
    let fftv: Vec<f64> =
        (0..n).map(|i| (0..n).map(|j| f.get(i, j) * ftv[j]).sum()).collect();
    let mut av = vec![0.0; n];
    a.apply(&v, &mut av);
    let num: f64 = fftv.iter().zip(&av).map(|(u, w)| (u - w) * (u - w)).sum();
    let den: f64 = av.iter().map(|w| w * w).sum();
    assert!(
        (num / den).sqrt() < 0.05,
        "F·Fᵀ·v should approximate R·v, rel err {}",
        (num / den).sqrt()
    );
    // And the Cholesky factor exists (R is SPD end to end).
    assert!(DenseCholesky::factor_bcrs(&a).is_some());
}

/// Asserts that the polynomial's interval contains the 600-step
/// Lanczos extremes of `Â = L⁻¹RL⁻ᵀ` on `r`, where `factor` holds the
/// chunk's scaling and `cheb` the polynomial for `r`.
fn assert_brackets(
    what: &str,
    factor: &BrownianFactor,
    r: &BcrsMatrix,
    cheb: &ChebyshevSqrt,
) {
    let (lo, hi) = cheb.interval();
    let (a_lo, a_hi) = factor.ritz_extremes(r, 600);
    assert!(
        lo <= a_lo && a_hi <= hi,
        "{what}, n = {}: [{lo:.3e}, {hi:.4}] misses Â's [{a_lo:.3e}, {a_hi:.4}]",
        r.n_rows()
    );
}

/// The head polynomial of `sys`'s matrix brackets `Â` with its top at
/// the exact 2 and its order derived at most the cap; with `steps`,
/// each later matrix of the chunk, under the head's scaling, is
/// bracketed by the polynomial [`BrownianFactor::follow`] moves there.
fn assert_interval_brackets(
    what: &str,
    mut sys: mrhs::stokes::StokesianSystem,
    steps: usize,
) {
    let r = sys.assemble();
    assert!(r.row_sum_lower_bound().is_some_and(|l| l > 0.0), "{what}");
    let factor = BrownianFactor::new(&r);
    let cheb = factor.polynomial(&r, 30);
    assert_eq!(cheb.interval().1, 2.0, "{what}");
    assert!(cheb.order() <= 30, "{what}: order {}", cheb.order());
    assert_brackets(what, &factor, &r, &cheb);
    let cfg = MrhsConfig::default();
    let (mut noise, mut cache) = (GaussianNoise::seed_from_u64(1), None);
    for k in 1..=steps {
        run_original_step(&mut sys, &mut noise, &cfg, &mut cache);
        let rk = sys.assemble();
        let cheb_k = factor.follow(&cheb, &rk, 30);
        assert_brackets(&format!("{what}, step {k}"), &factor, &rk, &cheb_k);
    }
}

/// On the benchmark's `sd_steps` operator: 2,000 particles, φ = 0.5,
/// its packing seed.
#[test]
fn brownian_interval_brackets_the_sd_steps_spectrum() {
    const PACKING_SEED: u64 = 20_120_521;
    assert_interval_brackets(
        "sd_steps",
        SystemBuilder::new(2000).seed(PACKING_SEED).build(),
        0,
    );
}

/// On suspensions across size, volume fraction and gap floor, over a
/// chunk of eight steps.
#[test]
fn brownian_interval_brackets_a_suspension_corpus() {
    for (particles, phi, xi_min, seed) in [
        (60, 0.1, 1e-3, 3),
        (200, 0.3, 1e-3, 4),
        (300, 0.45, 1e-3, 21),
        (400, 0.5, 1e-3, 5),
        (400, 0.5, 0.1, 6),
        (24, 0.3, 0.1, 21),
    ] {
        let sys = SystemBuilder::new(particles)
            .volume_fraction(phi)
            .xi_min(xi_min)
            .seed(seed)
            .build();
        assert_interval_brackets(
            &format!("{particles} at φ = {phi}, ξ_min = {xi_min}"),
            sys,
            8,
        );
    }
}

#[test]
fn block_cg_on_resistance_matrix_matches_cholesky() {
    let sys = small_system(25, 0.3, 3);
    let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
    let n = a.n_rows();
    let chol = DenseCholesky::factor_bcrs(&a).expect("SPD");

    let m = 4;
    let mut b = MultiVec::zeros(n, m);
    for j in 0..m {
        let col: Vec<f64> =
            (0..n).map(|i| ((i * (j + 3)) as f64 * 0.17).sin()).collect();
        b.set_column(j, &col);
    }
    let mut x = MultiVec::zeros(n, m);
    let res = block_cg(&a, &b, &mut x, &SolveConfig { tol: 1e-10, max_iter: 3000 });
    assert!(res.converged);

    let mut want = b.clone();
    chol.solve_multi_in_place(&mut want);
    for (u, v) in x.as_slice().iter().zip(want.as_slice()) {
        assert!((u - v).abs() < 1e-6, "{u} vs {v}");
    }
}

#[test]
fn mrhs_and_original_solve_identical_physics() {
    // With the same noise stream, step 0 of the MRHS chunk and the first
    // original step integrate the same system: positions after one step
    // should be very close (both solve to 1e-6; the MRHS head step's
    // velocity comes from the block solve).
    let cfg = MrhsConfig { m: 2, ..Default::default() };

    let mut sys_a = small_system(60, 0.4, 9);
    let mut noise_a = GaussianNoise::seed_from_u64(5);
    // Consume noise identically: MRHS draws n×m up front.
    let report = run_mrhs_chunk(&mut sys_a, &mut noise_a, &cfg);
    assert_eq!(report.steps.len(), 2);

    let mut sys_b = small_system(60, 0.4, 9);
    let mut noise_b = GaussianNoise::seed_from_u64(5);
    // Manually consume the same noise layout: the chunk drew a row-major
    // n×2 block; the original algorithm draws n per step. To compare
    // meaningfully we just verify both runs moved particles by a
    // comparable magnitude (same physics scale), not identical values.
    let mut cache = None;
    let s = run_original_step(&mut sys_b, &mut noise_b, &cfg, &mut cache);
    assert!(s.first_solve_iterations > 0);

    let disp = |sys: &mrhs::stokes::StokesianSystem,
                orig: &mrhs::stokes::StokesianSystem| {
        sys.particles()
            .positions()
            .iter()
            .zip(orig.particles().positions())
            .map(|(p, q)| {
                (0..3).map(|d| (p[d] - q[d]).abs().min(1e3)).fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max)
    };
    let fresh = small_system(60, 0.4, 9);
    let da = disp(&sys_a, &fresh);
    let db = disp(&sys_b, &fresh);
    assert!(da > 0.0 && db > 0.0);
    assert!(da / db < 20.0 && db / da < 20.0, "da={da} db={db}");
}

#[test]
fn chunked_simulation_is_stable_over_many_steps() {
    // Three chunks back to back: no panics, no overlap blow-up, and the
    // volume fraction is invariant (positions only move).
    let mut sys = small_system(50, 0.5, 4);
    let mut noise = GaussianNoise::seed_from_u64(6);
    let phi0 = sys.particles().volume_fraction();
    let cfg = MrhsConfig { m: 4, ..Default::default() };
    for _ in 0..3 {
        let report = run_mrhs_chunk(&mut sys, &mut noise, &cfg);
        assert!(report
            .steps
            .iter()
            .all(|s| s.second_solve_iterations < cfg.solve.max_iter));
    }
    assert!((sys.particles().volume_fraction() - phi0).abs() < 1e-12);
    // Matrix stays SPD after motion.
    let a = sys.assemble();
    assert!(a.is_symmetric_within(1e-9));
    assert!(DenseCholesky::factor_bcrs(&a).is_some());
}

#[test]
fn counting_operator_composes_with_full_pipeline() {
    use mrhs::solvers::CountingOperator;
    let sys = small_system(40, 0.4, 8);
    let a = assemble_resistance(sys.particles(), &ResistanceConfig::default());
    let c = CountingOperator::new(&a);
    let n = a.n_rows();
    let bounds = spectral_bounds(&c, 15, None);
    let cheb = ChebyshevSqrt::new(bounds.lo, bounds.hi, 30);
    let z = MultiVec::zeros(n, 8);
    let mut y = MultiVec::zeros(n, 8);
    cheb.apply_multi(&c, &z, &mut y);
    // 15 Lanczos applies + the power-iteration guard on the upper end
    // (all single), then 30 Chebyshev applies (multi).
    assert_eq!(c.single_applies(), 15 + mrhs::solvers::POWER_GUARD_ITERS);
    assert_eq!(c.multi_applies(), 30);
}

/// A `StokesianSystem` that ignores its held pair list: every
/// `assemble()` searches for pairs from nothing.
struct SearchEveryCall(mrhs::stokes::StokesianSystem);

impl ResistanceSystem for SearchEveryCall {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn assemble(&self) -> mrhs::sparse::BcrsMatrix {
        assemble_resistance(self.0.particles(), self.0.resistance_config())
    }
    fn advance(&mut self, u: &[f64], dt: f64) {
        self.0.advance(u, dt)
    }
    fn dt(&self) -> f64 {
        self.0.dt()
    }
    fn save_state(&self) -> Vec<f64> {
        self.0.save_state()
    }
    fn restore_state(&mut self, state: &[f64]) {
        self.0.restore_state(state)
    }
    fn add_external_forces(&self, out: &mut [f64]) {
        self.0.add_external_forces(out)
    }
}

/// The Brownian force is one recurrence over `apply_multi`, so every
/// operator the repo ships gives the same `S(R)·Z`: bit for bit behind
/// a wrapper, to rounding on another storage or across node threads.
#[test]
fn brownian_force_agrees_on_every_operator() {
    use mrhs::cluster::watchdog::with_deadline;
    use mrhs::cluster::{DistEngine, DistributedMatrix};
    use mrhs::solvers::CountingOperator;
    use mrhs::sparse::partition::coordinate_partition;
    use mrhs::sparse::reorder::permute_symmetric;
    use mrhs::sparse::SymmetricBcrs;
    use std::time::Duration;

    let sys = small_system(150, 0.4, 11);
    let a = sys.assemble();
    let n = a.n_rows();
    let g = (a.gershgorin_lower_bound(), a.gershgorin_upper_bound());
    let bounds = spectral_bounds(&a, 30, Some(g));
    let cheb = ChebyshevSqrt::new(bounds.lo, bounds.hi, 30);
    let mut z = MultiVec::zeros(n, 4);
    for (i, v) in z.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 13 % 31) as f64) / 31.0 - 0.5;
    }
    let mut want = MultiVec::zeros(n, 4);
    cheb.apply_multi(&a, &z, &mut want);
    let tol = 1e-10 * want.max_abs();
    let close = |got: &MultiVec, want: &MultiVec, name: &str| {
        for (u, v) in got.as_slice().iter().zip(want.as_slice()) {
            assert!((u - v).abs() <= tol, "{name}: {u} vs {v}");
        }
    };

    let counted = CountingOperator::new(&a);
    let mut y = MultiVec::zeros(n, 4);
    cheb.apply_multi(&counted, &z, &mut y);
    assert_eq!(y.as_slice(), want.as_slice(), "wrapper changed the bits");
    assert_eq!(counted.multi_applies(), cheb.order());

    let sym = SymmetricBcrs::from_full(&a, 1e-10).expect("resistance is symmetric");
    cheb.apply_multi(&sym, &z, &mut y);
    close(&y, &want, "symmetric storage");

    let part = coordinate_partition(
        &a,
        sys.particles().positions(),
        sys.particles().box_lengths(),
        3,
    );
    let dm = DistributedMatrix::new(&a, &part);
    // The bare engine works in its own ordering, so its full-storage
    // reference is the matrix permuted the same way.
    let a_p = permute_symmetric(&a, dm.permutation());
    let (y_engine, want_engine) =
        with_deadline(Duration::from_secs(120), move || {
            let engine = DistEngine::new(dm);
            let mut want_e = y.clone();
            cheb.apply_multi(&engine, &z, &mut y);
            cheb.apply_multi(&a_p, &z, &mut want_e);
            (y, want_e)
        });
    close(&y_engine, &want_engine, "DistEngine");
}

#[test]
fn chunk_on_a_held_pair_list_lands_where_searching_every_call_does() {
    // Two chunks, so the second starts on a list built 16 assemblies
    // ago; positions must agree to the last bit.
    let cfg = MrhsConfig { m: 4, ..Default::default() };
    let mut held = small_system(120, 0.45, 8);
    let mut searching = SearchEveryCall(held.clone());
    let mut noise =
        (GaussianNoise::seed_from_u64(5), GaussianNoise::seed_from_u64(5));
    for _ in 0..2 {
        let a = run_mrhs_chunk(&mut held, &mut noise.0, &cfg);
        let b = run_mrhs_chunk(&mut searching, &mut noise.1, &cfg);
        assert_eq!(a.block_iterations, b.block_iterations);
    }
    let bits = |s: &mrhs::stokes::StokesianSystem| -> Vec<u64> {
        s.save_state().iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&held), bits(&searching.0));
}

/// The solvers land on the same solutions whichever kernel family
/// multiplies: scalar CG (width-1 products) and width-4 block CG, on
/// operators whose every product is pinned to the scalar or to the
/// SIMD backend — the widths where the SIMD backend's choice of kernel
/// depends on the CPU.
#[test]
fn solutions_agree_on_scalar_and_simd_backed_operators() {
    use mrhs::sparse::{
        backend_available, gspmv_on, Backend, BcrsMatrix, KernelKind, Schedule,
    };

    struct Pinned<'a>(&'a BcrsMatrix, Backend);
    impl LinearOperator for Pinned<'_> {
        fn dim(&self) -> usize {
            self.0.n_rows()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            let mut ym = MultiVec::zeros(y.len(), 1);
            self.apply_multi(&MultiVec::from_vec(x.to_vec()), &mut ym);
            y.copy_from_slice(ym.as_slice());
        }
        fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
            gspmv_on(self.1, self.0, x, y, Schedule::Serial);
        }
    }

    if !backend_available(KernelKind::Simd) {
        eprintln!("no vector ISA detected; skipping");
        return;
    }
    let a = small_system(300, 0.4, 5).assemble();
    let n = a.n_rows();
    let m = 4;
    let mut b = MultiVec::zeros(n, m);
    for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
        *v = ((i * 7 % 23) as f64) / 23.0 - 0.5;
    }
    let cfg = SolveConfig { tol: 1e-12, max_iter: 5000 };
    let solve = |kind| {
        let op = Pinned(&a, Backend::forced(kind));
        let mut x1 = vec![0.0; n];
        assert!(cg(&op, &b.column(0), &mut x1, &cfg).converged, "cg {kind:?}");
        let mut xm = MultiVec::zeros(n, m);
        assert!(block_cg(&op, &b, &mut xm, &cfg).converged, "block_cg {kind:?}");
        (x1, xm)
    };
    let (x1_scalar, xm_scalar) = solve(KernelKind::Scalar);
    let (x1_simd, xm_simd) = solve(KernelKind::Simd);
    let close = |want: &[f64], got: &[f64], name: &str| {
        let scale = want.iter().fold(0.0f64, |s, v| s.max(v.abs()));
        for (u, v) in want.iter().zip(got) {
            assert!((u - v).abs() <= 1e-8 * scale, "{name}: {u} vs {v}");
        }
    };
    close(&x1_scalar, &x1_simd, "cg");
    close(xm_scalar.as_slice(), xm_simd.as_slice(), "block_cg w4");
}

/// Both algorithms with every solve through an operator that forwards
/// the products and hides the diagonal — the unpreconditioned
/// baseline, which the drivers have no way to ask for. Mirrors
/// `mrhs::core::algorithm` step for step (same noise draws through the
/// same Brownian factor, same warm starts) and returns each step's
/// `(first, second)` solve iterations.
mod hidden_diagonal {
    use super::*;
    use mrhs::core::NoiseSource;
    use mrhs::sparse::BcrsMatrix;
    use mrhs::stokes::StokesianSystem;

    struct Hidden<'a>(&'a BcrsMatrix);

    impl LinearOperator for Hidden<'_> {
        fn dim(&self) -> usize {
            self.0.dim()
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            self.0.apply(x, y)
        }
        fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
            self.0.apply_multi(x, y)
        }
    }

    /// `−F·z` for whitened noise `w` (the suspension has no external
    /// forces).
    fn brownian_rhs(
        factor: &BrownianFactor,
        r: &BcrsMatrix,
        cheb: &ChebyshevSqrt,
        w: &[f64],
    ) -> Vec<f64> {
        let mut b = vec![0.0; w.len()];
        factor.apply(r, cheb, w, &mut b);
        b.iter_mut().for_each(|v| *v = -*v);
        b
    }

    /// The midpoint solve and the full step; returns its iterations.
    fn second_half(
        sys: &mut StokesianSystem,
        u: &[f64],
        b: &[f64],
        cfg: &MrhsConfig,
    ) -> usize {
        let dt = sys.dt();
        let saved = sys.save_state();
        sys.advance(u, 0.5 * dt);
        let r_mid = sys.assemble();
        let mut u_mid = u.to_vec();
        let res = cg(&Hidden(&r_mid), b, &mut u_mid, &cfg.solve);
        assert!(res.converged);
        sys.restore_state(&saved);
        sys.advance(&u_mid, dt);
        res.iterations
    }

    pub fn original_step(
        sys: &mut StokesianSystem,
        noise: &mut impl NoiseSource,
        cfg: &MrhsConfig,
        cheb: &mut Option<ChebyshevSqrt>,
    ) -> (usize, usize) {
        let rk = sys.assemble();
        let factor = BrownianFactor::new(&rk);
        let cheb =
            cheb.get_or_insert_with(|| factor.polynomial(&rk, cfg.cheb_order));
        let mut z = vec![0.0; sys.dim()];
        noise.fill_standard_normal(&mut z);
        factor.whiten(&mut z, 1);
        let b = brownian_rhs(&factor, &rk, cheb, &z);
        let mut u = vec![0.0; sys.dim()];
        let first = cg(&Hidden(&rk), &b, &mut u, &cfg.solve);
        assert!(first.converged);
        (first.iterations, second_half(sys, &u, &b, cfg))
    }

    pub fn mrhs_chunk(
        sys: &mut StokesianSystem,
        noise: &mut impl NoiseSource,
        cfg: &MrhsConfig,
    ) -> Vec<(usize, usize)> {
        let (n, m) = (sys.dim(), cfg.m);
        let r0 = sys.assemble();
        let factor = BrownianFactor::new(&r0);
        let cheb = factor.polynomial(&r0, cfg.cheb_order);
        let mut z = MultiVec::zeros(n, m);
        noise.fill_standard_normal(z.as_mut_slice());
        factor.whiten(z.as_mut_slice(), m);
        let mut rhs = MultiVec::zeros(n, m);
        factor.apply_multi(&r0, &cheb, &z, &mut rhs);
        rhs.scale(-1.0);
        let mut u = MultiVec::zeros(n, m);
        let guess_cfg = SolveConfig { tol: cfg.guess_tol, ..cfg.solve };
        assert!(block_cg(&Hidden(&r0), &rhs, &mut u, &guess_cfg).converged);
        (0..m)
            .map(|k| {
                let (rk, b) = if k == 0 {
                    (r0.clone(), rhs.column(0))
                } else {
                    let rk = sys.assemble();
                    let cheb_k = factor.follow(&cheb, &rk, cfg.cheb_order);
                    let b = brownian_rhs(&factor, &rk, &cheb_k, &z.column(k));
                    (rk, b)
                };
                let mut uk = u.column(k);
                let first = cg(&Hidden(&rk), &b, &mut uk, &cfg.solve);
                assert!(first.converged);
                (first.iterations, second_half(sys, &uk, &b, cfg))
            })
            .collect()
    }
}

/// The preconditioner reaches the drivers with no caller change: one
/// Alg. 2 chunk and eight Alg. 1 steps on a 300-particle suspension
/// take at most half the first- and second-solve iterations the same
/// steps take with the diagonal hidden, and both land on the same
/// configuration within the tolerance the oracle holds an Alg. 2 chunk
/// to against its dense mirror (`rel 1e-7` on a floor of 1; like that
/// test, with the solves tight enough that the tolerance measures the
/// algorithms and not the stopping rule).
#[test]
fn drivers_run_preconditioned_with_no_caller_change() {
    let cfg = MrhsConfig {
        m: 8,
        solve: SolveConfig { tol: 1e-10, max_iter: 5000 },
        record_guess_errors: false,
        ..Default::default()
    };
    let start = small_system(300, 0.45, 21);
    let same_configuration = |a: &mrhs::stokes::StokesianSystem,
                              b: &mrhs::stokes::StokesianSystem,
                              what: &str| {
        for (u, v) in a.save_state().iter().zip(b.save_state()) {
            let scale = u.abs().max(v.abs()).max(1.0);
            assert!((u - v).abs() <= 1e-7 * scale, "{what}: {u} vs {v}");
        }
    };
    let totals = |steps: &[(usize, usize)]| {
        steps.iter().fold((0, 0), |(f, s), (a, b)| (f + a, s + b))
    };

    // Alg. 2: one chunk of eight steps.
    let (mut sys, mut bare_sys) = (start.clone(), start.clone());
    let mut noise =
        (GaussianNoise::seed_from_u64(9), GaussianNoise::seed_from_u64(9));
    let report = run_mrhs_chunk(&mut sys, &mut noise.0, &cfg);
    let bare = hidden_diagonal::mrhs_chunk(&mut bare_sys, &mut noise.1, &cfg);
    let steps: Vec<(usize, usize)> = report
        .steps
        .iter()
        .map(|s| (s.first_solve_iterations, s.second_solve_iterations))
        .collect();
    let ((first, second), (bare_first, bare_second)) =
        (totals(&steps), totals(&bare));
    assert!(2 * first <= bare_first, "Alg. 2 first: {first} vs {bare_first} bare");
    assert!(
        2 * second <= bare_second,
        "Alg. 2 second: {second} vs {bare_second} bare"
    );
    same_configuration(&sys, &bare_sys, "Alg. 2");

    // Alg. 1: eight steps.
    let (mut sys, mut bare_sys) = (start.clone(), start);
    let (mut cache, mut bare_cache) = (None, None);
    let (mut steps, mut bare) = (Vec::new(), Vec::new());
    for _ in 0..8 {
        let s = run_original_step(&mut sys, &mut noise.0, &cfg, &mut cache);
        steps.push((s.first_solve_iterations, s.second_solve_iterations));
        bare.push(hidden_diagonal::original_step(
            &mut bare_sys,
            &mut noise.1,
            &cfg,
            &mut bare_cache,
        ));
    }
    let ((first, second), (bare_first, bare_second)) =
        (totals(&steps), totals(&bare));
    assert!(2 * first <= bare_first, "Alg. 1 first: {first} vs {bare_first} bare");
    assert!(
        2 * second <= bare_second,
        "Alg. 1 second: {second} vs {bare_second} bare"
    );
    same_configuration(&sys, &bare_sys, "Alg. 1");
}
