//! Preconditioning probe: CG iterations with and without the block-Jacobi
//! preconditioner on the resistance operators the benchmark solves
//! (φ = 0.5, default `ResistanceConfig`, the benchmark's packing seed).
//!
//! The table behind EXPERIMENTS "Preconditioning trial (PR 23)". There
//! is no switch to flip: the *bare* column runs the same `cg` through a
//! wrapper that forwards the products and names neither the diagonal
//! nor the block rows, which is how any operator opts out, and the
//! *jacobi* column through one that names only the diagonal.
//!
//! With `--head` it also prints EXPERIMENTS "Head levers measured":
//! the `guess_tol` sweep of ROADMAP 1(b) on the `sd_steps` system
//! (2,000 particles, m = 8, three chunks from the same start and noise
//! stream per value).
//!
//! With `--sqrt` it prints, per size, the Brownian square root's rows
//! (the "Preconditioned square root" section of EXPERIMENTS): the pair-form
//! bound `ℓ_R` against the assembly's exact one, the polynomial's
//! interval on `Â = L⁻¹RL⁻ᵀ` against `Â`'s 600-step Lanczos extremes,
//! the derived order at the default cap, and the vector error on a
//! random `z` against an order-600 reference — of the factor, and of
//! a plain order-30 `S(R)` on `R`'s 20-step Lanczos interval (×0.9 /
//! ×1.1, clipped to Gershgorin, widened by 1.15) — and the order each
//! later step of an eight-step chunk runs under the head's scaling.
//!
//! With `--sgs` it prints EXPERIMENTS "Block symmetric Gauss–Seidel"
//! and "Width-1 Gauss–Seidel": per size, iterations to a true-residual
//! stop at 1e-6 under block-Jacobi (the matrix with its block rows
//! withheld) and under what the bare matrix gets — Gauss–Seidel at
//! every width — for `cg` cold, `cg` warm (the guess is the solution on
//! the step before, the right-hand side the same) and `block_cg` at
//! widths 8 and 16, with the checks of the true residual each
//! Gauss–Seidel solve made; each solve's time ratio (medians of 15, the
//! two preconditioners alternating); and a Gauss–Seidel block-CG
//! iteration at widths 1, 4, 8 and 16 in units of one w1 product
//! (fastest of 100 interleaved runs each): the upper sweep (with
//! `P̂ ← R̂ + P̂·diag(β)` and the curvature folded in), the lower sweep
//! (with `X += T·diag(α)`, `R̂ −= Q̂·diag(α)` and the column norms), and
//! their sum — the whole iteration — beside what the folded work costs
//! as the standalone passes it replaced. Then `block_cg`'s iterations at widths 4, 8 and 16 beside
//! the most any of its columns takes under `cg` alone, and the checks
//! per solve of three Alg. 2 chunks of the `sd_steps` system. Run it
//! with `RAYON_NUM_THREADS=1`, as the benchmark runs.
//!
//! ```text
//! cargo run --release --example precond_probe -- [particles…] [--head] [--sqrt] [--sgs]
//! ```

use mrhs::core::{
    run_mrhs_chunk, run_original_step, telemetry, BrownianFactor, MrhsConfig,
    BOUNDS_MARGIN,
};
use mrhs::solvers::eigbounds::lanczos_extremes;
use mrhs::solvers::{
    block_cg, cg, spectral_bounds, ChebyshevSqrt, LinearOperator, SolveConfig,
};
use mrhs::sparse::{active_backend, BcrsMatrix, Block3, MultiVec, SgsSplit};
use mrhs::stokes::{
    assemble_resistance, resistance::spectrum_lower_bound, GaussianNoise,
    ResistanceConfig, StokesianSystem, SystemBuilder,
};
use std::time::Instant;

/// `benchmark/src/util.rs`'s `PACKING_SEED`.
const PACKING_SEED: u64 = 20_120_521;

/// The matrix with its diagonal and block rows hidden: the hooks stay
/// `None`, so the solvers run unpreconditioned.
struct Bare<'a>(&'a BcrsMatrix);

impl LinearOperator for Bare<'_> {
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

/// The matrix with its block rows withheld: block-Jacobi, as an
/// operator that names only its diagonal runs.
struct JacobiOnly<'a>(&'a BcrsMatrix);

impl LinearOperator for JacobiOnly<'_> {
    fn dim(&self) -> usize {
        self.0.dim()
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.0.apply(x, y)
    }
    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        self.0.apply_multi(x, y)
    }
    fn diagonal_blocks(&self) -> Option<Vec<Block3>> {
        LinearOperator::diagonal_blocks(self.0)
    }
}

/// Seconds one run of `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64()
}

/// The `--sgs` rows for one size.
fn sgs_rows(particles: usize) {
    const REPS: usize = 15;
    let mut system = SystemBuilder::new(particles).seed(PACKING_SEED).build();
    let cfg_r = ResistanceConfig::default();
    let a = assemble_resistance(system.particles(), &cfg_r);
    let n = a.n_rows();
    let cfg = SolveConfig { tol: 1e-6, max_iter: 2000 };
    let b = normals(n, 0x9e37_79b9_7f4a_7c15);
    // One Alg. 1 step moves the particles: the next step's matrix.
    let (mut noise, mut cache) = (GaussianNoise::seed_from_u64(7), None);
    let mcfg =
        MrhsConfig { m: 8, record_guess_errors: false, ..Default::default() };
    run_original_step(&mut system, &mut noise, &mcfg, &mut cache);
    let a_next = assemble_resistance(system.particles(), &cfg_r);
    let mut guess = vec![0.0; n];
    assert!(cg(&a, &b, &mut guess, &cfg).converged);

    // (iterations, seconds) of one solve through `op`.
    let scalar = |op: &dyn LinearOperator, x0: &[f64]| {
        let mut x = x0.to_vec();
        let start = Instant::now();
        let res = cg(op, &b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");
        (res.iterations, start.elapsed().as_secs_f64())
    };
    let b8 = MultiVec::from_flat(n, 8, normals(n * 8, 0x2545_f491_4f6c_dd1d));
    let b16 = MultiVec::from_flat(n, 16, normals(n * 16, 0x2545_f491_4f6c_dd1d));
    let block = |op: &dyn LinearOperator, b: &MultiVec| {
        let mut x = MultiVec::zeros(n, b.m());
        let start = Instant::now();
        let res = block_cg(op, b, &mut x, &cfg);
        assert!(res.converged, "{res:?}");
        (res.iterations, start.elapsed().as_secs_f64())
    };
    // Block-Jacobi and Gauss–Seidel alternate, so both see the same
    // host; the median of each.
    let compare = |solve: &dyn Fn(&dyn LinearOperator) -> (usize, f64),
                   a: &BcrsMatrix| {
        let (mut jacobi, mut sgs) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            jacobi.push(solve(&JacobiOnly(a)));
            sgs.push(solve(a));
        }
        let median = |mut runs: Vec<(usize, f64)>| {
            runs.sort_by(|x, y| x.1.total_cmp(&y.1));
            runs[REPS / 2]
        };
        (median(jacobi), median(sgs))
    };
    let zero = vec![0.0; n];
    // Checks of the true residual per Gauss–Seidel solve, counted in
    // one untimed run with telemetry on.
    let checks = |solve: &dyn Fn(&dyn LinearOperator) -> (usize, f64),
                  a: &BcrsMatrix| {
        telemetry::set_enabled(true);
        let before = telemetry::snapshot();
        solve(a);
        let d = telemetry::snapshot().diff(&before);
        telemetry::set_enabled(false);
        d.counter("solver/cg/residual_checks")
            + d.counter("solver/block_cg/residual_checks")
    };
    type Solve<'a> = &'a dyn Fn(&dyn LinearOperator) -> (usize, f64);
    let rows: [(&str, Solve, &BcrsMatrix); 4] = [
        ("cg cold", &|op| scalar(op, &zero), &a),
        ("cg warm", &|op| scalar(op, &guess), &a_next),
        ("block_cg w8", &|op| block(op, &b8), &a),
        ("block_cg w16", &|op| block(op, &b16), &a),
    ];
    for (what, solve, a) in rows {
        let ((j_its, j_secs), (s_its, s_secs)) = compare(solve, a);
        println!(
            "{particles:9}  {what:13} | {j_its:6}  {s_its:4}  {:5.2} | {:8.2}  {:8.2}  {:5.2} | checks {}",
            s_its as f64 / j_its as f64,
            1e3 * j_secs,
            1e3 * s_secs,
            s_secs / j_secs,
            checks(solve, a)
        );
    }
    let unit = {
        let (x, mut y) = (normals(n, 0x5851_f42d_4c95_7f2d), vec![0.0; n]);
        (0..100).map(|_| secs(|| a.apply(&x, &mut y))).fold(f64::MAX, f64::min)
    };
    let mut split = SgsSplit::new(active_backend());
    for m in [1usize, 4, 8, 16] {
        assert!(split.rebuild(&a, m));
        let block = |seed: u64| MultiVec::from_flat(n, m, normals(n * m, seed));
        let (mut p, mut t, mut u) = (block(1), block(2), block(3));
        let (mut x, mut r, mut s, q) = (block(4), block(5), block(6), block(7));
        let coef: Vec<f64> = normals(m, 8).iter().map(|v| 1e-3 * v).collect();
        let (mut curv, mut nsq) = (vec![0.0; m], vec![0.0; m]);
        // Each part's fastest of 100 runs, interleaved, so that all see
        // the same host.
        let mut best = [f64::MAX; 4];
        for _ in 0..100 {
            let parts = [
                secs(|| {
                    let (p, t) = (p.as_mut_slice(), t.as_mut_slice());
                    split.upper_cg(&a, r.as_slice(), &coef, p, t, &mut curv, m)
                }),
                secs(|| {
                    let (p, t, u) = (p.as_slice(), t.as_slice(), u.as_mut_slice());
                    let (x, r) = (x.as_mut_slice(), r.as_mut_slice());
                    split.lower_cg(&a, p, t, u, &coef, x, r, &mut nsq, m)
                }),
                secs(|| {
                    s.sub_scaled_then_norms_into(&q, &coef, &mut x, &t, &mut nsq)
                }),
                secs(|| s.assign_add_scaled(&r, &coef)),
            ];
            for (b, v) in best.iter_mut().zip(parts) {
                *b = b.min(v / unit);
            }
        }
        let [upper, lower, step, pu] = best;
        println!(
            "{:9}  w{m:<2} iteration {:5.2} products: upper {upper:.2} + lower {lower:.2} \
             | folded in, as standalone passes: X += T·diag(α) with R̂ −= Q̂·diag(α) and \
             norms {step:.2}, P̂ ← R̂ + P̂·diag(β) {pu:.2}",
            "",
            upper + lower,
        );
    }
}

/// Iterations of `block_cg` at widths 4, 8 and 16 beside the most any
/// of its columns takes when `cg` solves it alone, both under
/// Gauss–Seidel: on standard normals at 1e-6, and on the chunk head's
/// Brownian right-hand sides `F·Z` (its factor and polynomial, whitened
/// normals) at the default `guess_tol`, 1e-4.
fn per_column_rows(particles: usize) {
    let system = SystemBuilder::new(particles).seed(PACKING_SEED).build();
    let a = assemble_resistance(system.particles(), &ResistanceConfig::default());
    let n = a.n_rows();
    let factor = BrownianFactor::new(&a);
    let cheb = factor.polynomial(&a, MrhsConfig::default().cheb_order);
    for m in [4usize, 8, 16] {
        let normal =
            MultiVec::from_flat(n, m, normals(n * m, 0x2545_f491_4f6c_dd1d));
        let mut z =
            MultiVec::from_flat(n, m, normals(n * m, 0x5851_f42d_4c95_7f2d));
        factor.whiten(z.as_mut_slice(), m);
        let mut brownian = MultiVec::zeros(n, m);
        factor.apply_multi(&a, &cheb, &z, &mut brownian);
        for (what, b, tol) in
            [("normal", &normal, 1e-6), ("brownian", &brownian, 1e-4)]
        {
            let cfg = SolveConfig { tol, max_iter: 2000 };
            let res = block_cg(&a, b, &mut MultiVec::zeros(n, m), &cfg);
            assert!(res.converged, "{res:?}");
            let per_column = (0..m)
                .map(|j| {
                    let res = cg(&a, &b.column(j), &mut vec![0.0; n], &cfg);
                    assert!(res.converged, "{res:?}");
                    res.iterations
                })
                .max()
                .unwrap_or(0);
            println!(
                "{particles:9}  w{m:<2}  {what:8}  {tol:.0e} | block_cg {:4}  per-column {per_column:4}",
                res.iterations
            );
        }
    }
}

/// Checks of the true residual per solve over three Alg. 2 chunks
/// (m = 8) of the `sd_steps` system, 2,000 particles.
fn alg2_checks() {
    let mut system = SystemBuilder::new(2000).seed(PACKING_SEED).build();
    let mut noise = GaussianNoise::seed_from_u64(101);
    let cfg = MrhsConfig { m: 8, record_guess_errors: false, ..Default::default() };
    telemetry::set_enabled(true);
    let before = telemetry::snapshot();
    for _ in 0..3 {
        run_mrhs_chunk(&mut system, &mut noise, &cfg);
    }
    let d = telemetry::snapshot().diff(&before);
    telemetry::set_enabled(false);
    let count = |what: &str| {
        d.counter(&format!("solver/cg/{what}"))
            + d.counter(&format!("solver/block_cg/{what}"))
    };
    let (checks, solves) = (count("residual_checks"), count("solves"));
    println!(
        "Alg. 2, 2000 particles, three m = 8 chunks: {checks} checks over \
         {solves} solves ({:.2} per solve)",
        checks as f64 / solves as f64
    );
}

/// Standard normals from a fixed xorshift stream (Box–Muller).
fn normals(len: usize, mut state: u64) -> Vec<f64> {
    let mut uniform = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 + 0.5) / (1u64 << 53) as f64
    };
    (0..len)
        .map(|_| {
            let (u, v) = (uniform(), uniform());
            (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
        })
        .collect()
}

/// Mean iterations of three Alg. 2 chunks (m = 8) on the `sd_steps`
/// system per `guess_tol`: the block solve, the head step's first
/// solve (warm-started from a column only `guess_tol` accurate on the
/// same matrix), the other steps' first solves, and the second solves.
fn head_sweep() {
    const CHUNKS: usize = 3;
    let start = SystemBuilder::new(2000).seed(PACKING_SEED).build();
    println!(
        "\nguess_tol | block   head   first(k>0)  second   (iterations, m = 8)"
    );
    for guess_tol in [1e-4, 3e-4, 1e-3, 3e-3, 1e-2] {
        let cfg = MrhsConfig {
            m: 8,
            guess_tol,
            record_guess_errors: false,
            ..Default::default()
        };
        let mut system = start.clone();
        let mut noise = GaussianNoise::seed_from_u64(101);
        let (mut block, mut head, mut first, mut second) = (0, 0, 0, 0);
        for _ in 0..CHUNKS {
            let report = run_mrhs_chunk(&mut system, &mut noise, &cfg);
            block += report.block_iterations;
            head += report.steps[0].first_solve_iterations;
            for step in &report.steps[1..] {
                first += step.first_solve_iterations;
            }
            for step in &report.steps {
                second += step.second_solve_iterations;
            }
        }
        let per = |total: usize, count: usize| total as f64 / count as f64;
        println!(
            "{guess_tol:9.0e} | {:5.0}  {:5.0}  {:10.1}  {:6.1}",
            per(block, CHUNKS),
            per(head, CHUNKS),
            per(first, CHUNKS * 7),
            per(second, CHUNKS * 8)
        );
    }
}

/// `‖a − b‖ / ‖b‖`.
fn relative_error(a: &[f64], b: &[f64]) -> f64 {
    let diff: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    let norm: f64 = b.iter().map(|y| y * y).sum();
    (diff / norm).sqrt()
}

/// The `--sqrt` rows for one system.
fn sqrt_rows(particles: usize, system: &StokesianSystem) {
    let cfg = ResistanceConfig::default();
    let r = assemble_resistance(system.particles(), &cfg);
    let n = r.n_rows();
    let exact_lo = spectrum_lower_bound(system.particles(), &cfg);
    let ell_r = r.row_sum_lower_bound().unwrap_or(f64::NAN);
    let u_r = r
        .diagonal_blocks()
        .iter()
        .fold(0.0f64, |u, b| u.max(b.get(0, 0)).max(b.get(1, 1)).max(b.get(2, 2)));
    let factor = BrownianFactor::new(&r);
    let cheb = factor.polynomial(&r, MrhsConfig::default().cheb_order);
    let (lo, hi) = cheb.interval();
    let (ritz_lo, ritz_hi) = factor.ritz_extremes(&r, 20);
    let (a_lo, a_hi) = factor.ritz_extremes(&r, 600);
    let (r_lo, r_hi) = lanczos_extremes(&r, 600);
    println!(
        "{particles:9}  ℓ_R {ell_r:.4e} (exact {exact_lo:.4e}, rel {:.1e})  u_R {u_r:.3e}  \
         λ(R) ⊂ [{r_lo:.3e}, {r_hi:.3e}] (600 steps)",
        (ell_r - exact_lo).abs() / exact_lo
    );
    println!(
        "{:9}  Â: Ritz(20) [{ritz_lo:.3e}, {ritz_hi:.4}]  Ritz(600) [{a_lo:.3e}, {a_hi:.4}]  \
         interval [{lo:.3e}, {hi}]  brackets {}  derived order {}",
        "",
        lo <= a_lo && a_hi <= hi,
        cheb.order()
    );
    let z = normals(n, 0x5851_f42d_4c95_7f2d);
    let apply = |cheb: &ChebyshevSqrt, f: &dyn Fn(&ChebyshevSqrt, &mut [f64])| {
        let mut y = vec![0.0; n];
        f(cheb, &mut y);
        y
    };
    let on_r = |c: &ChebyshevSqrt, y: &mut [f64]| c.apply(&r, &z, y);
    let mut w = z.clone();
    factor.whiten(&mut w, 1);
    let on_f = |c: &ChebyshevSqrt, y: &mut [f64]| factor.apply(&r, c, &w, y);
    let sqrt_r =
        apply(&ChebyshevSqrt::new(0.999 * exact_lo, 1.01 * r_hi, 600), &on_r);
    let g = (r.gershgorin_lower_bound(), r.gershgorin_upper_bound());
    let before = spectral_bounds(&r, 20, Some(g));
    let before = ChebyshevSqrt::new(
        before.lo / BOUNDS_MARGIN,
        before.hi * BOUNDS_MARGIN,
        30,
    );
    let exact_f = apply(&ChebyshevSqrt::new(0.9 * a_lo, 2.0, 600), &on_f);
    println!(
        "{:9}  vector error vs order 600: before (S(R), order 30 on [{:.3e}, {:.3e}]) {:.2e}, \
         after (F, order {}) {:.2e}",
        "",
        before.interval().0,
        before.interval().1,
        relative_error(&apply(&before, &on_r), &sqrt_r),
        cheb.order(),
        relative_error(&apply(&cheb, &on_f), &exact_f)
    );
    // One chunk: the head's scaling held, the polynomial followed.
    let (mut sys, mut noise, mut cache) =
        (system.clone(), GaussianNoise::seed_from_u64(7), None);
    let cfg = MrhsConfig { m: 8, record_guess_errors: false, ..Default::default() };
    let orders: Vec<String> = (1..cfg.m)
        .map(|_| {
            run_original_step(&mut sys, &mut noise, &cfg, &mut cache);
            let rk =
                assemble_resistance(sys.particles(), &ResistanceConfig::default());
            let cheb_k = factor.follow(&cheb, &rk, cfg.cheb_order);
            format!("{} (top {:.2})", cheb_k.order(), cheb_k.interval().1)
        })
        .collect();
    println!(
        "{:9}  steps 1–7 of a chunk under the head's scaling: {}",
        "",
        orders.join(", ")
    );
}

fn main() {
    let (mut sizes, mut head, mut sqrt, mut sgs) =
        (Vec::new(), false, false, false);
    for arg in std::env::args().skip(1) {
        match arg.parse() {
            Ok(v) => sizes.push(v),
            Err(_) if arg == "--head" => head = true,
            Err(_) if arg == "--sqrt" => sqrt = true,
            Err(_) if arg == "--sgs" => sgs = true,
            Err(_) => {
                eprintln!(
                    "usage: precond_probe [particles…] [--head] [--sqrt] [--sgs]"
                );
                std::process::exit(2);
            }
        }
    }
    if sizes.is_empty() {
        sizes = vec![1000, 2000, 4000];
    }
    println!("particles  tol   | cg bare  cg jacobi  ratio | block_cg(8) bare  jacobi  ratio");
    for &particles in &sizes {
        let system = SystemBuilder::new(particles).seed(PACKING_SEED).build();
        let a =
            assemble_resistance(system.particles(), &ResistanceConfig::default());
        let n = a.n_rows();
        let diag: Vec<f64> =
            a.diagonal_blocks().iter().map(|b| b.trace() / 3.0).collect();
        let (lo, hi) = diag
            .iter()
            .fold((f64::INFINITY, 0.0f64), |(lo, hi), &d| (lo.min(d), hi.max(d)));
        eprintln!(
            "{particles} particles: n = {n}, {:.1} blocks/row, mean diagonal \
             {lo:.3e} … {hi:.3e}",
            a.blocks_per_row()
        );
        let b = normals(n, 0x9e37_79b9_7f4a_7c15);
        let b8 = MultiVec::from_flat(n, 8, normals(n * 8, 0x2545_f491_4f6c_dd1d));
        for tol in [1e-4, 1e-6] {
            let cfg = SolveConfig { tol, max_iter: 2000 };
            let scalar = |op: &dyn LinearOperator| {
                let mut x = vec![0.0; n];
                let res = cg(op, &b, &mut x, &cfg);
                assert!(res.converged, "{res:?}");
                res.iterations
            };
            let block = |op: &dyn LinearOperator| {
                let mut x = MultiVec::zeros(n, 8);
                let res = block_cg(op, &b8, &mut x, &cfg);
                assert!(res.converged, "{res:?}");
                res.iterations
            };
            let (s0, s1) = (scalar(&Bare(&a)), scalar(&JacobiOnly(&a)));
            let (b0, b1) = (block(&Bare(&a)), block(&JacobiOnly(&a)));
            println!(
                "{particles:9}  {tol:.0e} | {s0:7}  {s1:9}  {:5.2} | {b0:16}  {b1:6}  {:5.2}",
                s1 as f64 / s0 as f64,
                b1 as f64 / b0 as f64
            );
        }
    }
    if sqrt {
        println!("\nBrownian square root (cap 30)");
        for &particles in &sizes {
            sqrt_rows(
                particles,
                &SystemBuilder::new(particles).seed(PACKING_SEED).build(),
            );
        }
    }
    if sgs {
        println!(
            "\nparticles  solve (1e-6)  | iterations: jacobi  sgs  ratio | ms: jacobi  sgs  ratio"
        );
        for &particles in &sizes {
            sgs_rows(particles);
        }
        println!("\nparticles  width  rhs  tol | iterations (Gauss–Seidel)");
        for &particles in &sizes {
            per_column_rows(particles);
        }
        alg2_checks();
    }
    if head {
        head_sweep();
    }
}
