//! Solver-level differentials: production solvers against the naive
//! dense references (direct solves, textbook block CG, the Jacobi
//! eigensolver square root, and the dense MRHS chunk step).

use mrhs_cluster::watchdog::with_deadline;
use mrhs_core::system::XorShiftNoise;
use mrhs_core::{
    run_mrhs_chunk, BrownianFactor, MrhsConfig, ResistanceSystem, BOUNDS_MARGIN,
};
use mrhs_solvers::{
    block_bicgstab, block_cg, cg, spectral_bounds, Breakdown, BreakdownKind,
    ChebyshevSqrt, DenseCholesky, LinearOperator, SolveConfig,
};
use mrhs_sparse::{
    active_backend, BcrsMatrix, Block3, BlockTripletBuilder, MultiVec, SgsSplit,
};
use oracle::corpus::{corpus, graded_spd, nonsym_corpus, soft_general, Scale};
use oracle::fixtures::LineSystem;
use oracle::invariants::{a_norm_error, check_block_bookkeeping};
use oracle::reference::{
    brownian_factor, gauss_solve, gauss_solve_multi, naive_bicgstab,
    naive_block_bicgstab, naive_block_cg, naive_mrhs_chunk, sqrt_matvec_eigh,
    Dense,
};
use oracle::tolerance::TolModel;
use std::time::Duration;

/// Deterministic SPD test matrix (same construction as the determinism
/// suite, smaller).
fn spd(nb: usize, band: usize) -> BcrsMatrix {
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let mut d = Block3::scaled_identity(5.0 + band as f64);
        *d.get_mut(1, 2) = 0.2;
        *d.get_mut(2, 1) = 0.2;
        t.add(i, i, d);
        for off in 1..=band {
            if i + off < nb {
                let w = -1.0 / (1.5 + off as f64 + (i % 5) as f64 * 0.25);
                t.add_symmetric_pair(i, i + off, Block3::scaled_identity(w));
            }
        }
    }
    t.build()
}

fn rhs(n: usize, m: usize) -> MultiVec {
    let mut b = MultiVec::zeros(n, m);
    for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
        *v = ((i as f64) * 0.754_877_666_246_692_8).fract() * 2.0 - 1.0;
    }
    b
}

#[test]
fn production_block_cg_matches_direct_solve() {
    let a = spd(20, 2);
    let dense = Dense::from_bcrs(&a);
    let b = rhs(a.n_rows(), 6);

    let mut x = MultiVec::zeros(a.n_rows(), 6);
    let cfg = SolveConfig { tol: 1e-12, max_iter: 500 };
    let res = block_cg(&a, &b, &mut x, &cfg);
    assert!(res.converged, "{res:?}");

    let want = gauss_solve_multi(&dense, &b).expect("SPD direct solve");
    TolModel::SOLVER
        .check_slices(want.as_slice(), x.as_slice(), "block_cg vs gauss")
        .unwrap();
}

#[test]
fn naive_block_cg_matches_production_block_cg() {
    let a = spd(16, 2);
    let dense = Dense::from_bcrs(&a);
    let b = rhs(a.n_rows(), 4);

    let mut x_prod = MultiVec::zeros(a.n_rows(), 4);
    let res_prod =
        block_cg(&a, &b, &mut x_prod, &SolveConfig { tol: 1e-11, max_iter: 400 });
    assert!(res_prod.converged);

    let mut x_naive = MultiVec::zeros(a.n_rows(), 4);
    let res_naive = naive_block_cg(&dense, &b, &mut x_naive, 1e-11, 400);
    assert!(res_naive.converged, "{res_naive:?}");

    TolModel::SOLVER
        .check_slices(
            x_naive.as_slice(),
            x_prod.as_slice(),
            "production vs naive block CG",
        )
        .unwrap();
}

#[test]
fn block_cg_bookkeeping_is_consistent() {
    let a = spd(18, 2);
    let dense = Dense::from_bcrs(&a);
    let b = rhs(a.n_rows(), 5);

    // Converged run.
    let mut x = MultiVec::zeros(a.n_rows(), 5);
    let cfg = SolveConfig { tol: 1e-9, max_iter: 400 };
    let res = block_cg(&a, &b, &mut x, &cfg);
    assert!(res.converged);
    check_block_bookkeeping(&dense, &b, &x, cfg.tol, 1e-8, 0.0, &res).unwrap();

    // Truncated (unconverged) runs: the report must describe exactly
    // the state left in X after `iterations`.
    for max_iter in [1usize, 2, 3, 5] {
        let mut x = MultiVec::zeros(a.n_rows(), 5);
        let cfg = SolveConfig { tol: 1e-14, max_iter };
        let res = block_cg(&a, &b, &mut x, &cfg);
        check_block_bookkeeping(&dense, &b, &x, cfg.tol, 1e-8, 0.0, &res)
            .unwrap_or_else(|e| panic!("max_iter={max_iter}: {e}"));
    }
}

#[test]
fn block_cg_a_norm_error_is_monotone() {
    // CG minimizes the A-norm of the error over the growing Krylov
    // space, so it decreases monotonically with the iteration count
    // (unlike the residual 2-norm). Check per column against the
    // direct solution.
    let a = spd(14, 2);
    let dense = Dense::from_bcrs(&a);
    let m = 3;
    let b = rhs(a.n_rows(), m);
    let x_star = gauss_solve_multi(&dense, &b).unwrap();

    let mut prev: Option<Vec<f64>> = None;
    for max_iter in 1..=12 {
        let mut x = MultiVec::zeros(a.n_rows(), m);
        let cfg = SolveConfig { tol: 1e-15, max_iter };
        block_cg(&a, &b, &mut x, &cfg);
        let errs: Vec<f64> = (0..m)
            .map(|j| a_norm_error(&dense, &x.column(j), &x_star.column(j)))
            .collect();
        if let Some(p) = &prev {
            for (j, (now, before)) in errs.iter().zip(p).enumerate() {
                assert!(
                    *now <= before * (1.0 + 1e-8) + 1e-14,
                    "column {j}: A-norm error rose {before} -> {now} \
                     at max_iter={max_iter}"
                );
            }
        }
        prev = Some(errs);
    }
}

/// The matrix's products and diagonal blocks, not its block rows: how
/// an operator keeps block-Jacobi.
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

/// The preconditioned solvers against the dense direct solve, over
/// every symmetric entry of the pathological corpus plus a matrix whose
/// diagonal blocks span `1e-3…1e3`, each solve through `op(a)`. On a
/// positive-definite entry both must converge onto the direct solution;
/// on every entry, whatever a solve reports as converged must be
/// converged in the norm the contract names — `‖b_j − A·x_j‖₂`,
/// recomputed from scratch through the dense mirror. (A stopping test
/// on `rᵀM⁻¹r` — or on Gauss–Seidel's split residual — fails the graded
/// entry; the singular entries — a zero matrix, rows with no diagonal
/// block — exercise the fall-back to `M = I`.) Returns how many entries
/// were positive definite.
fn agree_with_direct_solves_on_spd_corpus(
    op: &dyn Fn(&BcrsMatrix) -> Box<dyn LinearOperator + '_>,
) -> usize {
    let mut cases: Vec<(&str, BcrsMatrix)> = corpus(Scale::Small)
        .into_iter()
        .filter(|e| e.intended_symmetric)
        .map(|e| (e.name, e.matrix))
        .collect();
    cases.push(("graded_spd", graded_spd(24, 3, 1212)));
    let mut definite = 0;
    for (name, a) in &cases {
        let dense = Dense::from_bcrs(a);
        let n = a.n_rows();
        let m = 3;
        let b = rhs(n, m);
        let cfg = SolveConfig { tol: 1e-8, max_iter: 4000 };
        let op = op(a);
        // Recomputed true residual of column `j` against its bound.
        let true_residual_ok = |x: &[f64], j: usize| {
            let ax = dense.matvec(x);
            let bj = b.column(j);
            let rn =
                bj.iter().zip(&ax).map(|(u, v)| (u - v) * (u - v)).sum::<f64>();
            let bn = bj.iter().map(|v| v * v).sum::<f64>();
            rn.sqrt() <= 1.1 * cfg.tol * bn.sqrt()
        };
        let want = DenseCholesky::factor_bcrs(a)
            .and_then(|_| gauss_solve_multi(&dense, &b));
        definite += usize::from(want.is_some());

        let mut xb = MultiVec::zeros(n, m);
        let block = block_cg(&*op, &b, &mut xb, &cfg);
        check_block_bookkeeping(&dense, &b, &xb, cfg.tol, 1e-8, 0.0, &block)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        for j in 0..m {
            let mut xj = vec![0.0; n];
            let scalar = cg(&*op, &b.column(j), &mut xj, &cfg);
            if scalar.converged {
                assert!(true_residual_ok(&xj, j), "{name}: cg column {j}");
            }
            if block.converged {
                assert!(
                    true_residual_ok(&xb.column(j), j),
                    "{name}: block_cg column {j}"
                );
            }
            if let Some(want) = &want {
                assert!(scalar.converged, "{name}: cg column {j}: {scalar:?}");
                TolModel::SOLVER
                    .check_slices(&want.column(j), &xj, &format!("{name} cg {j}"))
                    .unwrap();
            }
        }
        if let Some(want) = &want {
            assert!(block.converged, "{name}: {block:?}");
            TolModel::SOLVER
                .check_slices(
                    want.as_slice(),
                    xb.as_slice(),
                    &format!("{name} block_cg"),
                )
                .unwrap();
        }
    }
    definite
}

/// Block-Jacobi: the matrices with their block rows withheld.
#[test]
fn precond_cg_and_block_cg_agree_with_direct_solves_on_spd_corpus() {
    with_deadline(Duration::from_secs(300), || {
        let definite =
            agree_with_direct_solves_on_spd_corpus(&|a| Box::new(JacobiOnly(a)));
        assert!(definite >= 6, "only {definite} positive-definite cases ran");
    });
}

/// Block symmetric Gauss–Seidel: the bare matrices hand over their
/// rows. Every positive-definite entry has a split, so each of its
/// three-column `block_cg` solves and one-column `cg` solves ran the
/// sweeps.
#[test]
fn sgs_block_cg_agrees_with_direct_solves_on_spd_corpus() {
    with_deadline(Duration::from_secs(300), || {
        let definite =
            agree_with_direct_solves_on_spd_corpus(&|a| Box::new(a.clone()));
        assert!(definite >= 6, "only {definite} positive-definite cases ran");
        let mut split = SgsSplit::new(active_backend());
        for e in corpus(Scale::Small).into_iter().filter(|e| e.intended_symmetric) {
            if DenseCholesky::factor_bcrs(&e.matrix).is_some() {
                assert!(split.rebuild(&e.matrix, 3), "{}: no split", e.name);
            }
        }
    });
}

/// `cg` under Gauss–Seidel against the dense reference solve, column by
/// column: on every positive-definite entry of the corpus (plus the
/// graded one) the bare matrix has a one-column split, `cg` converges
/// onto `gauss_solve`'s solution, and the residual it reports is the
/// true `‖b − A·x‖₂`, recomputed through the dense mirror.
#[test]
fn sgs_cg_agrees_with_the_dense_reference_solve() {
    with_deadline(Duration::from_secs(300), || {
        let mut cases: Vec<(&str, BcrsMatrix)> = corpus(Scale::Small)
            .into_iter()
            .filter(|e| e.intended_symmetric)
            .map(|e| (e.name, e.matrix))
            .collect();
        cases.push(("graded_spd", graded_spd(24, 3, 1212)));
        let mut split = SgsSplit::new(active_backend());
        let mut definite = 0;
        for (name, a) in &cases {
            if DenseCholesky::factor_bcrs(a).is_none() {
                continue;
            }
            definite += 1;
            assert!(split.rebuild(a, 1), "{name}: no one-column split");
            let dense = Dense::from_bcrs(a);
            let n = a.n_rows();
            let b = rhs(n, 2);
            let cfg = SolveConfig { tol: 1e-8, max_iter: 4000 };
            for j in 0..2 {
                let bj = b.column(j);
                let want = gauss_solve(&dense, &bj).expect("direct solve");
                let mut x = vec![0.0; n];
                let res = cg(a, &bj, &mut x, &cfg);
                assert!(res.converged, "{name} column {j}: {res:?}");
                let ax = dense.matvec(&x);
                let truth = bj
                    .iter()
                    .zip(&ax)
                    .map(|(u, v)| (u - v) * (u - v))
                    .sum::<f64>()
                    .sqrt();
                let bn = bj.iter().map(|v| v * v).sum::<f64>().sqrt();
                assert!(truth <= 1.1 * cfg.tol * bn, "{name} column {j}: {truth}");
                assert!(
                    (res.residual_norm - truth).abs() <= 1e-3 * cfg.tol * bn,
                    "{name} column {j}: reported {} true {truth}",
                    res.residual_norm
                );
                TolModel::SOLVER
                    .check_slices(&want, &x, &format!("{name} cg {j}"))
                    .unwrap();
            }
        }
        assert!(definite >= 6, "only {definite} positive-definite cases ran");
    });
}

/// An operator whose products are NaN (a numerically destroyed Gram
/// matrix) defeats the ridge/symmetrize guards and forces the PᵀQ
/// breakdown in iteration 1. The result must report it exactly as
/// documented: a curvature breakdown in iteration 1 with zero
/// *completed* iterations,
/// X untouched, and residual norms describing the state after those
/// zero iterations (`B − A·X = B`).
#[test]
fn breakdown_reporting_is_consistent() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Healthy (zero) for the first `good` column-applies — enough to
    /// compute the initial residual `R = B` — NaN afterwards, so the
    /// first iteration's PᵀQ Gram matrix is destroyed while `R` and
    /// `ρ` still hold real values.
    struct DecayingOp {
        n: usize,
        good: AtomicUsize,
    }
    impl LinearOperator for DecayingOp {
        fn dim(&self) -> usize {
            self.n
        }
        fn apply(&self, _x: &[f64], y: &mut [f64]) {
            if self
                .good
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |g| {
                    (g > 0).then(|| g - 1)
                })
                .is_ok()
            {
                y.fill(0.0);
            } else {
                y.fill(f64::NAN);
            }
        }
    }

    let n = 12;
    let b = rhs(n, 3);
    let mut x = MultiVec::zeros(n, 3);
    let op = DecayingOp { n, good: AtomicUsize::new(3) };
    let res = block_cg(&op, &b, &mut x, &SolveConfig::default());

    assert_eq!(
        res.breakdown,
        Some(Breakdown { iteration: 1, kind: BreakdownKind::Curvature }),
        "{res:?}"
    );
    assert_eq!(res.iterations, 0);
    assert!(!res.converged);
    assert!(x.as_slice().iter().all(|v| *v == 0.0), "X must be untouched");
    for (j, rn) in res.residual_norms.iter().enumerate() {
        let bn = b.column(j).iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!(
            (rn - bn).abs() <= 1e-12 * bn,
            "column {j}: reported {rn}, ‖b‖ = {bn}"
        );
    }
    // X is untouched (zero), so the recomputed residual is B under any
    // operator — the bookkeeping check needs no meaningful dense here.
    let zero = Dense { n_rows: n, n_cols: n, data: vec![0.0; n * n] };
    check_block_bookkeeping(&zero, &b, &x, 1e-6, 1e-8, 0.0, &res).unwrap();
}

#[test]
fn chebyshev_sqrt_converges_to_eigen_sqrt() {
    let a = spd(10, 2);
    let dense = Dense::from_bcrs(&a);
    let n = a.n_rows();

    let g = (a.gershgorin_lower_bound(), a.gershgorin_upper_bound());
    let bounds = spectral_bounds(&a, 20, Some(g));
    let z: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 0.381_966_011_250_105).fract() * 2.0 - 1.0)
        .collect();
    let want = sqrt_matvec_eigh(&dense, &z);

    // Error must fall with the polynomial order and be tiny at the
    // order the drivers use for production (30) and above.
    let mut last_err = f64::INFINITY;
    for order in [8usize, 16, 30, 60] {
        let cheb = ChebyshevSqrt::new(bounds.lo / 1.15, bounds.hi * 1.15, order);
        let mut got = vec![0.0; n];
        cheb.apply(&a, &z, &mut got);
        let err = want
            .iter()
            .zip(&got)
            .map(|(w, g)| (w - g).abs())
            .fold(0.0f64, f64::max);
        assert!(
            err <= last_err * 1.5 + 1e-12,
            "error should not grow with order: {last_err} -> {err} at {order}"
        );
        last_err = err;
    }
    assert!(last_err < 1e-8, "order-60 Chebyshev error {last_err}");
}

/// The mirror is a valid Brownian factor, not just one production
/// matches: dense `F·Fᵀ = R` to roundoff on every SPD matrix of the
/// corpus and on a suspension, whose diagonal blocks span decades —
/// scaled by the matrix's own diagonal, and by another SPD diagonal
/// (as a chunk scales a later matrix by its head's).
#[test]
fn brownian_factor_reproduces_the_matrix_over_the_spd_corpus() {
    let suspension = mrhs_stokes::SystemBuilder::new(20).seed(5).build().assemble();
    let spd = corpus(Scale::Small)
        .into_iter()
        .filter(|e| {
            e.intended_symmetric && DenseCholesky::factor_bcrs(&e.matrix).is_some()
        })
        .map(|e| (e.name, e.matrix))
        .chain([("suspension", suspension)]);
    let mut checked = 0;
    for (name, a) in spd {
        let r = Dense::from_bcrs(&a);
        let n = r.n_rows;
        // Another SPD diagonal: R's, doubled and shifted.
        let mut other = r.clone();
        for i in 0..n {
            for j in 0..n {
                other.data[i * n + j] *= 2.0;
            }
            other.data[i * n + i] += r.max_abs();
        }
        for (scaling, d) in [("own", &r), ("other", &other)] {
            let f = brownian_factor(d, &r).expect("SPD diagonal blocks");
            let mut worst = 0.0f64;
            for i in 0..n {
                for j in 0..n {
                    let fft: f64 = (0..n).map(|k| f.at(i, k) * f.at(j, k)).sum();
                    worst = worst.max((fft - r.at(i, j)).abs());
                }
            }
            assert!(
                worst <= 1e-12 * r.max_abs(),
                "{name}, {scaling} scaling: ‖F·Fᵀ − R‖_max = {worst:e}"
            );
        }
        checked += 1;
    }
    assert!(checked >= 6, "only {checked} SPD matrices");
}

/// The factor at the cap the selfcheck runs (60) on its narrow-spectrum
/// suspension: production `F·z` against the dense mirror is at least
/// as accurate as a plain order-60 `S(R)·z` — on `R`'s 20-step Lanczos
/// interval widened by 1.15 — is against the dense `√R·z`.
#[test]
fn brownian_factor_keeps_the_cap_accuracy_on_a_narrow_spectrum() {
    let sys = mrhs_stokes::SystemBuilder::new(24)
        .volume_fraction(0.3)
        .xi_min(0.1)
        .seed(21)
        .build();
    let a = sys.assemble();
    let r = Dense::from_bcrs(&a);
    let n = a.n_rows();
    let z: Vec<f64> = (0..n).map(|i| ((i * 37 % 23) as f64) / 11.0 - 1.0).collect();
    let rel = |got: &[f64], want: &[f64]| {
        let d: f64 = got.iter().zip(want).map(|(g, w)| (g - w) * (g - w)).sum();
        (d / want.iter().map(|w| w * w).sum::<f64>()).sqrt()
    };

    let factor = BrownianFactor::new(&a);
    let cheb = factor.polynomial(&a, 60);
    let (mut w, mut got) = (z.clone(), vec![0.0; n]);
    factor.whiten(&mut w, 1);
    factor.apply(&a, &cheb, &w, &mut got);
    let after = rel(&got, &brownian_factor(&r, &r).unwrap().matvec(&z));

    let g = (a.gershgorin_lower_bound(), a.gershgorin_upper_bound());
    let b = spectral_bounds(&a, 20, Some(g));
    let before = ChebyshevSqrt::new(b.lo / BOUNDS_MARGIN, b.hi * BOUNDS_MARGIN, 60);
    before.apply(&a, &z, &mut got);
    let before = rel(&got, &sqrt_matvec_eigh(&r, &z));
    assert!(after <= before, "order {}: {after:e} vs {before:e}", cheb.order());
}

/// End-to-end Alg. 2 differential: the production chunk driver against
/// the dense reference chunk (Jacobi eigensolver square root + direct
/// solves), same system, same noise stream. With a high Chebyshev
/// order and tight CG tolerances the trajectories must coincide to
/// well beyond the solver tolerance.
#[test]
fn mrhs_chunk_matches_dense_reference_trajectory() {
    with_deadline(Duration::from_secs(120), || {
        let m = 4;
        let cfg = MrhsConfig {
            m,
            cheb_order: 60,
            solve: SolveConfig { tol: 1e-13, max_iter: 2000 },
            guess_tol: 1e-10,
            record_guess_errors: false,
        };

        let mut sys_prod = LineSystem::new(10);
        let mut noise_prod = XorShiftNoise::new(2024);
        let report = run_mrhs_chunk(&mut sys_prod, &mut noise_prod, &cfg);
        assert_eq!(report.steps.len(), m);

        let mut sys_ref = LineSystem::new(10);
        let mut noise_ref = XorShiftNoise::new(2024);
        let outcome = naive_mrhs_chunk(&mut sys_ref, &mut noise_ref, m);
        assert_eq!(outcome.m, m);

        let model = TolModel { rel: 1e-7, floor: 1.0, max_ulps: 64 };
        model
            .check_slices(
                sys_ref.positions(),
                sys_prod.positions(),
                "chunk trajectory production vs dense reference",
            )
            .unwrap();
    });
}

// ---------------------------------------------------------------------------
// Nonsymmetric arm: block BiCGStab against direct solves and the naive
// dense reference, over the seeded nonsymmetric corpus.
// ---------------------------------------------------------------------------

/// Every well-conditioned nonsym corpus entry: the production block
/// solver must land on the direct solution and keep its bookkeeping
/// honest.
#[test]
fn production_block_bicgstab_matches_direct_solve_on_nonsym_corpus() {
    with_deadline(Duration::from_secs(300), || {
        for entry in nonsym_corpus(Scale::Small) {
            if entry.near_breakdown {
                continue;
            }
            let a = &entry.matrix;
            let dense = Dense::from_bcrs(a);
            let b = rhs(a.n_rows(), 3);
            let want = gauss_solve_multi(&dense, &b).expect("direct solve");

            let cfg = SolveConfig { tol: 1e-10, max_iter: 2000 };
            let mut x = MultiVec::zeros(a.n_rows(), 3);
            let res = block_bicgstab(a, &b, &mut x, &cfg);
            assert!(res.converged, "{}: {res:?}", entry.name);
            assert!(res.breakdown.is_none());
            TolModel::NONSYM_SOLVER
                .check_slices(
                    want.as_slice(),
                    x.as_slice(),
                    &format!("{} vs gauss", entry.name),
                )
                .unwrap();
            check_block_bookkeeping(&dense, &b, &x, cfg.tol, 1e-7, 1e-5, &res)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        }
    });
}

/// The independent plain-loop dense implementation and the production
/// register-tiled one must agree (both pinned to the direct solution).
#[test]
fn naive_block_bicgstab_matches_production() {
    let entry = &nonsym_corpus(Scale::Small)[0];
    let a = &entry.matrix;
    let dense = Dense::from_bcrs(a);
    let b = rhs(a.n_rows(), 4);

    let mut x_prod = MultiVec::zeros(a.n_rows(), 4);
    let res_prod = block_bicgstab(
        a,
        &b,
        &mut x_prod,
        &SolveConfig { tol: 1e-11, max_iter: 2000 },
    );
    assert!(res_prod.converged, "{res_prod:?}");

    let mut x_naive = MultiVec::zeros(a.n_rows(), 4);
    let res_naive = naive_block_bicgstab(&dense, &b, &mut x_naive, 1e-11, 2000);
    assert!(res_naive.converged, "{res_naive:?}");

    TolModel::NONSYM_SOLVER
        .check_slices(
            x_naive.as_slice(),
            x_prod.as_slice(),
            "production vs naive block BiCGStab",
        )
        .unwrap();
}

/// Width-1 path: production `block_bicgstab` on one right-hand side
/// against the textbook scalar reference and the direct solution on a
/// nonsymmetric operator.
#[test]
fn scalar_bicgstab_matches_naive_reference() {
    let entry = &nonsym_corpus(Scale::Small)[1];
    let a = &entry.matrix;
    let dense = Dense::from_bcrs(a);
    let n = a.n_rows();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i as f64) * 0.754_877_666_246_692_8).fract() * 2.0 - 1.0)
        .collect();
    let want = gauss_solve(&dense, &b).expect("direct solve");

    let mut x_prod = MultiVec::zeros(n, 1);
    let res = block_bicgstab(
        a,
        &MultiVec::from_vec(b.clone()),
        &mut x_prod,
        &SolveConfig { tol: 1e-11, max_iter: 2000 },
    );
    assert!(res.converged, "{res:?}");

    let mut x_naive = vec![0.0; n];
    let res_naive = naive_bicgstab(&dense, &b, &mut x_naive, 1e-11, 2000);
    assert!(res_naive.converged);

    TolModel::NONSYM_SOLVER
        .check_slices(&want, x_prod.as_slice(), "width-1 block_bicgstab vs gauss")
        .unwrap();
    TolModel::NONSYM_SOLVER
        .check_slices(&want, &x_naive, "naive bicgstab vs gauss")
        .unwrap();
}

/// Truncated (unconverged) block-BiCGStab runs must still report a
/// state that matches the solution actually left in `X` — the same
/// bookkeeping contract block CG has.
#[test]
fn block_bicgstab_bookkeeping_is_consistent_when_truncated() {
    let entry = &nonsym_corpus(Scale::Small)[0];
    let a = &entry.matrix;
    let dense = Dense::from_bcrs(a);
    let b = rhs(a.n_rows(), 5);

    for max_iter in [1usize, 2, 3, 5] {
        let cfg = SolveConfig { tol: 1e-14, max_iter };
        let mut x = MultiVec::zeros(a.n_rows(), 5);
        let res = block_bicgstab(a, &b, &mut x, &cfg);
        check_block_bookkeeping(&dense, &b, &x, 1e-14, 1e-7, 1e-5, &res)
            .unwrap_or_else(|e| panic!("max_iter={max_iter}: {e}"));
    }
}

/// The near-breakdown corpus entry (skew-dominant, δ·I barely keeping
/// it nonsingular) must produce an *honest* outcome: convergence, a
/// classified ρ/ω breakdown, or the iteration cap — with bookkeeping
/// that still describes the returned state. Never a silent wrong
/// answer.
#[test]
fn near_breakdown_entry_reports_an_honest_outcome() {
    let entries = nonsym_corpus(Scale::Small);
    let entry = entries
        .iter()
        .find(|e| e.near_breakdown)
        .expect("corpus must keep a near-breakdown entry");
    let a = &entry.matrix;
    let dense = Dense::from_bcrs(a);
    let b = rhs(a.n_rows(), 2);

    let cfg = SolveConfig { tol: 1e-10, max_iter: 500 };
    let mut x = MultiVec::zeros(a.n_rows(), 2);
    let res = block_bicgstab(a, &b, &mut x, &cfg);
    assert!(
        res.converged || res.breakdown.is_some() || res.iterations >= cfg.max_iter,
        "silent stop at {} iterations: {res:?}",
        res.iterations
    );
    check_block_bookkeeping(&dense, &b, &x, cfg.tol, 1e-7, 1e-5, &res).unwrap();
}

// ---------------------------------------------------------------------------
// Soft general operators: a resistance at the default gap floor
// ξ_min = 1e-3, skew-perturbed as the benchmark's general operators are.
// Unpreconditioned block BiCGStab stagnates on them, and its recurrence
// residual drifts below thresholds its true residual is still above.
// ---------------------------------------------------------------------------

/// `‖b_j − A·x_j‖₂` per column, recomputed through the operator.
fn true_residual_norms(
    a: &dyn LinearOperator,
    b: &MultiVec,
    x: &MultiVec,
) -> Vec<f64> {
    let mut r = MultiVec::zeros(b.n(), b.m());
    a.apply_multi(x, &mut r);
    for (ri, bi) in r.as_mut_slice().iter_mut().zip(b.as_slice()) {
        *ri = bi - *ri;
    }
    r.norms()
}

/// Block BiCGStab on the 1,000-particle soft general operator at skew
/// `eps`, at widths 1 and 8: each solve converges within 100
/// iterations — about three times what Gauss–Seidel takes, under half
/// what no preconditioner does — and every column's recomputed true
/// residual is at or below `tol·‖b_j‖`.
fn soft_general_solves_converge_on_their_true_residual(eps: f64) {
    let a = soft_general(1000, eps);
    let n = a.n_rows();
    let cfg = SolveConfig { tol: 1e-6, max_iter: 100 };
    for m in [1usize, 8] {
        let b = rhs(n, m);
        let mut x = MultiVec::zeros(n, m);
        let res = block_bicgstab(&a, &b, &mut x, &cfg);
        assert!(res.converged, "skew {eps}, m = {m}: {res:?}");
        let truth = true_residual_norms(&a, &b, &x);
        for (j, bn) in b.norms().iter().enumerate() {
            assert!(
                truth[j] <= cfg.tol * bn,
                "skew {eps}, m = {m}, col {j}: true residual {} above {}",
                truth[j],
                cfg.tol * bn
            );
        }
    }
}

#[test]
fn soft_general_operator_at_2pct_skew_converges_on_its_true_residual() {
    soft_general_solves_converge_on_their_true_residual(0.02);
}

#[test]
fn soft_general_operator_at_10pct_skew_converges_on_its_true_residual() {
    soft_general_solves_converge_on_their_true_residual(0.1);
}

/// Forwards a matrix's products and names neither its diagonal nor
/// its block rows: how an operator opts out of preconditioning.
struct HiddenDiagonal<'a>(&'a BcrsMatrix);

impl LinearOperator for HiddenDiagonal<'_> {
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

/// The block-solve contract's `converged`: a converged block BiCGStab
/// reports every column at or below its threshold, and so is its
/// recomputed true residual — at m ∈ {1, 4, 8, 16}, on all three
/// preconditioner paths (Gauss–Seidel on the bare matrix, block-Jacobi,
/// none), on the 300-particle soft general operator at 2 % skew and tol
/// 1e-8. The Gauss–Seidel path must converge at every width; a solve
/// on another path that does not must name a breakdown or have run to
/// `max_iter`. (A column that met its threshold and rose again above
/// it, or whose recurrence residual drifted below the true one, used to
/// leave a `converged` solve reading 1.7× its threshold here.)
#[test]
fn block_bicgstab_converged_means_every_column_meets_its_threshold() {
    let a = soft_general(300, 0.02);
    let n = a.n_rows();
    let (jacobi, hidden) = (JacobiOnly(&a), HiddenDiagonal(&a));
    let paths: [(&str, &dyn LinearOperator); 3] =
        [("sgs", &a), ("jacobi", &jacobi), ("none", &hidden)];
    let cfg = SolveConfig { tol: 1e-8, max_iter: 200 };
    for (path, op) in paths {
        for m in [1usize, 4, 8, 16] {
            let b = rhs(n, m);
            let mut x = MultiVec::zeros(n, m);
            let res = block_bicgstab(op, &b, &mut x, &cfg);
            if !res.converged {
                // Only the unpreconditioned paths may stop short, and
                // then for a named reason.
                assert_ne!(path, "sgs", "m = {m}: {res:?}");
                assert!(
                    res.breakdown.is_some() || res.iterations == cfg.max_iter,
                    "{path}, m = {m}: stopped short for no reason: {res:?}"
                );
                continue;
            }
            let truth = true_residual_norms(&a, &b, &x);
            for (j, bn) in b.norms().iter().enumerate() {
                let threshold = cfg.tol * bn;
                assert!(
                    res.residual_norms[j] <= threshold,
                    "{path}, m = {m}, col {j}: reported {} above {threshold}",
                    res.residual_norms[j]
                );
                assert!(
                    truth[j] <= threshold,
                    "{path}, m = {m}, col {j}: true {} above {threshold}",
                    truth[j]
                );
            }
        }
    }
}
