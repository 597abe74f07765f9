//! The differential runner: every backend × every corpus entry ×
//! every `m`, against the dense reference, under one tolerance model.
//!
//! For each `(entry, m)` cell the runner:
//!
//! 1. expands the entry to a [`Dense`] reference and computes the
//!    reference product with naive triple loops;
//! 2. cross-checks the symmetric half-storage expansion against the
//!    full expansion **exactly** (they are assembled independently, so
//!    any difference is a conversion bug, not roundoff);
//! 3. runs every supporting backend, checking (a) tolerance agreement
//!    with the reference, (b) bitwise equality across two repeated
//!    runs of the same backend, and (c) bitwise equality inside each
//!    declared equivalence group.
//!
//! Failures are collected, not panicked, so one run reports every
//! disagreement in the matrix of backends at once.

use crate::backends::GspmvBackend;
use crate::corpus::{pseudo_multivec, CorpusEntry, Scale};
use crate::reference::Dense;
use crate::tolerance::{check_bitwise, TolModel};
use std::collections::HashMap;

/// Widths the nonsymmetric *solver* differential sweeps. Much smaller
/// than [`crate::corpus::m_values`]: every cell pays a direct dense
/// solve, and the kernel-level `m` coverage already comes from the
/// GSPMV sweep over the same matrices.
const NONSYM_SOLVER_MS: [usize; 4] = [1, 2, 4, 8];

/// Row-count ceiling for direct-solve references in the nonsym solver
/// differential. Above this the O(n³) Gaussian elimination dominates
/// the whole oracle run; the recomputed true-residual check inside the
/// bookkeeping invariant gates correctness instead.
const NONSYM_DIRECT_LIMIT: usize = 600;

/// Outcome of a differential sweep.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of individual comparisons performed.
    pub checks: usize,
    /// Human-readable description of every failed comparison.
    pub failures: Vec<String>,
}

impl Report {
    /// Panics with the full failure list if anything disagreed.
    pub fn assert_ok(&self) {
        assert!(
            self.failures.is_empty(),
            "{} of {} differential checks failed:\n{}",
            self.failures.len(),
            self.checks,
            self.failures.join("\n")
        );
    }
}

/// Runs the full differential: `backends × corpus(scale) × m_values`.
pub fn run_differential(
    backends: &[Box<dyn GspmvBackend>],
    entries: &[CorpusEntry],
    ms: &[usize],
    tol: &TolModel,
) -> Report {
    let mut report = Report::default();

    for (ei, entry) in entries.iter().enumerate() {
        let dense = Dense::from_bcrs(&entry.matrix);

        // Independent expansion of the half storage must match the
        // full expansion bit for bit: both copy the same stored
        // scalars, no arithmetic involved.
        if let Some(s) = &entry.symmetric {
            let dense_sym = Dense::from_symmetric(s);
            report.checks += 1;
            if let Err(e) = check_bitwise(
                &dense.data,
                &dense_sym.data,
                &format!("{}: symmetric expansion", entry.name),
            ) {
                report.failures.push(e);
            }
        }

        for (mi, &m) in ms.iter().enumerate() {
            let x = pseudo_multivec(
                entry.matrix.n_cols(),
                m,
                0x9e37_79b9 ^ ((ei as u64) << 32) ^ mi as u64,
            );
            let want = dense.gspmv(&x);

            // name → (group key, output) for the group check below.
            let mut group_outputs: HashMap<String, (String, Vec<f64>)> =
                HashMap::new();

            for backend in backends {
                if !backend.supports(entry) || !backend.wants_m(m) {
                    continue;
                }
                let ctx = format!("{} m={} {}", entry.name, m, backend.name());

                let y = backend.run(entry, &x);
                report.checks += 1;
                if let Err(e) =
                    tol.check_slices(want.as_slice(), y.as_slice(), &ctx)
                {
                    report.failures.push(e);
                }

                // Determinism: a second run must be bit-identical.
                let y2 = backend.run(entry, &x);
                report.checks += 1;
                if let Err(e) = check_bitwise(
                    y.as_slice(),
                    y2.as_slice(),
                    &format!("{ctx}: repeated run"),
                ) {
                    report.failures.push(e);
                }

                if let Some(group) = backend.bitwise_group() {
                    match group_outputs.get(&group) {
                        None => {
                            group_outputs.insert(
                                group.clone(),
                                (backend.name(), y.as_slice().to_vec()),
                            );
                        }
                        Some((first_name, first)) => {
                            report.checks += 1;
                            if let Err(e) = check_bitwise(
                                first,
                                y.as_slice(),
                                &format!(
                                    "{ctx}: bitwise group `{group}` vs {first_name}"
                                ),
                            ) {
                                report.failures.push(e);
                            }
                        }
                    }
                }
            }
        }
    }

    report
}

/// Convenience wrapper: standard backends over the standard corpus.
pub fn run_standard(scale: Scale) -> Report {
    run_differential(
        &crate::backends::standard_backends(),
        &crate::corpus::corpus(scale),
        &crate::corpus::m_values(scale),
        &TolModel::KERNEL,
    )
}

/// The nonsymmetric differential: GSPMV and block-BiCGStab checks over
/// [`crate::corpus::nonsym_corpus`].
///
/// This cannot ride on [`run_differential`]: the nonsym corpus
/// entries carry no symmetric half-storage (there is nothing symmetric
/// to store), and the solver leg compares *iterative solutions* against
/// a direct dense solve rather than products against a dense product.
///
/// Per entry the runner checks:
///
/// * **GSPMV** (every `m` in the standard grid, every available
///   [`mrhs_sparse::KernelKind`]) — serial kernel vs. the dense reference under
///   [`TolModel::KERNEL`], repeated-run bitwise, and forced-chunk
///   full-storage sweeps bitwise against serial (the determinism
///   contract does not care that the operator is nonsymmetric);
/// * **solver** (the trimmed `NONSYM_SOLVER_MS` grid) — honest
///   bookkeeping via
///   [`crate::invariants::check_block_bookkeeping`] always,
///   plus repeated-run bitwise determinism; on well-conditioned entries
///   additionally convergence, agreement with a direct dense solve
///   under [`TolModel::NONSYM_SOLVER`], and agreement with the naive
///   dense block reference. Near-breakdown entries are only required to
///   report an honest outcome (converged, breakdown, or iteration cap)
///   — never a silent wrong answer. Direct-solve comparisons are
///   skipped above `NONSYM_DIRECT_LIMIT` rows, where the recomputed
///   true-residual gate inside the bookkeeping check stands in for the
///   O(n³) reference.
pub fn run_nonsym_differential(scale: Scale) -> Report {
    use crate::corpus::nonsym_corpus;
    use crate::invariants::check_block_bookkeeping;
    use crate::reference::{gauss_solve_multi, naive_block_bicgstab};
    use mrhs_solvers::{block_bicgstab, SolveConfig};
    use mrhs_sparse::{
        backend_available, gspmv_on, Backend, KernelKind, MultiVec, Schedule,
    };

    let entries = nonsym_corpus(scale);
    let ms = crate::corpus::m_values(scale);
    let kernel_tol = TolModel::KERNEL;
    let solver_tol = TolModel::NONSYM_SOLVER;
    let mut report = Report::default();

    for (ei, entry) in entries.iter().enumerate() {
        let a = &entry.matrix;
        let n = a.n_rows();
        let dense = Dense::from_bcrs(a);

        // ---- GSPMV leg -------------------------------------------------
        for (mi, &m) in ms.iter().enumerate() {
            let x = pseudo_multivec(
                a.n_cols(),
                m,
                0x6e6f_6e73_796d_0001 ^ ((ei as u64) << 32) ^ mi as u64,
            );
            let want = dense.gspmv(&x);
            for kind in KernelKind::ALL {
                if !backend_available(kind) {
                    continue;
                }
                let ctx = format!("nonsym {} m={m} {kind:?}", entry.name);
                let backend = Backend::forced(kind);

                let mut y = MultiVec::zeros(n, m);
                gspmv_on(backend, a, &x, &mut y, Schedule::Serial);
                report.checks += 1;
                if let Err(e) =
                    kernel_tol.check_slices(want.as_slice(), y.as_slice(), &ctx)
                {
                    report.failures.push(e);
                }

                let mut y2 = MultiVec::zeros(n, m);
                gspmv_on(backend, a, &x, &mut y2, Schedule::Serial);
                report.checks += 1;
                if let Err(e) = check_bitwise(
                    y.as_slice(),
                    y2.as_slice(),
                    &format!("{ctx}: repeated run"),
                ) {
                    report.failures.push(e);
                }

                // Full-storage chunked sweeps keep per-row summation
                // order, so any chunk count is bitwise-equal to serial.
                for nchunks in [2, 3, 7] {
                    let mut yc = MultiVec::zeros(n, m);
                    gspmv_on(backend, a, &x, &mut yc, Schedule::Chunked(nchunks));
                    report.checks += 1;
                    if let Err(e) = check_bitwise(
                        y.as_slice(),
                        yc.as_slice(),
                        &format!("{ctx}: {nchunks}-chunk vs serial"),
                    ) {
                        report.failures.push(e);
                    }
                }
            }
        }

        // ---- solver leg ------------------------------------------------
        for (mi, &m) in NONSYM_SOLVER_MS.iter().enumerate() {
            let b = pseudo_multivec(
                n,
                m,
                0x6e6f_6e73_796d_0002 ^ ((ei as u64) << 32) ^ mi as u64,
            );
            // A block width approaching the operator dimension saturates
            // the block Krylov space within an iteration or two — the
            // rank-deficient `R̃ᵀV` breakdown is then the *correct*
            // outcome, so those cells are judged like the near-breakdown
            // entries: honest reporting, not convergence.
            let stress = entry.near_breakdown || 3 * m > n;
            let direct = if stress || n > NONSYM_DIRECT_LIMIT {
                None
            } else {
                gauss_solve_multi(&dense, &b)
            };

            let ctx = format!("nonsym {} m={m}", entry.name);
            let cfg = SolveConfig { tol: 1e-10, max_iter: 4000 };
            let mut x = MultiVec::zeros(n, m);
            let result = block_bicgstab(a, &b, &mut x, &cfg);

            // Bookkeeping must be honest on every entry, breakdown
            // stress cases included.
            report.checks += 1;
            if let Err(e) = check_block_bookkeeping(
                &dense, &b, &x, cfg.tol, 1e-7, 1e-5, &result,
            ) {
                report.failures.push(format!("{ctx}: bookkeeping: {e}"));
            }

            // Determinism: the whole solve is bitwise repeatable.
            let mut x2 = MultiVec::zeros(n, m);
            let result2 = block_bicgstab(a, &b, &mut x2, &cfg);
            report.checks += 1;
            if let Err(e) = check_bitwise(
                x.as_slice(),
                x2.as_slice(),
                &format!("{ctx}: repeated solve"),
            ) {
                report.failures.push(e);
            }
            report.checks += 1;
            if result.iterations != result2.iterations
                || result.converged != result2.converged
                || result.breakdown != result2.breakdown
            {
                report.failures.push(format!(
                    "{ctx}: repeated solve bookkeeping diverged: \
                     {:?}/{}/{:?} vs {:?}/{}/{:?}",
                    result.iterations,
                    result.converged,
                    result.breakdown,
                    result2.iterations,
                    result2.converged,
                    result2.breakdown,
                ));
            }

            if stress {
                // An honest outcome is: converged, a classified
                // breakdown, or the iteration cap — never a claim
                // of convergence the bookkeeping check above would
                // have caught.
                report.checks += 1;
                if !result.converged
                    && result.breakdown.is_none()
                    && result.iterations < cfg.max_iter
                {
                    report.failures.push(format!(
                        "{ctx}: stopped at {} of {} iterations with \
                         neither convergence nor a breakdown report",
                        result.iterations, cfg.max_iter,
                    ));
                }
                continue;
            }

            report.checks += 1;
            if !result.converged {
                report.failures.push(format!(
                    "{ctx}: failed to converge in {} iterations \
                     (breakdown {:?}, norms {:?})",
                    result.iterations, result.breakdown, result.residual_norms,
                ));
            }

            if let Some(direct) = &direct {
                if result.converged {
                    report.checks += 1;
                    if let Err(e) = solver_tol.check_slices(
                        direct.as_slice(),
                        x.as_slice(),
                        &format!("{ctx}: vs direct solve"),
                    ) {
                        report.failures.push(e);
                    }
                }

                // Naive dense block reference: same algorithm,
                // independent plain-loop implementation — both must
                // land on the direct solution.
                let mut xn = MultiVec::zeros(n, m);
                let naive = naive_block_bicgstab(&dense, &b, &mut xn, 1e-10, 4000);
                report.checks += 1;
                if !naive.converged {
                    report.failures.push(format!(
                        "nonsym {} m={m}: naive reference failed to \
                         converge in {} iterations",
                        entry.name, naive.iterations,
                    ));
                } else if let Err(e) = solver_tol.check_slices(
                    direct.as_slice(),
                    xn.as_slice(),
                    &format!("nonsym {} m={m}: naive vs direct", entry.name),
                ) {
                    report.failures.push(e);
                }
            }
        }
    }

    report
}
