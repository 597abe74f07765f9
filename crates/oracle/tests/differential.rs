//! The differential gate: every registered GSPMV backend over the full
//! pathological corpus, against the naive dense reference.

use mrhs_cluster::watchdog::with_deadline;
use oracle::corpus::Scale;
use oracle::runner::{run_nonsym_differential, run_standard};
use std::time::Duration;

#[test]
fn all_backends_agree_on_small_corpus() {
    let report =
        with_deadline(Duration::from_secs(300), || run_standard(Scale::Small));
    // The corpus × m grid × backends matrix is large; make sure it
    // actually ran rather than vacuously passing.
    assert!(
        report.checks > 1000,
        "differential ran only {} checks — corpus or registry shrank",
        report.checks
    );
    report.assert_ok();
}

/// Nonsymmetric gate: GSPMV kernels and the block-BiCGStab solver over
/// the convection–diffusion / skew-perturbed corpus, against the dense
/// reference, direct solves, and the naive block-BiCGStab
/// implementation — including honest-outcome checks on the
/// near-breakdown entries.
#[test]
fn nonsym_suite_agrees_on_small_corpus() {
    let report = with_deadline(Duration::from_secs(300), || {
        run_nonsym_differential(Scale::Small)
    });
    assert!(
        report.checks > 800,
        "nonsym differential ran only {} checks — corpus or m grid shrank",
        report.checks
    );
    report.assert_ok();
}

/// The large-scale sweep crosses `PARALLEL_THRESHOLD`, so the auto
/// driver takes its chunked path for real.
/// Run by the scheduled CI job in release mode:
/// `cargo test -p oracle --release -- --ignored`.
#[test]
#[ignore = "large corpus: run with --release -- --ignored (scheduled CI)"]
fn all_backends_agree_on_large_corpus() {
    let report =
        with_deadline(Duration::from_secs(1800), || run_standard(Scale::Large));
    report.assert_ok();
}

/// Large nonsymmetric sweep: includes the over-threshold
/// convection–diffusion entry, so the solver's auto GSPMV path runs its
/// chunked parallel kernels for real. Scheduled CI, release mode.
#[test]
#[ignore = "large corpus: run with --release -- --ignored (scheduled CI)"]
fn nonsym_suite_agrees_on_large_corpus() {
    let report = with_deadline(Duration::from_secs(1800), || {
        run_nonsym_differential(Scale::Large)
    });
    report.assert_ok();
}
