//! Physical invariants of assembled Stokesian resistance matrices,
//! checked through the oracle's dense references: exact symmetry (the
//! assembly is built from symmetric pair contributions, so the residual
//! must be zero, not merely small) and positive definiteness (via the
//! Jacobi eigensolver, independent of the workspace's Lanczos bounds).

use mrhs_stokes::packing::pack_ecoli;
use mrhs_stokes::{assemble_resistance, ResistanceConfig};
use oracle::invariants::symmetry_residual;
use oracle::reference::{jacobi_eigh, Dense};

#[test]
fn resistance_matrix_is_exactly_symmetric() {
    for seed in [1u64, 7, 42] {
        let system = pack_ecoli(18, 0.12, seed);
        let r = assemble_resistance(&system, &ResistanceConfig::default());
        let res = symmetry_residual(&r);
        assert_eq!(
            res, 0.0,
            "seed {seed}: assembled resistance has symmetry residual {res}"
        );
    }
}

#[test]
fn resistance_matrix_is_positive_definite() {
    let system = pack_ecoli(16, 0.15, 3);
    let r = assemble_resistance(&system, &ResistanceConfig::default());
    let dense = Dense::from_bcrs(&r);
    let (eigvals, _) = jacobi_eigh(&dense);

    let min = eigvals.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = eigvals.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        min > 0.0,
        "resistance matrix has non-positive eigenvalue {min} (max {max})"
    );
    // Drag-dominated matrices stay well conditioned; a collapse here
    // means the lubrication floor (xi_min) stopped working.
    assert!(
        max / min < 1e8,
        "condition number {:.2e} suspiciously large",
        max / min
    );
}

/// `SymmetricBcrs::from_full` must accept real assemblies at the
/// tolerance the benchmark converts them with. Pin that: conversion
/// succeeds, and its independent dense expansion is bit-identical to
/// the full expansion.
#[test]
fn resistance_matrix_admits_symmetric_storage() {
    let system = pack_ecoli(14, 0.1, 9);
    let r = assemble_resistance(&system, &ResistanceConfig::default());
    let s = mrhs_sparse::SymmetricBcrs::from_full(&r, 1e-10)
        .expect("resistance must convert to symmetric storage");
    let full = Dense::from_bcrs(&r);
    let half = Dense::from_symmetric(&s);
    oracle::tolerance::assert_bitwise(
        &full.data,
        &half.data,
        "symmetric expansion of assembled resistance",
    );
}
