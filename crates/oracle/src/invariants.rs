//! Structural invariant checks: properties that must hold regardless
//! of which backend computed a result.

use crate::reference::Dense;
use crate::tolerance::TolModel;
use mrhs_solvers::BlockSolveResult;
use mrhs_sparse::{BcrsMatrix, MultiVec};

/// Worst-case `|a_ij − a_ji|` over the assembled matrix — zero for an
/// exactly symmetric assembly. Stokesian resistance matrices must stay
/// below the tolerance the solve service registers them at, or they
/// are classed general and served with block BiCGStab.
pub fn symmetry_residual(a: &BcrsMatrix) -> f64 {
    Dense::from_bcrs(a).symmetry_residual()
}

/// `‖x − x⋆‖_A = √((x − x⋆)ᵀ A (x − x⋆))` — the error norm CG is
/// guaranteed to decrease monotonically (the residual 2-norm is not).
pub fn a_norm_error(a: &Dense, x: &[f64], x_star: &[f64]) -> f64 {
    let e: Vec<f64> = x.iter().zip(x_star).map(|(u, v)| u - v).collect();
    let ae = a.matvec(&e);
    e.iter().zip(&ae).map(|(u, v)| u * v).sum::<f64>().max(0.0).sqrt()
}

/// Checks that a [`BlockSolveResult`] is internally consistent with
/// the system and solution it claims to describe:
///
/// * `residual_norms` match a recomputed `‖(B − A·X)_j‖` (so the
///   reported state is neither stale nor half-updated, including after
///   a breakdown — the breakdown paths either leave `X` at the last
///   completed iteration or apply the half step, never a torn state);
/// * `converged` agrees with the per-column thresholds
///   `tol·max(‖b_j‖, ε)`, and excludes a breakdown;
/// * `column_converged_at[j] ≤ iterations` whenever present;
/// * a reported breakdown at iteration `k` implies
///   `iterations ∈ {k − 1, k}` (the documented breakdown sites).
///
/// `a` is the dense expansion of the operator the solve ran against.
/// The recomputation reorders the same sums the solver did, and the
/// solver's residual is updated recursively, so a reported norm may sit
/// `rel_slack·‖b_j‖` from the recomputed one (1e-8 for block CG; 1e-7
/// for block BiCGStab, whose two update sweeps per iteration drift
/// more). On a *diverging* run (near-breakdown stress) the accumulated
/// drift also scales with how far the residual excursed, so
/// `excursion_slack` (0 for block CG, 1e-5 for block BiCGStab) allows
/// that fraction of the largest finite reported norm too — a stale or
/// torn state is off by whole update steps, i.e. O(1)·excursion, still
/// far outside either.
pub fn check_block_bookkeeping(
    a: &Dense,
    b: &MultiVec,
    x: &MultiVec,
    tol: f64,
    rel_slack: f64,
    excursion_slack: f64,
    result: &BlockSolveResult,
) -> Result<(), String> {
    let m = b.m();
    if result.residual_norms.len() != m || result.column_converged_at.len() != m {
        return Err(format!(
            "bookkeeping arrays sized {}/{} for m={m}",
            result.residual_norms.len(),
            result.column_converged_at.len(),
        ));
    }

    // Recompute the residual from scratch.
    let ax = a.gspmv(x);
    let mut norms = Vec::with_capacity(m);
    for j in 0..m {
        let mut acc = 0.0;
        for i in 0..b.n() {
            let r = b.get(i, j) - ax.get(i, j);
            acc += r * r;
        }
        norms.push(acc.sqrt());
    }

    let excursion = result
        .residual_norms
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    let model = TolModel { rel: rel_slack, floor: 1e-30, max_ulps: 1 << 20 };
    for (j, (want, got)) in norms.iter().zip(&result.residual_norms).enumerate() {
        if got.is_nan() && want.is_nan() {
            continue; // poisoned column: honest NaN, nothing to compare
        }
        let scale = b.column(j).iter().map(|v| v * v).sum::<f64>().sqrt();
        let ok = model.accepts(*want, *got)
            || (want - got).abs() <= rel_slack * scale.max(1e-30)
            || (want - got).abs() <= excursion_slack * excursion;
        if !ok {
            return Err(format!(
                "column {j}: reported residual {got} but recomputed {want}"
            ));
        }
    }

    let thresholds: Vec<f64> = (0..m)
        .map(|j| {
            let bn = b.column(j).iter().map(|v| v * v).sum::<f64>().sqrt();
            tol * bn.max(f64::MIN_POSITIVE)
        })
        .collect();
    // Judge `converged` from the *reported* norms (the recomputed ones
    // were already checked against them above).
    let all_met = result
        .residual_norms
        .iter()
        .zip(&thresholds)
        .all(|(rn, th)| rn <= &(th * (1.0 + 1e-12)));
    if result.converged && !all_met {
        return Err(format!(
            "claims converged but reported norms {:?} exceed thresholds {:?}",
            result.residual_norms, thresholds
        ));
    }

    for (j, conv) in result.column_converged_at.iter().enumerate() {
        if let Some(k) = conv {
            if *k > result.iterations {
                return Err(format!(
                    "column {j} converged at {k} > iterations {}",
                    result.iterations
                ));
            }
        }
    }
    if result.converged && result.column_converged_at.iter().any(Option::is_none) {
        return Err("claims converged with unconverged columns".into());
    }
    if result.converged && result.breakdown.is_some() {
        return Err(format!(
            "claims converged with breakdown {:?}",
            result.breakdown
        ));
    }

    if let Some(bd) = result.breakdown {
        if bd.iteration == 0 {
            return Err("breakdown at iteration 0 is impossible".into());
        }
        if result.iterations + 1 != bd.iteration
            && result.iterations != bd.iteration
        {
            return Err(format!(
                "breakdown at {} inconsistent with iterations {}",
                bd.iteration, result.iterations
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::{Block3, BlockTripletBuilder};

    #[test]
    fn symmetry_residual_detects_asymmetry() {
        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(1, 1, Block3::scaled_identity(2.0));
        let mut b = Block3::ZERO;
        *b.get_mut(0, 1) = 0.25;
        t.add(0, 1, b);
        let a = t.build();
        assert!((symmetry_residual(&a) - 0.25).abs() < 1e-15);

        let mut t = BlockTripletBuilder::square(2);
        t.add(0, 0, Block3::scaled_identity(2.0));
        t.add(1, 1, Block3::scaled_identity(2.0));
        t.add_symmetric_pair(0, 1, b);
        assert_eq!(symmetry_residual(&t.build()), 0.0);
    }

    #[test]
    fn a_norm_error_is_zero_at_solution() {
        let a = Dense { n_rows: 2, n_cols: 2, data: vec![2.0, 0.5, 0.5, 3.0] };
        let x = [1.0, -2.0];
        assert_eq!(a_norm_error(&a, &x, &x), 0.0);
        assert!(a_norm_error(&a, &x, &[1.0, -1.0]) > 0.5);
    }
}
