//! The bench-owned verifier and the operator wrapper.
//!
//! A solution is accepted when its *true* residual — recomputed here
//! with the benchmark's own block SpMV over its own copy of the matrix,
//! never the solver's recurrence residual and never a repo kernel — is
//! at most `10·tol·‖b‖` per column. The factor 10 separates "converged"
//! from "wrong" without tripping on the gap between recurrence and true
//! residual that Krylov solvers accumulate.

use std::sync::Mutex;
use std::time::Instant;

use mrhs_solvers::LinearOperator;
use mrhs_sparse::{BcrsMatrix, BlockTripletBuilder, MultiVec};
use mrhs_stokes::{assemble_resistance, ParticleSystem, ResistanceConfig};

use crate::util::Rng;

/// How far above `tol·‖b‖` a true residual may sit.
pub const RESIDUAL_SLACK: f64 = 10.0;

/// The benchmark's own copy of a matrix: row pointers, block columns
/// and row-major 3×3 values, read out of a [`BcrsMatrix`] once.
pub struct CheckMatrix {
    row_ptr: Vec<usize>,
    col: Vec<u32>,
    val: Vec<[f64; 9]>,
}

impl CheckMatrix {
    pub fn new(a: &BcrsMatrix) -> Self {
        let val = a
            .blocks()
            .iter()
            .map(|b| {
                let mut v = [0.0; 9];
                for (k, x) in v.iter_mut().enumerate() {
                    *x = b.get(k / 3, k % 3);
                }
                v
            })
            .collect();
        CheckMatrix {
            row_ptr: a.row_ptr().to_vec(),
            col: a.col_idx().to_vec(),
            val,
        }
    }

    pub fn dim(&self) -> usize {
        3 * (self.row_ptr.len() - 1)
    }

    pub fn blocks(&self) -> usize {
        self.val.len()
    }

    /// `y = A·x`, plain scalar loops.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        for i in 0..self.row_ptr.len() - 1 {
            let mut acc = [0.0f64; 3];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                let (b, j) = (&self.val[k], 3 * self.col[k] as usize);
                for r in 0..3 {
                    acc[r] += b[3 * r] * x[j]
                        + b[3 * r + 1] * x[j + 1]
                        + b[3 * r + 2] * x[j + 2];
                }
            }
            y[3 * i..3 * i + 3].copy_from_slice(&acc);
        }
    }

    /// `‖b − A·x‖ ÷ ‖b‖` (∞ when anything is not finite).
    pub fn relative_residual(&self, x: &[f64], b: &[f64]) -> f64 {
        let mut ax = vec![0.0; self.dim()];
        self.spmv(x, &mut ax);
        let (mut r2, mut b2) = (0.0, 0.0);
        for (axi, bi) in ax.iter().zip(b) {
            r2 += (bi - axi) * (bi - axi);
            b2 += bi * bi;
        }
        let rel = (r2 / b2).sqrt();
        if rel.is_finite() {
            rel
        } else {
            f64::INFINITY
        }
    }

    /// Whether column `x` solves `A·x = b` to `tol` (with the slack).
    pub fn column_ok(&self, x: &[f64], b: &[f64], tol: f64) -> bool {
        self.relative_residual(x, b) <= RESIDUAL_SLACK * tol
    }

    /// Number of columns of `x` that fail the residual check.
    pub fn failed_columns(&self, x: &MultiVec, b: &MultiVec, tol: f64) -> usize {
        (0..x.m())
            .filter(|&j| !self.column_ok(&x.column(j), &b.column(j), tol))
            .count()
    }

    /// Largest absolute row sum — a cheap upper bound on the spectrum.
    pub fn norm_inf(&self) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.row_ptr.len() - 1 {
            let mut rows = [0.0f64; 3];
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                for (e, v) in self.val[k].iter().enumerate() {
                    rows[e / 3] += v.abs();
                }
            }
            worst = rows.iter().fold(worst, |w, r| w.max(*r));
        }
        worst
    }
}

/// A nonsymmetric operator with the pattern of SPD `a`: every stored
/// off-diagonal pair gets `+K` above and `−Kᵀ` below the diagonal, `K`
/// random with entries up to `eps` times the pair's largest entry. The
/// symmetric part stays `a`, so the field of values stays in the right
/// half plane and BiCGStab converges.
pub fn skew_perturbed(a: &BcrsMatrix, eps: f64, rng: &mut Rng) -> BcrsMatrix {
    let nb = a.nb_rows();
    let mut t = BlockTripletBuilder::square(nb);
    for i in 0..nb {
        let (cols, blocks) = a.block_row(i);
        for (c, b) in cols.iter().zip(blocks) {
            let j = *c as usize;
            t.add(i, j, *b);
            if j > i {
                let scale = eps * b.abs_sum() / 9.0;
                let mut k = *b;
                for e in 0..9 {
                    *k.get_mut(e / 3, e % 3) = scale * (2.0 * rng.unit() - 1.0);
                }
                t.add(i, j, k);
                t.add(j, i, -k.transpose());
            }
        }
    }
    t.build()
}

/// Gap floor of the resistance the general operators are made from.
const GENERAL_XI_MIN: f64 = 0.1;
/// Strength of their skew perturbation.
const GENERAL_SKEW: f64 = 0.1;

/// The nonsymmetric operator of a packing: its resistance assembled at
/// the gap floor `ξ_min = 0.1`, then skew-perturbed. At the default
/// `ξ_min = 1e-3` the near-contact pairs make the matrix so
/// ill-conditioned that block BiCGStab stagnates or diverges on some
/// seeds (true residuals from 1e-3 up to 1e6 were seen while this
/// benchmark was written), and a benchmark's workloads must be ones on
/// which no operation fails; at 0.1 it converges in the same ≈35
/// iterations on every seed tried.
pub fn general_operator(particles: &ParticleSystem, rng: &mut Rng) -> BcrsMatrix {
    let soft = ResistanceConfig { xi_min: GENERAL_XI_MIN, ..Default::default() };
    skew_perturbed(&assemble_resistance(particles, &soft), GENERAL_SKEW, rng)
}

/// `n×m` right-hand sides of standard normals.
pub fn normal_multivec(n: usize, m: usize, rng: &mut Rng) -> MultiVec {
    MultiVec::from_flat(n, m, rng.normals(n * m))
}

/// One operator application seen by [`TimedOperator`].
#[derive(Clone, Copy, Debug)]
pub struct Apply {
    pub width: usize,
    pub start: Instant,
    pub end: Instant,
}

/// Forwards to the wrapped operator and logs width and clock readings
/// of every application, so operator share and apply widths are
/// measured from outside the solver.
pub struct TimedOperator<'a, A: LinearOperator + ?Sized> {
    inner: &'a A,
    log: Mutex<Vec<Apply>>,
}

impl<'a, A: LinearOperator + ?Sized> TimedOperator<'a, A> {
    pub fn new(inner: &'a A) -> Self {
        TimedOperator { inner, log: Mutex::new(Vec::new()) }
    }

    /// Takes the applications logged since the last call.
    pub fn drain(&self) -> Vec<Apply> {
        std::mem::take(&mut *self.log.lock().expect("apply log poisoned"))
    }

    fn record(&self, width: usize, start: Instant) {
        let end = Instant::now();
        self.log.lock().expect("apply log poisoned").push(Apply {
            width,
            start,
            end,
        });
    }
}

impl<A: LinearOperator + ?Sized> LinearOperator for TimedOperator<'_, A> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t = Instant::now();
        self.inner.apply(x, y);
        self.record(1, t);
    }

    fn apply_multi(&self, x: &MultiVec, y: &mut MultiVec) {
        let t = Instant::now();
        self.inner.apply_multi(x, y);
        self.record(x.m(), t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrhs_sparse::Block3;

    fn small() -> BcrsMatrix {
        let mut t = BlockTripletBuilder::square(4);
        for i in 0..4 {
            t.add(i, i, Block3::scaled_identity(4.0));
            if i + 1 < 4 {
                t.add(i, i + 1, Block3::scaled_identity(-1.0));
                t.add(i + 1, i, Block3::scaled_identity(-1.0));
            }
        }
        t.build()
    }

    #[test]
    fn own_spmv_agrees_with_the_repo_operator() {
        let a = small();
        let c = CheckMatrix::new(&a);
        let x: Vec<f64> = (0..12).map(|i| i as f64 * 0.5 - 2.0).collect();
        let (mut y1, mut y2) = (vec![0.0; 12], vec![0.0; 12]);
        c.spmv(&x, &mut y1);
        a.apply(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn a_corrupted_or_non_finite_solution_fails_the_check() {
        let a = small();
        let c = CheckMatrix::new(&a);
        let x: Vec<f64> = (0..12).map(|i| 1.0 + i as f64).collect();
        let mut b = vec![0.0; 12];
        c.spmv(&x, &mut b);
        assert!(c.column_ok(&x, &b, 1e-6));
        let mut bad = x.clone();
        bad[5] *= 1.001;
        assert!(!c.column_ok(&bad, &b, 1e-6));
        bad[5] = f64::NAN;
        assert!(!c.column_ok(&bad, &b, 1e-6));
    }

    #[test]
    fn skew_perturbation_keeps_the_symmetric_part() {
        let a = small();
        let g = skew_perturbed(&a, 0.3, &mut Rng::new(1));
        assert_eq!(g.nnz_blocks(), a.nnz_blocks());
        assert!(!g.is_symmetric_within(1e-12));
        let (d, da) = (g.to_dense(), a.to_dense());
        for i in 0..12 {
            for j in 0..12 {
                let sym = 0.5 * (d[i * 12 + j] + d[j * 12 + i]);
                assert!((sym - da[i * 12 + j]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn timed_operator_logs_each_application() {
        let a = small();
        let t = TimedOperator::new(&a);
        let x = MultiVec::from_flat(12, 2, vec![1.0; 24]);
        let mut y = MultiVec::zeros(12, 2);
        t.apply_multi(&x, &mut y);
        t.apply(&[1.0; 12], &mut [0.0; 12]);
        let log = t.drain();
        assert_eq!(log.iter().map(|a| a.width).collect::<Vec<_>>(), vec![2, 1]);
        assert!(t.drain().is_empty());
    }
}
