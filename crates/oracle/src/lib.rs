//! Differential oracle harness — the one conformance layer every GSPMV
//! backend and solver in this workspace must agree with.
//!
//! The workspace now has four ways to compute `Y = R·X` (serial
//! full-storage, parallel full-storage, symmetric half-storage, and
//! the distributed engine) and three solver paths on
//! top of them. Before this crate each of them validated itself with
//! its own hand-rolled dense helper; kernel variants are known to
//! drift apart numerically in exactly the `m`/layout corners the
//! kernels specialize on, so the references are centralized here and
//! every backend is run through one differential gate:
//!
//! * [`mod@reference`] — naive, obviously-correct dense implementations
//!   (triple-loop GSPMV, Gaussian elimination, textbook block CG, a
//!   Jacobi eigensolver for `√R·z`, and a dense MRHS chunk step).
//!   Nothing in this module is unrolled, strip-mined, or threaded.
//! * [`tolerance`] — the single relative/ULP comparison model used by
//!   every check, instead of per-test ad-hoc epsilons.
//! * [`mod@corpus`] — deterministic seeded generators for the pathological
//!   matrix corpus: empty rows, dense block rows, 1×1 and single-block
//!   matrices, `nb < p`, non-symmetric perturbations of SPD matrices —
//!   plus the genuinely nonsymmetric arm ([`corpus::nonsym_corpus`]):
//!   convection–diffusion stencils, skew perturbations of the SPD
//!   corpus, and near-breakdown skew-dominant operators that gate the
//!   block-BiCGStab path.
//! * [`backends`] — the registry of GSPMV implementations under test,
//!   each normalized to "multivector in, multivector out, original row
//!   ordering".
//! * [`runner`] — executes every registered backend over the full
//!   corpus × `m` grid, checking agreement with the dense reference,
//!   repeated-run bitwise determinism, and bitwise agreement inside
//!   declared equivalence groups.
//! * [`invariants`] — structural checks: symmetry residuals of
//!   assembled resistance matrices and block-CG bookkeeping
//!   consistency (reported residuals vs. recomputed ones, breakdown
//!   reporting, A-norm error monotonicity).
//! * [`fixtures`] — small synthetic [`mrhs_core::ResistanceSystem`]s
//!   for end-to-end driver differentials.
//!
//! The integration suites of `sparse`, `solvers`, `cluster`, and
//! `stokes` consume these references as dev-dependencies, so a new
//! kernel registers here once and is covered everywhere. See DESIGN.md
//! §11 for the testing-strategy overview.

pub mod backends;
pub mod corpus;
pub mod fixtures;
pub mod invariants;
pub mod reference;
pub mod runner;
pub mod tolerance;

pub use backends::{standard_backends, GspmvBackend};
pub use corpus::{
    corpus, m_values, nonsym_corpus, pseudo_multivec, CorpusEntry, NonsymEntry,
    Scale,
};
pub use invariants::check_block_bookkeeping;
pub use reference::{
    naive_bicgstab, naive_block_bicgstab, Dense, NaiveBicgstab, NaiveBlockBicgstab,
};
pub use runner::{run_differential, run_nonsym_differential, run_standard, Report};
pub use tolerance::TolModel;
