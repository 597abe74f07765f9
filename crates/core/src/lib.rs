//! The MRHS algorithm — the paper's primary contribution.
//!
//! A Stokesian-dynamics (or similar) simulation solves, at every time
//! step, one linear system `R(r_k)·u_k = −f_B(k)` whose right-hand side
//! is fresh random noise — so no initial guess seems available. The MRHS
//! algorithm (paper Alg. 2) manufactures guesses anyway: at the head of
//! every chunk of `m` steps it solves ONE auxiliary system
//!
//! ```text
//!     R_0 · [u_0, u'_1, …, u'_{m−1}] = S(R_0) · [z_0, z_1, …, z_{m−1}]
//! ```
//!
//! with the *future* noise vectors as extra right-hand sides, using a
//! block iterative method whose per-iteration cost is one GSPMV — nearly
//! the cost of a single SPMV. Because `R(r)` drifts only as √t, the
//! columns `u'_k` are good initial guesses for the later steps, cutting
//! their iteration counts by 30–40%.
//!
//! The crate is generic over [`ResistanceSystem`] (implemented by
//! `mrhs-stokes` for the real application and by simple synthetic
//! systems in tests) and over [`NoiseSource`].
//!
//! * [`algorithm`] — the chunked MRHS driver and the original
//!   (Algorithm 1) baseline; each phase of a step (the rows of the
//!   paper's Tables VI/VII) is a `mrhs/*` telemetry span.
//! * [`brownian`] — the Brownian factor both drivers draw their noise
//!   through: a Chebyshev square root on the block-Jacobi-scaled
//!   matrix, its interval bracketing the spectrum, its order derived
//!   from the matrix.
//!
//! Choosing `m` from a measured GSPMV cost curve (paper Eq. 9) lives
//! with the rest of the step-time model in `mrhs_perfmodel::mrhs_model`.

pub mod algorithm;
pub mod brownian;
pub mod system;

pub use algorithm::{
    run_mrhs_chunk, run_original_step, ChunkReport, MrhsConfig, StepStats,
};
pub use brownian::{BrownianFactor, BOUNDS_MARGIN, LANCZOS_STEPS};
pub use system::{NoiseSource, ResistanceSystem};

/// The telemetry registry the drivers record into, re-exported so that
/// [`ResistanceSystem`] implementations count under the same switch
/// without a manifest edge of their own.
///
/// Stop-gap: `mrhs-stokes` reaches the registry through here because
/// `benchmark/Cargo.lock` pins that crate's dependency list and the
/// benchmark builds `--locked`, so declaring `mrhs-telemetry` in its
/// manifest needs a lockfile refresh under `benchmark/`. Once a
/// benchmark-only change has done that, give stokes the direct
/// dependency and drop this re-export (ROADMAP item 1(a)).
pub use mrhs_telemetry as telemetry;
