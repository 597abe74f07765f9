#![allow(clippy::needless_range_loop)] // index loops mirror the paper: i/j/k are matrix and coordinate indices

//! Stokesian dynamics substrate.
//!
//! Implements the application the paper studies (§II, §V): spherical
//! particles of varying radii in a periodic box, dominated by
//! short-range lubrication forces, advanced by an explicit midpoint
//! scheme with Brownian noise.
//!
//! The resistance matrix follows the paper's sparse approximation
//! (Torres & Gilbert): `R = μ_F·D + R_lub`, where `D` carries the
//! per-particle Stokes drag `6πη·a_i`, `μ_F` is a volume-fraction
//! dependent far-field effective viscosity, and `R_lub` holds pairwise
//! near-field lubrication blocks in the relative-motion (collective
//! motion projected out) form, which keeps `R` symmetric positive
//! definite by construction.
//!
//! Modules:
//! * [`particle`] — particle configurations, periodic boxes, and the
//!   E. coli cytoplasm radii distribution of Table IV;
//! * [`packing`] — random sequential addition and overlap-relaxation
//!   packing generators up to 50% volume occupancy;
//! * [`cell_list`] — linked-cell neighbor search;
//! * [`lubrication`] — Jeffrey–Onishi near-field resistance scalars and
//!   pair blocks for unequal spheres;
//! * [`resistance`] — assembly of `R` as a BCRS matrix: a held
//!   candidate pair list (symbolic) refilled with values (numeric);
//! * [`system`] — [`StokesianSystem`], the
//!   [`mrhs_core::ResistanceSystem`] implementation driving the
//!   experiments, plus [`system::GaussianNoise`].

pub mod cell_list;
pub mod forces;
pub mod lubrication;
pub mod packing;
pub mod particle;
pub mod resistance;
pub mod system;

pub use forces::{chain_bonds, HarmonicBond};
pub use particle::{ecoli_radii_distribution, ParticleSystem};
pub use resistance::{assemble_resistance, ResistanceConfig};
pub use system::{GaussianNoise, StokesianSystem, SystemBuilder};
