//! Performance models of GSPMV and of the MRHS algorithm.
//!
//! Implements the paper's §IV-B single-node model (Eq. 8): the time of a
//! GSPMV with `m` vectors is the maximum of a bandwidth bound (matrix
//! and vector traffic over achievable bandwidth `B`) and a compute bound
//! (block flops over achievable kernel rate `F`), and its §V-B3 model of
//! the MRHS per-step time (Eq. 9, 11, 12), whose minimizer sits near the
//! bandwidth→compute switch point `m_s`.
//!
//! * [`machine`] — machine parameter sets: the paper's WSM and SNB
//!   processors, their cluster node, and host-calibrated profiles;
//! * [`model`] — Eq. 8, `m_s`, and the Fig. 1 profile grid;
//! * [`measure`] — host probes: STREAM-like bandwidth, basic-kernel
//!   flop rate, and measured relative-time curves `r(m)`;
//! * [`mrhs_model`] — Eq. 9/11/12, predicted `m_optimal`, and the same
//!   Eq. 9 minimized over a *measured* cost curve;
//! * [`bicgstab_model`] — the Eq. 8-style per-iteration cost of block
//!   BiCGStab (two GSPMVs plus dense `n·m²` Gram/update sweeps), whose
//!   per-column minimizer picks coalescing widths for nonsymmetric
//!   tenants of the solve service.

pub mod bicgstab_model;
pub mod machine;
pub mod measure;
pub mod model;
pub mod mrhs_model;

pub use bicgstab_model::BicgstabModel;
pub use machine::MachineProfile;
pub use model::{GspmvModel, SA_BYTES, SX_BYTES};
pub use mrhs_model::MrhsModel;
