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
//! * [`model`] — Eq. 8, `m_s`, the price of a block solver's dense
//!   `n·m²` sweeps, and the Fig. 1 profile grid;
//! * [`measure`] — host probes: STREAM-like bandwidth, basic-kernel
//!   flop rate, and measured relative-time curves `r(m)`;
//! * [`bicgstab_model`] — one block-BiCGStab iteration priced as its
//!   matrix streams (two Eq. 8 products, and under Gauss–Seidel two
//!   pairs of sweeps) plus its dense sweeps;
//! * [`mrhs_model`] — Eq. 9/11/12 and its one minimizer,
//!   [`mrhs_model::optimal_m`], over per-width step times priced by
//!   the Eq. 8 model or by measurement.
//!
//! Every prediction elsewhere in the workspace composes these three:
//! [`GspmvModel::time`] (Eq. 8), `SolveCounts::{tmrhs_with_head,
//! toriginal}` (Eq. 9) and `optimal_m`.

pub mod bicgstab_model;
pub mod machine;
pub mod measure;
pub mod model;
pub mod mrhs_model;

pub use machine::MachineProfile;
pub use model::{GspmvModel, SA_BYTES, SX_BYTES};
pub use mrhs_model::MrhsModel;
