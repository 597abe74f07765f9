//! Distributed-memory GSPMV (paper §IV-A2, §IV-D3).
//!
//! The paper runs GSPMV on up to 64 InfiniBand-connected nodes. This
//! crate reproduces that system as a faithful in-process simulation:
//!
//! * **Real data movement.** [`distmat::DistributedMatrix`] partitions
//!   the matrix by rows, splits each node's blocks into a *local*
//!   sub-matrix (owned columns) and a *remote* sub-matrix (compact halo
//!   columns), and precomputes every node's send/receive plans once.
//!   [`engine::DistEngine`] runs the actual multiply with per-node
//!   threads that exchange *packed* halo messages ([`exchange`]) over
//!   channels — a node can only read its own rows plus what it
//!   received, exactly as an MPI rank would. Its node workers persist
//!   across multiplies, overlap the halo transfer with the local
//!   sub-matrix multiply and report per-node phase timings
//!   (`comm_wait`/`local`/`remote`); it implements `LinearOperator`
//!   in the partition's row ordering (`perm[new] = old`), so block CG
//!   runs distributed unchanged — and, on a contiguous partition,
//!   whose permutation is the identity, in the caller's own ordering
//!   (how the fleet serves its sharded operators).
//! * **Modeled time.** [`sim`] prices the same execution with the
//!   paper's machine and network constants: per-node compute from the
//!   Eq. 8 model (split into a local part overlapped with communication
//!   and a remote part that waits for the halo) and per-message
//!   `latency + bytes/bandwidth` costs. This regenerates Fig. 3/4 and
//!   Table III without owning 64 nodes. One method per quantity
//!   (`time`, `relative_time`, `comm_fraction`), each taking the factor
//!   that projects the partition to a larger problem (1.0 is the
//!   partition itself).
//! * **MRHS projection.** [`mrhs::project`] is not a model of its own:
//!   it feeds the [`sim`] `time` curve to `perfmodel`'s Eq. 9 and its
//!   one minimizer (`repro cluster-mrhs`).

pub mod distmat;
pub mod engine;
pub mod exchange;
pub mod mrhs;
pub mod network;
pub mod sim;
pub mod watchdog;

pub use distmat::DistributedMatrix;
pub use engine::{DistEngine, EngineStats, PhaseTimings};
pub use network::NetworkModel;
pub use sim::{ClusterGspmvModel, NodeTime};
