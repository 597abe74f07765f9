//! A request-coalescing block-solve server.
//!
//! The paper's central observation (Eq. 8) is that a GSPMV with `m`
//! right-hand sides costs about twice one RHS up to the
//! bandwidth→compute switch point `m_s`, because the matrix is streamed
//! from memory once regardless of `m`. Algorithm 2 exploits this by
//! *manufacturing* a batch out of future time steps of one simulation.
//! This crate exploits it the other way around, the way an inference
//! stack does: many independent clients each submit a single-RHS (or
//! small multi-RHS) solve against a *shared* registered matrix, and the
//! server coalesces whatever is pending into one block-CG solve whose
//! width targets `m_s` (continuous batching).
//!
//! The moving parts:
//!
//! * [`MatrixRegistry`] — prepared operators (full BCRS or any boxed
//!   [`LinearOperator`] such as a cluster `DistEngine`) keyed by an
//!   opaque [`MatrixHandle`];
//! * `Batcher` ([`batcher`]) — a bounded FIFO of pending requests with a
//!   linger/deadline drain policy and backpressure
//!   ([`SubmitError::QueueFull`] carries a `retry_after` hint);
//! * [`SolveService`] — worker threads that gather pending right-hand
//!   sides into a `MultiVec`, run block CG (block BiCGStab for general
//!   operators) with per-column tolerances, and scatter solutions back
//!   to per-request [`Ticket`]s;
//! * solo-retry failure isolation: a column that fails inside a batch
//!   (breakdown, non-convergence, a poisoned NaN right-hand side) is
//!   retried alone — the batch's own solver call at width 1 — before
//!   the request is failed, so one pathological RHS cannot take down
//!   its batchmates.
//!
//! [`LinearOperator`]: mrhs_solvers::LinearOperator

pub mod batcher;
pub mod fleet;
pub mod registry;
pub mod request;
pub mod server;

pub use batcher::{BatchPolicy, DispatchCause, DropStats};
pub use fleet::{
    FleetConfig, FleetHandle, FleetService, FleetStats, Placement,
    PlacementDecision,
};
pub use registry::{MatrixHandle, MatrixRegistry, OperatorClass, PreparedMatrix};
pub use request::{RequestOptions, SolveError, SolveOutput, SubmitError, Ticket};
pub use server::{model_batch_width, ServiceConfig, ServiceStats, SolveService};
