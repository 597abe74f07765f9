//! Request, ticket, and completion types for the solve service.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mrhs_sparse::MultiVec;

/// Per-request knobs supplied at submit time.
#[derive(Clone, Debug, Default)]
pub struct RequestOptions {
    /// Relative stopping tolerance for this request's columns, finite
    /// and positive. `None` uses `SolveConfig::default().tol` (1e-6).
    /// The batcher feeds these through
    /// `BlockSolveOptions::column_tols`, so each coalesced request keeps
    /// its own stopping criterion.
    pub tol: Option<f64>,
    /// Queueing deadline relative to submission. A request still queued
    /// when its deadline passes fails with
    /// [`SolveError::DeadlineExceeded`] instead of being solved; a
    /// request already dispatched runs to completion.
    pub deadline: Option<Duration>,
}

/// A finished solve, scattered back out of the coalesced block solve.
#[derive(Clone, Debug)]
pub struct SolveOutput {
    /// Solution columns, one per requested right-hand side.
    pub solution: MultiVec,
    /// Block iterations this request effectively paid for (the worst of
    /// its columns' `column_iterations`, or the solo-retry count).
    pub iterations: usize,
    /// Width of the coalesced batch this request rode in.
    pub batch_width: usize,
    /// Whether any of this request's columns needed the solo-retry path
    /// after the batched solve failed for them.
    pub solo_retried: bool,
    /// Time spent queued before dispatch.
    pub queue_wait: Duration,
    /// Time inside the block (plus any solo-retry) solve.
    pub solve_time: Duration,
    /// End-to-end latency: submission to completion.
    pub latency: Duration,
    /// Trace id minted at ingress when tracing was enabled
    /// (`MRHS_TRACE=1`); correlates this request with its span tree in
    /// the trace buffer and any flight-recorder dump. `None` when
    /// tracing was off at submit time.
    pub trace_id: Option<u64>,
}

/// Why a submitted request failed.
#[derive(Clone, Debug, PartialEq)]
pub enum SolveError {
    /// Still queued when the per-request deadline passed.
    DeadlineExceeded {
        /// How long the request had been queued when it was expired.
        waited: Duration,
    },
    /// The batched solve failed for this request's columns and the solo
    /// retry did not converge either.
    DidNotConverge {
        /// Worst relative residual over the request's columns.
        relative_residual: f64,
        /// Iterations spent in the failing solo retry.
        iterations: usize,
    },
    /// The matrix was unregistered while the request was still queued
    /// (the distinct drop cause behind `service/drop/unregistered`).
    /// Requests already dispatched in a batch run to completion instead.
    MatrixUnregistered,
    /// The service was shut down before the request was dispatched.
    Shutdown,
}

/// Why a request was rejected at submit time (never enqueued).
#[derive(Clone, Debug, PartialEq)]
pub enum SubmitError {
    /// The bounded queue is full. `retry_after` estimates when capacity
    /// frees up (one batch solve from now, by recent measurement).
    QueueFull { retry_after: Duration },
    /// The handle is not registered (or was unregistered).
    UnknownMatrix,
    /// Right-hand-side rows do not match the registered matrix.
    ShapeMismatch { expected: usize, got: usize },
    /// The request can never be served: it has no columns, more columns
    /// than the queue holds, or a tolerance that is NaN, infinite or
    /// not positive. Not counted as a drop.
    InvalidRequest { reason: &'static str },
    /// The service is shutting down.
    ShuttingDown,
}

/// One-shot, set-exactly-once completion cell shared between the worker
/// that finishes a request and the client blocked on its [`Ticket`].
pub(crate) struct Completion {
    state: Mutex<Option<Result<SolveOutput, SolveError>>>,
    cv: Condvar,
}

impl Completion {
    pub(crate) fn new() -> Self {
        Completion { state: Mutex::new(None), cv: Condvar::new() }
    }

    /// Fulfills the completion. Panics if called twice — a lost or
    /// duplicated completion is a batcher bug, and the stress test
    /// leans on this panic to detect one.
    pub(crate) fn complete(&self, r: Result<SolveOutput, SolveError>) {
        let mut st = self.state.lock().unwrap();
        assert!(st.is_none(), "request completed twice");
        *st = Some(r);
        self.cv.notify_all();
    }
}

/// Client-side handle to one submitted request.
pub struct Ticket {
    pub(crate) shared: Arc<Completion>,
    pub(crate) submitted: Instant,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("submitted", &self.submitted)
            .finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the request finishes (solved, failed, or expired).
    pub fn wait(self) -> Result<SolveOutput, SolveError> {
        let mut st = self.shared.state.lock().unwrap();
        loop {
            if let Some(r) = st.take() {
                return r;
            }
            st = self.shared.cv.wait(st).unwrap();
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<SolveOutput, SolveError>> {
        self.shared.state.lock().unwrap().take()
    }

    /// When the request was accepted.
    pub fn submitted_at(&self) -> Instant {
        self.submitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ticket_wait_blocks_until_completion() {
        let shared = Arc::new(Completion::new());
        let ticket = Ticket { shared: shared.clone(), submitted: Instant::now() };
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            shared.complete(Err(SolveError::Shutdown));
        });
        assert_eq!(ticket.wait().unwrap_err(), SolveError::Shutdown);
        t.join().unwrap();
    }

    #[test]
    fn try_wait_returns_none_while_pending() {
        let shared = Arc::new(Completion::new());
        let ticket = Ticket { shared: shared.clone(), submitted: Instant::now() };
        assert!(ticket.try_wait().is_none());
        shared.complete(Err(SolveError::Shutdown));
        assert!(ticket.try_wait().is_some());
    }

    #[test]
    #[should_panic(expected = "completed twice")]
    fn double_completion_panics() {
        let c = Completion::new();
        c.complete(Err(SolveError::Shutdown));
        c.complete(Err(SolveError::Shutdown));
    }
}
