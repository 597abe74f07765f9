//! Hang guard for threaded tests.
//!
//! The halo-exchange executors block on channel receives; a plan bug
//! (wrong expected-message count) turns into a deadlock, and a
//! deadlocked test *stalls* CI instead of failing it. Threaded tests in
//! this crate therefore run their bodies under [`with_deadline`], which
//! converts "still blocked after the deadline" into a loud panic.

use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// Runs `f` on a helper thread and panics if it has not finished within
/// `deadline`. Panics inside `f` are propagated. On timeout the hung
/// thread is leaked (it is blocked for good — that is the bug being
/// reported), which is acceptable in a test process.
pub fn with_deadline<T, F>(deadline: Duration, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(deadline) {
        Ok(v) => {
            handle.join().expect("watchdog worker");
            v
        }
        Err(RecvTimeoutError::Disconnected) => match handle.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(()) => panic!("watchdog worker vanished without a result"),
        },
        Err(RecvTimeoutError::Timeout) => panic!(
            "watchdog: work still blocked after {deadline:?} — likely deadlock"
        ),
    }
}

/// [`with_deadline`] under the crate's one test lock. The telemetry
/// registry is process-global, so a unit test that enables it and diffs
/// a snapshot reads the increments of every test running beside it.
/// Tests that assert on such a diff take this, and so does every
/// sibling that bumps the counters they read (`engine/multiplies`:
/// every unit test that multiplies on an engine). The wait for the
/// lock is outside the deadline.
#[cfg(test)]
pub(crate) fn with_deadline_serial<T, F>(deadline: Duration, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    static TELEMETRY_TESTS: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // The lock guards no data, so a holder that panicked (a failed
    // assertion) leaves nothing to repair.
    let _guard = TELEMETRY_TESTS.lock().unwrap_or_else(|e| e.into_inner());
    with_deadline(deadline, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_results_through() {
        let v = with_deadline(Duration::from_secs(5), || 41 + 1);
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "likely deadlock")]
    fn flags_a_hang() {
        let (_tx, rx) = channel::<()>();
        with_deadline(Duration::from_millis(50), move || {
            let _ = rx.recv(); // blocks forever: _tx is kept alive above
        });
    }

    #[test]
    #[should_panic(expected = "inner failure")]
    fn propagates_panics() {
        with_deadline(Duration::from_secs(5), || panic!("inner failure"));
    }
}
