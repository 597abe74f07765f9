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
