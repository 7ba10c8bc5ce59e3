//! SIGTERM / SIGINT → shutdown flag, with no external crates.
//!
//! `std` exposes no signal API, so on Unix this registers a handler via
//! libc's `signal(2)`, declared in an `extern "C"` block as
//! [`crate::poll`] declares `epoll`. Those two modules are the crate's
//! only FFI and its only exceptions to the `unsafe` ban (the crate root
//! carries `deny(unsafe_code)`; this module opts back in for two calls).
//! The handler body only stores to a static atomic, which is async-signal-
//! safe. Non-Unix builds compile to a no-op installer; programmatic
//! shutdown (the server's own flag) still works everywhere.

use std::sync::atomic::{AtomicBool, Ordering};

/// Set by the signal handler on SIGTERM/SIGINT. The server's accept loop
/// polls this alongside its own programmatic flag.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// True once a termination signal has been delivered (or [`trigger`] was
/// called).
pub fn triggered() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Sets the flag as if a signal had arrived — used by tests and by
/// embedders that manage their own signal handling.
pub fn trigger() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
#[allow(unsafe_code)]
mod imp {
    use super::SHUTDOWN;
    use std::sync::atomic::Ordering;

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        // `sighandler_t signal(int signum, sighandler_t handler)` — the
        // return value (previous handler) is deliberately ignored.
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        // Only an atomic store: async-signal-safe by construction.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // SAFETY: `on_signal` has the C handler signature and only does an
        // atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the SIGTERM/SIGINT handler (idempotent). Call once before
/// [`Server::run`](crate::Server::run) to make ctrl-c and `kill -TERM`
/// initiate a graceful drain instead of killing the process mid-request.
pub fn install() {
    imp::install();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_sets_the_flag() {
        // No signal delivery in unit tests (it would race other tests in
        // the same process); the programmatic path is what the server's
        // tests use, and `install` must at least not crash.
        install();
        trigger();
        assert!(triggered());
    }
}
