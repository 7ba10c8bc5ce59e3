//! Flags that cannot take effect fail loudly: an out-of-range number is
//! rejected instead of wrapping into another value, and a cluster-only
//! flag without cluster mode is an error instead of being ignored. Each
//! case exits 1 with `error: ...` on stderr and nothing on stdout.

use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Runs `replay` with `args`, killing it if it has not exited after
/// `limit` (a command that ignores a bad flag may start serving forever).
fn replay(args: &[&str], limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn replay");
    let start = Instant::now();
    while child.try_wait().expect("poll replay").is_none() && start.elapsed() < limit {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("wait for replay")
}

fn assert_rejected(args: &[&str], message: &str) {
    let out = replay(args, Duration::from_secs(20));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_eq!(stderr, format!("error: {message}\n"), "{args:?}");
}

#[test]
fn out_of_range_integer_flags_are_rejected_not_wrapped() {
    // 2^32 used to wrap to 0 retries ("gave up after 1 attempts").
    for bad in ["4294967296", "-1"] {
        assert_rejected(
            &[
                "submit",
                "gzip",
                "-n",
                "1000",
                "--addr",
                "127.0.0.1:1",
                "--retries",
                bad,
            ],
            &format!("bad --retries value {bad:?}"),
        );
    }
    assert_rejected(
        &["check", "--cases", "1", "--entries", "4294967296"],
        "bad --entries value \"4294967296\"",
    );
}

#[test]
fn cluster_addr_without_peers_is_an_error() {
    assert_rejected(
        &[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cluster-addr",
            "10.9.9.9:1",
        ],
        "--cluster-addr needs --peers",
    );
}
