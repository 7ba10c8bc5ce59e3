//! `paper_tables` command-line behaviour: bad arguments fail before
//! anything is simulated, and a closed stdout ends a run quietly.

use std::process::{Command, Stdio};

#[test]
fn bad_arguments_exit_1_before_simulating() {
    for args in [
        &["4k"][..],
        &["models", "4k"],
        &["--core-model", "nope"],
        &["--core-model"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
            .args(args)
            .output()
            .expect("run paper_tables");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
    }
}

#[test]
fn malformed_replay_jobs_exits_1_before_simulating() {
    for args in [&["4000"][..], &["models", "4000"], &["sweeps"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
            .args(args)
            .env("REPLAY_JOBS", "abc")
            .output()
            .expect("run paper_tables");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert_eq!(
            stderr,
            "error: bad REPLAY_JOBS value \"abc\" (want a positive integer)\n"
        );
    }
}

/// `paper_tables 4000 | head -1` must exit 0 with nothing on stderr, not
/// panic on `EPIPE`.
#[test]
fn closed_stdout_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_paper_tables"))
        .arg("4000")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn paper_tables");
    // Close the read end before reading anything, so the first write fails
    // with `EPIPE` however fast the child runs.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for paper_tables");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}
