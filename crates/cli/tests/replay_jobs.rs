//! `REPLAY_JOBS` is validated like `--jobs`: a malformed value exits 1
//! with `error: ...` before anything runs, and a valid one sets the
//! worker count.

use std::process::Command;

fn report(jobs_env: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(["report", "gzip", "-n", "300", "--no-store"])
        .env("REPLAY_JOBS", jobs_env)
        .output()
        .expect("run replay")
}

#[test]
fn malformed_replay_jobs_exits_1() {
    for bad in ["abc", "0", "-2", "1.5"] {
        let out = report(bad);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{bad:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{bad:?} printed to stdout");
        assert_eq!(
            stderr,
            format!("error: bad REPLAY_JOBS value {bad:?} (want a positive integer)\n")
        );
    }
}

#[test]
fn valid_replay_jobs_sets_the_worker_count() {
    let out = report("3");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("(3 workers,"), "{stdout}");
}
