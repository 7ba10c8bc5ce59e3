//! Flags that cannot take effect fail loudly: an out-of-range number is
//! rejected instead of wrapping into another value or being replaced by
//! one the command can use. Each case exits 1 with `error: ...` on stderr
//! and nothing on stdout.

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
        "bad --entries value \"4294967296\" (want a positive integer)",
    );
}

#[test]
fn check_values_it_cannot_honor_are_rejected_not_replaced() {
    // `--entries 0` used to run 1 entry state per case, and `--faults
    // --cases 20000` used to make 10,000 attempts per kind, both silently.
    assert_rejected(
        &["check", "--cases", "1", "--entries", "0"],
        "bad --entries value \"0\" (want a positive integer)",
    );
    assert_rejected(
        &["check", "--faults", "--cases", "20000"],
        "bad --cases value \"20000\" (--faults makes at most 10000 attempts per fault kind)",
    );
}

#[test]
fn check_cases_must_be_positive() {
    // `--cases 0` used to check nothing and pass, and under `--faults` to
    // blame the oracle for every fault kind it was never shown.
    for mode in [&[][..], &["--faults"]] {
        let mut args = vec!["check", "--cases", "0"];
        args.extend_from_slice(mode);
        assert_rejected(&args, "bad --cases value \"0\" (want a positive integer)");
    }
}

#[test]
fn check_faults_rejects_the_flags_it_does_not_read() {
    // `--faults` reads only `--cases` and `--seed`; every other flag used
    // to be dropped silently, and the run still passed.
    let message = |flag: &str| {
        format!("{flag} does not apply to --faults (it takes only --cases and --seed)")
    };
    assert_rejected(
        &[
            "check",
            "--faults",
            "--cases",
            "5",
            "--entries",
            "0",
            "--passes",
            "nonsense",
            "--corpus",
            "/nonexistent",
            "--no-shrink",
            "--jobs",
            "0",
        ],
        &message("--entries"),
    );
    for extra in [
        &["--passes", "all"][..],
        &["--corpus", "tests/corpus"],
        &["--entries", "4"],
        &["--no-shrink"],
        &["--jobs", "1"],
    ] {
        let mut args = vec!["check", "--faults", "--cases", "5", "--seed", "1"];
        args.extend_from_slice(extra);
        assert_rejected(&args, &message(extra[0]));
    }
}

#[test]
fn serve_bounds_must_be_positive() {
    for flag in ["--work-queue", "--max-conns"] {
        assert_rejected(
            &["serve", "--addr", "127.0.0.1:0", "--no-store", flag, "0"],
            &format!("bad {flag} value \"0\" (want a positive integer)"),
        );
    }
}

#[test]
fn trace_length_must_be_positive() {
    // `-n 0` used to run every command on an empty trace and exit 0:
    // `sim` printed IPC 0.000.
    let out = concat!(env!("CARGO_TARGET_TMPDIR"), "/empty.trace");
    for cmd in [
        &["sim", "gzip", "--no-store"][..],
        &["report", "gzip", "--no-store"],
        &["info", "gzip"],
        &["frames", "gzip"],
        &["gen", "gzip", "-o", out],
        &["submit", "gzip", "--addr", "127.0.0.1:1", "--retries", "0"],
        &["sweep", "--no-store"],
    ] {
        let mut args = cmd.to_vec();
        args.extend_from_slice(&["-n", "0"]);
        assert_rejected(&args, "bad -n value \"0\" (want a positive integer)");
    }
}

#[test]
fn submit_takes_one_address_not_a_list() {
    // The client is single-address; a list (or nothing) fails before any
    // connect, so nothing is retried.
    for bad in ["127.0.0.1:1,127.0.0.1:2", ""] {
        assert_rejected(
            &["submit", "gzip", "-n", "1000", "--addr", bad],
            &format!("bad --addr value {bad:?} (want one host:port)"),
        );
    }
}

#[test]
fn required_flags_are_enforced_by_the_parser() {
    assert_rejected(
        &["gen", "gzip"],
        "missing -o FILE (usage: replay gen <workload> -o FILE [-n N] [-s SEG])",
    );
}

#[test]
fn sweep_steps_must_cover_both_endpoints() {
    // `--steps 0` and `--steps 1` used to run 2 steps and exit 0.
    for bad in ["0", "1"] {
        assert_rejected(
            &["sweep", "--steps", bad, "-n", "1000", "--no-store"],
            &format!("bad --steps value {bad:?} (want at least 2)"),
        );
    }
}

#[test]
fn compare_is_an_unknown_command() {
    // `report` prints the four-configuration table that `compare` did;
    // `clone` went with the profile fit.
    for cmd in ["compare", "clone"] {
        assert_rejected(
            &[cmd, "gzip"],
            &format!("unknown command {cmd:?} (try `replay help`)"),
        );
    }
}

#[test]
fn report_profile_does_not_apply_to_a_stdout_artifact() {
    assert_rejected(
        &["report", "gzip", "--no-store", "--json", "-", "--profile"],
        "--profile does not apply to --json - (stdout carries only the artifact)",
    );
}
