//! A closed stdout ends a command quietly: `replay disasm excel | head -1`
//! must exit 0 with nothing on stderr, not panic on `EPIPE`.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_is_a_quiet_exit() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_replay"))
        .args(["disasm", "excel"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn replay");
    // Close the read end before reading anything, so the first write fails
    // with `EPIPE` however fast the child runs.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for replay");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "status {:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
