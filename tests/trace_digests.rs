//! Synthesis pinned record for record.
//!
//! `tests/golden/trace_digests_2000.txt` holds the [`trace_digest`] of
//! every segment of all fourteen workloads at 2,000 records. The digest
//! covers the exact trace-file bytes (name, initial state, every record
//! field), so any drift in the interpreter, the translator or the
//! recording loop fails here by name, before it shows up as a moved
//! simulated number in the `paper_tables` goldens.

use replay_trace::{trace_digest, workloads};

const SCALE: usize = 2_000;

fn digests() -> String {
    let mut out = String::new();
    for w in workloads::all() {
        for s in 0..w.segments {
            let t = w.segment_trace(s, SCALE);
            let d = trace_digest(&t).expect("workload traces are representable");
            out.push_str(&format!("{} {} {d:016x}\n", t.name, t.len()));
        }
    }
    out
}

#[test]
fn trace_digests_match_golden() {
    let golden = include_str!("golden/trace_digests_2000.txt");
    let actual = digests();
    for (want, got) in golden.lines().zip(actual.lines()) {
        assert_eq!(got, want, "synthesized trace drifted");
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "segment count changed"
    );
}
