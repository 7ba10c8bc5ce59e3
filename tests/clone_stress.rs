//! Integration test for the adversarial stress sweep.
//!
//! A sweep's `replay-clone/v1` JSON is a pure function of its
//! configuration: byte-identical across runs, job counts, and the
//! committed golden artifact.

use replay_sim::sweep::{run_sweep, SweepConfig, SCHEMA};

/// A small sweep configuration sized for CI: three corners, three steps,
/// short traces — the configuration `replay sweep --corner all --steps 3
/// -n 1500` runs. Collapse behavior at this scale is not meaningful (the
/// pipeline is still warming up); this test only asserts determinism.
fn mini_sweep() -> SweepConfig {
    SweepConfig {
        steps: 3,
        scale: 1_500,
        jobs: 1,
        ..SweepConfig::default()
    }
}

/// The pinned-seed mini-sweep emits byte-identical collapse-point JSON
/// across two runs in the same process and across job counts, and
/// matches `tests/golden/clone_sweep_small.json`.
#[test]
fn mini_sweep_json_is_byte_identical_across_runs_and_jobs() {
    let first = run_sweep(&mini_sweep()).to_json();
    let second = run_sweep(&mini_sweep()).to_json();
    assert_eq!(
        first, second,
        "same-config sweeps must emit identical bytes"
    );

    let parallel = run_sweep(&SweepConfig {
        jobs: 4,
        ..mini_sweep()
    })
    .to_json();
    assert_eq!(
        first, parallel,
        "sweep JSON must not depend on the worker count"
    );

    assert!(
        first.contains(&format!("\"schema\": \"{SCHEMA}\"")),
        "artifact must carry the {SCHEMA} schema tag"
    );
    assert_eq!(
        first.matches("\"corner\":").count(),
        3,
        "all three corners must appear"
    );
    // steps points per corner, each with a spec digest.
    assert_eq!(first.matches("\"spec_digest\":").count(), 9);

    assert_eq!(
        first,
        include_str!("golden/clone_sweep_small.json"),
        "mini-sweep JSON drifted from tests/golden/clone_sweep_small.json; \
         regenerate it with `replay sweep --corner all --steps 3 -n 1500 \
         --no-store --out tests/golden/clone_sweep_small.json` if the change \
         is meant to move simulated numbers"
    );
}
