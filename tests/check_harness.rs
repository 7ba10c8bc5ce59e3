//! Cross-crate acceptance tests for the property-checking harness: pass
//! permutations are sound, planted faults are caught, reports are
//! job-count-invariant, and the persisted corpus replays clean — the same
//! gates CI runs via `replay check`, at integration-test scale.

use replay_check::{
    arb_frame, probe_fault_sensitivity, replay_dir, run_check, CheckConfig, FaultKind,
    PassSelection,
};
use replay_core::{passes, run_pass, AliasProfile, OptFrame, OptScope, OptStats, PassCtx, PassId};
use replay_rng::SmallRng;
use replay_sim::experiment::{self, Column};
use replay_sim::{ConfigKind, CoreModel};
use replay_trace::workloads;
use std::path::Path;

/// The mixed rotation covers the canonical pipeline, every single pass,
/// and a healthy population of random permutations/prefixes — and every
/// one of them preserves frame semantics.
#[test]
fn single_passes_and_permutations_are_sound() {
    let cfg = CheckConfig {
        cases: 240,
        seed: 42,
        jobs: 4,
        ..CheckConfig::default()
    };
    let report = run_check(&cfg);
    assert!(report.ok(), "failures: {:?}", report.failures);
    for pass in PassId::ALL {
        assert!(
            report.sequences.contains(&vec![pass]),
            "single-pass sequence [{pass}] never ran"
        );
    }
    assert!(
        report.permutations >= 50,
        "only {} non-canonical sequences exercised",
        report.permutations
    );
    assert!(report.entries_completed > 0, "no entry ever completed");
    assert!(report.uops_removed > 0, "the passes never fired");
}

/// A fixed pass sequence (here: the pipeline run backwards) is also sound
/// when requested explicitly, as `replay check --passes DCE,...` would.
#[test]
fn explicit_sequence_selection_is_sound() {
    let mut rev = PassId::ALL.to_vec();
    rev.reverse();
    let cfg = CheckConfig {
        cases: 60,
        seed: 3,
        passes: PassSelection::Sequence(rev),
        jobs: 2,
        ..CheckConfig::default()
    };
    let report = run_check(&cfg);
    assert!(report.ok(), "failures: {:?}", report.failures);
    assert_eq!(report.sequences.len(), 1);
}

/// Dead-code elimination reaches its fixpoint in one sweep: on generated
/// frames at every scope, after any prefix of the pipeline followed by
/// DCE, a second DCE removes nothing. `dce` makes a single sweep, so this
/// is what keeps it equal to running the sweep until nothing changes.
#[test]
fn dce_is_idempotent_after_any_pipeline_prefix() {
    let profile = AliasProfile::empty();
    let mut rng = SmallRng::seed_from_u64(0xdce);
    for case in 0..300 {
        let frame = arb_frame(&mut rng);
        for scope in [OptScope::Frame, OptScope::Block, OptScope::InterBlock] {
            let ctx = PassCtx {
                scope,
                ..PassCtx::full(&profile)
            };
            for k in 0..PassId::ALL.len() {
                let mut f = OptFrame::from_frame(&frame);
                let mut stats = OptStats::default();
                for &pass in PassId::ALL[..k].iter().chain(&[PassId::Dce]) {
                    run_pass(&mut f, pass, &ctx, &mut stats);
                    f.validate()
                        .unwrap_or_else(|e| panic!("case {case} {scope:?} after {pass}: {e}"));
                }
                let again = passes::dce(&mut f, scope);
                assert_eq!(
                    again,
                    0,
                    "case {case} {scope:?}: second DCE after {:?} + DCE removed {again} more:\n{}",
                    &PassId::ALL[..k],
                    f.listing()
                );
            }
        }
    }
}

/// Every planted bug species is caught by the differential oracle — the
/// mutation-testing gate on the harness itself.
#[test]
fn all_fault_kinds_are_detected() {
    let probes = probe_fault_sensitivity(0xACE, 100);
    assert_eq!(probes.len(), FaultKind::ALL.len());
    for probe in probes {
        assert!(
            probe.injected > 0,
            "{}: no injection site found",
            probe.kind.name()
        );
        assert!(
            probe.detected > 0,
            "{}: oracle caught none of {} injections",
            probe.kind.name(),
            probe.injected
        );
    }
}

/// The fuzz batch is a pure function of the master seed: a `--jobs 8` run
/// produces a bit-identical report to `--jobs 1`.
#[test]
fn check_report_is_job_count_invariant() {
    let mut cfg = CheckConfig {
        cases: 100,
        seed: 42,
        jobs: 1,
        ..CheckConfig::default()
    };
    let serial = run_check(&cfg);
    cfg.jobs = 8;
    let parallel = run_check(&cfg);
    assert_eq!(serial, parallel);
    assert!(serial.ok(), "failures: {:?}", serial.failures);
}

/// The persisted corpus under `tests/corpus/` parses and replays clean —
/// the exact replay CI performs before every fuzz batch.
#[test]
fn seeded_corpus_replays_clean() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("corpus");
    match replay_dir(&dir) {
        Ok(n) => assert!(n >= 2, "expected the seeded cases, replayed {n}"),
        Err((path, e)) => panic!("corpus case {}: {e}", path.display()),
    }
}

/// The check harness and the simulation experiment engine share the same
/// `par_map` worker pool and trace store; running both concurrently on
/// many workers perturbs neither — simulation rows stay bit-identical to
/// the serial reference and the check report stays bit-identical to its
/// own serial run (`SimResult::merge` order and trace memoization are
/// unaffected by the extra load).
#[test]
fn check_workload_coexists_with_sim_engine() {
    const SCALE: usize = 2_000;
    let w = workloads::by_name("gzip").unwrap();
    let cfg = CheckConfig {
        cases: 80,
        seed: 11,
        jobs: 1,
        ..CheckConfig::default()
    };
    let ws = [w];
    let columns = ConfigKind::ALL.map(Column::Kind);
    let fig6_row = |jobs| {
        let grid = experiment::grid(&ws, SCALE, jobs, CoreModel::Generic, &columns);
        experiment::ipc_comparison(&grid).remove(0)
    };
    let serial_row = fig6_row(1);
    let serial_report = run_check(&cfg);

    let mut par_cfg = cfg.clone();
    par_cfg.jobs = 8;
    let handle = std::thread::spawn(move || run_check(&par_cfg));
    let par_row = fig6_row(8);
    let par_report = handle.join().unwrap();

    assert_eq!(serial_report, par_report);
    assert_eq!(serial_row.name, par_row.name);
    for (a, b) in serial_row.ipc.iter().zip(&par_row.ipc) {
        assert_eq!(a.to_bits(), b.to_bits(), "IPC bit-identical under load");
    }
    assert_eq!(
        serial_row.gain.coverage.to_bits(),
        par_row.gain.coverage.to_bits()
    );
    assert_eq!(
        serial_row.gain.rpo_gain_pct.to_bits(),
        par_row.gain.rpo_gain_pct.to_bits()
    );
}
