//! The hot-path execution overhaul — specialized frame plans and chunked
//! trace streaming — is a host-side optimization only. Nothing about the
//! *simulated* machine may move: every counter a report pins must be
//! bit-identical at any specialization threshold, any chunk size, any
//! worker count, and any cache temperature.

use replay_core::{
    optimize, probe_frame, AliasProfile, ExecPlan, ExecScratch, OptConfig, PlanScratch,
    ProbeOutcome,
};
use replay_frame::{ConstructorConfig, FrameConstructor, RetireEvent};
use replay_sim::experiment::{run_specs, SimSpec};
use replay_sim::report::{run_report, strip_store_section};
use replay_sim::{ConfigKind, Injector, SimConfig, SimResult, TraceStore};
use replay_trace::workloads;
use std::collections::HashSet;
use std::sync::Arc;

const SCALE: usize = 3_000;

/// Asserts the simulated (deterministic) portion of two results matches
/// bit for bit. Host-side throughput counters are deterministic too
/// (plan compilation is a pure function of the trace), so the whole
/// profile must agree — checked separately by the report tests below.
fn assert_simulated_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.x86_retired, b.x86_retired, "{what}: x86_retired");
    assert_eq!(
        a.pipeline.assert_events, b.pipeline.assert_events,
        "{what}: assert_events"
    );
    assert_eq!(a.dyn_uops_total, b.dyn_uops_total, "{what}: dyn_uops_total");
    assert_eq!(
        a.dyn_uops_removed, b.dyn_uops_removed,
        "{what}: dyn_uops_removed"
    );
    assert_eq!(
        a.coverage.to_bits(),
        b.coverage.to_bits(),
        "{what}: coverage"
    );
    assert_eq!(a.ipc().to_bits(), b.ipc().to_bits(), "{what}: ipc");
}

fn rpo_result(w: &str, cfg: SimConfig, jobs: usize) -> SimResult {
    let workload = workloads::by_name(w).unwrap();
    let specs = vec![SimSpec::for_workload(&workload, SCALE, cfg)];
    run_specs(&specs, jobs).remove(0)
}

/// The operative invariant of the overhaul: the specialization threshold
/// is invisible in every simulated number, for both rePLay
/// configurations, eager and disabled alike.
#[test]
fn hotpath_settings_never_change_simulated_numbers() {
    for kind in [ConfigKind::Replay, ConfigKind::ReplayOpt] {
        for w in ["gzip", "excel"] {
            let base = rpo_result(w, SimConfig::new(kind).without_verify(), 1);
            let variants = [
                SimConfig::new(kind)
                    .without_verify()
                    .without_specialization(),
                SimConfig::new(kind).without_verify().with_spec_threshold(1),
            ];
            for (i, cfg) in variants.into_iter().enumerate() {
                let r = rpo_result(w, cfg, 1);
                assert_simulated_identical(&base, &r, &format!("{w}/{kind:?} variant {i}"));
            }
        }
    }
}

/// Specialization is invisible in the RPO column of every workload, not
/// just the two the settings sweep above covers.
#[test]
fn specialized_rpo_matches_interpreted_on_every_workload() {
    let mut hits = 0;
    for w in workloads::all() {
        let cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();
        let interp = rpo_result(&w.name, cfg.clone().without_specialization(), 1);
        let spec = rpo_result(&w.name, cfg, 1);
        assert_simulated_identical(
            &interp,
            &spec,
            &format!("{} interpreted vs specialized", w.name),
        );
        hits += spec.profile.counter("sim.exec.specialized_hits");
    }
    assert!(hits > 0, "the default threshold must take the fast path");
}

/// A compiled plan agrees with the interpreter on real frames: every
/// distinct frame the constructor builds from each workload, optimized
/// and probed against the golden machine state at the point it was
/// built, yields the same outcome and the same memory transactions.
#[test]
fn plan_probe_matches_interpreter_on_workload_frames() {
    let mut scratch = ExecScratch::new();
    let mut plan_scratch = PlanScratch::new();
    let (mut compiled, mut completed) = (0usize, 0usize);
    for w in workloads::all() {
        let trace = w.segment_trace(0, SCALE);
        let mut injector = Injector::new();
        injector.preseed(&trace);
        let mut constructor = FrameConstructor::new(ConstructorConfig::default());
        let mut seen = HashSet::new();
        for r in trace.records() {
            let flow = injector.flow(r);
            let ev = RetireEvent {
                addr: r.addr,
                uops: &flow,
                next_pc: r.next_pc,
                fallthrough: r.fallthrough(),
            };
            if let Some(frame) = constructor.retire(&ev) {
                if seen.insert(frame.start_addr) {
                    let (opt, _) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
                    if let Some(plan) = ExecPlan::compile(&opt) {
                        let state = injector.golden();
                        let reference = probe_frame(&opt, state, &mut scratch);
                        let planned = plan.probe(state, &mut plan_scratch);
                        let at = format!("{} frame at {:#x}", w.name, frame.start_addr);
                        assert_eq!(reference, planned, "{at}: outcome");
                        if reference == ProbeOutcome::Completed {
                            assert_eq!(
                                scratch.transactions(),
                                plan_scratch.transactions(),
                                "{at}: transactions"
                            );
                            completed += 1;
                        }
                        compiled += 1;
                    }
                }
            }
            injector.apply(r);
        }
    }
    assert!(compiled > 0, "no frame compiled to a plan");
    assert!(completed > 0, "no compiled frame completed");
}

/// An eagerly specialized run on many workers still matches the serial
/// interpreted baseline — the fast path composes with the worker pool.
#[test]
fn eager_specialization_is_identical_across_jobs() {
    let interp = rpo_result(
        "bzip2",
        SimConfig::new(ConfigKind::ReplayOpt)
            .without_verify()
            .without_specialization(),
        1,
    );
    let eager = rpo_result(
        "bzip2",
        SimConfig::new(ConfigKind::ReplayOpt)
            .without_verify()
            .with_spec_threshold(1),
        8,
    );
    assert_simulated_identical(&interp, &eager, "interp/1 vs eager/8");
    assert!(
        eager.profile.counter("sim.exec.specialized_hits") > 0,
        "eager run must actually take the fast path"
    );
}

/// The full replay-report/v3 artifact — which carries the hot-path
/// counters — stays byte-identical across worker counts and across
/// consecutive (cold, then warm) runs, store section aside.
#[test]
fn report_is_byte_identical_across_jobs_and_temperature() {
    let trace = Arc::new(workloads::by_name("gzip").unwrap().segment_trace(0, SCALE));
    let (_, cold) = run_report(&trace, 1, false);
    let (_, warm) = run_report(&trace, 1, false);
    let (_, par) = run_report(&trace, 4, false);
    assert!(cold.contains("\"schema\": \"replay-report/v3\""));
    assert!(
        cold.contains("sim.exec.specialized_hits"),
        "the report must carry the hot-path counters"
    );
    let cold = strip_store_section(&cold);
    assert_eq!(cold, strip_store_section(&warm), "cold vs warm");
    assert_eq!(cold, strip_store_section(&par), "1 job vs 4 jobs");
}

/// The per-pass profit attribution split: uops removed on specialized
/// fetches must be a subset of the total per-pass removal, never an
/// addition to it.
#[test]
fn specialized_attribution_is_a_subset() {
    // Shared trace, eager threshold so the fast path engages at SCALE.
    let w = workloads::by_name("bzip2").unwrap();
    let specs = vec![SimSpec {
        name: w.name.to_string(),
        traces: TraceStore::global().traces(&w, SCALE),
        cfg: SimConfig::new(ConfigKind::ReplayOpt)
            .without_verify()
            .with_spec_threshold(1),
    }];
    let r = run_specs(&specs, 1).remove(0);
    let mut spec_sum = 0u64;
    let mut total_sum = 0u64;
    for (name, metric) in r.profile.iter() {
        if let replay_obs::Metric::Counter(v) = metric {
            if name.ends_with(".dyn_removed_uops_specialized") {
                spec_sum += v;
                let total_name = name.replace("_specialized", "");
                let total = r.profile.counter(&total_name);
                assert!(*v <= total, "{name}: specialized {v} exceeds total {total}");
            } else if name.starts_with("sim.pass.") && name.ends_with(".dyn_removed_uops") {
                total_sum += v;
            }
        }
    }
    assert!(spec_sum > 0, "no specialized attribution recorded");
    assert!(spec_sum <= total_sum);
}
