//! The observability layer (`replay-obs`) must not perturb the engine it
//! watches: profiles are bit-identical at every worker count, the per-pass
//! dynamic-removal attribution sums exactly to the engine's own removal
//! counter, and the JSON rendering is stable and self-consistent.

use replay_obs::{Metric, Profile};
use replay_sim::experiment::{run_specs, SimSpec};
use replay_sim::{ConfigKind, SimConfig, SimResult, TraceStore};
use replay_trace::workloads;

const SCALE: usize = 2_500;

fn profiled_results(workload: &str, jobs: usize) -> Vec<SimResult> {
    let w = workloads::by_name(workload).unwrap();
    let traces = TraceStore::global().traces(&w, SCALE);
    let specs: Vec<SimSpec> = ConfigKind::ALL
        .into_iter()
        .map(|kind| SimSpec {
            name: w.name.to_string(),
            traces: traces.clone(),
            cfg: SimConfig::new(kind).without_verify(),
        })
        .collect();
    run_specs(&specs, jobs)
}

/// The deterministic profile rendering (timings excluded) is byte-identical
/// between a serial run and a heavily threaded one — the acceptance bar for
/// `replay report --profile --jobs N`.
#[test]
fn profiles_byte_identical_across_worker_counts() {
    let serial = profiled_results("gzip", 1);
    let par = profiled_results("gzip", 8);
    assert_eq!(serial.len(), par.len());
    for (s, p) in serial.iter().zip(&par) {
        let st = s.profile.render_table(false);
        let pt = p.profile.render_table(false);
        assert!(!st.is_empty(), "profile populated");
        assert_eq!(st, pt, "config {}", s.config);
        assert_eq!(
            s.profile.to_json(false),
            p.profile.to_json(false),
            "JSON rendering equally stable"
        );
    }
}

/// Per-pass dynamic attribution telescopes exactly: the `sim.pass.*`
/// counters sum to `sim.dyn_uops_removed`, which equals the engine's own
/// `dyn_uops_removed` field.
#[test]
fn per_pass_attribution_sums_to_total_removal() {
    for r in profiled_results("twolf", 4) {
        let total = r.profile.counter("sim.dyn_uops_removed");
        assert_eq!(total, r.dyn_uops_removed, "profile mirrors the engine");
        let by_pass: u64 = r
            .profile
            .iter()
            .filter(|(k, _)| k.starts_with("sim.pass.") && k.ends_with(".dyn_removed_uops"))
            .map(|(_, m)| match m {
                Metric::Counter(v) => *v,
                other => panic!("pass attribution must be a counter, got {other:?}"),
            })
            .sum();
        assert_eq!(
            by_pass, total,
            "config {}: attribution telescopes",
            r.config
        );
        if r.config == ConfigKind::ReplayOpt {
            assert!(total > 0, "RPO removes uops at this scale");
        }
    }
}

/// Folding per-configuration profiles with [`Profile::merge`] gives the
/// same profile in any order, so a combined profile cannot depend on the
/// order workers finish in.
#[test]
fn profile_merge_is_order_independent() {
    let results = profiled_results("gzip", 2);
    let fold = |order: Vec<&SimResult>| {
        let mut merged = Profile::new();
        for r in order {
            merged.merge(&r.profile);
        }
        merged
    };
    let forward = fold(results.iter().collect());
    let reversed = fold(results.iter().rev().collect());
    assert_eq!(forward.to_json(false), reversed.to_json(false));
    assert_eq!(forward.render_table(false), reversed.render_table(false));
    assert!(
        forward
            .to_json(false)
            .contains("\"opt.frame_removed_uops\":{\"type\":\"hist\""),
        "the merge covers a histogram's min and max"
    );
    // The merged total equals the sum of the per-config totals.
    let sum: u64 = results
        .iter()
        .map(|r| r.profile.counter("sim.dyn_uops_total"))
        .sum();
    assert_eq!(forward.counter("sim.dyn_uops_total"), sum);
}

/// Merging `SimResult`s merges their profiles metric-wise, keeping the
/// profile consistent with the merged engine counters.
#[test]
fn result_merge_keeps_profile_consistent() {
    let w = workloads::by_name("excel").unwrap();
    assert!(w.segments > 1, "needs a multi-segment workload");
    let traces = TraceStore::global().traces(&w, SCALE);
    let specs: Vec<SimSpec> = vec![SimSpec {
        name: w.name.to_string(),
        traces,
        cfg: SimConfig::new(ConfigKind::ReplayOpt).without_verify(),
    }];
    let r = &run_specs(&specs, 4)[0];
    assert_eq!(r.profile.counter("sim.dyn_uops_total"), r.dyn_uops_total);
    assert_eq!(
        r.profile.counter("sim.dyn_uops_removed"),
        r.dyn_uops_removed
    );
    assert_eq!(r.profile.counter("cycles.total"), r.cycles);
    assert_eq!(
        r.profile.counter("pipeline.retired_x86"),
        r.pipeline.retired_x86
    );
}

/// The deterministic renderers never leak wall-clock timings; opting in
/// exposes the duration metrics alongside the counters.
#[test]
fn timings_hidden_unless_requested() {
    let r = &profiled_results("gzip", 2)[3];
    assert_eq!(r.config, ConfigKind::ReplayOpt);
    let deterministic = r.profile.render_table(false);
    assert!(
        !deterministic.contains("time_ns"),
        "no wall time in the deterministic view"
    );
    let with_timings = r.profile.render_table(true);
    assert!(
        with_timings.contains("opt.time_ns"),
        "timings visible when requested"
    );
    assert!(!r.profile.to_json(false).contains("duration_ns"));
}

/// An empty profile renders to an empty table and a well-formed JSON shell.
#[test]
fn empty_profile_renders_cleanly() {
    let p = Profile::new();
    assert_eq!(p.render_table(false), "");
    assert_eq!(
        p.to_json(false),
        "{\"schema\":\"replay-obs/v1\",\"metrics\":{}}"
    );
}
