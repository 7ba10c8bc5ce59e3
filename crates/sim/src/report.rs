//! The `replay-report/v3` artifact: one JSON document holding the four
//! per-configuration observability profiles, their deterministic merge,
//! and (last) the non-reproducible cache-effectiveness section.
//!
//! This module is the *single* renderer of that artifact. `replay report
//! --json` and the `replay-serve` TCP service both call [`run_report`],
//! which is what makes a served response byte-identical to a local run:
//! there is no second copy of the layout to drift. The only intentionally
//! non-reproducible part is the trailing `"store"` section (cache hit
//! counters differ between cold and warm processes by design); consumers
//! comparing two reports strip it first with [`strip_store_section`].
//!
//! **v1 → v2 compatibility**: v2 is a strict superset of v1. Every v1 key
//! keeps its meaning and its value; v2 adds the hot-path execution
//! counters to each profile — `sim.exec.specialized_hits`,
//! `sim.exec.fallbacks`, `sim.exec.plans_compiled`, `sim.chunks`, and the
//! per-pass `sim.pass.<pass>.dyn_removed_uops_specialized` split, which
//! attributes optimization profit separately for fetches served by the
//! specialized frame fast path.
//!
//! **v2 → v3 compatibility**: v3 is again a strict superset. It adds a
//! top-level `"core_model"` key naming the execution-core model the run
//! was simulated under (`generic` or `port`; see `replay-timing`'s
//! `ports` module) and, when the port-accurate model is selected,
//! per-port pressure counters `timing.port.<p>.issued` /
//! `timing.port.<p>.contention_cycles` in each configuration's profile.
//! Generic-model reports carry no `timing.port.*` keys. All new values
//! are deterministic functions of `(trace, config)`, so v3 retains the
//! byte-identity across `--jobs` and cache temperature. Consumers that
//! matched the literal schema string must accept `replay-report/v3`.

use crate::experiment::{run_specs, Column, SimSpec};
use crate::{ConfigKind, SimResult, TraceStore};
use replay_timing::CoreModel;
use replay_trace::Trace;
use std::sync::Arc;

/// The four-configuration spec batch for one trace, in
/// [`ConfigKind::ALL`] order — the rows of every report — under the
/// generic core model.
pub fn specs_for_trace(trace: &Arc<Trace>) -> Vec<SimSpec> {
    specs_for_trace_model(trace, CoreModel::Generic)
}

/// [`specs_for_trace`] under an explicit execution-core model.
pub fn specs_for_trace_model(trace: &Arc<Trace>, model: CoreModel) -> Vec<SimSpec> {
    ConfigKind::ALL
        .into_iter()
        .map(|kind| SimSpec {
            name: trace.name.clone(),
            traces: vec![Arc::clone(trace)],
            cfg: Column::Kind(kind).config(model),
        })
        .collect()
}

/// Builds the merged cross-configuration profile for a report run: the sum
/// of the per-spec profiles (every payload is an integer, so the merge
/// order cannot change the result). Cache-layer
/// counters live in the separate `store` section ([`store_profile`]) —
/// they describe *this process's* cache luck, not the simulated machines,
/// and folding them in here would break the cold-vs-warm byte identity of
/// `combined`.
pub fn combined_profile(results: &[SimResult]) -> replay_obs::Profile {
    let mut merged = replay_obs::Profile::new();
    for r in results {
        merged.merge(&r.profile);
    }
    merged
}

/// The cache-effectiveness profile of this process: in-memory trace
/// memoization (`tracestore.*`) and, when the persistent store is
/// enabled, on-disk artifact traffic (`store.*`). Deliberately segregated
/// from the simulation profiles — these counters differ between cold and
/// warm runs by design.
pub fn store_profile() -> replay_obs::Profile {
    let mut profile = replay_obs::Profile::new();
    TraceStore::global().observe_into(&mut profile);
    if let Some(store) = replay_store::Store::global() {
        store.observe_into(&mut profile);
    }
    profile
}

/// Renders the `replay-report/v3` JSON document from the four
/// per-configuration results of [`specs_for_trace_model`].
///
/// Stable machine-readable schema: per-configuration profiles plus the
/// deterministic cross-configuration merge. Worker count and wall time
/// are intentionally absent (unless `timings`) so the artifact is
/// byte-identical run to run at any `--jobs` — except for the final
/// `store` section, which reports this process's cache effectiveness and
/// is stripped by comparers ([`strip_store_section`]).
pub fn render_report(
    workload: &str,
    scale: usize,
    model: CoreModel,
    results: &[SimResult],
    timings: bool,
) -> String {
    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"replay-report/v3\",\n");
    json.push_str(&format!("  \"workload\": \"{workload}\",\n"));
    json.push_str(&format!("  \"scale\": {scale},\n"));
    json.push_str(&format!("  \"core_model\": \"{}\",\n", model.label()));
    json.push_str("  \"configs\": {\n");
    for (i, (kind, r)) in ConfigKind::ALL.into_iter().zip(results).enumerate() {
        if i > 0 {
            json.push_str(",\n");
        }
        json.push_str(&format!(
            "    \"{}\": {}",
            kind.label(),
            r.profile.to_json(timings)
        ));
    }
    json.push_str("\n  },\n");
    json.push_str(&format!(
        "  \"combined\": {},\n",
        combined_profile(results).to_json(timings)
    ));
    // The one intentionally non-reproducible section: cache effectiveness
    // for this process (zero hits on a cold run, nonzero on a warm one).
    // Consumers comparing reports should strip it first.
    json.push_str(&format!(
        "  \"store\": {}\n}}\n",
        store_profile().to_json(timings)
    ));
    json
}

/// Runs all four configurations of `trace` on `jobs` workers under the
/// generic core model and renders the report. Returns the
/// per-configuration results (for human-facing summaries) alongside the
/// JSON bytes.
pub fn run_report(trace: &Arc<Trace>, jobs: usize, timings: bool) -> (Vec<SimResult>, String) {
    run_report_model(trace, jobs, timings, CoreModel::Generic)
}

/// [`run_report`] under an explicit execution-core model.
pub fn run_report_model(
    trace: &Arc<Trace>,
    jobs: usize,
    timings: bool,
    model: CoreModel,
) -> (Vec<SimResult>, String) {
    let specs = specs_for_trace_model(trace, model);
    let results = run_specs(&specs, jobs);
    let json = render_report(&trace.name, trace.len(), model, &results, timings);
    (results, json)
}

/// Removes the trailing non-reproducible `"store"` section from a
/// `replay-report/v3` document, restoring the closing brace. Two reports
/// of the same workload at the same scale compare byte-identical after
/// this, regardless of worker count or cache temperature. Documents
/// without a `store` section pass through unchanged.
pub fn strip_store_section(json: &str) -> String {
    match json.find(",\n  \"store\": ") {
        Some(i) => format!("{}\n}}\n", &json[..i]),
        None => json.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_trace::workloads;

    #[test]
    fn report_is_byte_identical_at_any_job_count() {
        let trace = Arc::new(workloads::by_name("gzip").unwrap().segment_trace(0, 2_000));
        let (_, serial) = run_report(&trace, 1, false);
        let (_, par) = run_report(&trace, 4, false);
        assert_eq!(
            strip_store_section(&serial),
            strip_store_section(&par),
            "store-stripped reports must not depend on --jobs"
        );
    }

    #[test]
    fn strip_removes_only_the_store_section() {
        let trace = Arc::new(workloads::by_name("eon").unwrap().segment_trace(0, 1_000));
        let (_, json) = run_report(&trace, 1, false);
        let stripped = strip_store_section(&json);
        assert!(json.contains("\"store\""));
        assert!(!stripped.contains("\"store\""));
        assert!(stripped.contains("\"combined\""));
        assert!(stripped.ends_with("\n}\n"), "closing brace restored");
        // Idempotent on already-stripped documents.
        assert_eq!(strip_store_section(&stripped), stripped);
    }

    #[test]
    fn port_model_report_carries_port_counters_and_generic_does_not() {
        let trace = Arc::new(workloads::by_name("gzip").unwrap().segment_trace(0, 1_000));
        let (_, generic) = run_report_model(&trace, 1, false, CoreModel::Generic);
        let (_, port) = run_report_model(&trace, 1, false, CoreModel::PortAccurate);
        assert!(generic.contains("\"core_model\": \"generic\""));
        assert!(port.contains("\"core_model\": \"port\""));
        assert!(!generic.contains("timing.port."));
        assert!(port.contains("timing.port.p0.issued"));
        assert!(port.contains("timing.port.p23.issued"));
        assert_ne!(
            strip_store_section(&generic),
            strip_store_section(&port),
            "the two core models time the machine differently"
        );
    }
}
