//! The parallel experiment engine must be an exact drop-in for the serial
//! drivers: same rows, bit for bit, at every worker count — and the trace
//! store must synthesize each `(workload, segment, scale)` at most once
//! per process no matter how many drivers and threads ask.

use replay_sim::experiment::{self, grid, run_specs, Column, SimSpec};
use replay_sim::{parallel, ConfigKind, CoreModel, SimConfig, TraceStore};
use replay_trace::{workloads, Workload};
use std::sync::Arc;

const SCALE: usize = 2_500;

/// Asserts two Figure 6 result sets match row for row, every float to the
/// bit.
fn assert_rows_identical(a: &[experiment::IpcRow], b: &[experiment::IpcRow], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: row count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name, "{what}: row order");
        for (p, q) in x.ipc.iter().zip(&y.ipc) {
            assert_eq!(p.to_bits(), q.to_bits(), "{what}: {} IPC", x.name);
        }
        assert_eq!(
            x.gain.rpo_gain_pct.to_bits(),
            y.gain.rpo_gain_pct.to_bits(),
            "{what}: {} gain",
            x.name
        );
        assert_eq!(
            x.gain.coverage.to_bits(),
            y.gain.coverage.to_bits(),
            "{what}: {} coverage",
            x.name
        );
        assert_eq!(
            x.gain.assert_cycle_frac.to_bits(),
            y.gain.assert_cycle_frac.to_bits(),
            "{what}: {} assert cycles",
            x.name
        );
    }
}

/// The whole Figure 6 grid is bit-identical between the legacy serial
/// path, a repeated serial pass (cold, then warm), and a heavily threaded
/// run; and a workload subset run as its own batch yields the same rows as
/// those workloads in the full grid.
#[test]
fn ipc_rows_identical_serial_vs_parallel() {
    let all = workloads::all();
    let fig6 = |ws: &[Workload], jobs| {
        let columns = ConfigKind::ALL.map(Column::Kind);
        experiment::ipc_comparison(&grid(ws, SCALE, jobs, CoreModel::Generic, &columns))
    };
    let cold = fig6(&all, 1);
    assert_eq!(cold.len(), all.len(), "one row per workload");
    let warm = fig6(&all, 1);
    assert_rows_identical(&cold, &warm, "serial cold vs warm");
    let par = fig6(&all, 8);
    assert_rows_identical(&cold, &par, "1 job vs 8 jobs");
    let subset = ["gzip", "excel"].map(|name| workloads::by_name(name).unwrap());
    let in_full: Vec<_> = subset
        .iter()
        .map(|w| cold.iter().find(|r| r.name == w.name).unwrap().clone())
        .collect();
    assert_rows_identical(&fig6(&subset, 8), &in_full, "subset vs full grid");
}

/// `run_specs` merges segments in the same order as the serial reference
/// fold, so multi-segment workloads aggregate identically too.
#[test]
fn multi_segment_merge_is_order_stable() {
    let w = workloads::by_name("excel").unwrap();
    assert!(w.segments > 1, "needs a multi-segment workload");
    let store = TraceStore::new();
    let traces = store.traces(&w, SCALE);
    let specs: Vec<SimSpec> = [ConfigKind::Replay, ConfigKind::ReplayOpt]
        .into_iter()
        .map(|kind| SimSpec {
            name: w.name.to_string(),
            traces: traces.clone(),
            cfg: SimConfig::new(kind).without_verify(),
        })
        .collect();
    let serial = run_specs(&specs, 1);
    let par = run_specs(&specs, 6);
    let flat = w.traces_scaled(SCALE);
    for (i, kind) in [ConfigKind::Replay, ConfigKind::ReplayOpt]
        .into_iter()
        .enumerate()
    {
        let reference =
            experiment::run_workload_config(&flat, &w.name, &SimConfig::new(kind).without_verify());
        for r in [&serial[i], &par[i]] {
            assert_eq!(r.cycles, reference.cycles, "{kind}");
            assert_eq!(r.x86_retired, reference.x86_retired, "{kind}");
            assert_eq!(r.ipc().to_bits(), reference.ipc().to_bits(), "{kind}");
            assert_eq!(
                r.coverage.to_bits(),
                reference.coverage.to_bits(),
                "{kind} coverage weighted identically"
            );
            assert_eq!(r.bins.total(), reference.bins.total(), "{kind}");
        }
    }
}

/// Traces are generated at most once per `(workload, scale)` per store,
/// across drivers, configurations, and worker threads.
#[test]
fn traces_synthesized_at_most_once() {
    let store = TraceStore::new();
    let ws: Vec<_> = workloads::all().into_iter().take(4).collect();
    let expected: u64 = ws.iter().map(|w| w.segments as u64).sum();

    // Simulate two "drivers" hitting the same store from many threads:
    // each request asks for every workload's full segment set.
    let requests: Vec<usize> = (0..12).collect();
    parallel::par_map(6, &requests, |_| {
        for w in &ws {
            let traces = store.traces(w, SCALE);
            assert_eq!(traces.len(), w.segments);
        }
    });
    assert_eq!(store.generations(), expected, "first wave synthesizes all");

    parallel::par_map(6, &requests, |_| {
        for w in &ws {
            store.traces(w, SCALE);
        }
    });
    assert_eq!(
        store.generations(),
        expected,
        "second wave is all cache hits"
    );
    assert_eq!(store.cached_segments(), expected as usize);
}

/// The global store memoizes across *different* entry points: a driver
/// batch and a direct segment request share the same Arc.
#[test]
fn global_store_shares_across_entry_points() {
    let w = workloads::by_name("gzip").unwrap();
    let a = TraceStore::global().segment(&w, 0, 1_234);
    let b = TraceStore::global().traces(&w, 1_234);
    assert!(Arc::ptr_eq(&a, &b[0]), "same trace object, not a copy");
}
