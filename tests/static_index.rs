//! The per-trace static-instruction index is a host-side cache: built
//! once per trace and shared by every simulation, clone and thread, it
//! must hand each record exactly the decode flow the injector would
//! translate, and whether it is built early, late or concurrently must
//! move no simulated number.

use replay_sim::{simulate, ConfigKind, Injector, SimConfig, SimResult};
use replay_trace::{workloads, Trace};
use std::sync::{Arc, Barrier};

const SCALE: usize = 4_000;

/// Asserts two results agree on cycles, bins and every deterministic
/// profile entry (counters and histograms; wall time excluded).
fn assert_identical(a: &SimResult, b: &SimResult, what: &str) {
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.bins, b.bins, "{what}: bins");
    assert_eq!(a.x86_retired, b.x86_retired, "{what}: x86_retired");
    assert_eq!(a.dyn_uops_total, b.dyn_uops_total, "{what}: dyn_uops_total");
    assert_eq!(
        a.dyn_loads_total, b.dyn_loads_total,
        "{what}: dyn_loads_total"
    );
    assert_eq!(
        a.uop_ratio.to_bits(),
        b.uop_ratio.to_bits(),
        "{what}: uop_ratio"
    );
    assert_eq!(
        a.profile.render_table(false),
        b.profile.render_table(false),
        "{what}: profile"
    );
}

#[test]
fn index_flows_equal_injector_flows_on_every_workload() {
    for w in workloads::all() {
        let trace = w.segment_trace(0, SCALE);
        let ix = trace.static_index();
        let mut inj = Injector::new();
        for (i, r) in trace.records().iter().enumerate() {
            assert_eq!(
                ix.record_flow(i),
                &inj.flow(r)[..],
                "{} record {i} at {:#x}",
                w.name,
                r.addr
            );
        }
    }
}

#[test]
fn a_prebuilt_index_changes_no_simulated_number() {
    for w in ["gzip", "vortex", "excel"] {
        // `base` is never indexed, so each clone of it starts fresh.
        let base = workloads::by_name(w).unwrap().segment_trace(0, SCALE);
        let warm = base.clone();
        warm.static_index();
        for kind in ConfigKind::ALL {
            let cfg = SimConfig::new(kind);
            let fresh = simulate(&base.clone(), &cfg);
            let reused = simulate(&warm, &cfg);
            assert_identical(&fresh, &reused, &format!("{w}/{kind:?}"));
        }
    }
}

#[test]
fn concurrent_simulations_build_one_index_and_match_serial() {
    let base: Trace = workloads::by_name("crafty")
        .unwrap()
        .segment_trace(0, SCALE);
    let serial: Vec<SimResult> = ConfigKind::ALL
        .iter()
        .map(|&kind| simulate(&base.clone(), &SimConfig::new(kind)))
        .collect();

    let shared = Arc::new(base.clone());
    let start = Barrier::new(ConfigKind::ALL.len());
    let runs: Vec<_> = std::thread::scope(|s| {
        let handles: Vec<_> = ConfigKind::ALL
            .iter()
            .map(|&kind| {
                let (trace, start) = (&shared, &start);
                s.spawn(move || {
                    start.wait();
                    let r = simulate(trace, &SimConfig::new(kind));
                    (r, Arc::clone(trace.static_index()))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for ((r, ix), want) in runs.iter().zip(&serial) {
        assert!(
            Arc::ptr_eq(ix, shared.static_index()),
            "one index per trace"
        );
        assert_identical(r, want, &format!("{:?} threaded vs serial", want.config));
    }
}
