//! Frame-construction and frame-execution semantics against *real* traces:
//! frames built from workload executions must replay exactly (the paper's
//! record-based verifier, §5.1.3), and their assertions must fire exactly
//! when the original execution leaves the frame's path.

use replay_core::{exec_frame, optimize, AliasProfile, FrameOutcome, OptConfig, OptFrame};
use replay_frame::{
    ConstructorConfig, Frame, FrameCache, FrameConstructor, RetireEvent, MIN_FRAME_UOPS,
};
use replay_sim::Injector;
use replay_trace::workloads;
use replay_verify::verify_against_records;
use std::collections::HashMap;

/// Builds all frames a workload's constructor produces over `n` records,
/// keyed by entry address (last construction wins, as in the frame cache).
fn build_frames(name: &str, n: usize) -> (replay_trace::Trace, HashMap<u32, Frame>) {
    let trace = workloads::by_name(name).unwrap().segment_trace(0, n);
    let mut injector = Injector::new();
    injector.preseed(&trace);
    let mut constructor = FrameConstructor::new(ConstructorConfig::default());
    let mut frames = HashMap::new();
    for r in trace.records() {
        let flow = injector.flow(r);
        let ev = RetireEvent {
            addr: r.addr,
            uops: &flow,
            next_pc: r.next_pc,
            fallthrough: r.fallthrough(),
        };
        if let Some(f) = constructor.retire(&ev) {
            frames.insert(f.start_addr, f);
        }
        injector.apply(r);
    }
    (trace, frames)
}

#[test]
fn optimized_frames_replay_their_records_exactly() {
    // For every dynamic instance whose path matches, the optimized frame
    // must transform register and memory state exactly as the original
    // records do.
    let (trace, frames) = build_frames("vortex", 12_000);
    let records = trace.records();
    let mut injector = Injector::new();
    injector.preseed(&trace);
    let mut verified = 0u32;
    let mut i = 0usize;
    while i < records.len() {
        injector.flow(&records[i]);
        if let Some(frame) = frames.get(&records[i].addr) {
            let n = frame.x86_count();
            let path_ok =
                (0..n).all(|j| i + j < records.len() && records[i + j].addr == frame.x86_addrs[j]);
            if path_ok {
                let (opt, _) = optimize(frame, &AliasProfile::empty(), &OptConfig::default());
                let entry = injector.golden().clone();
                let outcome = exec_frame(&opt, &mut entry.clone());
                if matches!(outcome, FrameOutcome::Completed { .. }) {
                    verify_against_records(&opt, injector.golden(), &records[i..i + n])
                        .unwrap_or_else(|e| panic!("frame at {:#x}: {e}", frame.start_addr));
                    verified += 1;
                }
            }
        }
        injector.apply(&records[i]);
        i += 1;
    }
    assert!(verified > 50, "verified {verified} dynamic frame instances");
}

#[test]
fn assertions_fire_iff_the_path_diverges() {
    // Frame execution (assert evaluation over the entry state) must agree
    // with path matching against the trace: a frame completes exactly when
    // the original execution follows its embedded path. Unsafe-store
    // conflicts are the one legitimate exception (speculation cost).
    let (trace, frames) = build_frames("parser", 12_000);
    let records = trace.records();
    let mut injector = Injector::new();
    injector.preseed(&trace);
    let mut agreements = 0u32;
    let mut checked = 0u32;
    for (i, r) in records.iter().enumerate() {
        injector.flow(r);
        if let Some(frame) = frames.get(&r.addr) {
            let mut raw = OptFrame::from_frame(frame);
            raw.compact();
            let outcome = exec_frame(&raw, &mut injector.golden().clone());
            let n = frame.x86_count();
            let path_ok =
                (0..n).all(|j| i + j < records.len() && records[i + j].addr == frame.x86_addrs[j]);
            let completed = matches!(outcome, FrameOutcome::Completed { .. });
            checked += 1;
            // End-of-trace truncation breaks path_ok without an assert.
            if i + n <= records.len() {
                assert_eq!(
                    completed, path_ok,
                    "frame {:#x} at record {i}: exec and path disagree ({outcome:?})",
                    frame.start_addr
                );
                agreements += 1;
            }
        }
        injector.apply(r);
    }
    assert!(checked > 100, "checked {checked} instances");
    assert!(agreements > 100);
}

#[test]
fn frames_respect_constructor_limits() {
    let cfg = ConstructorConfig::default();
    for name in ["crafty", "excel"] {
        let (_, frames) = build_frames(name, 10_000);
        assert!(!frames.is_empty());
        for f in frames.values() {
            assert!(f.uop_count() >= MIN_FRAME_UOPS, "{name}: min size");
            assert!(f.uop_count() <= cfg.max_uops, "{name}: max size");
            assert_eq!(f.block_starts[0], 0);
            // Every expectation points at an assert uop.
            for e in &f.expectations {
                assert!(
                    f.uops[e.uop_index].op.is_assert(),
                    "{name}: expectation targets an assert"
                );
            }
        }
    }
}

#[test]
fn frame_cache_capacity_behaves_like_the_paper() {
    // Optimized frames are smaller, so the same 16K-uop cache holds more
    // of them — "fewer slots are required to contain the same number of
    // original micro-operations" (§6.1).
    let (_, frames) = build_frames("power", 12_000);
    let mut raw_cache: FrameCache<Frame> = FrameCache::new(4 * 1024);
    let mut opt_sizes = 0usize;
    let mut raw_sizes = 0usize;
    for (key, f) in frames.values().enumerate() {
        let (opt, _) = optimize(f, &AliasProfile::empty(), &OptConfig::default());
        opt_sizes += opt.uop_count();
        raw_sizes += f.uop_count();
        raw_cache.insert(key as u32, f.clone());
    }
    assert!(
        opt_sizes < raw_sizes,
        "optimized frames occupy fewer slots ({opt_sizes} vs {raw_sizes})"
    );
}
