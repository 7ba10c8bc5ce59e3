//! Allocation guard for frame construction.
//!
//! Under basic rePLay every retired record feeds the frame constructor,
//! so a heap allocation per appended record (a staging vector for the
//! transformed uops, say) shows up as one more allocation per record. The
//! test measures whole-`simulate` allocation counts under RP at two trace
//! lengths and bounds the *marginal* allocations per extra record, so
//! fixed per-run costs cancel out. What remains scales with frames built
//! and optimized — about 0.9 per record on gzip — and a per-record staging
//! vector in the constructor put it near 1.8.
//!
//! This file holds exactly one test: the counting `#[global_allocator]`
//! is binary-wide, and a lone test keeps the measurement free of
//! concurrent-test noise.

use replay_sim::{simulate, ConfigKind, SimConfig};
use replay_trace::workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Upper bound on heap allocations per additional record under RP.
const MAX_ALLOCS_PER_RECORD: f64 = 1.0;

#[test]
fn frame_construction_allocations_per_record_are_bounded() {
    let w = workloads::by_name("gzip").unwrap();
    let (small_n, big_n) = (10_000usize, 20_000usize);
    // Build both traces *before* measuring: synthesis is not under test.
    let small = w.segment_trace(0, small_n);
    let big = w.segment_trace(0, big_n);
    let cfg = SimConfig::new(ConfigKind::Replay).without_verify();

    // Warm-up pass so one-time lazy initialization is off the books.
    let _ = simulate(&small, &cfg);

    let (small_allocs, a) = allocs_during(|| simulate(&small, &cfg));
    let (big_allocs, b) = allocs_during(|| simulate(&big, &cfg));
    assert!(
        b.constructor.completed > a.constructor.completed,
        "the longer trace builds more frames"
    );

    let marginal = big_allocs.saturating_sub(small_allocs) as f64;
    let per_record = marginal / (big_n - small_n) as f64;
    assert!(
        per_record < MAX_ALLOCS_PER_RECORD,
        "{per_record:.2} allocations per extra record under RP, bound \
         {MAX_ALLOCS_PER_RECORD} ({small_allocs} allocations at {small_n} records, \
         {big_allocs} at {big_n})"
    );
}
