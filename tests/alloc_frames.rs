//! Allocation guards for frame construction and trace filling.
//!
//! Under basic rePLay every retired record feeds the frame constructor,
//! and under the Trace-Cache configuration every retired record feeds the
//! fill unit. Both build each frame or trace in one buffer they own for
//! their whole lifetime and hand out exact-size copies, so a build costs
//! one allocation per output vector however many records it covers. The
//! tests measure whole-`simulate` allocation counts (allocations plus
//! reallocations) at two trace lengths and bound the *marginal* count per
//! extra record, so fixed per-run costs cancel out.
//!
//! On gzip, what remains under RP scales with frames built and optimized:
//! about 0.19 per record in the optimized build, against 0.57 when every frame grew fresh vectors
//! one push at a time (and near 1.8 with a per-record staging vector).
//! Under TC it is one address vector and one `Arc` per filled trace that
//! differs from the trace resident under its key; a fill equal to it
//! (about two in three) reuses the resident `Arc`. That is about 0.06 per
//! record, against 0.13 when every fill was copied and 0.27 with a fresh
//! vector per trace.
//!
//! The counting `#[global_allocator]` is binary-wide, so the tests take
//! one lock and never measure concurrently.

use replay_sim::{simulate, ConfigKind, SimConfig, SimResult};
use replay_trace::workloads;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

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

/// Serializes the tests: a concurrent test's allocations would land in
/// the other's count.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    (ALLOCS.load(Ordering::Relaxed) - before, r)
}

/// Marginal allocations per extra record of gzip under `kind`, between
/// 10,000 and 20,000 records, with the two runs' results.
fn marginal_allocs_per_record(kind: ConfigKind) -> (f64, SimResult, SimResult) {
    let _serial = exclusive();
    let w = workloads::by_name("gzip").unwrap();
    let (small_n, big_n) = (10_000usize, 20_000usize);
    // Build both traces *before* measuring: synthesis is not under test.
    let small = w.segment_trace(0, small_n);
    let big = w.segment_trace(0, big_n);
    let cfg = SimConfig::new(kind).without_verify();

    // Warm-up pass so one-time lazy initialization is off the books.
    let _ = simulate(&small, &cfg);

    let (small_allocs, a) = allocs_during(|| simulate(&small, &cfg));
    let (big_allocs, b) = allocs_during(|| simulate(&big, &cfg));

    let marginal = big_allocs.saturating_sub(small_allocs) as f64;
    let per_record = marginal / (big_n - small_n) as f64;
    eprintln!(
        "{kind:?}: {per_record:.3} allocations per extra record ({small_allocs} at \
         {small_n} records, {big_allocs} at {big_n})"
    );
    (per_record, a, b)
}

/// Upper bound on heap allocations per additional record under RP. The
/// debug build cross-checks every frame-memo hit against a fresh remap,
/// which adds about 0.31 per record (0.50 there, against 0.88 with fresh
/// vectors per frame).
const MAX_ALLOCS_PER_RECORD: f64 = if cfg!(debug_assertions) { 0.7 } else { 0.3 };

/// Upper bound on heap allocations per additional record under TC.
const MAX_TC_ALLOCS_PER_RECORD: f64 = 0.08;

#[test]
fn frame_construction_allocations_per_record_are_bounded() {
    let (per_record, a, b) = marginal_allocs_per_record(ConfigKind::Replay);
    assert!(
        b.constructor.completed > a.constructor.completed,
        "the longer trace builds more frames"
    );
    assert!(
        per_record < MAX_ALLOCS_PER_RECORD,
        "{per_record:.3} allocations per extra record under RP, bound {MAX_ALLOCS_PER_RECORD}"
    );
}

#[test]
fn trace_fill_allocations_per_record_are_bounded() {
    let (per_record, a, b) = marginal_allocs_per_record(ConfigKind::TraceCache);
    assert!(
        b.coverage * b.x86_retired as f64 > a.coverage * a.x86_retired as f64,
        "the longer trace fetches more from the trace cache"
    );
    assert!(
        per_record < MAX_TC_ALLOCS_PER_RECORD,
        "{per_record:.3} allocations per extra record under TC, bound \
         {MAX_TC_ALLOCS_PER_RECORD}"
    );
}
