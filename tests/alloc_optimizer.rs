//! Allocation guard for the optimizer layer.
//!
//! Optimizing a frame allocates its renamed buffer, the passes' lookup
//! tables and the compacted result; it must not also allocate for
//! bookkeeping around the passes — metric names formatted per frame,
//! owned keys inserted per metric, per-hit clones of memory-pass entries.
//! The test measures whole-`simulate` allocation counts under RPO at two
//! trace lengths and bounds the *marginal* allocations per additionally
//! optimized frame (`opt.frames`), so fixed per-run costs cancel out.
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

/// Upper bound on heap allocations per additionally optimized frame. The
/// marginal count covers everything that scales with frames — building
/// the frame, optimizing it, caching it — and stands near 67; recording
/// seventeen-odd metrics per frame, each with a formatted name and an
/// owned map key, put it near 126.
const MAX_ALLOCS_PER_FRAME: f64 = 95.0;

#[test]
fn optimizer_allocations_per_frame_are_bounded() {
    let w = workloads::by_name("gzip").unwrap();
    let (small_n, big_n) = (10_000usize, 30_000usize);
    // Build both traces *before* measuring: synthesis is not under test.
    let small = w.segment_trace(0, small_n);
    let big = w.segment_trace(0, big_n);
    let cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();

    // Warm-up pass so one-time lazy initialization is off the books.
    let _ = simulate(&small, &cfg);

    let (small_allocs, a) = allocs_during(|| simulate(&small, &cfg));
    let (big_allocs, b) = allocs_during(|| simulate(&big, &cfg));
    let (small_frames, big_frames) = (
        a.profile.counter("opt.frames"),
        b.profile.counter("opt.frames"),
    );
    assert!(
        big_frames > small_frames,
        "the longer trace optimizes more frames ({small_frames} vs {big_frames})"
    );

    let marginal = big_allocs.saturating_sub(small_allocs) as f64;
    let per_frame = marginal / (big_frames - small_frames) as f64;
    assert!(
        per_frame <= MAX_ALLOCS_PER_FRAME,
        "{per_frame:.1} allocations per extra optimized frame exceeds \
         {MAX_ALLOCS_PER_FRAME} ({small_allocs} allocations / {small_frames} frames at \
         {small_n} records, {big_allocs} / {big_frames} at {big_n})"
    );
}
