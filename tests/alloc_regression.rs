//! Allocation regression guards for the simulator's per-record work.
//!
//! The simulator's per-record work must not touch the heap: decode flows
//! are translated once per static instruction into the trace's shared
//! static-instruction index, and the execution scratches are reused. The
//! hot-loop test measures whole-`simulate` allocation counts at two trace
//! lengths and bounds the *marginal* allocations per extra record well
//! below one; a record-at-a-time allocation creeping back in would push
//! the difference above 10,000 immediately. The preseed test pins that
//! setting up an injector on an already-indexed trace costs the same
//! whatever the trace's length.
//!
//! The counting `#[global_allocator]` is binary-wide, so the tests take
//! one lock and never measure concurrently.

use replay_sim::{simulate, ConfigKind, Injector, SimConfig};
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

#[test]
fn chunked_hot_loop_does_not_allocate_per_record() {
    let _serial = exclusive();
    let w = workloads::by_name("gzip").unwrap();
    let (small_n, big_n) = (10_000usize, 20_000usize);
    // Build both traces *before* measuring: synthesis allocates linearly
    // in the record count by design and is not under test here.
    let small = w.segment_trace(0, small_n);
    let big = w.segment_trace(0, big_n);
    let cfg = SimConfig::new(ConfigKind::ICache).without_verify();

    // Warm-up pass so one-time lazy initialization is off the books.
    let _ = simulate(&small, &cfg);

    let (small_allocs, a) = allocs_during(|| simulate(&small, &cfg));
    let (big_allocs, b) = allocs_during(|| simulate(&big, &cfg));
    assert!(b.cycles > a.cycles, "the longer trace simulates more work");

    // The marginal cost of 10,000 extra records. Fixed-size structures
    // (caches, scratches) were already paid for in `small_allocs`; what
    // remains is table growth and the longer trace's static index, built
    // on its first simulation (a few pooled arrays plus one translation
    // per static instruction) — both far below one allocation per record.
    let marginal = big_allocs.saturating_sub(small_allocs);
    let extra_records = (big_n - small_n) as u64;
    assert!(
        marginal < extra_records / 10,
        "{marginal} marginal allocations across {extra_records} extra records \
         (small run: {small_allocs}, big run: {big_allocs}) — the hot loop is \
         allocating per record again"
    );
}

#[test]
fn preseed_on_an_indexed_trace_does_not_walk_its_records() {
    let _serial = exclusive();
    let w = workloads::by_name("gzip").unwrap();
    let small = w.segment_trace(0, 10_000);
    let big = w.segment_trace(0, 20_000);
    small.static_index();
    big.static_index();
    // Warm-up, as above.
    Injector::new().preseed(&small);

    let preseed = |trace| {
        let mut inj = Injector::new();
        inj.preseed(trace);
        inj
    };
    let (small_allocs, _) = allocs_during(|| preseed(&small));
    let (big_allocs, _) = allocs_during(|| preseed(&big));
    // What remains is the golden memory's pages, which a twice-as-long
    // walk over the same loop barely adds to. Per-record work would scale
    // with the trace; per-instruction work (translating every flow again)
    // would cost at least one allocation per static instruction.
    assert!(
        small_allocs.abs_diff(big_allocs) < 10,
        "preseed allocated {small_allocs} times for 10,000 records and \
         {big_allocs} for 20,000 — it is walking the records again"
    );
    let statics = big.static_index().len() as u64;
    assert!(
        big_allocs < statics / 4,
        "preseed allocated {big_allocs} times for a trace of {statics} static \
         instructions — it is translating them again"
    );
}
