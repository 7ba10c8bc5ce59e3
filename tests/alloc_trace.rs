//! Allocation guards for trace synthesis, digesting and decoding.
//!
//! A record has no heap part: its register writes, loads and stores are
//! inline lists. Synthesis fills each record straight from the
//! interpreter's uop effects, translating into one reused flow buffer;
//! `trace_digest` encodes each instruction into one reused byte buffer;
//! `read_trace` decodes each instruction from a stack buffer. Each
//! therefore allocates a handful of buffers per trace, however many
//! records it holds. Per-step vectors cost synthesis 2.01 allocations a
//! record, a fresh encoding cost the digest 1.01, and heap effect vectors
//! with a heap instruction buffer cost decoding 2.09.

use replay_trace::{read_trace, trace_digest, workloads, write_trace, Trace};
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

/// The counter is process-wide: tests hold this lock so a concurrent
/// test's allocations never land in another's window.
fn exclusive() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Upper bound on heap allocations per decoded or digested record.
const MAX_ALLOCS_PER_RECORD: f64 = 0.01;

/// Upper bound on heap allocations per synthesized record. Synthesis also
/// builds the segment's program (its image, labels and data), a fixed
/// cost of about fifty allocations.
const MAX_SYNTH_ALLOCS_PER_RECORD: f64 = 0.05;

const RECORDS: usize = 20_000;

fn gzip_trace() -> Trace {
    workloads::by_name("gzip")
        .unwrap()
        .segment_trace(0, RECORDS)
}

/// Runs `f`, which handles `RECORDS` records, and asserts it made fewer
/// than `bound` allocations a record.
fn assert_allocs_per_record<R>(what: &str, bound: f64, f: impl FnOnce() -> R) -> R {
    let before = ALLOCS.load(Ordering::Relaxed);
    let r = f();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    eprintln!("{what}: {allocs} allocations for {RECORDS} records");
    let per_record = allocs as f64 / RECORDS as f64;
    assert!(
        per_record < bound,
        "{what}: {per_record:.4} allocations per record, bound {bound}"
    );
    r
}

#[test]
fn synthesis_does_not_allocate_per_record() {
    let _serial = exclusive();
    let gzip = workloads::by_name("gzip").unwrap();
    let trace = assert_allocs_per_record("segment_trace", MAX_SYNTH_ALLOCS_PER_RECORD, || {
        gzip.segment_trace(0, RECORDS)
    });
    assert_eq!(trace.len(), RECORDS);
}

#[test]
fn trace_digest_does_not_allocate_per_record() {
    let _serial = exclusive();
    let trace = gzip_trace();
    assert_allocs_per_record("trace_digest", MAX_ALLOCS_PER_RECORD, || {
        trace_digest(&trace).unwrap()
    });
}

#[test]
fn read_trace_does_not_allocate_per_record() {
    let _serial = exclusive();
    let trace = gzip_trace();
    let mut file = Vec::new();
    write_trace(&mut file, &trace).unwrap();
    let back = assert_allocs_per_record("read_trace", MAX_ALLOCS_PER_RECORD, || {
        read_trace(&file[..]).unwrap()
    });
    assert_eq!(back.records(), trace.records());
}
