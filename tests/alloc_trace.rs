//! Allocation guard for trace decoding.
//!
//! A record has no heap part: its register writes, loads and stores are
//! inline lists, and `read_trace` decodes each instruction from a stack
//! buffer. Decoding a trace therefore allocates its record vector, its
//! name and little else, however many records it holds (two allocations
//! for this 20,000-record trace). Heap effect vectors and a heap
//! instruction buffer per record made it cost 2.09 allocations a record.

use replay_trace::{read_trace, workloads, write_trace};
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

/// Upper bound on heap allocations per decoded record.
const MAX_ALLOCS_PER_RECORD: f64 = 0.01;

#[test]
fn read_trace_does_not_allocate_per_record() {
    const RECORDS: usize = 20_000;
    let trace = workloads::by_name("gzip")
        .unwrap()
        .segment_trace(0, RECORDS);
    let mut file = Vec::new();
    write_trace(&mut file, &trace).unwrap();

    let before = ALLOCS.load(Ordering::Relaxed);
    let back = read_trace(&file[..]).unwrap();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;

    assert_eq!(back.records(), trace.records());
    let per_record = allocs as f64 / back.len() as f64;
    eprintln!(
        "read_trace: {allocs} allocations for {} records",
        back.len()
    );
    assert!(
        per_record < MAX_ALLOCS_PER_RECORD,
        "{per_record:.4} allocations per record, bound {MAX_ALLOCS_PER_RECORD}"
    );
}
