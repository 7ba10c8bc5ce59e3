//! Memory-amplification guard for scattered addresses.
//!
//! `replay serve` accepts inline traces, so the simulator's address-keyed
//! structures — the golden memory, the first-touch set, the static
//! instruction index, the frame cache — must stay proportional to what a
//! trace touches however its addresses scatter. A radix table with wide
//! leaves, for one, pays a whole leaf per isolated page. The test builds a
//! trace whose every record puts its code and its data read in a 4 MiB
//! region of its own (regions repeat only once the 32-bit address space
//! wraps) and bounds the peak live heap of `simulate()` per record under
//! IC and RPO. The radix tables with 64-page leaves stand near 1.5 KB per
//! record, the hashed tables they replaced near 1.2 KB; 1024-page leaves
//! for the golden memory and the first-touch set push it past 5.4 KB.
//! The same records repeated four times through a 512-uop frame and trace
//! cache then build and evict frames and traces under RP and TC, held to
//! the same bound per distinct record.
//!
//! This file holds exactly one test: the byte-tracking
//! `#[global_allocator]` is binary-wide, and a lone test keeps the
//! measurement free of concurrent-test noise.

use replay_sim::{simulate, ConfigKind, SimConfig, SimResult};
use replay_trace::{Trace, TraceRecord};
use replay_uop::ArchReg;
use replay_x86::{encode, Gpr, Inst, MemOperand};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Peak live heap bytes while `f` runs, above the live bytes before it.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let r = f();
    (PEAK.load(Ordering::Relaxed) - before, r)
}

const RECORDS: usize = 4_000;

/// Upper bound on peak live heap per record, in bytes.
const MAX_BYTES_PER_RECORD: usize = 4_500;

/// Record `i` loads from 2 MiB into region `i` and jumps to region `i + 1`;
/// the `RECORDS` records repeat `passes` times.
fn scattered_trace(passes: usize) -> Trace {
    let code = |i: usize| (((i % RECORDS) as u32) << 22) | 0x1000;
    let records = (0..RECORDS * passes)
        .map(|n| {
            let i = n % RECORDS;
            let (addr, data) = (code(i), ((i as u32) << 22) | 0x20_0000);
            let inst = Inst::MovRM {
                dst: Gpr::Eax,
                mem: MemOperand::absolute(data),
            };
            TraceRecord {
                addr,
                len: encode(&inst, addr).len() as u8,
                inst,
                next_pc: code(i + 1),
                reg_writes: [(ArchReg::Eax.index() as u8, i as u32)].into(),
                mem_reads: [(data, i as u32)].into(),
                mem_writes: [].into(),
                flags_after: 0,
            }
        })
        .collect();
    Trace::new("scatter", records)
}

/// Peak live heap of `simulate(trace, cfg)` per distinct record must stay
/// within the bound.
fn assert_bounded(trace: &Trace, cfg: &SimConfig) -> SimResult {
    let (peak, r) = peak_during(|| simulate(trace, cfg));
    assert_eq!(
        r.x86_retired,
        trace.len() as u64,
        "{} retires every record",
        cfg.kind
    );
    let per_record = peak / RECORDS;
    assert!(
        per_record <= MAX_BYTES_PER_RECORD,
        "{}: peak live heap {peak} bytes is {per_record} per distinct record, bound \
         {MAX_BYTES_PER_RECORD}",
        cfg.kind
    );
    r
}

#[test]
fn scattered_addresses_do_not_amplify_memory() {
    let once = scattered_trace(1);
    for kind in [ConfigKind::ICache, ConfigKind::ReplayOpt] {
        assert_bounded(&once, &SimConfig::new(kind).without_verify());
    }

    // Run the footprint repeatedly through a small frame and trace cache,
    // so frames and traces are built and evicted at scattered entry
    // points; the bound still counts distinct records only.
    let repeated = scattered_trace(4);
    for (kind, cache) in [
        (ConfigKind::Replay, "frame_cache"),
        (ConfigKind::TraceCache, "trace_cache"),
    ] {
        let mut cfg = SimConfig::new(kind).without_verify();
        cfg.timing.frame_cache_uops = 512;
        let r = assert_bounded(&repeated, &cfg);
        for counter in ["inserts", "evictions"] {
            let n = r.profile.counter(&format!("{cache}.{counter}"));
            assert!(n > 0, "{kind}: {cache}.{counter} is {n}");
        }
    }
}
