//! The Trace-Cache configuration's fill unit and cache entries.

use replay_frame::CacheEntry;

/// A trace-cache line: a dynamic sequence of decoded x86 instructions with
/// up to three conditional branches (the paper's TC configuration, §5.3).
///
/// Unlike a frame, a trace is neither atomic nor single-exit: embedded
/// branches stay branches and are predicted at fetch; execution may leave
/// the trace at any of them (partial-trace fetch).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceEntry {
    /// Entry address.
    pub start_addr: u32,
    /// Covered instruction addresses in path order.
    pub x86_addrs: Vec<u32>,
    /// Total uops in the trace (cache slot cost).
    pub uop_count: usize,
}

impl CacheEntry for TraceEntry {
    fn slot_cost(&self) -> usize {
        self.uop_count
    }
}

/// Conditional branches that end a trace (the paper's TC configuration,
/// §5.3: three).
const MAX_BRANCHES: usize = 3;

/// Uops that end a trace: trace length is bounded like a wide cache line.
const MAX_UOPS: usize = 32;

/// The fill unit: continuously collects retired instructions into traces
/// of at most three conditional branches and 32 uops (`MAX_BRANCHES`,
/// `MAX_UOPS`).
///
/// The trace being filled lives as long as the fill unit: a completed
/// trace is lent to the caller until the next retire, which clears the
/// address buffer and reuses it for the next trace.
#[derive(Debug, Default)]
pub struct TraceFiller {
    /// The trace being filled, or the one just completed when `complete`;
    /// empty `x86_addrs` means none is.
    pending: TraceEntry,
    complete: bool,
    branches: usize,
}

impl TraceFiller {
    /// Creates a fill unit with the paper's limits: up to three branch
    /// micro-operations per trace; trace length bounded like a wide cache
    /// line.
    pub fn new() -> TraceFiller {
        TraceFiller::default()
    }

    /// Observes one retired instruction. Returns the completed trace when
    /// the limits are reached; it stays valid until the next call.
    ///
    /// `ends_trace` marks instructions after which the fill must stop
    /// regardless of limits (indirect jumps, serializing instructions).
    pub fn retire(
        &mut self,
        addr: u32,
        n_uops: usize,
        is_cond_branch: bool,
        ends_trace: bool,
    ) -> Option<&TraceEntry> {
        let pending = &mut self.pending;
        if self.complete {
            pending.x86_addrs.clear();
            self.complete = false;
        }
        if pending.x86_addrs.is_empty() {
            pending.start_addr = addr;
            pending.uop_count = 0;
        }
        pending.x86_addrs.push(addr);
        pending.uop_count += n_uops;
        if is_cond_branch {
            self.branches += 1;
        }
        if self.branches >= MAX_BRANCHES || pending.uop_count >= MAX_UOPS || ends_trace {
            self.branches = 0;
            self.complete = true;
            return Some(&self.pending);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_branches_complete_a_trace() {
        let mut f = TraceFiller::new();
        assert!(f.retire(0x10, 1, false, false).is_none());
        assert!(f.retire(0x11, 1, true, false).is_none());
        assert!(f.retire(0x20, 1, true, false).is_none());
        let t = f.retire(0x30, 1, true, false).expect("third branch");
        assert_eq!(t.start_addr, 0x10);
        assert_eq!(t.x86_addrs, vec![0x10, 0x11, 0x20, 0x30]);
        assert_eq!(t.uop_count, 4);
    }

    #[test]
    fn uop_limit_completes_a_trace() {
        let mut f = TraceFiller::new();
        assert!(f.retire(0x10, 16, false, false).is_none());
        assert!(f.retire(0x11, 15, false, false).is_none());
        let t = f.retire(0x12, 1, false, false).expect("uop limit");
        assert_eq!(t.uop_count, MAX_UOPS);
    }

    #[test]
    fn forced_end() {
        let mut f = TraceFiller::new();
        let t = f.retire(0x10, 3, false, true).expect("RET ends the trace");
        assert_eq!(t.x86_addrs, vec![0x10]);
    }

    #[test]
    fn next_trace_starts_fresh() {
        let mut f = TraceFiller::new();
        assert!(f.retire(0x10, 1, true, false).is_none());
        assert!(f.retire(0x20, 1, true, false).is_none());
        let t1 = f.retire(0x30, 1, true, false).cloned().unwrap();
        // The branch count restarts with the new trace: it too ends at
        // its own third branch.
        assert!(f.retire(0x50, 1, true, false).is_none());
        assert!(f.retire(0x60, 1, true, false).is_none());
        let t2 = f.retire(0x70, 1, true, false).cloned().unwrap();
        assert_eq!(t2.start_addr, 0x50);
        assert_eq!(t2.x86_addrs, vec![0x50, 0x60, 0x70]);
        // The fill unit reuses its buffer: a copy of the first trace
        // outlives the second fill, and a shorter trace keeps nothing of
        // a longer one.
        assert_eq!(t1.start_addr, 0x10);
        assert_eq!(t1.x86_addrs, vec![0x10, 0x20, 0x30]);
        let t3 = f.retire(0x90, 3, false, true).cloned().expect("forced end");
        assert_eq!(
            (t3.start_addr, t3.x86_addrs, t3.uop_count),
            (0x90, vec![0x90], 3)
        );
    }
}
