//! Optimization statistics.

use std::ops::AddAssign;

/// Per-frame (or accumulated) optimization statistics — the raw material of
/// the paper's Table 3.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Uops in the frame before optimization.
    pub uops_before: u64,
    /// Uops remaining after optimization.
    pub uops_after: u64,
    /// Loads before optimization.
    pub loads_before: u64,
    /// Loads remaining.
    pub loads_after: u64,
    /// Loads removed speculatively (across may-alias stores).
    pub speculative_load_removals: u64,
    /// Stores marked unsafe by speculative memory optimization.
    pub unsafe_stores: u64,
    /// Uops removed by NOP / unconditional-jump removal.
    pub nop_removed: u64,
    /// Uops folded to constants by constant propagation.
    pub const_folded: u64,
    /// Assertions proven redundant and deleted by constant propagation.
    pub asserts_removed: u64,
    /// Operands rewritten by reassociation (including copy propagation).
    pub reassociations: u64,
    /// Value redundancies collapsed by CSE (ALU).
    pub cse_alu: u64,
    /// Redundant loads eliminated by CSE (memory).
    pub cse_loads: u64,
    /// Loads eliminated by store forwarding.
    pub store_forwards: u64,
    /// Compare+assert fusions performed.
    pub assert_fusions: u64,
    /// Uops deleted by dead-code elimination.
    pub dce_removed: u64,
    /// Pass-pipeline iterations executed.
    pub iterations: u64,
    /// Uops repositioned by the optional rescheduling pass.
    pub rescheduled: u64,
    /// Uops whose slots each pass invalidated, indexed in `PassId::ALL`
    /// order (NOP, CP, RA, ASST, MEM, CSE, DCE). Measured as the drop in
    /// the frame's valid-uop count across each pass invocation, so the
    /// entries telescope exactly: their sum equals `removed_uops()`.
    pub removed_by_pass: [u64; 7],
    /// Rewrites each pass reported across all iterations, indexed in
    /// `PassId::ALL` order. Summed over a run, these are the per-pass
    /// `opt.pass.*.rewrites` counters; reused with each frame from the
    /// simulator's in-run memo, they make a memo hit count the same.
    pub rewrites_by_pass: [u64; 7],
}

impl OptStats {
    /// Uops removed in total.
    pub fn removed_uops(&self) -> u64 {
        self.uops_before.saturating_sub(self.uops_after)
    }

    /// Loads removed in total.
    pub fn removed_loads(&self) -> u64 {
        self.loads_before.saturating_sub(self.loads_after)
    }
}

impl AddAssign for OptStats {
    fn add_assign(&mut self, o: OptStats) {
        self.uops_before += o.uops_before;
        self.uops_after += o.uops_after;
        self.loads_before += o.loads_before;
        self.loads_after += o.loads_after;
        self.speculative_load_removals += o.speculative_load_removals;
        self.unsafe_stores += o.unsafe_stores;
        self.nop_removed += o.nop_removed;
        self.const_folded += o.const_folded;
        self.asserts_removed += o.asserts_removed;
        self.reassociations += o.reassociations;
        self.cse_alu += o.cse_alu;
        self.cse_loads += o.cse_loads;
        self.store_forwards += o.store_forwards;
        self.assert_fusions += o.assert_fusions;
        self.dce_removed += o.dce_removed;
        self.iterations += o.iterations;
        self.rescheduled += o.rescheduled;
        for (a, b) in self.removed_by_pass.iter_mut().zip(o.removed_by_pass) {
            *a += b;
        }
        for (a, b) in self.rewrites_by_pass.iter_mut().zip(o.rewrites_by_pass) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions() {
        let s = OptStats {
            uops_before: 100,
            uops_after: 79,
            loads_before: 50,
            loads_after: 39,
            ..OptStats::default()
        };
        assert_eq!(s.removed_uops(), 21);
        assert_eq!(s.removed_loads(), 11);
    }

    #[test]
    fn accumulation() {
        let mut a = OptStats {
            uops_before: 10,
            uops_after: 8,
            store_forwards: 1,
            ..OptStats::default()
        };
        let b = OptStats {
            uops_before: 20,
            uops_after: 15,
            store_forwards: 2,
            ..OptStats::default()
        };
        a += b;
        assert_eq!(a.uops_before, 30);
        assert_eq!(a.removed_uops(), 7);
        assert_eq!(a.store_forwards, 3);
    }
}
