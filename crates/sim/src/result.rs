//! Simulation results.

use crate::ConfigKind;
use replay_core::OptStats;
use replay_frame::ConstructorStats;
use replay_obs::Profile;
use replay_timing::{CycleBins, PipelineStats};
use replay_verify::VerifyStats;

/// Everything measured by one simulation run (or an aggregation over a
/// workload's trace segments).
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Workload/trace name.
    pub workload: String,
    /// Configuration simulated.
    pub config: ConfigKind,
    /// Total cycles.
    pub cycles: u64,
    /// Retired x86 instructions (the *original* instruction count — the
    /// paper's effective-IPC basis).
    pub x86_retired: u64,
    /// Fetch-cycle breakdown (Figures 7/8 bins).
    pub bins: CycleBins,
    /// Pipeline counters.
    pub pipeline: PipelineStats,
    /// Accumulated optimizer statistics over all *constructed* frames
    /// (per-construction, not dynamically weighted).
    pub opt_stats: OptStats,
    /// Total dynamic uops injected by the trace.
    pub dyn_uops_total: u64,
    /// Dynamic uops saved by fetching optimized frames (each successful
    /// frame fetch saves `original - optimized` uops).
    pub dyn_uops_removed: u64,
    /// Total dynamic load uops injected.
    pub dyn_loads_total: u64,
    /// Dynamic loads saved by fetching optimized frames.
    pub dyn_loads_removed: u64,
    /// Frame-constructor counters.
    pub constructor: ConstructorStats,
    /// Fraction of retired x86 instructions delivered from frames.
    pub coverage: f64,
    /// Frames aborted by assertion fire or unsafe-store conflict.
    pub assert_events: u64,
    /// Frame instances that executed to completion but did not match the
    /// traced path (possible only when an assertion was optimized away by
    /// constant propagation; treated as aborts). Should be ~zero.
    pub path_mismatches: u64,
    /// State-verifier results (RPO with verification enabled).
    pub verify: VerifyStats,
    /// Dynamic uop-per-x86 ratio observed by the injector.
    pub uop_ratio: f64,
    /// The run's structured observability profile (`replay-obs`): per-pass
    /// optimizer attribution, cache/constructor/predictor counters, cycle
    /// bins, and (nondeterministic, hidden by default renderers) optimizer
    /// wall time. Merging results merges profiles metric-wise.
    pub profile: Profile,
}

impl SimResult {
    /// Retired x86 instructions per cycle — the paper's y-axis in Figure 6.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.x86_retired as f64 / self.cycles as f64
        }
    }

    /// Fraction of *dynamic* uops removed by the optimizer — the paper's
    /// Table 3, column 1 (instructions outside frames count as retained).
    pub fn uop_removal(&self) -> f64 {
        if self.dyn_uops_total == 0 {
            0.0
        } else {
            self.dyn_uops_removed as f64 / self.dyn_uops_total as f64
        }
    }

    /// Fraction of dynamic loads removed (Table 3 col. 2).
    pub fn load_removal(&self) -> f64 {
        if self.dyn_loads_total == 0 {
            0.0
        } else {
            self.dyn_loads_removed as f64 / self.dyn_loads_total as f64
        }
    }

    /// Merges another segment's result into this one (cycles and counts
    /// add; ratios recompute from the sums).
    pub fn merge(&mut self, other: &SimResult) {
        let total_before = self.x86_retired;
        self.cycles += other.cycles;
        self.x86_retired += other.x86_retired;
        self.bins += other.bins;
        self.opt_stats += other.opt_stats;
        self.dyn_uops_total += other.dyn_uops_total;
        self.dyn_uops_removed += other.dyn_uops_removed;
        self.dyn_loads_total += other.dyn_loads_total;
        self.dyn_loads_removed += other.dyn_loads_removed;
        self.assert_events += other.assert_events;
        self.path_mismatches += other.path_mismatches;
        self.pipeline.retired_x86 += other.pipeline.retired_x86;
        self.pipeline.retired_uops += other.pipeline.retired_uops;
        self.pipeline.mispredicts += other.pipeline.mispredicts;
        self.pipeline.btb_misses += other.pipeline.btb_misses;
        self.pipeline.assert_events += other.pipeline.assert_events;
        self.pipeline.frames_fetched += other.pipeline.frames_fetched;
        self.pipeline.branch_resolution_cycles += other.pipeline.branch_resolution_cycles;
        self.pipeline.branches_resolved += other.pipeline.branches_resolved;
        self.constructor.completed += other.constructor.completed;
        self.constructor.discarded += other.constructor.discarded;
        self.constructor.branches_converted += other.constructor.branches_converted;
        self.constructor.indirects_converted += other.constructor.indirects_converted;
        self.constructor.ended_by_branch += other.constructor.ended_by_branch;
        self.constructor.ended_by_indirect += other.constructor.ended_by_indirect;
        self.constructor.ended_by_size += other.constructor.ended_by_size;
        self.constructor.ended_by_fence += other.constructor.ended_by_fence;
        self.profile.merge(&other.profile);
        self.verify.checked += other.verify.checked;
        self.verify.passed += other.verify.passed;
        self.verify.failed += other.verify.failed;
        self.verify.skipped += other.verify.skipped;
        // Weighted averages by retired instructions.
        let total_after = self.x86_retired.max(1);
        let w_old = total_before as f64 / total_after as f64;
        let w_new = other.x86_retired as f64 / total_after as f64;
        self.coverage = self.coverage * w_old + other.coverage * w_new;
        self.uop_ratio = self.uop_ratio * w_old + other.uop_ratio * w_new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank(cycles: u64, x86: u64, coverage: f64) -> SimResult {
        SimResult {
            workload: "t".into(),
            config: ConfigKind::Replay,
            cycles,
            x86_retired: x86,
            bins: CycleBins::new(),
            pipeline: PipelineStats::default(),
            opt_stats: OptStats::default(),
            dyn_uops_total: 0,
            dyn_uops_removed: 0,
            dyn_loads_total: 0,
            dyn_loads_removed: 0,
            constructor: ConstructorStats::default(),
            coverage,
            assert_events: 0,
            path_mismatches: 0,
            verify: VerifyStats::default(),
            uop_ratio: 1.4,
            profile: Profile::new(),
        }
    }

    #[test]
    fn ipc_math() {
        let r = blank(100, 250, 0.5);
        assert!((r.ipc() - 2.5).abs() < 1e-12);
        assert_eq!(blank(0, 0, 0.0).ipc(), 0.0);
    }

    #[test]
    fn merge_weights_coverage() {
        let mut a = blank(100, 100, 1.0);
        let b = blank(100, 300, 0.0);
        a.merge(&b);
        assert_eq!(a.cycles, 200);
        assert_eq!(a.x86_retired, 400);
        assert!((a.coverage - 0.25).abs() < 1e-12, "weighted by x86 count");
        assert!((a.ipc() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn merge_recomputes_ipc_from_summed_cycles() {
        // IPC is *not* the average of the segment IPCs: it recomputes from
        // total instructions over total cycles (cycle-weighted).
        let mut a = blank(100, 400, 0.0); // IPC 4.0
        let b = blank(300, 300, 0.0); // IPC 1.0
        a.merge(&b);
        // (400 + 300) / (100 + 300) = 1.75, not (4.0 + 1.0) / 2.
        assert!((a.ipc() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn merge_sums_cycle_bins() {
        use replay_timing::CycleBin;
        let mut a = blank(10, 10, 0.0);
        a.bins.add(CycleBin::Frame, 6);
        a.bins.add(CycleBin::Assert, 4);
        let mut b = blank(20, 20, 0.0);
        b.bins.add(CycleBin::Frame, 5);
        b.bins.add(CycleBin::ICache, 15);
        a.merge(&b);
        assert_eq!(a.bins.get(CycleBin::Frame), 11);
        assert_eq!(a.bins.get(CycleBin::Assert), 4);
        assert_eq!(a.bins.get(CycleBin::ICache), 15);
        assert_eq!(a.bins.total(), 30);
    }

    #[test]
    fn merge_sums_counters_and_ratios_recompute() {
        let mut a = blank(100, 100, 0.0);
        a.dyn_uops_total = 1000;
        a.dyn_uops_removed = 100;
        a.dyn_loads_total = 200;
        a.dyn_loads_removed = 20;
        a.assert_events = 3;
        let mut b = blank(100, 100, 0.0);
        b.dyn_uops_total = 3000;
        b.dyn_uops_removed = 900;
        b.dyn_loads_total = 600;
        b.dyn_loads_removed = 160;
        b.assert_events = 4;
        a.merge(&b);
        assert_eq!(a.dyn_uops_total, 4000);
        assert_eq!(a.dyn_uops_removed, 1000);
        assert_eq!(a.assert_events, 7);
        assert!((a.uop_removal() - 0.25).abs() < 1e-12, "from summed counts");
        assert!((a.load_removal() - 180.0 / 800.0).abs() < 1e-12);
    }

    #[test]
    fn merge_weighted_averages_ignore_empty_segments() {
        // A zero-instruction segment contributes nothing to the weighted
        // coverage / uop-ratio averages.
        let mut a = blank(50, 200, 0.8);
        let b = blank(10, 0, 0.0);
        a.merge(&b);
        assert!((a.coverage - 0.8).abs() < 1e-12);
        assert!((a.uop_ratio - 1.4).abs() < 1e-12);
    }

    #[test]
    fn merge_is_associative_on_counters() {
        // The parallel engine folds segments left-to-right exactly like the
        // serial loop; the counter parts are associative, so a sanity check
        // that two groupings agree guards the fold against drift.
        let segs = [blank(10, 40, 0.1), blank(20, 10, 0.9), blank(5, 50, 0.5)];
        let mut left = segs[0].clone();
        left.merge(&segs[1]);
        left.merge(&segs[2]);
        let mut right_tail = segs[1].clone();
        right_tail.merge(&segs[2]);
        let mut right = segs[0].clone();
        right.merge(&right_tail);
        assert_eq!(left.cycles, right.cycles);
        assert_eq!(left.x86_retired, right.x86_retired);
        assert_eq!(left.ipc().to_bits(), right.ipc().to_bits());
    }
}
