//! The optimization pipeline: configuration and the pass driver.

use crate::passid::{run_pass, PassId};
use crate::{AliasProfile, OptFrame, OptStats};
use replay_frame::Frame;
use replay_obs::{Hist, Profile};
use std::time::Instant;

/// The scope at which optimizations are applied (§3, §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptScope {
    /// Optimize the frame as one atomic unit — the full rePLay model.
    #[default]
    Frame,
    /// Optimize each constituent basic block individually (the paper's
    /// Figure 9 "Block" configuration): no transformation crosses a block
    /// boundary and every block preserves its architectural outputs.
    Block,
    /// The trace-cache model of Figure 2's fourth column: a single entry
    /// point is assumed (transformations may reach backward across
    /// blocks), but intermediate exits are still possible, so every block
    /// except the last must preserve its general-purpose outputs.
    InterBlock,
}

/// Which optimizations run, and how. Field names follow the paper's
/// Figure 10 ablation labels.
#[derive(Debug, Clone)]
pub struct OptConfig {
    /// Optimization scope (frame-level vs block-level).
    pub scope: OptScope,
    /// ASST: value-assertion fusion (compare + assert → one uop).
    pub assert_fuse: bool,
    /// CP: constant propagation.
    pub const_prop: bool,
    /// CSE: common-subexpression elimination (ALU and redundant loads).
    pub cse: bool,
    /// NOP: NOP and intra-frame unconditional-jump removal.
    pub nop_removal: bool,
    /// RA: reassociation (and copy propagation).
    pub reassoc: bool,
    /// SF: store forwarding.
    pub store_fwd: bool,
    /// Allow speculative memory optimization across may-alias stores
    /// (unsafe-store marking, §3.4). Applies to both CSE loads and SF.
    pub speculative_memory: bool,
    /// Maximum pass-pipeline iterations (passes enable one another, so the
    /// pipeline loops until quiescent or this bound).
    pub max_iterations: usize,
    /// Extension (§4 position field): reorder the final frame by dataflow
    /// criticality during cleanup. Off in the paper's evaluated
    /// configuration; see `DESIGN.md`.
    pub reschedule: bool,
}

impl Default for OptConfig {
    /// Everything enabled at frame scope — the paper's RPO configuration.
    fn default() -> OptConfig {
        OptConfig {
            scope: OptScope::Frame,
            assert_fuse: true,
            const_prop: true,
            cse: true,
            nop_removal: true,
            reassoc: true,
            store_fwd: true,
            speculative_memory: true,
            max_iterations: 4,
            reschedule: false,
        }
    }
}

impl OptConfig {
    /// The configuration with every optimization disabled (dead-code
    /// elimination still runs — it is the collector every pass relies on,
    /// and on an untouched frame it removes nothing that was live).
    pub fn none() -> OptConfig {
        OptConfig {
            scope: OptScope::Frame,
            assert_fuse: false,
            const_prop: false,
            cse: false,
            nop_removal: false,
            reassoc: false,
            store_fwd: false,
            speculative_memory: false,
            max_iterations: 1,
            reschedule: false,
        }
    }

    /// The default configuration with one named optimization disabled —
    /// the paper's Figure 10 leave-one-out trials ([`OptConfig::disable`]
    /// names the optimizations).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized name.
    pub fn without(name: &str) -> OptConfig {
        OptConfig::default().disable(name)
    }

    /// This configuration with one named optimization disabled (builder
    /// style). Recognized names (case insensitive): `ASST`, `CP`, `CSE`,
    /// `NOP`, `RA`, `SF`.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized name.
    pub fn disable(mut self, name: &str) -> OptConfig {
        match name.to_ascii_uppercase().as_str() {
            "ASST" => self.assert_fuse = false,
            "CP" => self.const_prop = false,
            "CSE" => self.cse = false,
            "NOP" => self.nop_removal = false,
            "RA" => self.reassoc = false,
            "SF" => self.store_fwd = false,
            other => panic!("unknown optimization {other:?}"),
        }
        self
    }

    /// The default configuration restricted to block scope (Figure 9).
    pub fn block_scope() -> OptConfig {
        OptConfig {
            scope: OptScope::Block,
            ..OptConfig::default()
        }
    }

    /// The default configuration at inter-block (trace-cache) scope —
    /// Figure 2's fourth column.
    pub fn inter_block_scope() -> OptConfig {
        OptConfig {
            scope: OptScope::InterBlock,
            ..OptConfig::default()
        }
    }

    /// True if the configuration enables the given pass. Dead-code
    /// elimination is always on (it is the collector every other pass
    /// relies on); the memory pass runs if either of its halves does.
    pub fn enables(&self, pass: PassId) -> bool {
        match pass {
            PassId::NopRemoval => self.nop_removal,
            PassId::ConstProp => self.const_prop,
            PassId::Reassociate => self.reassoc,
            PassId::AssertFuse => self.assert_fuse,
            PassId::MemoryOpt => self.store_fwd || self.cse,
            PassId::CseAlu => self.cse,
            PassId::Dce => true,
        }
    }
}

/// Optimizes a frame: remap → pass pipeline → cleanup/compaction.
///
/// Returns the compacted, renamed frame ready for the frame cache, together
/// with per-frame statistics. Passes run in the order NOP → CP → RA → ASST
/// → memory (SF + redundant loads) → ALU CSE → DCE, and the whole sequence
/// repeats until no pass changes anything (bounded by
/// [`OptConfig::max_iterations`]) — reassociation is the gateway that
/// exposes memory redundancies to the later passes (§6.4).
///
/// # Example
///
/// ```
/// use replay_core::{optimize, AliasProfile, OptConfig};
/// use replay_frame::{Frame, FrameId};
/// use replay_uop::{ArchReg, Uop};
///
/// let frame = Frame {
///     id: FrameId(0),
///     start_addr: 0,
///     uops: vec![
///         Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
///         Uop::load(ArchReg::Ebx, ArchReg::Esp, -4),
///     ],
///     x86_addrs: vec![0],
///     block_starts: vec![0],
///     expectations: vec![],
///     exit_next: 8,
///     orig_uop_count: 2,
/// };
/// let (opt, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
/// assert_eq!(stats.store_forwards, 1);
/// assert_eq!(opt.uop_count(), 1); // only the store remains
/// ```
pub fn optimize(frame: &Frame, profile: &AliasProfile, cfg: &OptConfig) -> (OptFrame, OptStats) {
    run_pipeline(frame, profile, cfg, None)
}

/// Host wall time spent in the optimizer, summed over every frame a caller
/// optimizes through [`optimize_timed`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptTimings {
    /// Frames optimized.
    pub frames: u64,
    /// Nanoseconds from remapping to the end of cleanup (`opt.time_ns`).
    pub total_ns: u64,
    /// Nanoseconds inside each pass, in [`PassId::ALL`] order
    /// (`opt.pass.<NAME>.time_ns`).
    pub pass_ns: [u64; 7],
}

/// [`optimize`], adding the wall time of the whole pipeline and of each pass
/// into `timings`. The optimized frame and its statistics are identical.
pub fn optimize_timed(
    frame: &Frame,
    profile: &AliasProfile,
    cfg: &OptConfig,
    timings: &mut OptTimings,
) -> (OptFrame, OptStats) {
    run_pipeline(frame, profile, cfg, Some(timings))
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn run_pipeline(
    frame: &Frame,
    profile: &AliasProfile,
    cfg: &OptConfig,
    mut timings: Option<&mut OptTimings>,
) -> (OptFrame, OptStats) {
    let start = timings.is_some().then(Instant::now);
    let mut f = OptFrame::from_frame(frame);
    let mut stats = OptStats {
        uops_before: f.uop_count() as u64,
        loads_before: f.load_count() as u64,
        ..OptStats::default()
    };

    for _ in 0..cfg.max_iterations.max(1) {
        let mut changed = 0u64;
        for (pi, pass) in PassId::ALL.into_iter().enumerate() {
            if cfg.enables(pass) {
                let pass_start = timings.is_some().then(Instant::now);
                let valid_before = f.uop_count();
                let rewrites = run_pass(&mut f, pass, cfg, profile, &mut stats);
                changed += rewrites;
                stats.rewrites_by_pass[pi] += rewrites;
                // Valid-slot delta: which pass actually invalidated uops.
                // Never negative (no pass materializes new uops), and the
                // deltas telescope to uops_before - uops_after because
                // compact() drops only already-invalid slots.
                stats.removed_by_pass[pi] += valid_before.saturating_sub(f.uop_count()) as u64;
                if let (Some(t), Some(s)) = (timings.as_deref_mut(), pass_start) {
                    t.pass_ns[pi] += elapsed_ns(s);
                }
            }
        }
        stats.iterations += 1;
        if changed == 0 {
            break;
        }
    }

    f.compact();
    if cfg.reschedule {
        stats.rescheduled = crate::schedule::reschedule(&mut f);
    }
    stats.uops_after = f.uop_count() as u64;
    stats.loads_after = f.load_count() as u64;
    stats.unsafe_stores = f.unsafe_store_count() as u64;
    if let (Some(t), Some(s)) = (timings, start) {
        t.frames += 1;
        t.total_ns += elapsed_ns(s);
    }
    (f, stats)
}

/// Emits a run's optimizer metrics once, from totals its caller kept while
/// optimizing (or reusing already optimized) frames:
///
/// * `removed`, one sample of [`OptStats::removed_uops`] per frame, is the
///   histogram `opt.frame_removed_uops`, and its sample count `opt.frames`;
/// * `stats`, the sum of every frame's [`OptStats`], gives the counters
///   `opt.iterations`, `opt.pass.<NAME>.rewrites` (every pass `cfg`
///   enables) and `opt.pass.<NAME>.removed_uops` (nonzero ones);
/// * `timings` gives the durations `opt.time_ns` and
///   `opt.pass.<NAME>.time_ns` (every pass `cfg` enables).
///
/// A run that handled no frame emits no counter, and one that ran no pass
/// emits no duration, so a frame whose result is reused from an earlier
/// identical one counts exactly as a freshly optimized one while adding no
/// time.
pub fn observe_opt_totals(
    profile: &mut Profile,
    cfg: &OptConfig,
    stats: &OptStats,
    removed: &Hist,
    timings: &OptTimings,
) {
    if removed.count() > 0 {
        profile.counter_add("opt.frames", removed.count());
        profile.counter_add("opt.iterations", stats.iterations);
        profile.hist_merge("opt.frame_removed_uops", removed);
        for (pi, pass) in PassId::ALL.into_iter().enumerate() {
            if cfg.enables(pass) {
                profile.counter_add(
                    &format!("opt.pass.{}.rewrites", pass.name()),
                    stats.rewrites_by_pass[pi],
                );
            }
            if stats.removed_by_pass[pi] != 0 {
                profile.counter_add(
                    &format!("opt.pass.{}.removed_uops", pass.name()),
                    stats.removed_by_pass[pi],
                );
            }
        }
    }
    if timings.frames > 0 {
        profile.duration_add_ns("opt.time_ns", timings.total_ns);
        for (pi, pass) in PassId::ALL.into_iter().enumerate() {
            if cfg.enables(pass) {
                profile.duration_add_ns(
                    &format!("opt.pass.{}.time_ns", pass.name()),
                    timings.pass_ns[pi],
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_frame::{ControlExpectation, FrameId};
    use replay_uop::{ArchReg, Cond, Opcode, Uop};

    /// The running example of the paper's Figure 2: the two basic blocks of
    /// a crafty procedure, as translated micro-operations (column 2).
    fn figure2_frame() -> Frame {
        use ArchReg::*;
        let uops = vec![
            /* 01 */ Uop::store(Esp, -4, Ebp).at(0x10),
            /* 02 */ Uop::lea(Esp, Esp, None, 1, -4).at(0x10),
            /* 03 */ Uop::store(Esp, -4, Ebx).at(0x11),
            /* 04 */ Uop::lea(Esp, Esp, None, 1, -4).at(0x11),
            /* 05 */ Uop::load(Ecx, Esp, 0xc).at(0x12),
            /* 06 */ Uop::load(Ebx, Esp, 0x10).at(0x16),
            /* 07 */ Uop::alu(Opcode::Xor, Eax, Eax, Eax).at(0x1a),
            /* 08 */ Uop::mov(Edx, Ecx).at(0x1c),
            /* 09 */ Uop::alu(Opcode::Or, Edx, Edx, Ebx).at(0x1e),
            /* 10 */ Uop::assert_cc(Cond::Eq).at(0x20), // biased-taken JZ
            /* 11 */ Uop::lea(Esp, Esp, None, 1, 4).at(0x30),
            /* 12 */ Uop::load(Ebx, Esp, -4).at(0x30),
            /* 13 */ Uop::lea(Esp, Esp, None, 1, 4).at(0x31),
            /* 14 */ Uop::load(Ebp, Esp, -4).at(0x31),
            /* 15 */ Uop::load(Et2, Esp, 0).at(0x32),
            /* 16 */ Uop::lea(Esp, Esp, None, 1, 4).at(0x32),
            /* 17 */ Uop::jmp_ind(Et2).at(0x32),
        ];
        Frame {
            id: FrameId(2),
            start_addr: 0x10,
            x86_addrs: vec![
                0x10, 0x11, 0x12, 0x16, 0x1a, 0x1c, 0x1e, 0x20, 0x30, 0x31, 0x32,
            ],
            block_starts: vec![0, 10],
            expectations: vec![ControlExpectation {
                x86_addr: 0x20,
                expected_next: 0x30,
                uop_index: 9,
            }],
            exit_next: 0x5000,
            orig_uop_count: uops.len(),
            uops,
        }
    }

    #[test]
    fn figure2_frame_level_optimization() {
        // The paper removes 7 of 17 uops at frame level, including 2 of
        // the 5 loads (§3.3). Our translation differs slightly in uop 10
        // (already an assert) and 17 (kept as the frame exit), but the
        // same redundancies must disappear:
        //  - one of the two PUSH stack updates (02 or 04),
        //  - the POP updates 11/13 merge into 16,
        //  - the MOV 08 dies after copy propagation,
        //  - load 12 forwards from store 03 (EBX),
        //  - load 14 forwards from store 01 (EBP).
        let (f, stats) = optimize(
            &figure2_frame(),
            &AliasProfile::empty(),
            &OptConfig::default(),
        );
        assert!(
            stats.removed_uops() >= 6,
            "expected >=6 of 17 removed, got {} (listing:\n{})",
            stats.removed_uops(),
            f.listing()
        );
        assert_eq!(stats.removed_loads(), 2, "loads 12 and 14 forwarded");
        assert!(stats.store_forwards >= 2);
        assert!(stats.reassociations >= 4);
        // The assert (expectation) survives.
        assert_eq!(f.expectations().len(), 1);
    }

    #[test]
    fn figure2_scopes_form_a_hierarchy() {
        // Figure 2's columns: intra-block < inter-block < frame-level.
        let run = |cfg: &OptConfig| {
            optimize(&figure2_frame(), &AliasProfile::empty(), cfg)
                .1
                .removed_uops()
        };
        let block = run(&OptConfig::block_scope());
        let inter = run(&OptConfig::inter_block_scope());
        let frame = run(&OptConfig::default());
        assert!(block <= inter, "block {block} <= inter {inter}");
        assert!(inter <= frame, "inter {inter} <= frame {frame}");
        assert!(block < frame, "the hierarchy is strict end to end");
        // Inter-block allows the cross-block EBP forward (paper's 14) but
        // must keep block 1's EBX/ECX outputs alive.
        let (f, stats) = optimize(
            &figure2_frame(),
            &AliasProfile::empty(),
            &OptConfig::inter_block_scope(),
        );
        assert!(
            stats.store_forwards >= 1,
            "EBP reload forwarded:\n{}",
            f.listing()
        );
    }

    #[test]
    fn figure2_block_level_is_weaker() {
        let (_f, frame_stats) = optimize(
            &figure2_frame(),
            &AliasProfile::empty(),
            &OptConfig::default(),
        );
        let (_f, block_stats) = optimize(
            &figure2_frame(),
            &AliasProfile::empty(),
            &OptConfig::block_scope(),
        );
        assert!(
            block_stats.removed_uops() < frame_stats.removed_uops(),
            "block {} vs frame {}",
            block_stats.removed_uops(),
            frame_stats.removed_uops()
        );
        // Inter-block store forwarding (loads 12/14) is impossible at
        // block scope.
        assert_eq!(block_stats.store_forwards, 0);
    }

    #[test]
    fn disabling_reassociation_blocks_memory_opts() {
        // The gateway effect (§6.4): without RA the stack-pointer chain
        // hides the store/load address equality.
        let (_f, stats) = optimize(
            &figure2_frame(),
            &AliasProfile::empty(),
            &OptConfig::without("RA"),
        );
        assert_eq!(stats.store_forwards, 0, "no SF without RA");
    }

    #[test]
    fn none_config_changes_nothing() {
        let (f, stats) = optimize(&figure2_frame(), &AliasProfile::empty(), &OptConfig::none());
        assert_eq!(stats.removed_uops(), 0);
        assert_eq!(f.uop_count(), 17);
    }

    #[test]
    fn without_is_leave_one_out() {
        for name in ["ASST", "CP", "CSE", "NOP", "RA", "SF"] {
            let cfg = OptConfig::without(name);
            let disabled = [
                !cfg.assert_fuse,
                !cfg.const_prop,
                !cfg.cse,
                !cfg.nop_removal,
                !cfg.reassoc,
                !cfg.store_fwd,
            ]
            .iter()
            .filter(|&&d| d)
            .count();
            assert_eq!(disabled, 1, "{name} disables exactly one pass");
        }
        let all_off = ["ASST", "CP", "CSE", "NOP", "RA", "SF"]
            .into_iter()
            .fold(OptConfig::default(), OptConfig::disable);
        let none = OptConfig::none();
        assert_eq!(
            (all_off.assert_fuse, all_off.const_prop, all_off.cse),
            (none.assert_fuse, none.const_prop, none.cse)
        );
        assert_eq!(
            (all_off.nop_removal, all_off.reassoc, all_off.store_fwd),
            (none.nop_removal, none.reassoc, none.store_fwd)
        );
    }

    #[test]
    #[should_panic(expected = "unknown optimization")]
    fn without_rejects_unknown() {
        OptConfig::without("FOO");
    }

    #[test]
    fn call_ret_collapse() {
        // CALL + callee RET inside one frame: the return-address load is
        // forwarded and the target assertion evaporates, exactly the §3.3
        // "larger frame" discussion.
        use ArchReg::*;
        let uops = vec![
            // CALL 0x5000 (return address 0x105)
            Uop::mov_imm(Et1, 0x105).at(0x100),
            Uop::store(Esp, -4, Et1).at(0x100),
            Uop::lea(Esp, Esp, None, 1, -4).at(0x100),
            Uop::jmp(0x5000).at(0x100),
            // callee body
            Uop::alu_imm(Opcode::Add, Eax, Eax, 1).at(0x5000),
            // RET (biased to 0x105): ET2 <- [ESP]; ESP += 4; assert ET2 == 0x105
            Uop::load(Et2, Esp, 0).at(0x5002),
            Uop::lea(Esp, Esp, None, 1, 4).at(0x5002),
            Uop::assert_cmp(Cond::Eq, Et2, None, 0x105).at(0x5002),
            // back at the call site
            Uop::alu_imm(Opcode::Add, Ebx, Ebx, 1).at(0x105),
        ];
        let frame = Frame {
            id: FrameId(9),
            start_addr: 0x100,
            x86_addrs: vec![0x100, 0x5000, 0x5002, 0x105],
            block_starts: vec![0, 4, 8],
            expectations: vec![ControlExpectation {
                x86_addr: 0x5002,
                expected_next: 0x105,
                uop_index: 7,
            }],
            exit_next: 0x110,
            orig_uop_count: uops.len(),
            uops,
        };
        let (f, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        // The jump, the return-address load, the assert, and one ESP
        // update must all be gone. The return-address store and MovImm may
        // also die is not possible (stores are never removed).
        assert!(stats.asserts_removed >= 1, "RET assert proven true");
        assert!(stats.store_forwards >= 1, "return address forwarded");
        assert!(stats.nop_removed >= 1, "intra-frame jump removed");
        assert!(f.expectations().is_empty());
        assert!(
            stats.removed_uops() >= 4,
            "got {} removed:\n{}",
            stats.removed_uops(),
            f.listing()
        );
    }

    #[test]
    fn stats_iterations_bounded() {
        let (_f, stats) = optimize(
            &figure2_frame(),
            &AliasProfile::empty(),
            &OptConfig {
                max_iterations: 2,
                ..OptConfig::default()
            },
        );
        assert!(stats.iterations <= 2);
    }
}
