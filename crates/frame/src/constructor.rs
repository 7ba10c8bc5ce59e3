//! The frame constructor.
//!
//! Watches the retired micro-operation stream, converts dynamically biased
//! branches into assertions, and merges the constituent basic blocks into
//! atomic frames of 8–256 uops (the paper's configuration, §5.3).
//!
//! The frame-size floor ([`MIN_FRAME_UOPS`]) and the start-address warm-up
//! ([`HOT_THRESHOLD`]) are constants; only the size ceiling and the branch
//! bias threshold, which the sensitivity sweeps vary, are configurable.

use crate::{BiasTable, BranchOutcome, ControlExpectation, Direction, Frame, FrameId};
use replay_uop::{Cond, Opcode, Uop};
use std::collections::HashMap;

/// Frames smaller than this many uops are discarded (paper §5.3: 8).
pub const MIN_FRAME_UOPS: usize = 8;

/// Times a start address must be seen before a frame is built there.
const HOT_THRESHOLD: u32 = 2;

/// Configuration of the frame constructor.
#[derive(Debug, Clone)]
pub struct ConstructorConfig {
    /// Frames never grow beyond this many uops (paper: 256).
    pub max_uops: usize,
    /// Consecutive same-direction outcomes before a branch is biased.
    pub bias_threshold: u32,
}

impl Default for ConstructorConfig {
    fn default() -> ConstructorConfig {
        ConstructorConfig {
            max_uops: 256,
            bias_threshold: 8,
        }
    }
}

/// One retired x86 instruction, as seen by the frame constructor: its
/// address, its decode flow, and where control actually went next.
#[derive(Debug, Clone)]
pub struct RetireEvent<'a> {
    /// Instruction address.
    pub addr: u32,
    /// The instruction's uop flow (in program order).
    pub uops: &'a [Uop],
    /// Address of the next instruction actually executed.
    pub next_pc: u32,
    /// The fall-through address (`addr + length`).
    pub fallthrough: u32,
}

/// Counters describing constructor activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConstructorStats {
    /// Frames successfully completed.
    pub completed: u64,
    /// Frames discarded for being under the minimum size.
    pub discarded: u64,
    /// Conditional branches converted to assertions.
    pub branches_converted: u64,
    /// Indirect jumps converted to target assertions.
    pub indirects_converted: u64,
    /// Frames ended by an unbiased conditional branch.
    pub ended_by_branch: u64,
    /// Frames ended by an unbiased indirect jump.
    pub ended_by_indirect: u64,
    /// Frames ended by reaching the uop-count limit.
    pub ended_by_size: u64,
    /// Frames ended by a serializing instruction.
    pub ended_by_fence: u64,
}

impl ConstructorStats {
    /// Records every counter under `<prefix>.<counter>` into a
    /// [`replay_obs::Profile`].
    pub fn observe_into(&self, prefix: &str, profile: &mut replay_obs::Profile) {
        profile.counter_add(&format!("{prefix}.completed"), self.completed);
        profile.counter_add(&format!("{prefix}.discarded"), self.discarded);
        profile.counter_add(
            &format!("{prefix}.branches_converted"),
            self.branches_converted,
        );
        profile.counter_add(
            &format!("{prefix}.indirects_converted"),
            self.indirects_converted,
        );
        profile.counter_add(&format!("{prefix}.ended_by_branch"), self.ended_by_branch);
        profile.counter_add(
            &format!("{prefix}.ended_by_indirect"),
            self.ended_by_indirect,
        );
        profile.counter_add(&format!("{prefix}.ended_by_size"), self.ended_by_size);
        profile.counter_add(&format!("{prefix}.ended_by_fence"), self.ended_by_fence);
    }
}

/// The frame under construction. The constructor keeps one for its whole
/// lifetime: a new frame clears its vectors and [`FrameConstructor::finish`]
/// copies them out exactly sized, so building a frame regrows nothing once
/// the buffers have reached the largest frame seen.
#[derive(Debug, Default)]
struct Pending {
    /// Entry address; `None` while no frame is being built.
    start_addr: Option<u32>,
    uops: Vec<Uop>,
    x86_addrs: Vec<u32>,
    block_starts: Vec<usize>,
    expectations: Vec<ControlExpectation>,
}

impl Pending {
    /// Starts a new frame at `start_addr`, reusing the buffers.
    fn begin(&mut self, start_addr: u32) {
        self.start_addr = Some(start_addr);
        self.uops.clear();
        self.x86_addrs.clear();
        self.block_starts.clear();
        self.block_starts.push(0);
        self.expectations.clear();
    }
}

/// Constructs atomic frames from the retired instruction stream.
///
/// Feed every retired instruction to [`FrameConstructor::retire`]; completed
/// frames are returned as they finish. In this reproduction the constructor
/// observes the *injected* (original-path) stream, which is equivalent to
/// watching retirement in a trace-driven simulator with no wrong-path
/// execution.
#[derive(Debug)]
pub struct FrameConstructor {
    cfg: ConstructorConfig,
    bias: BiasTable,
    pending: Pending,
    start_counts: HashMap<u32, u32>,
    next_id: u64,
    stats: ConstructorStats,
    /// True when the next retired instruction is a control-flow target
    /// (the instruction after a taken branch, call, return, or serializing
    /// event) and so may begin a frame. Without this, frames that end at
    /// the size limit would seed successors at drifting mid-block
    /// addresses and the frame cache would fill with near-duplicates.
    aligned: bool,
}

impl FrameConstructor {
    /// Creates a constructor with the given configuration.
    pub fn new(cfg: ConstructorConfig) -> FrameConstructor {
        let bias = BiasTable::new(cfg.bias_threshold);
        FrameConstructor {
            cfg,
            bias,
            pending: Pending::default(),
            start_counts: HashMap::new(),
            next_id: 0,
            stats: ConstructorStats::default(),
            aligned: true,
        }
    }

    /// Constructor activity counters.
    pub fn stats(&self) -> ConstructorStats {
        self.stats
    }

    /// Observes one retired instruction; returns a frame if one completed.
    pub fn retire(&mut self, ev: &RetireEvent<'_>) -> Option<Frame> {
        let was_aligned = self.aligned;
        self.aligned = ev.next_pc != ev.fallthrough;

        // Serializing instructions never enter frames and flush any pending
        // construction; the next instruction is a fresh boundary.
        if ev.uops.iter().any(|u| u.op == Opcode::Fence) {
            self.aligned = true;
            let done = self.finish(ev.addr);
            if done.is_some() {
                self.stats.ended_by_fence += 1;
            }
            return done;
        }

        if self.pending.start_addr.is_none() {
            if !was_aligned {
                // Mid-block: wait for the next control-flow target so that
                // frame entry points stay stable across iterations.
                self.observe_bias(ev);
                return None;
            }
            let count = self.start_counts.entry(ev.addr).or_insert(0);
            *count = count.saturating_add(1);
            if *count < HOT_THRESHOLD {
                // Still warming up; keep feeding the bias table so branches
                // become biased before construction begins.
                self.observe_bias(ev);
                return None;
            }
            self.pending.begin(ev.addr);
        }

        // Would this instruction overflow the frame? Finish first; the next
        // frame waits for a control target.
        let flow_len = ev.uops.len();
        let cur_len = self.pending.uops.len();
        if cur_len + flow_len > self.cfg.max_uops && cur_len > 0 {
            let done = self.finish(ev.addr);
            if done.is_some() {
                self.stats.ended_by_size += 1;
            }
            self.observe_bias(ev);
            return done;
        }

        if self.append(ev) {
            // The instruction ended the frame (unbiased control transfer).
            return self.finish(ev.next_pc);
        }
        None
    }

    /// Flushes any pending frame (e.g. at end of trace).
    pub fn flush(&mut self) -> Option<Frame> {
        // The exit address of a flushed frame is unknown; use the address
        // after the last covered instruction.
        self.finish(0)
    }

    /// Updates the bias table for an event without constructing.
    fn observe_bias(&mut self, ev: &RetireEvent<'_>) {
        for u in ev.uops {
            match u.op {
                Opcode::Br => {
                    let taken = ev.next_pc == u.target;
                    self.bias
                        .record(ev.addr, BranchOutcome::Conditional { taken });
                }
                Opcode::JmpInd => {
                    self.bias
                        .record(ev.addr, BranchOutcome::Indirect { target: ev.next_pc });
                }
                _ => {}
            }
        }
    }

    /// Appends an instruction's flow to the pending frame, transforming
    /// control uops in place. Returns `true` if the frame must end after
    /// this instruction.
    fn append(&mut self, ev: &RetireEvent<'_>) -> bool {
        let FrameConstructor {
            cfg,
            bias,
            pending,
            stats,
            ..
        } = self;
        debug_assert!(
            pending.start_addr.is_some(),
            "append requires a pending frame"
        );
        pending.x86_addrs.push(ev.addr);
        let mut ends = false;
        for u in ev.uops {
            let (uop, boundary_after, expectation) = match u.op {
                Opcode::Br => {
                    let cc = u.cc.expect("Br carries a condition");
                    let taken = ev.next_pc == u.target;
                    if bias.record(ev.addr, BranchOutcome::Conditional { taken }) {
                        // Paper §3.3: the branch becomes an assertion on the
                        // condition that keeps execution on the frame path.
                        let cond = if taken { cc } else { cc.negate() };
                        let mut a = Uop::assert_cc(cond);
                        a.x86_addr = u.x86_addr;
                        a.last_of_x86 = u.last_of_x86;
                        stats.branches_converted += 1;
                        (a, true, true)
                    } else {
                        stats.ended_by_branch += 1;
                        ends = true;
                        (u.clone(), false, false)
                    }
                }
                Opcode::JmpInd => {
                    let target = ev.next_pc;
                    // Indirect targets must be *very* stable before they
                    // are asserted: a mispredicted target assertion costs a
                    // whole-frame rollback, so require twice the
                    // conditional-branch run length.
                    let run = bias.record_run(ev.addr, BranchOutcome::Indirect { target });
                    let matches_bias = run >= cfg.bias_threshold * 2
                        && bias.bias(ev.addr) == Some(Direction::Indirect { target });
                    if matches_bias {
                        let reg = u.src_a.expect("JmpInd reads a register");
                        let mut a = Uop::assert_cmp(Cond::Eq, reg, None, target as i32);
                        a.x86_addr = u.x86_addr;
                        a.last_of_x86 = u.last_of_x86;
                        stats.indirects_converted += 1;
                        (a, true, true)
                    } else {
                        stats.ended_by_indirect += 1;
                        ends = true;
                        (u.clone(), false, false)
                    }
                }
                // Unconditional direct jumps stay in the frame (NOP removal
                // deletes them later); a new block begins at the target.
                Opcode::Jmp => (u.clone(), true, false),
                _ => (u.clone(), false, false),
            };
            let idx = pending.uops.len();
            if expectation {
                pending.expectations.push(ControlExpectation {
                    x86_addr: ev.addr,
                    expected_next: ev.next_pc,
                    uop_index: idx,
                });
            }
            pending.uops.push(uop);
            if boundary_after {
                pending.block_starts.push(idx + 1);
            }
        }
        ends
    }

    /// Completes the pending frame, discarding it if below the minimum
    /// size. The frame's vectors are exact-size copies of the pending
    /// buffers, which stay with the constructor for the next frame.
    fn finish(&mut self, exit_next: u32) -> Option<Frame> {
        let start_addr = self.pending.start_addr.take()?;
        let pending = &self.pending;
        let orig = pending.uops.len();
        if orig < MIN_FRAME_UOPS {
            self.stats.discarded += 1;
            return None;
        }
        // Drop a trailing empty block (boundary emitted after the last uop).
        let block_starts = match pending.block_starts.split_last() {
            Some((&last, rest)) if last == orig => rest,
            _ => &pending.block_starts[..],
        };
        let id = FrameId(self.next_id);
        self.next_id += 1;
        self.stats.completed += 1;
        Some(Frame {
            id,
            start_addr,
            uops: pending.uops.clone(),
            x86_addrs: pending.x86_addrs.clone(),
            block_starts: block_starts.to_vec(),
            expectations: pending.expectations.clone(),
            exit_next,
            orig_uop_count: orig,
        })
    }
}

impl Default for FrameConstructor {
    fn default() -> FrameConstructor {
        FrameConstructor::new(ConstructorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_uop::ArchReg;

    /// An `n`-uop ALU instruction flow.
    fn alu_flow(n: usize) -> Vec<Uop> {
        let mut uops = vec![Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1); n];
        uops[n - 1] = uops[n - 1].clone().ending_x86();
        uops
    }

    /// Builds a retire event for an instruction that falls through.
    fn alu_ev(addr: u32, uops: &[Uop]) -> RetireEvent<'_> {
        RetireEvent {
            addr,
            uops,
            next_pc: addr + 1,
            fallthrough: addr + 1,
        }
    }

    /// Builds a retire event for an instruction that transfers control to
    /// `target`, making `target` a valid frame start.
    fn jump_ev(addr: u32, uops: &[Uop], target: u32) -> RetireEvent<'_> {
        RetireEvent {
            addr,
            uops,
            next_pc: target,
            fallthrough: addr + 1,
        }
    }

    fn cfg(max_uops: usize, bias_threshold: u32) -> ConstructorConfig {
        ConstructorConfig {
            max_uops,
            bias_threshold,
        }
    }

    #[test]
    fn biased_branch_becomes_assert() {
        let mut c = FrameConstructor::new(cfg(64, 3));
        let body = alu_flow(8);
        let br = [Uop::br(Cond::Eq, 0x100).ending_x86()];
        let taken = jump_ev(0x10, &br, 0x100);
        // First pass: 0x0 is seen once (not yet hot) and the branch,
        // mid-block, only trains the bias table.
        assert!(c.retire(&alu_ev(0x0, &body)).is_none());
        assert!(c.retire(&taken).is_none());
        // Second pass: a frame starts at 0x0. Not yet biased: the branch
        // ends the frame, branch uop kept.
        assert!(c.retire(&alu_ev(0x0, &body)).is_none());
        let f = c
            .retire(&taken)
            .expect("frame completes at unbiased branch");
        assert_eq!(f.uops.last().unwrap().op, Opcode::Br);
        assert!(f.expectations.is_empty());
        // Biased now: the frame continues; nothing returned yet. The jump
        // back to 0x0 happens implicitly in this synthetic stream.
        for pass in 0..2 {
            assert!(c.retire(&alu_ev(0x0, &body)).is_none());
            assert!(c.retire(&taken).is_none(), "pass {pass}");
        }
        // End the pending frame and inspect the assert.
        let f = c.flush().expect("pending frame with asserts");
        let asserts: Vec<_> = f
            .uops
            .iter()
            .enumerate()
            .filter(|(_, u)| u.op.is_assert())
            .collect();
        assert!(!asserts.is_empty());
        assert_eq!(asserts[0].1.cc, Some(Cond::Eq), "taken-biased keeps cc");
        assert_eq!(f.expectations.len(), asserts.len());
        assert_eq!(f.expectations[0].expected_next, 0x100);
    }

    #[test]
    fn not_taken_bias_negates_condition() {
        let mut c = FrameConstructor::new(cfg(64, 1));
        let body = alu_flow(8);
        let br = [Uop::br(Cond::Eq, 0x100).ending_x86()];
        let back = [Uop::jmp(0x0).ending_x86()];
        // Fall through => not taken; the jump at 0x11 closes the loop.
        let not_taken = alu_ev(0x10, &br);
        c.retire(&alu_ev(0x0, &body));
        c.retire(&not_taken);
        c.retire(&jump_ev(0x11, &back, 0x0));
        assert!(c.retire(&alu_ev(0x0, &body)).is_none());
        assert!(c.retire(&not_taken).is_none(), "biased at threshold 1");
        let f = c.flush().unwrap();
        assert_eq!(f.uops[8].op, Opcode::Assert);
        assert_eq!(f.uops[8].cc, Some(Cond::Ne), "NOT-taken bias asserts !cc");
    }

    #[test]
    fn biased_indirect_becomes_assert_cmp() {
        let mut c = FrameConstructor::new(cfg(64, 2));
        let body = alu_flow(8);
        let jmp = [Uop::jmp_ind(ArchReg::Et2).ending_x86()];
        let ev = jump_ev(0x20, &jmp, 0x400);
        // Indirect conversion needs 2x the conditional threshold (4 runs).
        // The first observation, mid-block, only trains the bias table; the
        // next two end frames with the jump as exit uop.
        c.retire(&alu_ev(0x18, &body));
        assert!(c.retire(&ev).is_none());
        for _ in 0..2 {
            assert!(c.retire(&alu_ev(0x18, &body)).is_none());
            let f = c.retire(&ev).expect("unbiased indirect ends the frame");
            assert_eq!(f.uops[8].op, Opcode::JmpInd);
        }
        // Fourth observation: run reaches 4 = 2x threshold; converted.
        assert!(c.retire(&alu_ev(0x18, &body)).is_none());
        assert!(c.retire(&ev).is_none());
        let f = c.flush().unwrap();
        assert_eq!(f.uops[8].op, Opcode::AssertCmp);
        assert_eq!(f.uops[8].imm, 0x400);
        assert_eq!(f.uops[8].src_a, Some(ArchReg::Et2));
        assert_eq!(c.stats().indirects_converted, 1);
    }

    #[test]
    fn size_limit_splits_frames() {
        let mut c = FrameConstructor::new(cfg(8, 8));
        let quad = alu_flow(4);
        let back = [Uop::jmp(0).ending_x86()];
        // A loop of three four-uop instructions closed by a jump to 0.
        let pass = |c: &mut FrameConstructor| -> Vec<Frame> {
            [
                alu_ev(0, &quad),
                alu_ev(1, &quad),
                alu_ev(2, &quad),
                jump_ev(3, &back, 0),
            ]
            .iter()
            .filter_map(|ev| c.retire(ev))
            .collect()
        };
        assert!(pass(&mut c).is_empty(), "first pass only warms address 0");
        let frames = pass(&mut c);
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(f.start_addr, 0);
        assert_eq!(f.uop_count(), 8);
        assert_eq!(f.x86_count(), 2);
        assert_eq!(f.exit_next, 2, "exits to the instruction that overflowed");
        // The overflowing instruction is mid-block, so it seeds no frame;
        // the next one starts at the jump's target.
        assert!(c.flush().is_none());
        let frames = pass(&mut c);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].start_addr, 0);
        assert_eq!(c.stats().ended_by_size, 2);
    }

    #[test]
    fn fence_flushes_and_is_excluded() {
        let mut c = FrameConstructor::default();
        let body = alu_flow(8);
        let fence = [Uop::fence().ending_x86()];
        // The first pass only warms address 0; the fence makes the next
        // instruction a frame boundary.
        c.retire(&alu_ev(0, &body));
        assert!(c.retire(&alu_ev(8, &fence)).is_none());
        c.retire(&alu_ev(0, &body));
        let f = c.retire(&alu_ev(8, &fence)).expect("fence completes frame");
        assert_eq!(f.uop_count(), 8);
        assert!(f.uops.iter().all(|u| u.op != Opcode::Fence));
        assert_eq!(c.stats().ended_by_fence, 1);
    }

    #[test]
    fn small_frames_discarded() {
        let fence = [Uop::fence().ending_x86()];
        for (n, kept) in [(MIN_FRAME_UOPS - 1, false), (MIN_FRAME_UOPS, true)] {
            let mut c = FrameConstructor::default();
            let body = alu_flow(n);
            let mut frame = None;
            for _ in 0..HOT_THRESHOLD {
                c.retire(&alu_ev(0, &body));
                frame = c.retire(&alu_ev(0x40, &fence));
            }
            assert_eq!(frame.is_some(), kept, "{n} uops");
            assert_eq!(c.stats().discarded, u64::from(!kept), "{n} uops");
        }
    }

    #[test]
    fn discarded_frame_leaves_nothing_in_the_next() {
        let mut c = FrameConstructor::new(cfg(64, 1));
        let short = alu_flow(2);
        let body = alu_flow(8);
        let br = [Uop::br(Cond::Eq, 0x100).ending_x86()];
        let fence = [Uop::fence().ending_x86()];
        // Two passes over a short block: the second builds two uops, an
        // assert (threshold 1) and a block boundary, and the fence
        // discards it for being under the minimum size.
        for _ in 0..HOT_THRESHOLD {
            c.retire(&alu_ev(0x0, &short));
            c.retire(&alu_ev(0x2, &br));
            assert!(c.retire(&alu_ev(0x3, &fence)).is_none());
        }
        assert_eq!(c.stats().discarded, 1);
        assert_eq!(c.stats().branches_converted, 1);
        // The next frame reuses the buffers and carries none of it.
        for _ in 0..HOT_THRESHOLD {
            c.retire(&alu_ev(0x40, &body));
            c.retire(&alu_ev(0x48, &fence));
        }
        c.retire(&alu_ev(0x40, &body));
        let f = c.flush().expect("second sight of 0x40 builds a frame");
        assert_eq!(f.start_addr, 0x40);
        assert_eq!(f.x86_addrs, vec![0x40]);
        assert_eq!(f.block_starts, vec![0]);
        assert!(f.expectations.is_empty());
        assert_eq!(f.uop_count(), 8);
        assert!(f.uops.iter().all(|u| u.op == Opcode::Add));
    }

    #[test]
    fn hot_threshold_delays_construction() {
        let mut c = FrameConstructor::default();
        let body = alu_flow(8);
        let back = [Uop::jmp(0).ending_x86()];
        // Address 0 must be seen twice before a frame starts there.
        c.retire(&alu_ev(0, &body));
        assert!(c.flush().is_none(), "no pending after first sight");
        c.retire(&jump_ev(8, &back, 0));
        c.retire(&alu_ev(0, &body));
        let f = c.flush();
        assert_eq!(f.map(|f| f.start_addr), Some(0), "second sight constructs");
    }

    #[test]
    fn block_boundaries_after_converted_branches() {
        let mut c = FrameConstructor::new(cfg(64, 1));
        let body = alu_flow(8);
        let br = [Uop::br(Cond::Ne, 0x50).ending_x86()];
        let back = [Uop::jmp(0).ending_x86()];
        // First pass warms address 0 and biases the branch.
        c.retire(&alu_ev(0, &body));
        c.retire(&jump_ev(8, &br, 0x50));
        c.retire(&alu_ev(0x50, &body));
        c.retire(&jump_ev(0x51, &back, 0));
        // Second pass builds: body, assert, body.
        c.retire(&alu_ev(0, &body));
        c.retire(&jump_ev(8, &br, 0x50));
        c.retire(&alu_ev(0x50, &body));
        let f = c.flush().unwrap();
        assert_eq!(f.block_starts, vec![0, 9]);
        assert_eq!(f.block_count(), 2);
        assert_eq!(f.block_of(8), 0);
        assert_eq!(f.block_of(9), 1);
    }
}
