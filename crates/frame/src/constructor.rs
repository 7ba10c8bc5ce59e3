//! The frame constructor.
//!
//! Watches the retired micro-operation stream, converts dynamically biased
//! branches into assertions, and merges the constituent basic blocks into
//! atomic frames of 8–256 uops (the paper's configuration, §5.3).

use crate::{BiasTable, BranchOutcome, ControlExpectation, Direction, Frame, FrameId};
use replay_uop::{Cond, Opcode, Uop};
use std::collections::HashMap;

/// Configuration of the frame constructor.
#[derive(Debug, Clone)]
pub struct ConstructorConfig {
    /// Frames smaller than this many uops are discarded (paper: 8).
    pub min_uops: usize,
    /// Frames never grow beyond this many uops (paper: 256).
    pub max_uops: usize,
    /// Consecutive same-direction outcomes before a branch is biased.
    pub bias_threshold: u32,
    /// Times a start address must be seen before a frame is built there.
    pub hot_threshold: u32,
    /// Only begin frames at control-flow targets (the instruction after a
    /// taken branch, call, return, or serializing event). This keeps frame
    /// entry points stable across loop iterations — without it, frames
    /// that end at the size limit seed successors at drifting mid-block
    /// addresses and the frame cache fills with near-duplicates.
    pub align_to_control: bool,
}

impl Default for ConstructorConfig {
    fn default() -> ConstructorConfig {
        ConstructorConfig {
            min_uops: 8,
            max_uops: 256,
            bias_threshold: 8,
            hot_threshold: 2,
            align_to_control: true,
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
    /// Records every counter under `<prefix>.<counter>` into an
    /// [`replay_obs::Obs`].
    pub fn observe_into(&self, prefix: &str, obs: &mut replay_obs::Obs) {
        if !obs.enabled() {
            return;
        }
        obs.counter(&format!("{prefix}.completed"), self.completed);
        obs.counter(&format!("{prefix}.discarded"), self.discarded);
        obs.counter(
            &format!("{prefix}.branches_converted"),
            self.branches_converted,
        );
        obs.counter(
            &format!("{prefix}.indirects_converted"),
            self.indirects_converted,
        );
        obs.counter(&format!("{prefix}.ended_by_branch"), self.ended_by_branch);
        obs.counter(
            &format!("{prefix}.ended_by_indirect"),
            self.ended_by_indirect,
        );
        obs.counter(&format!("{prefix}.ended_by_size"), self.ended_by_size);
        obs.counter(&format!("{prefix}.ended_by_fence"), self.ended_by_fence);
    }
}

#[derive(Debug)]
struct Pending {
    start_addr: u32,
    uops: Vec<Uop>,
    x86_addrs: Vec<u32>,
    block_starts: Vec<usize>,
    expectations: Vec<ControlExpectation>,
}

impl Pending {
    fn new(start_addr: u32) -> Pending {
        Pending {
            start_addr,
            uops: Vec::new(),
            x86_addrs: Vec::new(),
            block_starts: vec![0],
            expectations: Vec::new(),
        }
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
    pending: Option<Pending>,
    start_counts: HashMap<u32, u32>,
    next_id: u64,
    stats: ConstructorStats,
    /// True when the next retired instruction is a control-flow target
    /// (valid frame entry under `align_to_control`).
    aligned: bool,
}

impl FrameConstructor {
    /// Creates a constructor with the given configuration.
    pub fn new(cfg: ConstructorConfig) -> FrameConstructor {
        let bias = BiasTable::new(cfg.bias_threshold);
        FrameConstructor {
            cfg,
            bias,
            pending: None,
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
            let done = self.finish(ev.addr, true);
            if done.is_some() {
                self.stats.ended_by_fence += 1;
            }
            return done;
        }

        if self.pending.is_none() {
            if self.cfg.align_to_control && !was_aligned {
                // Mid-block: wait for the next control-flow target so that
                // frame entry points stay stable across iterations.
                self.observe_bias(ev);
                return None;
            }
            let count = self.start_counts.entry(ev.addr).or_insert(0);
            *count = count.saturating_add(1);
            if *count < self.cfg.hot_threshold {
                // Still warming up; keep feeding the bias table so branches
                // become biased before construction begins.
                self.observe_bias(ev);
                return None;
            }
            self.pending = Some(Pending::new(ev.addr));
        }

        // Would this instruction overflow the frame? Finish first; under
        // aligned construction the next frame waits for a control target,
        // otherwise the current instruction seeds it immediately.
        let flow_len = ev.uops.len();
        let cur_len = self.pending.as_ref().map_or(0, |p| p.uops.len());
        if cur_len + flow_len > self.cfg.max_uops && cur_len > 0 {
            let done = self.finish(ev.addr, false);
            if done.is_some() {
                self.stats.ended_by_size += 1;
            }
            if self.cfg.align_to_control {
                self.observe_bias(ev);
            } else {
                self.pending = Some(Pending::new(ev.addr));
                let _ = self.append(ev);
            }
            return done;
        }

        if self.append(ev) {
            // The instruction ended the frame (unbiased control transfer).
            return self.finish(ev.next_pc, false);
        }
        None
    }

    /// Flushes any pending frame (e.g. at end of trace).
    pub fn flush(&mut self) -> Option<Frame> {
        // The exit address of a flushed frame is unknown; use the address
        // after the last covered instruction.
        self.finish(0, false)
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
        let pending = pending.as_mut().expect("append requires a pending frame");
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
    /// size.
    fn finish(&mut self, exit_next: u32, _fence: bool) -> Option<Frame> {
        let pending = self.pending.take()?;
        if pending.uops.len() < self.cfg.min_uops {
            self.stats.discarded += 1;
            return None;
        }
        // Drop a trailing empty block (boundary emitted after the last uop).
        let mut block_starts = pending.block_starts;
        if block_starts.last() == Some(&pending.uops.len()) {
            block_starts.pop();
        }
        let id = FrameId(self.next_id);
        self.next_id += 1;
        self.stats.completed += 1;
        let orig = pending.uops.len();
        Some(Frame {
            id,
            start_addr: pending.start_addr,
            uops: pending.uops,
            x86_addrs: pending.x86_addrs,
            block_starts,
            expectations: pending.expectations,
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

    /// Builds a retire event for a single-uop ALU instruction.
    fn alu_ev(addr: u32, uops: &[Uop]) -> RetireEvent<'_> {
        RetireEvent {
            addr,
            uops,
            next_pc: addr + 1,
            fallthrough: addr + 1,
        }
    }

    fn cfg(min: usize, max: usize, bias: u32, hot: u32) -> ConstructorConfig {
        ConstructorConfig {
            min_uops: min,
            max_uops: max,
            bias_threshold: bias,
            hot_threshold: hot,
            align_to_control: false,
        }
    }

    #[test]
    fn biased_branch_becomes_assert() {
        let mut c = FrameConstructor::new(cfg(1, 64, 2, 1));
        let add = [Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1).ending_x86()];
        let br = [Uop::br(Cond::Eq, 0x100).ending_x86()];
        // Warm the bias table: two taken outcomes at PC 0x10.
        for round in 0..3 {
            c.retire(&alu_ev(0x0, &add));
            let ev = RetireEvent {
                addr: 0x10,
                uops: &br,
                next_pc: 0x100,
                fallthrough: 0x16,
            };
            let frame = c.retire(&ev);
            if round < 1 {
                // Not yet biased: branch ends the frame, branch uop kept.
                let f = frame.expect("frame completes at unbiased branch");
                assert_eq!(f.uops.last().unwrap().op, Opcode::Br);
                assert!(f.expectations.is_empty());
            } else {
                // Biased now: the frame continues; nothing returned yet.
                assert!(frame.is_none(), "round {round}");
            }
            // Jump back to 0x0 happens implicitly in this synthetic stream.
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
        let mut c = FrameConstructor::new(cfg(1, 64, 1, 1));
        let br = [Uop::br(Cond::Eq, 0x100).ending_x86()];
        let ev = RetireEvent {
            addr: 0x10,
            uops: &br,
            next_pc: 0x16, // fall through => not taken
            fallthrough: 0x16,
        };
        assert!(c.retire(&ev).is_none(), "biased immediately at threshold 1");
        let f = c.flush().unwrap();
        assert_eq!(f.uops[0].op, Opcode::Assert);
        assert_eq!(f.uops[0].cc, Some(Cond::Ne), "NOT-taken bias asserts !cc");
    }

    #[test]
    fn biased_indirect_becomes_assert_cmp() {
        let mut c = FrameConstructor::new(cfg(1, 64, 2, 1));
        let jmp = [Uop::jmp_ind(ArchReg::Et2).ending_x86()];
        let ev = RetireEvent {
            addr: 0x20,
            uops: &jmp,
            next_pc: 0x400,
            fallthrough: 0x21,
        };
        // Indirect conversion needs 2x the conditional threshold (4 runs).
        // The first observations end frames with the jump as exit uop.
        let f = c.retire(&ev).expect("unbiased indirect ends the frame");
        assert_eq!(f.uops[0].op, Opcode::JmpInd);
        for _ in 0..2 {
            let f = c.retire(&ev).expect("still below the indirect threshold");
            assert_eq!(f.uops[0].op, Opcode::JmpInd);
        }
        // Fourth observation: run reaches 4 = 2x threshold; converted.
        assert!(c.retire(&ev).is_none());
        let f = c.flush().unwrap();
        assert_eq!(f.uops[0].op, Opcode::AssertCmp);
        assert_eq!(f.uops[0].imm, 0x400);
        assert_eq!(f.uops[0].src_a, Some(ArchReg::Et2));
        assert_eq!(c.stats().indirects_converted, 1);
    }

    #[test]
    fn size_limit_splits_frames() {
        let mut c = FrameConstructor::new(cfg(1, 4, 8, 1));
        let add = [
            Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1),
            Uop::alu_imm(Opcode::Add, ArchReg::Ebx, ArchReg::Ebx, 1).ending_x86(),
        ];
        assert!(c.retire(&alu_ev(0, &add)).is_none());
        assert!(c.retire(&alu_ev(1, &add)).is_none()); // frame now full (4)
        let f = c
            .retire(&alu_ev(2, &add))
            .expect("overflow completes frame");
        assert_eq!(f.uop_count(), 4);
        assert_eq!(f.x86_count(), 2);
        assert_eq!(f.exit_next, 2, "exits to the instruction that overflowed");
        // The overflowing instruction seeded the next frame.
        let f2 = c.flush().unwrap();
        assert_eq!(f2.start_addr, 2);
        assert_eq!(c.stats().ended_by_size, 1);
    }

    #[test]
    fn fence_flushes_and_is_excluded() {
        let mut c = FrameConstructor::new(cfg(1, 64, 8, 1));
        let add = [Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1).ending_x86()];
        let fence = [Uop::fence().ending_x86()];
        c.retire(&alu_ev(0, &add));
        let f = c.retire(&alu_ev(1, &fence)).expect("fence completes frame");
        assert_eq!(f.uop_count(), 1);
        assert!(f.uops.iter().all(|u| u.op != Opcode::Fence));
        assert_eq!(c.stats().ended_by_fence, 1);
    }

    #[test]
    fn small_frames_discarded() {
        let mut c = FrameConstructor::new(cfg(8, 64, 8, 1));
        let add = [Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1).ending_x86()];
        c.retire(&alu_ev(0, &add));
        assert!(c.flush().is_none());
        assert_eq!(c.stats().discarded, 1);
    }

    #[test]
    fn hot_threshold_delays_construction() {
        let mut c = FrameConstructor::new(cfg(1, 64, 8, 3));
        let add = [Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1).ending_x86()];
        // Address 0 must be seen 3 times before a frame starts there.
        c.retire(&alu_ev(0, &add));
        assert!(c.flush().is_none(), "no pending after first sight");
        c.retire(&alu_ev(0, &add));
        assert!(c.flush().is_none());
        c.retire(&alu_ev(0, &add));
        let f = c.flush();
        assert!(f.is_some(), "third sight constructs");
    }

    #[test]
    fn block_boundaries_after_converted_branches() {
        let mut c = FrameConstructor::new(cfg(1, 64, 1, 1));
        let add = [Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1).ending_x86()];
        let br = [Uop::br(Cond::Ne, 0x50).ending_x86()];
        c.retire(&alu_ev(0, &add));
        c.retire(&RetireEvent {
            addr: 1,
            uops: &br,
            next_pc: 0x50,
            fallthrough: 2,
        });
        c.retire(&alu_ev(0x50, &add));
        let f = c.flush().unwrap();
        assert_eq!(f.block_starts, vec![0, 2]);
        assert_eq!(f.block_count(), 2);
        assert_eq!(f.block_of(1), 0);
        assert_eq!(f.block_of(2), 1);
    }
}
