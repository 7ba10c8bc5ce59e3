//! Trace records.

use crate::StaticIndex;
use replay_x86::{Inst, StepRecord};
use std::sync::{Arc, OnceLock};

/// The record of one dynamic x86 instruction, as carried in a trace file.
///
/// Mirrors the content the paper attributes to its hardware trace records
/// (§5.1.1): "instruction data, register state changes, memory
/// transactions, and interrupt information for each x86 instruction". In
/// this reproduction the instruction is stored decoded; interrupts appear
/// as `LongFlow` instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Instruction address.
    pub addr: u32,
    /// Encoded length in bytes.
    pub len: u8,
    /// The decoded instruction.
    pub inst: Inst,
    /// Address of the next instruction actually executed.
    pub next_pc: u32,
    /// Register state changes `(register index, new value)`, in uop order.
    pub reg_writes: Vec<(u8, u32)>,
    /// Memory reads `(address, value)`, in uop order.
    pub mem_reads: Vec<(u32, u32)>,
    /// Memory writes `(address, value)`, in uop order.
    pub mem_writes: Vec<(u32, u32)>,
    /// Packed architectural flags after the instruction
    /// ([`replay_uop::Flags::to_bits`]).
    pub flags_after: u8,
}

impl TraceRecord {
    /// Builds a record from an interpreter step.
    pub fn from_step(step: &StepRecord) -> TraceRecord {
        let mut reg_writes = Vec::new();
        let mut mem_reads = Vec::new();
        let mut mem_writes = Vec::new();
        for e in &step.uops {
            if let Some((r, v)) = e.effect.reg_write {
                reg_writes.push((r.index() as u8, v));
            }
            if let Some(rw) = e.effect.mem_read {
                mem_reads.push(rw);
            }
            if let Some(w) = e.effect.mem_write {
                mem_writes.push(w);
            }
        }
        TraceRecord {
            addr: step.addr,
            len: step.len,
            inst: step.inst,
            next_pc: step.next_pc,
            reg_writes,
            mem_reads,
            mem_writes,
            flags_after: step.flags_after.to_bits(),
        }
    }

    /// The fall-through address (`addr + len`).
    pub fn fallthrough(&self) -> u32 {
        self.addr + self.len as u32
    }

    /// For conditional branches, whether the branch was taken.
    pub fn taken(&self) -> Option<bool> {
        match self.inst {
            Inst::Jcc { target, .. } => Some(self.next_pc == target),
            _ => None,
        }
    }

    /// True if the instruction performed any memory access.
    pub fn touches_memory(&self) -> bool {
        !self.mem_reads.is_empty() || !self.mem_writes.is_empty()
    }
}

/// A dynamic instruction trace: one "hot spot" of an application.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Name of the workload the trace came from.
    pub name: String,
    /// Architectural register values at the first record (indexed like
    /// [`replay_uop::ArchReg`]). Hardware traces carry the register state;
    /// without it, a frame fetched before a register's first recorded
    /// write would execute from a wrong entry state.
    pub init_regs: [u32; replay_uop::NUM_ARCH_REGS],
    /// Packed architectural flags at the first record.
    pub init_flags: u8,
    records: Vec<TraceRecord>,
    /// The static-instruction index, built on first use
    /// ([`Trace::static_index`]).
    index: OnceLock<Arc<StaticIndex>>,
}

impl Trace {
    /// Creates a trace from records with a zeroed initial state.
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Trace {
        Trace {
            name: name.into(),
            init_regs: [0; replay_uop::NUM_ARCH_REGS],
            init_flags: 0,
            records,
            index: OnceLock::new(),
        }
    }

    /// Sets the initial architectural state (builder style).
    pub fn with_init(mut self, regs: [u32; replay_uop::NUM_ARCH_REGS], flags: u8) -> Trace {
        self.init_regs = regs;
        self.init_flags = flags;
        self
    }

    /// The records, in execution order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// The trace's static-instruction index, built on first call and
    /// shared by every later call, every clone made after it, and every
    /// thread holding the trace.
    pub fn static_index(&self) -> &Arc<StaticIndex> {
        self.index
            .get_or_init(|| Arc::new(StaticIndex::build(&self.records)))
    }

    /// Number of dynamic x86 instructions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the trace holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of dynamic instructions that are conditional branches.
    pub fn branch_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let b = self.records.iter().filter(|r| r.taken().is_some()).count();
        b as f64 / self.records.len() as f64
    }

    /// Fraction of dynamic instructions that touch memory.
    pub fn memory_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let m = self.records.iter().filter(|r| r.touches_memory()).count();
        m as f64 / self.records.len() as f64
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Trace {
        Trace::new(String::new(), iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_x86::{Assembler, Gpr, Interp, MemOperand};

    fn sample_trace() -> Trace {
        let mut asm = Assembler::new(0x1000);
        asm.push(Inst::MovRI {
            dst: Gpr::Eax,
            imm: 3,
        });
        asm.push(Inst::MovMR {
            mem: MemOperand::absolute(0x9000),
            src: Gpr::Eax,
        });
        asm.push(Inst::MovRM {
            dst: Gpr::Ebx,
            mem: MemOperand::absolute(0x9000),
        });
        asm.push(Inst::Ret);
        let mut interp = Interp::new(asm.finish());
        let steps = interp.run(100).unwrap();
        Trace::new("sample", steps.iter().map(TraceRecord::from_step).collect())
    }

    #[test]
    fn records_capture_effects() {
        let t = sample_trace();
        assert_eq!(t.len(), 4);
        let r = &t.records()[1];
        assert_eq!(r.mem_writes, vec![(0x9000, 3)]);
        assert!(r.touches_memory());
        let r = &t.records()[2];
        assert_eq!(r.mem_reads, vec![(0x9000, 3)]);
        assert_eq!(r.reg_writes, vec![(Gpr::Ebx.code(), 3)]);
    }

    #[test]
    fn fractions() {
        let t = sample_trace();
        assert_eq!(t.branch_fraction(), 0.0);
        // store + load + RET's return-address load = 3 of 4.
        assert!((t.memory_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(Trace::default().memory_fraction(), 0.0);
    }

    #[test]
    fn fallthrough_and_taken() {
        let t = sample_trace();
        let r = &t.records()[0];
        assert_eq!(r.fallthrough(), r.addr + r.len as u32);
        assert_eq!(r.taken(), None);
    }
}
