//! Trace records and the inline lists that hold their effects.
//!
//! A record is a fixed-size value like the paper's hardware trace item
//! (§5.1.1): its register writes, loads and stores live inline, in lists
//! sized by the most any instruction of the ISA produces
//! ([`MAX_REG_WRITES`], [`MAX_LOADS`], [`MAX_STORES`]), so a trace is one
//! allocation however many records it holds.

use crate::StaticIndex;
use replay_x86::{Inst, StepRecord, MAX_LOADS, MAX_REG_WRITES, MAX_STORES};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// A list of at most `N` copyable items stored inline, with a `u8`
/// length.
///
/// Derefs to the live entries as `&[T]`; equality and `Debug` see only
/// those entries, exactly as for a `Vec<T>` holding them.
#[derive(Clone, Copy)]
pub struct InlineList<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> InlineList<T, N> {
    /// An empty list.
    pub fn new() -> Self {
        const { assert!(N <= u8::MAX as usize, "length must fit a u8") };
        InlineList {
            len: 0,
            items: [T::default(); N],
        }
    }

    /// Appends an entry.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds `N` entries.
    pub fn push(&mut self, item: T) {
        assert!((self.len as usize) < N, "inline list full ({N} entries)");
        self.items[self.len as usize] = item;
        self.len += 1;
    }
}

impl<T: Copy + Default, const N: usize> Default for InlineList<T, N> {
    fn default() -> Self {
        InlineList::new()
    }
}

impl<T, const N: usize> Deref for InlineList<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a InlineList<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Builds a list from an array of at most `N` entries (checked at
/// compile time).
impl<T: Copy + Default, const N: usize, const M: usize> From<[T; M]> for InlineList<T, N> {
    fn from(items: [T; M]) -> Self {
        const { assert!(M <= N, "more entries than the list holds") };
        let mut list = InlineList::new();
        for item in items {
            list.push(item);
        }
        list
    }
}

impl<T: PartialEq, const N: usize> PartialEq for InlineList<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for InlineList<T, N> {}

impl<T: fmt::Debug, const N: usize> fmt::Debug for InlineList<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The record of one dynamic x86 instruction, as carried in a trace file.
///
/// Mirrors the content the paper attributes to its hardware trace records
/// (§5.1.1): "instruction data, register state changes, memory
/// transactions, and interrupt information for each x86 instruction". In
/// this reproduction the instruction is stored decoded; interrupts appear
/// as `LongFlow` instructions. Like the hardware item, a record has a
/// fixed size (at most 80 bytes) and no heap part: its effects are inline
/// lists capped at the most any instruction produces.
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
    pub reg_writes: InlineList<(u8, u32), MAX_REG_WRITES>,
    /// Memory reads `(address, value)`, in uop order.
    pub mem_reads: InlineList<(u32, u32), MAX_LOADS>,
    /// Memory writes `(address, value)`, in uop order.
    pub mem_writes: InlineList<(u32, u32), MAX_STORES>,
    /// Packed architectural flags after the instruction
    /// ([`replay_uop::Flags::to_bits`]).
    pub flags_after: u8,
}

impl TraceRecord {
    /// Builds a record from an interpreter step.
    ///
    /// # Panics
    ///
    /// Panics if the step's flow has more effects than a record holds,
    /// which no instruction of the ISA produces.
    pub fn from_step(step: &StepRecord) -> TraceRecord {
        let mut reg_writes = InlineList::new();
        let mut mem_reads = InlineList::new();
        let mut mem_writes = InlineList::new();
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
        assert_eq!(r.mem_writes[..], [(0x9000, 3)]);
        assert!(r.touches_memory());
        let r = &t.records()[2];
        assert_eq!(r.mem_reads[..], [(0x9000, 3)]);
        assert_eq!(r.reg_writes[..], [(Gpr::Ebx.code(), 3)]);
    }

    #[test]
    fn records_are_fixed_size() {
        assert!(
            std::mem::size_of::<TraceRecord>() <= 80,
            "{} bytes",
            std::mem::size_of::<TraceRecord>()
        );
    }

    #[test]
    fn inline_list_behaves_like_its_live_entries() {
        let mut a: InlineList<(u8, u32), 3> = InlineList::new();
        assert!(a.is_empty());
        a.push((1, 10));
        a.push((2, 20));
        assert_eq!(a.len(), 2);
        assert_eq!(
            format!("{a:?}"),
            format!("{:?}", vec![(1u8, 10u32), (2, 20)])
        );
        // Equality ignores the dead slot past the live entries.
        let mut b: InlineList<(u8, u32), 3> = [(1, 10), (2, 20), (3, 30)].into();
        b.len = 2;
        assert_eq!(a, b);
        assert_ne!(a, InlineList::from([(1, 10)]));
        let sum: u32 = (&a).into_iter().map(|&(_, v)| v).sum();
        assert_eq!(sum, 30);
    }

    #[test]
    #[should_panic(expected = "inline list full")]
    fn inline_list_push_past_capacity_panics() {
        let mut a: InlineList<u32, 1> = [7].into();
        a.push(8);
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
