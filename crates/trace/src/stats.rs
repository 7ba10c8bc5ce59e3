//! Trace statistics: the characterization numbers the paper's workload
//! section summarizes (instruction mix, branch behavior, memory behavior).

use crate::Trace;
use replay_x86::Inst;
use std::collections::{HashMap, HashSet};

/// Coarse x86 instruction classes for mix reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Register/immediate ALU work (including shifts, inc/dec, compares).
    Alu,
    /// Loads (`MOV r,[m]`, load-op forms, `POP`).
    Load,
    /// Stores (`MOV [m],r/imm`, `PUSH`).
    Store,
    /// Read-modify-write memory forms.
    Rmw,
    /// Conditional branches.
    CondBranch,
    /// Unconditional direct control (`JMP`, `CALL`).
    DirectControl,
    /// Indirect control (`JMP r`, `RET`).
    IndirectControl,
    /// Multiplies and divides.
    MulDiv,
    /// Everything else (`NOP`, `LEA`, `CDQ`, serializing instructions).
    Other,
}

impl InstClass {
    /// All classes in reporting order.
    pub const ALL: [InstClass; 9] = [
        InstClass::Alu,
        InstClass::Load,
        InstClass::Store,
        InstClass::Rmw,
        InstClass::CondBranch,
        InstClass::DirectControl,
        InstClass::IndirectControl,
        InstClass::MulDiv,
        InstClass::Other,
    ];

    /// Classifies an instruction.
    pub fn of(inst: &Inst) -> InstClass {
        match inst {
            Inst::AluRR { .. }
            | Inst::AluRI { .. }
            | Inst::CmpRR { .. }
            | Inst::CmpRI { .. }
            | Inst::TestRR { .. }
            | Inst::TestRI { .. }
            | Inst::IncR { .. }
            | Inst::DecR { .. }
            | Inst::NegR { .. }
            | Inst::NotR { .. }
            | Inst::ShiftRI { .. }
            | Inst::MovRR { .. }
            | Inst::MovRI { .. } => InstClass::Alu,
            Inst::MovRM { .. } | Inst::AluRM { .. } | Inst::CmpRM { .. } | Inst::PopR { .. } => {
                InstClass::Load
            }
            Inst::MovMR { .. } | Inst::MovMI { .. } | Inst::PushR { .. } | Inst::PushI { .. } => {
                InstClass::Store
            }
            Inst::AluMR { .. } => InstClass::Rmw,
            Inst::Jcc { .. } => InstClass::CondBranch,
            Inst::Jmp { .. } | Inst::Call { .. } => InstClass::DirectControl,
            Inst::JmpInd { .. } | Inst::Ret => InstClass::IndirectControl,
            Inst::ImulRR { .. } | Inst::ImulRRI { .. } | Inst::DivR { .. } => InstClass::MulDiv,
            Inst::Lea { .. } | Inst::Cdq | Inst::Nop | Inst::LongFlow => InstClass::Other,
        }
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::Alu => "alu",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Rmw => "rmw",
            InstClass::CondBranch => "br.cond",
            InstClass::DirectControl => "br.dir",
            InstClass::IndirectControl => "br.ind",
            InstClass::MulDiv => "muldiv",
            InstClass::Other => "other",
        }
    }
}

/// Summary statistics of one trace.
#[derive(Debug, Clone)]
pub struct TraceStats {
    /// Dynamic instruction count.
    pub instructions: usize,
    /// Distinct static instruction addresses (code footprint).
    pub static_instructions: usize,
    /// Dynamic counts per class.
    pub mix: HashMap<InstClass, usize>,
    /// Conditional-branch count.
    pub cond_branches: usize,
    /// Conditional branches whose dominant direction covers ≥ 95 % of
    /// their executions (the paper's "dynamically biased" branches).
    pub biased_branches: usize,
    /// Distinct 64-byte data lines touched (data working set).
    pub data_lines: usize,
    /// Total memory transactions (reads + writes).
    pub mem_transactions: usize,
}

impl TraceStats {
    /// Computes statistics over a trace.
    pub fn of(trace: &Trace) -> TraceStats {
        let mut mix: HashMap<InstClass, usize> = HashMap::new();
        let mut static_addrs = HashSet::new();
        let mut lines = HashSet::new();
        let mut mem_transactions = 0usize;
        let mut branch_taken: HashMap<u32, (usize, usize)> = HashMap::new();
        for r in trace.records() {
            *mix.entry(InstClass::of(&r.inst)).or_insert(0) += 1;
            static_addrs.insert(r.addr);
            for (a, _) in r.mem_reads.iter().chain(r.mem_writes.iter()) {
                lines.insert(a >> 6);
                mem_transactions += 1;
            }
            if let Some(taken) = r.taken() {
                let e = branch_taken.entry(r.addr).or_insert((0, 0));
                if taken {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
        let cond_branches = branch_taken.values().map(|(t, n)| t + n).sum();
        let biased_static = branch_taken
            .values()
            .filter(|(t, n)| {
                let total = t + n;
                total > 0 && (*t.max(n) as f64 / total as f64) >= 0.95
            })
            .count();
        TraceStats {
            instructions: trace.len(),
            static_instructions: static_addrs.len(),
            mix,
            cond_branches,
            biased_branches: biased_static,
            data_lines: lines.len(),
            mem_transactions,
        }
    }

    /// The fraction of dynamic instructions in a class.
    pub fn mix_fraction(&self, class: InstClass) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        *self.mix.get(&class).unwrap_or(&0) as f64 / self.instructions as f64
    }

    /// Renders a one-trace report.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} dynamic / {} static instructions; {} mem transactions over {} cache lines",
            self.instructions, self.static_instructions, self.mem_transactions, self.data_lines
        );
        let _ = writeln!(
            s,
            "{} conditional branch executions; {} static branches are >=95% biased",
            self.cond_branches, self.biased_branches
        );
        let _ = writeln!(s, "instruction mix:");
        for c in InstClass::ALL {
            let f = self.mix_fraction(c);
            if f > 0.0 {
                let _ = writeln!(s, "  {:8} {:5.1}%", c.label(), f * 100.0);
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn classes_cover_all_instructions() {
        // Every decoded instruction classifies without panicking, and the
        // mix sums to the dynamic count.
        let t = workloads::by_name("access")
            .unwrap()
            .segment_trace(0, 5_000);
        let s = TraceStats::of(&t);
        let total: usize = s.mix.values().sum();
        assert_eq!(total, s.instructions);
        assert_eq!(s.instructions, 5_000);
    }

    #[test]
    fn biased_branches_dominate_in_spec() {
        let t = workloads::by_name("eon").unwrap().segment_trace(0, 10_000);
        let s = TraceStats::of(&t);
        assert!(s.cond_branches > 100);
        assert!(
            s.biased_branches >= 3,
            "several static branches are biased ({})",
            s.biased_branches
        );
    }

    #[test]
    fn mix_has_loads_and_stores() {
        let t = workloads::by_name("vortex")
            .unwrap()
            .segment_trace(0, 5_000);
        let s = TraceStats::of(&t);
        assert!(s.mix_fraction(InstClass::Load) > 0.05);
        assert!(s.mix_fraction(InstClass::Store) > 0.02);
        assert!(s.mix_fraction(InstClass::CondBranch) > 0.02);
        assert!(s.data_lines > 10);
    }

    #[test]
    fn report_is_nonempty() {
        let t = workloads::by_name("gzip").unwrap().segment_trace(0, 2_000);
        let r = TraceStats::of(&t).report();
        assert!(r.contains("instruction mix"));
        assert!(r.contains("alu"));
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::of(&Trace::new("empty", Vec::new()));
        assert_eq!(s.instructions, 0);
        assert_eq!(s.static_instructions, 0);
        assert_eq!(s.cond_branches, 0);
        assert_eq!(s.biased_branches, 0);
        assert_eq!(s.data_lines, 0);
        assert_eq!(s.mem_transactions, 0);
        assert!(s.mix.is_empty());
        // mix_fraction must not divide by zero.
        for c in InstClass::ALL {
            assert_eq!(s.mix_fraction(c), 0.0);
        }
        // And the report renders without panicking.
        assert!(s.report().contains("0 dynamic"));
    }

    #[test]
    fn single_class_trace_has_unit_fraction() {
        use crate::TraceRecord;
        use replay_x86::Gpr;
        // A hand-built trace of nothing but ALU instructions.
        let records: Vec<TraceRecord> = (0..10)
            .map(|i| TraceRecord {
                addr: 0x40_0000 + 2 * i,
                len: 2,
                inst: Inst::IncR { r: Gpr::Eax },
                next_pc: 0x40_0000 + 2 * (i + 1),
                reg_writes: [(0, i + 1)].into(),
                mem_reads: [].into(),
                mem_writes: [].into(),
                flags_after: 0,
            })
            .collect();
        let s = TraceStats::of(&Trace::new("alu-only", records));
        assert_eq!(s.instructions, 10);
        assert_eq!(s.mix.len(), 1);
        assert_eq!(s.mix_fraction(InstClass::Alu), 1.0);
        // Absent classes report exactly 0, not NaN or a missing-key panic.
        assert_eq!(s.mix_fraction(InstClass::Load), 0.0);
        assert_eq!(s.mix_fraction(InstClass::CondBranch), 0.0);
        assert_eq!(s.cond_branches, 0);
        assert_eq!(s.mem_transactions, 0);
    }

    #[test]
    fn classify_specific_instructions() {
        use replay_x86::{AluOp, Gpr, MemOperand};
        assert_eq!(
            InstClass::of(&Inst::PushR { src: Gpr::Eax }),
            InstClass::Store
        );
        assert_eq!(
            InstClass::of(&Inst::PopR { dst: Gpr::Eax }),
            InstClass::Load
        );
        assert_eq!(
            InstClass::of(&Inst::AluMR {
                op: AluOp::Add,
                mem: MemOperand::base_disp(Gpr::Esp, 0),
                src: Gpr::Eax
            }),
            InstClass::Rmw
        );
        assert_eq!(InstClass::of(&Inst::Ret), InstClass::IndirectControl);
        assert_eq!(InstClass::of(&Inst::Cdq), InstClass::Other);
        assert_eq!(
            InstClass::of(&Inst::DivR { src: Gpr::Ebx }),
            InstClass::MulDiv
        );
    }
}
