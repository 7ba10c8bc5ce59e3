//! The micro-operation structure and its constructors.

use crate::{ArchReg, Cond, Opcode};

/// A micro-operation.
///
/// The format follows Figure 4 of the paper: an opcode, up to two register
/// sources, a destination, an immediate, and explicit flag information. Uops
/// also carry provenance (`x86_addr`, `last_of_x86`) linking them to the x86
/// instruction they were decoded from; the timing model uses `last_of_x86`
/// to count retired x86 instructions for effective-IPC reporting.
///
/// Operand conventions by opcode:
///
/// * ALU ops: `dst = src_a OP src_b`, or `dst = src_a OP imm` when `src_b`
///   is `None`.
/// * `Load`: `dst = mem32[src_a + src_b*scale + imm]` (`src_a` base,
///   `src_b` optional index).
/// * `Store`: `mem32[src_a + imm] = src_b` (`src_a` base, `src_b` data).
///   Store addresses never use an index register; the translator computes
///   indexed store addresses into a temporary with `Lea` first. This keeps
///   every uop within two register sources, mirroring how real x86
///   implementations split stores into address and data components.
/// * `Br`/`Assert`: evaluate `cc` over the incoming flags.
/// * `AssertCmp`/`AssertTest`: evaluate `cc` over the flags of
///   `src_a - src_b_or_imm` / `src_a & src_b_or_imm`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Uop {
    /// The operation.
    pub op: Opcode,
    /// Destination register, if the uop produces a value.
    pub dst: Option<ArchReg>,
    /// First register source (base register for memory ops).
    pub src_a: Option<ArchReg>,
    /// Second register source (index for loads, data for stores).
    pub src_b: Option<ArchReg>,
    /// Immediate operand / memory displacement / shift count.
    pub imm: i32,
    /// Index scale for `Load`/`Lea` (1, 2, 4, or 8).
    pub scale: u8,
    /// Condition code for `Br`/`Assert*` uops.
    pub cc: Option<Cond>,
    /// True if the uop writes the architectural flags.
    pub writes_flags: bool,
    /// Branch target for `Jmp`/`Br` (x86 address space).
    pub target: u32,
    /// Address of the parent x86 instruction.
    pub x86_addr: u32,
    /// True for the final uop of an x86 instruction's decode flow.
    pub last_of_x86: bool,
}

impl Uop {
    /// Creates a uop with the given opcode and no operands; fields are
    /// filled in by the caller or by the typed constructors below.
    pub fn new(op: Opcode) -> Uop {
        Uop {
            op,
            dst: None,
            src_a: None,
            src_b: None,
            imm: 0,
            scale: 1,
            cc: None,
            writes_flags: false,
            target: 0,
            x86_addr: 0,
            last_of_x86: false,
        }
    }

    /// Two-register ALU op: `dst = a OP b`. Writes flags.
    pub fn alu(op: Opcode, dst: ArchReg, a: ArchReg, b: ArchReg) -> Uop {
        debug_assert!(op.is_alu());
        Uop {
            dst: Some(dst),
            src_a: Some(a),
            src_b: Some(b),
            writes_flags: !matches!(op, Opcode::Mov | Opcode::MovImm | Opcode::Lea),
            ..Uop::new(op)
        }
    }

    /// Register-immediate ALU op: `dst = a OP imm`. Writes flags.
    pub fn alu_imm(op: Opcode, dst: ArchReg, a: ArchReg, imm: i32) -> Uop {
        debug_assert!(op.is_alu());
        Uop {
            dst: Some(dst),
            src_a: Some(a),
            imm,
            writes_flags: !matches!(op, Opcode::Mov | Opcode::MovImm | Opcode::Lea),
            ..Uop::new(op)
        }
    }

    /// Register move: `dst = src`. Does not write flags (x86 `MOV`).
    pub fn mov(dst: ArchReg, src: ArchReg) -> Uop {
        Uop {
            dst: Some(dst),
            src_a: Some(src),
            ..Uop::new(Opcode::Mov)
        }
    }

    /// Immediate move: `dst = imm`. Does not write flags.
    pub fn mov_imm(dst: ArchReg, imm: i32) -> Uop {
        Uop {
            dst: Some(dst),
            imm,
            ..Uop::new(Opcode::MovImm)
        }
    }

    /// Address arithmetic: `dst = base + index*scale + disp`, flags untouched.
    pub fn lea(dst: ArchReg, base: ArchReg, index: Option<ArchReg>, scale: u8, disp: i32) -> Uop {
        Uop {
            dst: Some(dst),
            src_a: Some(base),
            src_b: index,
            scale,
            imm: disp,
            ..Uop::new(Opcode::Lea)
        }
    }

    /// Simple load: `dst = mem32[base + disp]`.
    pub fn load(dst: ArchReg, base: ArchReg, disp: i32) -> Uop {
        Uop {
            dst: Some(dst),
            src_a: Some(base),
            imm: disp,
            ..Uop::new(Opcode::Load)
        }
    }

    /// Indexed load: `dst = mem32[base + index*scale + disp]`.
    pub fn load_indexed(dst: ArchReg, base: ArchReg, index: ArchReg, scale: u8, disp: i32) -> Uop {
        Uop {
            dst: Some(dst),
            src_a: Some(base),
            src_b: Some(index),
            scale,
            imm: disp,
            ..Uop::new(Opcode::Load)
        }
    }

    /// Absolute load: `dst = mem32[addr]`.
    pub fn load_abs(dst: ArchReg, addr: i32) -> Uop {
        Uop {
            dst: Some(dst),
            imm: addr,
            ..Uop::new(Opcode::Load)
        }
    }

    /// Store: `mem32[base + disp] = data`.
    pub fn store(base: ArchReg, disp: i32, data: ArchReg) -> Uop {
        Uop {
            src_a: Some(base),
            src_b: Some(data),
            imm: disp,
            ..Uop::new(Opcode::Store)
        }
    }

    /// Absolute store: `mem32[addr] = data`.
    pub fn store_abs(addr: i32, data: ArchReg) -> Uop {
        Uop {
            src_b: Some(data),
            imm: addr,
            ..Uop::new(Opcode::Store)
        }
    }

    /// Compare: flags of `a - b`.
    pub fn cmp(a: ArchReg, b: ArchReg) -> Uop {
        Uop {
            src_a: Some(a),
            src_b: Some(b),
            writes_flags: true,
            ..Uop::new(Opcode::Cmp)
        }
    }

    /// Compare with immediate: flags of `a - imm`.
    pub fn cmp_imm(a: ArchReg, imm: i32) -> Uop {
        Uop {
            src_a: Some(a),
            imm,
            writes_flags: true,
            ..Uop::new(Opcode::Cmp)
        }
    }

    /// Test: flags of `a & b`.
    pub fn test(a: ArchReg, b: ArchReg) -> Uop {
        Uop {
            src_a: Some(a),
            src_b: Some(b),
            writes_flags: true,
            ..Uop::new(Opcode::Test)
        }
    }

    /// Unconditional direct jump.
    pub fn jmp(target: u32) -> Uop {
        Uop {
            target,
            ..Uop::new(Opcode::Jmp)
        }
    }

    /// Indirect jump through `reg`.
    pub fn jmp_ind(reg: ArchReg) -> Uop {
        Uop {
            src_a: Some(reg),
            ..Uop::new(Opcode::JmpInd)
        }
    }

    /// Conditional branch on `cc` to `target`.
    pub fn br(cc: Cond, target: u32) -> Uop {
        Uop {
            cc: Some(cc),
            target,
            ..Uop::new(Opcode::Br)
        }
    }

    /// Assertion that `cc` holds over the incoming flags.
    pub fn assert_cc(cc: Cond) -> Uop {
        Uop {
            cc: Some(cc),
            ..Uop::new(Opcode::Assert)
        }
    }

    /// Fused compare-and-assert: assert `cc` over flags of `a - b`.
    pub fn assert_cmp(cc: Cond, a: ArchReg, b: Option<ArchReg>, imm: i32) -> Uop {
        Uop {
            cc: Some(cc),
            src_a: Some(a),
            src_b: b,
            imm,
            ..Uop::new(Opcode::AssertCmp)
        }
    }

    /// A no-op.
    pub fn nop() -> Uop {
        Uop::new(Opcode::Nop)
    }

    /// A serializing fence.
    pub fn fence() -> Uop {
        Uop::new(Opcode::Fence)
    }

    /// Tags the uop with its parent x86 instruction address (builder style).
    pub fn at(mut self, x86_addr: u32) -> Uop {
        self.x86_addr = x86_addr;
        self
    }

    /// Marks the uop as the last of its x86 instruction's decode flow.
    pub fn ending_x86(mut self) -> Uop {
        self.last_of_x86 = true;
        self
    }

    /// True if this uop reads the incoming architectural flags.
    pub fn reads_flags(&self) -> bool {
        matches!(self.op, Opcode::Br | Opcode::Assert)
    }

    /// True if this uop is a load.
    pub fn is_load(&self) -> bool {
        self.op == Opcode::Load
    }

    /// True if this uop is a store.
    pub fn is_store(&self) -> bool {
        self.op == Opcode::Store
    }

    /// True if removal of this uop could change architectural state or
    /// control flow even when its value result is unused: stores, branches,
    /// assertions, and fences have side effects; everything else does not.
    ///
    /// Note that loads are *not* side-effecting in this model (no
    /// memory-mapped I/O in the simulated address space), which is what
    /// permits redundant-load elimination.
    pub fn has_side_effect(&self) -> bool {
        self.is_store() || self.op.is_branch() || self.op.is_assert() || self.op == Opcode::Fence
    }

    /// Iterates over the register sources the uop actually reads.
    ///
    /// For stores this includes both the base (address) and the data
    /// register.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.src_a.into_iter().chain(self.src_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_expected_fields() {
        let u = Uop::alu(Opcode::Add, ArchReg::Eax, ArchReg::Ebx, ArchReg::Ecx);
        assert_eq!(u.dst, Some(ArchReg::Eax));
        assert!(u.writes_flags);

        let u = Uop::mov(ArchReg::Eax, ArchReg::Ebx);
        assert!(!u.writes_flags, "x86 MOV does not set flags");

        let u = Uop::lea(ArchReg::Eax, ArchReg::Ebx, Some(ArchReg::Ecx), 4, 8);
        assert!(!u.writes_flags, "LEA does not set flags");
        assert_eq!(u.scale, 4);

        let u = Uop::cmp_imm(ArchReg::Eax, 5);
        assert!(u.writes_flags);
        assert_eq!(u.dst, None);
    }

    #[test]
    fn side_effects() {
        assert!(Uop::store(ArchReg::Esp, 0, ArchReg::Eax).has_side_effect());
        assert!(Uop::br(Cond::Eq, 0x100).has_side_effect());
        assert!(Uop::assert_cc(Cond::Eq).has_side_effect());
        assert!(Uop::fence().has_side_effect());
        assert!(!Uop::load(ArchReg::Eax, ArchReg::Esp, 0).has_side_effect());
        assert!(!Uop::mov_imm(ArchReg::Eax, 1).has_side_effect());
    }

    #[test]
    fn flag_reading() {
        assert!(Uop::br(Cond::Eq, 0).reads_flags());
        assert!(Uop::assert_cc(Cond::Ne).reads_flags());
        // Fused asserts compute their own flags; they do not read incoming
        // flags.
        assert!(!Uop::assert_cmp(Cond::Eq, ArchReg::Eax, None, 0).reads_flags());
        assert!(!Uop::cmp(ArchReg::Eax, ArchReg::Ebx).reads_flags());
    }

    #[test]
    fn sources_and_defs() {
        let st = Uop::store(ArchReg::Esp, -4, ArchReg::Ebp);
        let srcs: Vec<_> = st.sources().collect();
        assert_eq!(srcs, vec![ArchReg::Esp, ArchReg::Ebp]);
        assert_eq!(st.dst, None);

        let ld = Uop::load(ArchReg::Eax, ArchReg::Esp, 8);
        assert_eq!(ld.dst, Some(ArchReg::Eax));
    }

    #[test]
    fn provenance_builders() {
        let u = Uop::nop().at(0x4000).ending_x86();
        assert_eq!(u.x86_addr, 0x4000);
        assert!(u.last_of_x86);
    }
}
