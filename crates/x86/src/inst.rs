//! The x86 subset instruction model.

use crate::Gpr;
use replay_uop::Cond;
use std::fmt;

/// An x86 memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOperand {
    /// Base register, if any.
    pub base: Option<Gpr>,
    /// Index register with its scale (1, 2, 4, or 8). The index may not be
    /// `ESP` (IA-32 encoding restriction).
    pub index: Option<(Gpr, u8)>,
    /// Displacement.
    pub disp: i32,
}

impl MemOperand {
    /// `[base + disp]`.
    pub fn base_disp(base: Gpr, disp: i32) -> MemOperand {
        MemOperand {
            base: Some(base),
            index: None,
            disp,
        }
    }

    /// `[base + index*scale + disp]`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is `ESP` (not encodable in IA-32) or `scale` is not
    /// 1, 2, 4, or 8.
    pub fn base_index(base: Gpr, index: Gpr, scale: u8, disp: i32) -> MemOperand {
        assert!(index != Gpr::Esp, "ESP cannot be an index register");
        assert!(matches!(scale, 1 | 2 | 4 | 8), "scale must be 1/2/4/8");
        MemOperand {
            base: Some(base),
            index: Some((index, scale)),
            disp,
        }
    }

    /// Absolute `[disp]`.
    pub fn absolute(addr: u32) -> MemOperand {
        MemOperand {
            base: None,
            index: None,
            disp: addr as i32,
        }
    }
}

impl fmt::Display for MemOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some((i, s)) = self.index {
            if wrote {
                write!(f, "+")?;
            }
            write!(f, "{i}*{s}")?;
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if wrote {
                if self.disp >= 0 {
                    write!(f, "+{:#x}", self.disp)?;
                } else {
                    write!(f, "-{:#x}", -(self.disp as i64))?;
                }
            } else {
                write!(f, "{:#x}", self.disp as u32)?;
            }
        }
        write!(f, "]")
    }
}

/// Two-address ALU operations (the x86 `ADD`-group).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `ADD` — ModRM reg-field extension /0.
    Add,
    /// `OR` — /1.
    Or,
    /// `AND` — /4.
    And,
    /// `SUB` — /5.
    Sub,
    /// `XOR` — /6.
    Xor,
}

impl AluOp {
    /// All ALU group operations.
    pub const ALL: [AluOp; 5] = [AluOp::Add, AluOp::Or, AluOp::And, AluOp::Sub, AluOp::Xor];

    /// ModRM reg-field extension for the `81 /n` immediate forms.
    pub fn ext(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Or => 1,
            AluOp::And => 4,
            AluOp::Sub => 5,
            AluOp::Xor => 6,
        }
    }

    /// Reconstructs from a ModRM extension code.
    pub fn from_ext(ext: u8) -> Option<AluOp> {
        Some(match ext {
            0 => AluOp::Add,
            1 => AluOp::Or,
            4 => AluOp::And,
            5 => AluOp::Sub,
            6 => AluOp::Xor,
            _ => return None,
        })
    }

    /// The corresponding uop opcode.
    pub fn to_uop(self) -> replay_uop::Opcode {
        match self {
            AluOp::Add => replay_uop::Opcode::Add,
            AluOp::Or => replay_uop::Opcode::Or,
            AluOp::And => replay_uop::Opcode::And,
            AluOp::Sub => replay_uop::Opcode::Sub,
            AluOp::Xor => replay_uop::Opcode::Xor,
        }
    }

    /// Mnemonic, e.g. `"ADD"`.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "ADD",
            AluOp::Or => "OR",
            AluOp::And => "AND",
            AluOp::Sub => "SUB",
            AluOp::Xor => "XOR",
        }
    }
}

/// Shift operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// `SHL` — /4.
    Shl,
    /// `SHR` — /5.
    Shr,
    /// `SAR` — /7.
    Sar,
}

impl ShiftOp {
    /// ModRM reg-field extension for the `C1 /n` forms.
    pub fn ext(self) -> u8 {
        match self {
            ShiftOp::Shl => 4,
            ShiftOp::Shr => 5,
            ShiftOp::Sar => 7,
        }
    }

    /// Reconstructs from a ModRM extension code.
    pub fn from_ext(ext: u8) -> Option<ShiftOp> {
        Some(match ext {
            4 => ShiftOp::Shl,
            5 => ShiftOp::Shr,
            7 => ShiftOp::Sar,
            _ => return None,
        })
    }

    /// The corresponding uop opcode.
    pub fn to_uop(self) -> replay_uop::Opcode {
        match self {
            ShiftOp::Shl => replay_uop::Opcode::Shl,
            ShiftOp::Shr => replay_uop::Opcode::Shr,
            ShiftOp::Sar => replay_uop::Opcode::Sar,
        }
    }
}

/// x86 condition codes (`Jcc` tttn encodings).
///
/// The numeric values are the IA-32 `tttn` condition encodings used in the
/// `0F 8x` long-form `Jcc` opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum CondX86 {
    /// `JO` (0x0).
    O = 0x0,
    /// `JNO` (0x1).
    No = 0x1,
    /// `JB` (0x2).
    B = 0x2,
    /// `JAE` (0x3).
    Ae = 0x3,
    /// `JZ`/`JE` (0x4).
    Z = 0x4,
    /// `JNZ`/`JNE` (0x5).
    Nz = 0x5,
    /// `JBE` (0x6).
    Be = 0x6,
    /// `JA` (0x7).
    A = 0x7,
    /// `JS` (0x8).
    S = 0x8,
    /// `JNS` (0x9).
    Ns = 0x9,
    /// `JP` (0xa).
    P = 0xa,
    /// `JNP` (0xb).
    Np = 0xb,
    /// `JL` (0xc).
    L = 0xc,
    /// `JGE` (0xd).
    Ge = 0xd,
    /// `JLE` (0xe).
    Le = 0xe,
    /// `JG` (0xf).
    G = 0xf,
}

impl CondX86 {
    /// All condition encodings.
    pub const ALL: [CondX86; 16] = [
        CondX86::O,
        CondX86::No,
        CondX86::B,
        CondX86::Ae,
        CondX86::Z,
        CondX86::Nz,
        CondX86::Be,
        CondX86::A,
        CondX86::S,
        CondX86::Ns,
        CondX86::P,
        CondX86::Np,
        CondX86::L,
        CondX86::Ge,
        CondX86::Le,
        CondX86::G,
    ];

    /// The IA-32 `tttn` encoding.
    pub fn tttn(self) -> u8 {
        self as u8
    }

    /// Reconstructs from a `tttn` encoding.
    pub fn from_tttn(t: u8) -> Option<CondX86> {
        Self::ALL.get(t as usize).copied().filter(|c| c.tttn() == t)
    }

    /// The corresponding uop condition code.
    pub fn to_cond(self) -> Cond {
        match self {
            CondX86::O => Cond::O,
            CondX86::No => Cond::No,
            CondX86::B => Cond::B,
            CondX86::Ae => Cond::Ae,
            CondX86::Z => Cond::Eq,
            CondX86::Nz => Cond::Ne,
            CondX86::Be => Cond::Be,
            CondX86::A => Cond::A,
            CondX86::S => Cond::S,
            CondX86::Ns => Cond::Ns,
            CondX86::P => Cond::P,
            CondX86::Np => Cond::Np,
            CondX86::L => Cond::Lt,
            CondX86::Ge => Cond::Ge,
            CondX86::Le => Cond::Le,
            CondX86::G => Cond::Gt,
        }
    }
}

/// An instruction in the x86 subset.
///
/// Branch/call targets are absolute x86 addresses in the instruction model;
/// the encoder converts them to rel32 form and the decoder converts back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// `MOV r32, r32`.
    MovRR {
        /// Destination register.
        dst: Gpr,
        /// Source register.
        src: Gpr,
    },
    /// `MOV r32, imm32`.
    MovRI {
        /// Destination register.
        dst: Gpr,
        /// Immediate value.
        imm: i32,
    },
    /// `MOV r32, [mem]` — load.
    MovRM {
        /// Destination register.
        dst: Gpr,
        /// Source memory operand.
        mem: MemOperand,
    },
    /// `MOV [mem], r32` — store.
    MovMR {
        /// Destination memory operand.
        mem: MemOperand,
        /// Source register.
        src: Gpr,
    },
    /// `MOV [mem], imm32` — store immediate.
    MovMI {
        /// Destination memory operand.
        mem: MemOperand,
        /// Immediate value.
        imm: i32,
    },
    /// `LEA r32, [mem]`.
    Lea {
        /// Destination register.
        dst: Gpr,
        /// Address expression.
        mem: MemOperand,
    },
    /// `PUSH r32`.
    PushR {
        /// Register pushed.
        src: Gpr,
    },
    /// `PUSH imm32`.
    PushI {
        /// Immediate pushed.
        imm: i32,
    },
    /// `POP r32`.
    PopR {
        /// Register popped into.
        dst: Gpr,
    },
    /// ALU `op r32, r32`.
    AluRR {
        /// Operation.
        op: AluOp,
        /// Destination (and first source).
        dst: Gpr,
        /// Second source.
        src: Gpr,
    },
    /// ALU `op r32, imm32`.
    AluRI {
        /// Operation.
        op: AluOp,
        /// Destination (and first source).
        dst: Gpr,
        /// Immediate second operand.
        imm: i32,
    },
    /// ALU `op r32, [mem]` — load-operate.
    AluRM {
        /// Operation.
        op: AluOp,
        /// Destination (and first source).
        dst: Gpr,
        /// Memory second operand.
        mem: MemOperand,
    },
    /// ALU `op [mem], r32` — read-modify-write.
    AluMR {
        /// Operation.
        op: AluOp,
        /// Memory destination (and first source).
        mem: MemOperand,
        /// Register second operand.
        src: Gpr,
    },
    /// `CMP r32, r32`.
    CmpRR {
        /// First operand.
        a: Gpr,
        /// Second operand.
        b: Gpr,
    },
    /// `CMP r32, imm32`.
    CmpRI {
        /// First operand.
        a: Gpr,
        /// Immediate second operand.
        imm: i32,
    },
    /// `CMP r32, [mem]`.
    CmpRM {
        /// First operand.
        a: Gpr,
        /// Memory second operand.
        mem: MemOperand,
    },
    /// `TEST r32, r32`.
    TestRR {
        /// First operand.
        a: Gpr,
        /// Second operand.
        b: Gpr,
    },
    /// `TEST r32, imm32`.
    TestRI {
        /// First operand.
        a: Gpr,
        /// Immediate mask.
        imm: i32,
    },
    /// `INC r32`.
    IncR {
        /// Register incremented.
        r: Gpr,
    },
    /// `DEC r32`.
    DecR {
        /// Register decremented.
        r: Gpr,
    },
    /// `NEG r32`.
    NegR {
        /// Register negated.
        r: Gpr,
    },
    /// `NOT r32`.
    NotR {
        /// Register complemented.
        r: Gpr,
    },
    /// Shift `op r32, imm8`.
    ShiftRI {
        /// Shift kind.
        op: ShiftOp,
        /// Register shifted.
        r: Gpr,
        /// Shift count (0–31).
        imm: u8,
    },
    /// `IMUL r32, r32` (two-operand form).
    ImulRR {
        /// Destination (and first source).
        dst: Gpr,
        /// Second source.
        src: Gpr,
    },
    /// `IMUL r32, r32, imm32` (three-operand form).
    ImulRRI {
        /// Destination.
        dst: Gpr,
        /// Source.
        src: Gpr,
        /// Immediate multiplier.
        imm: i32,
    },
    /// `DIV r32`: unsigned divide of `EAX` by `r`; quotient → `EAX`,
    /// remainder → `EDX`.
    ///
    /// Simplification vs. real x86: the dividend is `EAX` alone rather than
    /// the 64-bit `EDX:EAX` pair. Generated programs always `XOR EDX,EDX` or
    /// `CDQ` first, so the semantics coincide on all traced executions.
    DivR {
        /// Divisor register.
        src: Gpr,
    },
    /// `CDQ`: sign-extend `EAX` into `EDX`.
    Cdq,
    /// `JMP rel32` — unconditional direct jump (absolute target here).
    Jmp {
        /// Target address.
        target: u32,
    },
    /// `Jcc rel32` — conditional jump.
    Jcc {
        /// Condition.
        cc: CondX86,
        /// Target address.
        target: u32,
    },
    /// `JMP r32` — indirect jump through a register.
    JmpInd {
        /// Register holding the target address.
        r: Gpr,
    },
    /// `CALL rel32`.
    Call {
        /// Target address.
        target: u32,
    },
    /// `RET`.
    Ret,
    /// `NOP`.
    Nop,
    /// A serializing "long-flow" instruction (stand-in for segment loads,
    /// call gates, etc. — the <0.05% of the stream the paper flushes on).
    /// Encoded as `0F 0B` (UD2, repurposed as a marker).
    LongFlow,
}

impl Inst {
    /// True for conditional branches.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Jcc { .. })
    }

    /// The static branch target, if the instruction has one.
    pub fn target(&self) -> Option<u32> {
        match self {
            Inst::Jmp { target } | Inst::Jcc { target, .. } | Inst::Call { target } => {
                Some(*target)
            }
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Inst::MovRR { dst, src } => write!(f, "MOV {dst},{src}"),
            Inst::MovRI { dst, imm } => write!(f, "MOV {dst},{imm:#x}"),
            Inst::MovRM { dst, mem } => write!(f, "MOV {dst},{mem}"),
            Inst::MovMR { mem, src } => write!(f, "MOV {mem},{src}"),
            Inst::MovMI { mem, imm } => write!(f, "MOV {mem},{imm:#x}"),
            Inst::Lea { dst, mem } => write!(f, "LEA {dst},{mem}"),
            Inst::PushR { src } => write!(f, "PUSH {src}"),
            Inst::PushI { imm } => write!(f, "PUSH {imm:#x}"),
            Inst::PopR { dst } => write!(f, "POP {dst}"),
            Inst::AluRR { op, dst, src } => write!(f, "{} {dst},{src}", op.mnemonic()),
            Inst::AluRI { op, dst, imm } => write!(f, "{} {dst},{imm:#x}", op.mnemonic()),
            Inst::AluRM { op, dst, mem } => write!(f, "{} {dst},{mem}", op.mnemonic()),
            Inst::AluMR { op, mem, src } => write!(f, "{} {mem},{src}", op.mnemonic()),
            Inst::CmpRR { a, b } => write!(f, "CMP {a},{b}"),
            Inst::CmpRI { a, imm } => write!(f, "CMP {a},{imm:#x}"),
            Inst::CmpRM { a, mem } => write!(f, "CMP {a},{mem}"),
            Inst::TestRR { a, b } => write!(f, "TEST {a},{b}"),
            Inst::TestRI { a, imm } => write!(f, "TEST {a},{imm:#x}"),
            Inst::IncR { r } => write!(f, "INC {r}"),
            Inst::DecR { r } => write!(f, "DEC {r}"),
            Inst::NegR { r } => write!(f, "NEG {r}"),
            Inst::NotR { r } => write!(f, "NOT {r}"),
            Inst::ShiftRI { op, r, imm } => {
                let m = match op {
                    ShiftOp::Shl => "SHL",
                    ShiftOp::Shr => "SHR",
                    ShiftOp::Sar => "SAR",
                };
                write!(f, "{m} {r},{imm}")
            }
            Inst::ImulRR { dst, src } => write!(f, "IMUL {dst},{src}"),
            Inst::ImulRRI { dst, src, imm } => write!(f, "IMUL {dst},{src},{imm:#x}"),
            Inst::DivR { src } => write!(f, "DIV {src}"),
            Inst::Cdq => write!(f, "CDQ"),
            Inst::Jmp { target } => write!(f, "JMP {target:#x}"),
            Inst::Jcc { cc, target } => write!(f, "J{:?} {target:#x}", cc),
            Inst::JmpInd { r } => write!(f, "JMP {r}"),
            Inst::Call { target } => write!(f, "CALL {target:#x}"),
            Inst::Ret => write!(f, "RET"),
            Inst::Nop => write!(f, "NOP"),
            Inst::LongFlow => write!(f, "LONGFLOW"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ext_roundtrip() {
        for op in AluOp::ALL {
            assert_eq!(AluOp::from_ext(op.ext()), Some(op));
        }
        assert_eq!(AluOp::from_ext(7), None, "7 is CMP, handled separately");
    }

    #[test]
    fn cond_tttn_roundtrip() {
        for c in CondX86::ALL {
            assert_eq!(CondX86::from_tttn(c.tttn()), Some(c));
        }
        assert_eq!(CondX86::from_tttn(16), None);
    }

    #[test]
    fn cond_maps_to_uop_cond() {
        use replay_uop::Flags;
        // JZ taken exactly when ZF set.
        let mut f = Flags::CLEAR;
        f.zf = true;
        assert!(CondX86::Z.to_cond().holds(f));
        assert!(!CondX86::Nz.to_cond().holds(f));
    }

    #[test]
    #[should_panic(expected = "ESP cannot be an index")]
    fn esp_index_rejected() {
        MemOperand::base_index(Gpr::Eax, Gpr::Esp, 4, 0);
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Jcc {
            cc: CondX86::Z,
            target: 4
        }
        .is_cond_branch());
        assert_eq!(Inst::Call { target: 7 }.target(), Some(7));
        assert_eq!(Inst::Ret.target(), None);
    }

    #[test]
    fn display_renders() {
        let m = MemOperand::base_index(Gpr::Ebx, Gpr::Ecx, 4, 16);
        let i = Inst::MovRM {
            dst: Gpr::Eax,
            mem: m,
        };
        assert_eq!(i.to_string(), "MOV EAX,[EBX+ECX*4+0x10]");
        assert_eq!(
            Inst::MovMR {
                mem: MemOperand::base_disp(Gpr::Esp, -4),
                src: Gpr::Ebp
            }
            .to_string(),
            "MOV [ESP-0x4],EBP"
        );
    }
}
