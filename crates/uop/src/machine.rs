//! The architectural micro-op machine: registers + flags + memory.

use crate::semantics::{eval_alu, eval_alu_with_flags, AluError};
use crate::{ArchReg, Flags, Opcode, SparseMemory, Uop, NUM_ARCH_REGS};

/// The control-flow consequence of executing one uop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlEffect {
    /// Fall through to the next uop.
    Next,
    /// Direct control transfer to the given x86 address (`Jmp`, or a taken
    /// `Br`).
    Taken(u32),
    /// A conditional branch that was not taken.
    NotTaken,
    /// Indirect control transfer to the address read from a register.
    IndirectTo(u32),
    /// An assertion whose condition did not hold: the frame must roll back.
    AssertFired,
}

/// Everything observable about the execution of a single uop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopEffect {
    /// Control-flow outcome.
    pub control: ControlEffect,
    /// `(address, value)` of a memory read, if the uop was a load.
    pub mem_read: Option<(u32, u32)>,
    /// `(address, value)` of a memory write, if the uop was a store.
    pub mem_write: Option<(u32, u32)>,
    /// `(register, value)` written, if the uop produced a value.
    pub reg_write: Option<(ArchReg, u32)>,
}

impl UopEffect {
    fn control(control: ControlEffect) -> UopEffect {
        UopEffect {
            control,
            mem_read: None,
            mem_write: None,
            reg_write: None,
        }
    }
}

/// Errors raised by functional execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// Division or remainder by zero.
    DivideByZero,
    /// A uop was malformed for its opcode (e.g. a `Load` without a
    /// destination register).
    Malformed(Opcode),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::DivideByZero => write!(f, "division by zero"),
            ExecError::Malformed(op) => write!(f, "malformed {op} micro-operation"),
        }
    }
}

impl std::error::Error for ExecError {}

/// An architectural machine state: 16 registers, flags, and sparse memory.
///
/// This is the *reference* functional semantics of the uop ISA. The trace
/// generator executes translated programs on it to produce golden traces,
/// and the state verifier replays optimized frames on it to check
/// equivalence at frame boundaries.
#[derive(Debug, Clone, Default)]
pub struct MachineState {
    regs: [u32; NUM_ARCH_REGS],
    flags: Flags,
    /// The memory image. Public because the trace generator and verifier
    /// need to seed and snapshot it wholesale.
    pub mem: SparseMemory,
}

impl MachineState {
    /// Creates a machine with all registers zero and empty memory.
    pub fn new() -> MachineState {
        MachineState::default()
    }

    /// Reads a register.
    #[inline]
    pub fn reg(&self, r: ArchReg) -> u32 {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn set_reg(&mut self, r: ArchReg, value: u32) {
        self.regs[r.index()] = value;
    }

    /// The current flags.
    #[inline]
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Overwrites the flags.
    #[inline]
    pub fn set_flags(&mut self, flags: Flags) {
        self.flags = flags;
    }

    /// Reads a 32-bit word from memory.
    pub fn load32(&self, addr: u32) -> u32 {
        self.mem.read_u32(addr)
    }

    /// Writes a 32-bit word to memory.
    pub fn store32(&mut self, addr: u32, value: u32) {
        self.mem.write_u32(addr, value);
    }

    /// Resolves the `b` operand of an ALU-style uop: the second register
    /// source if present, otherwise the immediate.
    fn operand_b(&self, u: &Uop) -> u32 {
        match u.src_b {
            Some(r) => self.reg(r),
            None => u.imm as u32,
        }
    }

    /// The effective address of a memory uop.
    ///
    /// Loads: `base + index*scale + disp`. Stores: `base + disp` (store
    /// addresses are index-free by construction; see [`Uop`]).
    pub fn effective_address(&self, u: &Uop) -> u32 {
        let base = u.src_a.map_or(0, |r| self.reg(r));
        match u.op {
            Opcode::Load | Opcode::Lea => {
                let index = u.src_b.map_or(0, |r| self.reg(r));
                base.wrapping_add(index.wrapping_mul(u.scale as u32))
                    .wrapping_add(u.imm as u32)
            }
            _ => base.wrapping_add(u.imm as u32),
        }
    }

    /// Executes one uop, updating registers, flags, and memory.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::DivideByZero`] on division by zero and
    /// [`ExecError::Malformed`] when an opcode is missing a required operand.
    pub fn exec(&mut self, u: &Uop) -> Result<UopEffect, ExecError> {
        match u.op {
            Opcode::Nop | Opcode::Fence => Ok(UopEffect::control(ControlEffect::Next)),
            Opcode::Jmp => Ok(UopEffect::control(ControlEffect::Taken(u.target))),
            Opcode::JmpInd => {
                let r = u.src_a.ok_or(ExecError::Malformed(u.op))?;
                Ok(UopEffect::control(ControlEffect::IndirectTo(self.reg(r))))
            }
            Opcode::Br => {
                let cc = u.cc.ok_or(ExecError::Malformed(u.op))?;
                if cc.holds(self.flags) {
                    Ok(UopEffect::control(ControlEffect::Taken(u.target)))
                } else {
                    Ok(UopEffect::control(ControlEffect::NotTaken))
                }
            }
            Opcode::Assert => {
                let cc = u.cc.ok_or(ExecError::Malformed(u.op))?;
                if cc.holds(self.flags) {
                    Ok(UopEffect::control(ControlEffect::Next))
                } else {
                    Ok(UopEffect::control(ControlEffect::AssertFired))
                }
            }
            Opcode::AssertCmp | Opcode::AssertTest => {
                let cc = u.cc.ok_or(ExecError::Malformed(u.op))?;
                let a = u.src_a.map_or(0, |r| self.reg(r));
                let b = self.operand_b(u);
                let alu_op = if u.op == Opcode::AssertCmp {
                    Opcode::Cmp
                } else {
                    Opcode::Test
                };
                let res = eval_alu(alu_op, a, b).map_err(map_alu_err)?;
                if cc.holds(res.flags) {
                    Ok(UopEffect::control(ControlEffect::Next))
                } else {
                    Ok(UopEffect::control(ControlEffect::AssertFired))
                }
            }
            Opcode::Load => {
                let dst = u.dst.ok_or(ExecError::Malformed(u.op))?;
                let addr = self.effective_address(u);
                let value = self.load32(addr);
                self.set_reg(dst, value);
                Ok(UopEffect {
                    control: ControlEffect::Next,
                    mem_read: Some((addr, value)),
                    mem_write: None,
                    reg_write: Some((dst, value)),
                })
            }
            Opcode::Store => {
                let data = u.src_b.ok_or(ExecError::Malformed(u.op))?;
                let addr = self.effective_address(u);
                let value = self.reg(data);
                self.store32(addr, value);
                Ok(UopEffect {
                    control: ControlEffect::Next,
                    mem_read: None,
                    mem_write: Some((addr, value)),
                    reg_write: None,
                })
            }
            op if op.is_alu() => {
                let a = u.src_a.map_or(0, |r| self.reg(r));
                let b = if op == Opcode::Lea {
                    // Pre-scale the index for the shared evaluator.
                    let index = u.src_b.map_or(0, |r| self.reg(r));
                    index
                        .wrapping_mul(u.scale as u32)
                        .wrapping_add(u.imm as u32)
                } else {
                    self.operand_b(u)
                };
                let res = eval_alu_with_flags(op, a, b, self.flags).map_err(map_alu_err)?;
                let mut reg_write = None;
                if let Some(dst) = u.dst {
                    self.set_reg(dst, res.value);
                    reg_write = Some((dst, res.value));
                }
                if u.writes_flags {
                    self.flags = res.flags;
                }
                Ok(UopEffect {
                    control: ControlEffect::Next,
                    mem_read: None,
                    mem_write: None,
                    reg_write,
                })
            }
            op => Err(ExecError::Malformed(op)),
        }
    }
}

fn map_alu_err(e: AluError) -> ExecError {
    match e {
        AluError::DivideByZero => ExecError::DivideByZero,
        AluError::NotAlu(op) => ExecError::Malformed(op),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Cond;

    #[test]
    fn alu_updates_reg_and_flags() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Eax, 7);
        let u = Uop::alu_imm(Opcode::Sub, ArchReg::Eax, ArchReg::Eax, 7);
        let eff = m.exec(&u).unwrap();
        assert_eq!(m.reg(ArchReg::Eax), 0);
        assert!(m.flags().zf);
        assert_eq!(eff.reg_write, Some((ArchReg::Eax, 0)));
    }

    #[test]
    fn mov_preserves_flags() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Eax, 0);
        m.exec(&Uop::cmp_imm(ArchReg::Eax, 0)).unwrap();
        assert!(m.flags().zf);
        m.exec(&Uop::mov_imm(ArchReg::Ebx, 5)).unwrap();
        assert!(m.flags().zf, "MOV must not clobber flags");
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Esp, 0x1000);
        m.set_reg(ArchReg::Ebp, 0xdead);
        let st = Uop::store(ArchReg::Esp, -4, ArchReg::Ebp);
        let eff = m.exec(&st).unwrap();
        assert_eq!(eff.mem_write, Some((0xffc, 0xdead)));
        let ld = Uop::load(ArchReg::Ecx, ArchReg::Esp, -4);
        let eff = m.exec(&ld).unwrap();
        assert_eq!(eff.mem_read, Some((0xffc, 0xdead)));
        assert_eq!(m.reg(ArchReg::Ecx), 0xdead);
    }

    #[test]
    fn indexed_load_addressing() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Ebx, 0x2000);
        m.set_reg(ArchReg::Ecx, 3);
        m.store32(0x2000 + 3 * 4 + 8, 99);
        let ld = Uop::load_indexed(ArchReg::Eax, ArchReg::Ebx, ArchReg::Ecx, 4, 8);
        m.exec(&ld).unwrap();
        assert_eq!(m.reg(ArchReg::Eax), 99);
    }

    #[test]
    fn branch_and_assert_control() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Eax, 1);
        m.exec(&Uop::cmp_imm(ArchReg::Eax, 1)).unwrap();
        // Taken branch.
        let eff = m.exec(&Uop::br(Cond::Eq, 0x42)).unwrap();
        assert_eq!(eff.control, ControlEffect::Taken(0x42));
        // Not-taken branch.
        let eff = m.exec(&Uop::br(Cond::Ne, 0x42)).unwrap();
        assert_eq!(eff.control, ControlEffect::NotTaken);
        // Holding assert.
        let eff = m.exec(&Uop::assert_cc(Cond::Eq)).unwrap();
        assert_eq!(eff.control, ControlEffect::Next);
        // Firing assert.
        let eff = m.exec(&Uop::assert_cc(Cond::Ne)).unwrap();
        assert_eq!(eff.control, ControlEffect::AssertFired);
    }

    #[test]
    fn fused_assert_does_not_touch_flags() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Eax, 5);
        m.exec(&Uop::cmp_imm(ArchReg::Eax, 5)).unwrap();
        let before = m.flags();
        let eff = m
            .exec(&Uop::assert_cmp(Cond::Ne, ArchReg::Eax, None, 9))
            .unwrap();
        assert_eq!(eff.control, ControlEffect::Next);
        assert_eq!(m.flags(), before);
        let eff = m
            .exec(&Uop::assert_cmp(Cond::Eq, ArchReg::Eax, None, 9))
            .unwrap();
        assert_eq!(eff.control, ControlEffect::AssertFired);
    }

    #[test]
    fn indirect_jump() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Et2, 0x8080);
        let eff = m.exec(&Uop::jmp_ind(ArchReg::Et2)).unwrap();
        assert_eq!(eff.control, ControlEffect::IndirectTo(0x8080));
    }

    #[test]
    fn divide_by_zero_reported() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Eax, 10);
        m.set_reg(ArchReg::Ebx, 0);
        let u = Uop::alu(Opcode::Div, ArchReg::Eax, ArchReg::Eax, ArchReg::Ebx);
        assert_eq!(m.exec(&u).unwrap_err(), ExecError::DivideByZero);
    }

    #[test]
    fn lea_computes_scaled_address() {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Ebx, 0x100);
        m.set_reg(ArchReg::Ecx, 2);
        let u = Uop::lea(ArchReg::Eax, ArchReg::Ebx, Some(ArchReg::Ecx), 8, 4);
        m.exec(&u).unwrap();
        assert_eq!(m.reg(ArchReg::Eax), 0x100 + 2 * 8 + 4);
    }
}
