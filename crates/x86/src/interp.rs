//! Functional x86 interpreter.
//!
//! The interpreter executes a [`Program`] by decoding each instruction,
//! translating it to uops, and running the uops on a [`MachineState`]. Every
//! step yields a [`StepRecord`] carrying the instruction, its uops, and all
//! observed effects (register writes, memory transactions, branch outcome) —
//! the same per-instruction content the paper describes for its
//! hardware-generated trace records (§5.1.1).

use crate::{DecodeError, Inst, Program, Translator};
use replay_uop::{ControlEffect, ExecError, Flags, MachineState, Uop, UopEffect};

/// Address that terminates interpretation: the harness seeds the initial
/// stack with this return address, so the program's final `RET` lands here.
pub const HALT_ADDR: u32 = 0xdead_0000;

/// A uop together with the effects of its execution.
#[derive(Debug, Clone)]
pub struct UopExec {
    /// The executed micro-operation.
    pub uop: Uop,
    /// Its observed effects.
    pub effect: UopEffect,
}

/// The record of one executed x86 instruction.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Instruction address.
    pub addr: u32,
    /// The decoded instruction.
    pub inst: Inst,
    /// Encoded length in bytes.
    pub len: u8,
    /// Address of the next instruction actually executed.
    pub next_pc: u32,
    /// The executed uop flow with per-uop effects.
    pub uops: Vec<UopExec>,
    /// The architectural flags after the instruction.
    pub flags_after: Flags,
}

impl StepRecord {
    /// For conditional branches: whether the branch was taken.
    /// `None` for non-branch instructions.
    pub fn taken(&self) -> Option<bool> {
        match self.inst {
            Inst::Jcc { target, .. } => Some(self.next_pc == target),
            _ => None,
        }
    }

    /// The fall-through address (`addr + len`).
    pub fn fallthrough(&self) -> u32 {
        self.addr + self.len as u32
    }
}

/// Errors from interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// Instruction decoding failed at an address.
    Decode {
        /// Faulting address.
        addr: u32,
        /// Underlying decoder error.
        err: DecodeError,
    },
    /// Uop execution failed at an address.
    Exec {
        /// Faulting instruction address.
        addr: u32,
        /// Underlying execution error.
        err: ExecError,
    },
    /// Control left the program image (and is not [`HALT_ADDR`]).
    OutOfProgram {
        /// The out-of-image program counter.
        pc: u32,
    },
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Decode { addr, err } => write!(f, "decode error at {addr:#x}: {err}"),
            InterpError::Exec { addr, err } => write!(f, "execution error at {addr:#x}: {err}"),
            InterpError::OutOfProgram { pc } => write!(f, "control left program at {pc:#x}"),
        }
    }
}

impl std::error::Error for InterpError {}

/// A functional interpreter over a program image.
///
/// # Example
///
/// ```
/// use replay_x86::{Assembler, Gpr, Inst, Interp};
/// use replay_uop::ArchReg;
///
/// let mut asm = Assembler::new(0x1000);
/// asm.push(Inst::MovRI { dst: Gpr::Eax, imm: 40 });
/// asm.push(Inst::AluRI { op: replay_x86::AluOp::Add, dst: Gpr::Eax, imm: 2 });
/// asm.push(Inst::Ret);
/// let mut interp = Interp::new(asm.finish());
/// let records = interp.run(100).expect("program runs");
/// assert_eq!(records.len(), 3);
/// assert_eq!(interp.machine.reg(ArchReg::Eax), 42);
/// ```
#[derive(Debug)]
pub struct Interp {
    /// The architectural machine state (registers, flags, memory).
    pub machine: MachineState,
    /// The current program counter.
    pub pc: u32,
    program: Program,
    /// Decoded instructions by byte offset into the program image.
    decode_cache: Vec<Option<(Inst, u8)>>,
    translator: Translator,
}

impl Interp {
    /// Creates an interpreter at the program's entry point with a stack
    /// seeded so that the outermost `RET` halts: `ESP` points at a word
    /// containing [`HALT_ADDR`].
    pub fn new(program: Program) -> Interp {
        let mut machine = MachineState::new();
        let stack_top = 0x00f0_0000;
        machine.set_reg(replay_uop::ArchReg::Esp, stack_top);
        machine.store32(stack_top, HALT_ADDR);
        let pc = program.entry;
        let decode_cache = vec![None; program.image.len()];
        Interp {
            machine,
            pc,
            program,
            decode_cache,
            translator: Translator::new(),
        }
    }

    /// The program being interpreted.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The translator statistics accumulated so far.
    pub fn translator(&self) -> &Translator {
        &self.translator
    }

    /// True once control has reached [`HALT_ADDR`].
    pub fn halted(&self) -> bool {
        self.pc == HALT_ADDR
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Fails on decode errors, execution faults, or control leaving the
    /// program image.
    pub fn step(&mut self) -> Result<StepRecord, InterpError> {
        let addr = self.pc;
        if !self.program.contains(addr) {
            return Err(InterpError::OutOfProgram { pc: addr });
        }
        let slot = &mut self.decode_cache[(addr - self.program.base) as usize];
        let (inst, len) = match *slot {
            Some(hit) => hit,
            None => {
                let decoded = self
                    .program
                    .decode_at(addr)
                    .map_err(|err| InterpError::Decode { addr, err })?;
                *slot = Some(decoded);
                decoded
            }
        };
        let fallthrough = addr + len as u32;
        let uops = self.translator.translate(&inst, addr, fallthrough);

        let mut next_pc = fallthrough;
        let mut execs = Vec::with_capacity(uops.len());
        for uop in uops {
            let effect = self
                .machine
                .exec(&uop)
                .map_err(|err| InterpError::Exec { addr, err })?;
            match effect.control {
                ControlEffect::Taken(t) | ControlEffect::IndirectTo(t) => next_pc = t,
                ControlEffect::Next | ControlEffect::NotTaken => {}
                ControlEffect::AssertFired => {
                    unreachable!("translated x86 code contains no assertions")
                }
            }
            execs.push(UopExec { uop, effect });
        }

        self.pc = next_pc;
        Ok(StepRecord {
            addr,
            inst,
            len,
            next_pc,
            uops: execs,
            flags_after: self.machine.flags(),
        })
    }

    /// Runs until the program halts (outermost `RET`) or `max_steps`
    /// instructions have executed, collecting all step records.
    ///
    /// # Errors
    ///
    /// Propagates the first [`InterpError`].
    pub fn run(&mut self, max_steps: usize) -> Result<Vec<StepRecord>, InterpError> {
        let mut records = Vec::new();
        while !self.halted() && records.len() < max_steps {
            records.push(self.step()?);
        }
        Ok(records)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AluOp, Assembler, CondX86, Gpr, MemOperand};
    use replay_uop::ArchReg;

    fn countdown_program() -> Program {
        // ECX = 5; loop { ECX-- } until zero; RET.
        let mut asm = Assembler::new(0x1000);
        let top = asm.new_label();
        asm.push(Inst::MovRI {
            dst: Gpr::Ecx,
            imm: 5,
        });
        asm.bind(top);
        asm.push(Inst::DecR { r: Gpr::Ecx });
        asm.jcc(CondX86::Nz, top);
        asm.push(Inst::Ret);
        asm.finish()
    }

    #[test]
    fn loop_executes_and_halts() {
        let mut interp = Interp::new(countdown_program());
        let records = interp.run(1000).unwrap();
        assert!(interp.halted());
        assert_eq!(interp.machine.reg(ArchReg::Ecx), 0);
        // 1 mov + 5 * (dec + jcc) + ret.
        assert_eq!(records.len(), 1 + 10 + 1);
        // Branch outcome: taken 4 times, not-taken once.
        let takens: Vec<bool> = records.iter().filter_map(|r| r.taken()).collect();
        assert_eq!(takens, vec![true, true, true, true, false]);
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut asm = Assembler::new(0x2000);
        let f = asm.new_label();
        asm.call(f);
        asm.push(Inst::Ret); // back at top level: halts
        asm.bind(f);
        asm.push(Inst::MovRI {
            dst: Gpr::Eax,
            imm: 99,
        });
        asm.push(Inst::Ret);
        let mut interp = Interp::new(asm.finish());
        let esp0 = interp.machine.reg(ArchReg::Esp);
        interp.run(100).unwrap();
        assert!(interp.halted());
        assert_eq!(interp.machine.reg(ArchReg::Eax), 99);
        assert_eq!(
            interp.machine.reg(ArchReg::Esp),
            esp0 + 4,
            "outermost RET popped the sentinel"
        );
    }

    #[test]
    fn memory_effects_recorded() {
        let mut asm = Assembler::new(0x3000);
        asm.push(Inst::MovRI {
            dst: Gpr::Eax,
            imm: 7,
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
        let records = interp.run(100).unwrap();
        let store = records[1].uops.last().unwrap();
        assert_eq!(store.effect.mem_write, Some((0x9000, 7)));
        let load = &records[2].uops[0];
        assert_eq!(load.effect.mem_read, Some((0x9000, 7)));
    }

    #[test]
    fn out_of_program_detected() {
        let mut asm = Assembler::new(0x100);
        asm.push(Inst::Jmp { target: 0x9999 });
        let mut interp = Interp::new(asm.finish());
        interp.step().unwrap();
        assert_eq!(
            interp.step().unwrap_err(),
            InterpError::OutOfProgram { pc: 0x9999 }
        );
    }

    #[test]
    fn uop_ratio_accumulates() {
        let mut interp = Interp::new(countdown_program());
        interp.run(1000).unwrap();
        let t = interp.translator();
        assert_eq!(t.x86_count(), 12);
        // mov(1) + 5*dec(1) + 5*jcc(1) + ret(3) = 14 uops.
        assert_eq!(t.uop_count(), 14);
        assert!(t.ratio() > 1.0 && t.ratio() < 1.3);
    }

    #[test]
    fn alu_rm_reads_memory() {
        let mut asm = Assembler::new(0x100);
        asm.push(Inst::MovRI {
            dst: Gpr::Eax,
            imm: 40,
        });
        asm.push(Inst::MovMI {
            mem: MemOperand::absolute(0x8000),
            imm: 2,
        });
        asm.push(Inst::AluRM {
            op: AluOp::Add,
            dst: Gpr::Eax,
            mem: MemOperand::absolute(0x8000),
        });
        asm.push(Inst::Ret);
        let mut interp = Interp::new(asm.finish());
        interp.run(100).unwrap();
        assert_eq!(interp.machine.reg(ArchReg::Eax), 42);
    }
}
