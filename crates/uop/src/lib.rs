//! # replay-uop
//!
//! The rePLay micro-operation ISA.
//!
//! Processors implementing complex instruction sets such as x86 decode each
//! instruction into one or more simplified, fixed-format *micro-operations*
//! (uops). This crate defines the uop format used throughout the rePLay
//! reproduction: a three-operand, RISC-like internal ISA modeled after the
//! description in *Dynamic Optimization of Micro-Operations* (HPCA 2003,
//! §5.1.1), together with its functional semantics.
//!
//! The crate provides:
//!
//! * [`ArchReg`] — the architectural register file visible to uops: the eight
//!   x86 general-purpose registers plus a small set of temporary registers
//!   (`ET0`–`ET7`) that only exist at the uop level.
//! * [`Opcode`] — the uop opcode set (ALU, memory, control, assertion ops).
//! * [`Uop`] — the micro-operation itself, with up to two register sources,
//!   an immediate/displacement, an optional scaled index, explicit
//!   flag-read/write information, and provenance back to the parent x86
//!   instruction.
//! * [`Flags`] / [`Cond`] — x86-style condition flags and condition codes.
//! * [`MachineState`] — an architectural machine (registers + flags + sparse
//!   byte-addressed memory) that executes uops functionally. This is the
//!   reference semantics used by the state verifier and by the synthetic
//!   trace generator.
//!
//! # Example
//!
//! ```
//! use replay_uop::{ArchReg, MachineState, Uop};
//!
//! // ECX <- EAX + 4 ; store ECX to [ESP - 4]
//! let uops = vec![
//!     Uop::alu_imm(replay_uop::Opcode::Add, ArchReg::Ecx, ArchReg::Eax, 4),
//!     Uop::store(ArchReg::Esp, -4, ArchReg::Ecx),
//! ];
//! let mut m = MachineState::new();
//! m.set_reg(ArchReg::Eax, 38);
//! m.set_reg(ArchReg::Esp, 0x1000);
//! for u in &uops {
//!     m.exec(u).expect("uop executes");
//! }
//! assert_eq!(m.reg(ArchReg::Ecx), 42);
//! assert_eq!(m.load32(0x1000 - 4), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cond;
mod display;
mod flags;
mod machine;
mod memory;
mod opcode;
mod reg;
mod semantics;
mod uop;

pub use cond::Cond;
pub use flags::Flags;
pub use machine::{ControlEffect, ExecError, MachineState, UopEffect};
pub use memory::{AddrSet, SparseMemory};
pub use opcode::{Opcode, OpcodeClass};
pub use reg::{ArchReg, RegSet, NUM_ARCH_REGS};
pub use semantics::{eval_alu, eval_alu_with_flags, AluError, AluResult};
pub use uop::Uop;
