//! # replay-x86
//!
//! A from-scratch x86 (IA-32) subset: instruction model, byte-level encoder
//! and decoder, a label-based assembler, a functional interpreter, and the
//! x86 → micro-operation translator used by the rePLay Micro-Op Injector.
//!
//! Real x86 micro-op decode flows are proprietary, so — exactly as the paper
//! does (§5.1.1) — this crate translates x86 instructions into a generic
//! RISC-like uop ISA ([`replay_uop`]) with efficient flows. Across the
//! synthetic workloads the resulting uop-to-x86 ratio is ≈1.4, matching the
//! paper's reported average.
//!
//! The instruction subset covers the general-purpose integer ISA that
//! compiled 32-bit code actually exercises: `MOV` in all directions, the
//! two-address ALU group (including read-modify-write memory forms), `LEA`,
//! stack ops (`PUSH`/`POP`/`CALL`/`RET`), shifts, `IMUL`/`DIV`/`CDQ`,
//! `INC`/`DEC`/`NEG`/`NOT`, `CMP`/`TEST`, conditional branches, and direct /
//! indirect jumps. Encodings are genuine IA-32 machine code (ModRM/SIB,
//! disp8/disp32 selection, rel32 branches).
//!
//! # Example: assemble, decode, translate
//!
//! ```
//! use replay_x86::{Assembler, Gpr, Inst, MemOperand};
//!
//! let mut asm = Assembler::new(0x40_0000);
//! asm.push(Inst::PushR { src: Gpr::Ebp });
//! asm.push(Inst::MovRM {
//!     dst: Gpr::Ecx,
//!     mem: MemOperand::base_disp(Gpr::Esp, 0xc),
//! });
//! let program = asm.finish();
//!
//! // Bytes round-trip through the decoder.
//! let (inst, len) = replay_x86::decode(&program.image, 0).expect("valid encoding");
//! assert_eq!(inst, Inst::PushR { src: Gpr::Ebp });
//! assert_eq!(len, 1); // PUSH r32 is a single byte
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod asm;
mod decode;
mod disasm;
mod encode;
mod gpr;
mod inst;
mod interp;
mod translate;

pub use asm::{Assembler, Label, Program};
pub use decode::{decode, DecodeError};
pub use disasm::{Disasm, DisasmLine};
pub use encode::{encode, encode_into};
pub use gpr::Gpr;
pub use inst::{AluOp, CondX86, Inst, MemOperand, ShiftOp};
pub use interp::{Interp, InterpError, Step, HALT_ADDR};
pub use translate::{translate, translate_into, Translator, MAX_LOADS, MAX_REG_WRITES, MAX_STORES};
