//! IA-32 byte-level encoder for the instruction subset.

use crate::{AluOp, Gpr, Inst, MemOperand};

/// Emits the ModRM (and SIB/displacement) bytes for a register-direct
/// operand.
fn modrm_reg(reg_field: u8, rm: Gpr, out: &mut Vec<u8>) {
    out.push(0b11_000_000 | (reg_field << 3) | rm.code());
}

/// Emits the ModRM, SIB, and displacement bytes for a memory operand.
///
/// Handles the IA-32 special cases: `ESP` as a base forces a SIB byte,
/// `EBP` as a base cannot use mod=00, and base-less operands use the
/// disp32-only forms.
fn modrm_mem(reg_field: u8, mem: &MemOperand, out: &mut Vec<u8>) {
    let reg = reg_field << 3;
    match (mem.base, mem.index) {
        (None, None) => {
            // mod=00, rm=101: disp32 absolute.
            out.push(reg | 0b101);
            out.extend_from_slice(&mem.disp.to_le_bytes());
        }
        (None, Some((index, scale))) => {
            // SIB with no base: mod=00, rm=100, SIB base=101 => disp32.
            out.push(reg | 0b100);
            out.push(scale_bits(scale) << 6 | index.code() << 3 | 0b101);
            out.extend_from_slice(&mem.disp.to_le_bytes());
        }
        (Some(base), index) => {
            let needs_sib = index.is_some() || base == Gpr::Esp;
            // EBP as base cannot be encoded with mod=00 (that slot means
            // disp32-absolute), so force at least a disp8.
            let (modbits, disp_len) = if mem.disp == 0 && base != Gpr::Ebp {
                (0b00, 0)
            } else if i8::try_from(mem.disp).is_ok() {
                (0b01, 1)
            } else {
                (0b10, 4)
            };
            if needs_sib {
                out.push(modbits << 6 | reg | 0b100);
                let (idx_code, scale) = match index {
                    Some((i, s)) => (i.code(), s),
                    // index=100 in SIB means "no index".
                    None => (0b100, 1),
                };
                out.push(scale_bits(scale) << 6 | idx_code << 3 | base.code());
            } else {
                out.push(modbits << 6 | reg | base.code());
            }
            match disp_len {
                0 => {}
                1 => out.push(mem.disp as i8 as u8),
                _ => out.extend_from_slice(&mem.disp.to_le_bytes()),
            }
        }
    }
}

fn scale_bits(scale: u8) -> u8 {
    match scale {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        _ => panic!("invalid scale {scale}"),
    }
}

fn imm32(imm: i32, out: &mut Vec<u8>) {
    out.extend_from_slice(&imm.to_le_bytes());
}

/// Relative displacement for a rel32 branch: `target - (addr + inst_len)`.
fn rel32(target: u32, addr: u32, inst_len: u32, out: &mut Vec<u8>) {
    let rel = target.wrapping_sub(addr.wrapping_add(inst_len)) as i32;
    out.extend_from_slice(&rel.to_le_bytes());
}

/// The `ADD`-group opcode byte for the `op r/m32, r32` form; the
/// `op r32, r/m32` form is this plus 2.
fn alu_mr_opcode(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0x01,
        AluOp::Or => 0x09,
        AluOp::And => 0x21,
        AluOp::Sub => 0x29,
        AluOp::Xor => 0x31,
    }
}

/// Encodes one instruction into IA-32 machine code.
///
/// `addr` is the absolute address the instruction will occupy; it is needed
/// to convert the model's absolute branch targets to rel32 displacements.
///
/// # Example
///
/// ```
/// use replay_x86::{encode, Gpr, Inst};
/// // PUSH EBP is 0x55.
/// assert_eq!(encode(&Inst::PushR { src: Gpr::Ebp }, 0), vec![0x55]);
/// ```
pub fn encode(inst: &Inst, addr: u32) -> Vec<u8> {
    let mut out = Vec::with_capacity(8);
    encode_into(inst, addr, &mut out);
    out
}

/// [`encode`] into a caller's buffer: appends the instruction's bytes to
/// `out`, so a loop that reuses one buffer encodes without allocating.
pub fn encode_into(inst: &Inst, addr: u32, out: &mut Vec<u8>) {
    match *inst {
        Inst::MovRR { dst, src } => {
            out.push(0x89);
            modrm_reg(src.code(), dst, out);
        }
        Inst::MovRI { dst, imm } => {
            out.push(0xb8 + dst.code());
            imm32(imm, out);
        }
        Inst::MovRM { dst, mem } => {
            out.push(0x8b);
            modrm_mem(dst.code(), &mem, out);
        }
        Inst::MovMR { mem, src } => {
            out.push(0x89);
            modrm_mem(src.code(), &mem, out);
        }
        Inst::MovMI { mem, imm } => {
            out.push(0xc7);
            modrm_mem(0, &mem, out);
            imm32(imm, out);
        }
        Inst::Lea { dst, mem } => {
            out.push(0x8d);
            modrm_mem(dst.code(), &mem, out);
        }
        Inst::PushR { src } => out.push(0x50 + src.code()),
        Inst::PushI { imm } => {
            out.push(0x68);
            imm32(imm, out);
        }
        Inst::PopR { dst } => out.push(0x58 + dst.code()),
        Inst::AluRR { op, dst, src } => {
            out.push(alu_mr_opcode(op));
            modrm_reg(src.code(), dst, out);
        }
        Inst::AluRI { op, dst, imm } => {
            out.push(0x81);
            modrm_reg(op.ext(), dst, out);
            imm32(imm, out);
        }
        Inst::AluRM { op, dst, mem } => {
            out.push(alu_mr_opcode(op) + 2);
            modrm_mem(dst.code(), &mem, out);
        }
        Inst::AluMR { op, mem, src } => {
            out.push(alu_mr_opcode(op));
            modrm_mem(src.code(), &mem, out);
        }
        Inst::CmpRR { a, b } => {
            out.push(0x39);
            modrm_reg(b.code(), a, out);
        }
        Inst::CmpRI { a, imm } => {
            out.push(0x81);
            modrm_reg(7, a, out);
            imm32(imm, out);
        }
        Inst::CmpRM { a, mem } => {
            out.push(0x3b);
            modrm_mem(a.code(), &mem, out);
        }
        Inst::TestRR { a, b } => {
            out.push(0x85);
            modrm_reg(b.code(), a, out);
        }
        Inst::TestRI { a, imm } => {
            out.push(0xf7);
            modrm_reg(0, a, out);
            imm32(imm, out);
        }
        Inst::IncR { r } => out.push(0x40 + r.code()),
        Inst::DecR { r } => out.push(0x48 + r.code()),
        Inst::NegR { r } => {
            out.push(0xf7);
            modrm_reg(3, r, out);
        }
        Inst::NotR { r } => {
            out.push(0xf7);
            modrm_reg(2, r, out);
        }
        Inst::ShiftRI { op, r, imm } => {
            out.push(0xc1);
            modrm_reg(op.ext(), r, out);
            out.push(imm);
        }
        Inst::ImulRR { dst, src } => {
            out.push(0x0f);
            out.push(0xaf);
            modrm_reg(dst.code(), src, out);
        }
        Inst::ImulRRI { dst, src, imm } => {
            out.push(0x69);
            modrm_reg(dst.code(), src, out);
            imm32(imm, out);
        }
        Inst::DivR { src } => {
            out.push(0xf7);
            modrm_reg(6, src, out);
        }
        Inst::Cdq => out.push(0x99),
        Inst::Jmp { target } => {
            out.push(0xe9);
            rel32(target, addr, 5, out);
        }
        Inst::Jcc { cc, target } => {
            out.push(0x0f);
            out.push(0x80 + cc.tttn());
            rel32(target, addr, 6, out);
        }
        Inst::JmpInd { r } => {
            out.push(0xff);
            modrm_reg(4, r, out);
        }
        Inst::Call { target } => {
            out.push(0xe8);
            rel32(target, addr, 5, out);
        }
        Inst::Ret => out.push(0xc3),
        Inst::Nop => out.push(0x90),
        Inst::LongFlow => {
            out.push(0x0f);
            out.push(0x0b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CondX86;

    #[test]
    fn known_encodings() {
        // PUSH EBP = 55, PUSH EBX = 53, POP EBX = 5B, RET = C3, NOP = 90.
        assert_eq!(encode(&Inst::PushR { src: Gpr::Ebp }, 0), vec![0x55]);
        assert_eq!(encode(&Inst::PushR { src: Gpr::Ebx }, 0), vec![0x53]);
        assert_eq!(encode(&Inst::PopR { dst: Gpr::Ebx }, 0), vec![0x5b]);
        assert_eq!(encode(&Inst::Ret, 0), vec![0xc3]);
        assert_eq!(encode(&Inst::Nop, 0), vec![0x90]);
        // XOR EAX,EAX = 31 C0.
        assert_eq!(
            encode(
                &Inst::AluRR {
                    op: AluOp::Xor,
                    dst: Gpr::Eax,
                    src: Gpr::Eax
                },
                0
            ),
            vec![0x31, 0xc0]
        );
        // MOV EDX,ECX = 89 CA.
        assert_eq!(
            encode(
                &Inst::MovRR {
                    dst: Gpr::Edx,
                    src: Gpr::Ecx
                },
                0
            ),
            vec![0x89, 0xca]
        );
    }

    #[test]
    fn esp_base_uses_sib() {
        // MOV ECX,[ESP+0xC] = 8B 4C 24 0C.
        let m = MemOperand::base_disp(Gpr::Esp, 0xc);
        assert_eq!(
            encode(
                &Inst::MovRM {
                    dst: Gpr::Ecx,
                    mem: m
                },
                0
            ),
            vec![0x8b, 0x4c, 0x24, 0x0c]
        );
    }

    #[test]
    fn ebp_base_forces_disp8() {
        // MOV EAX,[EBP] must encode as 8B 45 00 (mod=01 disp8=0).
        let m = MemOperand::base_disp(Gpr::Ebp, 0);
        assert_eq!(
            encode(
                &Inst::MovRM {
                    dst: Gpr::Eax,
                    mem: m
                },
                0
            ),
            vec![0x8b, 0x45, 0x00]
        );
    }

    #[test]
    fn disp32_when_large() {
        let m = MemOperand::base_disp(Gpr::Ebx, 0x1234);
        let bytes = encode(
            &Inst::MovRM {
                dst: Gpr::Eax,
                mem: m,
            },
            0,
        );
        assert_eq!(bytes, vec![0x8b, 0x83, 0x34, 0x12, 0x00, 0x00]);
    }

    #[test]
    fn scaled_index_sib() {
        // MOV EAX,[EBX+ECX*4+8] = 8B 44 8B 08.
        let m = MemOperand::base_index(Gpr::Ebx, Gpr::Ecx, 4, 8);
        assert_eq!(
            encode(
                &Inst::MovRM {
                    dst: Gpr::Eax,
                    mem: m
                },
                0
            ),
            vec![0x8b, 0x44, 0x8b, 0x08]
        );
    }

    #[test]
    fn absolute_addressing() {
        // MOV EAX,[0x1000] = 8B 05 00 10 00 00 (alias of A1 form; both valid).
        let m = MemOperand::absolute(0x1000);
        assert_eq!(
            encode(
                &Inst::MovRM {
                    dst: Gpr::Eax,
                    mem: m
                },
                0
            ),
            vec![0x8b, 0x05, 0x00, 0x10, 0x00, 0x00]
        );
    }

    #[test]
    fn rel32_branches() {
        // JMP to self+5 => rel 0. E9 00 00 00 00.
        assert_eq!(
            encode(&Inst::Jmp { target: 105 }, 100),
            vec![0xe9, 0, 0, 0, 0]
        );
        // Backward jump.
        let b = encode(&Inst::Jmp { target: 0 }, 100);
        assert_eq!(b[0], 0xe9);
        assert_eq!(i32::from_le_bytes([b[1], b[2], b[3], b[4]]), -105);
        // JZ forward: 0F 84 rel32.
        let b = encode(
            &Inst::Jcc {
                cc: CondX86::Z,
                target: 0x20,
            },
            0x10,
        );
        assert_eq!(&b[..2], &[0x0f, 0x84]);
        assert_eq!(i32::from_le_bytes([b[2], b[3], b[4], b[5]]), 0x20 - 0x16);
    }

    #[test]
    fn imul_and_div() {
        // IMUL EAX,ECX = 0F AF C1.
        assert_eq!(
            encode(
                &Inst::ImulRR {
                    dst: Gpr::Eax,
                    src: Gpr::Ecx
                },
                0
            ),
            vec![0x0f, 0xaf, 0xc1]
        );
        // DIV EBX = F7 F3.
        assert_eq!(encode(&Inst::DivR { src: Gpr::Ebx }, 0), vec![0xf7, 0xf3]);
    }
}
