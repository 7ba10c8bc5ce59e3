//! x86 → micro-operation translation (the Injector's decode flows).
//!
//! Each x86 instruction is decoded *independently* into one or more uops,
//! exactly as a hardware decoder would. That independence is the source of
//! the redundancy the rePLay optimizer removes: consecutive `PUSH`es each
//! carry their own stack-pointer update, `CALL`/`RET` pairs materialize and
//! reload return addresses, and two-address ALU forms force extra moves.
//!
//! The flows here average ≈1.4 uops per x86 instruction on realistic
//! instruction mixes, matching the ratio the paper reports for its own
//! translator (§5.1.1).

use crate::{Gpr, Inst, MemOperand};
use replay_uop::{ArchReg, Opcode, Uop};

/// Translates the address expression of `mem` into load-uop operand fields:
/// `(base, index, scale, disp)`.
fn mem_parts(mem: &MemOperand) -> (Option<ArchReg>, Option<ArchReg>, u8, i32) {
    let base = mem.base.map(Gpr::to_arch);
    let (index, scale) = match mem.index {
        Some((i, s)) => (Some(i.to_arch()), s),
        None => (None, 1),
    };
    (base, index, scale, mem.disp)
}

/// Builds a `Load` uop from a memory operand.
fn load_from(dst: ArchReg, mem: &MemOperand) -> Uop {
    let (base, index, scale, disp) = mem_parts(mem);
    Uop {
        dst: Some(dst),
        src_a: base,
        src_b: index,
        scale,
        imm: disp,
        ..Uop::new(Opcode::Load)
    }
}

/// Emits uops that store `data` to `mem`, materializing the address in a
/// temporary when the operand has an index register (store uops are
/// index-free by construction; see [`replay_uop::Uop`]).
fn store_to(mem: &MemOperand, data: ArchReg, out: &mut Vec<Uop>) {
    match (mem.base, mem.index) {
        (base, Some(_)) => {
            let (b, i, s, d) = mem_parts(mem);
            let base_reg = b.unwrap_or(ArchReg::Et0);
            if b.is_none() {
                out.push(Uop::mov_imm(ArchReg::Et0, 0));
            }
            out.push(Uop::lea(ArchReg::Et0, base_reg, i, s, d));
            out.push(Uop::store(ArchReg::Et0, 0, data));
            let _ = base;
        }
        (Some(base), None) => out.push(Uop::store(base.to_arch(), mem.disp, data)),
        (None, None) => out.push(Uop::store_abs(mem.disp, data)),
    }
}

/// A test-with-immediate uop (`flags = a & imm`); not covered by the
/// [`Uop`] constructors because only the translator emits it.
fn test_imm(a: ArchReg, imm: i32) -> Uop {
    Uop {
        src_a: Some(a),
        imm,
        writes_flags: true,
        ..Uop::new(Opcode::Test)
    }
}

/// The most register-writing uops in any instruction's flow: `AluMR`
/// with an index register, `MOV [mem], imm` with an index and no base, and
/// `DIV EDX` each write three. A trace record stores its register writes
/// inline in a list of this capacity.
pub const MAX_REG_WRITES: usize = 3;

/// The most loads in any instruction's flow (read-modify-write forms and
/// `POP`/`RET` load once).
pub const MAX_LOADS: usize = 1;

/// The most stores in any instruction's flow (read-modify-write forms,
/// `PUSH` and `CALL` store once).
pub const MAX_STORES: usize = 1;

/// Translates one x86 instruction into its micro-operation flow.
///
/// `addr` is the instruction's address and `next_addr` the address of the
/// sequentially following instruction (needed by `CALL` to materialize the
/// return address). Every returned uop is tagged with `addr`, and the final
/// uop of the flow is marked as the x86 instruction boundary.
///
/// # Example
///
/// ```
/// use replay_x86::{translate, Gpr, Inst};
/// // PUSH EBP decodes to a store and a stack-pointer update.
/// let uops = translate(&Inst::PushR { src: Gpr::Ebp }, 0x1000, 0x1001);
/// assert_eq!(uops.len(), 2);
/// assert!(uops[0].is_store());
/// assert!(uops[1].last_of_x86);
/// ```
pub fn translate(inst: &Inst, addr: u32, next_addr: u32) -> Vec<Uop> {
    let mut out = Vec::with_capacity(4);
    emit(inst, next_addr, &mut out);
    let n = out.len();
    for (i, u) in out.iter_mut().enumerate() {
        u.x86_addr = addr;
        u.last_of_x86 = i + 1 == n;
    }
    out
}

fn emit(inst: &Inst, next_addr: u32, out: &mut Vec<Uop>) {
    use ArchReg::{Eax, Edx, Esp, Et0, Et1, Et2};
    match *inst {
        Inst::MovRR { dst, src } => out.push(Uop::mov(dst.to_arch(), src.to_arch())),
        Inst::MovRI { dst, imm } => out.push(Uop::mov_imm(dst.to_arch(), imm)),
        Inst::MovRM { dst, mem } => out.push(load_from(dst.to_arch(), &mem)),
        Inst::MovMR { mem, src } => store_to(&mem, src.to_arch(), out),
        Inst::MovMI { mem, imm } => {
            out.push(Uop::mov_imm(Et1, imm));
            store_to(&mem, Et1, out);
        }
        Inst::Lea { dst, mem } => {
            let (base, index, scale, disp) = mem_parts(&mem);
            match base {
                Some(b) => out.push(Uop::lea(dst.to_arch(), b, index, scale, disp)),
                None => match index {
                    Some(i) => {
                        out.push(Uop::mov_imm(Et0, disp));
                        out.push(Uop::lea(dst.to_arch(), Et0, Some(i), scale, 0));
                    }
                    None => out.push(Uop::mov_imm(dst.to_arch(), disp)),
                },
            }
        }
        Inst::PushR { src } => {
            // Matches the paper's flow: store below ESP, then update ESP.
            out.push(Uop::store(Esp, -4, src.to_arch()));
            out.push(Uop::lea(Esp, Esp, None, 1, -4));
        }
        Inst::PushI { imm } => {
            out.push(Uop::mov_imm(Et1, imm));
            out.push(Uop::store(Esp, -4, Et1));
            out.push(Uop::lea(Esp, Esp, None, 1, -4));
        }
        Inst::PopR { dst } => {
            if dst == Gpr::Esp {
                // POP ESP: the loaded value wins; no increment survives.
                out.push(Uop::load(Et0, Esp, 0));
                out.push(Uop::mov(Esp, Et0));
            } else {
                out.push(Uop::load(dst.to_arch(), Esp, 0));
                out.push(Uop::lea(Esp, Esp, None, 1, 4));
            }
        }
        Inst::AluRR { op, dst, src } => out.push(Uop::alu(
            op.to_uop(),
            dst.to_arch(),
            dst.to_arch(),
            src.to_arch(),
        )),
        Inst::AluRI { op, dst, imm } => {
            out.push(Uop::alu_imm(op.to_uop(), dst.to_arch(), dst.to_arch(), imm))
        }
        Inst::AluRM { op, dst, mem } => {
            out.push(load_from(Et0, &mem));
            out.push(Uop::alu(op.to_uop(), dst.to_arch(), dst.to_arch(), Et0));
        }
        Inst::AluMR { op, mem, src } => {
            // Read-modify-write; the load and store share the operand's
            // address expression.
            if mem.index.is_some() {
                let (b, i, s, d) = mem_parts(&mem);
                out.push(Uop::lea(Et1, b.unwrap_or(Et1), i, s, d));
                out.push(Uop::load(Et0, Et1, 0));
                out.push(Uop::alu(op.to_uop(), Et0, Et0, src.to_arch()));
                out.push(Uop::store(Et1, 0, Et0));
            } else {
                out.push(load_from(Et0, &mem));
                out.push(Uop::alu(op.to_uop(), Et0, Et0, src.to_arch()));
                match mem.base {
                    Some(base) => out.push(Uop::store(base.to_arch(), mem.disp, Et0)),
                    None => out.push(Uop::store_abs(mem.disp, Et0)),
                }
            }
        }
        Inst::CmpRR { a, b } => out.push(Uop::cmp(a.to_arch(), b.to_arch())),
        Inst::CmpRI { a, imm } => out.push(Uop::cmp_imm(a.to_arch(), imm)),
        Inst::CmpRM { a, mem } => {
            out.push(load_from(Et0, &mem));
            out.push(Uop::cmp(a.to_arch(), Et0));
        }
        Inst::TestRR { a, b } => out.push(Uop::test(a.to_arch(), b.to_arch())),
        Inst::TestRI { a, imm } => out.push(test_imm(a.to_arch(), imm)),
        Inst::IncR { r } => out.push(Uop::alu_imm(Opcode::Add, r.to_arch(), r.to_arch(), 1)),
        Inst::DecR { r } => out.push(Uop::alu_imm(Opcode::Sub, r.to_arch(), r.to_arch(), 1)),
        Inst::NegR { r } => out.push(Uop::alu_imm(Opcode::Neg, r.to_arch(), r.to_arch(), 0)),
        Inst::NotR { r } => {
            // x86 NOT does not modify flags.
            let mut u = Uop::alu_imm(Opcode::Not, r.to_arch(), r.to_arch(), 0);
            u.writes_flags = false;
            out.push(u);
        }
        Inst::ShiftRI { op, r, imm } => out.push(Uop::alu_imm(
            op.to_uop(),
            r.to_arch(),
            r.to_arch(),
            imm as i32,
        )),
        Inst::ImulRR { dst, src } => out.push(Uop::alu(
            Opcode::Mul,
            dst.to_arch(),
            dst.to_arch(),
            src.to_arch(),
        )),
        Inst::ImulRRI { dst, src, imm } => {
            out.push(Uop::alu_imm(Opcode::Mul, dst.to_arch(), src.to_arch(), imm))
        }
        Inst::DivR { src } => {
            // Quotient -> EAX, remainder -> EDX. Divisor is copied to a
            // temporary when it is EDX (clobbered by the remainder uop).
            let divisor = if src == Gpr::Edx {
                out.push(Uop::mov(Et0, Edx));
                Et0
            } else {
                src.to_arch()
            };
            let mut rem = Uop::alu(Opcode::Rem, Edx, Eax, divisor);
            rem.writes_flags = false; // x86 DIV leaves flags undefined
            out.push(rem);
            let mut div = Uop::alu(Opcode::Div, Eax, Eax, divisor);
            div.writes_flags = false;
            out.push(div);
        }
        Inst::Cdq => {
            let mut u = Uop::alu_imm(Opcode::Sar, Edx, Eax, 31);
            u.writes_flags = false; // CDQ does not modify flags
            out.push(u);
        }
        Inst::Jmp { target } => out.push(Uop::jmp(target)),
        Inst::Jcc { cc, target } => out.push(Uop::br(cc.to_cond(), target)),
        Inst::JmpInd { r } => out.push(Uop::jmp_ind(r.to_arch())),
        Inst::Call { target } => {
            out.push(Uop::mov_imm(Et1, next_addr as i32));
            out.push(Uop::store(Esp, -4, Et1));
            out.push(Uop::lea(Esp, Esp, None, 1, -4));
            out.push(Uop::jmp(target));
        }
        Inst::Ret => {
            // Matches the paper's flow 15-17: load return target, bump ESP,
            // indirect jump.
            out.push(Uop::load(Et2, Esp, 0));
            out.push(Uop::lea(Esp, Esp, None, 1, 4));
            out.push(Uop::jmp_ind(Et2));
        }
        Inst::Nop => out.push(Uop::nop()),
        Inst::LongFlow => out.push(Uop::fence()),
    }
}

/// A translator with running statistics, used by the Micro-Op Injector to
/// report the uop-to-x86 expansion ratio.
#[derive(Debug, Clone, Default)]
pub struct Translator {
    x86_count: u64,
    uop_count: u64,
}

impl Translator {
    /// Creates a translator with zeroed statistics.
    pub fn new() -> Translator {
        Translator::default()
    }

    /// Translates one instruction, accumulating statistics.
    pub fn translate(&mut self, inst: &Inst, addr: u32, next_addr: u32) -> Vec<Uop> {
        let uops = translate(inst, addr, next_addr);
        self.x86_count += 1;
        self.uop_count += uops.len() as u64;
        uops
    }

    /// Number of x86 instructions translated so far.
    pub fn x86_count(&self) -> u64 {
        self.x86_count
    }

    /// Number of uops emitted so far.
    pub fn uop_count(&self) -> u64 {
        self.uop_count
    }

    /// The running uop-to-x86 expansion ratio (≈1.4 on realistic mixes).
    pub fn ratio(&self) -> f64 {
        if self.x86_count == 0 {
            0.0
        } else {
            self.uop_count as f64 / self.x86_count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_uop::{Cond, MachineState};

    #[test]
    fn push_flow_matches_paper() {
        // PUSH EBP => [ESP-4] <- EBP ; ESP <- ESP - 4 (flows 01-02).
        let uops = translate(&Inst::PushR { src: Gpr::Ebp }, 0, 1);
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].to_string(), "[ESP - 04H] <- EBP");
        assert!(!uops[1].writes_flags, "PUSH must not write flags");
        assert!(uops[1].last_of_x86 && !uops[0].last_of_x86);
    }

    #[test]
    fn ret_flow_matches_paper() {
        // RET => ET2 <- [ESP] ; ESP <- ESP + 4 ; jump (ET2) (flows 15-17).
        let uops = translate(&Inst::Ret, 0, 1);
        assert_eq!(uops.len(), 3);
        assert!(uops[0].is_load());
        assert_eq!(uops[2].to_string(), "jump (ET2)");
    }

    #[test]
    fn call_materializes_return_address() {
        let uops = translate(&Inst::Call { target: 0x5000 }, 0x1000, 0x1005);
        assert_eq!(uops.len(), 4);
        assert_eq!(uops[0].op, Opcode::MovImm);
        assert_eq!(uops[0].imm, 0x1005);
        assert_eq!(uops[3].op, Opcode::Jmp);
        assert_eq!(uops[3].target, 0x5000);
    }

    #[test]
    fn single_uop_flows() {
        for (inst, opcode) in [
            (
                Inst::MovRR {
                    dst: Gpr::Eax,
                    src: Gpr::Ebx,
                },
                Opcode::Mov,
            ),
            (
                Inst::AluRR {
                    op: crate::AluOp::Or,
                    dst: Gpr::Edx,
                    src: Gpr::Ebx,
                },
                Opcode::Or,
            ),
            (
                Inst::CmpRI {
                    a: Gpr::Eax,
                    imm: 0,
                },
                Opcode::Cmp,
            ),
            (Inst::Nop, Opcode::Nop),
        ] {
            let uops = translate(&inst, 0, 1);
            assert_eq!(uops.len(), 1, "{inst}");
            assert_eq!(uops[0].op, opcode, "{inst}");
        }
    }

    #[test]
    fn jcc_maps_condition() {
        let uops = translate(
            &Inst::Jcc {
                cc: crate::CondX86::Z,
                target: 0x15,
            },
            0,
            6,
        );
        assert_eq!(uops.len(), 1);
        assert_eq!(uops[0].cc, Some(Cond::Eq));
        assert_eq!(uops[0].target, 0x15);
    }

    #[test]
    fn rmw_flow_reads_modifies_writes() {
        let mem = MemOperand::base_disp(Gpr::Ebx, 8);
        let uops = translate(
            &Inst::AluMR {
                op: crate::AluOp::Add,
                mem,
                src: Gpr::Ecx,
            },
            0,
            1,
        );
        assert_eq!(uops.len(), 3);
        assert!(uops[0].is_load());
        assert!(uops[2].is_store());

        // Functional check: [EBX+8] += ECX.
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Ebx, 0x100);
        m.set_reg(ArchReg::Ecx, 5);
        m.store32(0x108, 37);
        for u in &uops {
            m.exec(u).unwrap();
        }
        assert_eq!(m.load32(0x108), 42);
    }

    #[test]
    fn div_produces_quotient_and_remainder() {
        let uops = translate(&Inst::DivR { src: Gpr::Ebx }, 0, 1);
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Eax, 43);
        m.set_reg(ArchReg::Ebx, 5);
        for u in &uops {
            m.exec(u).unwrap();
        }
        assert_eq!(m.reg(ArchReg::Eax), 8);
        assert_eq!(m.reg(ArchReg::Edx), 3);
    }

    #[test]
    fn div_by_edx_uses_temporary() {
        let uops = translate(&Inst::DivR { src: Gpr::Edx }, 0, 1);
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Eax, 20);
        m.set_reg(ArchReg::Edx, 6);
        for u in &uops {
            m.exec(u).unwrap();
        }
        assert_eq!(m.reg(ArchReg::Eax), 3);
        assert_eq!(m.reg(ArchReg::Edx), 2);
    }

    #[test]
    fn pop_esp_special_case() {
        let uops = translate(&Inst::PopR { dst: Gpr::Esp }, 0, 1);
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Esp, 0x1000);
        m.store32(0x1000, 0x2000);
        for u in &uops {
            m.exec(u).unwrap();
        }
        assert_eq!(m.reg(ArchReg::Esp), 0x2000);
    }

    #[test]
    fn indexed_store_uses_lea() {
        let mem = MemOperand::base_index(Gpr::Ebx, Gpr::Ecx, 4, 0);
        let uops = translate(&Inst::MovMR { mem, src: Gpr::Eax }, 0, 1);
        assert_eq!(uops.len(), 2);
        assert_eq!(uops[0].op, Opcode::Lea);
        assert!(uops[1].is_store());
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Ebx, 0x400);
        m.set_reg(ArchReg::Ecx, 2);
        m.set_reg(ArchReg::Eax, 77);
        for u in &uops {
            m.exec(u).unwrap();
        }
        assert_eq!(m.load32(0x408), 77);
    }

    #[test]
    fn translator_ratio() {
        let mut t = Translator::new();
        t.translate(&Inst::PushR { src: Gpr::Ebp }, 0, 1); // 2 uops
        t.translate(
            &Inst::MovRR {
                dst: Gpr::Eax,
                src: Gpr::Ebx,
            },
            1,
            3,
        ); // 1 uop
        assert_eq!(t.x86_count(), 2);
        assert_eq!(t.uop_count(), 3);
        assert!((t.ratio() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn flags_preserved_by_moves_and_lea() {
        for inst in [
            Inst::MovRR {
                dst: Gpr::Eax,
                src: Gpr::Ebx,
            },
            Inst::MovRI {
                dst: Gpr::Eax,
                imm: 1,
            },
            Inst::Lea {
                dst: Gpr::Eax,
                mem: MemOperand::base_disp(Gpr::Ebx, 4),
            },
            Inst::PushR { src: Gpr::Eax },
            Inst::PopR { dst: Gpr::Ebx },
            Inst::NotR { r: Gpr::Eax },
            Inst::Cdq,
        ] {
            for u in translate(&inst, 0, 9) {
                assert!(!u.writes_flags, "{inst} wrote flags via {u}");
            }
        }
    }

    /// Every instruction form once per register and memory-operand shape
    /// that changes its flow.
    fn every_form() -> Vec<Inst> {
        use crate::{AluOp, CondX86, ShiftOp};
        let mems = [
            MemOperand::absolute(0x9000),
            MemOperand::base_disp(Gpr::Ebx, 8),
            MemOperand::base_index(Gpr::Ebx, Gpr::Ecx, 4, 8),
            MemOperand {
                base: None,
                index: Some((Gpr::Ecx, 4)),
                disp: 8,
            },
        ];
        let mut out = vec![
            Inst::Cdq,
            Inst::Jmp { target: 0x10 },
            Inst::Jcc {
                cc: CondX86::Z,
                target: 0x10,
            },
            Inst::Call { target: 0x10 },
            Inst::Ret,
            Inst::Nop,
            Inst::LongFlow,
            Inst::PushI { imm: 7 },
        ];
        for r in Gpr::ALL {
            let (a, b) = (r, Gpr::Ebx);
            out.extend([
                Inst::MovRR { dst: a, src: b },
                Inst::MovRI { dst: a, imm: 1 },
                Inst::PushR { src: a },
                Inst::PopR { dst: a },
                Inst::AluRR {
                    op: AluOp::Add,
                    dst: a,
                    src: b,
                },
                Inst::AluRI {
                    op: AluOp::Sub,
                    dst: a,
                    imm: 3,
                },
                Inst::CmpRR { a, b },
                Inst::CmpRI { a, imm: 0 },
                Inst::TestRR { a, b },
                Inst::TestRI { a, imm: 1 },
                Inst::IncR { r: a },
                Inst::DecR { r: a },
                Inst::NegR { r: a },
                Inst::NotR { r: a },
                Inst::ShiftRI {
                    op: ShiftOp::Shl,
                    r: a,
                    imm: 2,
                },
                Inst::ImulRR { dst: a, src: b },
                Inst::ImulRRI {
                    dst: a,
                    src: b,
                    imm: 5,
                },
                Inst::DivR { src: a },
                Inst::JmpInd { r: a },
            ]);
            for mem in mems {
                out.extend([
                    Inst::MovRM { dst: a, mem },
                    Inst::MovMR { mem, src: a },
                    Inst::MovMI { mem, imm: 9 },
                    Inst::Lea { dst: a, mem },
                    Inst::AluRM {
                        op: AluOp::Add,
                        dst: a,
                        mem,
                    },
                    Inst::AluMR {
                        op: AluOp::Xor,
                        mem,
                        src: a,
                    },
                    Inst::CmpRM { a, mem },
                ]);
            }
        }
        out
    }

    /// The variant's position in the declaration: exhaustive, so a new
    /// form fails to compile here until `every_form` covers it.
    fn form_id(inst: &Inst) -> usize {
        match inst {
            Inst::MovRR { .. } => 0,
            Inst::MovRI { .. } => 1,
            Inst::MovRM { .. } => 2,
            Inst::MovMR { .. } => 3,
            Inst::MovMI { .. } => 4,
            Inst::Lea { .. } => 5,
            Inst::PushR { .. } => 6,
            Inst::PushI { .. } => 7,
            Inst::PopR { .. } => 8,
            Inst::AluRR { .. } => 9,
            Inst::AluRI { .. } => 10,
            Inst::AluRM { .. } => 11,
            Inst::AluMR { .. } => 12,
            Inst::CmpRR { .. } => 13,
            Inst::CmpRI { .. } => 14,
            Inst::CmpRM { .. } => 15,
            Inst::TestRR { .. } => 16,
            Inst::TestRI { .. } => 17,
            Inst::IncR { .. } => 18,
            Inst::DecR { .. } => 19,
            Inst::NegR { .. } => 20,
            Inst::NotR { .. } => 21,
            Inst::ShiftRI { .. } => 22,
            Inst::ImulRR { .. } => 23,
            Inst::ImulRRI { .. } => 24,
            Inst::DivR { .. } => 25,
            Inst::Cdq => 26,
            Inst::Jmp { .. } => 27,
            Inst::Jcc { .. } => 28,
            Inst::JmpInd { .. } => 29,
            Inst::Call { .. } => 30,
            Inst::Ret => 31,
            Inst::Nop => 32,
            Inst::LongFlow => 33,
        }
    }

    #[test]
    fn flows_stay_within_record_effect_caps() {
        let forms = every_form();
        let mut seen = [false; 34];
        let mut peak = (0, 0, 0);
        for inst in &forms {
            seen[form_id(inst)] = true;
            let uops = translate(inst, 0x1000, 0x1008);
            let writes = uops.iter().filter(|u| u.dst.is_some()).count();
            let loads = uops.iter().filter(|u| u.is_load()).count();
            let stores = uops.iter().filter(|u| u.is_store()).count();
            assert!(writes <= MAX_REG_WRITES, "{inst}: {writes} register writes");
            assert!(loads <= MAX_LOADS, "{inst}: {loads} loads");
            assert!(stores <= MAX_STORES, "{inst}: {stores} stores");
            peak = (peak.0.max(writes), peak.1.max(loads), peak.2.max(stores));
        }
        assert!(seen.iter().all(|&s| s), "every form translated");
        // The caps are reached, so none is looser than the ISA needs.
        assert_eq!(peak, (MAX_REG_WRITES, MAX_LOADS, MAX_STORES));
        let three_writes = |inst: Inst| {
            translate(&inst, 0, 1)
                .iter()
                .filter(|u| u.dst.is_some())
                .count()
                == MAX_REG_WRITES
        };
        let index_only = MemOperand {
            base: None,
            index: Some((Gpr::Ecx, 4)),
            disp: 8,
        };
        assert!(three_writes(Inst::DivR { src: Gpr::Edx }));
        assert!(three_writes(Inst::MovMI {
            mem: index_only,
            imm: 1
        }));
        assert!(three_writes(Inst::AluMR {
            op: crate::AluOp::Add,
            mem: index_only,
            src: Gpr::Eax,
        }));
    }
}
