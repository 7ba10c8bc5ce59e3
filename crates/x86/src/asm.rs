//! A small label-based assembler producing executable byte images.

use crate::{decode, encode, CondX86, DecodeError, Inst};
use std::collections::HashMap;

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// An assembled program: a byte image at a base address.
#[derive(Debug, Clone)]
pub struct Program {
    /// Address of the first byte of `image`.
    pub base: u32,
    /// The machine-code bytes.
    pub image: Vec<u8>,
    /// Entry-point address.
    pub entry: u32,
}

impl Program {
    /// The address one past the last byte of the program.
    pub fn end(&self) -> u32 {
        self.base + self.image.len() as u32
    }

    /// True if `addr` lies inside the program image.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Decodes the instruction at an absolute address.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Truncated`] if `addr` is outside the image,
    /// or any decoder error for invalid bytes.
    pub fn decode_at(&self, addr: u32) -> Result<(Inst, u8), DecodeError> {
        if !self.contains(addr) {
            return Err(DecodeError::Truncated);
        }
        let off = (addr - self.base) as usize;
        decode(&self.image[off..], addr)
    }
}

#[derive(Debug, Clone, Copy)]
enum FixupKind {
    /// `JMP rel32` / `CALL rel32`: patch 4 bytes at `pos + 1`.
    Rel32At1,
    /// `Jcc rel32`: patch 4 bytes at `pos + 2`.
    Rel32At2,
}

#[derive(Debug, Clone, Copy)]
struct Fixup {
    pos: usize,
    label: Label,
    kind: FixupKind,
}

/// An assembler that emits the x86 subset with label-based branch targets.
///
/// Instructions with statically known (absolute) targets can be pushed
/// directly with [`Assembler::push`]; branches to not-yet-emitted code use
/// labels, which are patched when [`Assembler::finish`] resolves the image.
///
/// # Example
///
/// ```
/// use replay_x86::{Assembler, CondX86, Gpr, Inst};
///
/// let mut asm = Assembler::new(0x1000);
/// let done = asm.new_label();
/// asm.push(Inst::CmpRI { a: Gpr::Eax, imm: 0 });
/// asm.jcc(CondX86::Z, done);
/// asm.push(Inst::DecR { r: Gpr::Eax });
/// asm.bind(done);
/// asm.push(Inst::Ret);
/// let program = asm.finish();
/// assert!(program.image.len() > 0);
/// ```
#[derive(Debug)]
pub struct Assembler {
    base: u32,
    image: Vec<u8>,
    labels: HashMap<Label, u32>,
    fixups: Vec<Fixup>,
    next_label: usize,
}

impl Assembler {
    /// Creates an assembler that will place code starting at `base`, which
    /// is also the program's entry point.
    pub fn new(base: u32) -> Assembler {
        Assembler {
            base,
            image: Vec::new(),
            labels: HashMap::new(),
            fixups: Vec::new(),
            next_label: 0,
        }
    }

    /// The address the next emitted instruction will occupy.
    pub fn here(&self) -> u32 {
        self.base + self.image.len() as u32
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let prev = self.labels.insert(label, self.here());
        assert!(prev.is_none(), "label bound twice");
    }

    /// Emits an instruction whose operands are fully known.
    pub fn push(&mut self, inst: Inst) {
        let addr = self.here();
        self.image.extend(encode(&inst, addr));
    }

    /// Emits `JMP` to a label.
    pub fn jmp(&mut self, label: Label) {
        self.fixups.push(Fixup {
            pos: self.image.len(),
            label,
            kind: FixupKind::Rel32At1,
        });
        self.push(Inst::Jmp { target: 0 });
    }

    /// Emits `Jcc` to a label.
    pub fn jcc(&mut self, cc: CondX86, label: Label) {
        self.fixups.push(Fixup {
            pos: self.image.len(),
            label,
            kind: FixupKind::Rel32At2,
        });
        self.push(Inst::Jcc { cc, target: 0 });
    }

    /// Emits `CALL` to a label.
    pub fn call(&mut self, label: Label) {
        self.fixups.push(Fixup {
            pos: self.image.len(),
            label,
            kind: FixupKind::Rel32At1,
        });
        self.push(Inst::Call { target: 0 });
    }

    /// Resolves all fixups and produces the final [`Program`].
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Program {
        for fix in &self.fixups {
            let target = *self
                .labels
                .get(&fix.label)
                .unwrap_or_else(|| panic!("unbound label {:?}", fix.label));
            let (rel_off, inst_len) = match fix.kind {
                FixupKind::Rel32At1 => (fix.pos + 1, 5u32),
                FixupKind::Rel32At2 => (fix.pos + 2, 6u32),
            };
            let inst_addr = self.base + fix.pos as u32;
            let rel = target.wrapping_sub(inst_addr.wrapping_add(inst_len)) as i32;
            self.image[rel_off..rel_off + 4].copy_from_slice(&rel.to_le_bytes());
        }
        Program {
            base: self.base,
            image: self.image,
            entry: self.base,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gpr;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = Assembler::new(0x1000);
        let top = asm.new_label();
        let out = asm.new_label();
        asm.bind(top);
        asm.push(Inst::DecR { r: Gpr::Ecx });
        asm.push(Inst::CmpRI {
            a: Gpr::Ecx,
            imm: 0,
        });
        asm.jcc(CondX86::Z, out); // forward
        asm.jmp(top); // backward
        asm.bind(out);
        asm.push(Inst::Ret);
        let p = asm.finish();

        // Decode the whole image and check the targets are absolute.
        let mut addr = p.base;
        let mut decoded = Vec::new();
        while addr < p.end() {
            let (inst, len) = p.decode_at(addr).unwrap();
            decoded.push(inst);
            addr += len as u32;
        }
        let jcc_target = decoded
            .iter()
            .find_map(|i| match i {
                Inst::Jcc { target, .. } => Some(*target),
                _ => None,
            })
            .unwrap();
        let jmp_target = decoded
            .iter()
            .find_map(|i| match i {
                Inst::Jmp { target } => Some(*target),
                _ => None,
            })
            .unwrap();
        assert_eq!(jmp_target, 0x1000, "backward jump to top");
        // The Jcc target is the RET.
        let (ret, _) = p.decode_at(jcc_target).unwrap();
        assert_eq!(ret, Inst::Ret);
    }

    #[test]
    fn entry_is_the_base() {
        let mut asm = Assembler::new(0x2000);
        asm.push(Inst::Nop);
        assert_eq!(asm.here(), 0x2001);
        asm.push(Inst::Ret);
        let p = asm.finish();
        assert_eq!(p.base, 0x2000);
        assert_eq!(p.entry, 0x2000);
        assert!(p.contains(0x2001));
        assert!(!p.contains(0x2002));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut asm = Assembler::new(0);
        let l = asm.new_label();
        asm.jmp(l);
        let _ = asm.finish();
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut asm = Assembler::new(0);
        let l = asm.new_label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    fn call_fixup() {
        let mut asm = Assembler::new(0x100);
        let f = asm.new_label();
        asm.call(f);
        asm.push(Inst::Ret);
        asm.bind(f);
        asm.push(Inst::Ret);
        let p = asm.finish();
        let (inst, _) = p.decode_at(0x100).unwrap();
        assert_eq!(inst, Inst::Call { target: 0x106 });
    }
}
