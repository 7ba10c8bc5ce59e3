//! Architectural registers visible at the micro-operation level.

use std::fmt;

/// Number of architectural registers in the rePLay uop ISA: the eight x86
/// general-purpose registers plus eight micro-architectural temporaries.
pub const NUM_ARCH_REGS: usize = 16;

/// An architectural register.
///
/// The first eight variants are the x86 general-purpose registers. The
/// `Et0`–`Et7` variants are *temporary* registers that exist only at the
/// micro-operation level: the x86→uop translator uses them to hold
/// intermediate values of multi-uop decode flows (for example the return
/// target of a `RET`, named `ET2` in the paper's running example). They are
/// architectural in the sense that they are live across uops and are renamed
/// like any other register, but no x86 instruction can name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum ArchReg {
    /// x86 `EAX` — accumulator, also the implicit destination of `DIV`/`MUL`.
    Eax = 0,
    /// x86 `ECX` — counter register.
    Ecx = 1,
    /// x86 `EDX` — data register, implicit high half for `DIV`/`MUL`.
    Edx = 2,
    /// x86 `EBX` — base register.
    Ebx = 3,
    /// x86 `ESP` — stack pointer.
    Esp = 4,
    /// x86 `EBP` — frame pointer.
    Ebp = 5,
    /// x86 `ESI` — source index.
    Esi = 6,
    /// x86 `EDI` — destination index.
    Edi = 7,
    /// Micro-architectural temporary 0.
    Et0 = 8,
    /// Micro-architectural temporary 1.
    Et1 = 9,
    /// Micro-architectural temporary 2.
    Et2 = 10,
    /// Micro-architectural temporary 3.
    Et3 = 11,
    /// Micro-architectural temporary 4.
    Et4 = 12,
    /// Micro-architectural temporary 5.
    Et5 = 13,
    /// Micro-architectural temporary 6.
    Et6 = 14,
    /// Micro-architectural temporary 7.
    Et7 = 15,
}

impl ArchReg {
    /// All architectural registers, in index order.
    pub const ALL: [ArchReg; NUM_ARCH_REGS] = [
        ArchReg::Eax,
        ArchReg::Ecx,
        ArchReg::Edx,
        ArchReg::Ebx,
        ArchReg::Esp,
        ArchReg::Ebp,
        ArchReg::Esi,
        ArchReg::Edi,
        ArchReg::Et0,
        ArchReg::Et1,
        ArchReg::Et2,
        ArchReg::Et3,
        ArchReg::Et4,
        ArchReg::Et5,
        ArchReg::Et6,
        ArchReg::Et7,
    ];

    /// The eight x86 general-purpose registers (no temporaries).
    pub const GPRS: [ArchReg; 8] = [
        ArchReg::Eax,
        ArchReg::Ecx,
        ArchReg::Edx,
        ArchReg::Ebx,
        ArchReg::Esp,
        ArchReg::Ebp,
        ArchReg::Esi,
        ArchReg::Edi,
    ];

    /// Returns the register's dense index in `0..NUM_ARCH_REGS`.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Reconstructs a register from its dense index.
    ///
    /// Returns `None` if `idx >= NUM_ARCH_REGS`.
    pub fn from_index(idx: usize) -> Option<ArchReg> {
        Self::ALL.get(idx).copied()
    }

    /// True if this register is an x86-visible general-purpose register
    /// (i.e. part of the architectural state a frame must preserve).
    #[inline]
    pub fn is_gpr(self) -> bool {
        (self as u8) < 8
    }

    /// Short uppercase name as used in the paper's listings (e.g. `"ESP"`).
    pub fn name(self) -> &'static str {
        match self {
            ArchReg::Eax => "EAX",
            ArchReg::Ecx => "ECX",
            ArchReg::Edx => "EDX",
            ArchReg::Ebx => "EBX",
            ArchReg::Esp => "ESP",
            ArchReg::Ebp => "EBP",
            ArchReg::Esi => "ESI",
            ArchReg::Edi => "EDI",
            ArchReg::Et0 => "ET0",
            ArchReg::Et1 => "ET1",
            ArchReg::Et2 => "ET2",
            ArchReg::Et3 => "ET3",
            ArchReg::Et4 => "ET4",
            ArchReg::Et5 => "ET5",
            ArchReg::Et6 => "ET6",
            ArchReg::Et7 => "ET7",
        }
    }
}

impl fmt::Display for ArchReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A compact set of architectural registers, stored as a bit mask.
///
/// Used for liveness computations (live-in / live-out sets at frame
/// boundaries) and for register-pressure accounting in the optimizer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RegSet(u16);

impl RegSet {
    /// The empty set.
    pub const EMPTY: RegSet = RegSet(0);

    /// The set of all x86 general-purpose registers (no temporaries).
    pub const ALL_GPRS: RegSet = RegSet(0x00ff);

    /// The set of every architectural register including temporaries.
    pub const ALL: RegSet = RegSet(0xffff);

    /// Creates an empty set.
    pub fn new() -> RegSet {
        RegSet::EMPTY
    }

    /// Inserts `r`; returns `true` if it was not already present.
    pub fn insert(&mut self, r: ArchReg) -> bool {
        let bit = 1u16 << r.index();
        let was = self.0 & bit != 0;
        self.0 |= bit;
        !was
    }

    /// Removes `r`; returns `true` if it was present.
    pub fn remove(&mut self, r: ArchReg) -> bool {
        let bit = 1u16 << r.index();
        let was = self.0 & bit != 0;
        self.0 &= !bit;
        was
    }

    /// True if `r` is in the set.
    #[inline]
    pub fn contains(self, r: ArchReg) -> bool {
        self.0 & (1u16 << r.index()) != 0
    }

    /// Number of registers in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Registers in `self` but not in `other`.
    pub fn difference(self, other: RegSet) -> RegSet {
        RegSet(self.0 & !other.0)
    }

    /// Iterates over the registers in the set in index order.
    pub fn iter(self) -> impl Iterator<Item = ArchReg> {
        ArchReg::ALL.into_iter().filter(move |r| self.contains(*r))
    }
}

impl FromIterator<ArchReg> for RegSet {
    fn from_iter<I: IntoIterator<Item = ArchReg>>(iter: I) -> RegSet {
        let mut s = RegSet::new();
        for r in iter {
            s.insert(r);
        }
        s
    }
}

impl Extend<ArchReg> for RegSet {
    fn extend<I: IntoIterator<Item = ArchReg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
    }
}

impl fmt::Display for RegSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for r in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        for r in ArchReg::ALL {
            assert_eq!(ArchReg::from_index(r.index()), Some(r));
        }
        assert_eq!(ArchReg::from_index(NUM_ARCH_REGS), None);
    }

    #[test]
    fn gpr_and_temp_partition() {
        let gprs: Vec<_> = ArchReg::ALL.iter().filter(|r| r.is_gpr()).collect();
        assert_eq!(gprs.len(), 8);
        assert!(ArchReg::Esp.is_gpr());
        assert!(!ArchReg::Et2.is_gpr());
    }

    #[test]
    fn regset_basic_ops() {
        let mut s = RegSet::new();
        assert!(s.is_empty());
        assert!(s.insert(ArchReg::Eax));
        assert!(!s.insert(ArchReg::Eax));
        assert!(s.insert(ArchReg::Esp));
        assert_eq!(s.len(), 2);
        assert!(s.contains(ArchReg::Eax));
        assert!(!s.contains(ArchReg::Ebx));
        assert!(s.remove(ArchReg::Eax));
        assert!(!s.remove(ArchReg::Eax));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn regset_algebra() {
        let a: RegSet = [ArchReg::Eax, ArchReg::Ebx].into_iter().collect();
        let b: RegSet = [ArchReg::Ebx, ArchReg::Ecx].into_iter().collect();
        assert!(a.difference(b).contains(ArchReg::Eax));
        assert!(!a.difference(b).contains(ArchReg::Ebx));
    }

    #[test]
    fn regset_constants() {
        assert_eq!(RegSet::ALL_GPRS.len(), 8);
        assert_eq!(RegSet::ALL.len(), NUM_ARCH_REGS);
        assert!(RegSet::ALL_GPRS.iter().all(|r| r.is_gpr()));
    }

    #[test]
    fn regset_display() {
        let s: RegSet = [ArchReg::Eax, ArchReg::Esp].into_iter().collect();
        assert_eq!(s.to_string(), "{EAX, ESP}");
        assert_eq!(RegSet::EMPTY.to_string(), "{}");
    }
}
