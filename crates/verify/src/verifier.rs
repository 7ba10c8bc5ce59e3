//! Frame verification.

use crate::MemoryMaps;
use replay_core::{exec_frame, FlagsSrc, FrameOutcome, MemTransaction, OptFrame, Src};
use replay_trace::TraceRecord;
use replay_uop::{ArchReg, Flags, MachineState};
use std::fmt;

/// A verification failure: what went wrong, plus enough context to act on
/// a shrunk counterexample in one read — the uop (in the optimized,
/// compacted frame) the discrepancy traces back to, and the optimization
/// pass that introduced it when the caller knows it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// The discrepancy itself.
    pub kind: VerifyErrorKind,
    /// Index of the uop in the optimized frame the failure traces back to:
    /// the live-out producer of a mismatched register, the last store to a
    /// mismatched address, the assertion that fired. `None` when no single
    /// uop can be blamed (e.g. a pass-through live-out).
    pub uop_index: Option<usize>,
    /// Short name of the pass whose output first failed the check, when
    /// the caller bisected it (the `replay-check` harness does).
    pub pass: Option<String>,
}

impl VerifyError {
    /// Wraps a discrepancy with no located uop or pass.
    pub fn new(kind: VerifyErrorKind) -> VerifyError {
        VerifyError {
            kind,
            uop_index: None,
            pass: None,
        }
    }

    /// Attaches the offending uop index.
    pub fn at_uop(mut self, index: usize) -> VerifyError {
        self.uop_index = Some(index);
        self
    }

    /// Attaches the name of the pass that introduced the failure.
    pub fn in_pass(mut self, pass: impl Into<String>) -> VerifyError {
        self.pass = Some(pass.into());
        self
    }
}

impl From<VerifyErrorKind> for VerifyError {
    fn from(kind: VerifyErrorKind) -> VerifyError {
        VerifyError::new(kind)
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)?;
        if let Some(i) = self.uop_index {
            write!(f, " [uop {i}]")?;
        }
        if let Some(p) = &self.pass {
            write!(f, " [pass {p}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

/// The kinds of verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyErrorKind {
    /// A general-purpose register differs at the frame boundary.
    RegisterMismatch {
        /// The register.
        reg: ArchReg,
        /// The reference value.
        expected: u32,
        /// The frame's value.
        got: u32,
    },
    /// The flags differ at the frame boundary.
    FlagsMismatch {
        /// The reference flags.
        expected: Flags,
        /// The frame's flags.
        got: Flags,
    },
    /// A memory location differs at the frame boundary.
    MemoryMismatch {
        /// The address.
        addr: u32,
        /// The reference value.
        expected: u32,
        /// The frame's value.
        got: u32,
    },
    /// A load in the optimized frame read a location that is not live in
    /// the trace span (the frame invented a memory access).
    LoadOutsideInitialMap {
        /// The offending address.
        addr: u32,
    },
    /// The frame did not complete (fired an assertion / aborted / faulted)
    /// even though the original execution followed the frame's path.
    UnexpectedOutcome {
        /// Debug rendering of the outcome.
        outcome: String,
    },
    /// The two forms of a frame disagreed on the outcome in a differential
    /// check.
    OutcomeMismatch {
        /// Outcome of the unoptimized form.
        original: String,
        /// Outcome of the optimized form.
        optimized: String,
    },
}

impl fmt::Display for VerifyErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyErrorKind::RegisterMismatch { reg, expected, got } => {
                write!(f, "register {reg}: expected {expected:#x}, got {got:#x}")
            }
            VerifyErrorKind::FlagsMismatch { expected, got } => {
                write!(f, "flags: expected {expected}, got {got}")
            }
            VerifyErrorKind::MemoryMismatch {
                addr,
                expected,
                got,
            } => write!(f, "memory {addr:#x}: expected {expected:#x}, got {got:#x}"),
            VerifyErrorKind::LoadOutsideInitialMap { addr } => {
                write!(f, "load from {addr:#x} outside the initial memory map")
            }
            VerifyErrorKind::UnexpectedOutcome { outcome } => {
                write!(f, "frame did not complete: {outcome}")
            }
            VerifyErrorKind::OutcomeMismatch {
                original,
                optimized,
            } => write!(
                f,
                "outcome mismatch: original {original}, optimized {optimized}"
            ),
        }
    }
}

/// The uop index the failure of register `reg` traces back to: the slot
/// producing the register's live-out binding, if the binding is in-frame.
fn blame_reg(frame: &OptFrame, reg: ArchReg) -> Option<usize> {
    frame.live_out().iter().find_map(|&(r, src)| match src {
        Src::Slot(s) if r == reg => Some(s as usize),
        _ => None,
    })
}

/// The uop index a flags mismatch traces back to (the flags-out producer).
fn blame_flags(frame: &OptFrame) -> Option<usize> {
    match frame.flags_out() {
        FlagsSrc::Slot(s) => Some(s as usize),
        FlagsSrc::LiveIn => None,
    }
}

/// The uop index of the last store the frame performed to `addr`.
fn blame_store(transactions: &[MemTransaction], addr: u32) -> Option<usize> {
    transactions
        .iter()
        .rev()
        .find(|t| t.is_store && t.addr == addr)
        .map(|t| t.uop_index)
}

/// The uop index a non-completing outcome points at, if any.
fn outcome_uop(outcome: &FrameOutcome) -> Option<usize> {
    match outcome {
        FrameOutcome::Completed { .. } => None,
        FrameOutcome::AssertFired { uop_index }
        | FrameOutcome::UnsafeConflict { uop_index, .. }
        | FrameOutcome::Faulted { uop_index } => Some(*uop_index),
    }
}

/// Attaches `uop_index` to `err` when one is known.
fn maybe_at_uop(err: VerifyError, uop_index: Option<usize>) -> VerifyError {
    match uop_index {
        Some(i) => err.at_uop(i),
        None => err,
    }
}

/// Applies a span of trace records to a machine (the reference execution).
fn apply_records(m: &mut MachineState, records: &[TraceRecord]) {
    for r in records {
        // Seed memory with observed load values (they reflect what memory
        // held), then apply stores and register results.
        for &(addr, value) in &r.mem_reads {
            m.store32(addr, value);
        }
        for &(addr, value) in &r.mem_writes {
            m.store32(addr, value);
        }
        for &(reg, value) in &r.reg_writes {
            if let Some(r) = ArchReg::from_index(reg as usize) {
                m.set_reg(r, value);
            }
        }
        m.set_flags(Flags::from_bits(r.flags_after));
    }
}

/// Verifies an optimized frame against the original trace records it
/// covers, starting from `entry` (the machine state at the fetch point).
///
/// Implements the paper's §5.1.3 procedure: the frame is valid only if
/// (1) all its loads hit locations live in the span's initial memory map,
/// (2) all memory state affected by the trace is equivalently affected by
/// the frame at the frame boundary, and (3) all architectural register
/// state is equivalent at the frame boundary.
///
/// # Errors
///
/// Returns the first discrepancy found.
pub fn verify_against_records(
    frame: &OptFrame,
    entry: &MachineState,
    records: &[TraceRecord],
) -> Result<(), VerifyError> {
    let maps = MemoryMaps::from_records(records);

    // Execute the frame on a copy of the entry state.
    let mut frame_machine = entry.clone();
    let outcome = exec_frame(frame, &mut frame_machine);
    let transactions = match outcome {
        FrameOutcome::Completed { transactions } => transactions,
        other => {
            let at = outcome_uop(&other);
            return Err(maybe_at_uop(
                VerifyError::new(VerifyErrorKind::UnexpectedOutcome {
                    outcome: format!("{other:?}"),
                }),
                at,
            ));
        }
    };

    // (1) Loads are a subset of the original loads' locations.
    for t in transactions.iter().filter(|t| !t.is_store) {
        if maps.initial(t.addr).is_none() {
            return Err(
                VerifyError::new(VerifyErrorKind::LoadOutsideInitialMap { addr: t.addr })
                    .at_uop(t.uop_index),
            );
        }
    }

    // Reference execution: apply the records to another copy.
    let mut reference = entry.clone();
    apply_records(&mut reference, records);

    // (3) Register equivalence.
    for r in ArchReg::GPRS {
        let expected = reference.reg(r);
        let got = frame_machine.reg(r);
        if expected != got {
            return Err(maybe_at_uop(
                VerifyError::new(VerifyErrorKind::RegisterMismatch {
                    reg: r,
                    expected,
                    got,
                }),
                blame_reg(frame, r),
            ));
        }
    }
    if reference.flags() != frame_machine.flags() {
        return Err(maybe_at_uop(
            VerifyError::new(VerifyErrorKind::FlagsMismatch {
                expected: reference.flags(),
                got: frame_machine.flags(),
            }),
            blame_flags(frame),
        ));
    }

    // (2) Memory equivalence over every location the trace touched, plus
    // every location the frame wrote.
    for addr in maps.final_addrs() {
        let expected = reference.load32(addr);
        let got = frame_machine.load32(addr);
        if expected != got {
            return Err(maybe_at_uop(
                VerifyError::new(VerifyErrorKind::MemoryMismatch {
                    addr,
                    expected,
                    got,
                }),
                blame_store(&transactions, addr),
            ));
        }
    }
    for t in transactions.iter().filter(|t| t.is_store) {
        let expected = reference.load32(t.addr);
        let got = frame_machine.load32(t.addr);
        if expected != got {
            return Err(VerifyError::new(VerifyErrorKind::MemoryMismatch {
                addr: t.addr,
                expected,
                got,
            })
            .at_uop(t.uop_index));
        }
    }
    Ok(())
}

/// Differentially checks the optimized form of a frame against its
/// unoptimized form from an arbitrary machine state.
///
/// If both forms complete, their final register, flags, and written-memory
/// states must agree. If either fires an assertion or aborts, both must
/// reach a non-completing outcome — except that the optimized frame may
/// legitimately abort *earlier* via an unsafe-store conflict where the
/// original would have fired a later assertion; the check therefore only
/// requires agreement on *whether* the frame completes.
///
/// # Errors
///
/// Returns the first discrepancy found.
pub fn verify_differential(
    original: &OptFrame,
    optimized: &OptFrame,
    entry: &MachineState,
) -> Result<(), VerifyError> {
    let mut m1 = entry.clone();
    let o1 = exec_frame(original, &mut m1);
    let mut m2 = entry.clone();
    let o2 = exec_frame(optimized, &mut m2);

    let completed1 = matches!(o1, FrameOutcome::Completed { .. });
    let completed2 = matches!(o2, FrameOutcome::Completed { .. });
    match (completed1, completed2) {
        (true, true) => {}
        (false, false) => return Ok(()), // both rolled back: nothing commits
        _ => {
            // An optimized frame may abort where the original completes
            // only through unsafe-store speculation; that is a performance
            // event, not a correctness violation (nothing commits).
            if matches!(o2, FrameOutcome::UnsafeConflict { .. }) {
                return Ok(());
            }
            // Blame the uop the optimized form stopped at, or (when the
            // original stopped and the optimized ran through) the uop the
            // original fired on — the optimizer lost that assertion.
            let at = outcome_uop(&o2).or_else(|| outcome_uop(&o1));
            return Err(maybe_at_uop(
                VerifyError::new(VerifyErrorKind::OutcomeMismatch {
                    original: format!("{o1:?}"),
                    optimized: format!("{o2:?}"),
                }),
                at,
            ));
        }
    }

    for r in ArchReg::GPRS {
        if m1.reg(r) != m2.reg(r) {
            return Err(maybe_at_uop(
                VerifyError::new(VerifyErrorKind::RegisterMismatch {
                    reg: r,
                    expected: m1.reg(r),
                    got: m2.reg(r),
                }),
                blame_reg(optimized, r),
            ));
        }
    }
    if m1.flags() != m2.flags() {
        return Err(maybe_at_uop(
            VerifyError::new(VerifyErrorKind::FlagsMismatch {
                expected: m1.flags(),
                got: m2.flags(),
            }),
            blame_flags(optimized),
        ));
    }
    // Compare memory over both frames' store footprints.
    let (addrs, opt_transactions): (Vec<u32>, &[MemTransaction]) = match (&o1, &o2) {
        (
            FrameOutcome::Completed { transactions: t1 },
            FrameOutcome::Completed { transactions: t2 },
        ) => (
            t1.iter()
                .chain(t2.iter())
                .filter(|t| t.is_store)
                .map(|t| t.addr)
                .collect(),
            t2,
        ),
        _ => unreachable!("both completed"),
    };
    for addr in addrs {
        if m1.load32(addr) != m2.load32(addr) {
            return Err(maybe_at_uop(
                VerifyError::new(VerifyErrorKind::MemoryMismatch {
                    addr,
                    expected: m1.load32(addr),
                    got: m2.load32(addr),
                }),
                blame_store(opt_transactions, addr),
            ));
        }
    }
    Ok(())
}

/// Running verification statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Frames checked.
    pub checked: u64,
    /// Checks that passed.
    pub passed: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Checks skipped (frame did not complete from the probe state).
    pub skipped: u64,
}

/// A stateful verifier accumulating statistics, for in-simulator use.
#[derive(Debug, Default)]
pub struct Verifier {
    stats: VerifyStats,
    first_failure: Option<VerifyError>,
}

impl Verifier {
    /// Creates a verifier.
    pub fn new() -> Verifier {
        Verifier::default()
    }

    /// Differentially checks a frame pair, recording the result.
    pub fn check(
        &mut self,
        original: &OptFrame,
        optimized: &OptFrame,
        entry: &MachineState,
    ) -> bool {
        self.stats.checked += 1;
        match verify_differential(original, optimized, entry) {
            Ok(()) => {
                self.stats.passed += 1;
                true
            }
            Err(e) => {
                self.stats.failed += 1;
                if self.first_failure.is_none() {
                    self.first_failure = Some(e);
                }
                false
            }
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> VerifyStats {
        self.stats
    }

    /// The first failure observed, if any.
    pub fn first_failure(&self) -> Option<&VerifyError> {
        self.first_failure.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_core::{optimize, AliasProfile, OptConfig};
    use replay_frame::{Frame, FrameId};
    use replay_uop::{Opcode, Uop};

    fn mk_frame(uops: Vec<Uop>) -> Frame {
        let n = uops.len();
        Frame {
            id: FrameId(0),
            start_addr: 0x1000,
            uops,
            x86_addrs: vec![0x1000],
            block_starts: vec![0],
            expectations: vec![],
            exit_next: 0x2000,
            orig_uop_count: n,
        }
    }

    fn raw(frame: &Frame) -> OptFrame {
        let mut f = OptFrame::from_frame(frame);
        f.compact();
        f
    }

    fn entry_state() -> MachineState {
        let mut m = MachineState::new();
        m.set_reg(ArchReg::Esp, 0x9000);
        m.set_reg(ArchReg::Ebp, 0x1111);
        m.set_reg(ArchReg::Ebx, 0x2222);
        m.set_reg(ArchReg::Esi, 0x100);
        m.store32(0x100, 42);
        m
    }

    #[test]
    fn differential_passes_on_correct_optimization() {
        let frame = mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, 0),
            Uop::alu_imm(Opcode::Add, ArchReg::Ecx, ArchReg::Ecx, 1),
        ]);
        let (opt, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        assert!(stats.removed_uops() > 0);
        verify_differential(&raw(&frame), &opt, &entry_state()).expect("optimization is sound");
    }

    #[test]
    fn differential_catches_an_injected_bug() {
        let frame = mk_frame(vec![
            Uop::load(ArchReg::Ecx, ArchReg::Esi, 0),
            Uop::alu_imm(Opcode::Add, ArchReg::Ecx, ArchReg::Ecx, 1),
        ]);
        // "Optimize" by corrupting the immediate — the verifier must see
        // the register difference.
        let bugged = mk_frame(vec![
            Uop::load(ArchReg::Ecx, ArchReg::Esi, 0),
            Uop::alu_imm(Opcode::Add, ArchReg::Ecx, ArchReg::Ecx, 2),
        ]);
        let err = verify_differential(&raw(&frame), &raw(&bugged), &entry_state()).unwrap_err();
        assert!(matches!(
            err.kind,
            VerifyErrorKind::RegisterMismatch {
                reg: ArchReg::Ecx,
                ..
            }
        ));
        // Ecx is produced by the add at slot 1 of the bugged frame.
        assert_eq!(err.uop_index, Some(1));
    }

    #[test]
    fn differential_catches_memory_bug() {
        let good = mk_frame(vec![Uop::store(ArchReg::Esp, -4, ArchReg::Ebp)]);
        let bad = mk_frame(vec![Uop::store(ArchReg::Esp, -4, ArchReg::Ebx)]);
        let err = verify_differential(&raw(&good), &raw(&bad), &entry_state()).unwrap_err();
        assert!(matches!(err.kind, VerifyErrorKind::MemoryMismatch { .. }));
        // The bad store is the only uop in the frame.
        assert_eq!(err.uop_index, Some(0));
    }

    #[test]
    fn verifier_accumulates() {
        let frame = mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, -4),
        ]);
        let (opt, _) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        let mut v = Verifier::new();
        assert!(v.check(&raw(&frame), &opt, &entry_state()));
        assert_eq!(v.stats().checked, 1);
        assert_eq!(v.stats().passed, 1);
        assert!(v.first_failure().is_none());
    }

    #[test]
    fn records_verification_happy_path() {
        use replay_x86::{Gpr, Inst};
        // Original span: one store + one load of the same slot, as records.
        let records = vec![
            TraceRecord {
                addr: 0x1000,
                len: 1,
                inst: Inst::PushR { src: Gpr::Ebp },
                next_pc: 0x1001,
                reg_writes: [(ArchReg::Esp.index() as u8, 0x9000 - 4)].into(),
                mem_reads: [].into(),
                mem_writes: [(0x9000 - 4, 0x1111)].into(),
                flags_after: 0,
            },
            TraceRecord {
                addr: 0x1001,
                len: 3,
                inst: Inst::MovRM {
                    dst: Gpr::Ecx,
                    mem: replay_x86::MemOperand::base_disp(Gpr::Esp, 0),
                },
                next_pc: 0x1004,
                reg_writes: [(ArchReg::Ecx.index() as u8, 0x1111)].into(),
                mem_reads: [(0x9000 - 4, 0x1111)].into(),
                mem_writes: [].into(),
                flags_after: 0,
            },
        ];
        // The equivalent frame (PUSH flow + load), optimized.
        let frame = mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, 0),
        ]);
        let (opt, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        assert!(stats.store_forwards >= 1);
        verify_against_records(&opt, &entry_state(), &records).expect("frame matches records");
    }

    #[test]
    fn records_verification_catches_wrong_final_memory() {
        use replay_x86::{Gpr, Inst};
        let records = vec![TraceRecord {
            addr: 0x1000,
            len: 1,
            inst: Inst::PushR { src: Gpr::Ebp },
            next_pc: 0x1001,
            reg_writes: [(ArchReg::Esp.index() as u8, 0x9000 - 4)].into(),
            mem_writes: [(0x9000 - 4, 0xdead)].into(), // trace says 0xdead
            mem_reads: [].into(),
            flags_after: 0,
        }];
        let frame = mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp), // frame stores 0x1111
            Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
        ]);
        let err = verify_against_records(&raw(&frame), &entry_state(), &records).unwrap_err();
        assert!(
            matches!(err.kind, VerifyErrorKind::MemoryMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn records_verification_rejects_invented_loads() {
        let records = vec![]; // the span touches no memory
        let frame = mk_frame(vec![Uop::load(ArchReg::Ecx, ArchReg::Esi, 0)]);
        // The load reads 0x100 which is not live in the (empty) span; but
        // register ECX would also mismatch. Check the load error fires
        // first.
        let err = verify_against_records(&raw(&frame), &entry_state(), &records).unwrap_err();
        assert!(matches!(
            err.kind,
            VerifyErrorKind::LoadOutsideInitialMap { addr: 0x100 }
        ));
        assert_eq!(err.uop_index, Some(0));
    }

    #[test]
    fn error_display_includes_context() {
        let err = VerifyError::new(VerifyErrorKind::FlagsMismatch {
            expected: Flags::from_bits(0),
            got: Flags::from_bits(1),
        })
        .at_uop(7)
        .in_pass("CSE");
        let text = err.to_string();
        assert!(text.contains("[uop 7]"), "{text}");
        assert!(text.contains("[pass CSE]"), "{text}");
    }
}
