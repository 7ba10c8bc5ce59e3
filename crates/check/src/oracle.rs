//! The differential oracle: a pass sequence applied to a generated frame
//! must preserve its architectural semantics from every entry state.
//!
//! Three layers of checking, applied in order:
//!
//! 1. **Structural**: [`OptFrame::validate`] must hold after every pass —
//!    a pass that corrupts use counts or dataflow references is a bug even
//!    if the frame still happens to execute correctly.
//! 2. **Differential**: the optimized frame and the raw (unoptimized,
//!    compacted) frame must agree — registers, flags, store-footprint
//!    memory, and completion outcome — from every probed entry state
//!    ([`replay_verify::verify_differential`]).
//! 3. **Attribution**: on a differential failure, the failing pass is
//!    located by re-running prefixes of the sequence, so the resulting
//!    [`VerifyError`] names the pass as well as the uop.
//! 4. **Plan equivalence**: both the raw and the optimized frame, when the
//!    specialized-execution compiler accepts them, must behave bit-for-bit
//!    identically through [`replay_core::ExecPlan`] and through the
//!    reference interpreter — the same [`FrameOutcome`] (transactions
//!    included), registers, flags, and committed memory, on completing,
//!    assert-firing, faulting, and unsafe-conflict paths alike.

use crate::gen::entry_state;
use replay_core::{
    exec_frame, run_pass, AliasProfile, ExecPlan, FrameOutcome, OptConfig, OptFrame, OptStats,
    PassId, PlanScratch,
};
use replay_frame::Frame;
use replay_uop::{ArchReg, MachineState};
use replay_verify::{verify_differential, VerifyError};
use std::fmt;

/// A check failure: either a structural invariant broken by a pass or a
/// semantic divergence caught by the differential oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// [`OptFrame::validate`] failed after running the named pass.
    Invariant {
        /// The pass whose output violated the invariant.
        pass: PassId,
        /// The violation, as reported by `validate`.
        detail: String,
    },
    /// The optimized frame diverged from the original; the error carries
    /// the failing uop and (after attribution) the pass name.
    Verify(VerifyError),
    /// The compiled execution plan diverged from the reference interpreter
    /// on the same frame — a hot-path fast-path bug, not an optimizer bug.
    Plan {
        /// Which form diverged: `"raw"` or `"optimized"`.
        form: &'static str,
        /// The entry seed the divergence was observed from.
        entry_seed: u32,
        /// The divergence.
        detail: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Invariant { pass, detail } => {
                write!(f, "invariant violated after pass {pass}: {detail}")
            }
            CheckError::Verify(e) => write!(f, "{e}"),
            CheckError::Plan {
                form,
                entry_seed,
                detail,
            } => {
                write!(
                    f,
                    "execution plan diverges from interpreter on {form} frame \
                     (entry seed {entry_seed}): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for CheckError {}

/// The raw (unoptimized) form of a frame: remapped and compacted, ready
/// for execution. This is the oracle's reference side.
pub fn raw_frame(frame: &Frame) -> OptFrame {
    let mut f = OptFrame::from_frame(frame);
    f.compact();
    f
}

/// Applies a pass sequence to a frame, validating the structure after
/// every pass, and returns the compacted result.
///
/// # Errors
///
/// Returns [`CheckError::Invariant`] naming the offending pass.
pub fn apply_passes(frame: &Frame, passes: &[PassId]) -> Result<OptFrame, CheckError> {
    let profile = AliasProfile::empty();
    let cfg = OptConfig::default();
    let mut stats = OptStats::default();
    let mut f = OptFrame::from_frame(frame);
    for &pass in passes {
        run_pass(&mut f, pass, &cfg, &profile, &mut stats);
        if let Err(detail) = f.validate() {
            return Err(CheckError::Invariant { pass, detail });
        }
    }
    f.compact();
    if let Err(detail) = f.validate() {
        return Err(CheckError::Invariant {
            pass: *passes.last().unwrap_or(&PassId::Dce),
            detail: format!("after compaction: {detail}"),
        });
    }
    Ok(f)
}

/// Statistics from one successfully checked case.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseStats {
    /// Entry states from which both forms completed and agreed.
    pub entries_completed: u64,
    /// Entry states from which both forms rolled back (assertion fired /
    /// aborted in both — vacuously equivalent).
    pub entries_aborted: u64,
    /// Uops removed by the sequence.
    pub uops_removed: u64,
    /// Plan-vs-interpreter equivalence checks performed (two per entry
    /// seed when the plan compiler accepts both frame forms).
    pub plans_checked: u64,
}

/// Checks one frame under one pass sequence from the given entry seeds.
///
/// On a differential failure the error is re-attributed to the first
/// failing prefix of the sequence (so `error.pass` names the pass) before
/// being returned.
///
/// # Errors
///
/// The first failure found, structural or differential.
pub fn check_frame(
    frame: &Frame,
    passes: &[PassId],
    entry_seeds: &[u32],
) -> Result<CaseStats, CheckError> {
    let original = raw_frame(frame);
    let optimized = apply_passes(frame, passes)?;

    let mut stats = CaseStats {
        uops_removed: (original.uop_count() - optimized.uop_count()) as u64,
        ..CaseStats::default()
    };
    let mut plan_scratch = PlanScratch::new();
    for &seed in entry_seeds {
        let entry = entry_state(seed);
        match verify_differential(&original, &optimized, &entry) {
            Ok(()) => {
                if completes(&original, &entry) {
                    stats.entries_completed += 1;
                } else {
                    stats.entries_aborted += 1;
                }
            }
            Err(e) => {
                let e = attribute(frame, passes, seed, e);
                return Err(CheckError::Verify(e));
            }
        }
        // Layer 4: the specialized execution plan must be bit-equivalent
        // to the interpreter on both frame forms, whatever the outcome
        // (completion, assert trip, fault, or unsafe-store conflict).
        for (form, f) in [("raw", &original), ("optimized", &optimized)] {
            match check_plan_equivalence(f, &entry, &mut plan_scratch) {
                Ok(true) => stats.plans_checked += 1,
                Ok(false) => {}
                Err(detail) => {
                    return Err(CheckError::Plan {
                        form,
                        entry_seed: seed,
                        detail,
                    })
                }
            }
        }
    }
    Ok(stats)
}

/// Executes `f` through the reference interpreter ([`exec_frame`]) and
/// through its compiled [`ExecPlan`] from the same entry state, requiring
/// the identical [`FrameOutcome`] (transaction list included), registers,
/// flags, and committed memory. Returns `Ok(false)` when the plan
/// compiler declines the frame (nothing to compare).
///
/// # Errors
///
/// A human-readable description of the first divergence found.
pub fn check_plan_equivalence(
    f: &OptFrame,
    entry: &MachineState,
    scratch: &mut PlanScratch,
) -> Result<bool, String> {
    let Some(plan) = ExecPlan::compile(f) else {
        return Ok(false);
    };
    let mut interp = entry.clone();
    let reference = exec_frame(f, &mut interp);
    let mut planned_m = entry.clone();
    let planned = plan.exec(&mut planned_m, scratch);
    if reference != planned {
        return Err(format!(
            "outcome mismatch: interpreter {reference:?}, plan {planned:?}"
        ));
    }
    for r in ArchReg::ALL {
        if interp.reg(r) != planned_m.reg(r) {
            return Err(format!(
                "register {r} mismatch after {reference:?}: interpreter {:#x}, plan {:#x}",
                interp.reg(r),
                planned_m.reg(r)
            ));
        }
    }
    if interp.flags() != planned_m.flags() {
        return Err(format!(
            "flags mismatch after {reference:?}: interpreter {}, plan {}",
            interp.flags(),
            planned_m.flags()
        ));
    }
    if let FrameOutcome::Completed { transactions } = &reference {
        for t in transactions.iter().filter(|t| t.is_store) {
            if interp.load32(t.addr) != planned_m.load32(t.addr) {
                return Err(format!(
                    "memory mismatch at {:#x}: interpreter {:#x}, plan {:#x}",
                    t.addr,
                    interp.load32(t.addr),
                    planned_m.load32(t.addr)
                ));
            }
        }
    }
    Ok(true)
}

/// True if the frame completes (commits) from `entry`.
fn completes(f: &OptFrame, entry: &MachineState) -> bool {
    let mut m = entry.clone();
    matches!(
        replay_core::exec_frame(f, &mut m),
        replay_core::FrameOutcome::Completed { .. }
    )
}

/// Locates the pass that introduced a differential failure by re-running
/// prefixes of the sequence, and attaches its name to the error. Falls
/// back to the full sequence's error unchanged if no prefix reproduces it
/// (which would indicate order sensitivity in the check itself).
fn attribute(
    frame: &Frame,
    passes: &[PassId],
    entry_seed: u32,
    full_error: VerifyError,
) -> VerifyError {
    let original = raw_frame(frame);
    let entry = entry_state(entry_seed);
    for len in 1..=passes.len() {
        match apply_passes(frame, &passes[..len]) {
            Ok(prefix_opt) => {
                if verify_differential(&original, &prefix_opt, &entry).is_err() {
                    return full_error.in_pass(passes[len - 1].name());
                }
            }
            // A structural failure mid-prefix: blame that pass.
            Err(CheckError::Invariant { pass, .. }) => {
                return full_error.in_pass(pass.name());
            }
            Err(CheckError::Verify(_) | CheckError::Plan { .. }) => {
                unreachable!("apply_passes returns Invariant only")
            }
        }
    }
    full_error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::arb_frame;
    use replay_rng::SmallRng;

    #[test]
    fn canonical_pipeline_is_sound_on_random_frames() {
        let mut rng = SmallRng::seed_from_u64(0xABCD);
        for i in 0..100u32 {
            let frame = arb_frame(&mut rng);
            let seeds = [i, i ^ 0xffff, i.wrapping_mul(2654435761)];
            check_frame(&frame, &PassId::ALL, &seeds)
                .unwrap_or_else(|e| panic!("case {i}: {e}\n{}", raw_frame(&frame).listing()));
        }
    }

    #[test]
    fn single_passes_are_sound_on_random_frames() {
        let mut rng = SmallRng::seed_from_u64(0xEF01);
        for i in 0..70u32 {
            let frame = arb_frame(&mut rng);
            let pass = PassId::ALL[i as usize % 7];
            check_frame(&frame, &[pass], &[i, !i]).unwrap_or_else(|e| panic!("{pass}: {e}"));
        }
    }

    #[test]
    fn plan_matches_interpreter_on_every_outcome_path() {
        // Random frames, raw and fully optimized, through the
        // plan-equivalence layer — then count the outcome kinds the
        // accepted cases actually hit, to prove the differential is not
        // vacuous: completing AND rollback (assert/fault/conflict) paths
        // must both appear.
        let mut rng = SmallRng::seed_from_u64(0x51AB);
        let mut scratch = replay_core::PlanScratch::new();
        let (mut checked, mut completed, mut rolled_back) = (0u64, 0u64, 0u64);
        for i in 0..120u32 {
            let frame = arb_frame(&mut rng);
            let optimized = apply_passes(&frame, &PassId::ALL).expect("pipeline sound");
            for form in [raw_frame(&frame), optimized] {
                for seed in [i, !i] {
                    let entry = entry_state(seed);
                    match check_plan_equivalence(&form, &entry, &mut scratch) {
                        Ok(true) => {
                            checked += 1;
                            let mut m = entry.clone();
                            match replay_core::exec_frame(&form, &mut m) {
                                replay_core::FrameOutcome::Completed { .. } => completed += 1,
                                _ => rolled_back += 1,
                            }
                        }
                        Ok(false) => {}
                        Err(e) => panic!("case {i}: {e}\n{}", form.listing()),
                    }
                }
            }
        }
        assert!(
            checked > 100,
            "plan compiler accepted too few cases: {checked}"
        );
        assert!(completed > 0, "no completing path exercised");
        assert!(rolled_back > 0, "no rollback path exercised");
    }

    #[test]
    fn check_frame_counts_plan_checks() {
        let mut rng = SmallRng::seed_from_u64(0x2222);
        let mut total = 0u64;
        for i in 0..20u32 {
            let frame = arb_frame(&mut rng);
            let stats = check_frame(&frame, &PassId::ALL, &[i]).expect("sound");
            total += stats.plans_checked;
        }
        assert!(total > 0, "the plan-equivalence layer never engaged");
    }

    #[test]
    fn reversed_sequence_is_sound() {
        let mut rev = PassId::ALL;
        rev.reverse();
        let mut rng = SmallRng::seed_from_u64(0x7777);
        for i in 0..50u32 {
            let frame = arb_frame(&mut rng);
            check_frame(&frame, &rev, &[i]).unwrap_or_else(|e| panic!("case {i}: {e}"));
        }
    }
}
