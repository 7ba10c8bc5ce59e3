//! The seven rePLay optimizations (§3 of the paper).
//!
//! Every pass operates on the renamed [`OptFrame`] representation and
//! maintains its use counts through the frame's mutation API. Passes are
//! deliberately simple — the atomicity of frames, the single control path,
//! and the unique-destination renaming (§4) remove all the hard cases of
//! classical compiler optimization:
//!
//! * no φ-functions or merge points (single path),
//! * no write-after-write or write-after-read hazards (unique
//!   destinations),
//! * no partial liveness (architectural state matters only at the frame
//!   boundary).
//!
//! Dead-code elimination is the collector for all other passes and is
//! always enabled (§6.4).

use crate::alias::AliasProfile;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::ir::{FlagsSrc, Operand, OptUop, Slot, Src};
use crate::pipeline::OptScope;
use crate::OptFrame;
use replay_uop::{eval_alu, Opcode};

/// True when a consumer at `consumer` may observe/rewire against a producer
/// at `producer` under the given optimization scope.
///
/// In [`OptScope::Block`] mode each basic block is optimized individually
/// (§6.3): transformations never reach across a block boundary.
fn visible(f: &OptFrame, producer: Slot, consumer: Slot, scope: OptScope) -> bool {
    match scope {
        // Control enters only at the top, so earlier blocks have provably
        // executed: backward visibility is unrestricted.
        OptScope::Frame | OptScope::InterBlock => true,
        OptScope::Block => f.block_of(producer) == f.block_of(consumer),
    }
}

/// If `u` is a pure register copy, the source it copies. `Mov`, and `Lea`
/// with no index and zero displacement, qualify.
fn copy_source(u: &OptUop) -> Option<Src> {
    match u.op {
        Opcode::Mov => u.src_a,
        Opcode::Lea if u.src_b.is_none() && u.imm == 0 => u.src_a,
        _ => None,
    }
}

/// If `u` computes `X + d` for a single source `X` and constant `d`, returns
/// `(X, d)`. Matches `Lea base,disp`, add-immediate, and subtract-immediate.
fn add_chain_link(u: &OptUop) -> Option<(Src, i32)> {
    if u.src_b.is_some() {
        return None;
    }
    let x = u.src_a?;
    match u.op {
        Opcode::Lea => Some((x, u.imm)),
        Opcode::Add => Some((x, u.imm)),
        Opcode::Sub => Some((x, u.imm.wrapping_neg())),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// NOP removal
// ---------------------------------------------------------------------

/// Removes `NOP` uops and unconditional direct jumps (which embody no
/// control decision inside an atomic frame). Returns the number of uops
/// removed.
pub fn nop_removal(f: &mut OptFrame) -> u64 {
    let mut removed = 0;
    for i in 0..f.len() as Slot {
        let u = f.slot(i);
        if u.valid && matches!(u.op, Opcode::Nop | Opcode::Jmp) {
            f.invalidate(i);
            removed += 1;
        }
    }
    removed
}

// ---------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------

/// Result counters of one constant-propagation run.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConstPropResult {
    /// Uops replaced by `MovImm`.
    pub folded: u64,
    /// Constant operands folded into immediate forms.
    pub operands_folded: u64,
    /// Assertions proven always-true and deleted.
    pub asserts_removed: u64,
}

/// Propagates constants forward through the frame.
///
/// * a uop whose inputs are all known constants is replaced by `MovImm`
///   (when its flags are not consumed);
/// * a constant second operand is folded into the immediate form, and a
///   constant load index into the displacement;
/// * a fused target assertion (`AssertCmp`) whose operands are constant and
///   whose condition provably holds is deleted outright — this is how the
///   return jump of an inlined call disappears (§3.3).
pub fn const_prop(f: &mut OptFrame, scope: OptScope) -> ConstPropResult {
    let mut res = ConstPropResult::default();
    let mut consts: Vec<Option<u32>> = vec![None; f.len()];

    let read_const = |f: &OptFrame,
                      consts: &[Option<u32>],
                      src: Option<Src>,
                      at: Slot,
                      scope: OptScope|
     -> Option<u32> {
        match src? {
            Src::Slot(m) if visible(f, m, at, scope) => consts[m as usize],
            _ => None,
        }
    };

    for i in 0..f.len() as Slot {
        if !f.slot(i).valid {
            continue;
        }
        let op = f.slot(i).op;

        // Fold a constant base into an absolute address: exposes provable
        // memory disjointness to the memory optimizer.
        if matches!(op, Opcode::Load | Opcode::Store | Opcode::Lea) && f.slot(i).src_a.is_some() {
            if let Some(k) = read_const(f, &consts, f.slot(i).src_a, i, scope) {
                let disp = f.slot(i).imm.wrapping_add(k as i32);
                f.rewrite_operand_imm(i, Operand::A, None, disp);
                res.operands_folded += 1;
            }
        }

        // Fold a constant index into a load/lea displacement.
        if matches!(op, Opcode::Load | Opcode::Lea) && f.slot(i).src_b.is_some() {
            if let Some(k) = read_const(f, &consts, f.slot(i).src_b, i, scope) {
                let u = f.slot(i);
                let disp = u.imm.wrapping_add((k as i32).wrapping_mul(u.scale as i32));
                f.rewrite_operand_imm(i, Operand::B, None, disp);
                res.operands_folded += 1;
            }
        }

        // Fold a constant second source of an ALU op into immediate form.
        if op.is_alu() && op != Opcode::MovImm && f.slot(i).src_b.is_some() && op != Opcode::Lea {
            if let Some(k) = read_const(f, &consts, f.slot(i).src_b, i, scope) {
                f.rewrite_operand_imm(i, Operand::B, None, k as i32);
                res.operands_folded += 1;
            }
        }

        match op {
            Opcode::MovImm => consts[i as usize] = Some(f.slot(i).imm as u32),
            Opcode::AssertCmp | Opcode::AssertTest => {
                let a = read_const(f, &consts, f.slot(i).src_a, i, scope);
                let b = match f.slot(i).src_b {
                    Some(src) => read_const(f, &consts, Some(src), i, scope),
                    None => Some(f.slot(i).imm as u32),
                };
                if let (Some(a), Some(b)) = (a, b) {
                    let alu = if op == Opcode::AssertCmp {
                        Opcode::Cmp
                    } else {
                        Opcode::Test
                    };
                    let flags = eval_alu(alu, a, b).expect("cmp/test never fault").flags;
                    let cc = f.slot(i).cc.expect("assert carries cc");
                    if cc.holds(flags) {
                        // The assertion can never fire: delete it and its
                        // control expectation.
                        f.remove_expectation_at(i);
                        f.invalidate(i);
                        res.asserts_removed += 1;
                    }
                }
            }
            _ if op.is_alu() && !op.is_flags_only() => {
                let a = read_const(f, &consts, f.slot(i).src_a, i, scope);
                let b = match f.slot(i).src_b {
                    Some(src) => read_const(f, &consts, Some(src), i, scope),
                    None => Some(f.slot(i).imm as u32),
                };
                let value = match (op, a, b) {
                    (Opcode::Lea, Some(a), _) if f.slot(i).src_b.is_none() => {
                        Some(a.wrapping_add(f.slot(i).imm as u32))
                    }
                    // A Lea whose base was folded away entirely is a pure
                    // constant (its displacement).
                    (Opcode::Lea, None, _)
                        if f.slot(i).src_a.is_none() && f.slot(i).src_b.is_none() =>
                    {
                        Some(f.slot(i).imm as u32)
                    }
                    (Opcode::MovImm, _, _) => unreachable!("handled above"),
                    (_, Some(a), Some(b)) => eval_alu(op, a, b).ok().map(|r| r.value),
                    _ => None,
                };
                if let Some(v) = value {
                    consts[i as usize] = Some(v);
                    let flags_needed = f.slot(i).writes_flags && f.flags_uses(i) > 0;
                    if !flags_needed && f.slot(i).op != Opcode::MovImm {
                        f.replace_with_const(i, v as i32);
                        res.folded += 1;
                    }
                }
            }
            _ => {}
        }
    }
    res
}

// ---------------------------------------------------------------------
// Reassociation (including copy propagation)
// ---------------------------------------------------------------------

/// Reassociates add-immediate chains and propagates copies.
///
/// The canonical case is the stack pointer (§3.1): after `PUSH EBP` the
/// next `PUSH`'s store reads `ESP₁ = ESP₀ - 4`; reassociation rewrites it
/// to read `ESP₀` with the `-4` folded into its displacement. Once all
/// consumers have been rewritten, the intermediate update is dead.
///
/// Folding is suppressed when the rewritten uop's *flags* are consumed: the
/// value is unchanged but carry/overflow of a re-associated addition can
/// differ.
///
/// Returns the number of operand rewrites performed.
pub fn reassociate(f: &mut OptFrame, scope: OptScope) -> u64 {
    let mut rewrites = 0;
    for i in 0..f.len() as Slot {
        if !f.slot(i).valid {
            continue;
        }
        // Copy propagation on both operand positions.
        for which in [Operand::A, Operand::B] {
            while let Some(Src::Slot(m)) = f.slot(i).operand(which) {
                if !visible(f, m, i, scope) {
                    break;
                }
                let Some(real) = copy_source(f.slot(m)) else {
                    break;
                };
                f.rewrite_operand(i, which, Some(real));
                rewrites += 1;
            }
        }

        let op = f.slot(i).op;

        // Displacement folding through the base operand of memory ops and
        // immediate-form adds/subs.
        let base_foldable = matches!(op, Opcode::Load | Opcode::Store | Opcode::Lea)
            || (matches!(op, Opcode::Add | Opcode::Sub) && f.slot(i).src_b.is_none());
        let flags_block = f.slot(i).writes_flags && f.flags_uses(i) > 0;
        if base_foldable && !flags_block {
            while let Some(Src::Slot(m)) = f.slot(i).src_a {
                if !visible(f, m, i, scope) {
                    break;
                }
                let Some((x, d)) = add_chain_link(f.slot(m)) else {
                    break;
                };
                let new_imm = match op {
                    // SUB r, imm: value = (X + d) - imm = X - (imm - d).
                    Opcode::Sub => f.slot(i).imm.wrapping_sub(d),
                    _ => f.slot(i).imm.wrapping_add(d),
                };
                f.rewrite_operand_imm(i, Operand::A, Some(x), new_imm);
                rewrites += 1;
            }
        }

        // Fold an add-immediate chain feeding a load/lea *index*:
        // base + (X + d)*s + disp  =  base + X*s + (disp + d*s).
        if matches!(op, Opcode::Load | Opcode::Lea) {
            while let Some(Src::Slot(m)) = f.slot(i).src_b {
                if !visible(f, m, i, scope) {
                    break;
                }
                let Some((x, d)) = add_chain_link(f.slot(m)) else {
                    break;
                };
                let scale = f.slot(i).scale as i32;
                let new_imm = f.slot(i).imm.wrapping_add(d.wrapping_mul(scale));
                f.rewrite_operand_imm(i, Operand::B, Some(x), new_imm);
                rewrites += 1;
            }
        }
    }
    rewrites
}

// ---------------------------------------------------------------------
// Value-assertion fusion (ASST)
// ---------------------------------------------------------------------

/// Fuses `Cmp`/`Test` + `Assert` pairs into single `AssertCmp`/`AssertTest`
/// uops — the typical x86 *flag-generate then conditionally branch* idiom
/// collapses to one operation (§3.4). Returns the number of fusions.
pub fn assert_fuse(f: &mut OptFrame, scope: OptScope) -> u64 {
    let mut fused = 0;
    for i in 0..f.len() as Slot {
        let u = f.slot(i);
        if !u.valid || u.op != Opcode::Assert {
            continue;
        }
        let Some(FlagsSrc::Slot(m)) = u.flags_src else {
            continue;
        };
        if !visible(f, m, i, scope) {
            continue;
        }
        if matches!(f.slot(m).op, Opcode::Cmp | Opcode::Test) {
            f.fuse_assert(i, m);
            fused += 1;
        }
    }
    fused
}

// ---------------------------------------------------------------------
// Common-subexpression elimination (ALU part)
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AluKey {
    op: Opcode,
    a: Option<Src>,
    b: Option<Src>,
    imm: i32,
    scale: u8,
    block: u16,
}

/// Eliminates redundant *value* computations: two uops with the same opcode
/// and operands compute the same value, so the later one's consumers read
/// the earlier result. Returns the number of redundancies collapsed.
///
/// The later uop is left for dead-code elimination — if its flags are still
/// consumed, it stays.
pub fn cse_alu(f: &mut OptFrame, scope: OptScope) -> u64 {
    let mut collapsed = 0;
    let mut table: FxHashMap<AluKey, Slot> =
        FxHashMap::with_capacity_and_hasher(f.len(), Default::default());
    for i in 0..f.len() as Slot {
        let u = f.slot(i);
        if !u.valid || !u.op.is_alu() || u.op.is_flags_only() || u.dst_arch.is_none() {
            continue;
        }
        // Mov/copies are reassociation's job.
        if copy_source(u).is_some() {
            continue;
        }
        let (mut a, mut b) = (u.src_a, u.src_b);
        if u.op.is_commutative() && a.is_some() && b.is_some() && a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let key = AluKey {
            op: u.op,
            a,
            b,
            imm: u.imm,
            scale: u.scale,
            block: match scope {
                OptScope::Frame | OptScope::InterBlock => 0,
                OptScope::Block => f.block_of(i),
            },
        };
        match table.get(&key) {
            Some(&m) => {
                if f.redirect_value_uses(i, Src::Slot(m)) > 0 {
                    collapsed += 1;
                }
            }
            None => {
                table.insert(key, i);
            }
        }
    }
    collapsed
}

// ---------------------------------------------------------------------
// Memory optimization: store forwarding + redundant load elimination
// ---------------------------------------------------------------------

/// A symbolic memory address: two references are the same location only if
/// all four components are identical (§6.4: "two memory instructions are
/// deemed equivalent only if their base registers are symbolically the same
/// and their immediates and scales are literally the same").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct AddrKey {
    base: Option<Src>,
    index: Option<Src>,
    scale: u8,
    disp: i32,
}

impl AddrKey {
    fn of(u: &OptUop) -> Option<AddrKey> {
        let (base, index, scale, disp) = u.mem_addr()?;
        Some(AddrKey {
            base,
            index,
            scale,
            disp,
        })
    }

    /// Conservative may-alias: identical register expressions at word
    /// distance ≥ 4 provably do not overlap; anything else may.
    fn may_alias(&self, other: &AddrKey) -> bool {
        if self == other {
            return true;
        }
        if self.base == other.base && self.index == other.index && self.scale == other.scale {
            let delta = (self.disp as i64 - other.disp as i64).abs();
            return delta < 4;
        }
        true
    }
}

#[derive(Debug)]
struct Available {
    key: AddrKey,
    value: Src,
    provider: Slot,
    provider_is_store: bool,
    /// May-alias stores between the provider and the present point, kept
    /// only under speculative memory optimization.
    crossed: Vec<Slot>,
}

/// Counters from one memory-optimization run.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemOptResult {
    /// Loads forwarded from an earlier store.
    pub store_forwards: u64,
    /// Loads eliminated against an earlier load.
    pub redundant_loads: u64,
    /// Removals that speculated across may-alias stores.
    pub speculative: u64,
}

/// Store forwarding and redundant-load elimination over symbolic addresses.
///
/// With `speculative` enabled, a may-alias store between a matching
/// store/load (or load/load) pair does not kill the match if the alias
/// profile recorded no aliasing event between the instructions involved —
/// the intervening stores are marked **unsafe** instead, and the hardware
/// compares their addresses against all prior frame transactions at
/// execution, aborting on a conflict (§3.4).
///
/// `enable_sf` gates store→load forwarding, `enable_rle` gates load→load
/// elimination (the redundant-load half of CSE) so that the paper's
/// leave-one-out ablation (Figure 10) can disable them independently.
pub fn memory_opt(
    f: &mut OptFrame,
    scope: OptScope,
    profile: &AliasProfile,
    speculative: bool,
    enable_sf: bool,
    enable_rle: bool,
) -> MemOptResult {
    let mut res = MemOptResult::default();
    // Sized once for the whole frame: growing both as they fill would
    // reallocate several times per call.
    let mut avail: Vec<Available> = Vec::with_capacity(f.len());
    let mut seen_keys: FxHashSet<AddrKey> =
        FxHashSet::with_capacity_and_hasher(f.len(), Default::default());
    let mut block = 0u16;

    for i in 0..f.len() as Slot {
        if !f.slot(i).valid {
            continue;
        }
        if scope == OptScope::Block && f.block_of(i) != block {
            block = f.block_of(i);
            avail.clear();
            seen_keys.clear();
        }
        let u = f.slot(i);
        if u.is_store() {
            let key = AddrKey::of(u).expect("store has an address");
            // A store with an earlier same-address access in the frame can
            // never be marked unsafe: at execution its address would
            // trivially match that prior transaction and abort the frame.
            // Entries that would have to speculate across it die instead.
            let unsafe_eligible = seen_keys.insert(key) && speculative;
            // Update or kill overlapping entries.
            let mut j = 0;
            while j < avail.len() {
                let e = &mut avail[j];
                if e.key == key {
                    avail.swap_remove(j);
                    continue;
                }
                if e.key.may_alias(&key) {
                    if unsafe_eligible {
                        e.crossed.push(i);
                        j += 1;
                    } else {
                        avail.swap_remove(j);
                    }
                    continue;
                }
                j += 1;
            }
            avail.push(Available {
                key,
                value: u.src_b.expect("store carries data"),
                provider: i,
                provider_is_store: true,
                crossed: Vec::new(),
            });
        } else if u.is_load() {
            let key = AddrKey::of(u).expect("load has an address");
            seen_keys.insert(key);
            let hit = avail.iter().position(|e| e.key == key);
            match hit {
                Some(pos) => {
                    let entry = &avail[pos];
                    let enabled = if entry.provider_is_store {
                        enable_sf
                    } else {
                        enable_rle
                    };
                    // A crossed store whose profile shows aliasing with
                    // either end of the pair forbids the speculation.
                    let load_x86 = f.slot(i).x86_addr;
                    let provider_x86 = f.slot(entry.provider).x86_addr;
                    let profiled_alias = entry.crossed.iter().any(|&s| {
                        let sx = f.slot(s).x86_addr;
                        profile.aliased(sx, load_x86) || profile.aliased(sx, provider_x86)
                    });
                    if enabled && !profiled_alias {
                        f.redirect_value_uses(i, entry.value);
                        f.invalidate(i);
                        if entry.crossed.is_empty() {
                            // Plain (non-speculative) removal.
                        } else {
                            for &s in &entry.crossed {
                                f.mark_unsafe_store(s);
                            }
                            f.note_speculative_removal();
                            res.speculative += 1;
                        }
                        if entry.provider_is_store {
                            res.store_forwards += 1;
                        } else {
                            res.redundant_loads += 1;
                        }
                    } else {
                        // The stale entry cannot be used; this load becomes
                        // the fresh provider for its address.
                        avail[pos] = Available {
                            key,
                            value: Src::Slot(i),
                            provider: i,
                            provider_is_store: false,
                            crossed: Vec::new(),
                        };
                    }
                }
                None => avail.push(Available {
                    key,
                    value: Src::Slot(i),
                    provider: i,
                    provider_is_store: false,
                    crossed: Vec::new(),
                }),
            }
        }
    }
    res
}

// ---------------------------------------------------------------------
// Dead-code elimination
// ---------------------------------------------------------------------

/// Removes uops whose value and flags results have no consumers and which
/// have no side effects. Returns the number of uops removed.
///
/// One reverse sweep reaches the fixpoint: renamed consumers always follow
/// their producers, so by the time the sweep reaches a uop every one of its
/// consumers has already been visited (and removed, if dead), and the keep
/// set below is fixed for the whole sweep.
///
/// In the multi-exit scopes the last writer of each general-purpose
/// register within a block — and the last flags writer — are kept alive,
/// because every block exit must see its architectural outputs (§6.3).
pub fn dce(f: &mut OptFrame, scope: OptScope) -> u64 {
    let keep = match scope {
        OptScope::Frame => Vec::new(),
        // In inter-block scope the *final* block has no further exit — its
        // outputs are the frame live-outs, which the use counts already
        // protect.
        OptScope::Block => block_keep_set(f, false),
        OptScope::InterBlock => block_keep_set(f, true),
    };
    let mut removed = 0;
    for i in (0..f.len() as Slot).rev() {
        let u = f.slot(i);
        if !u.valid || u.has_side_effect() {
            continue;
        }
        if f.value_uses(i) > 0 {
            continue;
        }
        if u.writes_flags && f.flags_uses(i) > 0 {
            continue;
        }
        if keep.contains(&i) {
            continue;
        }
        f.invalidate(i);
        removed += 1;
    }
    removed
}

/// Slots that must stay alive under multi-exit optimization scopes: the
/// final valid writer of each GPR, and the final flags writer, within each
/// block. With `skip_final_block`, the frame's last block is exempt (its
/// outputs are the frame live-outs, already protected by use counts).
///
/// The last block is the one the buffer's last slot belongs to, valid or
/// not, so removing that block's uops never turns an earlier block into
/// the exempt one.
fn block_keep_set(f: &OptFrame, skip_final_block: bool) -> Vec<Slot> {
    let final_block = f.block_count().saturating_sub(1) as u16;
    let mut keep = Vec::new();
    let mut cur_block = u16::MAX;
    let mut last_writer: [Option<Slot>; 8] = [None; 8];
    let mut last_flags: Option<Slot> = None;
    let flush = |keep: &mut Vec<Slot>, w: &mut [Option<Slot>; 8], fl: &mut Option<Slot>| {
        keep.extend(w.iter().flatten().copied());
        keep.extend(fl.iter().copied());
        *w = [None; 8];
        *fl = None;
    };
    for (i, u) in f.iter_valid() {
        if f.block_of(i) != cur_block {
            flush(&mut keep, &mut last_writer, &mut last_flags);
            cur_block = f.block_of(i);
        }
        if skip_final_block && cur_block == final_block {
            break;
        }
        if let Some(d) = u.dst_arch {
            if d.is_gpr() {
                last_writer[d.index()] = Some(i);
            }
        }
        if u.writes_flags {
            last_flags = Some(i);
        }
    }
    flush(&mut keep, &mut last_writer, &mut last_flags);
    keep
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::OptScope;
    use replay_frame::{Frame, FrameId};
    use replay_uop::{ArchReg, Cond, Uop};

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

    #[test]
    fn nop_and_jmp_removed() {
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::nop(),
            Uop::jmp(0x50),
            Uop::mov_imm(ArchReg::Eax, 1),
        ]));
        assert_eq!(nop_removal(&mut f), 2);
        assert_eq!(f.uop_count(), 1);
    }

    #[test]
    fn const_prop_folds_chains() {
        // ET0 <- 40; EBX <- ET0 + 2 folds to EBX <- 42. A trailing Cmp
        // takes over the frame's flags-out so the Add's flags are free.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::mov_imm(ArchReg::Et0, 40),
            Uop::alu_imm(Opcode::Add, ArchReg::Ebx, ArchReg::Et0, 2),
            Uop::cmp_imm(ArchReg::Esi, 0),
        ]));
        let r = const_prop(&mut f, OptScope::Frame);
        assert_eq!(r.folded, 1);
        assert_eq!(f.slot(1).op, Opcode::MovImm);
        assert_eq!(f.slot(1).imm, 42);
        // The producer is now dead.
        assert_eq!(dce(&mut f, OptScope::Frame), 1);
    }

    #[test]
    fn const_prop_never_folds_the_flags_out_writer() {
        // The frame's final flags writer defines the exit flags; folding
        // it to MovImm would lose them.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::mov_imm(ArchReg::Et0, 40),
            Uop::alu_imm(Opcode::Add, ArchReg::Ebx, ArchReg::Et0, 2),
        ]));
        let r = const_prop(&mut f, OptScope::Frame);
        assert_eq!(r.folded, 0);
        assert_eq!(f.slot(1).op, Opcode::Add);
    }

    #[test]
    fn const_prop_respects_consumed_flags() {
        // The Add's flags feed an assert, so it cannot be replaced by
        // MovImm even though its value is constant.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::mov_imm(ArchReg::Eax, 1),
            Uop::alu_imm(Opcode::Add, ArchReg::Ebx, ArchReg::Eax, -1),
            Uop::assert_cc(Cond::Eq),
        ]));
        let r = const_prop(&mut f, OptScope::Frame);
        assert_eq!(r.folded, 0);
        assert_eq!(f.slot(1).op, Opcode::Add);
    }

    #[test]
    fn const_prop_removes_true_target_assert() {
        // ET2 <- 0x5005 ; assert (cmp ET2, 0x5005) Z — provably true.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::mov_imm(ArchReg::Et2, 0x5005),
            Uop::assert_cmp(Cond::Eq, ArchReg::Et2, None, 0x5005),
        ]));
        let r = const_prop(&mut f, OptScope::Frame);
        assert_eq!(r.asserts_removed, 1);
        assert_eq!(f.uop_count(), 1);
    }

    #[test]
    fn const_prop_keeps_false_assert() {
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::mov_imm(ArchReg::Et2, 0x1111),
            Uop::assert_cmp(Cond::Eq, ArchReg::Et2, None, 0x5005),
        ]));
        let r = const_prop(&mut f, OptScope::Frame);
        assert_eq!(r.asserts_removed, 0, "a failing assert must stay");
        assert_eq!(f.uop_count(), 2);
    }

    #[test]
    fn reassoc_flattens_push_chain() {
        // The paper's PUSH/PUSH example: both stores and the load end up
        // based on the live-in ESP, and one stack update dies.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebx),
            Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, 0xc),
        ]));
        let n = reassociate(&mut f, OptScope::Frame);
        assert!(n >= 3);
        // Store 2 now reads live-in ESP with displacement -8.
        assert_eq!(f.slot(2).src_a, Some(Src::LiveIn(ArchReg::Esp)));
        assert_eq!(f.slot(2).imm, -8);
        // The load reads [ESP0 + 4] (0xc - 8).
        assert_eq!(f.slot(4).src_a, Some(Src::LiveIn(ArchReg::Esp)));
        assert_eq!(f.slot(4).imm, 4);
        // Second LEA collapses to ESP0 - 8.
        assert_eq!(f.slot(3).src_a, Some(Src::LiveIn(ArchReg::Esp)));
        assert_eq!(f.slot(3).imm, -8);
        // First LEA now feeds nothing but... nothing: dead.
        assert_eq!(dce(&mut f, OptScope::Frame), 1);
        assert!(!f.slot(1).valid);
    }

    #[test]
    fn reassoc_blocked_by_flag_consumers() {
        // ESP' = ESP - 4 (lea); EAX = ESP' + 8 with flags read by assert:
        // folding EAX's base would change CF/OF semantics.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::lea(ArchReg::Ebx, ArchReg::Esp, None, 1, -4),
            Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Ebx, 8),
            Uop::assert_cc(Cond::Ae),
        ]));
        reassociate(&mut f, OptScope::Frame);
        assert_eq!(
            f.slot(1).src_a,
            Some(Src::Slot(0)),
            "fold suppressed while flags are live"
        );
    }

    #[test]
    fn copy_propagation_through_mov() {
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::mov(ArchReg::Edx, ArchReg::Ecx),
            Uop::alu(Opcode::Or, ArchReg::Edx, ArchReg::Edx, ArchReg::Ebx),
        ]));
        let n = reassociate(&mut f, OptScope::Frame);
        assert_eq!(n, 1);
        // The OR now reads ECX directly — the paper's uops 08/09 example.
        assert_eq!(f.slot(1).src_a, Some(Src::LiveIn(ArchReg::Ecx)));
        // The OR overwrites EDX, so the live-out points at slot 1 and the
        // Mov is dead once its only consumer has been rewritten.
        assert_eq!(dce(&mut f, OptScope::Frame), 1);
        assert!(!f.slot(0).valid);
    }

    #[test]
    fn assert_fusion() {
        // A later flag writer (the Add) takes over flags-out, so the fused
        // Cmp is genuinely dead.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::cmp_imm(ArchReg::Eax, 0),
            Uop::assert_cc(Cond::Eq),
            Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1),
        ]));
        assert_eq!(assert_fuse(&mut f, OptScope::Frame), 1);
        assert_eq!(f.slot(1).op, Opcode::AssertCmp);
        assert_eq!(f.slot(1).src_a, Some(Src::LiveIn(ArchReg::Eax)));
        // Cmp is dead now.
        assert_eq!(dce(&mut f, OptScope::Frame), 1);
        assert_eq!(f.uop_count(), 2);
        assert!(!f.slot(0).valid);
    }

    #[test]
    fn assert_fusion_keeps_shared_cmp() {
        // The Cmp's flags also feed the frame's flags-out, so fusion
        // happens but the Cmp survives DCE.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::cmp_imm(ArchReg::Eax, 0),
            Uop::assert_cc(Cond::Eq),
            // (no further flag writer: Cmp is flags-out)
        ]));
        assert_eq!(assert_fuse(&mut f, OptScope::Frame), 1);
        assert_eq!(dce(&mut f, OptScope::Frame), 0, "flags-out keeps the Cmp");
    }

    #[test]
    fn cse_alu_collapses() {
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::lea(ArchReg::Eax, ArchReg::Esi, Some(ArchReg::Edi), 4, 8),
            Uop::lea(ArchReg::Ebx, ArchReg::Esi, Some(ArchReg::Edi), 4, 8),
            Uop::alu(Opcode::Add, ArchReg::Ecx, ArchReg::Eax, ArchReg::Ebx),
        ]));
        assert_eq!(cse_alu(&mut f, OptScope::Frame), 1);
        // Both inputs of the Add now come from slot 0. (EBX's live-out
        // keeps slot 1 alive unless the frame overwrites EBX later.)
        assert_eq!(f.slot(2).src_a, Some(Src::Slot(0)));
        assert_eq!(f.slot(2).src_b, Some(Src::Slot(0)));
    }

    #[test]
    fn cse_alu_commutative_normalization() {
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::alu(Opcode::Add, ArchReg::Eax, ArchReg::Esi, ArchReg::Edi),
            Uop::alu(Opcode::Add, ArchReg::Ebx, ArchReg::Edi, ArchReg::Esi),
            Uop::store(ArchReg::Ebx, 0, ArchReg::Eax),
        ]));
        assert_eq!(cse_alu(&mut f, OptScope::Frame), 1);
        assert_eq!(f.slot(2).src_a, Some(Src::Slot(0)));
    }

    #[test]
    fn cse_alu_keeps_duplicate_with_consumed_flags() {
        // Two identical Adds; the second one's flags feed an assert, so
        // CSE redirects its *value* consumers to the first but DCE must
        // keep it as a flags writer. A trailing Cmp takes over flags-out,
        // leaving the assert as the only thing pinning the duplicate.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::alu(Opcode::Add, ArchReg::Eax, ArchReg::Esi, ArchReg::Edi),
            Uop::alu(Opcode::Add, ArchReg::Ebx, ArchReg::Esi, ArchReg::Edi),
            Uop::assert_cc(Cond::Eq),
            Uop::store(ArchReg::Esp, 0, ArchReg::Ebx),
            Uop::cmp_imm(ArchReg::Esi, 0),
        ]));
        assert_eq!(cse_alu(&mut f, OptScope::Frame), 1);
        // The store's data now comes from the first Add...
        assert_eq!(f.slot(3).src_b, Some(Src::Slot(0)));
        // ...but the assert still reads the duplicate's flags.
        assert_eq!(f.slot(2).flags_src, Some(FlagsSrc::Slot(1)));
        assert_eq!(dce(&mut f, OptScope::Frame), 0);
        assert!(f.slot(1).valid, "live flags writer must survive CSE + DCE");
    }

    #[test]
    fn cse_alu_keeps_flags_out_duplicate() {
        // The duplicate is the frame's final flags writer: even with every
        // value use redirected, the exit flags pin it.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::alu(Opcode::Add, ArchReg::Eax, ArchReg::Esi, ArchReg::Edi),
            Uop::alu(Opcode::Add, ArchReg::Ebx, ArchReg::Esi, ArchReg::Edi),
        ]));
        assert_eq!(cse_alu(&mut f, OptScope::Frame), 1);
        assert_eq!(
            dce(&mut f, OptScope::Frame),
            0,
            "flags-out keeps the duplicate"
        );
        assert!(f.slot(1).valid);
    }

    #[test]
    fn cse_alu_skips_flags_only_ops() {
        // Cmp computes no value: two identical Cmps are not CSE candidates
        // (each is an independent flags definition for its own assert).
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::cmp_imm(ArchReg::Eax, 5),
            Uop::assert_cc(Cond::Eq),
            Uop::cmp_imm(ArchReg::Eax, 5),
            Uop::assert_cc(Cond::Eq),
        ]));
        assert_eq!(cse_alu(&mut f, OptScope::Frame), 0);
        assert!(f.slot(0).valid && f.slot(2).valid);
    }

    #[test]
    fn store_forward_rewrites_fused_assert_operand() {
        // [ESP-4] <- EBP; ECX <- [ESP-4]; assert-cmp ECX == 7. Forwarding
        // routes the store data into the assert's operand and kills the
        // load with no flag damage (loads define no flags).
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, -4),
            Uop::assert_cmp(Cond::Eq, ArchReg::Ecx, None, 7),
            Uop::cmp_imm(ArchReg::Esi, 0),
        ]));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            true,
            true,
            true,
        );
        assert_eq!(r.store_forwards, 1);
        assert!(!f.slot(1).valid);
        assert_eq!(f.slot(2).src_a, Some(Src::LiveIn(ArchReg::Ebp)));
        // Flags-out is still the trailing Cmp; nothing points at the load.
        assert_eq!(dce(&mut f, OptScope::Frame), 0);
    }

    #[test]
    fn store_forwarding_basic() {
        // [ESP-4] <- EBP ... EBX <- [ESP-4]  =>  load eliminated.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::load(ArchReg::Ebx, ArchReg::Esp, -4),
        ]));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            true,
            true,
            true,
        );
        assert_eq!(r.store_forwards, 1);
        assert!(!f.slot(1).valid);
        // Live-out EBX now reads the forwarded EBP live-in.
        let lo: std::collections::HashMap<_, _> = f.live_out().iter().copied().collect();
        assert_eq!(lo[&ArchReg::Ebx], Src::LiveIn(ArchReg::Ebp));
    }

    #[test]
    fn redundant_load_elimination() {
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::load(ArchReg::Eax, ArchReg::Esi, 0x10),
            Uop::load(ArchReg::Ebx, ArchReg::Esi, 0x10),
        ]));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            true,
            true,
            true,
        );
        assert_eq!(r.redundant_loads, 1);
        assert!(!f.slot(1).valid);
    }

    #[test]
    fn same_base_disjoint_disps_do_not_block() {
        // A store to [ESP-8] between [ESP-4] accesses provably does not
        // alias (word distance >= 4): non-speculative forwarding still
        // applies.
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::store(ArchReg::Esp, -8, ArchReg::Ebx),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, -4),
        ]));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            false, // speculation off: must still forward
            true,
            true,
        );
        assert_eq!(r.store_forwards, 1);
        assert_eq!(r.speculative, 0);
        assert_eq!(f.unsafe_store_count(), 0);
    }

    #[test]
    fn unknown_base_blocks_nonspeculative_but_not_speculative() {
        // Store via EDI between the pair: may alias. Distinct x86
        // addresses let the alias profile name the instructions.
        let uops = vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp).at(0x100),
            Uop::store(ArchReg::Edi, 0, ArchReg::Ebx).at(0x105),
            Uop::load(ArchReg::Ecx, ArchReg::Esp, -4).at(0x10a),
        ];
        // Non-speculative: blocked.
        let mut f = OptFrame::from_frame(&mk_frame(uops.clone()));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            false,
            true,
            true,
        );
        assert_eq!(r.store_forwards, 0);
        assert!(f.slot(2).valid);

        // Speculative with a clean profile: forwarded, intervening store
        // marked unsafe.
        let mut f = OptFrame::from_frame(&mk_frame(uops.clone()));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            true,
            true,
            true,
        );
        assert_eq!(r.store_forwards, 1);
        assert_eq!(r.speculative, 1);
        assert_eq!(f.unsafe_store_count(), 1);
        assert!(f.slot(1).unsafe_store);

        // Speculative but the profile recorded an aliasing event between
        // the intervening store and the load: blocked.
        let mut f = OptFrame::from_frame(&mk_frame(uops));
        let mut profile = AliasProfile::new();
        profile.record(0x105, 0x10a);
        let r = memory_opt(&mut f, OptScope::Frame, &profile, true, true, true);
        assert_eq!(
            r.store_forwards, 0,
            "profiled alias forbids the speculation"
        );
        assert_eq!(f.unsafe_store_count(), 0);
    }

    #[test]
    fn sf_and_rle_independently_gated() {
        let uops = vec![
            Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
            Uop::load(ArchReg::Ebx, ArchReg::Esp, -4),
            Uop::load(ArchReg::Ecx, ArchReg::Esi, 8),
            Uop::load(ArchReg::Edx, ArchReg::Esi, 8),
        ];
        // SF off: the store/load pair stays; the load/load pair collapses.
        let mut f = OptFrame::from_frame(&mk_frame(uops.clone()));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            true,
            false,
            true,
        );
        assert_eq!(r.store_forwards, 0);
        assert_eq!(r.redundant_loads, 1);
        // RLE off: only the forward happens.
        let mut f = OptFrame::from_frame(&mk_frame(uops));
        let r = memory_opt(
            &mut f,
            OptScope::Frame,
            &AliasProfile::empty(),
            true,
            true,
            false,
        );
        assert_eq!(r.store_forwards, 1);
        assert_eq!(r.redundant_loads, 0);
    }

    #[test]
    fn dce_keeps_side_effects_and_live_outs() {
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::mov_imm(ArchReg::Et0, 7),             // temp, unused -> dead
            Uop::mov_imm(ArchReg::Eax, 1),             // GPR live-out -> kept
            Uop::store(ArchReg::Esp, 0, ArchReg::Eax), // side effect -> kept
        ]));
        assert_eq!(dce(&mut f, OptScope::Frame), 1);
        assert!(!f.slot(0).valid);
        assert!(f.slot(1).valid);
        assert!(f.slot(2).valid);
    }

    #[test]
    fn dce_cascades_through_chains() {
        // c = a + b; d = c + 1; both dead once nothing reads d. The
        // trailing Cmp holds the frame's exit flags (and itself survives).
        let mut f = OptFrame::from_frame(&mk_frame(vec![
            Uop::alu(Opcode::Add, ArchReg::Et0, ArchReg::Esi, ArchReg::Edi),
            Uop::alu_imm(Opcode::Add, ArchReg::Et1, ArchReg::Et0, 1),
            Uop::cmp_imm(ArchReg::Esi, 0),
        ]));
        assert_eq!(dce(&mut f, OptScope::Frame), 2);
        assert_eq!(f.uop_count(), 1);
    }

    #[test]
    fn block_scope_prevents_cross_block_rewrites() {
        // Two blocks; the second reads the first's ESP update. Block-scope
        // reassociation must not fold across the boundary.
        let frame = Frame {
            block_starts: vec![0, 1],
            ..mk_frame(vec![
                Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
                Uop::load(ArchReg::Eax, ArchReg::Esp, 0),
            ])
        };
        let mut f = OptFrame::from_frame(&frame);
        assert_eq!(reassociate(&mut f, OptScope::Block), 0);
        assert_eq!(f.slot(1).src_a, Some(Src::Slot(0)));
        // Frame scope folds it.
        let mut f = OptFrame::from_frame(&frame);
        assert_eq!(reassociate(&mut f, OptScope::Frame), 1);
        assert_eq!(f.slot(1).src_a, Some(Src::LiveIn(ArchReg::Esp)));
    }

    #[test]
    fn block_scope_dce_keeps_block_live_outs() {
        // EBX is overwritten in block 1, so in frame scope the block-0
        // write is dead; block scope must keep it (it is block 0's GPR
        // output).
        let frame = Frame {
            block_starts: vec![0, 1],
            ..mk_frame(vec![
                Uop::mov_imm(ArchReg::Ebx, 1),
                Uop::mov_imm(ArchReg::Ebx, 2),
            ])
        };
        let mut f = OptFrame::from_frame(&frame);
        assert_eq!(dce(&mut f, OptScope::Frame), 1);
        let mut f = OptFrame::from_frame(&frame);
        assert_eq!(dce(&mut f, OptScope::Block), 0);
    }

    #[test]
    fn inter_block_scope_dce_keeps_non_final_block_live_outs() {
        // The same two blocks: block 0 is not the frame's last block, so
        // its EBX output must survive an exit after it.
        let frame = Frame {
            block_starts: vec![0, 1],
            ..mk_frame(vec![
                Uop::mov_imm(ArchReg::Ebx, 1),
                Uop::mov_imm(ArchReg::Ebx, 2),
            ])
        };
        let mut f = OptFrame::from_frame(&frame);
        assert_eq!(dce(&mut f, OptScope::InterBlock), 0);
        assert!(f.slot(0).valid, "block 0's EBX writer is a block output");
    }

    #[test]
    fn block_scope_memory_table_clears() {
        let frame = Frame {
            block_starts: vec![0, 1],
            ..mk_frame(vec![
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
                Uop::load(ArchReg::Ebx, ArchReg::Esp, -4),
            ])
        };
        let mut f = OptFrame::from_frame(&frame);
        let r = memory_opt(
            &mut f,
            OptScope::Block,
            &AliasProfile::empty(),
            true,
            true,
            true,
        );
        assert_eq!(r.store_forwards, 0, "no forwarding across blocks");
    }
}
