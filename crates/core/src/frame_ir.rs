//! The optimization buffer: a frame in renamed, slot-indexed form.

use crate::ir::{FlagsSrc, Operand, OptUop, Slot, Src};
use replay_frame::{ControlExpectation, Frame, FrameId};
use replay_uop::{ArchReg, Opcode};

/// A frame in the optimizer's renamed representation (§4 of the paper).
///
/// Remapping assigns the uop at buffer slot *m* the physical destination
/// register *m*; no physical register is written twice. Consequently:
///
/// * retrieving the *parent* that produced an operand is an array index
///   (the hardware's Parent Logic),
/// * *children* are found by scanning operand references (the hardware's
///   Dependency List), and
/// * removal is a `valid`-bit clear followed by [`OptFrame::compact`]
///   (the hardware's Cleanup Logic).
///
/// The structure maintains exact use counts for every slot's value and
/// flags results; all mutation goes through methods that keep the counts
/// consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptFrame {
    /// Frame identity (inherited from construction). The simulator's
    /// frame memo reuses one optimized frame for every later identical
    /// construction, so there it names the first of them; nothing in the
    /// simulator reads it.
    pub id: FrameId,
    /// x86 entry address.
    pub start_addr: u32,
    /// Address execution continues at after a clean frame completion.
    pub exit_next: u32,
    /// Addresses of the covered x86 instructions, in path order.
    pub x86_addrs: Vec<u32>,
    /// Uop count at construction time (before any optimization).
    pub orig_uop_count: usize,
    /// Load count at construction time.
    pub orig_load_count: usize,
    pub(crate) slots: Vec<OptUop>,
    pub(crate) block_of: Vec<u16>,
    pub(crate) value_uses: Vec<u32>,
    pub(crate) flags_uses: Vec<u32>,
    /// Number of valid slots, kept in step with every `valid` change.
    pub(crate) valid_count: usize,
    pub(crate) live_out: Vec<(ArchReg, Src)>,
    pub(crate) flags_out: FlagsSrc,
    pub(crate) expectations: Vec<ControlExpectation>,
    pub(crate) spec_loads_removed: u32,
}

impl OptFrame {
    /// Remaps an architectural-register frame into slot-indexed form.
    ///
    /// This is the paper's Remapper: each uop's sources are resolved to
    /// their producer slot (or to a live-in), and its destination becomes
    /// its own slot index. The frame's live-outs are the last writers of
    /// each general-purpose register; uop-level temporaries are dead at
    /// frame exit by construction.
    ///
    /// # Panics
    ///
    /// Panics if the frame holds more than `Slot::MAX` uops.
    pub fn from_frame(frame: &Frame) -> OptFrame {
        assert!(
            frame.uops.len() <= Slot::MAX as usize,
            "frame exceeds optimization buffer"
        );
        let mut rename: [Src; replay_uop::NUM_ARCH_REGS] =
            std::array::from_fn(|i| Src::LiveIn(ArchReg::from_index(i).expect("index in range")));
        let mut flags = FlagsSrc::LiveIn;
        let mut slots = Vec::with_capacity(frame.uops.len());
        let mut block_of = Vec::with_capacity(frame.uops.len());

        for (i, u) in frame.uops.iter().enumerate() {
            let lookup = |r: Option<ArchReg>| r.map(|r| rename[r.index()]);
            // Shifts preserve prior flag state in two cases and are then
            // flags *readers* as well as writers: a masked count of zero
            // passes every flag through (x86 no-op semantics), and a
            // masked count greater than one carries the prior OF through
            // (architecturally undefined, modeled as preserved). Only an
            // immediate count that masks to exactly 1 fully defines the
            // output flags from the operands alone.
            let shift_may_preserve = u.writes_flags
                && matches!(u.op, Opcode::Shl | Opcode::Shr | Opcode::Sar)
                && (u.src_b.is_some() || (u.imm as u32) & 31 != 1);
            let reads_flags = matches!(u.op, Opcode::Br | Opcode::Assert) || shift_may_preserve;
            let opt = OptUop {
                op: u.op,
                src_a: lookup(u.src_a),
                src_b: lookup(u.src_b),
                imm: u.imm,
                scale: u.scale,
                cc: u.cc,
                dst_arch: u.dst,
                writes_flags: u.writes_flags,
                flags_src: reads_flags.then_some(flags),
                target: u.target,
                x86_addr: u.x86_addr,
                valid: true,
                unsafe_store: false,
            };
            if let Some(d) = u.dst {
                rename[d.index()] = Src::Slot(i as Slot);
            }
            if u.writes_flags {
                flags = FlagsSrc::Slot(i as Slot);
            }
            slots.push(opt);
            block_of.push(frame.block_of(i) as u16);
        }

        let live_out: Vec<(ArchReg, Src)> = ArchReg::GPRS
            .iter()
            .map(|&r| (r, rename[r.index()]))
            .collect();

        let orig_load_count = slots.iter().filter(|u| u.is_load()).count();
        let mut f = OptFrame {
            id: frame.id,
            start_addr: frame.start_addr,
            exit_next: frame.exit_next,
            x86_addrs: frame.x86_addrs.clone(),
            orig_uop_count: frame.orig_uop_count,
            orig_load_count,
            slots,
            block_of,
            value_uses: Vec::new(),
            flags_uses: Vec::new(),
            valid_count: 0,
            live_out,
            flags_out: flags,
            expectations: frame.expectations.clone(),
            spec_loads_removed: 0,
        };
        f.rebuild_use_counts();
        f
    }

    /// Recomputes the use counts and the valid-slot count from scratch.
    pub(crate) fn rebuild_use_counts(&mut self) {
        self.value_uses.clear();
        self.value_uses.resize(self.slots.len(), 0);
        self.flags_uses.clear();
        self.flags_uses.resize(self.slots.len(), 0);
        self.valid_count = 0;
        for u in &self.slots {
            if !u.valid {
                continue;
            }
            self.valid_count += 1;
            for src in [u.src_a, u.src_b].into_iter().flatten() {
                if let Src::Slot(s) = src {
                    self.value_uses[s as usize] += 1;
                }
            }
            if let Some(FlagsSrc::Slot(s)) = u.flags_src {
                self.flags_uses[s as usize] += 1;
            }
        }
        for &(_, src) in &self.live_out {
            if let Src::Slot(s) = src {
                self.value_uses[s as usize] += 1;
            }
        }
        if let FlagsSrc::Slot(s) = self.flags_out {
            self.flags_uses[s as usize] += 1;
        }
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Total slots in the buffer (including invalidated ones).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if the buffer holds no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of valid (not removed) uops.
    pub fn uop_count(&self) -> usize {
        self.valid_count
    }

    /// Number of valid load uops.
    pub fn load_count(&self) -> usize {
        self.slots.iter().filter(|u| u.valid && u.is_load()).count()
    }

    /// Number of x86 instructions the frame covers.
    pub fn x86_count(&self) -> usize {
        self.x86_addrs.len()
    }

    /// The uop at a slot.
    pub fn slot(&self, s: Slot) -> &OptUop {
        &self.slots[s as usize]
    }

    /// All slots with their indices (valid and invalid).
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &OptUop)> {
        self.slots.iter().enumerate().map(|(i, u)| (i as Slot, u))
    }

    /// Valid slots with their indices, in program order.
    pub fn iter_valid(&self) -> impl Iterator<Item = (Slot, &OptUop)> {
        self.iter().filter(|(_, u)| u.valid)
    }

    /// How many valid operand references read slot `s`'s value (including
    /// live-out references).
    pub fn value_uses(&self, s: Slot) -> u32 {
        self.value_uses[s as usize]
    }

    /// How many valid uops (or the frame's flags-out) read slot `s`'s flags.
    pub fn flags_uses(&self, s: Slot) -> u32 {
        self.flags_uses[s as usize]
    }

    /// The basic-block index of a slot.
    pub fn block_of(&self, s: Slot) -> u16 {
        self.block_of[s as usize]
    }

    /// Number of basic blocks in the frame.
    pub fn block_count(&self) -> usize {
        self.block_of.last().map_or(0, |&b| b as usize + 1)
    }

    /// The frame's architectural live-out bindings (each GPR's value source
    /// at frame exit).
    pub fn live_out(&self) -> &[(ArchReg, Src)] {
        &self.live_out
    }

    /// The frame's flags binding at exit.
    pub fn flags_out(&self) -> FlagsSrc {
        self.flags_out
    }

    /// The control expectations (assert slots) of the frame.
    pub fn expectations(&self) -> &[ControlExpectation] {
        &self.expectations
    }

    /// Finds the valid uops that consume slot `s`'s value, with the operand
    /// position of each use (the hardware's Next-Child iteration).
    pub fn value_users(&self, s: Slot) -> Vec<(Slot, Operand)> {
        let mut out = Vec::new();
        for (i, u) in self.iter_valid() {
            if u.src_a == Some(Src::Slot(s)) {
                out.push((i, Operand::A));
            }
            if u.src_b == Some(Src::Slot(s)) {
                out.push((i, Operand::B));
            }
        }
        out
    }

    /// Loads removed speculatively (across may-alias stores) so far.
    pub fn spec_loads_removed(&self) -> u32 {
        self.spec_loads_removed
    }

    /// Number of valid unsafe stores.
    pub fn unsafe_store_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|u| u.valid && u.unsafe_store)
            .count()
    }

    // ------------------------------------------------------------------
    // Mutation (all maintain use counts)
    // ------------------------------------------------------------------

    fn retain_src(&mut self, src: Option<Src>) {
        if let Some(Src::Slot(s)) = src {
            self.value_uses[s as usize] += 1;
        }
    }

    fn release_src(&mut self, src: Option<Src>) {
        if let Some(Src::Slot(s)) = src {
            debug_assert!(self.value_uses[s as usize] > 0, "use-count underflow");
            self.value_uses[s as usize] -= 1;
        }
    }

    /// Rewrites one operand of a uop.
    pub fn rewrite_operand(&mut self, slot: Slot, which: Operand, new: Option<Src>) {
        let old = self.slots[slot as usize].operand(which);
        self.release_src(old);
        self.retain_src(new);
        self.slots[slot as usize].set_operand(which, new);
    }

    /// Rewrites one operand and the immediate together (reassociation).
    pub fn rewrite_operand_imm(&mut self, slot: Slot, which: Operand, new: Option<Src>, imm: i32) {
        self.rewrite_operand(slot, which, new);
        self.slots[slot as usize].imm = imm;
    }

    /// Rewrites a uop's flags dependency.
    pub fn rewrite_flags_src(&mut self, slot: Slot, new: Option<FlagsSrc>) {
        if let Some(FlagsSrc::Slot(s)) = self.slots[slot as usize].flags_src {
            debug_assert!(self.flags_uses[s as usize] > 0, "flags-use underflow");
            self.flags_uses[s as usize] -= 1;
        }
        if let Some(FlagsSrc::Slot(s)) = new {
            self.flags_uses[s as usize] += 1;
        }
        self.slots[slot as usize].flags_src = new;
    }

    /// Redirects every value use of slot `from` (operands and live-outs) to
    /// `to`. Returns the number of rewritten references.
    ///
    /// Renamed consumers always follow their producer (`validate` checks
    /// it), so only the slots after `from` are scanned, and the scan stops
    /// as soon as `from` has no uses left.
    pub fn redirect_value_uses(&mut self, from: Slot, to: Src) -> usize {
        let mut rewritten = 0;
        for idx in 0..self.live_out.len() {
            if self.live_out[idx].1 == Src::Slot(from) {
                self.live_out[idx].1 = to;
                self.value_uses[from as usize] -= 1;
                if let Src::Slot(s) = to {
                    self.value_uses[s as usize] += 1;
                }
                rewritten += 1;
            }
        }
        for i in from as usize + 1..self.slots.len() {
            if self.value_uses[from as usize] == 0 {
                break;
            }
            if !self.slots[i].valid {
                continue;
            }
            for which in [Operand::A, Operand::B] {
                if self.slots[i].operand(which) == Some(Src::Slot(from)) {
                    self.rewrite_operand(i as Slot, which, Some(to));
                    rewritten += 1;
                }
            }
        }
        rewritten
    }

    /// Invalidates (removes) a uop, releasing its input references.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the slot's value or flags results still
    /// have consumers — callers must redirect uses first.
    pub fn invalidate(&mut self, slot: Slot) {
        let i = slot as usize;
        debug_assert!(self.slots[i].valid, "double invalidation of slot {slot}");
        debug_assert_eq!(self.value_uses[i], 0, "slot {slot} value still used");
        debug_assert!(
            !self.slots[i].writes_flags || self.flags_uses[i] == 0,
            "slot {slot} flags still used"
        );
        let (a, b, fs) = {
            let u = &self.slots[i];
            (u.src_a, u.src_b, u.flags_src)
        };
        self.release_src(a);
        self.release_src(b);
        if let Some(FlagsSrc::Slot(s)) = fs {
            self.flags_uses[s as usize] -= 1;
        }
        let u = &mut self.slots[i];
        u.valid = false;
        u.src_a = None;
        u.src_b = None;
        u.flags_src = None;
        self.valid_count -= 1;
    }

    /// Replaces a uop with `MovImm value`, releasing its old inputs. The
    /// architectural destination is preserved. Used by constant propagation.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the uop's flags result is still consumed
    /// (folding would lose the flags).
    pub fn replace_with_const(&mut self, slot: Slot, value: i32) {
        let i = slot as usize;
        debug_assert!(
            !self.slots[i].writes_flags || self.flags_uses[i] == 0,
            "cannot fold a uop whose flags are consumed"
        );
        let (a, b, fs) = {
            let u = &self.slots[i];
            (u.src_a, u.src_b, u.flags_src)
        };
        self.release_src(a);
        self.release_src(b);
        if let Some(FlagsSrc::Slot(s)) = fs {
            self.flags_uses[s as usize] -= 1;
        }
        let u = &mut self.slots[i];
        u.op = Opcode::MovImm;
        u.src_a = None;
        u.src_b = None;
        u.flags_src = None;
        u.imm = value;
        u.scale = 1;
        u.writes_flags = false;
        u.cc = None;
    }

    /// Fuses an `Assert` with the `Cmp`/`Test` producing its flags into a
    /// single `AssertCmp`/`AssertTest` uop (the value-assertion
    /// optimization). The compare uop itself is left in place for dead-code
    /// elimination to collect if nothing else consumes its flags.
    ///
    /// # Panics
    ///
    /// Panics if `assert_slot` is not an `Assert` or `cmp_slot` is not a
    /// `Cmp`/`Test`.
    pub fn fuse_assert(&mut self, assert_slot: Slot, cmp_slot: Slot) {
        let cmp = self.slots[cmp_slot as usize].clone();
        assert!(
            matches!(cmp.op, Opcode::Cmp | Opcode::Test),
            "fusion source must be Cmp/Test"
        );
        assert_eq!(
            self.slots[assert_slot as usize].op,
            Opcode::Assert,
            "fusion target must be Assert"
        );
        // Stop reading the compare's flags; start reading its operands.
        self.rewrite_flags_src(assert_slot, None);
        self.retain_src(cmp.src_a);
        self.retain_src(cmp.src_b);
        let u = &mut self.slots[assert_slot as usize];
        u.op = if cmp.op == Opcode::Cmp {
            Opcode::AssertCmp
        } else {
            Opcode::AssertTest
        };
        u.src_a = cmp.src_a;
        u.src_b = cmp.src_b;
        u.imm = cmp.imm;
    }

    /// Marks a store as unsafe (speculative memory optimization, §3.4).
    pub fn mark_unsafe_store(&mut self, slot: Slot) {
        debug_assert!(self.slots[slot as usize].is_store());
        self.slots[slot as usize].unsafe_store = true;
    }

    /// Records that a load was removed speculatively (for statistics).
    pub fn note_speculative_removal(&mut self) {
        self.spec_loads_removed += 1;
    }

    /// Removes the control expectation anchored at `slot` (used when
    /// constant propagation proves an assertion can never fire).
    pub fn remove_expectation_at(&mut self, slot: Slot) {
        self.expectations.retain(|e| e.uop_index != slot as usize);
    }

    /// Compacts the buffer: drops invalidated slots, renumbers the
    /// survivors, and rewrites every slot reference (operands, flags,
    /// live-outs, expectations, block map). This is the Cleanup Logic of
    /// the optimizer datapath.
    pub fn compact(&mut self) {
        let mut new_index = vec![None::<Slot>; self.slots.len()];
        let mut next = 0 as Slot;
        for (i, u) in self.slots.iter().enumerate() {
            if u.valid {
                new_index[i] = Some(next);
                next += 1;
            }
        }
        let remap_src = |src: Option<Src>| -> Option<Src> {
            src.map(|s| match s {
                Src::Slot(old) => {
                    Src::Slot(new_index[old as usize].expect("reference to removed slot"))
                }
                live_in => live_in,
            })
        };

        let mut slots = Vec::with_capacity(next as usize);
        let mut block_of = Vec::with_capacity(next as usize);
        for (i, mut u) in std::mem::take(&mut self.slots).into_iter().enumerate() {
            if !u.valid {
                continue;
            }
            u.src_a = remap_src(u.src_a);
            u.src_b = remap_src(u.src_b);
            u.flags_src = u.flags_src.map(|fs| match fs {
                FlagsSrc::Slot(old) => {
                    FlagsSrc::Slot(new_index[old as usize].expect("flags ref to removed slot"))
                }
                FlagsSrc::LiveIn => FlagsSrc::LiveIn,
            });
            slots.push(u);
            block_of.push(self.block_of[i]);
        }
        self.slots = slots;
        self.block_of = block_of;

        for entry in &mut self.live_out {
            if let Src::Slot(old) = entry.1 {
                entry.1 = Src::Slot(new_index[old as usize].expect("live-out ref removed"));
            }
        }
        if let FlagsSrc::Slot(old) = self.flags_out {
            self.flags_out = FlagsSrc::Slot(new_index[old as usize].expect("flags-out removed"));
        }
        self.expectations.retain_mut(|e| {
            match new_index.get(e.uop_index).copied().flatten() {
                Some(n) => {
                    e.uop_index = n as usize;
                    true
                }
                // The assertion was proven redundant and removed.
                None => false,
            }
        });
        self.rebuild_use_counts();
    }

    /// Reorders the (compacted) buffer according to `order`, a permutation
    /// given as new-position → old-slot. All slot references (operands,
    /// flags, live-outs, expectations, block map) are rewritten. This is
    /// the Cleanup Logic's position-field readout (§4).
    ///
    /// # Panics
    ///
    /// Panics if the buffer has invalidated slots, `order` is not a
    /// permutation of `0..len`, or the new order would place a consumer
    /// before its producer.
    pub fn permute(&mut self, order: &[Slot]) {
        assert_eq!(order.len(), self.slots.len(), "order must cover the buffer");
        assert!(
            self.slots.iter().all(|u| u.valid),
            "permute requires compaction"
        );
        let mut new_index = vec![usize::MAX; self.slots.len()];
        for (pos, &old) in order.iter().enumerate() {
            assert_eq!(
                new_index[old as usize],
                usize::MAX,
                "order must be a permutation"
            );
            new_index[old as usize] = pos;
        }
        let remap_src = |src: Option<Src>| {
            src.map(|s| match s {
                Src::Slot(old) => Src::Slot(new_index[old as usize] as Slot),
                live_in => live_in,
            })
        };
        let old_slots = std::mem::take(&mut self.slots);
        let old_blocks = std::mem::take(&mut self.block_of);
        let mut slots = Vec::with_capacity(old_slots.len());
        let mut block_of = Vec::with_capacity(old_blocks.len());
        let mut by_old: Vec<Option<OptUop>> = old_slots.into_iter().map(Some).collect();
        for (pos, &old) in order.iter().enumerate() {
            let mut u = by_old[old as usize].take().expect("permutation");
            u.src_a = remap_src(u.src_a);
            u.src_b = remap_src(u.src_b);
            u.flags_src = u.flags_src.map(|fs| match fs {
                FlagsSrc::Slot(old) => FlagsSrc::Slot(new_index[old as usize] as Slot),
                FlagsSrc::LiveIn => FlagsSrc::LiveIn,
            });
            // Dataflow sanity: producers precede consumers.
            for src in [u.src_a, u.src_b].into_iter().flatten() {
                if let Src::Slot(p) = src {
                    assert!((p as usize) < pos, "consumer before producer");
                }
            }
            if let Some(FlagsSrc::Slot(p)) = u.flags_src {
                assert!((p as usize) < pos, "flags consumer before producer");
            }
            slots.push(u);
            block_of.push(old_blocks[old as usize]);
        }
        self.slots = slots;
        self.block_of = block_of;
        for entry in &mut self.live_out {
            if let Src::Slot(old) = entry.1 {
                entry.1 = Src::Slot(new_index[old as usize] as Slot);
            }
        }
        if let FlagsSrc::Slot(old) = self.flags_out {
            self.flags_out = FlagsSrc::Slot(new_index[old as usize] as Slot);
        }
        for e in &mut self.expectations {
            e.uop_index = new_index[e.uop_index];
        }
        self.rebuild_use_counts();
    }

    /// Checks the structure's internal invariants, returning a description
    /// of the first violation. Used by the property-test suites and useful
    /// when developing new passes.
    ///
    /// Invariants checked:
    /// * every operand/flags reference points at a valid *earlier* slot;
    /// * referenced producers actually produce the consumed result
    ///   (a value reference targets a slot with a destination; a flags
    ///   reference targets a flags writer);
    /// * use counts and the valid-uop count equal a fresh recount;
    /// * live-outs and expectations reference valid slots.
    pub fn validate(&self) -> Result<(), String> {
        for (i, u) in self.iter() {
            if !u.valid {
                continue;
            }
            for (which, src) in [("A", u.src_a), ("B", u.src_b)] {
                if let Some(Src::Slot(p)) = src {
                    let p_us = p as usize;
                    if p_us >= self.slots.len() {
                        return Err(format!("slot {i}: src{which} out of range"));
                    }
                    if p >= i {
                        return Err(format!("slot {i}: src{which} is not earlier ({p})"));
                    }
                    if !self.slots[p_us].valid {
                        return Err(format!("slot {i}: src{which} references removed slot {p}"));
                    }
                    if self.slots[p_us].dst_arch.is_none() {
                        return Err(format!(
                            "slot {i}: src{which} references slot {p} which has no value result"
                        ));
                    }
                }
            }
            if let Some(FlagsSrc::Slot(p)) = u.flags_src {
                if p >= i || !self.slots[p as usize].valid {
                    return Err(format!("slot {i}: bad flags reference {p}"));
                }
                if !self.slots[p as usize].writes_flags {
                    return Err(format!("slot {i}: flags ref {p} does not write flags"));
                }
            }
        }
        for &(r, src) in &self.live_out {
            if let Src::Slot(p) = src {
                let p = p as usize;
                if p >= self.slots.len() || !self.slots[p].valid {
                    return Err(format!("live-out {r} references bad slot {p}"));
                }
            }
        }
        if let FlagsSrc::Slot(p) = self.flags_out {
            if p as usize >= self.slots.len() || !self.slots[p as usize].valid {
                return Err(format!("flags-out references bad slot {p}"));
            }
        }
        for e in &self.expectations {
            match self.slots.get(e.uop_index) {
                Some(u) if u.valid && u.op.is_assert() => {}
                _ => {
                    return Err(format!(
                        "expectation at {} is not a live assert",
                        e.uop_index
                    ))
                }
            }
        }
        // Use-count audit.
        let mut clone = self.clone();
        clone.rebuild_use_counts();
        if clone.value_uses != self.value_uses {
            return Err("value use counts drifted".into());
        }
        if clone.flags_uses != self.flags_uses {
            return Err("flags use counts drifted".into());
        }
        if clone.valid_count != self.valid_count {
            return Err(format!(
                "valid-uop count drifted: cached {}, recounted {}",
                self.valid_count, clone.valid_count
            ));
        }
        Ok(())
    }

    /// Renders the buffer one slot per line for debugging.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for (i, u) in self.iter() {
            let _ = writeln!(s, "{i:3} [b{}] {u}", self.block_of(i));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_uop::{Cond, Uop};

    /// Frame used in most tests, modeled on the paper's Figure 2 prologue:
    ///
    /// ```text
    /// 0: [ESP-4] <- EBP        (PUSH EBP store)
    /// 1: ESP <- ESP - 4        (PUSH EBP update)
    /// 2: [ESP-4] <- EBX        (PUSH EBX store)
    /// 3: ESP <- ESP - 4        (PUSH EBX update)
    /// 4: ECX <- [ESP + 0xC]
    /// 5: EAX <- 0
    /// 6: flags <- cmp EAX, 0
    /// 7: assert Z
    /// ```
    fn paper_frame() -> Frame {
        let mut cmp = Uop::cmp_imm(ArchReg::Eax, 0);
        cmp.x86_addr = 0x6;
        Frame {
            id: FrameId(7),
            start_addr: 0x1000,
            uops: vec![
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
                Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebx),
                Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
                Uop::load(ArchReg::Ecx, ArchReg::Esp, 0xc),
                Uop::mov_imm(ArchReg::Eax, 0),
                cmp,
                Uop::assert_cc(Cond::Eq),
            ],
            x86_addrs: vec![0x1000, 0x1001, 0x1004, 0x1006],
            block_starts: vec![0, 7],
            expectations: vec![ControlExpectation {
                x86_addr: 0x1006,
                expected_next: 0x1010,
                uop_index: 7,
            }],
            exit_next: 0x1010,
            orig_uop_count: 8,
        }
    }

    #[test]
    fn remap_resolves_producers() {
        let f = OptFrame::from_frame(&paper_frame());
        // Slot 2's store base is slot 1 (first ESP update).
        assert_eq!(f.slot(2).src_a, Some(Src::Slot(1)));
        // Slot 0's base is the live-in ESP.
        assert_eq!(f.slot(0).src_a, Some(Src::LiveIn(ArchReg::Esp)));
        // The assert reads the Cmp's flags.
        assert_eq!(f.slot(7).flags_src, Some(FlagsSrc::Slot(6)));
        // Live-outs: ESP comes from slot 3, EAX from slot 5, ECX from 4.
        let lo: std::collections::HashMap<_, _> = f.live_out().iter().copied().collect();
        assert_eq!(lo[&ArchReg::Esp], Src::Slot(3));
        assert_eq!(lo[&ArchReg::Eax], Src::Slot(5));
        assert_eq!(lo[&ArchReg::Ecx], Src::Slot(4));
        assert_eq!(lo[&ArchReg::Edi], Src::LiveIn(ArchReg::Edi));
    }

    #[test]
    fn use_counts_track_consumers() {
        let f = OptFrame::from_frame(&paper_frame());
        // Slot 1 (ESP-4) is used by: slot 2 store base, slot 3 lea. Not
        // live-out (slot 3 supersedes).
        assert_eq!(f.value_uses(1), 2);
        // Slot 3 is used by slot 4 load base and ESP live-out.
        assert_eq!(f.value_uses(3), 2);
        // Cmp flags used twice: the assert, and the frame's flags-out
        // (the Cmp is the last flags writer).
        assert_eq!(f.flags_uses(6), 2);
        // Store produces nothing.
        assert_eq!(f.value_uses(0), 0);
    }

    #[test]
    fn redirect_and_invalidate() {
        let mut f = OptFrame::from_frame(&paper_frame());
        // Redirect users of slot 1 to read ESP live-in (as reassociation
        // would, after folding the -4 into their displacements).
        let n = f.redirect_value_uses(1, Src::LiveIn(ArchReg::Esp));
        assert_eq!(n, 2);
        assert_eq!(f.value_uses(1), 0);
        f.invalidate(1);
        assert_eq!(f.uop_count(), 7);
        assert!(!f.slot(1).valid);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "value still used")]
    fn invalidate_with_users_panics() {
        let mut f = OptFrame::from_frame(&paper_frame());
        f.invalidate(1); // slot 1 still feeds slots 2 and 3
    }

    #[test]
    fn fuse_assert_rewrites_to_assert_cmp() {
        let mut f = OptFrame::from_frame(&paper_frame());
        f.fuse_assert(7, 6);
        let a = f.slot(7);
        assert_eq!(a.op, Opcode::AssertCmp);
        assert_eq!(a.src_a, Some(Src::Slot(5)), "reads the Cmp's operand");
        assert_eq!(a.flags_src, None);
        // The Cmp's flags keep one consumer: the frame's flags-out.
        assert_eq!(f.flags_uses(6), 1);
        // Slot 5's value gained a use (Cmp + EAX live-out + fused assert).
        assert_eq!(f.value_uses(5), 3);
    }

    #[test]
    fn replace_with_const_releases_inputs() {
        let mut f = OptFrame::from_frame(&paper_frame());
        // Pretend constant propagation proved slot 1 = ESP0 - 4 ... it
        // cannot (ESP is live-in), so use slot 5 (eax=0) -> fold nothing.
        // Instead fold slot 5 itself is already MovImm; fold slot 1 to a
        // constant to exercise the bookkeeping.
        let before = f.value_uses(3);
        f.replace_with_const(1, 0x7ff0);
        assert_eq!(f.slot(1).op, Opcode::MovImm);
        assert_eq!(f.slot(1).imm, 0x7ff0);
        assert_eq!(f.value_uses(3), before);
        // Slot 1 no longer reads ESP live-in; its consumers are unchanged.
        assert_eq!(f.value_uses(1), 2);
    }

    #[test]
    fn compact_renumbers_everything() {
        let mut f = OptFrame::from_frame(&paper_frame());
        f.fuse_assert(7, 6);
        // The Cmp (slot 6) survives — it is the frame's flags-out — but
        // slot 1 can go once its users are redirected.
        f.redirect_value_uses(1, Src::LiveIn(ArchReg::Esp));
        f.invalidate(1);
        f.compact();
        assert_eq!(f.len(), 7);
        assert!(f.iter().all(|(_, u)| u.valid));
        // Old slot 7 (assert) is now the last slot; expectation follows it.
        assert_eq!(f.expectations().len(), 1);
        assert_eq!(f.expectations()[0].uop_index, 6);
        // Live-out ESP now points at the compacted position of old slot 3.
        let lo: std::collections::HashMap<_, _> = f.live_out().iter().copied().collect();
        assert_eq!(lo[&ArchReg::Esp], Src::Slot(2));
        // Use counts still consistent.
        assert_eq!(f.value_uses(2), 2);
        // Flags-out follows the Cmp to its new index.
        assert_eq!(f.flags_out(), FlagsSrc::Slot(5));
    }

    #[test]
    fn removed_expectations_disappear_on_compact() {
        let mut f = OptFrame::from_frame(&paper_frame());
        f.fuse_assert(7, 6);
        // Drop the assert entirely (as constant propagation would when the
        // assertion is provably true).
        f.remove_expectation_at(7);
        // AssertCmp consumes slot 5; release by invalidating.
        f.invalidate(7);
        f.compact();
        assert!(f.expectations().is_empty());
    }

    #[test]
    fn block_map_survives_compaction() {
        let mut f = OptFrame::from_frame(&paper_frame());
        assert_eq!(f.block_count(), 2);
        assert_eq!(f.block_of(7), 1);
        f.redirect_value_uses(1, Src::LiveIn(ArchReg::Esp));
        f.invalidate(1);
        f.compact();
        assert_eq!(f.block_count(), 2);
        // The assert (now slot 6) is still in block 1.
        assert_eq!(f.block_of(6), 1);
    }

    #[test]
    fn validate_accepts_all_stages() {
        let mut f = OptFrame::from_frame(&paper_frame());
        f.validate().expect("fresh remap is valid");
        f.fuse_assert(7, 6);
        f.validate().expect("after fusion");
        f.redirect_value_uses(1, Src::LiveIn(ArchReg::Esp));
        f.invalidate(1);
        f.validate().expect("after removal");
        f.compact();
        f.validate().expect("after compaction");
    }

    #[test]
    fn value_users_enumerates_children() {
        let f = OptFrame::from_frame(&paper_frame());
        let users = f.value_users(1);
        assert_eq!(users.len(), 2);
        assert!(users.contains(&(2, Operand::A)));
        assert!(users.contains(&(3, Operand::A)));
    }
}
