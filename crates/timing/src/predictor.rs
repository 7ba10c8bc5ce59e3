//! Branch prediction: gshare and a BTB.

/// An 18-bit gshare conditional-branch predictor (paper Table 2).
///
/// Global history XORed with the branch PC indexes a table of 2-bit
/// saturating counters.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    history: u32,
    mask: u32,
}

impl Gshare {
    /// Creates a predictor with `bits` of global history (table size
    /// `2^bits` two-bit counters).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 24.
    pub fn new(bits: u32) -> Gshare {
        assert!((1..=24).contains(&bits), "history bits out of range");
        Gshare {
            table: vec![1u8; 1 << bits], // weakly not-taken
            history: 0,
            mask: (1u32 << bits) - 1,
        }
    }

    fn index(&self, pc: u32) -> usize {
        // x86 branch PCs are byte-granular (instructions are variable
        // length), so the low PC bits carry real entropy. A RISC-style
        // `pc >> 2` here would alias branches 1–3 bytes apart onto one
        // counter and systematically inflate the mispredict rate.
        ((pc ^ self.history) & self.mask) as usize
    }

    /// Predicts the branch at `pc`.
    pub fn predict(&self, pc: u32) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Predicts, updates the counter and history with the actual outcome,
    /// and returns `true` if the prediction was correct.
    pub fn predict_and_update(&mut self, pc: u32, taken: bool) -> bool {
        let idx = self.index(pc);
        let predicted = self.table[idx] >= 2;
        let ctr = &mut self.table[idx];
        if taken {
            *ctr = (*ctr + 1).min(3);
        } else {
            *ctr = ctr.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u32) & self.mask;
        predicted == taken
    }
}

/// A direct-mapped branch target buffer for taken and indirect branches.
#[derive(Debug, Clone)]
pub struct Btb {
    entries: Vec<Option<(u32, u32)>>, // (pc, target)
    mask: u32,
}

impl Btb {
    /// Creates a BTB with `2^bits` entries.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 20.
    pub fn new(bits: u32) -> Btb {
        assert!((1..=20).contains(&bits), "BTB bits out of range");
        Btb {
            entries: vec![None; 1 << bits],
            mask: (1u32 << bits) - 1,
        }
    }

    /// Looks up the predicted target for `pc`, then installs `actual`.
    /// Returns `true` if the prediction matched `actual`.
    pub fn predict_and_update(&mut self, pc: u32, actual: u32) -> bool {
        // Byte-granular indexing, as for the gshare table: x86 branches
        // need their low address bits (see `Gshare::index`).
        let idx = (pc & self.mask) as usize;
        let hit = matches!(self.entries[idx], Some((p, t)) if p == pc && t == actual);
        self.entries[idx] = Some((pc, actual));
        hit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_steady_branch() {
        let mut g = Gshare::new(10);
        // Warm up: always taken at one PC. The global history register
        // needs to saturate to all-ones before the steady-state index is
        // trained, so warm up past the history length.
        for _ in 0..24 {
            g.predict_and_update(0x40, true);
        }
        assert!(g.predict(0x40));
        assert!(g.predict_and_update(0x40, true));
    }

    #[test]
    fn learns_an_alternating_pattern_via_history() {
        let mut g = Gshare::new(10);
        // T,N,T,N ... with history the pattern becomes predictable.
        let mut correct_late = 0;
        for i in 0..200 {
            let taken = i % 2 == 0;
            let ok = g.predict_and_update(0x80, taken);
            if i >= 100 && ok {
                correct_late += 1;
            }
        }
        assert!(correct_late >= 95, "late accuracy {correct_late}/100");
    }

    #[test]
    fn btb_learns_targets() {
        let mut b = Btb::new(8);
        assert!(!b.predict_and_update(0x10, 0x100), "cold miss");
        assert!(b.predict_and_update(0x10, 0x100));
        // Target change mispredicts once.
        assert!(!b.predict_and_update(0x10, 0x200));
        assert!(b.predict_and_update(0x10, 0x200));
    }

    #[test]
    fn btb_conflicts_evict() {
        let mut b = Btb::new(1); // 2 entries; pcs 0x0 and 0x8 collide
        b.predict_and_update(0x0, 0x100);
        b.predict_and_update(0x8, 0x200);
        assert!(!b.predict_and_update(0x0, 0x100), "evicted by conflict");
    }

    #[test]
    #[should_panic(expected = "history bits")]
    fn zero_bits_rejected() {
        Gshare::new(0);
    }

    #[test]
    fn nearby_branches_train_independent_counters() {
        // x86 branch PCs are byte-granular: two branches 1–3 bytes apart
        // (same 4-byte word) must train *separate* counters. The old
        // RISC-style `pc >> 2` index aliased them onto one entry, so the
        // neighbor inherited the hot branch's training.
        for delta in [1u32, 2, 3] {
            let mut g = Gshare::new(12);
            for _ in 0..64 {
                g.predict_and_update(0x40A0, true);
            }
            assert!(g.predict(0x40A0), "trained branch predicts taken");
            assert!(
                !g.predict(0x40A0 + delta),
                "branch at +{delta} bytes must not inherit the neighbor's \
                 counter (still weakly not-taken)"
            );
        }
    }

    #[test]
    fn btb_keeps_entries_for_byte_adjacent_branches() {
        // Two taken branches in the same 4-byte word must occupy distinct
        // BTB entries. Under `pc >> 2` indexing, installing the second
        // evicted the first, forcing a target re-miss every alternation.
        for delta in [1u32, 2, 3] {
            let mut b = Btb::new(10);
            b.predict_and_update(0x40A0, 0x100);
            assert!(b.predict_and_update(0x40A0, 0x100), "trained");
            b.predict_and_update(0x40A0 + delta, 0x200);
            assert!(
                b.predict_and_update(0x40A0, 0x100),
                "entry survives a byte-adjacent install at +{delta}"
            );
            assert!(
                b.predict_and_update(0x40A0 + delta, 0x200),
                "and vice versa"
            );
        }
    }
}
