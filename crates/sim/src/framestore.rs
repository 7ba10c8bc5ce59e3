//! Reuse of *optimization results* within a run: an exact memo ahead of
//! the optimizer.
//!
//! Optimizing a frame is a pure function of three inputs: the constructed
//! frame itself (every field but its construction-order `id`), the
//! optimizer configuration, and the alias-profile facts the memory pass
//! can query (the `aliased()` relation restricted to the frame's memory
//! uops — the optimizer's single profile query site). This module owns the
//! rule for when a result computed earlier may stand in for running the
//! passes.
//!
//! [`FrameMemo`] keeps the result for each distinct frame a `simulate()`
//! call has built. Loops rebuild the same region over and over, so most
//! frames equal one built earlier in the same run; those reuse its
//! `(Arc<OptFrame>, OptStats)` instead of running the passes (RPO) or the
//! remapper (RP). A hit needs exact equality of the frame, so no digest
//! collision can return a wrong result, and an alias pair learned since
//! the entry was last validated, with both ends among the frame's memory
//! instructions, makes the entry stale. The memo is bounded and belongs to
//! one run, so `simulate` stays a pure function of its inputs.
//!
//! Nothing here outlives the run, as in the paper, where the optimizer is
//! a datapath feeding the frame cache. The trace's own loops supply the
//! reuse, so no optimized frame is kept across runs.

use replay_core::{AliasProfile, OptFrame, OptStats};
use replay_frame::Frame;
use std::sync::Arc;

/// Most variants [`FrameMemo`] keeps per frame entry point.
const MEMO_VARIANTS: usize = 4;

/// One memoized result and what it was computed from.
#[derive(Debug)]
struct MemoEntry {
    /// The constructed frame the result belongs to; its `id` is ignored.
    frame: Frame,
    /// Sorted, deduplicated x86 addresses of the frame's memory uops: the
    /// only addresses whose alias pairs the optimizer can observe.
    mem_addrs: Vec<u32>,
    /// Alias-profile epoch up to which the result is known to be valid.
    epoch: usize,
    result: (Arc<OptFrame>, OptStats),
}

/// True if `a` and `b` are the same frame apart from their
/// construction-order ids. Destructuring makes a new `Frame` field a
/// compile error here until this rule decides whether it matters.
fn same_frame(a: &Frame, b: &Frame) -> bool {
    let Frame {
        id: _,
        start_addr,
        uops,
        x86_addrs,
        block_starts,
        expectations,
        exit_next,
        orig_uop_count,
    } = a;
    *start_addr == b.start_addr
        && *exit_next == b.exit_next
        && *orig_uop_count == b.orig_uop_count
        && *x86_addrs == b.x86_addrs
        && *expectations == b.expectations
        && *block_starts == b.block_starts
        && *uops == b.uops
}

/// The in-run memo of optimization results, one per `simulate()` call.
///
/// Entries are bucketed by the caller's dense key for the frame's entry
/// address (its static-instruction id), most recently used first, at most
/// [`MEMO_VARIANTS`] per bucket. A hit requires [`same_frame`], and the
/// alias pairs learned since the entry was last validated must not join
/// two of its memory instructions. The frame uops held are bounded by
/// `cap_uops`; an insert that would exceed it empties the memo first.
#[derive(Debug)]
pub(crate) struct FrameMemo {
    buckets: Vec<Vec<MemoEntry>>,
    uops: usize,
    cap_uops: usize,
}

impl FrameMemo {
    /// An empty memo holding at most `cap_uops` frame uops.
    pub fn new(cap_uops: usize) -> FrameMemo {
        FrameMemo {
            buckets: Vec::new(),
            uops: 0,
            cap_uops,
        }
    }

    /// The result memoized for `frame` entered at `key`, if it is still
    /// exact under `profile`. A stale entry is dropped.
    pub fn get(
        &mut self,
        key: u32,
        frame: &Frame,
        profile: &AliasProfile,
    ) -> Option<(Arc<OptFrame>, OptStats)> {
        let bucket = self.buckets.get_mut(key as usize)?;
        let pos = bucket.iter().position(|e| same_frame(&e.frame, frame))?;
        let entry = &mut bucket[pos];
        if entry.epoch < profile.epoch() {
            let touches = |a: u32| entry.mem_addrs.binary_search(&a).is_ok();
            let stale = profile
                .pairs_since(entry.epoch)
                .iter()
                .any(|&(a, b)| touches(a) && touches(b));
            if stale {
                self.uops -= bucket.remove(pos).frame.uops.len();
                return None;
            }
            entry.epoch = profile.epoch();
        }
        bucket[..=pos].rotate_right(1);
        let (opt, stats) = &bucket[0].result;
        Some((Arc::clone(opt), *stats))
    }

    /// Memoizes the result computed for `frame` under `profile`'s current
    /// state, evicting the bucket's least recently used variant if full.
    pub fn insert(
        &mut self,
        key: u32,
        frame: Frame,
        profile: &AliasProfile,
        result: (Arc<OptFrame>, OptStats),
    ) {
        let cost = frame.uops.len();
        if self.uops + cost > self.cap_uops {
            self.buckets.clear();
            self.uops = 0;
            if cost > self.cap_uops {
                return;
            }
        }
        let key = key as usize;
        if self.buckets.len() <= key {
            self.buckets.resize_with(key + 1, Vec::new);
        }
        let bucket = &mut self.buckets[key];
        if bucket.len() == MEMO_VARIANTS {
            let lru = bucket.pop().expect("bucket is full");
            self.uops -= lru.frame.uops.len();
        }
        let mut mem_addrs: Vec<u32> = frame
            .uops
            .iter()
            .filter(|u| u.is_load() || u.is_store())
            .map(|u| u.x86_addr)
            .collect();
        mem_addrs.sort_unstable();
        mem_addrs.dedup();
        bucket.insert(
            0,
            MemoEntry {
                frame,
                mem_addrs,
                epoch: profile.epoch(),
                result,
            },
        );
        self.uops += cost;
    }

    /// Panics unless a result [`FrameMemo::get`] returned equals `fresh`,
    /// the same frame's result recomputed from scratch: frame (use counts
    /// included) and statistics must be equal, ids aside. Debug builds run
    /// this on every hit.
    #[cfg(debug_assertions)]
    pub fn assert_exact(hit: &(Arc<OptFrame>, OptStats), fresh: (OptFrame, OptStats)) {
        let (mut fresh_frame, fresh_stats) = fresh;
        fresh_frame.id = hit.0.id;
        assert!(
            *hit.0 == fresh_frame && hit.1 == fresh_stats,
            "frame memo result for the frame at {:#x} differs from a fresh one",
            fresh_frame.start_addr
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_core::{optimize, OptConfig};
    use replay_frame::FrameId;
    use replay_uop::{ArchReg, Uop};

    /// A frame entered at 0x400 with two stores and a load, each its own
    /// x86 instruction, and one control expectation.
    fn memo_frame() -> Frame {
        use replay_frame::ControlExpectation;
        Frame {
            id: FrameId(1),
            start_addr: 0x400,
            uops: vec![
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebp).at(0x400),
                Uop::store(ArchReg::Esi, 0, ArchReg::Ecx).at(0x402),
                Uop::load(ArchReg::Ebx, ArchReg::Esp, -4).at(0x404),
            ],
            x86_addrs: vec![0x400, 0x402, 0x404],
            block_starts: vec![0],
            expectations: vec![ControlExpectation {
                x86_addr: 0x404,
                expected_next: 0x408,
                uop_index: 2,
            }],
            exit_next: 0x500,
            orig_uop_count: 3,
        }
    }

    fn optimized(frame: &Frame, profile: &AliasProfile) -> (Arc<OptFrame>, OptStats) {
        let (opt, stats) = optimize(frame, profile, &OptConfig::default());
        (Arc::new(opt), stats)
    }

    /// A memo holding `memo_frame()` at key 3, optimized under `profile`.
    fn memo_with_frame(profile: &AliasProfile) -> (FrameMemo, Arc<OptFrame>) {
        let mut memo = FrameMemo::new(1024);
        let result = optimized(&memo_frame(), profile);
        let opt = Arc::clone(&result.0);
        memo.insert(3, memo_frame(), profile, result);
        (memo, opt)
    }

    #[test]
    fn memo_hits_identical_frame_under_another_id() {
        let profile = AliasProfile::empty();
        let (mut memo, opt) = memo_with_frame(&profile);
        let again = Frame {
            id: FrameId(99),
            ..memo_frame()
        };
        let (hit, stats) = memo.get(3, &again, &profile).expect("identical frame hits");
        assert!(Arc::ptr_eq(&hit, &opt), "the memoized Arc is shared");
        assert_eq!(stats, optimized(&again, &profile).1);
        assert!(memo.get(4, &again, &profile).is_none(), "other key misses");
    }

    #[test]
    fn memo_misses_a_frame_differing_in_any_field() {
        let profile = AliasProfile::empty();
        let (mut memo, _) = memo_with_frame(&profile);
        let variants: [fn(&mut Frame); 6] = [
            |f| f.start_addr += 1,
            |f| f.uops[1].imm += 4,
            |f| f.x86_addrs[2] = 0x406,
            |f| f.block_starts.push(2),
            |f| f.expectations[0].expected_next = 0x40c,
            |f| f.exit_next = 0x504,
        ];
        for (i, change) in variants.into_iter().enumerate() {
            let mut f = memo_frame();
            change(&mut f);
            assert!(memo.get(3, &f, &profile).is_none(), "variant {i}");
        }
        let mut f = memo_frame();
        f.orig_uop_count = 4;
        assert!(memo.get(3, &f, &profile).is_none(), "orig_uop_count");
        assert!(memo.get(3, &memo_frame(), &profile).is_some());
    }

    #[test]
    fn memo_entry_goes_stale_on_a_pair_inside_the_frame() {
        let mut profile = AliasProfile::empty();
        let (mut memo, _) = memo_with_frame(&profile);
        profile.record(0x402, 0x404);
        assert!(
            memo.get(3, &memo_frame(), &profile).is_none(),
            "a pair joining two of the frame's memory instructions forces re-optimization"
        );
        assert!(
            memo.get(3, &memo_frame(), &profile).is_none(),
            "the stale entry is gone"
        );
        let fresh = optimized(&memo_frame(), &profile);
        memo.insert(3, memo_frame(), &profile, fresh);
        assert!(memo.get(3, &memo_frame(), &profile).is_some());
    }

    #[test]
    fn memo_entry_survives_pairs_outside_the_frame() {
        let mut profile = AliasProfile::empty();
        let (mut memo, opt) = memo_with_frame(&profile);
        profile.record(0x400, 0x9000); // one end in the frame
        profile.record(0x9000, 0x9004); // neither end
        profile.record(0x400, 0x401); // 0x401 is no instruction of the frame
        let (hit, _) = memo.get(3, &memo_frame(), &profile).expect("still exact");
        assert!(Arc::ptr_eq(&hit, &opt));
        // The entry's epoch moved forward: a later inside pair still counts.
        profile.record(0x404, 0x400);
        assert!(memo.get(3, &memo_frame(), &profile).is_none());
    }

    #[test]
    fn memo_evicts_the_least_recently_used_variant() {
        let profile = AliasProfile::empty();
        let mut memo = FrameMemo::new(1024);
        let variant = |exit: u32| Frame {
            exit_next: exit,
            ..memo_frame()
        };
        for exit in 0..4 {
            let f = variant(exit);
            let result = optimized(&f, &profile);
            memo.insert(3, f, &profile, result);
        }
        // Touch variant 0, so variant 1 is now least recently used.
        assert!(memo.get(3, &variant(0), &profile).is_some());
        let fifth = variant(4);
        let result = optimized(&fifth, &profile);
        memo.insert(3, fifth, &profile, result);
        assert!(memo.get(3, &variant(1), &profile).is_none(), "evicted");
        for exit in [0, 2, 3, 4] {
            assert!(memo.get(3, &variant(exit), &profile).is_some(), "{exit}");
        }
        assert_eq!(memo.uops, 4 * memo_frame().uops.len());
    }

    #[test]
    fn memo_insert_over_budget_clears_it() {
        let profile = AliasProfile::empty();
        let mut memo = FrameMemo::new(7); // two 3-uop frames fit, three do not
        for key in 0..3 {
            let result = optimized(&memo_frame(), &profile);
            memo.insert(key, memo_frame(), &profile, result);
        }
        assert!(memo.get(0, &memo_frame(), &profile).is_none(), "cleared");
        assert!(memo.get(1, &memo_frame(), &profile).is_none(), "cleared");
        assert!(memo.get(2, &memo_frame(), &profile).is_some());
        assert_eq!(memo.uops, 3);

        // A frame larger than the whole budget is never held.
        let mut tiny = FrameMemo::new(2);
        let result = optimized(&memo_frame(), &profile);
        tiny.insert(0, memo_frame(), &profile, result);
        assert!(tiny.get(0, &memo_frame(), &profile).is_none());
        assert_eq!(tiny.uops, 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn cross_check_accepts_a_fresh_result_under_another_id() {
        let profile = AliasProfile::empty();
        let hit = optimized(&memo_frame(), &profile);
        let again = Frame {
            id: FrameId(99),
            ..memo_frame()
        };
        FrameMemo::assert_exact(&hit, optimize(&again, &profile, &OptConfig::default()));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "differs from a fresh one")]
    fn cross_check_rejects_a_differing_frame() {
        let profile = AliasProfile::empty();
        let hit = optimized(&memo_frame(), &profile);
        let (mut frame, stats) = optimize(&memo_frame(), &profile, &OptConfig::default());
        frame.exit_next += 4;
        FrameMemo::assert_exact(&hit, (frame, stats));
    }
}
