//! Reuse of *optimization results*: an exact in-run memo ahead of the
//! optimizer, and the persistent disk layer beneath it.
//!
//! Optimizing a frame is a pure function of three inputs: the constructed
//! frame itself (every field but its construction-order `id`), the
//! [`OptConfig`], and the alias-profile facts the memory pass can query
//! (the `aliased()` relation restricted to the frame's memory uops — the
//! optimizer's single profile query site). This module owns the rule for
//! when a result computed earlier may stand in for running the passes.
//!
//! **In a run**, [`FrameMemo`] keeps the result for each distinct frame a
//! `simulate()` call has built. Loops rebuild the same region over and
//! over, so most frames equal one built earlier in the same run; those
//! reuse its `(Arc<OptFrame>, OptStats)` instead of running the passes
//! (RPO) or the remapper (RP). A hit needs exact equality of the frame, so
//! no digest collision can return a wrong result, and an alias pair learned
//! since the entry was last validated, with both ends among the frame's
//! memory instructions, makes the entry stale. The memo is bounded and
//! belongs to one run, so `simulate` stays a pure function of its inputs.
//!
//! **Across runs**, a [`FrameBundle`] keys each optimized frame by a digest
//! of exactly the optimizer's inputs (the remapped frame's encoding, id
//! included, plus the restricted alias relation), so a warm run that
//! reconstructs the same frame under the same profile state gets the
//! *bit-identical* optimization result without running a single pass —
//! and a frame rebuilt under a different profile (say, after an
//! unsafe-store conflict taught the profiler a new alias pair) gets a
//! different key and a fresh optimization. The bundle sits behind the memo
//! and sees memo misses only; the sequence of misses is deterministic, so
//! a warm run asks the bundle for exactly the frames a cold run stored.
//!
//! One bundle artifact holds every optimized frame of one
//! `(trace, optimizer configuration)` pair, persisted through
//! [`replay_store::Store`] at the end of a run and merged with whatever a
//! concurrent process persisted first. Corrupt bundles — including ones
//! that pass the container checksum but fail decode or the byte-exact
//! re-encode gate — are evicted and the run proceeds cold.
//!
//! Specialized execution plans ([`replay_core::ExecPlan`]) are **not**
//! persisted here: a plan is a cheap, deterministic recompilation of its
//! `OptFrame` (microseconds, triggered by the runner's hit threshold),
//! so storing one would add a second serialized encoding of frame
//! semantics to keep honest for zero warm-start win. Warm runs load the
//! optimized frames and re-earn their plans at runtime.

use replay_core::{frame_codec, AliasProfile, OptConfig, OptFrame, OptScope, OptStats};
use replay_frame::Frame;
use replay_store::{Digest64, Reader, Store, WireError, Writer};
use replay_trace::{trace_digest, Trace};
use std::collections::HashMap;
use std::sync::Arc;

/// Artifact class of persisted frame bundles.
pub(crate) const FRAMES_CLASS: &str = "frames";

/// Stable digest of an optimizer configuration — every field that can
/// change what the pass pipeline produces.
fn opt_config_digest(cfg: &OptConfig) -> u64 {
    let mut d = Digest64::new();
    d.write_u8(match cfg.scope {
        OptScope::Frame => 0,
        OptScope::Block => 1,
        OptScope::InterBlock => 2,
    });
    d.write_bool(cfg.assert_fuse);
    d.write_bool(cfg.const_prop);
    d.write_bool(cfg.cse);
    d.write_bool(cfg.nop_removal);
    d.write_bool(cfg.reassoc);
    d.write_bool(cfg.store_fwd);
    d.write_bool(cfg.speculative_memory);
    d.write_usize(cfg.max_iterations);
    d.write_bool(cfg.reschedule);
    d.finish()
}

/// The bundle artifact key: trace content, optimizer configuration, and
/// the frame codec version (bumping the codec orphans old bundles instead
/// of misreading them).
fn bundle_key(trace: &Trace, cfg: &OptConfig) -> Option<u64> {
    let mut d = Digest64::new();
    d.write_u32(frame_codec::FRAME_CODEC_VERSION);
    d.write_u64(trace_digest(trace).ok()?);
    d.write_u64(opt_config_digest(cfg));
    Some(d.finish())
}

/// Digest of one frame's optimization inputs: the remapped
/// (pre-optimization) frame's exact encoding plus the alias-profile
/// relation restricted to the frame's memory instructions.
///
/// The restriction is sound because the optimizer's only profile query
/// site asks `aliased(a, b)` for x86 addresses of memory uops within the
/// frame being optimized — hashing that whole sub-relation covers every
/// answer the passes can observe.
pub(crate) fn frame_key(raw: &OptFrame, profile: &AliasProfile) -> u64 {
    let mut d = Digest64::new();
    d.write(&frame_codec::encode_frame(raw));
    let mut addrs: Vec<u32> = raw
        .iter()
        .filter(|(_, u)| u.is_load() || u.is_store())
        .map(|(_, u)| u.x86_addr)
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    for (i, &a) in addrs.iter().enumerate() {
        for &b in &addrs[i..] {
            if profile.aliased(a, b) {
                d.write_u32(a);
                d.write_u32(b);
            }
        }
    }
    d.finish()
}

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
    /// Reused encoding buffers of [`FrameMemo::assert_exact`], so the
    /// debug-build cross-check adds no steady-state allocation.
    #[cfg(debug_assertions)]
    check: [Writer; 2],
}

impl FrameMemo {
    /// An empty memo holding at most `cap_uops` frame uops.
    pub fn new(cap_uops: usize) -> FrameMemo {
        FrameMemo {
            buckets: Vec::new(),
            uops: 0,
            cap_uops,
            #[cfg(debug_assertions)]
            check: Default::default(),
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
    /// the same frame's result recomputed from scratch: the encodings of
    /// frame and statistics must match byte for byte, ids aside. Debug
    /// builds run this on every hit.
    #[cfg(debug_assertions)]
    pub fn assert_exact(&mut self, hit: &(Arc<OptFrame>, OptStats), fresh: (OptFrame, OptStats)) {
        let (mut fresh_frame, fresh_stats) = fresh;
        fresh_frame.id = hit.0.id;
        let [a, b] = &mut self.check;
        for (w, frame, stats) in [
            (&mut *a, &*hit.0, &hit.1),
            (&mut *b, &fresh_frame, &fresh_stats),
        ] {
            w.clear();
            frame_codec::write_frame(w, frame);
            frame_codec::write_stats(w, stats);
        }
        assert!(
            a.as_bytes() == b.as_bytes(),
            "frame memo result for the frame at {:#x} differs from a fresh one",
            fresh_frame.start_addr
        );
    }
}

type Entries = HashMap<u64, (Arc<OptFrame>, OptStats)>;

/// Canonical bundle payload: entries sorted by key, each as
/// `key · frame · stats`. Sorting makes the encoding deterministic, which
/// the decode-side re-encode gate relies on.
fn encode_bundle(entries: &Entries) -> Vec<u8> {
    let mut keys: Vec<u64> = entries.keys().copied().collect();
    keys.sort_unstable();
    let mut w = Writer::new();
    w.put_u32(keys.len() as u32);
    for k in keys {
        let (frame, stats) = &entries[&k];
        w.put_u64(k);
        frame_codec::write_frame(&mut w, frame);
        frame_codec::write_stats(&mut w, stats);
    }
    w.into_bytes()
}

fn decode_bundle(payload: &[u8]) -> Result<Entries, WireError> {
    let mut r = Reader::new(payload);
    let n = r.get_len("bundle entries", 8)?;
    let mut entries = Entries::with_capacity(n);
    for _ in 0..n {
        let key = r.get_u64("entry key")?;
        let frame = frame_codec::read_frame(&mut r)?;
        let stats = frame_codec::read_stats(&mut r)?;
        entries.insert(key, (Arc::new(frame), stats));
    }
    r.finish()?;
    Ok(entries)
}

/// The per-run view of one `(trace, optimizer config)` bundle: loaded
/// once when the run starts, consulted on every frame construction,
/// persisted (merged with the on-disk state) when the run ends.
pub(crate) struct FrameBundle {
    store: &'static Store,
    key: u64,
    entries: Entries,
    dirty: bool,
}

impl FrameBundle {
    /// Loads the bundle for a run, if the process-wide store is enabled.
    ///
    /// A damaged bundle — container-level corruption, a decode failure,
    /// or a payload whose decoded form does not re-encode byte-exactly —
    /// is evicted and the run starts from an empty bundle.
    pub fn open(trace: &Trace, cfg: &OptConfig) -> Option<FrameBundle> {
        let store = Store::global()?;
        let key = bundle_key(trace, cfg)?;
        let entries = match store.load(FRAMES_CLASS, key) {
            Some(payload) => match decode_bundle(&payload) {
                Ok(entries) => {
                    // Round-trip gate: the decoded bundle must mean
                    // exactly what its bytes say.
                    if encode_bundle(&entries) == payload {
                        entries
                    } else {
                        store.evict_corrupt(FRAMES_CLASS, key, "re-encode mismatch");
                        Entries::new()
                    }
                }
                Err(e) => {
                    store.evict_corrupt(FRAMES_CLASS, key, &e.to_string());
                    Entries::new()
                }
            },
            None => Entries::new(),
        };
        Some(FrameBundle {
            store,
            key,
            entries,
            dirty: false,
        })
    }

    /// The cached optimization result for a frame key, if present.
    pub fn get(&self, frame_key: u64) -> Option<(Arc<OptFrame>, OptStats)> {
        self.entries
            .get(&frame_key)
            .map(|(f, s)| (Arc::clone(f), *s))
    }

    /// Records a freshly optimized frame.
    pub fn insert(&mut self, frame_key: u64, frame: Arc<OptFrame>, stats: OptStats) {
        if self.entries.insert(frame_key, (frame, stats)).is_none() {
            self.dirty = true;
        }
    }

    /// Persists the bundle if this run added anything, merging with
    /// whatever another process persisted meanwhile (new entries win ties;
    /// equal keys imply equal content anyway).
    pub fn persist(&self) {
        if !self.dirty {
            return;
        }
        let mut merged = self
            .store
            .load(FRAMES_CLASS, self.key)
            .and_then(|payload| decode_bundle(&payload).ok())
            .unwrap_or_default();
        for (k, v) in &self.entries {
            merged.insert(*k, v.clone());
        }
        self.store
            .save(FRAMES_CLASS, self.key, &encode_bundle(&merged));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_core::optimize;
    use replay_frame::{Frame, FrameId};
    use replay_uop::{ArchReg, Uop};

    fn sample_frame() -> Frame {
        Frame {
            id: FrameId(1),
            start_addr: 0x400,
            uops: vec![
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebp).at(0x400),
                Uop::load(ArchReg::Ebx, ArchReg::Esp, -4).at(0x402),
            ],
            x86_addrs: vec![0x400, 0x402],
            block_starts: vec![0],
            expectations: vec![],
            exit_next: 0x500,
            orig_uop_count: 2,
        }
    }

    fn sample_raw() -> OptFrame {
        OptFrame::from_frame(&sample_frame())
    }

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

    #[test]
    fn frame_key_sensitive_to_relevant_alias_pairs_only() {
        let raw = sample_raw();
        let empty = AliasProfile::empty();
        let base = frame_key(&raw, &empty);
        assert_eq!(base, frame_key(&raw, &empty), "deterministic");

        // A pair between this frame's memory uops changes the key...
        let mut relevant = AliasProfile::empty();
        relevant.record(0x400, 0x402);
        assert_ne!(frame_key(&raw, &relevant), base);

        // ...a pair between unrelated instructions does not.
        let mut irrelevant = AliasProfile::empty();
        irrelevant.record(0x9000, 0x9004);
        assert_eq!(frame_key(&raw, &irrelevant), base);
    }

    #[test]
    fn bundle_encoding_is_canonical_and_round_trips() {
        let raw = sample_raw();
        let (opt, stats) = optimize(
            &sample_frame(),
            &AliasProfile::empty(),
            &OptConfig::default(),
        );
        let mut entries = Entries::new();
        entries.insert(7, (Arc::new(opt), stats));
        entries.insert(3, (Arc::new(raw), OptStats::default()));
        let bytes = encode_bundle(&entries);
        let back = decode_bundle(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(encode_bundle(&back), bytes, "canonical re-encode");
        let (f, s) = &back[&7];
        assert_eq!(s.store_forwards, stats.store_forwards);
        assert_eq!(f.uop_count(), 1);
    }

    #[test]
    fn corrupt_bundle_decodes_to_error_never_panics() {
        let raw = sample_raw();
        let mut entries = Entries::new();
        entries.insert(1, (Arc::new(raw), OptStats::default()));
        let bytes = encode_bundle(&entries);
        for cut in 0..bytes.len() {
            assert!(decode_bundle(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn config_digest_separates_configurations() {
        let mut seen = std::collections::HashSet::new();
        for cfg in [
            OptConfig::default(),
            OptConfig::none(),
            OptConfig::without("CP"),
            OptConfig::without("SF"),
            OptConfig::without("CSE"),
            OptConfig::block_scope(),
            OptConfig::inter_block_scope(),
        ] {
            assert!(
                seen.insert(opt_config_digest(&cfg)),
                "digest collision for {cfg:?}"
            );
        }
    }
}
