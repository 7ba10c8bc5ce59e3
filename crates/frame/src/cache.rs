//! The frame cache.

use crate::Frame;
use replay_obs::Profile;

/// Hit/miss counters for the frame cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a frame.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Frames inserted.
    pub inserts: u64,
    /// Inserts that replaced a resident frame with the same entry address
    /// (not counted as evictions — no capacity pressure was involved).
    pub replacements: u64,
    /// Frames removed by explicit invalidation (the engine invalidates a
    /// frame's cache entry when one of its assertions aborts).
    pub invalidations: u64,
}

impl CacheStats {
    /// Records every counter under `<prefix>.<counter>` into a [`Profile`].
    pub fn observe_into(&self, prefix: &str, profile: &mut Profile) {
        profile.counter_add(&format!("{prefix}.hits"), self.hits);
        profile.counter_add(&format!("{prefix}.misses"), self.misses);
        profile.counter_add(&format!("{prefix}.evictions"), self.evictions);
        profile.counter_add(&format!("{prefix}.inserts"), self.inserts);
        profile.counter_add(&format!("{prefix}.replacements"), self.replacements);
        profile.counter_add(&format!("{prefix}.invalidations"), self.invalidations);
    }
}

/// Something the [`FrameCache`] can store: any frame-like object with a
/// size in uop slots.
///
/// Implemented by [`Frame`]; the simulator also implements it for optimized
/// frames, whose smaller `slot_cost` is what increases effective cache
/// capacity under optimization (§6.1).
pub trait CacheEntry {
    /// The number of uop slots the frame occupies in the cache.
    fn slot_cost(&self) -> usize;
}

impl CacheEntry for Frame {
    fn slot_cost(&self) -> usize {
        self.uop_count()
    }
}

/// Shared frames are cacheable too: the simulator stores `Arc`-wrapped
/// entries so a cache hit is a reference-count bump rather than a deep
/// clone of the frame's uop vectors.
impl<T: CacheEntry + ?Sized> CacheEntry for std::sync::Arc<T> {
    fn slot_cost(&self) -> usize {
        (**self).slot_cost()
    }
}

#[derive(Debug)]
struct Slot<T> {
    key: u32,
    frame: T,
    last_use: u64,
}

/// An on-chip cache of constructed frames, indexed by entry point.
///
/// Entry points are named by a *dense key* the caller assigns — the
/// simulator uses the static-instruction id of the entry address. A key
/// indexes a table of positions into the list of resident frames, so a
/// lookup is two array indexations and the LRU victim scan walks only the
/// resident frames. Keys must be dense (the position table grows to the
/// largest key inserted, four bytes a key); never key it by a raw address.
///
/// Capacity is measured in **uop slots**, matching the paper's "16K
/// micro-operations (approximately 64 kB)" configuration: an optimized frame
/// occupies fewer slots than its unoptimized form, so optimization increases
/// the cache's effective capacity (§6.1). Replacement is LRU; inserting a
/// frame whose key is already present replaces the old frame.
#[derive(Debug)]
pub struct FrameCache<T = Frame> {
    capacity_uops: usize,
    used_uops: usize,
    /// Per key, its frame's position in `resident` plus one; 0 when absent.
    index: Vec<u32>,
    /// The resident frames, in no particular order.
    resident: Vec<Slot<T>>,
    clock: u64,
    stats: CacheStats,
}

impl<T: CacheEntry> FrameCache<T> {
    /// Creates a cache holding at most `capacity_uops` uop slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_uops` is zero.
    pub fn new(capacity_uops: usize) -> FrameCache<T> {
        assert!(capacity_uops > 0, "capacity must be positive");
        FrameCache {
            capacity_uops,
            used_uops: 0,
            index: Vec::new(),
            resident: Vec::new(),
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured capacity in uop slots.
    pub fn capacity_uops(&self) -> usize {
        self.capacity_uops
    }

    /// Uop slots currently occupied.
    pub fn used_uops(&self) -> usize {
        self.used_uops
    }

    /// Number of resident frames.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True if no frames are resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Lookup statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The position in `resident` of the frame under `key`.
    fn position(&self, key: u32) -> Option<usize> {
        match self.index.get(key as usize) {
            Some(&p) if p != 0 => Some(p as usize - 1),
            _ => None,
        }
    }

    /// Removes the frame under `key`, refunding its slots.
    fn take(&mut self, key: u32) -> Option<T> {
        let p = self.position(key)?;
        self.index[key as usize] = 0;
        let slot = self.resident.swap_remove(p);
        if let Some(moved) = self.resident.get(p) {
            self.index[moved.key as usize] = p as u32 + 1;
        }
        self.used_uops -= slot.frame.slot_cost();
        Some(slot.frame)
    }

    /// Inserts a frame under `key`, evicting least-recently-used frames as
    /// needed.
    ///
    /// Frames larger than the whole cache are rejected (returns `false`).
    pub fn insert(&mut self, key: u32, frame: T) -> bool {
        let size = frame.slot_cost();
        if size > self.capacity_uops {
            return false;
        }
        if self.take(key).is_some() {
            self.stats.replacements += 1;
        }
        while self.used_uops + size > self.capacity_uops {
            // `last_use` values are unique, so the victim does not depend
            // on the order of `resident`.
            let victim = self
                .resident
                .iter()
                .min_by_key(|s| s.last_use)
                .map(|s| s.key)
                .expect("cache non-empty while over capacity");
            self.take(victim);
            self.stats.evictions += 1;
        }
        self.clock += 1;
        let k = key as usize;
        if k >= self.index.len() {
            self.index.resize(k + 1, 0);
        }
        self.resident.push(Slot {
            key,
            frame,
            last_use: self.clock,
        });
        self.index[k] = self.resident.len() as u32;
        self.used_uops += size;
        self.stats.inserts += 1;
        true
    }

    /// Looks up a frame by key, refreshing its LRU position.
    pub fn lookup(&mut self, key: u32) -> Option<&T> {
        self.clock += 1;
        match self.position(key) {
            Some(p) => {
                let slot = &mut self.resident[p];
                slot.last_use = self.clock;
                self.stats.hits += 1;
                Some(&slot.frame)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Checks residency without touching LRU state or statistics.
    pub fn peek(&self, key: u32) -> Option<&T> {
        self.position(key).map(|p| &self.resident[p].frame)
    }

    /// Removes a frame by key.
    pub fn invalidate(&mut self, key: u32) -> Option<T> {
        let frame = self.take(key)?;
        self.stats.invalidations += 1;
        Some(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FrameId;
    use replay_uop::{ArchReg, Opcode, Uop};

    fn frame(addr: u32, n_uops: usize) -> Frame {
        Frame {
            id: FrameId(addr as u64),
            start_addr: addr,
            uops: vec![Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1); n_uops],
            x86_addrs: vec![addr],
            block_starts: vec![0],
            expectations: vec![],
            exit_next: addr + 1,
            orig_uop_count: n_uops,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = FrameCache::new(100);
        assert!(c.insert(0x10, frame(0x10, 20)));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_uops(), 20);
        assert!(c.lookup(0x10).is_some());
        assert!(c.lookup(0x20).is_none());
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_by_uop_capacity() {
        let mut c = FrameCache::new(50);
        c.insert(1, frame(1, 20));
        c.insert(2, frame(2, 20));
        // Touch frame 1 so frame 2 is LRU.
        c.lookup(1);
        // 20 + 20 + 20 > 50: one eviction needed; victim must be frame 2.
        c.insert(3, frame(3, 20));
        assert!(c.peek(1).is_some());
        assert!(c.peek(2).is_none());
        assert!(c.peek(3).is_some());
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.used_uops(), 40);
    }

    #[test]
    fn same_address_replaces() {
        let mut c = FrameCache::new(100);
        c.insert(5, frame(5, 30));
        // A smaller (optimized) frame replaces the old one and frees slots.
        c.insert(5, frame(5, 10));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_uops(), 10);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().replacements, 1);
        assert_eq!(c.stats().inserts, 2);
    }

    #[test]
    fn repeated_reinsertion_does_not_leak_slots() {
        // Re-inserting the same entry address many times must keep
        // used_uops exact: the old cost is refunded every time.
        let mut c = FrameCache::new(100);
        for round in 0..50 {
            // Alternate sizes so a stale-cost bug cannot cancel out.
            let size = if round % 2 == 0 { 30 } else { 7 };
            assert!(c.insert(5, frame(5, size)));
            assert_eq!(c.len(), 1);
            assert_eq!(c.used_uops(), size);
        }
        assert_eq!(c.stats().inserts, 50);
        assert_eq!(c.stats().replacements, 49);
        // No capacity pressure ever arose, so no evictions were charged.
        assert_eq!(c.stats().evictions, 0);
        // The cache still has its full capacity available for others.
        assert!(c.insert(6, frame(6, 93)));
        assert_eq!(c.used_uops(), 100);
    }

    #[test]
    fn reinsertion_grow_evicts_exactly_as_needed() {
        // Growing a resident entry refunds the old cost first, then evicts
        // strictly by LRU until the new size fits — and each eviction is
        // counted exactly once.
        let mut c = FrameCache::new(60);
        c.insert(1, frame(1, 20));
        c.insert(2, frame(2, 20));
        c.insert(3, frame(3, 20));
        // Refresh 1 and 3; frame 2 is now LRU.
        c.lookup(1);
        c.lookup(3);
        // Growing frame 1 from 20 to 40 uops: refund 20, need 40 into the
        // 20 free -> evict exactly one frame (the LRU, #2).
        assert!(c.insert(1, frame(1, 40)));
        assert_eq!(c.stats().replacements, 1);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.peek(2).is_none(), "LRU frame 2 evicted");
        assert!(c.peek(3).is_some(), "frame 3 survives");
        assert_eq!(c.used_uops(), 60);
        // Accounting stays exact after the churn: drop everything.
        c.invalidate(1);
        c.invalidate(3);
        assert_eq!(c.used_uops(), 0);
        assert_eq!(c.stats().invalidations, 2);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut c = FrameCache::new(10);
        assert!(!c.insert(1, frame(1, 11)));
        assert!(c.is_empty());
    }

    #[test]
    fn invalidate_frees_space() {
        let mut c = FrameCache::new(10);
        c.insert(1, frame(1, 10));
        assert_eq!(c.invalidate(1).map(|f| f.start_addr), Some(1));
        assert_eq!(c.used_uops(), 0);
        assert!(c.invalidate(1).is_none());
    }

    /// A reference LRU: resident `(key, size, last_use)` triples.
    #[derive(Default)]
    struct ModelLru {
        frames: Vec<(u32, usize, u64)>,
        clock: u64,
    }

    impl ModelLru {
        fn used(&self) -> usize {
            self.frames.iter().map(|f| f.1).sum()
        }

        fn insert(&mut self, capacity: usize, key: u32, size: usize) {
            self.frames.retain(|f| f.0 != key);
            while self.used() + size > capacity {
                let lru = (0..self.frames.len())
                    .min_by_key(|&i| self.frames[i].2)
                    .unwrap();
                self.frames.remove(lru);
            }
            self.clock += 1;
            self.frames.push((key, size, self.clock));
        }

        fn lookup(&mut self, key: u32) -> bool {
            self.clock += 1;
            let clock = self.clock;
            self.frames
                .iter_mut()
                .find(|f| f.0 == key)
                .map(|f| f.2 = clock)
                .is_some()
        }
    }

    #[test]
    fn matches_a_reference_lru_under_churn() {
        // Inserts, lookups and invalidations over more keys than fit keep
        // the position table, the resident list and LRU order consistent
        // through every swap-remove.
        for seed in 0..8 {
            let mut rng = replay_rng::SmallRng::seed_from_u64(seed);
            let mut c = FrameCache::new(200);
            let mut m = ModelLru::default();
            for _ in 0..3_000 {
                let key = rng.random_range(0..64u32);
                match rng.random_range(0..4u32) {
                    0 | 1 => {
                        let size = rng.random_range(1..60usize);
                        assert!(c.insert(key, frame(key, size)));
                        m.insert(200, key, size);
                    }
                    2 => assert_eq!(c.lookup(key).is_some(), m.lookup(key)),
                    _ => {
                        let gone = c.invalidate(key).map(|f| f.start_addr);
                        let pos = m.frames.iter().position(|f| f.0 == key);
                        assert_eq!(gone, pos.map(|p| m.frames.remove(p).0));
                    }
                }
                assert_eq!(c.len(), m.frames.len());
                assert_eq!(c.used_uops(), m.used());
                for &(k, size, _) in &m.frames {
                    assert_eq!(c.peek(k).map(Frame::uop_count), Some(size));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        FrameCache::<Frame>::new(0);
    }
}
