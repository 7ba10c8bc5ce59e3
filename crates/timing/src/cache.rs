//! Set-associative cache model.

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
}

/// A set-associative, true-LRU cache with hit/miss counters.
///
/// Tags only — the model tracks presence, not contents (values come from
/// the trace / functional machine).
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<(u32, u64)>>, // (tag, last_use) per way
    set_shift: u32,
    set_mask: u32,
    assoc: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size, or capacity not divisible by `line × assoc`).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes > 0);
        assert!(cfg.assoc > 0 && cfg.size_bytes > 0);
        let lines = cfg.size_bytes / cfg.line_bytes;
        assert!(
            cfg.assoc <= lines,
            "associativity {} exceeds the {} line(s) the capacity holds \
             ({} B / {} B lines)",
            cfg.assoc,
            lines,
            cfg.size_bytes,
            cfg.line_bytes
        );
        assert!(
            lines.is_multiple_of(cfg.assoc),
            "capacity must divide evenly"
        );
        let n_sets = (lines / cfg.assoc).max(1);
        assert!(n_sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            sets: vec![Vec::with_capacity(cfg.assoc); n_sets],
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (n_sets - 1) as u32,
            assoc: cfg.assoc,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses the line containing `addr`, filling on miss.
    /// Returns `true` on hit.
    pub fn access(&mut self, addr: u32) -> bool {
        self.clock += 1;
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let ways = &mut self.sets[set];
        if let Some(way) = ways.iter_mut().find(|(t, _)| *t == tag) {
            way.1 = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if ways.len() >= self.assoc {
            let victim = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, lru))| *lru)
                .map(|(i, _)| i)
                .expect("non-empty set");
            ways.swap_remove(victim);
        }
        ways.push((tag, self.clock));
        false
    }

    /// Probes without filling or updating LRU. Returns `true` if resident.
    pub fn probe(&self, addr: u32) -> bool {
        let line = addr >> self.set_shift;
        let set = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        self.sets[set].iter().any(|(t, _)| *t == tag)
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            assoc: 2,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x103f), "same line");
        assert!(!c.access(0x1040), "next line");
        assert_eq!(c.misses(), 2);
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_within_set() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 lines * 64B
        // = 256B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        c.access(a); // b is now LRU
        c.access(d); // evicts b
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = small();
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40));
        assert!(c.probe(0x40));
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        for i in 0..4u32 {
            assert!(!c.access(i * 64));
        }
        for i in 0..4u32 {
            assert!(c.access(i * 64), "line {i} still resident");
        }
    }

    #[test]
    #[should_panic(expected = "associativity 4 exceeds the 2 line(s)")]
    fn assoc_exceeding_lines_panics_with_a_clear_message() {
        // 128 B / 64 B lines = 2 lines cannot host 4 ways.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 64,
            assoc: 4,
        });
    }

    #[test]
    fn single_set_cache_distinguishes_all_lines_by_tag() {
        // Fully associative degenerate geometry: 4 ways, 1 set. With
        // set_mask == 0 every address maps to set 0 and the *whole* line
        // number is the tag — distinct lines must never be confused.
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            assoc: 4,
        });
        for i in 0..4u32 {
            assert!(!c.access(i * 64), "cold line {i}");
        }
        for i in 0..4u32 {
            assert!(c.access(i * 64), "line {i} resident, tag exact");
            assert!(c.probe(i * 64), "probe agrees");
        }
        // A line differing only above the (empty) index field must miss.
        assert!(!c.probe(4 * 64));
        assert_eq!(c.misses(), 4);
        assert_eq!(c.hits(), 4);
    }

    #[test]
    fn probe_after_eviction_agrees_with_access_accounting() {
        let mut c = small();
        // Fill one set (2 ways) then overflow it; set stride is 256 B.
        let (a, b, d) = (0x0000, 0x0100, 0x0200);
        c.access(a);
        c.access(b);
        c.access(d); // evicts a (LRU)
        assert!(!c.probe(a), "evicted line gone");
        assert!(c.probe(b) && c.probe(d), "survivors resident");
        let misses_before = c.misses();
        // probe never fills and never counts: re-accessing the evicted
        // line must be a genuine miss, and the survivors genuine hits.
        assert!(!c.access(a));
        assert_eq!(c.misses(), misses_before + 1, "probe did not pre-fill");
        let hits_before = c.hits();
        assert!(c.access(d));
        assert_eq!(c.hits(), hits_before + 1, "probe did not disturb LRU state");
    }
}
