//! Sparse byte-addressed memory and a sparse address set, both on one
//! hash-free two-level radix table over 4 KiB pages.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;

/// Low page-number bits resolved by a leaf. Small leaves keep scattered
/// addresses cheap: a page alone in its leaf costs 4 KiB plus a 512-byte
/// leaf, never a leaf sized for a dense region.
const LEAF_BITS: u32 = 6;
const LEAF_LEN: usize = 1 << LEAF_BITS;
const LEAF_MASK: u32 = (LEAF_LEN as u32) - 1;
/// High page-number bits resolved by the root (14 with 4 KiB pages).
const ROOT_LEN: usize = 1 << (32 - PAGE_SHIFT - LEAF_BITS);
// Leaf numbers are 1-based `u16`s, one leaf per root slot at most.
const _: () = assert!(ROOT_LEN <= u16::MAX as usize);

type Leaf<P> = [Option<Box<P>>; LEAF_LEN];

/// Page number → page, two levels deep: a root of at most `ROOT_LEN` leaf
/// numbers (0 means no leaf) and leaves of `LEAF_LEN` page pointers. The
/// root is plain integers and only as long as the highest leaf in use, so
/// creating and cloning a table stays cheap.
#[derive(Debug, Clone)]
struct PageTable<P> {
    root: Vec<u16>,
    leaves: Vec<Leaf<P>>,
    resident: usize,
}

impl<P> Default for PageTable<P> {
    fn default() -> PageTable<P> {
        PageTable {
            root: Vec::new(),
            leaves: Vec::new(),
            resident: 0,
        }
    }
}

impl<P> PageTable<P> {
    #[inline]
    fn get(&self, page: u32) -> Option<&P> {
        let leaf = *self.root.get((page >> LEAF_BITS) as usize)?;
        if leaf == 0 {
            return None;
        }
        self.leaves[leaf as usize - 1][(page & LEAF_MASK) as usize].as_deref()
    }

    #[inline]
    fn get_or_insert(&mut self, page: u32, new: impl FnOnce() -> Box<P>) -> &mut P {
        let hi = (page >> LEAF_BITS) as usize;
        if hi >= self.root.len() {
            self.root.resize(hi + 1, 0);
        }
        let root = &mut self.root[hi];
        if *root == 0 {
            self.leaves.push(std::array::from_fn(|_| None));
            *root = self.leaves.len() as u16;
        }
        let slot = &mut self.leaves[*root as usize - 1][(page & LEAF_MASK) as usize];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(new)
    }

    fn clear(&mut self) {
        self.root.clear();
        self.leaves.clear();
        self.resident = 0;
    }
}

/// A sparse, byte-addressed, 32-bit memory.
///
/// Pages are allocated on first write; reads of untouched memory return
/// zero. Accesses may be unaligned and may straddle page boundaries. This is
/// the backing store for both the functional x86 interpreter and the
/// micro-op machine, and for the verifier's initial/final memory maps.
///
/// A 32-bit access that stays inside one page is one page lookup and one
/// 4-byte copy; only page-straddling (and address-wrapping) accesses go
/// byte by byte.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    pages: PageTable<[u8; PAGE_SIZE]>,
}

impl SparseMemory {
    /// Creates an empty memory (all bytes read as zero).
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .get_or_insert(addr >> PAGE_SHIFT, || Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.pages.get(addr >> PAGE_SHIFT) {
            Some(page) => page[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian 32-bit word (may be unaligned).
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 4 {
            return match self.pages.get(addr >> PAGE_SHIFT) {
                Some(page) => {
                    u32::from_le_bytes([page[off], page[off + 1], page[off + 2], page[off + 3]])
                }
                None => 0,
            };
        }
        let mut bytes = [0u8; 4];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u32));
        }
        u32::from_le_bytes(bytes)
    }

    /// Writes a little-endian 32-bit word (may be unaligned).
    #[inline]
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let off = (addr & PAGE_MASK) as usize;
        if off <= PAGE_SIZE - 4 {
            self.page_mut(addr)[off..off + 4].copy_from_slice(&value.to_le_bytes());
            return;
        }
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i as u32)))
            .collect()
    }

    /// Number of resident (written-to) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.resident
    }

    /// Removes all contents.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

/// A sparse set of exact 32-bit addresses: one bit per byte address, on
/// the same radix layout as [`SparseMemory`] (a 512-byte bitmap per
/// touched 4 KiB page).
#[derive(Debug, Default)]
pub struct AddrSet {
    pages: PageTable<[u64; PAGE_SIZE / 64]>,
}

impl AddrSet {
    /// Creates an empty set.
    pub fn new() -> AddrSet {
        AddrSet::default()
    }

    /// Adds `addr`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, addr: u32) -> bool {
        let bits = self
            .pages
            .get_or_insert(addr >> PAGE_SHIFT, || Box::new([0u64; PAGE_SIZE / 64]));
        let off = addr & PAGE_MASK;
        let (word, mask) = (&mut bits[(off >> 6) as usize], 1u64 << (off & 63));
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_rng::SmallRng;
    use std::collections::BTreeMap;

    #[test]
    fn zero_default() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_beef), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u32_roundtrip_aligned_and_unaligned() {
        let mut m = SparseMemory::new();
        m.write_u32(0x1000, 0x1234_5678);
        assert_eq!(m.read_u32(0x1000), 0x1234_5678);
        // Little-endian byte order.
        assert_eq!(m.read_u8(0x1000), 0x78);
        assert_eq!(m.read_u8(0x1003), 0x12);
        // Unaligned, page-straddling write.
        m.write_u32(0x1fff, 0xaabb_ccdd);
        assert_eq!(m.read_u32(0x1fff), 0xaabb_ccdd);
        assert_eq!(m.read_u8(0x2000), 0xcc);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut m = SparseMemory::new();
        m.write_bytes(0x8000, &[1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x8000, 5), vec![1, 2, 3, 4, 5]);
        assert_eq!(m.read_bytes(0x8003, 4), vec![4, 5, 0, 0]);
    }

    #[test]
    fn address_wraparound() {
        let mut m = SparseMemory::new();
        m.write_u32(0xffff_fffe, 0x0102_0304);
        assert_eq!(m.read_u32(0xffff_fffe), 0x0102_0304);
        // LE bytes are [04, 03, 02, 01] starting at 0xffff_fffe, so the
        // third byte lands at address 0.
        assert_eq!(m.read_u8(0), 0x02, "wraps to address 0");
    }

    #[test]
    fn clear_resets() {
        let mut m = SparseMemory::new();
        m.write_u8(42, 7);
        assert_eq!(m.resident_pages(), 1);
        m.clear();
        assert_eq!(m.read_u8(42), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    /// A byte-at-a-time reference memory.
    #[derive(Clone, Default)]
    struct Reference(BTreeMap<u32, u8>);

    impl Reference {
        fn read_u32(&self, addr: u32) -> u32 {
            let b = |i: u32| self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            u32::from_le_bytes([b(0), b(1), b(2), b(3)])
        }
        fn write_u32(&mut self, addr: u32, value: u32) {
            for (i, b) in value.to_le_bytes().into_iter().enumerate() {
                self.0.insert(addr.wrapping_add(i as u32), b);
            }
        }
        fn pages(&self) -> usize {
            let mut pages: Vec<u32> = self.0.keys().map(|a| a >> PAGE_SHIFT).collect();
            pages.dedup();
            pages.len()
        }
    }

    /// An address biased toward the cases the word fast path must get
    /// right: aligned, unaligned, page-straddling, wrapping at the top of
    /// the address space, and a few hot pages so writes overlap.
    fn pick_addr(rng: &mut SmallRng) -> u32 {
        let page = match rng.random_range(0..4u32) {
            0 => 0xf_ffff,
            1 => rng.random_range(0..4u32),
            _ => rng.next_u32() >> PAGE_SHIFT,
        };
        let off = match rng.random_range(0..4u32) {
            0 => rng.random_range(0..(PAGE_SIZE as u32 / 4)) * 4,
            1 => PAGE_SIZE as u32 - rng.random_range(1..4u32),
            _ => rng.random_range(0..PAGE_SIZE as u32),
        };
        (page << PAGE_SHIFT) | off
    }

    #[test]
    fn matches_a_byte_reference_under_random_operations() {
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut m, mut r) = (SparseMemory::new(), Reference::default());
            let mut snapshot: Option<(SparseMemory, Reference)> = None;
            for step in 0..2_000 {
                if step == 1_000 {
                    m.clear();
                    r.0.clear();
                    assert_eq!(m.resident_pages(), 0);
                }
                let addr = pick_addr(&mut rng);
                match rng.random_range(0..20u32) {
                    0..=7 => {
                        let v = rng.next_u32();
                        m.write_u32(addr, v);
                        r.write_u32(addr, v);
                    }
                    8..=9 => {
                        let v = rng.next_u32() as u8;
                        m.write_u8(addr, v);
                        r.0.insert(addr, v);
                    }
                    10 => {
                        let bytes: Vec<u8> = (0..rng.random_range(0..9u32))
                            .map(|_| rng.next_u32() as u8)
                            .collect();
                        m.write_bytes(addr, &bytes);
                        for (i, b) in bytes.iter().enumerate() {
                            r.0.insert(addr.wrapping_add(i as u32), *b);
                        }
                    }
                    11 => {
                        // Clone independence: a snapshot taken now must not
                        // see later writes, nor its writes leak back.
                        snapshot = Some((m.clone(), r.clone()));
                    }
                    _ => {
                        let bytes = m.read_bytes(addr, 6);
                        let want: Vec<u8> = (0..6)
                            .map(|i| r.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0))
                            .collect();
                        assert_eq!(bytes, want, "seed {seed} step {step}: bytes at {addr:#x}");
                    }
                }
                assert_eq!(
                    m.read_u32(addr),
                    r.read_u32(addr),
                    "seed {seed} step {step}: word at {addr:#x}"
                );
                assert_eq!(m.read_u8(addr), r.0.get(&addr).copied().unwrap_or(0));
                // Untouched memory reads as zero.
                let probe = rng.next_u32();
                assert_eq!(
                    m.read_u32(probe),
                    r.read_u32(probe),
                    "seed {seed}: {probe:#x}"
                );
                assert_eq!(m.resident_pages(), r.pages(), "seed {seed} step {step}");
            }
            if let Some((mut sm, sr)) = snapshot {
                for (&a, &b) in &sr.0 {
                    assert_eq!(sm.read_u8(a), b, "seed {seed}: snapshot byte {a:#x}");
                }
                assert_eq!(sm.resident_pages(), sr.pages());
                sm.write_u32(0x40, 0xffff_ffff);
                assert_eq!(m.read_u32(0x40), r.read_u32(0x40), "clone writes leaked");
            }
        }
    }

    #[test]
    fn addr_set_tracks_exact_addresses() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = AddrSet::new();
        let mut reference = std::collections::BTreeSet::new();
        let addrs: Vec<u32> = (0..5_000).map(|_| pick_addr(&mut rng)).collect();
        for &a in &addrs {
            assert_eq!(s.insert(a), reference.insert(a), "{a:#x}");
        }
        for &a in &addrs {
            assert!(!s.insert(a), "{a:#x} already present");
        }
    }
}
