//! A small multiplicative hasher for the optimizer's lookup tables.
//!
//! The passes key hash tables by a handful of small integers (opcodes,
//! slot numbers, displacements) and only ever look entries up — they
//! never iterate a table — so hash quality beyond a good spread and
//! resistance to adversarial keys buy nothing. std's SipHash pays for
//! both on every uop. This is the rustc "Fx" scheme: each word is folded
//! in with a rotate, an xor and one multiply.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for tables keyed by optimizer-internal values.
pub(crate) type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` using [`FxHasher`].
pub(crate) type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` using [`FxHasher`].
pub(crate) type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx word hasher. Not collision-resistant; never use it for keys an
/// outside party chooses or for anything that reaches a disk format.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Byte strings are folded in a byte at a time: the optimizer's keys
    /// are fixed-width integers and enums, which take the word methods.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_small_keys_spread() {
        assert_eq!(hash_of((3u16, -4i32)), hash_of((3u16, -4i32)));
        let mut seen: Vec<u64> = (0u16..256).map(hash_of).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 256, "distinct slots get distinct hashes");
    }
}
