//! Alias profiles for speculative memory optimization.

use std::collections::HashSet;

/// A record of which memory instructions *aliased* (touched the same
/// address) during profiled execution.
///
/// The paper (§3.4): "We record aliasing events during execution and pass
/// this information to the optimizer. If the intervening stores did not
/// alias during execution, the optimizer speculates that they never alias,
/// and removes the load."
///
/// Pairs are keyed by the x86 addresses of the two memory instructions and
/// are unordered.
///
/// The profile only grows, and it keeps its pairs in insertion order as
/// well: [`AliasProfile::epoch`] names a point in that order and
/// [`AliasProfile::pairs_since`] returns what was learned after it, so a
/// caller holding a result computed at an older epoch can check it against
/// the new pairs alone.
#[derive(Debug, Clone, Default)]
pub struct AliasProfile {
    pairs: HashSet<(u32, u32)>,
    /// Every pair of `pairs`, in the order it was first recorded.
    log: Vec<(u32, u32)>,
}

impl AliasProfile {
    /// A profile with no recorded aliasing events — every speculation is
    /// permitted.
    pub fn empty() -> AliasProfile {
        AliasProfile::default()
    }

    /// Creates an empty profile (same as [`AliasProfile::empty`]).
    pub fn new() -> AliasProfile {
        AliasProfile::default()
    }

    fn ordered(a: u32, b: u32) -> (u32, u32) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Records that the memory instructions at `a` and `b` touched the same
    /// address in some dynamic instance.
    pub fn record(&mut self, a: u32, b: u32) {
        let key = Self::ordered(a, b);
        if self.pairs.insert(key) {
            self.log.push(key);
        }
    }

    /// The profile's current epoch: the number of distinct pairs recorded
    /// so far. It advances exactly when a new pair is recorded.
    pub fn epoch(&self) -> usize {
        self.log.len()
    }

    /// The pairs first recorded at or after epoch `e`, in recording order,
    /// each as `(lower address, higher address)`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is later than [`AliasProfile::epoch`].
    pub fn pairs_since(&self, e: usize) -> &[(u32, u32)] {
        &self.log[e..]
    }

    /// True if an aliasing event between `a` and `b` was ever observed.
    pub fn aliased(&self, a: u32, b: u32) -> bool {
        self.pairs.contains(&Self::ordered(a, b))
    }

    /// Number of recorded aliasing pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if no aliasing events are recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Merges another profile into this one.
    pub fn merge(&mut self, other: &AliasProfile) {
        for &(a, b) in &other.log {
            self.record(a, b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unordered_pairs() {
        let mut p = AliasProfile::new();
        p.record(0x10, 0x20);
        assert!(p.aliased(0x10, 0x20));
        assert!(p.aliased(0x20, 0x10));
        assert!(!p.aliased(0x10, 0x30));
        assert_eq!(p.len(), 1);
        p.record(0x20, 0x10);
        assert_eq!(p.len(), 1, "duplicate pair collapses");
    }

    #[test]
    fn merge_unions() {
        let mut a = AliasProfile::new();
        a.record(1, 2);
        let mut b = AliasProfile::new();
        b.record(3, 4);
        a.merge(&b);
        assert!(a.aliased(1, 2) && a.aliased(3, 4));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn epoch_advances_only_on_new_pairs() {
        let mut p = AliasProfile::new();
        assert_eq!(p.epoch(), 0);
        p.record(0x20, 0x10);
        p.record(0x30, 0x40);
        assert_eq!(p.epoch(), 2);
        let e = p.epoch();
        p.record(0x10, 0x20);
        p.record(0x40, 0x30);
        assert_eq!(p.epoch(), e, "duplicates do not advance the epoch");
        assert!(p.pairs_since(e).is_empty());
        p.record(0x50, 0x50);
        p.record(0x60, 0x10);
        p.record(0x10, 0x60);
        assert_eq!(p.pairs_since(e), &[(0x50, 0x50), (0x10, 0x60)]);
        assert_eq!(p.pairs_since(0).len(), 4);
        assert!(p.pairs_since(p.epoch()).is_empty());
    }

    #[test]
    fn merge_logs_only_new_pairs() {
        let mut a = AliasProfile::new();
        a.record(1, 2);
        let mut b = AliasProfile::new();
        b.record(2, 1);
        b.record(3, 4);
        a.merge(&b);
        assert_eq!(a.pairs_since(0), &[(1, 2), (3, 4)]);
    }

    #[test]
    fn empty_profile_permits_everything() {
        let p = AliasProfile::empty();
        assert!(p.is_empty());
        assert!(!p.aliased(0, 0));
    }
}
