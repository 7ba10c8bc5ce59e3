//! Stable 64-bit content digests (FNV-1a).
//!
//! Artifact keys must be identical across processes, platforms, and Rust
//! versions, so the store does not use [`std::hash`] (whose `Hasher`
//! implementations are explicitly unstable and randomly seeded). FNV-1a
//! over explicitly little-endian field encodings is stable by
//! construction, one multiply per byte, and more than strong enough for
//! cache addressing — the store never treats a digest match as proof of
//! byte equality without the payload checksum alongside it.

/// An incremental FNV-1a 64-bit hasher over typed fields.
///
/// Multi-byte integers are folded in little-endian order; every `write_*`
/// helper is a thin wrapper over [`Digest64::write`] so two field
/// sequences collide only if their byte streams agree.
#[derive(Debug, Clone, Copy)]
pub struct Digest64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Digest64 {
    fn default() -> Digest64 {
        Digest64::new()
    }
}

impl Digest64 {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Digest64 {
        Digest64(FNV_OFFSET)
    }

    /// Folds raw bytes into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    /// Folds one byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Folds a `u32` (little-endian).
    pub fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds a `usize` widened to `u64`, so 32- and 64-bit hosts agree.
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Folds an `f64` by its IEEE-754 bit pattern (`-0.0 != 0.0`, and a
    /// NaN parameter — nonsensical but representable — still digests
    /// deterministically).
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Folds a `bool` as one byte.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Folds a string as length + UTF-8 bytes (length-prefixing keeps
    /// `("ab","c")` and `("a","bc")` distinct).
    pub fn write_str(&mut self, s: &str) {
        self.write_usize(s.len());
        self.write(s.as_bytes());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot digest of a byte slice.
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest64::new();
    d.write(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(digest_bytes(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest_bytes(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn field_prefixing_disambiguates() {
        let mut a = Digest64::new();
        a.write_str("ab");
        a.write_str("c");
        let mut b = Digest64::new();
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn typed_writes_match_byte_writes() {
        let mut a = Digest64::new();
        a.write_u32(0x0403_0201);
        let mut b = Digest64::new();
        b.write(&[1, 2, 3, 4]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn float_bits_distinguish_signed_zero() {
        let mut a = Digest64::new();
        a.write_f64(0.0);
        let mut b = Digest64::new();
        b.write_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }
}
