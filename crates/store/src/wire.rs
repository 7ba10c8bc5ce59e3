//! Minimal little-endian byte-buffer codec shared by artifact payloads.
//!
//! Every multi-byte value is little-endian; variable-length sequences are
//! length-prefixed. The reader is total: any malformed input — truncation,
//! an out-of-range tag, an absurd length — surfaces as a [`WireError`],
//! never a panic, because artifact payloads come from disk and may be
//! arbitrarily corrupted.

use std::fmt;

/// A decode failure. The store treats any wire error as artifact
/// corruption: the artifact is evicted and its content regenerated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the announced content did.
    UnexpectedEof {
        /// What was being read.
        what: &'static str,
    },
    /// An enum tag outside its valid range.
    BadTag {
        /// Which kind of tag.
        what: &'static str,
        /// The offending byte value.
        value: u64,
    },
    /// A length prefix larger than the remaining buffer could hold.
    BadLength {
        /// What the length prefixed.
        what: &'static str,
        /// The claimed element count.
        len: u64,
    },
    /// Bytes remained after the decoder consumed a complete value.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { what } => write!(f, "truncated {what}"),
            WireError::BadTag { what, value } => write!(f, "invalid {what} tag {value}"),
            WireError::BadLength { what, len } => write!(f, "oversized {what} length {len}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes (caller handles any length prefix).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }
}

/// Consuming decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails unless every byte was consumed — a complete decode that
    /// leaves residue means the payload and decoder disagree about the
    /// format, which the store treats as corruption.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < n {
            return Err(WireError::UnexpectedEof { what });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u16`.
    pub fn get_u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads `n` raw bytes (caller handles any length prefix, typically
    /// via [`Reader::get_len`] with `min_elem_size` 1).
    pub fn get_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(n, what)
    }

    /// Reads a length prefix that must be payable by the remaining bytes
    /// at `min_elem_size` bytes per element — rejecting forged lengths
    /// *before* any allocation sized by them.
    pub fn get_len(
        &mut self,
        what: &'static str,
        min_elem_size: usize,
    ) -> Result<usize, WireError> {
        let len = self.get_u32(what)? as u64;
        let need = len.saturating_mul(min_elem_size.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(WireError::BadLength { what, len });
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert_eq!(r.get_u16("b").unwrap(), 0xBEEF);
        assert_eq!(r.get_u32("c").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX - 1);
        assert_eq!(r.finish(), Ok(()));
    }

    #[test]
    fn byte_slices_round_trip_with_length_prefix() {
        let mut w = Writer::new();
        w.put_u32(3);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let n = r.get_len("blob", 1).unwrap();
        assert_eq!(r.get_bytes(n, "blob").unwrap(), b"abc");
        assert_eq!(r.finish(), Ok(()));
        // Truncated payload surfaces as an error, not a panic.
        let mut r = Reader::new(&bytes[..5]);
        assert!(r.get_len("blob", 1).is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(
            r.get_u32("field"),
            Err(WireError::UnexpectedEof { what: "field" })
        );
    }

    #[test]
    fn forged_length_rejected_before_allocation() {
        // Claims 4 billion elements with a 6-byte buffer.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        w.put_u16(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let err = r.get_len("slots", 4).unwrap_err();
        assert!(matches!(err, WireError::BadLength { what: "slots", .. }));
    }

    #[test]
    fn trailing_bytes_detected() {
        let r = Reader::new(&[0]);
        assert_eq!(r.finish(), Err(WireError::TrailingBytes));
    }
}
