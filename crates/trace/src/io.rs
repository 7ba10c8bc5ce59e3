//! Binary trace file format.
//!
//! A compact, self-contained format for saving and reloading traces. Each
//! record stores its instruction as genuine machine-code bytes (produced by
//! the [`replay_x86`] encoder and re-decoded on load), so a trace file is
//! also an interoperability test of the codec.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic  "RPLT"            4 bytes
//! version u32              currently 1
//! name    u32 len + bytes  workload name (UTF-8)
//! init    16 x u32 + u8    initial register file and flags
//! count   u64              number of records
//! records ...
//! ```
//!
//! Each record:
//!
//! ```text
//! addr u32, next_pc u32, flags u8, inst_len u8, inst bytes,
//! n_regs u8,  (u8 reg, u32 value) * n_regs,
//! n_reads u8, (u32 addr, u32 value) * n_reads,
//! n_writes u8,(u32 addr, u32 value) * n_writes
//! ```
//!
//! `inst_len` is at most 15 (the x86 length limit), and the effect counts
//! at most what one instruction produces: [`replay_x86::MAX_REG_WRITES`]
//! register writes, [`replay_x86::MAX_LOADS`] reads and
//! [`replay_x86::MAX_STORES`] writes. A reader rejects larger counts as
//! [`TraceIoError::OversizedField`].

use crate::{InlineList, Trace, TraceRecord};
use replay_x86::{decode, encode, DecodeError};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RPLT";

/// Version number of the binary trace format. Bumping it invalidates every
/// previously written trace file (and any on-disk cache keyed on it).
pub const FORMAT_VERSION: u32 = 1;
const VERSION: u32 = FORMAT_VERSION;

/// Upper bound on a declared workload-name length. Real names are a few
/// dozen bytes; anything past this is a corrupt or hostile header, and
/// rejecting it up front keeps a forged 4 GiB length from turning into an
/// allocation request.
const MAX_NAME_LEN: u32 = 1 << 16;

/// Errors from trace file reading.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the trace magic.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u32),
    /// The embedded instruction bytes failed to decode.
    BadInstruction(DecodeError),
    /// A string field was not UTF-8.
    BadString,
    /// A declared field length exceeds the format's sanity bound (a
    /// hostile or corrupt header; honoring it would demand an absurd
    /// allocation before any payload byte is checked).
    OversizedField(&'static str, u64),
}

impl std::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "i/o error: {e}"),
            TraceIoError::BadMagic => write!(f, "not a trace file (bad magic)"),
            TraceIoError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceIoError::BadInstruction(e) => write!(f, "corrupt instruction bytes: {e}"),
            TraceIoError::BadString => write!(f, "corrupt string field"),
            TraceIoError::OversizedField(field, len) => {
                write!(f, "declared {field} length {len} exceeds format bounds")
            }
        }
    }
}

impl std::error::Error for TraceIoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::BadInstruction(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> TraceIoError {
        TraceIoError::Io(e)
    }
}

/// Stable 64-bit content digest of a trace: FNV-1a over the exact byte
/// stream [`write_trace`] produces (so it covers the format version, the
/// name, the initial architectural state, and every record field).
///
/// Two traces digest equal iff their trace files would be byte-identical
/// — the property the persistent artifact store keys on.
///
/// # Errors
///
/// Fails only where [`write_trace`] would: a trace the format cannot
/// represent (e.g. an oversized name) has no well-defined file image to
/// digest.
pub fn trace_digest(trace: &Trace) -> Result<u64, TraceIoError> {
    struct Sink(replay_store::Digest64);
    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.write(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    let mut sink = Sink(replay_store::Digest64::new());
    write_trace(&mut sink, trace)?;
    Ok(sink.0.finish())
}

/// Writes a trace in the binary format. A `&mut` reference works as the
/// writer, e.g. `write_trace(&mut file, &trace)?`.
///
/// # Errors
///
/// Propagates I/O errors from the writer, and rejects traces the format
/// cannot faithfully represent — a name longer than the reader's
/// [`OversizedField`](TraceIoError::OversizedField) bound fails *on write*
/// with the same error, instead of emitting a file [`read_trace`] would
/// refuse (or, past `u32::MAX`, silently truncating the length field).
pub fn write_trace<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    let name = trace.name.as_bytes();
    if name.len() > MAX_NAME_LEN as usize {
        return Err(TraceIoError::OversizedField("name", name.len() as u64));
    }
    w.write_all(&(name.len() as u32).to_le_bytes())?;
    w.write_all(name)?;
    for r in trace.init_regs {
        w.write_all(&r.to_le_bytes())?;
    }
    w.write_all(&[trace.init_flags])?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for r in trace.records() {
        w.write_all(&r.addr.to_le_bytes())?;
        w.write_all(&r.next_pc.to_le_bytes())?;
        w.write_all(&[r.flags_after])?;
        // The canonical encoding: `r.len` may be longer when `read_trace`
        // accepted a non-canonical one, which is why the trace store
        // round-trips what it loads.
        let bytes = encode(&r.inst, r.addr);
        w.write_all(&[bytes.len() as u8])?;
        w.write_all(&bytes)?;
        w.write_all(&[r.reg_writes.len() as u8])?;
        for (reg, v) in &r.reg_writes {
            w.write_all(&[*reg])?;
            w.write_all(&v.to_le_bytes())?;
        }
        w.write_all(&[r.mem_reads.len() as u8])?;
        for (a, v) in &r.mem_reads {
            w.write_all(&a.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
        }
        w.write_all(&[r.mem_writes.len() as u8])?;
        for (a, v) in &r.mem_writes {
            w.write_all(&a.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

/// The longest x86 instruction encoding, in bytes: the bound on a
/// record's declared instruction length.
const MAX_INST_LEN: usize = 15;

struct Reader<R: Read> {
    inner: R,
}

impl<R: Read> Reader<R> {
    fn array<const N: usize>(&mut self) -> Result<[u8; N], TraceIoError> {
        let mut b = [0u8; N];
        self.inner.read_exact(&mut b)?;
        Ok(b)
    }
    fn u8(&mut self) -> Result<u8, TraceIoError> {
        Ok(self.array::<1>()?[0])
    }
    fn u32(&mut self) -> Result<u32, TraceIoError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, TraceIoError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn bytes(&mut self, n: usize) -> Result<Vec<u8>, TraceIoError> {
        // Never pre-allocate a buffer sized by an untrusted header field:
        // read through `take` so the vector grows only as payload bytes
        // actually arrive, then verify the declared length was delivered.
        let mut v = Vec::with_capacity(n.min(4096));
        let got = (&mut self.inner).take(n as u64).read_to_end(&mut v)?;
        if got != n {
            return Err(TraceIoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "field truncated mid-read",
            )));
        }
        Ok(v)
    }
    /// A `u8` count followed by that many items, into an inline list; a
    /// count past the list's capacity is an
    /// [`OversizedField`](TraceIoError::OversizedField) named `field`.
    fn list<T: Copy + Default, const N: usize>(
        &mut self,
        field: &'static str,
        mut item: impl FnMut(&mut Self) -> Result<T, TraceIoError>,
    ) -> Result<InlineList<T, N>, TraceIoError> {
        let n = self.u8()?;
        if n as usize > N {
            return Err(TraceIoError::OversizedField(field, n as u64));
        }
        let mut list = InlineList::new();
        for _ in 0..n {
            list.push(item(self)?);
        }
        Ok(list)
    }
}

/// Reads a trace written by [`write_trace`].
///
/// Decoding allocates the record vector and the name, and nothing per
/// record: instruction bytes pass through a stack buffer and effects land
/// in the record's inline lists.
///
/// # Errors
///
/// Fails on I/O errors, format violations, or corrupt instruction bytes.
/// A record declaring an instruction longer than 15 bytes, or more
/// register writes, loads or stores than any instruction produces, is an
/// [`OversizedField`](TraceIoError::OversizedField).
pub fn read_trace<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let mut r = Reader { inner: r };
    if &r.array::<4>()? != MAGIC {
        return Err(TraceIoError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(TraceIoError::BadVersion(version));
    }
    let name_len = r.u32()?;
    if name_len > MAX_NAME_LEN {
        return Err(TraceIoError::OversizedField("name", name_len as u64));
    }
    let name =
        String::from_utf8(r.bytes(name_len as usize)?).map_err(|_| TraceIoError::BadString)?;
    let mut init_regs = [0u32; replay_uop::NUM_ARCH_REGS];
    for reg in &mut init_regs {
        *reg = r.u32()?;
    }
    let init_flags = r.u8()?;
    let count = r.u64()? as usize;
    let mut records = Vec::with_capacity(count.min(1 << 20));
    let mut inst_bytes = [0u8; MAX_INST_LEN];
    for _ in 0..count {
        let addr = r.u32()?;
        let next_pc = r.u32()?;
        let flags_after = r.u8()?;
        let inst_len = r.u8()? as usize;
        if inst_len > MAX_INST_LEN {
            return Err(TraceIoError::OversizedField("instruction", inst_len as u64));
        }
        let inst_bytes = &mut inst_bytes[..inst_len];
        r.inner.read_exact(inst_bytes)?;
        let (inst, len) = decode(inst_bytes, addr).map_err(TraceIoError::BadInstruction)?;
        let reg_writes = r.list("register writes", |r| Ok((r.u8()?, r.u32()?)))?;
        let mem_reads = r.list("memory reads", |r| Ok((r.u32()?, r.u32()?)))?;
        let mem_writes = r.list("memory writes", |r| Ok((r.u32()?, r.u32()?)))?;
        records.push(TraceRecord {
            addr,
            len,
            inst,
            next_pc,
            reg_writes,
            mem_reads,
            mem_writes,
            flags_after,
        });
    }
    Ok(Trace::new(name, records).with_init(init_regs, init_flags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_x86::{Gpr, Inst, MemOperand};

    fn sample() -> Trace {
        Trace::new(
            "roundtrip",
            vec![
                TraceRecord {
                    addr: 0x40_0000,
                    len: 5,
                    inst: Inst::MovRI {
                        dst: Gpr::Eax,
                        imm: -3,
                    },
                    next_pc: 0x40_0005,
                    reg_writes: [(0, 0xffff_fffd)].into(),
                    mem_reads: [].into(),
                    mem_writes: [].into(),
                    flags_after: 0,
                },
                TraceRecord {
                    addr: 0x40_0005,
                    len: 6,
                    inst: Inst::MovMR {
                        mem: MemOperand::absolute(0x9000),
                        src: Gpr::Eax,
                    },
                    next_pc: 0x40_000b,
                    reg_writes: [].into(),
                    mem_reads: [].into(),
                    mem_writes: [(0x9000, 0xffff_fffd)].into(),
                    flags_after: 3,
                },
                TraceRecord {
                    addr: 0x40_000b,
                    len: 6,
                    inst: Inst::Jcc {
                        cc: replay_x86::CondX86::Nz,
                        target: 0x40_0000,
                    },
                    next_pc: 0x40_0000,
                    reg_writes: [].into(),
                    mem_reads: [(1, 2)].into(),
                    mem_writes: [].into(),
                    flags_after: 0x1f,
                },
            ],
        )
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.name, "roundtrip");
        assert_eq!(back.records(), t.records());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_trace(&b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        buf[4] = 99;
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadVersion(99)));
    }

    #[test]
    fn truncation_reported_as_io() {
        let mut buf = Vec::new();
        write_trace(&mut buf, &sample()).unwrap();
        let err = read_trace(&buf[..buf.len() - 3]).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty", vec![]);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.name, "empty");
        assert_eq!(back.init_regs, t.init_regs);
        assert_eq!(back.init_flags, t.init_flags);
    }

    /// A valid prefix (magic + version) followed by the given body bytes.
    fn hostile(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(body);
        buf
    }

    #[test]
    fn hostile_name_length_rejected_without_allocating() {
        // Header declares a 4 GiB name. Must fail fast with a typed
        // error, not attempt the allocation or panic.
        let buf = hostile(&u32::MAX.to_le_bytes());
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::OversizedField("name", 0xFFFF_FFFF)
        ));
        // A large-but-legal declared length with no payload behind it is
        // an EOF, and only the delivered bytes are ever buffered.
        let buf = hostile(&1000u32.to_le_bytes());
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn hostile_record_count_rejected_without_allocating() {
        // A structurally valid empty trace whose record count is forged
        // to u64::MAX: the reader must hit EOF on the first (absent)
        // record rather than reserving u64::MAX slots up front.
        let t = Trace::new("forged", vec![]);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let count_at = buf.len() - 8;
        buf[count_at..].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_trace(&buf[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::Io(_)));
    }

    #[test]
    fn oversized_name_rejected_symmetrically_on_write() {
        // The writer must refuse anything its own reader would reject:
        // a name one byte past the bound fails on write with the same
        // typed error read_trace raises, and nothing is written.
        let long = "x".repeat(MAX_NAME_LEN as usize + 1);
        let t = Trace::new(long, vec![]);
        let mut buf = Vec::new();
        let err = write_trace(&mut buf, &t).unwrap_err();
        assert!(matches!(
            err,
            TraceIoError::OversizedField("name", n) if n == MAX_NAME_LEN as u64 + 1
        ));
        assert!(buf.len() <= 8, "no payload may be emitted past the header");

        // A name exactly at the bound round-trips.
        let t = Trace::new("y".repeat(MAX_NAME_LEN as usize), vec![]);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&buf[..]).unwrap();
        assert_eq!(back.name.len(), MAX_NAME_LEN as usize);
    }

    /// A one-record trace of `NOP` (`0x90`) padded to `inst_len` bytes,
    /// declaring the given effect counts, each backed by a full payload.
    fn one_record(inst_len: u8, n_regs: u8, n_reads: u8, n_writes: u8) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&0u32.to_le_bytes()); // empty name
        body.extend_from_slice(&[0; 4 * replay_uop::NUM_ARCH_REGS + 1]);
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&[0; 9]); // addr, next_pc, flags
        body.push(inst_len);
        body.extend(std::iter::repeat_n(0x90, inst_len as usize));
        body.push(n_regs);
        body.extend(std::iter::repeat_n(0, 5 * n_regs as usize));
        for n in [n_reads, n_writes] {
            body.push(n);
            body.extend(std::iter::repeat_n(0, 8 * n as usize));
        }
        hostile(&body)
    }

    #[test]
    fn effect_counts_past_the_isa_caps_rejected() {
        use replay_x86::{MAX_LOADS, MAX_REG_WRITES, MAX_STORES};
        let (regs, reads, writes) = (MAX_REG_WRITES as u8, MAX_LOADS as u8, MAX_STORES as u8);
        // At the caps a record loads.
        let t = read_trace(&one_record(1, regs, reads, writes)[..]).unwrap();
        let r = &t.records()[0];
        assert_eq!(
            (r.reg_writes.len(), r.mem_reads.len(), r.mem_writes.len()),
            (MAX_REG_WRITES, MAX_LOADS, MAX_STORES)
        );
        for (buf, field, n) in [
            (one_record(1, regs + 1, 0, 0), "register writes", regs + 1),
            (one_record(1, 0, reads + 1, 0), "memory reads", reads + 1),
            (one_record(1, 0, 0, writes + 1), "memory writes", writes + 1),
            (one_record(1, u8::MAX, 0, 0), "register writes", u8::MAX),
            (one_record(16, 0, 0, 0), "instruction", 16),
        ] {
            let err = read_trace(&buf[..]).unwrap_err();
            assert!(
                matches!(err, TraceIoError::OversizedField(f, got) if f == field && got == n as u64),
                "{field} {n}: {err}"
            );
        }
        // Fifteen bytes is a legal length: the decoder, not the bound,
        // judges them (a lone NOP with trailing bytes decodes as NOP).
        let t = read_trace(&one_record(15, 0, 0, 0)[..]).unwrap();
        assert_eq!(t.records()[0].inst, Inst::Nop);
    }

    #[test]
    fn oversized_field_error_displays_field_and_length() {
        let msg = TraceIoError::OversizedField("name", 42).to_string();
        assert!(msg.contains("name") && msg.contains("42"), "{msg}");
    }
}
