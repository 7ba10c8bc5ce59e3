//! Versioned binary serialization of optimized frames and their stats.
//!
//! The persistent artifact store caches *optimized* frames so a warm run
//! skips the optimizer entirely. That requires a byte-exact, stable
//! encoding of [`OptFrame`] (including bookkeeping the optimizer relies
//! on: live-outs, flags routing, control expectations, block membership)
//! and of the [`OptStats`] the frame's optimization produced — the stats
//! replay the frame's exact metric contribution on a warm start.
//!
//! The decoder is total over arbitrary bytes: truncation, bad tags, and
//! out-of-range slot references all surface as [`WireError`]s (the store
//! evicts and regenerates), never panics. Use counts are not serialized;
//! they are rebuilt from the decoded structure, and
//! [`decode_frame`]/[`encode_frame`] round-trip byte-exactly — the
//! caller-side gate that proves a decoded frame means what its bytes say.

use crate::frame_ir::OptFrame;
use crate::ir::{FlagsSrc, OptUop, Src};
use crate::stats::OptStats;
use replay_frame::{ControlExpectation, FrameId};
use replay_store::{Reader, WireError, Writer};
use replay_uop::{ArchReg, Cond, Opcode};

/// Frame encoding version. Bump on any layout or semantic change; the
/// artifact key includes it, so stale artifacts are simply never found.
/// The byte stream echoes it too, guarding mislabeled files.
pub const FRAME_CODEC_VERSION: u32 = 1;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_src(w: &mut Writer, src: Src) {
    match src {
        Src::LiveIn(r) => {
            w.put_u8(0);
            w.put_u8(r.index() as u8);
        }
        Src::Slot(s) => {
            w.put_u8(1);
            w.put_u16(s);
        }
    }
}

fn put_opt_src(w: &mut Writer, src: Option<Src>) {
    match src {
        None => w.put_u8(0),
        Some(s) => {
            w.put_u8(1);
            put_src(w, s);
        }
    }
}

fn put_flags_src(w: &mut Writer, fs: FlagsSrc) {
    match fs {
        FlagsSrc::LiveIn => w.put_u8(0),
        FlagsSrc::Slot(s) => {
            w.put_u8(1);
            w.put_u16(s);
        }
    }
}

fn put_uop(w: &mut Writer, u: &OptUop) {
    w.put_u8(u.op as u8);
    put_opt_src(w, u.src_a);
    put_opt_src(w, u.src_b);
    w.put_i32(u.imm);
    w.put_u8(u.scale);
    match u.cc {
        None => w.put_u8(0),
        Some(cc) => {
            w.put_u8(1);
            w.put_u8(cc as u8);
        }
    }
    match u.dst_arch {
        None => w.put_u8(0),
        Some(r) => {
            w.put_u8(1);
            w.put_u8(r.index() as u8);
        }
    }
    let bits = (u.writes_flags as u8) | (u.valid as u8) << 1 | (u.unsafe_store as u8) << 2;
    w.put_u8(bits);
    match u.flags_src {
        None => w.put_u8(0),
        Some(fs) => {
            w.put_u8(1);
            put_flags_src(w, fs);
        }
    }
    w.put_u32(u.target);
    w.put_u32(u.x86_addr);
}

/// Appends a frame's encoding to a writer (for embedding in bundles).
pub fn write_frame(w: &mut Writer, f: &OptFrame) {
    w.put_u32(FRAME_CODEC_VERSION);
    w.put_u64(f.id.0);
    w.put_u32(f.start_addr);
    w.put_u32(f.exit_next);
    w.put_u32(f.orig_uop_count as u32);
    w.put_u32(f.orig_load_count as u32);
    w.put_u32(f.spec_loads_removed);
    put_flags_src(w, f.flags_out);
    w.put_u32(f.x86_addrs.len() as u32);
    for &a in &f.x86_addrs {
        w.put_u32(a);
    }
    w.put_u32(f.slots.len() as u32);
    for u in &f.slots {
        put_uop(w, u);
    }
    for &b in &f.block_of {
        w.put_u16(b);
    }
    w.put_u32(f.live_out.len() as u32);
    for &(r, src) in &f.live_out {
        w.put_u8(r.index() as u8);
        put_src(w, src);
    }
    w.put_u32(f.expectations.len() as u32);
    for e in &f.expectations {
        w.put_u32(e.x86_addr);
        w.put_u32(e.expected_next);
        w.put_u32(e.uop_index as u32);
    }
}

/// Encodes one frame as a standalone byte vector.
pub fn encode_frame(f: &OptFrame) -> Vec<u8> {
    let mut w = Writer::new();
    write_frame(&mut w, f);
    w.into_bytes()
}

/// Appends an [`OptStats`] encoding to a writer.
pub fn write_stats(w: &mut Writer, s: &OptStats) {
    for v in [
        s.uops_before,
        s.uops_after,
        s.loads_before,
        s.loads_after,
        s.speculative_load_removals,
        s.unsafe_stores,
        s.nop_removed,
        s.const_folded,
        s.asserts_removed,
        s.reassociations,
        s.cse_alu,
        s.cse_loads,
        s.store_forwards,
        s.assert_fusions,
        s.dce_removed,
        s.iterations,
        s.rescheduled,
    ] {
        w.put_u64(v);
    }
    for v in s.removed_by_pass {
        w.put_u64(v);
    }
    for v in s.rewrites_by_pass {
        w.put_u64(v);
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn get_reg(r: &mut Reader<'_>) -> Result<ArchReg, WireError> {
    let idx = r.get_u8("register")?;
    ArchReg::from_index(idx as usize).ok_or(WireError::BadTag {
        what: "register",
        value: idx as u64,
    })
}

fn get_src(r: &mut Reader<'_>, n_slots: usize) -> Result<Src, WireError> {
    match r.get_u8("source tag")? {
        0 => Ok(Src::LiveIn(get_reg(r)?)),
        1 => {
            let s = r.get_u16("source slot")?;
            if (s as usize) >= n_slots {
                return Err(WireError::BadTag {
                    what: "source slot",
                    value: s as u64,
                });
            }
            Ok(Src::Slot(s))
        }
        t => Err(WireError::BadTag {
            what: "source tag",
            value: t as u64,
        }),
    }
}

fn get_opt_src(r: &mut Reader<'_>, n_slots: usize) -> Result<Option<Src>, WireError> {
    match r.get_u8("option tag")? {
        0 => Ok(None),
        1 => Ok(Some(get_src(r, n_slots)?)),
        t => Err(WireError::BadTag {
            what: "option tag",
            value: t as u64,
        }),
    }
}

fn get_flags_src(r: &mut Reader<'_>, n_slots: usize) -> Result<FlagsSrc, WireError> {
    match r.get_u8("flags source tag")? {
        0 => Ok(FlagsSrc::LiveIn),
        1 => {
            let s = r.get_u16("flags source slot")?;
            if (s as usize) >= n_slots {
                return Err(WireError::BadTag {
                    what: "flags source slot",
                    value: s as u64,
                });
            }
            Ok(FlagsSrc::Slot(s))
        }
        t => Err(WireError::BadTag {
            what: "flags source tag",
            value: t as u64,
        }),
    }
}

fn get_uop(r: &mut Reader<'_>, n_slots: usize) -> Result<OptUop, WireError> {
    let op_tag = r.get_u8("opcode")?;
    let op = *Opcode::ALL.get(op_tag as usize).ok_or(WireError::BadTag {
        what: "opcode",
        value: op_tag as u64,
    })?;
    let src_a = get_opt_src(r, n_slots)?;
    let src_b = get_opt_src(r, n_slots)?;
    let imm = r.get_i32("immediate")?;
    let scale = r.get_u8("scale")?;
    let cc = match r.get_u8("condition tag")? {
        0 => None,
        1 => {
            let c = r.get_u8("condition")?;
            Some(*Cond::ALL.get(c as usize).ok_or(WireError::BadTag {
                what: "condition",
                value: c as u64,
            })?)
        }
        t => {
            return Err(WireError::BadTag {
                what: "condition tag",
                value: t as u64,
            })
        }
    };
    let dst_arch = match r.get_u8("destination tag")? {
        0 => None,
        1 => Some(get_reg(r)?),
        t => {
            return Err(WireError::BadTag {
                what: "destination tag",
                value: t as u64,
            })
        }
    };
    let bits = r.get_u8("uop flags")?;
    if bits & !0b111 != 0 {
        return Err(WireError::BadTag {
            what: "uop flags",
            value: bits as u64,
        });
    }
    let flags_src = match r.get_u8("flags option tag")? {
        0 => None,
        1 => Some(get_flags_src(r, n_slots)?),
        t => {
            return Err(WireError::BadTag {
                what: "flags option tag",
                value: t as u64,
            })
        }
    };
    let target = r.get_u32("target")?;
    let x86_addr = r.get_u32("x86 address")?;
    Ok(OptUop {
        op,
        src_a,
        src_b,
        imm,
        scale,
        cc,
        dst_arch,
        writes_flags: bits & 1 != 0,
        flags_src,
        target,
        x86_addr,
        valid: bits & 2 != 0,
        unsafe_store: bits & 4 != 0,
    })
}

/// Reads one frame from a reader (the inverse of [`write_frame`]).
pub fn read_frame(r: &mut Reader<'_>) -> Result<OptFrame, WireError> {
    let version = r.get_u32("frame codec version")?;
    if version != FRAME_CODEC_VERSION {
        return Err(WireError::BadTag {
            what: "frame codec version",
            value: version as u64,
        });
    }
    let id = FrameId(r.get_u64("frame id")?);
    let start_addr = r.get_u32("start address")?;
    let exit_next = r.get_u32("exit address")?;
    let orig_uop_count = r.get_u32("original uop count")? as usize;
    let orig_load_count = r.get_u32("original load count")? as usize;
    let spec_loads_removed = r.get_u32("speculative load count")?;
    // flags_out may reference a slot; defer the range check until the
    // slot count is known.
    let flags_out = get_flags_src(r, usize::MAX)?;

    let n_addrs = r.get_len("x86 addresses", 4)?;
    let mut x86_addrs = Vec::with_capacity(n_addrs);
    for _ in 0..n_addrs {
        x86_addrs.push(r.get_u32("x86 address")?);
    }

    let n_slots = r.get_len("slots", 2)?;
    if n_slots > crate::ir::Slot::MAX as usize {
        return Err(WireError::BadLength {
            what: "slots",
            len: n_slots as u64,
        });
    }
    if let FlagsSrc::Slot(s) = flags_out {
        if (s as usize) >= n_slots {
            return Err(WireError::BadTag {
                what: "flags-out slot",
                value: s as u64,
            });
        }
    }
    let mut slots = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        slots.push(get_uop(r, n_slots)?);
    }
    let mut block_of = Vec::with_capacity(n_slots);
    for _ in 0..n_slots {
        block_of.push(r.get_u16("block index")?);
    }

    let n_live = r.get_len("live-outs", 3)?;
    let mut live_out = Vec::with_capacity(n_live);
    for _ in 0..n_live {
        let reg = get_reg(r)?;
        let src = get_src(r, n_slots)?;
        live_out.push((reg, src));
    }

    let n_exp = r.get_len("expectations", 12)?;
    let mut expectations = Vec::with_capacity(n_exp);
    for _ in 0..n_exp {
        let x86_addr = r.get_u32("expectation address")?;
        let expected_next = r.get_u32("expected next")?;
        let uop_index = r.get_u32("expectation uop index")? as usize;
        if uop_index >= n_slots {
            return Err(WireError::BadTag {
                what: "expectation uop index",
                value: uop_index as u64,
            });
        }
        expectations.push(ControlExpectation {
            x86_addr,
            expected_next,
            uop_index,
        });
    }

    let mut f = OptFrame {
        id,
        start_addr,
        exit_next,
        x86_addrs,
        orig_uop_count,
        orig_load_count,
        slots,
        block_of,
        value_uses: Vec::new(),
        flags_uses: Vec::new(),
        valid_count: 0,
        live_out,
        flags_out,
        expectations,
        spec_loads_removed,
    };
    f.rebuild_use_counts();
    Ok(f)
}

/// Decodes a standalone frame encoding, requiring full consumption.
pub fn decode_frame(bytes: &[u8]) -> Result<OptFrame, WireError> {
    let mut r = Reader::new(bytes);
    let f = read_frame(&mut r)?;
    r.finish()?;
    Ok(f)
}

/// Reads an [`OptStats`] (the inverse of [`write_stats`]).
pub fn read_stats(r: &mut Reader<'_>) -> Result<OptStats, WireError> {
    let mut scalars = [0u64; 17];
    for v in &mut scalars {
        *v = r.get_u64("stats scalar")?;
    }
    let mut removed_by_pass = [0u64; 7];
    for v in &mut removed_by_pass {
        *v = r.get_u64("stats removed-by-pass")?;
    }
    let mut rewrites_by_pass = [0u64; 7];
    for v in &mut rewrites_by_pass {
        *v = r.get_u64("stats rewrites-by-pass")?;
    }
    let [uops_before, uops_after, loads_before, loads_after, speculative_load_removals, unsafe_stores, nop_removed, const_folded, asserts_removed, reassociations, cse_alu, cse_loads, store_forwards, assert_fusions, dce_removed, iterations, rescheduled] =
        scalars;
    Ok(OptStats {
        uops_before,
        uops_after,
        loads_before,
        loads_after,
        speculative_load_removals,
        unsafe_stores,
        nop_removed,
        const_folded,
        asserts_removed,
        reassociations,
        cse_alu,
        cse_loads,
        store_forwards,
        assert_fusions,
        dce_removed,
        iterations,
        rescheduled,
        removed_by_pass,
        rewrites_by_pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, AliasProfile, OptConfig};
    use replay_frame::Frame;
    use replay_uop::{ArchReg, Uop};

    fn sample_frame() -> Frame {
        Frame {
            id: FrameId(42),
            start_addr: 0x1000,
            uops: vec![
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
                Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
                Uop::store(ArchReg::Esp, -4, ArchReg::Ebx),
                Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
                Uop::load(ArchReg::Ecx, ArchReg::Esp, 0xc),
                Uop::load(ArchReg::Ebx, ArchReg::Esp, 0x10),
                Uop::mov_imm(ArchReg::Eax, 0),
                Uop::nop(),
            ],
            x86_addrs: vec![0x1000],
            block_starts: vec![0],
            expectations: vec![],
            exit_next: 0x2000,
            orig_uop_count: 8,
        }
    }

    #[test]
    fn optimized_frame_round_trips_byte_exactly() {
        let frame = sample_frame();
        let (opt, _) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        let bytes = encode_frame(&opt);
        let decoded = decode_frame(&bytes).expect("decodes");
        // Byte-exact re-encode is the round-trip gate the store relies on.
        assert_eq!(encode_frame(&decoded), bytes);
        // Semantically identical too.
        assert_eq!(decoded.start_addr, opt.start_addr);
        assert_eq!(decoded.uop_count(), opt.uop_count());
        assert_eq!(decoded.load_count(), opt.load_count());
        assert_eq!(decoded.listing(), opt.listing());
        decoded.validate().expect("decoded frame is consistent");
    }

    #[test]
    fn unoptimized_frame_round_trips() {
        let frame = sample_frame();
        let raw = OptFrame::from_frame(&frame);
        let bytes = encode_frame(&raw);
        let decoded = decode_frame(&bytes).unwrap();
        assert_eq!(encode_frame(&decoded), bytes);
        assert_eq!(decoded.listing(), raw.listing());
    }

    #[test]
    fn stats_round_trip() {
        let mut s = OptStats {
            uops_before: 100,
            uops_after: 60,
            loads_before: 12,
            loads_after: 6,
            store_forwards: 3,
            iterations: 2,
            ..OptStats::default()
        };
        s.removed_by_pass = [1, 2, 3, 4, 5, 6, 19];
        s.rewrites_by_pass = [7, 0, 1, 0, 2, 9, 40];
        let mut w = Writer::new();
        write_stats(&mut w, &s);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_stats(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn truncation_never_panics() {
        let frame = sample_frame();
        let (opt, _) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        let bytes = encode_frame(&opt);
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail"
            );
        }
    }

    #[test]
    fn out_of_range_slot_reference_rejected() {
        let frame = sample_frame();
        let (opt, _) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
        let good = encode_frame(&opt);
        // Corrupt every byte in turn: each mutation must either decode to
        // a frame that re-encodes to exactly the mutated bytes (a benign
        // field change) or fail cleanly — never panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] = bad[i].wrapping_add(1);
            if let Ok(f) = decode_frame(&bad) {
                assert_eq!(encode_frame(&f), bad, "byte {i}: lossy reinterpretation");
            }
        }
    }

    #[test]
    fn version_skew_rejected() {
        let frame = sample_frame();
        let raw = OptFrame::from_frame(&frame);
        let mut bytes = encode_frame(&raw);
        bytes[0..4].copy_from_slice(&(FRAME_CODEC_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(WireError::BadTag {
                what: "frame codec version",
                ..
            })
        ));
    }
}
