//! Randomized tests for the byte-level x86 codec and the trace file format:
//! everything the encoder emits must decode back to itself, and trace files
//! must round-trip exactly. Fixed-seed random streams replace the former
//! proptest strategies. The decoders of untrusted bytes (trace files and
//! the RSV1 wire messages) are also mutation-tested: corrupted input must
//! come back as a typed error or a value, never a panic.

use replay_rng::SmallRng;
use replay_serve::{Request, Response, Source, Status};
use replay_sim::{report::specs_for_trace, simulate};
use replay_trace::{read_trace, workloads, write_trace, Trace, TraceRecord};
use replay_x86::{decode, encode, AluOp, CondX86, Gpr, Inst, MemOperand, ShiftOp};
use std::sync::Arc;

fn arb_gpr(rng: &mut SmallRng) -> Gpr {
    *rng.choose(&Gpr::ALL)
}

fn arb_index(rng: &mut SmallRng) -> Gpr {
    // ESP cannot be an index register.
    loop {
        let g = arb_gpr(rng);
        if g != Gpr::Esp {
            return g;
        }
    }
}

fn arb_mem(rng: &mut SmallRng) -> MemOperand {
    match rng.random_range(0..3u32) {
        0 => MemOperand::base_disp(arb_gpr(rng), rng.random_range(-0x8000i32..0x8000)),
        1 => MemOperand::base_index(
            arb_gpr(rng),
            arb_index(rng),
            *rng.choose(&[1u8, 2, 4, 8]),
            rng.random_range(-0x8000i32..0x8000),
        ),
        _ => MemOperand::absolute(rng.random_range(0u32..0x7fff_0000)),
    }
}

fn arb_imm(rng: &mut SmallRng) -> i32 {
    // Mix full-width and small immediates so short encodings get exercised.
    match rng.random_range(0..3u32) {
        0 => rng.random_range(i32::MIN..i32::MAX),
        1 => rng.random_range(-128i32..128),
        _ => rng.random_range(-0x8000i32..0x8000),
    }
}

fn arb_inst(rng: &mut SmallRng) -> Inst {
    let alu = *rng.choose(&AluOp::ALL);
    let cc: CondX86 = *rng.choose(&CondX86::ALL);
    match rng.random_range(0..33u32) {
        0 => Inst::MovRR {
            dst: arb_gpr(rng),
            src: arb_gpr(rng),
        },
        1 => Inst::MovRI {
            dst: arb_gpr(rng),
            imm: arb_imm(rng),
        },
        2 => Inst::MovRM {
            dst: arb_gpr(rng),
            mem: arb_mem(rng),
        },
        3 => Inst::MovMR {
            mem: arb_mem(rng),
            src: arb_gpr(rng),
        },
        4 => Inst::MovMI {
            mem: arb_mem(rng),
            imm: arb_imm(rng),
        },
        5 => Inst::Lea {
            dst: arb_gpr(rng),
            mem: arb_mem(rng),
        },
        6 => Inst::PushR { src: arb_gpr(rng) },
        7 => Inst::PushI { imm: arb_imm(rng) },
        8 => Inst::PopR { dst: arb_gpr(rng) },
        9 => Inst::AluRR {
            op: alu,
            dst: arb_gpr(rng),
            src: arb_gpr(rng),
        },
        10 => Inst::AluRI {
            op: alu,
            dst: arb_gpr(rng),
            imm: arb_imm(rng),
        },
        11 => Inst::AluRM {
            op: alu,
            dst: arb_gpr(rng),
            mem: arb_mem(rng),
        },
        12 => Inst::AluMR {
            op: alu,
            mem: arb_mem(rng),
            src: arb_gpr(rng),
        },
        13 => Inst::CmpRR {
            a: arb_gpr(rng),
            b: arb_gpr(rng),
        },
        14 => Inst::CmpRI {
            a: arb_gpr(rng),
            imm: arb_imm(rng),
        },
        15 => Inst::CmpRM {
            a: arb_gpr(rng),
            mem: arb_mem(rng),
        },
        16 => Inst::TestRR {
            a: arb_gpr(rng),
            b: arb_gpr(rng),
        },
        17 => Inst::TestRI {
            a: arb_gpr(rng),
            imm: arb_imm(rng),
        },
        18 => Inst::IncR { r: arb_gpr(rng) },
        19 => Inst::DecR { r: arb_gpr(rng) },
        20 => Inst::NegR { r: arb_gpr(rng) },
        21 => Inst::NotR { r: arb_gpr(rng) },
        22 => Inst::ShiftRI {
            op: *rng.choose(&[ShiftOp::Shl, ShiftOp::Shr, ShiftOp::Sar]),
            r: arb_gpr(rng),
            imm: rng.random_range(0u8..32),
        },
        23 => Inst::ImulRR {
            dst: arb_gpr(rng),
            src: arb_gpr(rng),
        },
        24 => Inst::ImulRRI {
            dst: arb_gpr(rng),
            src: arb_gpr(rng),
            imm: arb_imm(rng),
        },
        25 => Inst::DivR { src: arb_gpr(rng) },
        26 => Inst::Cdq,
        27 => Inst::Jmp {
            target: rng.random_range(0u32..0x7fff_0000),
        },
        28 => Inst::Jcc {
            cc,
            target: rng.random_range(0u32..0x7fff_0000),
        },
        29 => Inst::JmpInd { r: arb_gpr(rng) },
        30 => Inst::Call {
            target: rng.random_range(0u32..0x7fff_0000),
        },
        31 => Inst::Ret,
        _ => *rng.choose(&[Inst::Nop, Inst::LongFlow]),
    }
}

/// encode → decode is the identity on the whole instruction space.
#[test]
fn encode_decode_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0001);
    for case in 0..2048 {
        let inst = arb_inst(&mut rng);
        let addr = rng.random_range(0u32..0x7000_0000);
        let bytes = encode(&inst, addr);
        assert!(bytes.len() <= 15, "case {case}: x86 length limit");
        let (decoded, len) =
            decode(&bytes, addr).unwrap_or_else(|e| panic!("case {case}: {inst}: {e}"));
        assert_eq!(len as usize, bytes.len(), "case {case}");
        assert_eq!(decoded, inst, "case {case}");
    }
}

/// Trace files round-trip exactly.
#[test]
fn trace_file_roundtrip() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0002);
    for case in 0..256 {
        let n = rng.random_range(0usize..40);
        let insts: Vec<Inst> = (0..n).map(|_| arb_inst(&mut rng)).collect();
        let name: String = (0..rng.random_range(0usize..=12))
            .map(|_| rng.random_range(b'a'..=b'z') as char)
            .collect();
        let records: Vec<TraceRecord> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let addr = 0x1000 + (i as u32) * 16;
                let len = encode(inst, addr).len() as u8;
                TraceRecord {
                    addr,
                    len,
                    inst: *inst,
                    next_pc: addr + len as u32,
                    reg_writes: [(0, i as u32)].into(),
                    mem_reads: [].into(),
                    mem_writes: [(addr, 7)].into(),
                    flags_after: (i % 32) as u8,
                }
            })
            .collect();
        let t = Trace::new(name.clone(), records);
        let mut buf = Vec::new();
        write_trace(&mut buf, &t).unwrap();
        let back = read_trace(&buf[..]).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(&back.name, &name, "case {case}");
        assert_eq!(back.records(), t.records(), "case {case}");
    }
}

/// The decoder never panics on arbitrary bytes — it either produces an
/// instruction or a structured error.
#[test]
fn decoder_is_total() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0003);
    for _ in 0..4096 {
        let n = rng.random_range(0usize..16);
        let bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0u8..=255)).collect();
        let addr = rng.next_u32();
        let _ = decode(&bytes, addr);
    }
}

/// Whatever the decoder accepts, re-encoding reproduces the accepted
/// prefix (decode is a partial inverse of encode).
#[test]
fn decode_encode_agree() {
    let mut rng = SmallRng::seed_from_u64(0xc0de_0004);
    for case in 0..4096 {
        let n = rng.random_range(1usize..16);
        let bytes: Vec<u8> = (0..n).map(|_| rng.random_range(0u8..=255)).collect();
        let addr = rng.next_u32();
        if let Ok((inst, _len)) = decode(&bytes, addr) {
            let re = encode(&inst, addr);
            let (inst2, len2) = decode(&re, addr).expect("re-encoded form decodes");
            assert_eq!(inst2, inst, "case {case}");
            assert_eq!(len2 as usize, re.len(), "case {case}");
        }
    }
}

/// One corrupted copy of `base`: a few bit flips, a truncation, a splice
/// of `base`'s prefix onto a suffix of `donor`, or a run of overwritten
/// bytes.
fn mutate(rng: &mut SmallRng, base: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut b = base.to_vec();
    match rng.random_range(0..4u32) {
        0 if !b.is_empty() => {
            for _ in 0..rng.random_range(1..=4u32) {
                let i = rng.random_range(0..b.len());
                b[i] ^= 1 << rng.random_range(0..8u32);
            }
        }
        1 => b.truncate(rng.random_range(0..=b.len())),
        2 => {
            b.truncate(rng.random_range(0..=b.len()));
            b.extend_from_slice(&donor[rng.random_range(0..=donor.len())..]);
        }
        _ if !b.is_empty() => {
            let i = rng.random_range(0..b.len());
            let n = rng.random_range(1..=8usize).min(b.len() - i);
            for x in &mut b[i..i + n] {
                *x = rng.random_range(0u8..=255);
            }
        }
        _ => {}
    }
    b
}

/// Corrupted trace files decode to a typed error or a trace, never a
/// panic, and a sample of the traces that decode simulates under RPO, as
/// the server does with inline trace bytes. `read_trace` accepts some
/// encodings `write_trace` never produces (they re-encode to other
/// bytes), which is why the trace store round-trips what it loads.
#[test]
fn trace_decoder_survives_mutation() {
    let files: Vec<Vec<u8>> = ["gzip", "excel", "vortex"]
        .iter()
        .map(|name| {
            let trace = workloads::by_name(name).unwrap().segment_trace(0, 300);
            let mut buf = Vec::new();
            write_trace(&mut buf, &trace).unwrap();
            buf
        })
        .collect();
    let mut rng = SmallRng::seed_from_u64(0xc0de_0005);
    let (mut accepted, mut noncanonical, mut simulated) = (0, 0, 0);
    for _ in 0..3000 {
        let base = rng.random_range(0..files.len());
        let donor = &files[(base + 1) % files.len()];
        let bytes = mutate(&mut rng, &files[base], donor);
        let Ok(trace) = read_trace(&bytes[..]) else {
            continue;
        };
        accepted += 1;
        let mut again = Vec::new();
        write_trace(&mut again, &trace).unwrap();
        noncanonical += usize::from(again != bytes);
        if accepted % 25 == 0 {
            // The server's RPO configuration: the last of the report specs.
            let rpo = specs_for_trace(&Arc::new(trace)).pop().unwrap();
            simulate(&rpo.traces[0], &rpo.cfg);
            simulated += 1;
        }
    }
    assert!(simulated > 0, "{accepted} mutants decoded, none simulated");
    eprintln!(
        "trace mutants: {accepted} of 3000 decoded, {noncanonical} non-canonical, \
         {simulated} simulated"
    );
}

/// Corrupted RSV1 request and response payloads decode to a typed error
/// or a value, never a panic.
#[test]
fn wire_decoders_survive_mutation() {
    let requests: Vec<Vec<u8>> = [
        Source::Workload("gzip".into()),
        Source::TraceBytes((0..200u8).collect()),
    ]
    .into_iter()
    .map(|source| {
        Request {
            source,
            scale: 4_000,
            timings: false,
            deadline_ms: 250,
            relayed: false,
        }
        .encode()
    })
    .collect();
    let responses = [
        Response::ok(b"{\"schema\": \"replay-report/v3\"}\n".to_vec()).encode(),
        Response::reject(Status::Overloaded, "queue full")
            .with_retry_after(40)
            .encode(),
    ];
    let mut rng = SmallRng::seed_from_u64(0xc0de_0006);
    for _ in 0..4000 {
        let i = rng.random_range(0..2usize);
        let _ = Request::decode(&mutate(&mut rng, &requests[i], &responses[i]));
        let _ = Response::decode(&mutate(&mut rng, &responses[i], &requests[i]));
    }
}
