//! The synthetic workload suite (Table 1 stand-ins).
//!
//! Fourteen parameterized x86 programs named after the paper's workloads:
//! seven SPECint 2000 benchmarks and seven Winstone desktop applications.
//! Each program is a long-running hot loop whose body is assembled from
//! weighted *phrases* — small idiomatic x86 code patterns that exercise
//! specific optimizer opportunities:
//!
//! | Phrase | x86 idiom | optimizer opportunity |
//! |--------|-----------|----------------------|
//! | leaf call | `PUSH args; CALL; ADD ESP` + prologue/epilogue | store forwarding, reassociation, return-target assertions |
//! | redundant loads | repeated `[reg]` reads, some hidden behind `LEA` chains | CSE / redundant-load elimination (RA-gated) |
//! | stack spill | `PUSH`/`POP` save-restore pairs | store forwarding + stack-update merging |
//! | arith chain | dependent ALU sequences | tree height, constant propagation |
//! | biased branch | table-driven, ~97% one direction | branch → assertion conversion |
//! | unbiased branch | coin-flip direction | frame terminators (coverage control) |
//! | alias store | store through a pointer that *sometimes* hits a hot slot | speculative memory optimization + unsafe-store aborts |
//! | table walk | indexed loads | fetch/memory bandwidth |
//! | store burst | consecutive stores | store bandwidth |
//! | nop pad | alignment `NOP`s | NOP removal |
//! | div chain | `CDQ`/`DIV` | complex-ALU occupancy |
//! | switch jump | indirect jump through a table | indirect-target assertions, frame terminators |
//!
//! The per-application phrase weights are tuned so that the *shape* of the
//! paper's per-application results carries over: `gzip` has little
//! removable redundancy, `power`/`dream` have the most, `excel` aliases
//! often enough that speculative store forwarding backfires (Figure 10),
//! SPEC programs have higher frame coverage than desktop programs (§6.1).

use crate::{ProgramBuilder, Trace, TraceRecord};
use replay_rng::SmallRng;
use replay_x86::{AluOp, CondX86, Gpr, Inst, Interp, Label, MemOperand, Program, ShiftOp};

const CODE_BASE: u32 = 0x0040_0000;
const DATA_BASE: u32 = 0x1000_0000;
const TABLE_LEN: usize = 256;
/// Tables are allocated at twice the index range so that per-phrase static
/// offsets (`[table + EDI*4 + off]`) stay in bounds.
const TABLE_WORDS: usize = TABLE_LEN * 2;

/// Which suite a workload belongs to (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECint 2000.
    SpecInt,
    /// Winstone desktop applications.
    Desktop,
}

#[derive(Debug, Clone, Copy)]
enum Phrase {
    LeafCall,
    RedundantLoads,
    StackSpill,
    ArithChain,
    BiasedBranch,
    UnbiasedBranch,
    AliasStore,
    TableWalk,
    StoreBurst,
    NopPad,
    DivChain,
    SwitchJump,
    /// A cluster of unpredictable branches separated by single
    /// instructions: frames constructed here are below the minimum size
    /// and are discarded, producing genuinely frame-free regions (the
    /// coverage gap between SPEC and desktop applications, §6.1).
    BranchMaze,
}

const PHRASES: [Phrase; 13] = [
    Phrase::LeafCall,
    Phrase::RedundantLoads,
    Phrase::StackSpill,
    Phrase::ArithChain,
    Phrase::BiasedBranch,
    Phrase::UnbiasedBranch,
    Phrase::AliasStore,
    Phrase::TableWalk,
    Phrase::StoreBurst,
    Phrase::NopPad,
    Phrase::DivChain,
    Phrase::SwitchJump,
    Phrase::BranchMaze,
];

/// Per-application generation parameters.
///
/// Public so the stress sweep (`replay_sim::sweep`) can walk this space
/// directly: a point in `GenParams` *is* a synthetic program, and
/// [`Workload::custom`] turns one into a runnable [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenParams {
    /// Seed of the workload's own phrase/table generator.
    pub seed: u64,
    /// Number of phrases in the loop body.
    pub body_phrases: usize,
    /// Weights over the 13 phrases, in [`PHRASE_NAMES`] order.
    pub weights: [u32; 13],
    /// Probability a biased-branch table entry points the dominant way.
    pub bias_frac: f64,
    /// Probability a pointer-table entry aliases the hot slot.
    pub alias_rate: f64,
    /// Desktop style: leaf functions shared between call sites (their
    /// `RET`s see multiple return targets and terminate frames).
    pub shared_callees: bool,
    /// Probability a switch-table entry selects a non-dominant case.
    pub switch_varied: f64,
    /// Emit a rare serializing long-flow instruction.
    pub longflow: bool,
}

/// Human-readable names of the 13 phrase-weight slots, in the order
/// [`GenParams::weights`] uses.
pub const PHRASE_NAMES: [&str; 13] = [
    "leaf_call",
    "redundant_loads",
    "stack_spill",
    "arith_chain",
    "biased_branch",
    "unbiased_branch",
    "alias_store",
    "table_walk",
    "store_burst",
    "nop_pad",
    "div_chain",
    "switch_jump",
    "branch_maze",
];

/// Version of the synthetic-workload generator. Bump whenever
/// `build_program` or the phrase vocabulary changes the traces a given
/// [`Workload`] produces: the version participates in every persisted
/// trace artifact's key, so bumping it invalidates stale cache entries
/// without touching the artifact container format.
pub const GENERATOR_VERSION: u32 = 1;

/// A named synthetic workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Application name (paper Table 1, or a synthesized clone's name).
    pub name: String,
    /// Benchmark suite.
    pub suite: Suite,
    /// Number of trace segments (paper Table 1: desktop applications ship
    /// as 2–3 separate hot-spot traces).
    pub segments: usize,
    /// Default dynamic length per segment, in x86 instructions (scaled
    /// down from the paper's 50–300 M).
    pub default_segment_len: usize,
    params: GenParams,
}

impl Workload {
    /// Builds a workload directly from generation parameters — the entry
    /// point for synthesized (cloned/swept) workloads that are not part of
    /// the pinned Table 1 suite.
    pub fn custom(
        name: impl Into<String>,
        suite: Suite,
        segments: usize,
        default_segment_len: usize,
        params: GenParams,
    ) -> Workload {
        assert!(segments >= 1, "workload needs at least one segment");
        Workload {
            name: name.into(),
            suite,
            segments,
            default_segment_len,
            params,
        }
    }

    /// The generation parameters this workload's programs are built from.
    pub fn params(&self) -> &GenParams {
        &self.params
    }

    /// Builds the program (and data image) for one trace segment.
    ///
    /// # Panics
    ///
    /// Panics if `segment >= self.segments`.
    pub fn segment_program(&self, segment: usize) -> (Program, Vec<(u32, Vec<u8>)>) {
        assert!(segment < self.segments, "segment out of range");
        let mut params = self.params;
        params.seed = params
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(segment as u64 + 1));
        build_program(&params)
    }

    /// Generates one segment's dynamic trace of at most `max_x86`
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if the generated program faults — that would be a generator
    /// bug, and the workload tests guard against it.
    pub fn segment_trace(&self, segment: usize, max_x86: usize) -> Trace {
        let (program, data) = self.segment_program(segment);
        let mut interp = Interp::new(program);
        for (addr, bytes) in &data {
            interp.machine.mem.write_bytes(*addr, bytes);
        }
        let mut init_regs = [0u32; replay_uop::NUM_ARCH_REGS];
        for r in replay_uop::ArchReg::ALL {
            init_regs[r.index()] = interp.machine.reg(r);
        }
        let init_flags = interp.machine.flags().to_bits();
        let steps = interp
            .run(max_x86)
            .unwrap_or_else(|e| panic!("workload {} faulted: {e}", self.name));
        Trace::new(
            format!("{}.{}", self.name, segment),
            steps.iter().map(TraceRecord::from_step).collect(),
        )
        .with_init(init_regs, init_flags)
    }

    /// Generates every segment at its default length.
    pub fn traces(&self) -> Vec<Trace> {
        self.traces_scaled(self.default_segment_len)
    }

    /// Generates every segment at a chosen per-segment length.
    pub fn traces_scaled(&self, per_segment: usize) -> Vec<Trace> {
        (0..self.segments)
            .map(|s| self.segment_trace(s, per_segment))
            .collect()
    }

    /// Stable digest of everything that determines this workload's
    /// generated traces: the generator version and every generation
    /// parameter (seed, phrase weights, behavioral probabilities — float
    /// parameters by bit pattern). Two workloads digest equal iff
    /// [`Workload::segment_trace`] is the same function of
    /// `(segment, scale)` for both.
    pub fn spec_digest(&self) -> u64 {
        let mut d = replay_store::Digest64::new();
        d.write_u32(GENERATOR_VERSION);
        d.write_str(&self.name);
        d.write_u8(match self.suite {
            Suite::SpecInt => 0,
            Suite::Desktop => 1,
        });
        d.write_usize(self.segments);
        d.write_usize(self.default_segment_len);
        let p = &self.params;
        d.write_u64(p.seed);
        d.write_usize(p.body_phrases);
        for w in p.weights {
            d.write_u32(w);
        }
        d.write_f64(p.bias_frac);
        d.write_f64(p.alias_rate);
        d.write_bool(p.shared_callees);
        d.write_f64(p.switch_varied);
        d.write_bool(p.longflow);
        d.finish()
    }
}

/// All fourteen workloads, in the paper's Table 1 order.
pub fn all() -> Vec<Workload> {
    // One argument per Table 1 / GenParams column; a struct would just
    // duplicate `GenParams` field-for-field.
    #[allow(clippy::too_many_arguments)]
    fn w(
        name: &'static str,
        suite: Suite,
        segments: usize,
        default_segment_len: usize,
        seed: u64,
        body_phrases: usize,
        weights: [u32; 13],
        bias_frac: f64,
        alias_rate: f64,
        switch_varied: f64,
    ) -> Workload {
        Workload {
            name: name.to_string(),
            suite,
            segments,
            default_segment_len,
            params: GenParams {
                seed,
                body_phrases,
                weights,
                bias_frac,
                alias_rate,
                shared_callees: suite == Suite::Desktop,
                switch_varied,
                longflow: true,
            },
        }
    }
    use Suite::*;
    vec![
        //                                              LC RL SP AC BB UB AS TW SB NP DV SW BM
        w(
            "bzip2",
            SpecInt,
            1,
            100_000,
            0xb21b,
            30,
            [1, 4, 2, 8, 6, 0, 0, 12, 2, 0, 0, 0, 2],
            0.998,
            0.00,
            0.02,
        ),
        w(
            "gzip",
            SpecInt,
            1,
            100_000,
            0x6219,
            30,
            [1, 2, 2, 17, 8, 4, 0, 17, 4, 0, 0, 2, 4],
            0.996,
            0.00,
            0.10,
        ),
        w(
            "crafty",
            SpecInt,
            1,
            100_000,
            0xc4af,
            32,
            [2, 0, 0, 18, 12, 2, 0, 15, 2, 1, 0, 2, 2],
            0.996,
            0.00,
            0.05,
        ),
        w(
            "eon",
            SpecInt,
            1,
            100_000,
            0xe0e0,
            30,
            [4, 1, 1, 16, 5, 0, 0, 5, 2, 0, 2, 0, 2],
            0.997,
            0.00,
            0.02,
        ),
        w(
            "parser",
            SpecInt,
            1,
            100_000,
            0x9a45,
            32,
            [2, 2, 1, 12, 8, 2, 0, 10, 2, 1, 0, 2, 4],
            0.996,
            0.00,
            0.08,
        ),
        w(
            "twolf",
            SpecInt,
            1,
            100_000,
            0x2201,
            32,
            [1, 1, 1, 13, 10, 3, 2, 21, 3, 0, 0, 3, 3],
            0.996,
            0.02,
            0.02,
        ),
        w(
            "vortex",
            SpecInt,
            1,
            100_000,
            0x7063,
            32,
            [4, 2, 2, 9, 7, 0, 0, 6, 4, 1, 0, 0, 2],
            0.997,
            0.00,
            0.03,
        ),
        w(
            "access",
            Desktop,
            2,
            60_000,
            0xacc5,
            32,
            [5, 2, 2, 9, 8, 2, 1, 8, 4, 2, 0, 4, 6],
            0.996,
            0.05,
            0.06,
        ),
        w(
            "dream",
            Desktop,
            2,
            60_000,
            0xd4ea,
            32,
            [5, 4, 4, 6, 6, 1, 0, 4, 3, 2, 0, 1, 4],
            0.996,
            0.02,
            0.05,
        ),
        w(
            "excel",
            Desktop,
            3,
            60_000,
            0xe8ce,
            32,
            [2, 2, 2, 7, 5, 1, 6, 4, 3, 1, 0, 3, 4],
            0.996,
            0.05,
            0.05,
        ),
        w(
            "lotus",
            Desktop,
            2,
            60_000,
            0x107a,
            32,
            [2, 3, 2, 7, 6, 2, 1, 6, 3, 1, 0, 3, 5],
            0.996,
            0.05,
            0.06,
        ),
        w(
            "photo",
            Desktop,
            2,
            60_000,
            0xf070,
            32,
            [2, 2, 2, 19, 6, 2, 1, 8, 4, 1, 4, 1, 6],
            0.996,
            0.02,
            0.03,
        ),
        w(
            "power",
            Desktop,
            3,
            60_000,
            0x9035,
            34,
            [7, 2, 3, 4, 4, 2, 0, 3, 2, 3, 0, 1, 6],
            0.997,
            0.02,
            0.03,
        ),
        w(
            "sound",
            Desktop,
            3,
            60_000,
            0x50d4,
            32,
            [3, 4, 3, 12, 7, 2, 1, 7, 3, 1, 2, 2, 5],
            0.996,
            0.02,
            0.05,
        ),
    ]
}

/// Looks a workload up by its Table 1 name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

struct Ctx {
    bias_table: u32,
    coin_table: u32,
    data_table: u32,
    ptr_table: u32,
    hot_slot: u32,
    scratch: u32,
    shared_callees: Vec<Label>,
    pending_callees: Vec<Label>,
    switch_varied: f64,
}

/// `[table + EDI*4 + off]` — per-phrase static offsets keep distinct
/// phrases on distinct addresses, so only *genuine* redundancy (the same
/// phrase re-entered within a frame, or deliberate repeats) is removable.
fn indexed(table: u32, off: i32) -> MemOperand {
    MemOperand {
        base: None,
        index: Some((Gpr::Edi, 4)),
        disp: table as i32 + off,
    }
}

/// A random word offset into the upper half of a doubled table.
fn word_off(rng: &mut SmallRng) -> i32 {
    4 * rng.random_range(0..TABLE_LEN as i32)
}

fn build_program(p: &GenParams) -> (Program, Vec<(u32, Vec<u8>)>) {
    let mut rng = SmallRng::seed_from_u64(p.seed);
    let mut b = ProgramBuilder::new(CODE_BASE, DATA_BASE);

    // ---------------- data tables ----------------
    let bias_table = {
        let words: Vec<u32> = (0..TABLE_WORDS)
            .map(|_| u32::from(rng.random_bool(p.bias_frac)))
            .collect();
        b.alloc_words(&words)
    };
    let coin_table = {
        let words: Vec<u32> = (0..TABLE_WORDS)
            .map(|_| u32::from(rng.random_bool(0.5)))
            .collect();
        b.alloc_words(&words)
    };
    let data_table = {
        let words: Vec<u32> = (0..TABLE_WORDS)
            .map(|_| rng.random_range(1..1000u32))
            .collect();
        b.alloc_words(&words)
    };
    let scratch = b.alloc_words(&vec![0u32; TABLE_LEN]);
    let hot_slot = b.alloc_words(&[0]);
    let ptr_table = {
        let mut words = Vec::with_capacity(TABLE_LEN);
        for i in 0..TABLE_LEN {
            if rng.random_bool(p.alias_rate) {
                words.push(hot_slot);
            } else {
                words.push(scratch + 4 * ((i as u32 * 7) % TABLE_LEN as u32));
            }
        }
        b.alloc_words(&words)
    };

    let mut ctx = Ctx {
        bias_table,
        coin_table,
        data_table,
        ptr_table,
        hot_slot,
        scratch,
        shared_callees: Vec::new(),
        pending_callees: Vec::new(),
        switch_varied: p.switch_varied,
    };

    // ---------------- code ----------------
    let main = b.asm.new_label();
    b.asm.jmp(main); // entry hop over callee bodies

    if p.shared_callees {
        for _ in 0..3 {
            let l = b.asm.new_label();
            b.asm.bind(l);
            emit_callee(&mut b, &mut rng);
            ctx.shared_callees.push(l);
        }
    }

    b.asm.bind(main);
    // Loop state lives in registers, as compiled code would keep it: EBP
    // is the (callee-saved) trip counter, EDI the table index.
    b.asm.push(Inst::MovRI {
        dst: Gpr::Ebp,
        imm: 0x7fff_ffff,
    });
    b.asm.push(Inst::AluRR {
        op: AluOp::Xor,
        dst: Gpr::Edi,
        src: Gpr::Edi,
    });
    let top = b.asm.new_label();
    let exit = b.asm.new_label();
    b.asm.bind(top);
    // Exit branch essentially never taken (the trace budget ends first).
    b.asm.push(Inst::DecR { r: Gpr::Ebp });
    b.asm.jcc(CondX86::Z, exit);
    b.asm.push(Inst::IncR { r: Gpr::Edi });
    b.asm.push(Inst::AluRI {
        op: AluOp::And,
        dst: Gpr::Edi,
        imm: (TABLE_LEN - 1) as i32,
    });

    // Body: deterministic phrase counts proportional to the weights (so a
    // workload's character does not depend on sampling luck), in a
    // shuffled order.
    let total: u32 = p.weights.iter().sum();
    assert!(total > 0, "profile has no phrase weights");
    let mut body: Vec<Phrase> = Vec::with_capacity(p.body_phrases);
    let mut acc = 0u32;
    let mut emitted = 0u32;
    for (ph, w) in PHRASES.iter().zip(p.weights) {
        acc += w * p.body_phrases as u32;
        let want = acc / total;
        for _ in emitted..want {
            body.push(*ph);
        }
        emitted = want;
    }
    // Fisher-Yates shuffle with the workload's own generator.
    for i in (1..body.len()).rev() {
        let j = rng.random_range(0..=i);
        body.swap(i, j);
    }
    let mid = body.len() / 2;
    for (n, phrase) in body.into_iter().enumerate() {
        emit_phrase(&mut b, &mut ctx, &mut rng, phrase);
        // A serializing instruction guarded to execute on one iteration in
        // 256 — well under the paper's <0.05% of the dynamic stream.
        if p.longflow && n == mid {
            let skip = b.asm.new_label();
            b.asm.push(Inst::CmpRI {
                a: Gpr::Edi,
                imm: rng.random_range(0..TABLE_LEN as i32),
            });
            b.asm.jcc(CondX86::Nz, skip);
            b.asm.push(Inst::LongFlow);
            b.asm.bind(skip);
        }
    }

    b.asm.jmp(top);
    b.asm.bind(exit);
    b.asm.push(Inst::Ret);

    // Private callees referenced by the body.
    for l in std::mem::take(&mut ctx.pending_callees) {
        b.asm.bind(l);
        emit_callee(&mut b, &mut rng);
    }

    b.finish()
}

/// A leaf function in the paper's Figure 2 shape.
fn emit_callee(b: &mut ProgramBuilder, rng: &mut SmallRng) {
    let skip = b.asm.new_label();
    b.asm.push(Inst::PushR { src: Gpr::Ebp });
    b.asm.push(Inst::PushR { src: Gpr::Ebx });
    b.asm.push(Inst::MovRM {
        dst: Gpr::Ecx,
        mem: MemOperand::base_disp(Gpr::Esp, 0xc),
    });
    b.asm.push(Inst::MovRM {
        dst: Gpr::Ebx,
        mem: MemOperand::base_disp(Gpr::Esp, 0x10),
    });
    b.asm.push(Inst::AluRR {
        op: AluOp::Xor,
        dst: Gpr::Eax,
        src: Gpr::Eax,
    });
    b.asm.push(Inst::MovRR {
        dst: Gpr::Edx,
        src: Gpr::Ecx,
    });
    b.asm.push(Inst::AluRR {
        op: AluOp::Or,
        dst: Gpr::Edx,
        src: Gpr::Ebx,
    });
    b.asm.jcc(CondX86::Z, skip); // args never both zero: biased not-taken
    b.asm.push(Inst::AluRR {
        op: AluOp::Add,
        dst: Gpr::Eax,
        src: Gpr::Ecx,
    });
    if rng.random_bool(0.5) {
        b.asm.push(Inst::ImulRRI {
            dst: Gpr::Eax,
            src: Gpr::Eax,
            imm: rng.random_range(2..7),
        });
    }
    b.asm.bind(skip);
    b.asm.push(Inst::PopR { dst: Gpr::Ebx });
    b.asm.push(Inst::PopR { dst: Gpr::Ebp });
    b.asm.push(Inst::Ret);
}

fn emit_phrase(b: &mut ProgramBuilder, ctx: &mut Ctx, rng: &mut SmallRng, phrase: Phrase) {
    match phrase {
        Phrase::LeafCall => {
            // Second argument is a nonzero immediate so the callee's guard
            // branch stays biased.
            b.asm.push(Inst::PushI {
                imm: rng.random_range(1..100),
            });
            b.asm.push(Inst::PushR { src: Gpr::Esi });
            let callee = if ctx.shared_callees.is_empty() {
                let l = b.asm.new_label();
                ctx.pending_callees.push(l);
                l
            } else {
                ctx.shared_callees[rng.random_range(0..ctx.shared_callees.len())]
            };
            b.asm.call(callee);
            b.asm.push(Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::Esp,
                imm: 8,
            });
        }
        Phrase::RedundantLoads => {
            let k = 4 * rng.random_range(0..TABLE_LEN as i32);
            let j = 4 * rng.random_range(0..TABLE_LEN as i32);
            b.asm.push(Inst::MovRI {
                dst: Gpr::Esi,
                imm: (ctx.data_table as i32) + k,
            });
            b.asm.push(Inst::MovRM {
                dst: Gpr::Eax,
                mem: MemOperand::base_disp(Gpr::Esi, 0),
            });
            b.asm.push(Inst::AluRM {
                op: AluOp::Add,
                dst: Gpr::Eax,
                mem: MemOperand::base_disp(Gpr::Esi, 4),
            });
            // The first location again, hidden behind pointer arithmetic —
            // only reassociation exposes the redundancy.
            b.asm.push(Inst::Lea {
                dst: Gpr::Ebx,
                mem: MemOperand::base_disp(Gpr::Esi, 8),
            });
            b.asm.push(Inst::MovRM {
                dst: Gpr::Edx,
                mem: MemOperand::base_disp(Gpr::Ebx, -8),
            });
            b.asm.push(Inst::AluRR {
                op: AluOp::Add,
                dst: Gpr::Edx,
                src: Gpr::Eax,
            });
            b.asm.push(Inst::MovMR {
                mem: MemOperand::absolute(ctx.scratch + j as u32),
                src: Gpr::Edx,
            });
        }
        Phrase::StackSpill => {
            b.asm.push(Inst::PushR { src: Gpr::Esi });
            b.asm.push(Inst::PushR { src: Gpr::Edx });
            b.asm.push(Inst::MovRR {
                dst: Gpr::Esi,
                src: Gpr::Edx,
            });
            b.asm.push(Inst::ShiftRI {
                op: ShiftOp::Shl,
                r: Gpr::Esi,
                imm: rng.random_range(1..4),
            });
            b.asm.push(Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::Esi,
                imm: rng.random_range(1..64),
            });
            b.asm.push(Inst::PopR { dst: Gpr::Edx });
            b.asm.push(Inst::PopR { dst: Gpr::Esi });
        }
        Phrase::ArithChain => {
            // Dependent ALU work computed *in place* on the accumulator,
            // the way a register allocator would emit it: no removable
            // copies, and no two consecutive foldable add-immediates.
            if rng.random_bool(0.10) {
                // Occasional constant rematerialization (CP food).
                b.asm.push(Inst::MovRI {
                    dst: Gpr::Edx,
                    imm: rng.random_range(1..1000),
                });
            }
            let mut last_was_add = false;
            for _ in 0..rng.random_range(3..6usize) {
                let choice = rng.random_range(0..5);
                match choice {
                    0 if !last_was_add => {
                        b.asm.push(Inst::AluRI {
                            op: AluOp::Add,
                            dst: Gpr::Esi,
                            imm: rng.random_range(1..256),
                        });
                        last_was_add = true;
                        continue;
                    }
                    1 => b.asm.push(Inst::ShiftRI {
                        op: ShiftOp::Shl,
                        r: Gpr::Esi,
                        imm: rng.random_range(1..3),
                    }),
                    2 => b.asm.push(Inst::AluRI {
                        op: AluOp::Xor,
                        dst: Gpr::Esi,
                        imm: rng.random_range(1..0xffff),
                    }),
                    3 => b.asm.push(Inst::AluRR {
                        op: AluOp::Add,
                        dst: Gpr::Esi,
                        src: Gpr::Edx,
                    }),
                    _ => b.asm.push(Inst::ImulRRI {
                        dst: Gpr::Esi,
                        src: Gpr::Esi,
                        imm: rng.random_range(3..7),
                    }),
                }
                last_was_add = false;
            }
        }
        Phrase::BiasedBranch => {
            let skip = b.asm.new_label();
            // MOV + CMP-with-memory: the compare decodes to a load uop and
            // a compare uop.
            b.asm.push(Inst::MovRI {
                dst: Gpr::Eax,
                imm: 0,
            });
            b.asm.push(Inst::CmpRM {
                a: Gpr::Eax,
                mem: indexed(ctx.bias_table, word_off(rng)),
            });
            b.asm.jcc(CondX86::Nz, skip);
            b.asm.push(Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::Esi,
                imm: 1,
            });
            b.asm.push(Inst::AluRI {
                op: AluOp::Xor,
                dst: Gpr::Edx,
                imm: 3,
            });
            b.asm.bind(skip);
        }
        Phrase::UnbiasedBranch => {
            // Direction = parity of a table word mixed with the rolling
            // accumulator: unpredictable *and* aperiodic, so the bias
            // table never falsely converts it.
            let other = b.asm.new_label();
            let merge = b.asm.new_label();
            b.asm.push(Inst::MovRR {
                dst: Gpr::Eax,
                src: Gpr::Esi,
            });
            b.asm.push(Inst::AluRM {
                op: AluOp::Add,
                dst: Gpr::Eax,
                mem: indexed(ctx.data_table, word_off(rng)),
            });
            b.asm.push(Inst::TestRI {
                a: Gpr::Eax,
                imm: 1,
            });
            b.asm.jcc(CondX86::Nz, other);
            b.asm.push(Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::Edx,
                imm: 1,
            });
            b.asm.jmp(merge);
            b.asm.bind(other);
            b.asm.push(Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::Edx,
                imm: 2,
            });
            b.asm.bind(merge);
        }
        Phrase::AliasStore => {
            b.asm.push(Inst::MovRM {
                dst: Gpr::Esi,
                mem: indexed(ctx.ptr_table, 0),
            });
            b.asm.push(Inst::MovRM {
                dst: Gpr::Eax,
                mem: indexed(ctx.data_table, word_off(rng)),
            });
            // Store to the hot slot, store through the pointer (may
            // alias), reload the hot slot: speculative forwarding bait.
            b.asm.push(Inst::MovMR {
                mem: MemOperand::absolute(ctx.hot_slot),
                src: Gpr::Eax,
            });
            b.asm.push(Inst::MovMR {
                mem: MemOperand::base_disp(Gpr::Esi, 0),
                src: Gpr::Edx,
            });
            b.asm.push(Inst::MovRM {
                dst: Gpr::Ebx,
                mem: MemOperand::absolute(ctx.hot_slot),
            });
            b.asm.push(Inst::AluRI {
                op: AluOp::Add,
                dst: Gpr::Ebx,
                imm: 1,
            });
        }
        Phrase::TableWalk => {
            // Load-op form: the dense two-address x86 idiom that decodes
            // into two uops (`ADD reg, [mem]`).
            b.asm.push(Inst::AluRM {
                op: AluOp::Add,
                dst: Gpr::Esi,
                mem: indexed(ctx.data_table, word_off(rng)),
            });
            if rng.random_bool(0.5) {
                b.asm.push(Inst::AluRM {
                    op: AluOp::Xor,
                    dst: Gpr::Esi,
                    mem: indexed(ctx.coin_table, word_off(rng)),
                });
            }
        }
        Phrase::StoreBurst => {
            let j = 4 * rng.random_range(0..(TABLE_LEN as i32 - 4));
            b.asm.push(Inst::MovMR {
                mem: MemOperand::absolute(ctx.scratch + j as u32),
                src: Gpr::Esi,
            });
            b.asm.push(Inst::MovMI {
                mem: MemOperand::absolute(ctx.scratch + j as u32 + 4),
                imm: rng.random_range(0..4096),
            });
            // A read-modify-write (three uops from one instruction).
            b.asm.push(Inst::AluMR {
                op: AluOp::Add,
                mem: MemOperand::absolute(ctx.scratch + j as u32 + 8),
                src: Gpr::Edx,
            });
        }
        Phrase::NopPad => {
            for _ in 0..rng.random_range(1..4usize) {
                b.asm.push(Inst::Nop);
            }
        }
        Phrase::DivChain => {
            let k = 4 * rng.random_range(0..TABLE_LEN as u32);
            b.asm.push(Inst::MovRR {
                dst: Gpr::Eax,
                src: Gpr::Esi,
            });
            b.asm.push(Inst::Cdq);
            b.asm.push(Inst::MovRM {
                dst: Gpr::Ebx,
                mem: MemOperand::absolute(ctx.data_table + k),
            });
            b.asm.push(Inst::DivR { src: Gpr::Ebx });
            b.asm.push(Inst::AluRR {
                op: AluOp::Add,
                dst: Gpr::Esi,
                src: Gpr::Edx,
            });
        }
        Phrase::SwitchJump => {
            // Per-phrase index table: mostly case 0, sometimes others.
            let cases = 3usize;
            let words: Vec<u32> = (0..TABLE_LEN)
                .map(|_| {
                    if rng.random_bool(ctx.switch_varied) {
                        rng.random_range(1..cases as u32)
                    } else {
                        0
                    }
                })
                .collect();
            let idx_table = b.alloc_words(&words);
            let case_ptrs = b.reserve_words(cases);
            let merge = b.asm.new_label();
            b.asm.push(Inst::MovRM {
                dst: Gpr::Eax,
                mem: indexed(idx_table, 0),
            });
            b.asm.push(Inst::MovRM {
                dst: Gpr::Ebx,
                mem: MemOperand {
                    base: None,
                    index: Some((Gpr::Eax, 4)),
                    disp: case_ptrs as i32,
                },
            });
            b.asm.push(Inst::JmpInd { r: Gpr::Ebx });
            let mut case_addrs = Vec::with_capacity(cases);
            for c in 0..cases {
                case_addrs.push(b.asm.here());
                b.asm.push(Inst::AluRI {
                    op: AluOp::Add,
                    dst: Gpr::Edx,
                    imm: c as i32 + 1,
                });
                if c + 1 != cases {
                    b.asm.jmp(merge);
                }
            }
            b.asm.bind(merge);
            b.patch_words(case_ptrs, &case_addrs);
        }
        Phrase::BranchMaze => {
            // Three coin-flip branches in quick succession; any frame
            // started here dies under the 8-uop minimum. Directions mix a
            // table word with the rolling accumulator so they are
            // aperiodic (never falsely biased).
            for k in 0..3 {
                let other = b.asm.new_label();
                let merge = b.asm.new_label();
                b.asm.push(Inst::MovRR {
                    dst: Gpr::Eax,
                    src: Gpr::Esi,
                });
                b.asm.push(Inst::AluRM {
                    op: AluOp::Add,
                    dst: Gpr::Eax,
                    mem: indexed(ctx.data_table, word_off(rng)),
                });
                b.asm.push(Inst::TestRI {
                    a: Gpr::Eax,
                    imm: 1 << k,
                });
                b.asm.jcc(CondX86::Nz, other);
                b.asm.push(Inst::IncR { r: Gpr::Edx });
                b.asm.jmp(merge);
                b.asm.bind(other);
                b.asm.push(Inst::DecR { r: Gpr::Edx });
                b.asm.bind(merge);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_workloads_match_table1() {
        let ws = all();
        assert_eq!(ws.len(), 14);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::SpecInt).count(), 7);
        assert_eq!(ws.iter().filter(|w| w.suite == Suite::Desktop).count(), 7);
        // Table 1 segment counts.
        assert_eq!(by_name("excel").unwrap().segments, 3);
        assert_eq!(by_name("power").unwrap().segments, 3);
        assert_eq!(by_name("sound").unwrap().segments, 3);
        assert_eq!(by_name("access").unwrap().segments, 2);
        assert_eq!(by_name("bzip2").unwrap().segments, 1);
        assert!(by_name("nonesuch").is_none());
    }

    #[test]
    fn every_workload_runs_without_faulting() {
        for w in all() {
            for seg in 0..w.segments {
                let t = w.segment_trace(seg, 3_000);
                assert!(t.len() >= 2_900, "{} segment {seg} too short", w.name);
            }
        }
    }

    #[test]
    fn traces_are_deterministic() {
        let w = by_name("crafty").unwrap();
        let a = w.segment_trace(0, 2_000);
        let b = w.segment_trace(0, 2_000);
        assert_eq!(a.records(), b.records());
    }

    #[test]
    fn segments_differ() {
        let w = by_name("excel").unwrap();
        let a = w.segment_trace(0, 2_000);
        let b = w.segment_trace(1, 2_000);
        assert_ne!(a.records(), b.records());
    }

    #[test]
    fn branch_and_memory_mix_is_realistic() {
        for w in all() {
            let t = w.segment_trace(0, 5_000);
            let bf = t.branch_fraction();
            let mf = t.memory_fraction();
            assert!(
                (0.02..0.40).contains(&bf),
                "{}: branch fraction {bf}",
                w.name
            );
            assert!(
                (0.15..0.75).contains(&mf),
                "{}: memory fraction {mf}",
                w.name
            );
        }
    }

    #[test]
    fn excel_aliases_more_than_spec() {
        // The pointer table of excel actually hits the hot slot.
        let w = by_name("excel").unwrap();
        let t = w.segment_trace(0, 20_000);
        // Find stores to the hot slot issued through the pointer (i.e.
        // register-based stores landing on the absolute hot address used
        // by MovMR-to-hot in the same phrase).
        let mut hot_addrs = std::collections::HashMap::new();
        for r in t.records() {
            for (a, _) in &r.mem_writes {
                *hot_addrs.entry(*a).or_insert(0u32) += 1;
            }
        }
        // Some address is written through two different instructions
        // (absolute + pointer) — a genuine aliasing event.
        let max_writes = hot_addrs.values().copied().max().unwrap_or(0);
        assert!(max_writes > 100, "hot slot exists: {max_writes}");
    }

    #[test]
    fn spec_digest_is_sensitive_to_every_parameter() {
        // Satellite: any single-parameter change must change the digest.
        // A digest blind to one axis would let the trace cache serve a
        // stale trace for a perturbed clone.
        let base = by_name("crafty").unwrap();
        let d0 = base.spec_digest();

        let rebuilt = |params: GenParams| {
            Workload::custom(
                base.name.clone(),
                base.suite,
                base.segments,
                base.default_segment_len,
                params,
            )
            .spec_digest()
        };
        let p0 = *base.params();

        // Name / structural fields.
        let mut w2 = base.clone();
        w2.name = "crafty2".to_string();
        assert_ne!(w2.spec_digest(), d0, "name");
        assert_ne!(
            Workload::custom(
                base.name.clone(),
                Suite::Desktop,
                base.segments,
                base.default_segment_len,
                p0
            )
            .spec_digest(),
            d0,
            "suite"
        );
        assert_ne!(
            Workload::custom(
                base.name.clone(),
                base.suite,
                base.segments + 1,
                base.default_segment_len,
                p0
            )
            .spec_digest(),
            d0,
            "segments"
        );
        assert_ne!(
            Workload::custom(
                base.name.clone(),
                base.suite,
                base.segments,
                base.default_segment_len + 1,
                p0
            )
            .spec_digest(),
            d0,
            "default_segment_len"
        );

        // Generation parameters, one axis at a time.
        let mut p = p0;
        p.seed ^= 1;
        assert_ne!(rebuilt(p), d0, "seed");
        let mut p = p0;
        p.body_phrases += 1;
        assert_ne!(rebuilt(p), d0, "body_phrases");
        for (i, phrase) in PHRASE_NAMES.iter().enumerate() {
            let mut p = p0;
            p.weights[i] += 1;
            assert_ne!(rebuilt(p), d0, "weights[{i}] ({phrase})");
        }
        let mut p = p0;
        p.bias_frac += 0.001;
        assert_ne!(rebuilt(p), d0, "bias_frac");
        let mut p = p0;
        p.alias_rate += 0.001;
        assert_ne!(rebuilt(p), d0, "alias_rate");
        let mut p = p0;
        p.shared_callees = !p.shared_callees;
        assert_ne!(rebuilt(p), d0, "shared_callees");
        let mut p = p0;
        p.switch_varied += 0.001;
        assert_ne!(rebuilt(p), d0, "switch_varied");
        let mut p = p0;
        p.longflow = !p.longflow;
        assert_ne!(rebuilt(p), d0, "longflow");

        // And the identity case holds: rebuilding unchanged digests equal.
        assert_eq!(rebuilt(p0), d0, "unchanged params must digest equal");
    }

    #[test]
    fn custom_workload_matches_suite_twin() {
        // A `custom` workload rebuilt from a suite entry's own parameters
        // generates the identical trace (name participates in the trace
        // label only through Trace::name).
        let w = by_name("gzip").unwrap();
        let twin = Workload::custom(
            w.name.clone(),
            w.suite,
            w.segments,
            w.default_segment_len,
            *w.params(),
        );
        assert_eq!(twin.spec_digest(), w.spec_digest());
        assert_eq!(
            twin.segment_trace(0, 2_000).records(),
            w.segment_trace(0, 2_000).records()
        );
    }

    #[test]
    fn uop_ratio_near_paper() {
        // §5.1.1: average uop-to-x86 ratio ≈ 1.4.
        let mut total_x86 = 0u64;
        let mut total_uop = 0u64;
        for w in all() {
            let (program, data) = w.segment_program(0);
            let mut interp = Interp::new(program);
            for (addr, bytes) in &data {
                interp.machine.mem.write_bytes(*addr, bytes);
            }
            interp.run(5_000).unwrap();
            total_x86 += interp.translator().x86_count();
            total_uop += interp.translator().uop_count();
        }
        let ratio = total_uop as f64 / total_x86 as f64;
        assert!(
            (1.25..1.55).contains(&ratio),
            "uop/x86 ratio {ratio:.3} out of band"
        );
    }
}
