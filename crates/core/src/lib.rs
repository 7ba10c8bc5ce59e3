//! # replay-core
//!
//! The rePLay micro-operation optimizer — the primary contribution of
//! *Dynamic Optimization of Micro-Operations* (HPCA 2003), §3–§4.
//!
//! The optimizer receives atomic frames from the frame constructor and
//! rewrites them using seven optimizations, three of them aggressive /
//! speculative:
//!
//! | Pass | Paper name | What it does |
//! |------|-----------|--------------|
//! | NOP removal | NOP | removes `NOP`s and intra-frame unconditional jumps |
//! | constant propagation | CP | folds constants through the dataflow graph; deletes trivially-true target assertions (e.g. `RET` to a known call site) |
//! | reassociation | RA | flattens add-immediate chains (stack-pointer updates) into the consumers' displacements; includes copy propagation |
//! | common-subexpression elimination | CSE | including redundant **load** elimination (speculatively across may-alias stores) |
//! | store forwarding | SF | speculative across may-alias stores via **unsafe store** marking |
//! | value-assertion fusion | ASST | fuses `CMP`/`TEST` + assertion into one uop |
//! | dead-code elimination | — | always enabled (every other pass relies on it) |
//!
//! Frames are first **remapped** (§4): the uop at buffer slot *m* writes
//! physical register *m*, so an operand's physical register number *is* the
//! index of its producer — the hardware's parent lookup is an array read.
//! Dataflow traversal, use counting, and the live-in/live-out marking of
//! Figure 4 all fall out of this representation; see [`OptFrame`].
//!
//! The crate also models the optimizer *datapath* latency (§4, §5.1.4): a
//! pipelined engine processing 10 cycles per uop with a configurable number
//! of pipeline stages; see [`OptimizerDatapath`].
//!
//! # Example
//!
//! ```
//! use replay_core::{optimize, AliasProfile, OptConfig};
//! use replay_frame::{Frame, FrameId};
//! use replay_uop::{ArchReg, Uop};
//!
//! // Two PUSHes: their stack updates merge and one uop disappears.
//! let frame = Frame {
//!     id: FrameId(0),
//!     start_addr: 0x1000,
//!     uops: vec![
//!         Uop::store(ArchReg::Esp, -4, ArchReg::Ebp),
//!         Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
//!         Uop::store(ArchReg::Esp, -4, ArchReg::Ebx),
//!         Uop::lea(ArchReg::Esp, ArchReg::Esp, None, 1, -4),
//!         Uop::load(ArchReg::Ecx, ArchReg::Esp, 0xc),
//!         Uop::load(ArchReg::Ebx, ArchReg::Esp, 0x10),
//!         Uop::mov_imm(ArchReg::Eax, 0),
//!         Uop::nop(),
//!     ],
//!     x86_addrs: vec![0x1000],
//!     block_starts: vec![0],
//!     expectations: vec![],
//!     exit_next: 0x2000,
//!     orig_uop_count: 8,
//! };
//! let (optimized, stats) = optimize(&frame, &AliasProfile::empty(), &OptConfig::default());
//! assert!(stats.removed_uops() >= 2);
//! assert!(optimized.uop_count() < 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alias;
mod datapath;
mod exec;
mod frame_ir;
mod fxhash;
mod ir;
pub mod passes;
mod passid;
mod pipeline;
mod plan;
mod schedule;
mod stats;

pub use alias::AliasProfile;
pub use datapath::{DatapathConfig, OptimizerDatapath};
pub use exec::{exec_frame, probe_frame, ExecScratch, FrameOutcome, MemTransaction, ProbeOutcome};
pub use frame_ir::OptFrame;
pub use ir::{FlagsSrc, Operand, OptUop, Slot, Src};
pub use passid::{run_pass, PassId};
pub use pipeline::{observe_opt_totals, optimize, optimize_timed, OptConfig, OptScope, OptTimings};
pub use plan::{ExecPlan, PlanScratch};
pub use schedule::reschedule;
pub use stats::OptStats;
