//! # replay-timing
//!
//! The trace-driven timing model (§5.1.2 of the paper), parameterized by
//! the Table 2 processor configuration:
//!
//! * 8-wide fetch/issue/retire, 4 x86 decoders per cycle on the ICache
//!   path, 15 cycles minimum from branch fetch to branch resolution;
//! * 18-bit gshare predictor plus a BTB for taken/indirect targets;
//! * 512-entry scheduling window;
//! * 6 simple ALUs, 2 complex ALUs, 4 load/store units (Table 2's 3 FPUs
//!   have no opcode in the integer-only uop ISA and are not modeled);
//! * 32 kB L1 data cache (2-cycle hit), 512 kB L2 (10-cycle), 50-cycle
//!   memory, and an 8 kB (or 64 kB) instruction cache.
//!
//! One scheduler serves two selectable execution-core models
//! ([`CoreModel`]), which differ only in their [`PortTable`]: the paper's
//! class-banked unit pool above ([`PortTable::table2`]), and a port- and
//! latency-accurate model with named issue ports and uops.info-seeded
//! per-opcode latencies ([`PortTable::uops_info`]) for re-evaluating the
//! paper's results on a modern port-constrained machine.
//!
//! The model is *fetch-centric*: every cycle is attributed to exactly one
//! of the seven bins of the paper's Figures 7/8 — `assert`, `mispred`,
//! `miss`, `stall`, `wait`, `frame`, `icache` — making the cycle-breakdown
//! figures directly reproducible ([`CycleBins`]).
//!
//! Wrong-path effects are not simulated (trace-driven, like the paper):
//! mispredicted branches charge resolution latency but fetch no wrong-path
//! instructions; the only wrong-path modeling is for asserting frames,
//! whose covered instructions are refetched from the ICache after a
//! pessimistic recovery (§6.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod accounting;
mod cache;
mod config;
mod pipeline;
mod ports;
mod predictor;

pub use accounting::{CycleBin, CycleBins};
pub use cache::{Cache, CacheConfig};
pub use config::TimingConfig;
pub use pipeline::{FetchPath, FrameFetch, Pipeline, PipelineStats, X86Fetch};
pub use ports::{CoreModel, Port, PortBinding, PortConfigError, PortSet, PortTable};
pub use predictor::{Btb, Gshare};
