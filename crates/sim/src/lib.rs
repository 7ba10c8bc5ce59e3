//! # replay-sim
//!
//! The complete simulation environment of Figure 5 in the paper: the
//! **Micro-Op Injector** (trace reader + x86→uop translator), the
//! **rePLay Engine** (frame constructor → optimization engine → frame
//! cache), the **Timing Model**, and the **State Verifier**, wired together
//! for the four evaluated processor configurations:
//!
//! | Config | Meaning |
//! |--------|---------|
//! | [`ConfigKind::ICache`] | 64 kB instruction cache, conventional fetch (IC) |
//! | [`ConfigKind::TraceCache`] | 16K-uop trace cache + 8 kB ICache, fill unit builds ≤3-branch traces (TC) |
//! | [`ConfigKind::Replay`] | rePLay frames without optimization (RP) |
//! | [`ConfigKind::ReplayOpt`] | rePLay frames with the full optimizer (RPO) |
//!
//! [`simulate`] drives one trace through one configuration;
//! [`experiment`] contains the multi-workload drivers that regenerate
//! every table and figure of the paper's evaluation (see `EXPERIMENTS.md`
//! at the repository root), each a fold over one shared grid of
//! workloads × configurations; [`sweep`] runs the adversarial stress
//! sweep over the same grid. The grid fans its independent `(workload,
//! segment, configuration)` jobs across a scoped worker pool
//! ([`parallel`], sized by the caller, e.g. with [`parallel::job_count`]:
//! `REPLAY_JOBS` or the core count) and shares synthesized traces through
//! the process-wide [`TraceStore`];
//! because every job is pure and results merge in submission order, the
//! numbers are bit-identical at every worker count.
//!
//! # Example
//!
//! ```
//! use replay_sim::{simulate, ConfigKind, SimConfig};
//! use replay_trace::workloads;
//!
//! let trace = workloads::by_name("crafty").unwrap().segment_trace(0, 4_000);
//! let rp = simulate(&trace, &SimConfig::new(ConfigKind::Replay));
//! let rpo = simulate(&trace, &SimConfig::new(ConfigKind::ReplayOpt));
//! assert!(rpo.opt_stats.removed_uops() > 0, "optimizer removed uops");
//! assert_eq!(rp.x86_retired, rpo.x86_retired, "same work retired");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
pub mod experiment;
mod framestore;
mod injector;
pub mod output;
pub mod parallel;
pub mod report;
mod result;
mod runner;
pub mod sweep;
mod tracecache;
mod tracestore;

pub use config::{ConfigKind, SimConfig};
pub use injector::Injector;
pub use replay_timing::CoreModel;
pub use result::SimResult;
pub use runner::simulate;
pub use tracecache::{TraceEntry, TraceFiller};
pub use tracestore::TraceStore;
