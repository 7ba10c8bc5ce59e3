//! # replay-trace
//!
//! Trace infrastructure for the rePLay reproduction.
//!
//! The paper's evaluation is driven by proprietary, hardware-generated
//! x86 traces from AMD (Windows NT "hot spots" of SPECint 2000 and desktop
//! applications, §5.2). Those traces are unobtainable, so this crate
//! substitutes **synthetic workloads**: fourteen parameterized x86 programs
//! named after the paper's applications, each tuned to the dynamic
//! characteristics that drive the paper's results — branch bias, stack and
//! call traffic, load redundancy, pointer aliasing, loop structure.
//!
//! A [`Workload`] is a real program for the [`replay_x86`] subset ISA.
//! Executing it on the functional interpreter produces a [`Trace`]: a
//! sequence of [`TraceRecord`]s carrying, for every dynamic x86
//! instruction, its register state changes and memory transactions — the
//! same record content the paper describes (§5.1.1). [`record_run`] is
//! the one recording loop: it fills each record from its instruction's
//! uop effects as the interpreter executes them, with no per-record heap
//! object, and every trace built from an interpreter (including
//! [`Workload::segment_trace`]) goes through it. Traces can be saved
//! and reloaded in a compact binary format ([`write_trace`] /
//! [`read_trace`]).
//!
//! Trace lengths are scaled down from the paper's 50–300 M instructions to
//! the 100 K–300 K range: the workloads are stationary loops, so the
//! steady-state statistics the evaluation depends on converge within a few
//! thousand iterations.
//!
//! # Example
//!
//! ```
//! use replay_trace::workloads;
//!
//! let w = workloads::by_name("bzip2").expect("known workload");
//! let trace = w.segment_trace(0, 5_000);
//! assert!(trace.len() > 1_000);
//! assert!(trace.records()[0].addr >= 0x40_0000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod index;
mod io;
mod profile;
mod record;
mod stats;
pub mod workloads;

pub use builder::ProgramBuilder;
pub use index::StaticIndex;
pub use io::{read_trace, trace_digest, write_trace, TraceIoError, FORMAT_VERSION};
pub use profile::{StatProfile, PROFILE_DIMS, REDUNDANCY_WINDOW};
pub use record::{record_run, InlineList, Trace, TraceRecord};
pub use stats::{InstClass, TraceStats};
pub use workloads::{GenParams, Suite, Workload, PHRASE_NAMES};
