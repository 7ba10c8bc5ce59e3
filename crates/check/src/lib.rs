//! # replay-check
//!
//! Property-based differential checking of the rePLay optimizer.
//!
//! The paper's whole premise (§5.1.3) is that an optimized frame is
//! architecturally equivalent to the original micro-op sequence — wrong
//! speculation fires an assertion instead of corrupting state. This crate
//! turns that premise into an executable property and hammers it with
//! generated inputs:
//!
//! * [`gen`] — random-but-valid frames and entry machine states, seeded by
//!   [`replay_rng::SmallRng`] (no external property-testing dependency);
//! * [`oracle`] — the differential check: any pass sequence (the canonical
//!   pipeline, single passes, arbitrary permutations and prefixes) must
//!   preserve semantics from every entry state, with
//!   [`replay_core::OptFrame::validate`] guarding structure after every
//!   pass and [`replay_verify::verify_differential`] guarding semantics;
//! * [`shrink`](mod@shrink) — delta-debugging reduction of failures to minimal frames;
//! * [`corpus`] — a line-oriented text format persisting shrunk
//!   counterexamples under `tests/corpus/`, replayed by CI forever after;
//! * [`fault`] — mutation-style fault injection (drop a store, swap
//!   operands, stale flags, …) that tests the *oracle itself*: every
//!   planted bug species must be caught;
//! * [`harness`] — deterministic parallel batch execution: every case is a
//!   pure function of `(master seed, case index)` via
//!   [`replay_rng::SmallRng::split_stream`], so reports are bit-identical
//!   at any `--jobs` count.
//!
//! The CLI front end is `replay check`; see `TESTING.md` for the seed and
//! corpus workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod fault;
pub mod gen;
pub mod harness;
pub mod oracle;
pub mod shrink;

pub use corpus::{from_text, replay, replay_dir, to_text, CorpusCase};
pub use fault::{inject, FaultKind};
pub use gen::{arb_frame, arb_uop, entry_state};
pub use harness::{
    probe_fault_sensitivity, run_check, CheckConfig, CheckReport, Counterexample, FaultProbe,
    PassSelection,
};
pub use oracle::{
    apply_passes, check_frame, check_plan_equivalence, raw_frame, CaseStats, CheckError,
};
pub use shrink::shrink;
