//! # replay-frame
//!
//! The rePLay *frame* substrate (§2 of the paper): construction of atomic
//! optimization regions from the retired instruction stream, and the frame
//! cache that serves them to the fetch engine.
//!
//! A **frame** is an atomic, single-entry, single-exit region of
//! micro-operations. The [`FrameConstructor`] watches retired instructions,
//! tracks branch bias in a [`BiasTable`], and converts *dynamically biased*
//! branches into **assertions**: a taken-biased branch `if (Z) jump T`
//! becomes `assert Z`, and the blocks at `T` are merged into the frame.
//! Either every uop in the frame commits, or (when an assertion fires) none
//! do — the hardware rolls back to the frame entry and refetches the
//! original instructions.
//!
//! Biased *indirect* jumps (notably `RET`) are converted into fused
//! compare-assertions against their dominant target, which is what allows
//! frames to span procedure boundaries and exposes the return-address loads
//! of `CALL`/`RET` pairs to the optimizer.
//!
//! The [`FrameCache`] stores constructed (and, in the optimizing
//! configurations, optimized) frames on chip, indexed by entry point (a
//! dense key the caller assigns to each entry address), with LRU
//! replacement measured in uop slots — the paper's configuration holds
//! 16K uops (≈64 kB).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bias;
mod cache;
mod constructor;
mod frame;

pub use bias::{BiasTable, BranchOutcome, Direction};
pub use cache::{CacheEntry, CacheStats, FrameCache};
pub use constructor::{
    ConstructorConfig, ConstructorStats, FrameConstructor, RetireEvent, MIN_FRAME_UOPS,
};
pub use frame::{ControlExpectation, Frame, FrameId};
