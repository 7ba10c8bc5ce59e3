//! # replay-store
//!
//! A persistent, content-addressed artifact store for the rePLay engine.
//!
//! Synthesizing a workload trace is a pure function of its inputs, yet
//! before this crate every *process* recomputed it from scratch — the
//! in-memory memoization of `replay_sim::TraceStore` dies with the
//! process. This crate adds the disk layer beneath it: artifacts cached
//! under a directory (default `.replay-cache/` for the CLI) keyed by a
//! stable 64-bit content digest of everything that determines their
//! bytes, so warm runs skip synthesis entirely. Traces are the one
//! artifact class the simulator stores; optimized frames are recomputed in
//! each run.
//!
//! Three properties the implementation guarantees:
//!
//! * **Crash/concurrency safety** — writers stage to a unique temp file,
//!   fsync, then atomically rename. A racer that loses simply renames
//!   identical content over the winner; a crash leaves at most a stale
//!   temp file, never a torn artifact under the final name. Any number
//!   of processes — CLI runs and co-located `replay serve` nodes alike —
//!   can therefore share one cache directory. The store is local only:
//!   artifacts never travel between nodes, since regenerating a trace
//!   is cheaper than shipping it.
//! * **Corruption tolerance** — every artifact carries a header with
//!   magic, schema version, class digest, key echo, payload length, and
//!   payload checksum. A truncated, bit-flipped, mislabeled, or
//!   version-skewed artifact is evicted with a warning and counted in
//!   `store.corrupt_evictions`; the caller regenerates. Readers never
//!   panic on any file content and never return unvalidated bytes.
//! * **Observability** — hits, misses, writes, byte volumes, and corrupt
//!   evictions are process-lifetime counters surfaced through
//!   [`replay_obs`] under `store.*`.
//!
//! Digests are FNV-1a 64 over explicitly little-endian field encodings
//! ([`Digest64`]), stable across processes and platforms. A 64-bit digest
//! collision is the one silent-wrongness vector; at the store's scale
//! (dozens of artifacts) the birthday bound keeps that risk negligible,
//! and the payload checksum still rejects any *damaged* artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
mod digest;
mod store;
pub mod wire;

pub use artifact::ArtifactError;
pub use digest::{digest_bytes, Digest64};
pub use store::{Store, CACHE_DIR_ENV, NO_STORE_ENV};
pub use wire::{Reader, WireError, Writer};
