//! # replay-serve
//!
//! A zero-external-dependency TCP simulation service for the rePLay
//! reproduction: `replay serve` turns one process into a shared
//! simulation endpoint, and `replay submit` sends it work.
//!
//! A request — a workload name or an inline trace file, plus a scale —
//! is answered with the exact bytes `replay report --json` would produce
//! locally: the server dispatches every batch through the same
//! [`replay_sim::report`] renderer and the same deterministic worker
//! pool, so the response is byte-identical to a local run at any
//! `--jobs` count, cold or warm (after stripping the intentionally
//! non-reproducible `store` section — see
//! [`replay_sim::report::strip_store_section`]).
//!
//! The robustness story, end to end:
//!
//! - **Event-driven serve core** — one thread holds every connection as
//!   a small state machine ([`conn`]) over a readiness poller ([`poll`]:
//!   a zero-dep raw-syscall `epoll` shim), so tens of thousands of idle
//!   or byte-dribbling clients cost file descriptors, not blocked OS
//!   threads. Targets without the shim get a typed
//!   [`std::io::ErrorKind::Unsupported`] from [`Server::bind`].
//! - **Bounded intake, typed shedding** — the connection count and the
//!   work queue are bounded; a connection over the ceiling or a full
//!   queue is answered [`proto::Status::Overloaded`] with a retry hint,
//!   and a *draining* server answers [`proto::Status::ShuttingDown`],
//!   instead of hanging the connection ([`queue`]).
//! - **Batching with deduplication** — the dispatcher collects requests
//!   into batches, deduplicates identical ones (one simulation, many
//!   responses), and submits each batch as a single worker-pool run
//!   ([`server`]).
//! - **Deadlines** — a request that sat queued past its deadline is
//!   answered [`proto::Status::DeadlineExceeded`], not simulated for
//!   nobody.
//! - **Seeded-backoff client** — [`client::Client`] retries retryable
//!   failures with exponential backoff whose jitter comes from a seeded
//!   [`replay_rng::SmallRng`], so retry schedules are reproducible under
//!   test.
//! - **Graceful drain** — SIGTERM/ctrl-c ([`signal`]) or the programmatic
//!   flag stops accepting immediately, then every parsed request is
//!   simulated and answered before [`Server::run`] returns.
//! - **Observability** — queue depths, batch sizes, shed/deadline/retry
//!   counts, and per-request latency land in a [`replay_obs::Profile`]
//!   returned from [`Server::run`].
//!
//! One process is the whole service; there is no cluster mode. Several
//! standalone `replay serve` processes share nothing but, optionally, a
//! cache directory, and all render through the same deterministic path,
//! so behind any TCP balancer they answer byte-identically.
//!
//! The wire format ([`proto`]) reuses `replay-store`'s little-endian
//! codec and FNV-1a [`replay_store::Digest64`] for request keys and
//! payload checksums: length-prefixed frames, magic + version header,
//! checksum trailer, total (panic-free) decoding.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod conn;
pub mod poll;
pub mod proto;
pub mod queue;
pub mod server;
pub mod signal;

pub use client::{Client, ClientConfig, ClientError, DEFAULT_ADDR, DRAIN_FLOOR_MS, MIN_BACKOFF_MS};
pub use proto::{Request, Response, Source, Status};
pub use server::{ServeStats, Server, ServerConfig};
