//! The submitting client: one request to one server, retried with
//! seeded-jitter exponential backoff on *retryable* outcomes only.
//!
//! Retryable means the server said so ([`Status::is_retryable`]:
//! overloaded or draining) or the connection itself failed in a way that
//! a healthy server would not produce (refused, reset, timed out). A
//! typed rejection — bad request, deadline exceeded, internal error — is
//! returned immediately; retrying a request the server *answered*
//! negatively only adds load.
//!
//! Two anti-hot-loop guarantees are pinned by tests:
//! every backoff delay is at least [`MIN_BACKOFF_MS`] even with a zero
//! `base_backoff` (the old `nanos/2 + rng % (nanos/2+1)` collapsed to a
//! zero-length sleep and a busy reconnect loop), and a client that hits
//! a *draining* server waits at least [`DRAIN_FLOOR_MS`] instead of
//! hammering it with its own `retry_after 0` hint.
//!
//! The jitter stream comes from [`replay_rng::SmallRng`] seeded by
//! [`ClientConfig::seed`], so a test (or a reproduction) observes the
//! exact same delay schedule every run — randomized backoff without
//! nondeterministic tests.

use crate::proto::{read_frame, write_frame, Request, Response, Status};
use replay_rng::SmallRng;
use std::io::{self};
use std::net::TcpStream;
use std::time::Duration;

/// Client tuning. `Default` connects to the default serve address with
/// 8 retries starting at 25 ms.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The server address, `host:port`.
    pub addr: String,
    /// Retry attempts after the first try (0 = try exactly once).
    pub retries: u32,
    /// First backoff delay; doubles each retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Socket read/write timeout per attempt.
    pub io_timeout: Duration,
    /// Jitter seed — same seed, same delay schedule.
    pub seed: u64,
}

/// The default `replay serve` port: "RS" = 0x5253.
pub const DEFAULT_ADDR: &str = "127.0.0.1:21075";

/// Minimum backoff before any reconnect, whatever the configuration
/// says. A zero `base_backoff` used to produce zero-length sleeps — a
/// busy loop of connect attempts against a server that just said it was
/// overloaded.
pub const MIN_BACKOFF_MS: u64 = 1;

/// Minimum wait before re-dialing a server that answered
/// [`Status::ShuttingDown`]. Drain responses carry `retry_after 0`
/// ("retry immediately, elsewhere"); the client has nowhere else to go,
/// so it must not turn that hint into a tight loop against the draining
/// process.
pub const DRAIN_FLOOR_MS: u64 = 10;

impl ClientConfig {
    /// A config for one server address with default tuning.
    pub fn for_addr(addr: impl Into<String>) -> ClientConfig {
        ClientConfig {
            addr: addr.into(),
            ..ClientConfig::default()
        }
    }
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            addr: DEFAULT_ADDR.to_string(),
            retries: 8,
            base_backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            io_timeout: Duration::from_secs(60),
            seed: 0,
        }
    }
}

/// Why a submission ultimately failed.
#[derive(Debug)]
pub enum ClientError {
    /// The server answered with a terminal (non-retryable) rejection.
    Rejected {
        /// The typed status.
        status: Status,
        /// The server's detail message.
        message: String,
    },
    /// Retries were exhausted; `last` describes the final attempt.
    Exhausted {
        /// Total attempts made (first try + retries).
        attempts: u32,
        /// The last retryable failure.
        last: String,
    },
    /// A non-retryable transport or decode failure.
    Io(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Rejected { status, message } => {
                write!(f, "server rejected request: {status}: {message}")
            }
            ClientError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last: {last})")
            }
            ClientError::Io(e) => write!(f, "transport failure: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// What one attempt produced, before retry policy is applied.
enum Attempt {
    Done(Response),
    /// Retryable; `floor_ms` lower-bounds the next delay (0 = none).
    Retry {
        why: String,
        floor_ms: u64,
    },
    Fatal(ClientError),
}

/// A submitting client. Holds the jitter RNG, so reuse one client for a
/// session of submissions.
pub struct Client {
    cfg: ClientConfig,
    rng: SmallRng,
}

impl Client {
    /// A client with the given tuning; the backoff jitter stream is
    /// deterministic in `cfg.seed`.
    pub fn new(cfg: ClientConfig) -> Client {
        let rng = SmallRng::seed_from_u64(cfg.seed ^ 0x7265_706c_6179_7376); // "replaysv"
        Client { cfg, rng }
    }

    /// Submits one request, retrying retryable failures with seeded
    /// exponential backoff, and returns the server's Ok response.
    pub fn submit(&mut self, req: &Request) -> Result<Response, ClientError> {
        let payload = req.encode();
        let mut last_failure = String::new();
        for attempt in 0..=self.cfg.retries {
            match self.try_once(&payload) {
                Attempt::Done(resp) => return Ok(resp),
                Attempt::Fatal(e) => return Err(e),
                Attempt::Retry { why, floor_ms } => {
                    last_failure = why;
                    if attempt < self.cfg.retries {
                        std::thread::sleep(self.backoff_delay(attempt, floor_ms));
                    }
                }
            }
        }
        Err(ClientError::Exhausted {
            attempts: self.cfg.retries + 1,
            last: last_failure,
        })
    }

    /// One wire round trip against the configured server.
    fn try_once(&mut self, payload: &[u8]) -> Attempt {
        let target = self.cfg.addr.as_str();
        let mut conn = match TcpStream::connect(target) {
            Ok(c) => c,
            Err(e) if connect_is_retryable(&e) => {
                return Attempt::Retry {
                    why: format!("connect {target}: {e}"),
                    floor_ms: 0,
                };
            }
            Err(e) => return Attempt::Fatal(ClientError::Io(format!("connect {target}: {e}"))),
        };
        let _ = conn.set_read_timeout(Some(self.cfg.io_timeout));
        let _ = conn.set_write_timeout(Some(self.cfg.io_timeout));
        let _ = conn.set_nodelay(true);
        if let Err(e) = write_frame(&mut conn, payload) {
            return Attempt::Retry {
                why: format!("send: {e}"),
                floor_ms: 0,
            };
        }
        let frame = match read_frame(&mut conn) {
            Ok(f) => f,
            // A reset/timeout mid-response usually means the server shed
            // us the hard way (or died); both are worth retrying.
            Err(e) => {
                return Attempt::Retry {
                    why: format!("recv: {e}"),
                    floor_ms: 0,
                }
            }
        };
        let resp = match Response::decode(&frame) {
            Ok(r) => r,
            Err(e) => return Attempt::Fatal(ClientError::Io(format!("bad response: {e}"))),
        };
        match resp.status {
            Status::Ok => Attempt::Done(resp),
            s if s.is_retryable() => Attempt::Retry {
                why: format!("{s}: {}", resp.message),
                // The server's hint becomes the floor of the next delay. A
                // draining server's hint is "elsewhere, now"; with nowhere
                // else to go, wait it out instead.
                floor_ms: if s == Status::ShuttingDown {
                    resp.retry_after_ms.max(DRAIN_FLOOR_MS)
                } else {
                    resp.retry_after_ms
                },
            },
            status => Attempt::Fatal(ClientError::Rejected {
                status,
                message: resp.message,
            }),
        }
    }

    /// The delay before retry `attempt` (0-based): exponential growth
    /// from `base_backoff`, capped at `max_backoff`, with multiplicative
    /// jitter in `[0.5, 1.0]` drawn from the seeded stream. `floor_ms`
    /// (a server hint) lower-bounds the result, and the whole thing is
    /// clamped to at least [`MIN_BACKOFF_MS`] — a zero-length delay is a
    /// busy loop, never an acceptable schedule.
    fn backoff_delay(&mut self, attempt: u32, floor_ms: u64) -> Duration {
        let exp = self
            .cfg
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cfg.max_backoff);
        let nanos = exp.as_nanos() as u64;
        // jitter in [nanos/2, nanos]: full jitter keeps retrying clients
        // from re-synchronizing into waves.
        let jittered = nanos / 2 + self.rng.next_u64() % (nanos / 2 + 1);
        Duration::from_nanos(
            jittered
                .max(floor_ms.saturating_mul(1_000_000))
                .max(MIN_BACKOFF_MS * 1_000_000),
        )
    }
}

/// Connect failures a healthy, reachable server does not produce — the
/// ones worth retrying because the server may be restarting or draining.
fn connect_is_retryable(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
            | io::ErrorKind::Interrupted
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64, n: u32) -> Vec<Duration> {
        let mut c = Client::new(ClientConfig {
            seed,
            ..ClientConfig::default()
        });
        (0..n).map(|i| c.backoff_delay(i, 0)).collect()
    }

    #[test]
    fn backoff_is_deterministic_in_the_seed() {
        assert_eq!(schedule(7, 6), schedule(7, 6), "same seed, same delays");
        assert_ne!(
            schedule(7, 6),
            schedule(8, 6),
            "different seed, different jitter"
        );
    }

    #[test]
    fn backoff_grows_exponentially_within_jitter_bounds() {
        let cfg = ClientConfig::default();
        let mut c = Client::new(cfg.clone());
        for attempt in 0..6 {
            let exp = cfg
                .base_backoff
                .saturating_mul(1 << attempt)
                .min(cfg.max_backoff);
            let d = c.backoff_delay(attempt, 0);
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} < {:?}", exp / 2);
            assert!(d <= exp, "attempt {attempt}: {d:?} > {exp:?}");
        }
    }

    #[test]
    fn backoff_caps_at_max_and_honors_floor() {
        let cfg = ClientConfig::default();
        let mut c = Client::new(cfg.clone());
        let d = c.backoff_delay(30, 0);
        assert!(d <= cfg.max_backoff);
        let floored = c.backoff_delay(0, 5_000);
        assert!(floored >= Duration::from_secs(5));
    }

    #[test]
    fn zero_base_backoff_never_yields_a_zero_delay() {
        // Regression: with base_backoff zero, `nanos/2 + rng % (nanos/2
        // + 1)` collapsed to 0 and submit() busy-looped reconnecting.
        let mut c = Client::new(ClientConfig {
            base_backoff: Duration::ZERO,
            ..ClientConfig::default()
        });
        for attempt in 0..8 {
            let d = c.backoff_delay(attempt, 0);
            assert!(
                d >= Duration::from_millis(MIN_BACKOFF_MS),
                "attempt {attempt}: {d:?} is a busy loop"
            );
        }
    }

    #[test]
    fn drain_floor_constant_is_nonzero() {
        // The ShuttingDown hint is retry_after 0; DRAIN_FLOOR_MS is what
        // keeps a client from hammering a draining server. (The end-to-end
        // behavior is pinned in tests/service.rs.)
        const { assert!(DRAIN_FLOOR_MS >= 1) };
        let mut c = Client::new(ClientConfig::default());
        let d = c.backoff_delay(0, DRAIN_FLOOR_MS);
        assert!(d >= Duration::from_millis(DRAIN_FLOOR_MS));
    }
}
