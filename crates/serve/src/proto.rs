//! The `replay-serve` wire protocol.
//!
//! Every message is one length-prefixed frame on the TCP stream:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes]
//! ```
//!
//! and every payload reuses `replay-store`'s little-endian [`Writer`] /
//! [`Reader`] codec, opens with a magic + version header, and closes with
//! a trailing FNV-1a checksum of everything before it
//! ([`Digest64`](replay_store::Digest64), the same digest the artifact
//! store keys on). The reader side is total: any malformed input —
//! truncation, a bad tag, a checksum mismatch — is a [`WireError`],
//! never a panic, because peers may send anything.
//!
//! A request names either a synthetic workload (by name) or ships a
//! trace file's bytes inline (with their own content digest, which the
//! server also uses as a warm-start cache key). The response carries a
//! typed [`Status`] — overload and shutdown are *data*, not dropped
//! connections — plus the exact `replay report --json` bytes on success.
//!
//! A server decodes every inbound payload as a [`Request`]; any other
//! kind — including [`PeerFetch`], the one peer message still encodable
//! — is answered [`Status::BadRequest`].

use replay_store::{digest_bytes, Reader, WireError, Writer};
use std::io::{self, Read, Write};

/// Frame/payload magic: `b"RSV1"` little-endian.
pub const MAGIC: u32 = u32::from_le_bytes(*b"RSV1");

/// Protocol version. Bump on any incompatible payload change.
/// v2: requests carry the `relayed` flag.
/// v3: the cluster's owner-redirect status (wire code 6) is gone; a v3
/// peer refuses code 6 as a bad status tag.
pub const VERSION: u16 = 3;

/// Hard ceiling on a request's `scale`, in records. Synthesis length and
/// memory follow scale with no other bound (about 166 bytes a record),
/// so a larger request is rejected at decode, before it is queued.
pub const MAX_SCALE: u64 = 1_000_000;

/// Hard ceiling on one frame's payload, request or response (64 MiB).
/// A length prefix above this is rejected before any allocation.
pub const MAX_FRAME: u32 = 64 << 20;

/// Writes one `[len][payload]` frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one `[len][payload]` frame, rejecting oversized lengths before
/// allocating.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

/// What to simulate: a named synthetic workload (the server synthesizes
/// or warm-loads the trace via its `TraceStore`), or a trace file shipped
/// inline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A workload from the synthetic suite, by name.
    Workload(String),
    /// Raw `replay gen` trace-file bytes.
    TraceBytes(Vec<u8>),
}

/// One simulation request: run all four configurations at `scale` and
/// return the `replay-report/v3` JSON (always the generic core model;
/// port-model runs are a local-CLI concern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The trace to simulate.
    pub source: Source,
    /// Dynamic x86 instruction count (the CLI's `-n`).
    pub scale: u64,
    /// Include wall-time metrics (breaks byte-reproducibility; off for
    /// identity-checked runs).
    pub timings: bool,
    /// Per-request deadline in milliseconds; 0 means the server default.
    /// A request older than its deadline when dispatch begins is answered
    /// with [`Status::DeadlineExceeded`] instead of being simulated.
    pub deadline_ms: u64,
    /// Encoded and decoded, but ignored by the server: it marked a request
    /// already routed once by the removed cluster mode. It stays on the
    /// wire because the benchmark's `serve` workload builds `Request`
    /// literals with it.
    pub relayed: bool,
}

impl Request {
    /// Encodes the request payload (checksummed; framing is separate).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = header(MSG_REQUEST);
        match &self.source {
            Source::Workload(name) => {
                w.put_u8(0);
                put_str(&mut w, name);
            }
            Source::TraceBytes(bytes) => {
                w.put_u8(1);
                w.put_u32(bytes.len() as u32);
                w.put_bytes(bytes);
                // Content digest so a flipped bit in transit is caught
                // here, with a precise error, not deep in trace decoding.
                w.put_u64(digest_bytes(bytes));
            }
        }
        w.put_u64(self.scale);
        w.put_u8(self.timings as u8);
        w.put_u64(self.deadline_ms);
        w.put_u8(self.relayed as u8);
        seal(w)
    }

    /// Decodes and validates a request payload: a payload of any other
    /// kind, or a `scale` above [`MAX_SCALE`], is a [`WireError`].
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut r = open(payload, MSG_REQUEST)?;
        let source = match r.get_u8("source tag")? {
            0 => Source::Workload(get_str(&mut r, "workload name")?),
            1 => {
                let n = r.get_len("trace bytes", 1)?;
                let bytes = r.get_bytes(n, "trace bytes")?.to_vec();
                let digest = r.get_u64("trace digest")?;
                if digest_bytes(&bytes) != digest {
                    return Err(WireError::BadTag {
                        what: "trace digest",
                        value: digest,
                    });
                }
                Source::TraceBytes(bytes)
            }
            t => {
                return Err(WireError::BadTag {
                    what: "source tag",
                    value: t as u64,
                })
            }
        };
        let scale = r.get_u64("scale")?;
        if scale > MAX_SCALE {
            return Err(WireError::BadLength {
                what: "scale",
                len: scale,
            });
        }
        let timings = r.get_u8("timings")? != 0;
        let deadline_ms = r.get_u64("deadline")?;
        let relayed = r.get_u8("relayed")? != 0;
        r.finish()?;
        Ok(Request {
            source,
            scale,
            timings,
            deadline_ms,
            relayed,
        })
    }
}

/// Typed response status. Rejections are data the client can act on:
/// [`Status::is_retryable`] drives the backoff loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The body holds the report JSON.
    Ok,
    /// A bounded queue was full; retry after the hinted delay.
    Overloaded,
    /// The request was malformed or named an unknown workload.
    BadRequest,
    /// The request sat queued past its deadline and was shed unserved.
    DeadlineExceeded,
    /// The server is draining and accepts no new work; retry elsewhere
    /// or after the hinted delay.
    ShuttingDown,
    /// The server failed internally; the message says how.
    Internal,
}

impl Status {
    /// Whether a client should retry (with backoff) on this status.
    pub fn is_retryable(self) -> bool {
        matches!(self, Status::Overloaded | Status::ShuttingDown)
    }

    fn to_u8(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Overloaded => 1,
            Status::BadRequest => 2,
            Status::DeadlineExceeded => 3,
            Status::ShuttingDown => 4,
            Status::Internal => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Status, WireError> {
        Ok(match v {
            0 => Status::Ok,
            1 => Status::Overloaded,
            2 => Status::BadRequest,
            3 => Status::DeadlineExceeded,
            4 => Status::ShuttingDown,
            5 => Status::Internal,
            t => {
                return Err(WireError::BadTag {
                    what: "status",
                    value: t as u64,
                })
            }
        })
    }
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Status::Ok => "ok",
            Status::Overloaded => "overloaded",
            Status::BadRequest => "bad request",
            Status::DeadlineExceeded => "deadline exceeded",
            Status::ShuttingDown => "shutting down",
            Status::Internal => "internal error",
        })
    }
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome.
    pub status: Status,
    /// Human-readable detail for non-Ok statuses (empty on Ok).
    pub message: String,
    /// Backoff hint in milliseconds for retryable statuses (0 = client's
    /// choice).
    pub retry_after_ms: u64,
    /// The `replay report --json` bytes on Ok; empty otherwise.
    pub body: Vec<u8>,
}

impl Response {
    /// A success response carrying the report bytes.
    pub fn ok(body: Vec<u8>) -> Response {
        Response {
            status: Status::Ok,
            message: String::new(),
            retry_after_ms: 0,
            body,
        }
    }

    /// A rejection with a detail message.
    pub fn reject(status: Status, message: impl Into<String>) -> Response {
        Response {
            status,
            message: message.into(),
            retry_after_ms: 0,
            body: Vec::new(),
        }
    }

    /// Sets the retry hint.
    pub fn with_retry_after(mut self, ms: u64) -> Response {
        self.retry_after_ms = ms;
        self
    }

    /// Encodes the response payload (checksummed; framing is separate).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = header(MSG_RESPONSE);
        w.put_u8(self.status.to_u8());
        put_str(&mut w, &self.message);
        w.put_u64(self.retry_after_ms);
        w.put_u32(self.body.len() as u32);
        w.put_bytes(&self.body);
        w.put_u64(digest_bytes(&self.body));
        seal(w)
    }

    /// Decodes and validates a response payload.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = open(payload, MSG_RESPONSE)?;
        let status = Status::from_u8(r.get_u8("status")?)?;
        let message = get_str(&mut r, "message")?;
        let retry_after_ms = r.get_u64("retry hint")?;
        let n = r.get_len("body", 1)?;
        let body = r.get_bytes(n, "body")?.to_vec();
        let digest = r.get_u64("body digest")?;
        if digest_bytes(&body) != digest {
            return Err(WireError::BadTag {
                what: "body digest",
                value: digest,
            });
        }
        r.finish()?;
        Ok(Response {
            status,
            message,
            retry_after_ms,
            body,
        })
    }
}

/// A peer-artifact fetch, as older cluster nodes sent it: "do you hold
/// `{class}-{key:016x}.rpa`?" A server answers this [`Status::BadRequest`]
/// on its front without queueing anything, which makes it a cheap
/// round-trip probe of the front alone; the benchmark's `serve` workload
/// sends it as its wire probe. Only the encoder remains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerFetch {
    /// Artifact class name ("trace").
    pub class: String,
    /// Artifact content key (the store's file-name key).
    pub key: u64,
}

impl PeerFetch {
    /// Encodes the fetch payload (checksummed; framing is separate).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = header(MSG_PEER_FETCH);
        put_str(&mut w, &self.class);
        w.put_u64(self.key);
        seal(w)
    }
}

const MSG_REQUEST: u8 = 1;
const MSG_RESPONSE: u8 = 2;
const MSG_PEER_FETCH: u8 = 3;

/// Starts a payload with the shared magic/version/kind header.
fn header(kind: u8) -> Writer {
    let mut w = Writer::new();
    w.put_u32(MAGIC);
    w.put_u16(VERSION);
    w.put_u8(kind);
    w
}

fn put_str(w: &mut Writer, s: &str) {
    w.put_u32(s.len() as u32);
    w.put_bytes(s.as_bytes());
}

fn get_str(r: &mut Reader, what: &'static str) -> Result<String, WireError> {
    let n = r.get_len(what, 1)?;
    let bytes = r.get_bytes(n, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadTag {
        what,
        value: u64::MAX,
    })
}

/// Appends the whole-payload checksum.
fn seal(w: Writer) -> Vec<u8> {
    let mut body = w.into_bytes();
    let checksum = digest_bytes(&body);
    body.extend_from_slice(&checksum.to_le_bytes());
    body
}

/// Verifies magic, version, kind, and the trailing checksum; returns a
/// reader positioned after the header, covering everything before the
/// checksum.
fn open(payload: &[u8], expect_kind: u8) -> Result<Reader<'_>, WireError> {
    if payload.len() < 8 {
        return Err(WireError::UnexpectedEof { what: "payload" });
    }
    let (body, tail) = payload.split_at(payload.len() - 8);
    let mut checksum_bytes = [0u8; 8];
    checksum_bytes.copy_from_slice(tail);
    if digest_bytes(body) != u64::from_le_bytes(checksum_bytes) {
        return Err(WireError::BadTag {
            what: "payload checksum",
            value: u64::from_le_bytes(checksum_bytes),
        });
    }
    let mut r = Reader::new(body);
    let magic = r.get_u32("magic")?;
    if magic != MAGIC {
        return Err(WireError::BadTag {
            what: "magic",
            value: magic as u64,
        });
    }
    let version = r.get_u16("version")?;
    if version != VERSION {
        return Err(WireError::BadTag {
            what: "version",
            value: version as u64,
        });
    }
    let kind = r.get_u8("message kind")?;
    if kind != expect_kind {
        return Err(WireError::BadTag {
            what: "message kind",
            value: kind as u64,
        });
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_both_sources() {
        let named = Request {
            source: Source::Workload("gzip".into()),
            scale: 30_000,
            timings: false,
            deadline_ms: 0,
            relayed: false,
        };
        assert_eq!(Request::decode(&named.encode()).unwrap(), named);
        let inline = Request {
            source: Source::TraceBytes(vec![1, 2, 3, 4, 5]),
            scale: 100,
            timings: true,
            deadline_ms: 2_500,
            relayed: true,
        };
        assert_eq!(Request::decode(&inline.encode()).unwrap(), inline);
    }

    #[test]
    fn response_round_trips() {
        let ok = Response::ok(b"{\"schema\":\"replay-report/v3\"}".to_vec());
        assert_eq!(Response::decode(&ok.encode()).unwrap(), ok);
        let shed = Response::reject(Status::Overloaded, "queue full").with_retry_after(40);
        let back = Response::decode(&shed.encode()).unwrap();
        assert_eq!(back.status, Status::Overloaded);
        assert_eq!(back.retry_after_ms, 40);
        assert!(back.status.is_retryable());
        assert!(!Status::BadRequest.is_retryable());
        assert!(Status::ShuttingDown.is_retryable());
    }

    #[test]
    fn the_removed_redirect_status_code_is_refused() {
        // v3 dropped status code 6; a sealed response carrying it decodes
        // to a bad status tag, never to some other status.
        let mut bytes = Response::ok(Vec::new()).encode();
        let body_len = bytes.len() - 8;
        bytes[7] = 6; // after magic (4), version (2) and kind (1)
        let fixed = digest_bytes(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&fixed);
        assert!(matches!(
            Response::decode(&bytes),
            Err(WireError::BadTag {
                what: "status",
                value: 6
            })
        ));
    }

    #[test]
    fn message_dispatches_every_kind() {
        // Each decoder takes exactly its own kind byte and refuses every
        // other one as a BadTag on the kind: requests (1), responses (2)
        // and the peer fetch (3) older nodes may still send.
        let kind_of = |r: Result<(), WireError>| match r {
            Err(WireError::BadTag {
                what: "message kind",
                value,
            }) => Some(value),
            _ => None,
        };
        let req = Request {
            source: Source::Workload("mcf".into()),
            scale: 5,
            timings: false,
            deadline_ms: 0,
            relayed: true,
        };
        let req_bytes = req.encode();
        assert_eq!(Request::decode(&req_bytes).unwrap(), req);
        assert_eq!(kind_of(Response::decode(&req_bytes).map(drop)), Some(1));

        let resp = Response::reject(Status::Internal, "boom");
        let resp_bytes = resp.encode();
        assert_eq!(Response::decode(&resp_bytes).unwrap(), resp);
        assert_eq!(kind_of(Request::decode(&resp_bytes).map(drop)), Some(2));

        let fetch = PeerFetch {
            class: "trace".into(),
            key: 1,
        }
        .encode();
        assert_eq!(kind_of(Request::decode(&fetch).map(drop)), Some(3));
        assert_eq!(kind_of(Response::decode(&fetch).map(drop)), Some(3));
    }

    #[test]
    fn corruption_is_an_error_not_a_panic() {
        let mut bytes = Request {
            source: Source::Workload("gzip".into()),
            scale: 1,
            timings: false,
            deadline_ms: 0,
            relayed: false,
        }
        .encode();
        // Flip one bit anywhere: the payload checksum catches it.
        bytes[9] ^= 0x40;
        assert!(Request::decode(&bytes).is_err());
        // Truncation at every prefix length must error, never panic.
        let good = Response::ok(vec![7; 32]).encode();
        for cut in 0..good.len() {
            assert!(Response::decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn inline_trace_digest_mismatch_rejected() {
        let req = Request {
            source: Source::TraceBytes(vec![9; 64]),
            scale: 10,
            timings: false,
            deadline_ms: 0,
            relayed: false,
        };
        let mut bytes = req.encode();
        // Corrupt a trace byte AND fix up the outer checksum, leaving the
        // inner content digest stale — the layered check still catches it.
        let body_len = bytes.len() - 8;
        bytes[20] ^= 1;
        let fixed = digest_bytes(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&fixed);
        assert!(matches!(
            Request::decode(&bytes),
            Err(WireError::BadTag {
                what: "trace digest",
                ..
            })
        ));
    }

    #[test]
    fn request_decode_rejects_oversized_scales() {
        let mut req = Request {
            source: Source::Workload("gzip".into()),
            scale: MAX_SCALE,
            timings: false,
            deadline_ms: 0,
            relayed: false,
        };
        assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        req.scale = MAX_SCALE + 1;
        assert!(matches!(
            Request::decode(&req.encode()),
            Err(WireError::BadLength { what: "scale", len }) if len == MAX_SCALE + 1
        ));
        req.scale = u64::MAX;
        assert!(Request::decode(&req.encode()).is_err());
    }

    #[test]
    fn peer_message_truncation_is_an_error_not_a_panic() {
        // Older nodes still send peer fetches; the server decodes every
        // payload as a request, so whole or cut anywhere, one is an
        // error, never a panic.
        let good = PeerFetch {
            class: "trace".into(),
            key: 3,
        }
        .encode();
        for cut in 0..=good.len() {
            assert!(Request::decode(&good[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn peer_message_hostile_lengths_rejected() {
        // Every peer kind an older node could send — fetch (3), artifact
        // (4), push (5) — and any unknown kind is refused on the kind
        // byte, even with hostile length fields under a valid checksum
        // (a hostile peer can seal anything): no length is ever read.
        let fetch = |class_len: u32| {
            let mut w = header(MSG_PEER_FETCH);
            w.put_u32(class_len);
            w.put_bytes(&[b'x'; 65]);
            w.put_u64(3);
            seal(w)
        };
        let container = |kind: u8, len: u32| {
            let mut w = header(kind);
            put_str(&mut w, "trace");
            w.put_u64(3);
            w.put_u32(len);
            seal(w)
        };
        for (kind, bytes) in [
            (3, fetch(65)),
            (3, fetch(u32::MAX)),
            (4, container(4, u32::MAX)),
            (5, container(5, 0)),
            (200, seal(header(200))),
        ] {
            assert!(
                matches!(
                    Request::decode(&bytes),
                    Err(WireError::BadTag {
                        what: "message kind",
                        value,
                    }) if value == kind
                ),
                "kind {kind}"
            );
        }
        assert!(Request::decode(&Response::ok(Vec::new()).encode()).is_err());
    }

    #[test]
    fn frames_round_trip_and_reject_oversize() {
        let payload = vec![0xAB; 1024];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let back = read_frame(&mut &buf[..]).unwrap();
        assert_eq!(back, payload);
        // An adversarial length prefix is rejected before allocation.
        let huge = (MAX_FRAME + 1).to_le_bytes();
        assert!(read_frame(&mut &huge[..]).is_err());
    }
}
