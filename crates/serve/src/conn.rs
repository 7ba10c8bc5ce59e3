//! The per-connection state machine for the event-driven serve core.
//!
//! One connection carries exactly one request and one response (the
//! client opens a fresh connection per attempt), so its whole life is a
//! straight line:
//!
//! ```text
//! Accepted ──first byte──► ReadingLen ──4 bytes──► ReadingPayload
//!     │                                                   │ frame complete
//!     │                                                   ▼
//!     │                    Done ◄──flushed── Writing ◄── Dispatched
//!     └── (idle: allowed to sit; costs one fd and ~200 bytes)
//! ```
//!
//! Every transition is driven by a readiness event, never by a blocking
//! read: [`Conn::on_readable`] consumes whatever bytes the socket has —
//! one at a time from a dribbling client is fine — and reports
//! [`ReadStep::Frame`] only once the length prefix and full payload have
//! arrived. [`Conn::on_writable`] mirrors that for the response. A peer
//! may therefore take minutes to deliver a frame without holding any
//! thread, buffer beyond its own frame, or delaying any other
//! connection; that is the property the adversarial suite pins.
//!
//! The state machine is generic over the byte stream so unit tests can
//! drive it with scripted partial reads and `WouldBlock`s; the server
//! instantiates it with a nonblocking [`std::net::TcpStream`].

use crate::proto::MAX_FRAME;
use std::io::{self, Read, Write};
use std::time::Instant;

/// Where a connection is in its request/response life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Registered, no bytes received yet. Idle connections may stay here
    /// indefinitely — they cost a file descriptor, not a thread.
    Accepted,
    /// Partway through the 4-byte length prefix.
    ReadingLen,
    /// Length known; partway through the payload.
    ReadingPayload,
    /// A complete request was handed to the dispatcher; the connection
    /// waits (no read interest) for its response.
    Dispatched,
    /// Response queued; partway through writing it.
    Writing,
    /// Response fully flushed; the connection is finished.
    Done,
}

/// What a readiness-driven read pass produced.
#[derive(Debug)]
pub enum ReadStep {
    /// A complete frame payload; the connection is now
    /// [`ConnState::Dispatched`].
    Frame(Vec<u8>),
    /// The socket ran dry mid-frame; `bytes` arrived during this pass
    /// (zero for a spurious wakeup).
    NeedMore {
        /// Bytes consumed in this pass before `WouldBlock`.
        bytes: usize,
    },
    /// The length prefix promised more than [`MAX_FRAME`]; the value is
    /// the claimed length. The connection should be answered with a
    /// rejection and closed — nothing was allocated.
    TooLarge(u32),
    /// EOF or a hard error: the peer is gone.
    Disconnected,
}

/// What a readiness-driven write pass produced.
#[derive(Debug)]
pub enum WriteStep {
    /// The whole response is flushed; the connection is
    /// [`ConnState::Done`].
    Flushed,
    /// The socket buffer filled mid-response; `bytes` were written this
    /// pass.
    NeedMore {
        /// Bytes written in this pass before `WouldBlock`.
        bytes: usize,
    },
    /// The peer is gone; the remaining bytes are undeliverable.
    Disconnected,
}

/// One connection: the stream, the incremental parse/write cursors, and
/// the bookkeeping the event loop needs (token, timestamps).
pub struct Conn<S> {
    stream: S,
    state: ConnState,
    /// Registration token in the poller (also the completion-routing key).
    pub token: u64,
    /// Last time any byte moved — the idle-sweep clock.
    pub last_activity: Instant,
    /// Set when the request frame completed — the instant the request's
    /// latency is measured from.
    pub received: Option<Instant>,
    len_buf: [u8; 4],
    filled: usize,
    payload: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
}

impl<S: Read + Write> Conn<S> {
    /// Wraps a (nonblocking) stream in the [`ConnState::Accepted`] state.
    pub fn new(stream: S, token: u64, now: Instant) -> Conn<S> {
        Conn {
            stream,
            state: ConnState::Accepted,
            token,
            last_activity: now,
            received: None,
            len_buf: [0; 4],
            filled: 0,
            payload: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> ConnState {
        self.state
    }

    /// The underlying stream (the server needs its raw fd).
    pub fn stream(&self) -> &S {
        &self.stream
    }

    /// True while the peer has sent part of a frame but not all of it —
    /// the shape a slow-loris attack leaves a connection in, and the one
    /// the idle sweep applies `io_timeout` to. A connection with zero
    /// bytes sent is *idle*, not stalled, and is never swept.
    pub fn mid_frame(&self) -> bool {
        matches!(
            (self.state, self.filled),
            (ConnState::ReadingLen, 1..) | (ConnState::ReadingPayload, _)
        )
    }

    /// True while a queued response is not yet fully flushed.
    pub fn writing(&self) -> bool {
        self.state == ConnState::Writing
    }

    /// Advances the read side as far as the socket allows. Call on every
    /// readable event; level-triggered polling plus reading to
    /// `WouldBlock` means no byte is ever stranded.
    pub fn on_readable(&mut self, now: Instant) -> ReadStep {
        let mut moved = 0usize;
        loop {
            match self.state {
                ConnState::Accepted | ConnState::ReadingLen => {
                    let dst = &mut self.len_buf[self.filled..];
                    match self.stream.read(dst) {
                        Ok(0) => return ReadStep::Disconnected,
                        Ok(n) => {
                            self.filled += n;
                            moved += n;
                            self.state = ConnState::ReadingLen;
                            self.last_activity = now;
                            if self.filled == 4 {
                                let len = u32::from_le_bytes(self.len_buf);
                                if len > MAX_FRAME {
                                    return ReadStep::TooLarge(len);
                                }
                                self.filled = 0;
                                if len == 0 {
                                    self.state = ConnState::Dispatched;
                                    self.received = Some(now);
                                    return ReadStep::Frame(Vec::new());
                                }
                                self.payload = vec![0; len as usize];
                                self.state = ConnState::ReadingPayload;
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return ReadStep::NeedMore { bytes: moved }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return ReadStep::Disconnected,
                    }
                }
                ConnState::ReadingPayload => {
                    let dst = &mut self.payload[self.filled..];
                    match self.stream.read(dst) {
                        Ok(0) => return ReadStep::Disconnected,
                        Ok(n) => {
                            self.filled += n;
                            moved += n;
                            self.last_activity = now;
                            if self.filled == self.payload.len() {
                                self.state = ConnState::Dispatched;
                                self.received = Some(now);
                                self.filled = 0;
                                return ReadStep::Frame(std::mem::take(&mut self.payload));
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            return ReadStep::NeedMore { bytes: moved }
                        }
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return ReadStep::Disconnected,
                    }
                }
                // A readable event after dispatch (e.g. a peer that sends
                // trailing garbage) is ignored; the protocol is one frame
                // per direction per connection.
                ConnState::Dispatched | ConnState::Writing | ConnState::Done => {
                    return ReadStep::NeedMore { bytes: moved }
                }
            }
        }
    }

    /// Queues a response payload (framing is added here) and moves to
    /// [`ConnState::Writing`]. Follow with [`Conn::on_writable`].
    pub fn queue_response(&mut self, payload: &[u8]) {
        debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
        self.write_buf = Vec::with_capacity(4 + payload.len());
        self.write_buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.write_buf.extend_from_slice(payload);
        self.written = 0;
        self.state = ConnState::Writing;
    }

    /// Advances the write side as far as the socket allows.
    pub fn on_writable(&mut self, now: Instant) -> WriteStep {
        let mut moved = 0usize;
        if self.state != ConnState::Writing {
            return WriteStep::NeedMore { bytes: 0 };
        }
        loop {
            let src = &self.write_buf[self.written..];
            if src.is_empty() {
                self.state = ConnState::Done;
                self.write_buf = Vec::new();
                return WriteStep::Flushed;
            }
            match self.stream.write(src) {
                Ok(0) => return WriteStep::Disconnected,
                Ok(n) => {
                    self.written += n;
                    moved += n;
                    self.last_activity = now;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    return WriteStep::NeedMore { bytes: moved }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return WriteStep::Disconnected,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A scripted stream: reads serve from a queue of chunks (`None` =
    /// `WouldBlock`), writes accept at most `write_cap` bytes per call.
    struct Scripted {
        reads: VecDeque<Option<Vec<u8>>>,
        written: Vec<u8>,
        write_cap: usize,
        write_blocks: VecDeque<bool>,
    }

    impl Scripted {
        fn new(reads: Vec<Option<Vec<u8>>>) -> Scripted {
            Scripted {
                reads: reads.into(),
                written: Vec::new(),
                write_cap: usize::MAX,
                write_blocks: VecDeque::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match self.reads.pop_front() {
                Some(Some(mut chunk)) => {
                    // Serve at most what was asked; requeue the rest so a
                    // single script chunk can span parse states.
                    let n = chunk.len().min(buf.len());
                    buf[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        chunk.drain(..n);
                        self.reads.push_front(Some(chunk));
                    }
                    Ok(n)
                }
                Some(None) | None => Err(io::ErrorKind::WouldBlock.into()),
            }
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.write_blocks.pop_front().unwrap_or(false) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.write_cap);
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn whole_frame_in_one_read_dispatches() {
        let bytes = frame(b"hello");
        let mut c = Conn::new(Scripted::new(vec![Some(bytes)]), 1, Instant::now());
        match c.on_readable(Instant::now()) {
            ReadStep::Frame(p) => assert_eq!(p, b"hello"),
            other => panic!("expected Frame, got {other:?}"),
        }
        assert_eq!(c.state(), ConnState::Dispatched);
        assert!(c.received.is_some());
    }

    #[test]
    fn one_byte_dribble_assembles_the_frame() {
        // Every byte arrives alone, with a WouldBlock between each — the
        // worst-behaved client the protocol allows.
        let bytes = frame(b"dribble");
        let mut script: Vec<Option<Vec<u8>>> = Vec::new();
        for b in &bytes {
            script.push(Some(vec![*b]));
            script.push(None);
        }
        let mut c = Conn::new(Scripted::new(script), 1, Instant::now());
        let mut got = None;
        for _ in 0..bytes.len() + 1 {
            match c.on_readable(Instant::now()) {
                ReadStep::Frame(p) => {
                    got = Some(p);
                    break;
                }
                ReadStep::NeedMore { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(got.expect("frame must assemble"), b"dribble");
    }

    #[test]
    fn slow_loris_stays_mid_frame_not_dispatched() {
        // Two bytes of length prefix, then silence.
        let mut c = Conn::new(
            Scripted::new(vec![Some(vec![0x10, 0x00]), None]),
            1,
            Instant::now(),
        );
        assert!(!c.mid_frame(), "accepted but idle is not mid-frame");
        match c.on_readable(Instant::now()) {
            ReadStep::NeedMore { bytes } => assert_eq!(bytes, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.state(), ConnState::ReadingLen);
        assert!(c.mid_frame(), "partial prefix is the loris signature");
    }

    #[test]
    fn mid_frame_disconnect_reports_disconnected() {
        let bytes = frame(b"abcdef");
        let half = bytes[..5].to_vec();
        // EOF (Ok(0)) is modeled by an empty chunk.
        let mut c = Conn::new(
            Scripted::new(vec![Some(half), Some(vec![])]),
            1,
            Instant::now(),
        );
        match c.on_readable(Instant::now()) {
            ReadStep::Disconnected => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocation() {
        let huge = (MAX_FRAME + 1).to_le_bytes().to_vec();
        let mut c = Conn::new(Scripted::new(vec![Some(huge)]), 1, Instant::now());
        match c.on_readable(Instant::now()) {
            ReadStep::TooLarge(len) => assert_eq!(len, MAX_FRAME + 1),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn response_writes_incrementally_until_flushed() {
        let mut stream = Scripted::new(vec![]);
        stream.write_cap = 3;
        stream.write_blocks = vec![false, true, false, false, false, false].into();
        let mut c = Conn::new(stream, 1, Instant::now());
        c.queue_response(b"0123456789");
        assert!(c.writing());
        let mut flushed = false;
        for _ in 0..8 {
            match c.on_writable(Instant::now()) {
                WriteStep::Flushed => {
                    flushed = true;
                    break;
                }
                WriteStep::NeedMore { .. } => {}
                WriteStep::Disconnected => panic!("scripted stream never disconnects"),
            }
        }
        assert!(flushed);
        assert_eq!(c.state(), ConnState::Done);
        assert_eq!(c.stream().written, frame(b"0123456789"));
    }

    #[test]
    fn zero_length_frame_dispatches_empty_payload() {
        let mut c = Conn::new(
            Scripted::new(vec![Some(0u32.to_le_bytes().to_vec())]),
            1,
            Instant::now(),
        );
        match c.on_readable(Instant::now()) {
            ReadStep::Frame(p) => assert!(p.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }
}
