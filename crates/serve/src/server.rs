//! The serving core: an event-driven front feeding one dispatcher.
//!
//! ```text
//!   epoll ◄─── doorbell ◄──────────┐
//!     │ readiness                  │
//!     ▼                            │
//!   conn state machines            │ completions
//!     │ complete frames            │
//!     ▼                            │
//!   work queue (bounded)           │
//!     │                            │
//!     ▼                            │
//!   dispatcher: one job → run_report → respond
//! ```
//!
//! The front is one thread ([`crate::poll`] + [`crate::conn`]) that holds
//! every connection as a small state machine: tens of thousands of idle
//! or byte-dribbling clients cost file descriptors, not blocked OS
//! threads, and a slow peer can only ever starve itself. Targets without
//! `epoll` cannot serve: [`Server::bind`] returns the poller's
//! [`io::ErrorKind::Unsupported`] error.
//!
//! The front sheds instead of blocking: a full work queue (a std
//! [`mpsc::sync_channel`]) or a connection over the ceiling (see
//! [`ServerConfig::max_conns`]) turns into a typed
//! [`Status::Overloaded`] response with a [`RETRY_AFTER`] hint, a *closed* queue
//! (the server is draining) into [`Status::ShuttingDown`] — never a hung
//! connection. The dispatcher receives one job at a time and answers it with
//! one [`run_report`] call on the shared worker pool — the function a
//! local `replay report --json` reaches with the generic core model,
//! which is what makes a served body byte-identical to a local one.
//!
//! Shutdown (programmatic flag or SIGTERM via [`crate::signal`]) stops
//! the accept path immediately, then *drains*: requests already parsed
//! are simulated and answered; connections that never sent a complete
//! request are closed (they may never speak), and only then does
//! [`Server::run`] return.
//!
//! [`ServerConfig`] holds only what deployments or tests set: the worker
//! count, the queue bound, the connection ceiling, and the timing windows
//! tests shrink. The request deadline default, the overload retry hint
//! and the inline-trace cache size are constants.

use crate::conn::{Conn, ConnState, ReadStep, WriteStep};
use crate::poll;
use crate::proto::{Request, Response, Source, Status};
use crate::signal;
use replay_obs::Profile;
use replay_sim::report::run_report;
use replay_sim::TraceStore;
use replay_trace::{read_trace, workloads, Trace};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for one [`Server`]. `Default` is sized for a small shared box;
/// tests shrink the queues to force shedding and set `dispatch_hold` to
/// make races deterministic.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulation worker threads per request (the CLI's `--jobs`).
    pub jobs: usize,
    /// Parsed requests awaiting dispatch before shedding starts.
    pub work_queue: usize,
    /// How long a connection may sit *mid-frame* (or mid-response)
    /// without moving a byte before being closed — a connection that has
    /// sent nothing at all is idle, not stalled, and is never timed out.
    pub io_timeout: Duration,
    /// Test hook: sleep this long before executing each job, making
    /// overload and deadline windows deterministic under test. Zero in
    /// production.
    pub dispatch_hold: Duration,
    /// Concurrent-connection ceiling; the connection that would exceed
    /// it is answered [`Status::Overloaded`] immediately. [`Server::bind`]
    /// lowers it to fit the open-file limit.
    pub max_conns: usize,
}

/// Deadline applied to requests that do not carry their own.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Retry hint sent with overload-shed responses.
pub const RETRY_AFTER: Duration = Duration::from_millis(50);

/// File descriptors the connection ceiling leaves for the server's own
/// files: stdio, the listener, the poller, the doorbell pair, the store
/// artifacts being read or written, and the connection being shed.
const FD_RESERVE: u64 = 32;

/// Decoded inline traces kept warm, keyed by content digest, evicted
/// least-recently-used. Bounded so sustained unique-trace traffic cannot
/// grow server memory without limit.
const INLINE_CACHE_CAP: usize = 64;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            jobs: replay_sim::parallel::available_jobs(),
            work_queue: 64,
            io_timeout: Duration::from_secs(10),
            dispatch_hold: Duration::ZERO,
            max_conns: 20_000,
        }
    }
}

/// What [`Server::run`] returns after draining: the serve-side metrics
/// profile (queue depths, shed/latency accounting, and the per-state
/// connection counters).
#[derive(Debug)]
pub struct ServeStats {
    /// The event loop's and the dispatcher's metrics, merged.
    pub profile: Profile,
}

impl ServeStats {
    /// Requests answered [`Status::Ok`].
    pub fn served(&self) -> u64 {
        self.profile.counter("serve.requests.ok")
    }

    /// Response frames that could not be written back (peer gone).
    pub fn write_failed(&self) -> u64 {
        self.profile.counter("serve.responses.write_failed")
    }

    /// Requests shed with [`Status::Overloaded`] (connection ceiling and
    /// work queue).
    pub fn shed(&self) -> u64 {
        self.profile.counter("serve.shed.conn") + self.profile.counter("serve.shed.work")
    }
}

/// One parsed request awaiting dispatch. Its response goes back to the
/// event loop under `token` (via the completion channel + doorbell).
struct Job {
    req: Request,
    token: u64,
    received: Instant,
}

/// Encoded responses traveling from the dispatcher back to the event
/// loop: `(connection token, encoded response payload)`.
type Completion = (u64, Vec<u8>);

/// Maps a refused admission to its wire response and shed counter — the
/// single source of truth for the connection ceiling and the work queue.
/// A *full* queue is genuine overload (retry after the hint); a *closed*
/// queue means the server is draining, so the response says "shutting
/// down" with a zero retry hint (retry immediately, elsewhere) and is
/// counted separately.
fn shed_outcome(closed: bool, stage: &'static str) -> (Response, &'static str) {
    if closed {
        (
            Response::reject(Status::ShuttingDown, "server is draining; retry elsewhere")
                .with_retry_after(0),
            "serve.shed.shutdown",
        )
    } else {
        let counter = if stage == "accept" {
            "serve.shed.conn"
        } else {
            "serve.shed.work"
        };
        (
            Response::reject(Status::Overloaded, format!("{stage} queue full"))
                .with_retry_after(RETRY_AFTER.as_millis() as u64),
            counter,
        )
    }
}

/// Answers one job — the single exit point for Ok, BadRequest, shed, and
/// deadline responses alike, so every answered request lands in the
/// `serve.latency_ms` histogram (tail latency is most interesting
/// exactly when requests are being shed, which is when the old per-path
/// responders used to skip it).
fn finish_job(job: Job, resp: &Response, done: &Done<'_>, profile: &mut Profile) {
    profile.hist_record(
        "serve.latency_ms",
        job.received.elapsed().as_millis() as u64,
    );
    // The event loop outlives the dispatcher, so the send cannot fail.
    let _ = done.tx.send((job.token, resp.encode()));
    done.bell.ring();
}

/// The dispatcher's way back to the event loop: a completion goes on the
/// channel, then the doorbell wakes the loop to drain it.
struct Done<'a> {
    tx: Sender<Completion>,
    bell: &'a poll::Doorbell,
}

/// A TCP simulation server. [`Server::bind`] claims the address;
/// [`Server::run`] serves until shutdown and returns the metrics.
pub struct Server {
    listener: TcpListener,
    poller: poll::Poller,
    bell: poll::Doorbell,
    cfg: ServerConfig,
    stop: Arc<AtomicBool>,
    trace_store: Option<Arc<TraceStore>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:4655`; port 0 picks a free port)
    /// and creates the readiness poller the server runs on. Where
    /// [`poll::supported`] is false this fails with
    /// [`io::ErrorKind::Unsupported`].
    ///
    /// It raises the soft open-file limit toward the connection ceiling
    /// and lowers the ceiling to fit it, so that an extra connection is
    /// shed rather than failing `accept`.
    pub fn bind(addr: &str, mut cfg: ServerConfig) -> io::Result<Server> {
        let poller = poll::Poller::new()?;
        let bell = poll::Doorbell::new()?;
        let soft = poll::raise_nofile_limit((cfg.max_conns as u64).saturating_add(FD_RESERVE))?;
        let room = soft.saturating_sub(FD_RESERVE).max(1);
        cfg.max_conns = cfg
            .max_conns
            .min(usize::try_from(room).unwrap_or(usize::MAX));
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            poller,
            bell,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
            trace_store: None,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that initiates graceful shutdown when set to `true`.
    /// SIGTERM/SIGINT (after [`signal::install`]) works identically.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serves from this private trace store instead of the process-wide
    /// [`TraceStore::global`]. This is how an in-process server (tests,
    /// embedders) keeps its own memoization and counters, so a test can
    /// count what this server synthesized.
    pub fn with_trace_store(mut self, trace_store: Arc<TraceStore>) -> Server {
        self.trace_store = Some(trace_store);
        self
    }

    /// Serves until shutdown, then drains in-flight work and returns the
    /// metrics profile. One thread owns every connection's state machine;
    /// the dispatcher runs on a scoped thread that sends each answer on the
    /// completion channel and rings the doorbell that wakes the poll loop.
    /// It is joined before return — so when this returns every parsed
    /// request has been answered. The returned profile is the event loop's
    /// metrics followed by the dispatcher's, folded with [`Profile::merge`].
    pub fn run(self) -> ServeStats {
        #[cfg(not(unix))]
        unreachable!("Server::bind fails where readiness polling is unsupported");
        #[cfg(unix)]
        self.run_event()
    }

    #[cfg(unix)]
    fn run_event(self) -> ServeStats {
        let cfg = &self.cfg;
        let trace_store = self
            .trace_store
            .as_deref()
            .unwrap_or_else(|| TraceStore::global());
        let (work, jobs) = mpsc::sync_channel(cfg.work_queue.max(1));
        let (tx, completions) = mpsc::channel();
        let bell = &self.bell;

        let profile = std::thread::scope(|scope| {
            let dispatcher = {
                let done = Done { tx, bell };
                scope.spawn(move || dispatcher_loop(cfg, &jobs, &done, trace_store))
            };
            let el = event::EventLoop::new(cfg, &self.listener, self.poller, bell, work);
            let stop = &self.stop;
            let mut profile = el.serve(&completions, || {
                stop.load(Ordering::SeqCst) || signal::triggered()
            });
            profile.merge(&dispatcher.join().expect("dispatcher panicked"));
            profile
        });

        ServeStats { profile }
    }
}

/// Decoded inline traces kept warm, keyed by content digest, with a
/// hard capacity of [`INLINE_CACHE_CAP`] and deterministic
/// least-recently-used eviction (the entry order is a pure function of
/// the request sequence).
#[derive(Default)]
struct InlineTraceCache {
    /// LRU order: least recent at the front, most recent at the back.
    entries: Vec<(u64, Arc<Trace>)>,
}

impl InlineTraceCache {
    fn get(&mut self, digest: u64) -> Option<Arc<Trace>> {
        let i = self.entries.iter().position(|(d, _)| *d == digest)?;
        let entry = self.entries.remove(i);
        let trace = Arc::clone(&entry.1);
        self.entries.push(entry);
        Some(trace)
    }

    fn insert(&mut self, digest: u64, trace: Arc<Trace>, profile: &mut Profile) {
        while self.entries.len() >= INLINE_CACHE_CAP {
            self.entries.remove(0);
            profile.counter_add("serve.inline_trace.evictions", 1);
        }
        self.entries.push((digest, trace));
    }
}

/// Receives one job at a time and answers it alone. Once the event loop
/// drops its sender (the drain), `recv` hands over what is still queued
/// and then ends the loop.
fn dispatcher_loop(
    cfg: &ServerConfig,
    jobs: &Receiver<Job>,
    done: &Done<'_>,
    trace_store: &TraceStore,
) -> Profile {
    let mut profile = Profile::new();
    let mut inline_traces = InlineTraceCache::default();
    while let Ok(job) = jobs.recv() {
        if !cfg.dispatch_hold.is_zero() {
            std::thread::sleep(cfg.dispatch_hold);
        }
        process_job(
            cfg,
            job,
            &mut inline_traces,
            done,
            trace_store,
            &mut profile,
        );
    }
    profile
}

/// Deadline check → trace resolution → [`run_report`] → response.
fn process_job(
    cfg: &ServerConfig,
    job: Job,
    inline_traces: &mut InlineTraceCache,
    done: &Done<'_>,
    trace_store: &TraceStore,
    profile: &mut Profile,
) {
    // Shed an expired job first: simulating a request nobody is waiting
    // on wastes the pool.
    let limit = if job.req.deadline_ms > 0 {
        Duration::from_millis(job.req.deadline_ms)
    } else {
        DEFAULT_DEADLINE
    };
    if job.received.elapsed() > limit {
        profile.counter_add("serve.requests.deadline", 1);
        let resp = Response::reject(
            Status::DeadlineExceeded,
            format!("queued longer than {limit:?}"),
        );
        finish_job(job, &resp, done, profile);
        return;
    }

    let resolved: Result<Arc<Trace>, String> = match &job.req.source {
        Source::Workload(name) => match workloads::by_name(name) {
            Some(w) => Ok(trace_store.segment(&w, 0, job.req.scale as usize)),
            None => Err(format!("unknown workload {name:?}")),
        },
        Source::TraceBytes(bytes) => {
            let digest = replay_store::digest_bytes(bytes);
            match inline_traces.get(digest) {
                Some(t) => {
                    profile.counter_add("serve.inline_trace.hits", 1);
                    Ok(t)
                }
                None => match read_trace(&bytes[..]) {
                    Ok(t) => {
                        let t = Arc::new(t);
                        inline_traces.insert(digest, Arc::clone(&t), profile);
                        Ok(t)
                    }
                    Err(e) => Err(format!("undecodable trace payload: {e}")),
                },
            }
        }
    };
    let resp = match resolved {
        // The function `replay report` reaches with the generic core
        // model, so a served body equals a local one by construction.
        Ok(trace) => {
            let (_, json) = run_report(&trace, cfg.jobs, job.req.timings);
            profile.counter_add("serve.requests.ok", 1);
            Response::ok(json.into_bytes())
        }
        Err(msg) => {
            profile.counter_add("serve.requests.bad", 1);
            Response::reject(Status::BadRequest, &msg)
        }
    };
    finish_job(job, &resp, done, profile);
}

#[cfg(unix)]
mod event {
    //! The readiness-polling front half.

    use super::*;
    use crate::poll::{Doorbell, Event, Interest, Poller};
    use std::collections::HashMap;
    use std::os::fd::AsRawFd;

    const TOK_LISTENER: u64 = 0;
    const TOK_BELL: u64 = 1;
    const TOK_FIRST_CONN: u64 = 2;

    /// The event loop's whole world: the poller, every live connection's
    /// state machine, and the counters.
    pub(super) struct EventLoop<'a> {
        cfg: &'a ServerConfig,
        listener: &'a TcpListener,
        poller: Poller,
        bell: &'a Doorbell,
        /// The work queue's sending side; `None` once draining, which
        /// closes the queue.
        work: Option<SyncSender<Job>>,
        conns: HashMap<u64, Conn<TcpStream>>,
        next_token: u64,
        /// Jobs handed to the dispatcher whose completions have not come
        /// back yet — the drain-exit condition.
        in_flight: usize,
        draining: bool,
        /// The listener is unwatched until the next sweep: `accept`
        /// failed for want of a descriptor.
        accept_paused: bool,
        profile: Profile,
    }

    impl<'a> EventLoop<'a> {
        pub(super) fn new(
            cfg: &'a ServerConfig,
            listener: &'a TcpListener,
            poller: Poller,
            bell: &'a Doorbell,
            work: SyncSender<Job>,
        ) -> EventLoop<'a> {
            EventLoop {
                cfg,
                listener,
                poller,
                bell,
                work: Some(work),
                conns: HashMap::new(),
                next_token: TOK_FIRST_CONN,
                in_flight: 0,
                draining: false,
                accept_paused: false,
                profile: Profile::new(),
            }
        }

        /// Runs until `stopping` and the subsequent drain complete;
        /// returns this thread's metrics.
        pub(super) fn serve(
            mut self,
            completions: &Receiver<Completion>,
            stopping: impl Fn() -> bool,
        ) -> Profile {
            self.poller
                .add(self.listener.as_raw_fd(), TOK_LISTENER, Interest::READ)
                .expect("register listener");
            self.poller
                .add(self.bell.fd(), TOK_BELL, Interest::READ)
                .expect("register doorbell");

            // Sweep stalled connections a few times per timeout window;
            // cap the interval so huge timeouts still sweep regularly.
            let sweep_every = (self.cfg.io_timeout / 4)
                .max(Duration::from_millis(5))
                .min(Duration::from_secs(1));
            let mut last_sweep = Instant::now();
            let mut events: Vec<Event> = Vec::new();

            loop {
                if !self.draining && stopping() {
                    self.begin_drain();
                }
                if self.draining && self.in_flight == 0 && self.conns.is_empty() {
                    break;
                }
                let n = self.poller.wait(&mut events, 20).unwrap_or(0);
                if n > 0 {
                    self.profile.counter_add("serve.poll.wakeups", 1);
                }
                let now = Instant::now();
                for &ev in &events {
                    match ev.token {
                        TOK_LISTENER => self.accept_ready(now),
                        TOK_BELL => self.bell.drain(),
                        token => self.conn_event(token, ev, now),
                    }
                }
                // Always drain completions — cheap when empty, and doing
                // it unconditionally means a doorbell ring can never be
                // lost between the drain and the next wait.
                while let Ok((token, payload)) = completions.try_recv() {
                    self.in_flight -= 1;
                    self.deliver(token, &payload, now);
                }
                if now.saturating_duration_since(last_sweep) >= sweep_every {
                    last_sweep = now;
                    self.sweep(now);
                }
            }
            self.profile
        }

        /// Stop accepting; close connections that never completed a
        /// request (they may never speak, and waiting on them would hold
        /// the drain hostage); drop the work queue's sender so the
        /// dispatcher drains what was parsed and exits.
        fn begin_drain(&mut self) {
            self.draining = true;
            let _ = self.poller.remove(self.listener.as_raw_fd());
            self.conns
                .retain(|_, c| matches!(c.state(), ConnState::Dispatched) || c.writing());
            self.work = None;
        }

        fn accept_ready(&mut self, now: Instant) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        self.profile.counter_add("serve.accepted", 1);
                        let _ = stream.set_nonblocking(true);
                        let _ = stream.set_nodelay(true);
                        let token = self.next_token;
                        self.next_token += 1;
                        let fd = stream.as_raw_fd();
                        let mut conn = Conn::new(stream, token, now);
                        if self.conns.len() >= self.cfg.max_conns {
                            // Over the ceiling: answer Overloaded through
                            // the same state machine (the write may need
                            // readiness too) and count it as a conn shed.
                            let (resp, counter) = shed_outcome(false, "accept");
                            self.profile.counter_add(counter, 1);
                            conn.queue_response(&resp.encode());
                            self.profile.counter_add("serve.conns.writing", 1);
                            if self.poller.add(fd, token, Interest::WRITE).is_ok() {
                                self.conns.insert(token, conn);
                                self.drive_write(token, now);
                            }
                        } else if self.poller.add(fd, token, Interest::READ).is_ok() {
                            self.profile.counter_add("serve.conns.idle", 1);
                            self.conns.insert(token, conn);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                    Err(_) => {
                        // Out of descriptors or kernel memory: the
                        // connection stays queued, and the level-triggered
                        // listener would report it on every wait. Stop
                        // watching until the next sweep.
                        let fd = self.listener.as_raw_fd();
                        let _ = self.poller.modify(fd, TOK_LISTENER, Interest::NONE);
                        self.accept_paused = true;
                        break;
                    }
                }
            }
        }

        /// One readiness event for one connection.
        fn conn_event(&mut self, token: u64, ev: Event, now: Instant) {
            let Some(conn) = self.conns.get_mut(&token) else {
                return; // stale event for a finished connection
            };
            let state = conn.state();
            if ev.readable
                && matches!(
                    state,
                    ConnState::Accepted | ConnState::ReadingLen | ConnState::ReadingPayload
                )
            {
                let was_idle = conn.state() == ConnState::Accepted;
                let step = conn.on_readable(now);
                if was_idle && conn.state() != ConnState::Accepted {
                    self.profile.counter_add("serve.conns.reading", 1);
                }
                match step {
                    ReadStep::Frame(payload) => self.frame_complete(token, &payload, now),
                    ReadStep::NeedMore { bytes } => {
                        if bytes > 0 {
                            self.profile
                                .hist_record("serve.read.partial_bytes", bytes as u64);
                        }
                    }
                    ReadStep::TooLarge(len) => {
                        self.profile.counter_add("serve.requests.bad", 1);
                        let resp = Response::reject(
                            Status::BadRequest,
                            format!("frame length {len} exceeds {}", crate::proto::MAX_FRAME),
                        );
                        self.queue_and_write(token, &resp.encode(), now);
                    }
                    ReadStep::Disconnected => {
                        self.profile.counter_add("serve.conns.disconnected", 1);
                        self.conns.remove(&token);
                        return;
                    }
                }
            } else if ev.hung_up || (ev.closed && state != ConnState::Dispatched) {
                // The peer is gone, or stopped sending with no response
                // owed to it. Dropping the connection also ends the
                // level-triggered report; a dispatched job's completion
                // then counts `serve.responses.conn_gone`.
                self.profile.counter_add("serve.conns.disconnected", 1);
                self.conns.remove(&token);
                return;
            }
            if ev.writable || ev.closed {
                if let Some(conn) = self.conns.get(&token) {
                    if conn.writing() {
                        self.drive_write(token, now);
                    }
                }
            }
        }

        /// A complete frame arrived: decode, then dispatch or shed — all
        /// without leaving this thread. A payload that is not a valid
        /// request (any other message kind, a bad checksum, a `scale`
        /// over [`crate::proto::MAX_SCALE`]) is answered `BadRequest`
        /// right here and never queued.
        fn frame_complete(&mut self, token: u64, payload: &[u8], now: Instant) {
            match Request::decode(payload) {
                Ok(req) => {
                    self.profile.counter_add("serve.requests.received", 1);
                    let job = Job {
                        req,
                        token,
                        received: now,
                    };
                    let sent = match &self.work {
                        Some(work) => work.try_send(job),
                        None => Err(TrySendError::Disconnected(job)),
                    };
                    match sent {
                        Ok(()) => {
                            // The admitted requests not yet answered are
                            // the ones ahead of this one.
                            self.profile
                                .hist_record("serve.queue_depth", self.in_flight as u64);
                            self.in_flight += 1;
                            // Nothing to read or write until the
                            // completion comes back. Without read
                            // interest a half-closed peer no longer
                            // wakes the loop, yet still gets its reply.
                            if let Some(conn) = self.conns.get(&token) {
                                let fd = conn.stream().as_raw_fd();
                                let _ = self.poller.modify(fd, token, Interest::NONE);
                            }
                        }
                        Err(err) => {
                            let closed = matches!(err, TrySendError::Disconnected(_));
                            let (TrySendError::Full(job) | TrySendError::Disconnected(job)) = err;
                            let (resp, counter) = shed_outcome(closed, "work");
                            self.profile.counter_add(counter, 1);
                            self.profile.hist_record(
                                "serve.latency_ms",
                                job.received.elapsed().as_millis() as u64,
                            );
                            self.queue_and_write(token, &resp.encode(), now);
                        }
                    }
                }
                Err(e) => {
                    self.profile.counter_add("serve.requests.bad", 1);
                    let resp = Response::reject(Status::BadRequest, e.to_string());
                    self.queue_and_write(token, &resp.encode(), now);
                }
            }
        }

        /// A completion came back from the dispatcher for `token`.
        fn deliver(&mut self, token: u64, payload: &[u8], now: Instant) {
            if self.conns.contains_key(&token) {
                self.queue_and_write(token, payload, now);
            } else {
                // The peer hung up while its request was being simulated.
                self.profile.counter_add("serve.responses.conn_gone", 1);
            }
        }

        /// Queues an encoded response on a connection and pushes as many
        /// bytes as the socket will take right now.
        fn queue_and_write(&mut self, token: u64, payload: &[u8], now: Instant) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.queue_response(payload);
                self.profile.counter_add("serve.conns.writing", 1);
                self.drive_write(token, now);
            }
        }

        fn drive_write(&mut self, token: u64, now: Instant) {
            let (step, fd) = match self.conns.get_mut(&token) {
                Some(conn) => (conn.on_writable(now), conn.stream().as_raw_fd()),
                None => return,
            };
            match step {
                WriteStep::Flushed => {
                    self.conns.remove(&token);
                }
                WriteStep::NeedMore { bytes } => {
                    if bytes > 0 {
                        self.profile
                            .hist_record("serve.write.partial_bytes", bytes as u64);
                    }
                    let _ = self.poller.modify(fd, token, Interest::WRITE);
                }
                WriteStep::Disconnected => {
                    self.profile.counter_add("serve.responses.write_failed", 1);
                    self.conns.remove(&token);
                }
            }
        }

        /// Closes connections stalled mid-frame or mid-response past
        /// `io_timeout` (a slow-loris peer evaporates here); connections
        /// that never sent a byte are idle, not stalled, and stay. Also
        /// retries a paused `accept`.
        fn sweep(&mut self, now: Instant) {
            if std::mem::take(&mut self.accept_paused) && !self.draining {
                let fd = self.listener.as_raw_fd();
                let _ = self.poller.modify(fd, TOK_LISTENER, Interest::READ);
            }
            let timeout = self.cfg.io_timeout;
            let stale: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| {
                    (c.mid_frame() || c.writing())
                        && now.saturating_duration_since(c.last_activity) > timeout
                })
                .map(|(t, _)| *t)
                .collect();
            for token in stale {
                self.profile.counter_add("serve.conns.timed_out", 1);
                self.conns.remove(&token);
            }
            self.profile
                .hist_record("serve.conns.open", self.conns.len() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_queue_sheds_overloaded_with_retry_hint() {
        let (resp, counter) = shed_outcome(false, "accept");
        assert_eq!(resp.status, Status::Overloaded);
        assert_eq!(resp.retry_after_ms, RETRY_AFTER.as_millis() as u64);
        assert_eq!(counter, "serve.shed.conn");
        let (resp, counter) = shed_outcome(false, "work");
        assert_eq!(resp.status, Status::Overloaded);
        assert_eq!(counter, "serve.shed.work");
    }

    #[test]
    fn closed_queue_sheds_shutting_down_with_zero_retry() {
        // Regression: a closed queue used to be answered "Overloaded:
        // accept queue full", telling clients to retry a server that is
        // going away. Draining is its own status and its own counter.
        for stage in ["accept", "work"] {
            let (resp, counter) = shed_outcome(true, stage);
            assert_eq!(resp.status, Status::ShuttingDown, "{stage}");
            assert_eq!(resp.retry_after_ms, 0, "{stage}");
            assert!(resp.status.is_retryable());
            assert_eq!(counter, "serve.shed.shutdown", "{stage}");
        }
    }

    #[test]
    fn inline_trace_cache_bounds_and_evicts_lru() {
        let w = workloads::by_name("gzip").expect("workload");
        let trace = Arc::new(w.segment_trace(0, 50));
        let mut cache = InlineTraceCache::default();
        let mut profile = Profile::new();
        let cap = INLINE_CACHE_CAP as u64;
        for digest in 1..=cap {
            cache.insert(digest, Arc::clone(&trace), &mut profile);
        }
        // Touch 1 so it becomes most-recent; inserting one more must
        // evict 2.
        assert!(cache.get(1).is_some());
        cache.insert(cap + 1, Arc::clone(&trace), &mut profile);
        assert_eq!(cache.entries.len(), INLINE_CACHE_CAP);
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(cap + 1).is_some());
        assert_eq!(profile.counter("serve.inline_trace.evictions"), 1);
    }
}
