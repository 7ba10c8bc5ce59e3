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
//!   dispatcher: batch → dedupe → run_specs → respond
//! ```
//!
//! The front is one thread ([`crate::poll`] + [`crate::conn`]) that holds
//! every connection as a small state machine: tens of thousands of idle
//! or byte-dribbling clients cost file descriptors, not blocked OS
//! threads, and a slow peer can only ever starve itself. Targets without
//! the epoll shim cannot serve: [`Server::bind`] returns the shim's
//! [`io::ErrorKind::Unsupported`] error.
//!
//! The front sheds instead of blocking: a full queue (or a connection
//! over [`ServerConfig::max_conns`]) turns into a typed
//! [`Status::Overloaded`] response with a [`RETRY_AFTER`] hint, a *closed* queue
//! (the server is draining) into [`Status::ShuttingDown`] — never a hung
//! connection. The dispatcher collects jobs into batches (deduplicating
//! identical requests batch-locally), runs each batch as one
//! [`run_specs`] call on the shared worker pool, and renders responses
//! through the same [`replay_sim::report`] code path the CLI uses — which
//! is what makes a served body byte-identical to a local
//! `replay report --json`.
//!
//! Shutdown (programmatic flag or SIGTERM via [`crate::signal`]) stops
//! the accept path immediately, then *drains*: requests already parsed
//! are simulated and answered; connections that never sent a complete
//! request are closed (they may never speak), and only then does
//! [`Server::run`] return.
//!
//! [`ServerConfig`] holds only what deployments or tests set: the worker
//! count, the queue and batch bounds, the connection ceiling, and the
//! timing windows tests shrink. The request deadline default, the overload
//! retry hint and the inline-trace cache size are constants.

use crate::conn::{Conn, ConnState, ReadStep, WriteStep};
use crate::poll;
use crate::proto::{Request, Response, Source, Status};
use crate::queue::{Bounded, Pop, PushError};
use crate::signal;
use replay_obs::{Obs, Profile, Registry};
use replay_sim::experiment::run_specs;
use replay_sim::report::{render_report, specs_for_trace};
use replay_sim::TraceStore;
use replay_trace::{read_trace, workloads, Trace};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning for one [`Server`]. `Default` is sized for a small shared box;
/// tests shrink the queues to force shedding and set `batch_hold` to
/// make races deterministic.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Simulation worker threads per batch (the CLI's `--jobs`).
    pub jobs: usize,
    /// Parsed requests awaiting dispatch before shedding starts.
    pub work_queue: usize,
    /// Most requests dispatched as one simulation batch.
    pub batch_max: usize,
    /// How long the dispatcher lingers for stragglers after the first
    /// job of a batch arrives.
    pub batch_linger: Duration,
    /// How long a connection may sit *mid-frame* (or mid-response)
    /// without moving a byte before being closed — a connection that has
    /// sent nothing at all is idle, not stalled, and is never timed out.
    pub io_timeout: Duration,
    /// Test hook: sleep this long before executing each batch, making
    /// overload and deadline windows deterministic under test. Zero in
    /// production.
    pub batch_hold: Duration,
    /// Concurrent-connection ceiling; the connection that would exceed
    /// it is answered [`Status::Overloaded`] immediately.
    pub max_conns: usize,
}

/// Deadline applied to requests that do not carry their own.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(30);

/// Retry hint sent with overload-shed responses.
pub const RETRY_AFTER: Duration = Duration::from_millis(50);

/// Decoded inline traces kept warm, keyed by content digest, evicted
/// least-recently-used. Bounded so sustained unique-trace traffic cannot
/// grow server memory without limit.
const INLINE_CACHE_CAP: usize = 64;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            jobs: replay_sim::parallel::available_jobs(),
            work_queue: 64,
            batch_max: 8,
            batch_linger: Duration::from_millis(2),
            io_timeout: Duration::from_secs(10),
            batch_hold: Duration::ZERO,
            max_conns: 20_000,
        }
    }
}

/// What [`Server::run`] returns after draining: the serve-side metrics
/// profile (queue depths, batch sizes, shed/latency accounting, and the
/// per-state connection counters).
#[derive(Debug)]
pub struct ServeStats {
    /// Merged metrics from every serving thread, deterministic order.
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
/// event loop under `token` (via the completion queue + doorbell).
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
fn finish_job(job: Job, resp: &Response, completions: &Bounded<Completion>, obs: &mut Obs) {
    obs.hist(
        "serve.latency_ms",
        job.received.elapsed().as_millis() as u64,
    );
    let _ = completions.try_push((job.token, resp.encode()));
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
    pub fn bind(addr: &str, cfg: ServerConfig) -> io::Result<Server> {
        let poller = poll::Poller::new()?;
        let bell = poll::Doorbell::new()?;
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
    /// the dispatcher runs on a scoped thread that answers through the
    /// completion queue, whose doorbell wakes the poll loop, and is
    /// joined before return — so when this returns every parsed request
    /// has been answered.
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
        let work_q: Bounded<Job> = Bounded::new(cfg.work_queue);
        let completions: Bounded<Completion> = Bounded::new(usize::MAX);
        let bell = Arc::new(self.bell);
        {
            let bell = Arc::clone(&bell);
            completions.set_waker(Box::new(move || bell.ring()));
        }
        let registry = Registry::new();

        std::thread::scope(|scope| {
            {
                let (work_q, completions, registry) = (&work_q, &completions, &registry);
                scope.spawn(move || {
                    let profile = dispatcher_loop(cfg, work_q, completions, trace_store);
                    registry.submit(1, profile);
                });
            }
            let mut el = event::EventLoop::new(cfg, &self.listener, self.poller, bell, &work_q);
            let stop = &self.stop;
            let profile = el.serve(&completions, || {
                stop.load(Ordering::SeqCst) || signal::triggered()
            });
            registry.submit(0, profile);
        });

        ServeStats {
            profile: registry.finish(),
        }
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

    fn insert(&mut self, digest: u64, trace: Arc<Trace>, obs: &mut Obs) {
        while self.entries.len() >= INLINE_CACHE_CAP {
            self.entries.remove(0);
            obs.counter("serve.inline_trace.evictions", 1);
        }
        self.entries.push((digest, trace));
    }
}

/// Collects jobs into batches, deduplicates identical requests, runs each
/// batch as one pool submission, and answers every job.
fn dispatcher_loop(
    cfg: &ServerConfig,
    work_q: &Bounded<Job>,
    completions: &Bounded<Completion>,
    trace_store: &TraceStore,
) -> Profile {
    let mut obs = Obs::collecting();
    let mut inline_traces = InlineTraceCache::default();
    loop {
        let first = match work_q.pop() {
            Pop::Item(j) => j,
            Pop::Closed => break,
            Pop::Empty => continue,
        };
        let mut batch = vec![first];
        let linger_until = Instant::now() + cfg.batch_linger;
        while batch.len() < cfg.batch_max.max(1) {
            let now = Instant::now();
            if now >= linger_until {
                break;
            }
            match work_q.pop_timeout(linger_until - now) {
                Pop::Item(j) => batch.push(j),
                Pop::Empty | Pop::Closed => break,
            }
        }
        obs.counter("serve.batches", 1);
        obs.hist("serve.batch_size", batch.len() as u64);
        obs.hist("serve.queue_depth", work_q.len() as u64);
        if !cfg.batch_hold.is_zero() {
            std::thread::sleep(cfg.batch_hold);
        }
        process_batch(
            cfg,
            batch,
            &mut inline_traces,
            completions,
            trace_store,
            &mut obs,
        );
    }
    obs.into_profile()
}

/// Deadline check → trace resolution → one `run_specs` call → responses.
fn process_batch(
    cfg: &ServerConfig,
    batch: Vec<Job>,
    inline_traces: &mut InlineTraceCache,
    completions: &Bounded<Completion>,
    trace_store: &TraceStore,
    obs: &mut Obs,
) {
    // Shed expired jobs first: simulating a request nobody is waiting on
    // wastes the pool.
    let mut live: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        let limit = if job.req.deadline_ms > 0 {
            Duration::from_millis(job.req.deadline_ms)
        } else {
            DEFAULT_DEADLINE
        };
        if job.received.elapsed() > limit {
            obs.counter("serve.requests.deadline", 1);
            let resp = Response::reject(
                Status::DeadlineExceeded,
                format!("queued longer than {limit:?}"),
            );
            finish_job(job, &resp, completions, obs);
        } else {
            live.push(job);
        }
    }

    // Group identical requests: one simulation, many responses. Groups
    // keep first-arrival order so results map back deterministically.
    let mut groups: Vec<(u64, Vec<Job>)> = Vec::new();
    for job in live {
        let key = job.req.key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, jobs)) => {
                obs.counter("serve.requests.deduped", 1);
                jobs.push(job);
            }
            None => groups.push((key, vec![job])),
        }
    }

    // Resolve traces, turning failures into BadRequest for every waiter
    // of that group.
    let mut runnable: Vec<(Arc<Trace>, bool, Vec<Job>)> = Vec::new();
    for (_key, jobs) in groups {
        let req = &jobs[0].req;
        let scale = req.scale as usize;
        let resolved: Result<Arc<Trace>, String> = match &req.source {
            Source::Workload(name) => match workloads::by_name(name) {
                Some(w) => Ok(trace_store.segment(&w, 0, scale)),
                None => Err(format!("unknown workload {name:?}")),
            },
            Source::TraceBytes(bytes) => {
                let digest = replay_store::digest_bytes(bytes);
                match inline_traces.get(digest) {
                    Some(t) => {
                        obs.counter("serve.inline_trace.hits", 1);
                        Ok(t)
                    }
                    None => match read_trace(&bytes[..]) {
                        Ok(t) => {
                            let t = Arc::new(t);
                            inline_traces.insert(digest, Arc::clone(&t), obs);
                            Ok(t)
                        }
                        Err(e) => Err(format!("undecodable trace payload: {e}")),
                    },
                }
            }
        };
        match resolved {
            Ok(trace) => runnable.push((trace, req.timings, jobs)),
            Err(msg) => {
                let resp = Response::reject(Status::BadRequest, &msg);
                for job in jobs {
                    obs.counter("serve.requests.bad", 1);
                    finish_job(job, &resp, completions, obs);
                }
            }
        }
    }
    if runnable.is_empty() {
        return;
    }

    // One pool submission for the whole batch: four specs per unique
    // request, results in submission order, bit-identical at any `jobs`.
    let specs: Vec<_> = runnable
        .iter()
        .flat_map(|(trace, _, _)| specs_for_trace(trace))
        .collect();
    let results = run_specs(&specs, cfg.jobs);
    for (chunk, (trace, timings, jobs)) in results
        .chunks_exact(replay_sim::ConfigKind::ALL.len())
        .zip(runnable)
    {
        // The service always simulates the generic core model, matching a
        // local `replay report --json` with no `--core-model` override.
        let json = render_report(
            &trace.name,
            trace.len(),
            replay_sim::CoreModel::Generic,
            chunk,
            timings,
        );
        let resp = Response::ok(json.into_bytes());
        for job in jobs {
            obs.counter("serve.requests.ok", 1);
            finish_job(job, &resp, completions, obs);
        }
    }
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
        bell: Arc<Doorbell>,
        work_q: &'a Bounded<Job>,
        conns: HashMap<u64, Conn<TcpStream>>,
        next_token: u64,
        /// Jobs handed to the dispatcher whose completions have not come
        /// back yet — the drain-exit condition.
        in_flight: usize,
        draining: bool,
        obs: Obs,
    }

    impl<'a> EventLoop<'a> {
        pub(super) fn new(
            cfg: &'a ServerConfig,
            listener: &'a TcpListener,
            poller: Poller,
            bell: Arc<Doorbell>,
            work_q: &'a Bounded<Job>,
        ) -> EventLoop<'a> {
            EventLoop {
                cfg,
                listener,
                poller,
                bell,
                work_q,
                conns: HashMap::new(),
                next_token: TOK_FIRST_CONN,
                in_flight: 0,
                draining: false,
                obs: Obs::collecting(),
            }
        }

        /// Runs until `stopping` and the subsequent drain complete;
        /// returns this thread's metrics.
        pub(super) fn serve(
            &mut self,
            completions: &Bounded<Completion>,
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
                    self.obs.counter("serve.poll.wakeups", 1);
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
                while let Pop::Item((token, payload)) = completions.try_pop() {
                    self.in_flight -= 1;
                    self.deliver(token, &payload, now);
                }
                if now.saturating_duration_since(last_sweep) >= sweep_every {
                    last_sweep = now;
                    self.sweep(now);
                }
            }
            std::mem::replace(&mut self.obs, Obs::disabled()).into_profile()
        }

        /// Stop accepting; close connections that never completed a
        /// request (they may never speak, and waiting on them would hold
        /// the drain hostage); close the work queue so the dispatcher
        /// drains what was parsed and exits.
        fn begin_drain(&mut self) {
            self.draining = true;
            let _ = self.poller.remove(self.listener.as_raw_fd());
            self.conns
                .retain(|_, c| matches!(c.state(), ConnState::Dispatched) || c.writing());
            self.work_q.close();
        }

        fn accept_ready(&mut self, now: Instant) {
            loop {
                match self.listener.accept() {
                    Ok((stream, _peer)) => {
                        self.obs.counter("serve.accepted", 1);
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
                            self.obs.counter(counter, 1);
                            conn.queue_response(&resp.encode());
                            self.obs.counter("serve.conns.writing", 1);
                            if self.poller.add(fd, token, Interest::WRITE).is_ok() {
                                self.conns.insert(token, conn);
                                self.drive_write(token, now);
                            }
                        } else if self.poller.add(fd, token, Interest::READ).is_ok() {
                            self.obs.counter("serve.conns.idle", 1);
                            self.conns.insert(token, conn);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
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
                    self.obs.counter("serve.conns.reading", 1);
                }
                match step {
                    ReadStep::Frame(payload) => self.frame_complete(token, &payload, now),
                    ReadStep::NeedMore { bytes } => {
                        if bytes > 0 {
                            self.obs.hist("serve.read.partial_bytes", bytes as u64);
                        }
                    }
                    ReadStep::TooLarge(len) => {
                        self.obs.counter("serve.requests.bad", 1);
                        let resp = Response::reject(
                            Status::BadRequest,
                            format!("frame length {len} exceeds {}", crate::proto::MAX_FRAME),
                        );
                        self.queue_and_write(token, &resp.encode(), now);
                    }
                    ReadStep::Disconnected => {
                        self.obs.counter("serve.conns.disconnected", 1);
                        self.conns.remove(&token);
                        return;
                    }
                }
            } else if ev.hung_up || (ev.closed && state != ConnState::Dispatched) {
                // The peer is gone, or stopped sending with no response
                // owed to it. Dropping the connection also ends the
                // level-triggered report; a dispatched job's completion
                // then counts `serve.responses.conn_gone`.
                self.obs.counter("serve.conns.disconnected", 1);
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
                    self.obs.counter("serve.requests.received", 1);
                    let job = Job {
                        req,
                        token,
                        received: now,
                    };
                    match self.work_q.try_push(job) {
                        Ok(()) => {
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
                            let closed = matches!(err, PushError::Closed(_));
                            let (PushError::Full(job) | PushError::Closed(job)) = err;
                            let (resp, counter) = shed_outcome(closed, "work");
                            self.obs.counter(counter, 1);
                            self.obs.hist(
                                "serve.latency_ms",
                                job.received.elapsed().as_millis() as u64,
                            );
                            self.queue_and_write(token, &resp.encode(), now);
                        }
                    }
                }
                Err(e) => {
                    self.obs.counter("serve.requests.bad", 1);
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
                self.obs.counter("serve.responses.conn_gone", 1);
            }
        }

        /// Queues an encoded response on a connection and pushes as many
        /// bytes as the socket will take right now.
        fn queue_and_write(&mut self, token: u64, payload: &[u8], now: Instant) {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.queue_response(payload);
                self.obs.counter("serve.conns.writing", 1);
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
                        self.obs.hist("serve.write.partial_bytes", bytes as u64);
                    }
                    let _ = self.poller.modify(fd, token, Interest::WRITE);
                }
                WriteStep::Disconnected => {
                    self.obs.counter("serve.responses.write_failed", 1);
                    self.conns.remove(&token);
                }
            }
        }

        /// Closes connections stalled mid-frame or mid-response past
        /// `io_timeout` (a slow-loris peer evaporates here); connections
        /// that never sent a byte are idle, not stalled, and stay.
        fn sweep(&mut self, now: Instant) {
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
                self.obs.counter("serve.conns.timed_out", 1);
                self.conns.remove(&token);
            }
            self.obs.hist("serve.conns.open", self.conns.len() as u64);
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
        let mut obs = Obs::collecting();
        let cap = INLINE_CACHE_CAP as u64;
        for digest in 1..=cap {
            cache.insert(digest, Arc::clone(&trace), &mut obs);
        }
        // Touch 1 so it becomes most-recent; inserting one more must
        // evict 2.
        assert!(cache.get(1).is_some());
        cache.insert(cap + 1, Arc::clone(&trace), &mut obs);
        assert_eq!(cache.entries.len(), INLINE_CACHE_CAP);
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(cap + 1).is_some());
        let profile = obs.into_profile();
        assert_eq!(profile.counter("serve.inline_trace.evictions"), 1);
    }
}
