//! Adversarial client tests for the event-driven serve core: slow-loris
//! peers, one-byte dribblers, connect-and-idle floods, mid-frame
//! disconnects, and peers that hang up while their request is being
//! simulated — none of which may starve a well-behaved request or spin
//! the event loop.
//!
//! These tests drive shutdown through [`Server::shutdown_flag`], never
//! `signal::trigger()` (whose static flag is process-wide).

use replay_obs::Metric;
use replay_serve::poll;
use replay_serve::proto::{read_frame, write_frame};
use replay_serve::{
    Client, ClientConfig, ClientError, Request, Response, Server, ServerConfig, Source, Status,
};
use replay_sim::report::strip_store_section;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::time::Duration;

const SCALE: usize = 2_000;

fn spawn_server(
    cfg: ServerConfig,
) -> (
    String,
    std::sync::Arc<std::sync::atomic::AtomicBool>,
    std::thread::JoinHandle<replay_serve::ServeStats>,
) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let stop = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());
    (addr, stop, handle)
}

fn client(addr: &str, seed: u64) -> Client {
    Client::new(ClientConfig {
        addr: addr.to_string(),
        seed,
        retries: 10,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        ..ClientConfig::default()
    })
}

fn workload_request(name: &str) -> Request {
    Request {
        source: Source::Workload(name.to_string()),
        scale: SCALE as u64,
        timings: false,
        deadline_ms: 0,
        relayed: false,
    }
}

fn body_of(resp: Response) -> String {
    assert_eq!(resp.status, Status::Ok, "{}: {}", resp.status, resp.message);
    strip_store_section(&String::from_utf8(resp.body).expect("report body is UTF-8"))
}

fn local_report(name: &str, jobs: usize) -> String {
    let w = replay_trace::workloads::by_name(name).expect("known workload");
    let trace = replay_sim::TraceStore::global().segment(&w, 0, SCALE);
    let (_, json) = replay_sim::report::run_report(&trace, jobs, false);
    strip_store_section(&json)
}

fn hist_count(stats: &replay_serve::ServeStats, name: &str) -> u64 {
    match stats.profile.get(name) {
        Some(Metric::Hist(h)) => h.count(),
        _ => 0,
    }
}

/// The whole wire frame for a request: `[len u32 LE][payload]`.
fn frame_bytes(req: &Request) -> Vec<u8> {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, &req.encode()).expect("encode frame");
    bytes
}

#[test]
fn one_byte_dribble_is_parsed_incrementally_and_answered_in_full() {
    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });

    let frame = frame_bytes(&workload_request("gzip"));
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    for byte in &frame {
        conn.write_all(std::slice::from_ref(byte)).expect("dribble");
        std::thread::sleep(Duration::from_millis(1));
    }
    let payload = read_frame(&mut conn).expect("response frame");
    let resp = Response::decode(&payload).expect("decode response");
    assert_eq!(body_of(resp), local_report("gzip", 1));

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.served(), 1);
    assert!(
        hist_count(&stats, "serve.read.partial_bytes") > 1,
        "a dribbled frame must be assembled over multiple partial reads; profile:\n{}",
        stats.profile.render_table(false)
    );
}

#[test]
fn slow_loris_peers_are_timed_out_and_do_not_starve_service() {
    let loris_count = 16;
    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        io_timeout: Duration::from_millis(150),
        ..ServerConfig::default()
    });

    // Each loris sends two bytes of the length prefix and then stalls
    // forever, holding its socket open.
    let lorises: Vec<TcpStream> = (0..loris_count)
        .map(|_| {
            let mut c = TcpStream::connect(&addr).expect("loris connect");
            c.set_nodelay(true).expect("nodelay");
            c.write_all(&[0x10, 0x00]).expect("loris bytes");
            c
        })
        .collect();

    // A well-behaved request sails past the stalled peers immediately:
    // a stalled connection holds a file descriptor, never a thread.
    let mut c = client(&addr, 11);
    let t = std::time::Instant::now();
    assert_eq!(
        body_of(c.submit(&workload_request("gzip")).expect("submit")),
        local_report("gzip", 1)
    );
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "well-behaved request delayed {:?} by stalled peers",
        t.elapsed()
    );
    // ...and again after every loris has been swept.
    std::thread::sleep(Duration::from_millis(450));
    let _ = body_of(c.submit(&workload_request("gzip")).expect("resubmit"));

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    drop(lorises);
    assert_eq!(stats.served(), 2);
    assert_eq!(
        stats.profile.counter("serve.conns.timed_out"),
        loris_count,
        "every mid-frame staller must be timed out; profile:\n{}",
        stats.profile.render_table(false)
    );
}

#[test]
fn connect_and_idle_peers_cost_nothing_and_are_never_timed_out() {
    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        io_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });

    // Peers that connect and never send a byte are idle, not stalled:
    // several sweep periods must pass without evicting them.
    let idlers: Vec<TcpStream> = (0..32)
        .map(|_| TcpStream::connect(&addr).expect("idle connect"))
        .collect();
    std::thread::sleep(Duration::from_millis(300));

    let mut c = client(&addr, 12);
    let _ = body_of(c.submit(&workload_request("gzip")).expect("submit"));

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server drains despite idle peers");
    drop(idlers);
    assert_eq!(stats.served(), 1);
    assert_eq!(
        stats.profile.counter("serve.conns.timed_out"),
        0,
        "idle (zero-byte) connections must never be swept as stalled"
    );
    assert_eq!(stats.profile.counter("serve.accepted"), 33);
}

#[test]
fn mid_frame_disconnect_is_counted_and_service_continues() {
    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        ..ServerConfig::default()
    });

    // A length prefix claiming 100 bytes, then 10 bytes, then a hangup.
    {
        let mut c = TcpStream::connect(&addr).expect("connect");
        c.set_nodelay(true).expect("nodelay");
        c.write_all(&100u32.to_le_bytes()).expect("len");
        c.write_all(&[0xab; 10]).expect("partial payload");
    }
    std::thread::sleep(Duration::from_millis(50));

    let mut c = client(&addr, 13);
    let _ = body_of(c.submit(&workload_request("gzip")).expect("submit"));

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.served(), 1);
    assert_eq!(
        stats.profile.counter("serve.conns.disconnected"),
        1,
        "a mid-frame hangup must be observed and released; profile:\n{}",
        stats.profile.render_table(false)
    );
}

/// One raw request frame on a fresh connection, then `after_send` (which
/// hangs up, fully or halfway). Returns the server's stats after drain
/// and whatever response bytes the connection still received.
fn hang_up_while_dispatched(
    after_send: impl FnOnce(TcpStream) -> Option<Vec<u8>>,
) -> (replay_serve::ServeStats, Option<Vec<u8>>) {
    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        batch_hold: Duration::from_millis(500),
        ..ServerConfig::default()
    });
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_nodelay(true).expect("nodelay");
    conn.write_all(&frame_bytes(&workload_request("gzip")))
        .expect("send request");
    let reply = after_send(conn);
    // Let the server read the frame before the drain starts; the drain
    // then waits for the held batch.
    std::thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    (handle.join().expect("server thread"), reply)
}

#[test]
fn a_peer_hanging_up_while_dispatched_does_not_spin_the_poll_loop() {
    // Hang-up reports are level-triggered: one left armed on a dispatched
    // connection wakes every poll wait for the whole 500 ms batch hold,
    // hundreds of thousands of times, stealing CPU from the simulation
    // worker. A quiet server wakes a handful of times.
    const MAX_WAKEUPS: u64 = 20;

    // A peer that drops its socket right after sending.
    let (stats, _) = hang_up_while_dispatched(|conn| {
        drop(conn);
        None
    });
    let wakeups = stats.profile.counter("serve.poll.wakeups");
    assert!(
        wakeups <= MAX_WAKEUPS,
        "dropped peer: {wakeups} poll wakeups; profile:\n{}",
        stats.profile.render_table(false)
    );

    // A peer that half-closes (done sending) but still reads: it is owed
    // its full response.
    let (stats, reply) = hang_up_while_dispatched(|mut conn| {
        conn.shutdown(Shutdown::Write).expect("half-close");
        conn.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Some(read_frame(&mut conn).expect("response after half-close"))
    });
    let wakeups = stats.profile.counter("serve.poll.wakeups");
    assert!(
        wakeups <= MAX_WAKEUPS,
        "half-closed peer: {wakeups} poll wakeups; profile:\n{}",
        stats.profile.render_table(false)
    );
    let resp = Response::decode(&reply.expect("reply")).expect("decode response");
    assert_eq!(body_of(resp), local_report("gzip", 1));
    assert_eq!(stats.served(), 1);
}

#[test]
fn deadline_responses_land_in_the_latency_histogram() {
    // Regression for the unified responder: shed and deadline responses
    // used to bypass latency accounting entirely.
    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        batch_hold: Duration::from_millis(120),
        ..ServerConfig::default()
    });
    let mut c = client(&addr, 15);
    let req = Request {
        deadline_ms: 10,
        ..workload_request("gzip")
    };
    match c.submit(&req).expect_err("deadline must lapse") {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::DeadlineExceeded),
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.profile.counter("serve.requests.deadline"), 1);
    assert!(
        hist_count(&stats, "serve.latency_ms") >= 1,
        "a deadline rejection is still an answered request and must be \
         counted in serve.latency_ms; profile:\n{}",
        stats.profile.render_table(false)
    );
}

#[test]
fn five_thousand_idle_or_slow_connections_do_not_starve_a_real_request() {
    const TOTAL: usize = 5_000;
    const SLOW: usize = 500; // the rest are pure idlers
    if !poll::supported() {
        return; // no server runs here at all
    }
    // Each held connection is one fd on the client side and one on the
    // server side, both in this process.
    if poll::raise_nofile_limit((4 * TOTAL) as u64).is_err() {
        let (soft, _) = poll::nofile_limits().unwrap_or((0, 0));
        assert!(
            soft >= (2 * TOTAL + 512) as u64,
            "cannot raise RLIMIT_NOFILE and the soft limit ({soft}) is too small"
        );
    }

    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        // Long enough that the slow dribblers are never swept mid-test.
        io_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    });

    let mut held: Vec<TcpStream> = Vec::with_capacity(TOTAL);
    for i in 0..TOTAL {
        let mut c = TcpStream::connect(&addr).expect("flood connect");
        if i < SLOW {
            // A slow peer: part of a length prefix, then silence.
            c.set_nodelay(true).expect("nodelay");
            c.write_all(&[0x08]).expect("slow byte");
        }
        held.push(c);
    }

    // With five thousand connections parked, a well-behaved request must
    // still be answered with exactly the local-report bytes.
    let mut c = client(&addr, 16);
    let body = body_of(
        c.submit(&workload_request("gzip"))
            .expect("submit under load"),
    );
    assert_eq!(body, local_report("gzip", 1));

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server drains despite the flood");
    drop(held);
    assert_eq!(stats.served(), 1);
    assert_eq!(stats.profile.counter("serve.responses.write_failed"), 0);
    assert!(
        stats.profile.counter("serve.accepted") >= (TOTAL + 1) as u64,
        "all {TOTAL} parked connections plus the real one must be accepted; got {}",
        stats.profile.counter("serve.accepted")
    );
}
