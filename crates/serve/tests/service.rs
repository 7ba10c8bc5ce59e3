//! End-to-end service tests: a real listener on a loopback port, real
//! clients, real simulations (at a small scale).
//!
//! These tests drive shutdown through [`Server::shutdown_flag`] — never
//! through `signal::trigger()`, whose static flag is shared by every
//! server in this test process. Real signal delivery is exercised by the
//! CI smoke job, where the server is its own process.

use replay_serve::proto::{read_frame, write_frame, PeerFetch, MAX_SCALE};
use replay_serve::server::RETRY_AFTER;
use replay_serve::{
    Client, ClientConfig, ClientError, Request, Response, Server, ServerConfig, Source, Status,
    MIN_BACKOFF_MS,
};
use replay_sim::report::strip_store_section;
use replay_sim::TraceStore;
use replay_trace::{workloads, write_trace};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const SCALE: usize = 2_000;

/// Binds a server on an ephemeral port, runs it on a background thread,
/// and returns (addr, shutdown flag, join handle for the stats).
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
        // Tests that expect success give the client room to outlast any
        // transient overload window.
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

/// The response body with the `store` section stripped: that trailing
/// section reports process-lifetime cache counters and is the one
/// intentionally non-reproducible part of the artifact.
fn body_of(resp: Response) -> String {
    assert_eq!(resp.status, Status::Ok, "{}: {}", resp.status, resp.message);
    strip_store_section(&String::from_utf8(resp.body).expect("report body is UTF-8"))
}

/// The local oracle: the exact bytes `replay report --json` prints.
fn local_report(name: &str, jobs: usize) -> String {
    let w = workloads::by_name(name).expect("known workload");
    let trace = replay_sim::TraceStore::global().segment(&w, 0, SCALE);
    let (_, json) = replay_sim::report::run_report(&trace, jobs, false);
    json
}

#[test]
fn served_bytes_match_local_report_cold_and_warm_at_any_jobs() {
    for jobs in [1, 8] {
        let (addr, stop, handle) = spawn_server(ServerConfig {
            jobs,
            ..ServerConfig::default()
        });
        let mut c = client(&addr, 1);
        // Cold (first request synthesizes the trace) and warm (second hits
        // the process-wide TraceStore) must serve identical bytes.
        let cold = body_of(c.submit(&workload_request("gzip")).expect("cold submit"));
        let warm = body_of(c.submit(&workload_request("gzip")).expect("warm submit"));
        assert_eq!(cold, warm, "jobs={jobs}: warm response drifted");

        let local = local_report("gzip", jobs);
        assert_eq!(
            cold,
            strip_store_section(&local),
            "jobs={jobs}: served bytes differ from a local `replay report --json`"
        );

        stop.store(true, Ordering::SeqCst);
        let stats = handle.join().expect("server thread");
        // The event loop and the dispatcher record into their own
        // profiles; the one the drain returns holds both.
        assert_eq!(stats.profile.counter("serve.accepted"), 2, "event loop");
        assert_eq!(stats.served(), 2, "dispatcher");
        assert_eq!(stats.shed(), 0);
    }
}

#[test]
fn inline_trace_bytes_serve_the_same_report_as_the_workload_name() {
    let (addr, stop, handle) = spawn_server(ServerConfig::default());

    let w = workloads::by_name("twolf").expect("known workload");
    let trace = w.segment_trace(0, SCALE);
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &trace).expect("encode trace");

    let mut c = client(&addr, 2);
    let by_name = body_of(c.submit(&workload_request("twolf")).expect("by name"));
    let inline_req = Request {
        source: Source::TraceBytes(bytes),
        scale: SCALE as u64,
        timings: false,
        deadline_ms: 0,
        relayed: false,
    };
    let by_bytes = body_of(c.submit(&inline_req).expect("inline cold"));
    assert_eq!(by_name, by_bytes, "inline trace must render identically");
    // Second inline submission hits the digest-keyed warm cache; the
    // response must not change.
    let warm = body_of(c.submit(&inline_req).expect("inline warm"));
    assert_eq!(by_bytes, warm);

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.profile.counter("serve.inline_trace.hits"), 1);
}

#[test]
fn unknown_workload_is_a_typed_terminal_rejection() {
    let (addr, stop, handle) = spawn_server(ServerConfig::default());
    let mut c = client(&addr, 3);
    let err = c
        .submit(&workload_request("definitely-not-a-workload"))
        .expect_err("must be rejected");
    match err {
        ClientError::Rejected { status, message } => {
            assert_eq!(status, Status::BadRequest);
            assert!(message.contains("unknown workload"), "{message}");
        }
        other => panic!("expected a typed rejection, got {other}"),
    }
    // Undecodable inline bytes are equally terminal (and must not retry).
    let garbage = Request {
        source: Source::TraceBytes(vec![0xde, 0xad, 0xbe, 0xef]),
        scale: SCALE as u64,
        timings: false,
        deadline_ms: 0,
        relayed: false,
    };
    match c.submit(&garbage).expect_err("garbage must be rejected") {
        ClientError::Rejected { status, .. } => assert_eq!(status, Status::BadRequest),
        other => panic!("expected a typed rejection, got {other}"),
    }
    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.profile.counter("serve.requests.bad"), 2);
    assert_eq!(stats.served(), 0);
}

#[test]
fn a_scale_over_the_limit_is_rejected_before_synthesis() {
    let trace_store = Arc::new(TraceStore::new());
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())
        .expect("bind ephemeral port")
        .with_trace_store(Arc::clone(&trace_store));
    let addr = server.local_addr().expect("local addr").to_string();
    let stop = server.shutdown_flag();
    let handle = std::thread::spawn(move || server.run());

    let mut huge = workload_request("gzip");
    huge.scale = MAX_SCALE + 1;
    let mut conn = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut conn, &huge.encode()).expect("send");
    let resp = Response::decode(&read_frame(&mut conn).expect("recv")).expect("decode");
    assert_eq!(resp.status, Status::BadRequest);
    assert!(resp.message.contains("scale"), "{}", resp.message);
    assert_eq!(trace_store.generations(), 0, "nothing was synthesized");

    // The server is unharmed: the next valid request is served.
    body_of(
        client(&addr, 4)
            .submit(&workload_request("gzip"))
            .expect("valid submit"),
    );
    assert_eq!(trace_store.generations(), 1);

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.profile.counter("serve.requests.bad"), 1);
    assert_eq!(stats.profile.counter("serve.requests.received"), 1);
    assert_eq!(stats.served(), 1);
}

#[test]
fn overload_sheds_typed_and_seeded_backoff_converges() {
    // A one-slot work queue and a dispatcher that holds each job long
    // enough for concurrent submitters to pile up: some requests must be
    // shed with a typed Overloaded (not a hang, not a dropped connection),
    // and a client retrying on its seeded backoff schedule must still land
    // every request eventually.
    let (addr, stop, handle) = spawn_server(ServerConfig {
        jobs: 1,
        work_queue: 1,
        dispatch_hold: Duration::from_millis(150),
        ..ServerConfig::default()
    });

    let n_clients = 6;
    std::thread::scope(|scope| {
        let addr = &addr;
        for seed in 0..n_clients {
            scope.spawn(move || {
                let mut c = Client::new(ClientConfig {
                    addr: addr.to_string(),
                    seed,
                    retries: 40,
                    base_backoff: Duration::from_millis(10),
                    max_backoff: Duration::from_millis(250),
                    ..ClientConfig::default()
                });
                let resp = c
                    .submit(&workload_request("gzip"))
                    .expect("retries must converge");
                assert_eq!(resp.status, Status::Ok);
            });
        }
    });

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    // Every client got an Ok, and each Ok is one simulation.
    assert_eq!(stats.served(), n_clients);
    assert!(
        stats.shed() > 0,
        "six concurrent clients against a one-slot work queue must shed at least once; stats: served={} shed={}",
        stats.served(),
        stats.shed()
    );
}

#[test]
fn connection_ceiling_sheds_typed_overloaded_and_recovers() {
    // The only connection-level shed: one connection over `max_conns` is
    // answered Overloaded with the configured retry hint on accept,
    // before it sends a byte.
    let cfg = ServerConfig {
        jobs: 1,
        max_conns: 1,
        ..ServerConfig::default()
    };
    let (addr, stop, handle) = spawn_server(cfg);

    let idle = TcpStream::connect(&addr).expect("idle connect");
    let mut over = TcpStream::connect(&addr).expect("second connect");
    over.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let resp = Response::decode(&read_frame(&mut over).expect("shed frame")).expect("decode");
    assert_eq!(resp.status, Status::Overloaded, "{}", resp.message);
    assert_eq!(resp.retry_after_ms, RETRY_AFTER.as_millis() as u64);

    // Once the idle peer leaves, its slot frees and a well-behaved
    // request is served.
    drop(idle);
    std::thread::sleep(Duration::from_millis(100));
    let mut conn = TcpStream::connect(&addr).expect("connect");
    write_frame(&mut conn, &workload_request("gzip").encode()).expect("send");
    let resp = Response::decode(&read_frame(&mut conn).expect("reply")).expect("decode");
    assert_eq!(body_of(resp), strip_store_section(&local_report("gzip", 1)));

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.profile.counter("serve.shed.conn"), 1);
    assert_eq!(stats.served(), 1);
}

#[test]
fn expired_deadline_is_deadline_exceeded_not_a_stale_report() {
    // The dispatcher holds every job for 120 ms; a 10 ms deadline is
    // guaranteed to have lapsed by execution time.
    let (addr, stop, handle) = spawn_server(ServerConfig {
        dispatch_hold: Duration::from_millis(120),
        ..ServerConfig::default()
    });
    let mut c = client(&addr, 5);
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
}

#[test]
fn concurrent_identical_requests_each_get_the_local_report() {
    // Four identical requests in flight at once, queued behind a held
    // dispatcher: each is simulated on its own, and every one gets the
    // bytes a local `replay report --json` prints.
    let (addr, stop, handle) = spawn_server(ServerConfig {
        dispatch_hold: Duration::from_millis(100),
        work_queue: 32,
        ..ServerConfig::default()
    });

    let n = 4;
    let bodies: Vec<String> = std::thread::scope(|scope| {
        let addr = &addr;
        let handles: Vec<_> = (0..n)
            .map(|seed| {
                scope.spawn(move || {
                    let mut c = client(addr, 100 + seed);
                    body_of(c.submit(&workload_request("vortex")).expect("submit"))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let local = strip_store_section(&local_report("vortex", 1));
    for b in &bodies {
        assert_eq!(b, &local, "served bytes differ from a local report");
    }

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.profile.counter("serve.requests.ok"), n);
}

#[test]
fn shutdown_drains_in_flight_work_before_returning() {
    // Submit while the dispatcher is holding one job and a second sits
    // queued behind it, flip the shutdown flag mid-flight, and require
    // (a) both requests still get their full Ok response — closing the
    // queue drains what it holds — and (b) run() has returned — i.e.
    // drain, not abort and not linger.
    let (addr, stop, handle) = spawn_server(ServerConfig {
        dispatch_hold: Duration::from_millis(300),
        ..ServerConfig::default()
    });

    let submit = |seed: u64| {
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut c = client(&addr, seed);
            c.submit(&workload_request("gzip"))
        })
    };
    // Give each request time to be accepted and parsed, then pull the
    // plug while the dispatcher is still holding the first job.
    let held = submit(7);
    std::thread::sleep(Duration::from_millis(40));
    let queued = submit(8);
    std::thread::sleep(Duration::from_millis(80));
    stop.store(true, Ordering::SeqCst);

    for submitted in [held, queued] {
        let resp = submitted
            .join()
            .expect("client thread")
            .expect("in-flight request must be answered during drain");
        assert_eq!(resp.status, Status::Ok);
        assert!(!resp.body.is_empty());
    }

    let stats = handle.join().expect("run() must return after the drain");
    assert_eq!(stats.served(), 2);
    assert_eq!(stats.profile.counter("serve.shed.shutdown"), 0);
    // The second request was admitted with the first still unanswered.
    match stats.profile.get("serve.queue_depth") {
        Some(replay_obs::Metric::Hist(h)) => assert_eq!((h.count(), h.max()), (2, 1)),
        other => panic!("serve.queue_depth: {other:?}"),
    }

    // The listener is gone: a fresh connection must not reach a server.
    std::thread::sleep(Duration::from_millis(20));
    let refused = std::net::TcpStream::connect(&addr);
    assert!(refused.is_err(), "listener must be closed after drain");
}

#[test]
fn a_peer_fetch_is_answered_bad_request_on_the_front() {
    // perfbench's `serve` workload times exactly this round trip as its
    // wire probe, so the contract is: an inline BadRequest, never queued.
    let (addr, stop, handle) = spawn_server(ServerConfig::default());
    let probe = PeerFetch {
        class: "trace".to_string(),
        key: 0,
    }
    .encode();
    for _ in 0..3 {
        let mut conn = TcpStream::connect(&addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        write_frame(&mut conn, &probe).expect("send");
        let resp = Response::decode(&read_frame(&mut conn).expect("recv")).expect("decode");
        assert_eq!(resp.status, Status::BadRequest);
    }

    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread");
    assert_eq!(stats.profile.counter("serve.requests.received"), 0);
    assert_eq!(stats.served(), 0);
    assert_eq!(stats.profile.counter("serve.requests.bad"), 3);
}

#[test]
fn a_draining_server_does_not_let_a_lone_client_hot_loop() {
    let (addr, stop, handle) = spawn_server(ServerConfig::default());
    stop.store(true, Ordering::SeqCst);
    let stats = handle.join().expect("server thread"); // fully drained: port now refuses
    assert_eq!(stats.write_failed(), 0);

    // A zero-base-backoff client with only this dead address used to
    // spin through its retries in microseconds. The MIN_BACKOFF_MS
    // clamp makes every retry wait at least 1 ms.
    let retries = 20u32;
    let mut c = Client::new(ClientConfig {
        addr,
        retries,
        base_backoff: Duration::ZERO,
        max_backoff: Duration::ZERO,
        seed: 5,
        ..ClientConfig::default()
    });
    let start = std::time::Instant::now();
    let err = c
        .submit(&workload_request("gzip"))
        .expect_err("server is gone");
    let elapsed = start.elapsed();
    assert!(matches!(err, ClientError::Exhausted { .. }), "{err}");
    assert!(
        elapsed >= Duration::from_millis(u64::from(retries) * MIN_BACKOFF_MS),
        "retries burned in {elapsed:?}: the backoff floor is not being applied"
    );
}
