//! Multi-node cluster tests: several real servers on loopback ports,
//! each with its **own** disk store and trace store (so each node's
//! synthesis counter shows its own work), and a real failover client.
//!
//! The properties pinned here are the cluster-mode contract:
//!
//! * the response for a key is byte-identical from every node, cold or
//!   warm, and identical to a local `replay report --json`;
//! * a non-owner answers `NotOwner` naming the owner and never forwards
//!   the request itself;
//! * nodes exchange no artifacts: a node serving a key it has never seen
//!   synthesizes it once, whoever else holds it;
//! * a peer-artifact fetch from an older node is answered `BadRequest`
//!   on the front, in and out of cluster mode;
//! * killing a node mid-load loses no client request: the ring-aware
//!   client rotates to the survivor that the reduced ring would elect.

use replay_serve::proto::{read_frame, write_frame, PeerFetch};
use replay_serve::{
    Client, ClientConfig, ClusterConfig, Request, Response, Ring, ServeStats, Server, ServerConfig,
    Source, Status,
};
use replay_sim::report::strip_store_section;
use replay_sim::TraceStore;
use replay_store::Store;
use replay_trace::workloads;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const SCALE: usize = 2_000;

/// One running cluster node with its private stores.
struct Node {
    addr: String,
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ServeStats>,
    trace_store: Arc<TraceStore>,
}

impl Node {
    fn finish(self) -> ServeStats {
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("server thread")
    }
}

/// A scratch on-disk artifact store, private to one node of one test.
fn scratch_store(tag: &str) -> &'static Store {
    let dir = std::env::temp_dir().join(format!("replay-cluster-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Box::leak(Box::new(Store::open(dir).expect("scratch store")))
}

/// Binds `n` servers on ephemeral ports, wires them into one ring, and
/// runs each on a background thread.
fn spawn_cluster(n: usize, tag: &str) -> Vec<Node> {
    // Bind everything first: every node needs the full member list, and
    // ephemeral ports are only known after bind.
    let mut pending = Vec::new();
    for i in 0..n {
        let ts = Arc::new(TraceStore::with_disk(scratch_store(&format!("{tag}-{i}"))));
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                jobs: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind ephemeral port")
        .with_trace_store(Arc::clone(&ts));
        pending.push((server, ts));
    }
    let addrs: Vec<String> = pending
        .iter()
        .map(|(s, _)| s.local_addr().expect("local addr").to_string())
        .collect();
    pending
        .into_iter()
        .zip(&addrs)
        .map(|((mut server, trace_store), addr)| {
            server.configure_cluster(ClusterConfig::new(addr.clone(), addrs.clone()));
            let stop = server.shutdown_flag();
            let handle = std::thread::spawn(move || server.run());
            Node {
                addr: addr.clone(),
                stop,
                handle,
                trace_store,
            }
        })
        .collect()
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

fn cluster_client(addrs: &[String], seed: u64) -> Client {
    Client::new(ClientConfig {
        addrs: addrs.to_vec(),
        seed,
        retries: 10,
        base_backoff: Duration::from_millis(5),
        max_backoff: Duration::from_millis(200),
        ..ClientConfig::default()
    })
}

fn body_of(resp: Response) -> String {
    assert_eq!(resp.status, Status::Ok, "{}", resp.message);
    strip_store_section(&String::from_utf8(resp.body).expect("report body is UTF-8"))
}

/// The exact bytes a local `replay report --json` would print, minus
/// the (intentionally non-reproducible) store section.
fn local_report(name: &str) -> String {
    let w = workloads::by_name(name).expect("known workload");
    let trace = TraceStore::global().segment(&w, 0, SCALE);
    let (_, json) = replay_sim::report::run_report(&trace, 2, false);
    strip_store_section(&json)
}

/// One raw wire round trip — lets a test aim a request (relayed or not)
/// at a *specific* node, which the failover client deliberately cannot.
fn raw_submit(addr: &str, req: &Request) -> Response {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write_frame(&mut conn, &req.encode()).expect("send");
    let frame = read_frame(&mut conn).expect("recv");
    Response::decode(&frame).expect("decode")
}

/// The cluster members in the order the ring (and the client) would try
/// them for `req`: owner first, then failover successors.
fn route_order(addrs: &[String], req: &Request) -> Vec<String> {
    let ring = Ring::new(addrs.to_vec());
    ring.route(req.key())
        .into_iter()
        .map(String::from)
        .collect()
}

#[test]
fn every_node_answers_with_identical_bytes_cold_and_warm() {
    let nodes = spawn_cluster(3, "bytes");
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let req = workload_request("gzip");
    let expected = local_report("gzip");

    // Aim a relayed request at every node directly: relayed requests are
    // always served locally, so this exercises each node's own pipeline
    // — cold (first pass) and warm (second pass).
    let mut relayed = req.clone();
    relayed.relayed = true;
    for pass in ["cold", "warm"] {
        for node in &nodes {
            let body = body_of(raw_submit(&node.addr, &relayed));
            assert_eq!(
                body, expected,
                "{pass}: node {} drifted from the local report",
                node.addr
            );
        }
    }

    // The failover client gets the same bytes through ring routing.
    let mut c = cluster_client(&addrs, 9);
    assert_eq!(body_of(c.submit(&req).expect("routed submit")), expected);

    let mut write_failed = 0;
    for node in nodes {
        write_failed += node.finish().write_failed();
    }
    assert_eq!(write_failed, 0);
}

#[test]
fn non_owners_redirect_to_the_owner_and_the_client_follows_once() {
    let nodes = spawn_cluster(3, "redirect");
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let req = workload_request("crafty");
    let route = route_order(&addrs, &req);

    // An un-relayed request at a non-owner is answered NotOwner, naming
    // the owner.
    let resp = raw_submit(&route[1], &req);
    assert_eq!(resp.status, Status::NotOwner);
    assert_eq!(resp.owner_addr(), Some(route[0].as_str()));

    // A client configured with ONLY the wrong node still succeeds: it
    // follows the redirect (marked relayed) in one extra hop.
    let mut wrong = cluster_client(&[route[1].clone()], 3);
    assert_eq!(
        body_of(wrong.submit(&req).expect("redirected submit")),
        local_report("crafty")
    );

    let owner = nodes.iter().position(|n| n.addr == route[0]).unwrap();
    let stats: Vec<ServeStats> = nodes.into_iter().map(Node::finish).collect();
    let redirected: u64 = stats.iter().map(|s| s.redirected()).sum();
    assert!(redirected >= 2, "both probes should have been redirected");
    assert_eq!(stats.iter().map(|s| s.write_failed()).sum::<u64>(), 0);
    // The non-owner never forwarded: the owner saw exactly one request —
    // the client's own relayed re-send — and no other node simulated.
    assert_eq!(
        stats[owner].profile.counter("serve.requests.received"),
        1,
        "only the client's redirected re-send may reach the owner"
    );
    assert_eq!(stats[owner].profile.counter("serve.ring.relayed_served"), 1);
    assert_eq!(stats.iter().map(|s| s.served()).sum::<u64>(), 1);
}

#[test]
fn the_route_successor_serves_a_relayed_request_by_synthesizing_once() {
    let nodes = spawn_cluster(3, "successor");
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let req = workload_request("gzip");
    let route = route_order(&addrs, &req);
    let owner = nodes.iter().position(|n| n.addr == route[0]).unwrap();
    let successor = nodes.iter().position(|n| n.addr == route[1]).unwrap();

    // Warm the owner, then aim the same relayed request at the next node
    // on the route, as a failover client would: it fills its own store
    // by synthesis — no node asks another for the trace — and serves
    // identical bytes.
    let mut relayed = req.clone();
    relayed.relayed = true;
    let from_owner = body_of(raw_submit(&route[0], &relayed));
    assert_eq!(nodes[owner].trace_store.generations(), 1);
    let from_successor = body_of(raw_submit(&route[1], &relayed));
    assert_eq!(from_successor, from_owner, "node bytes must be identical");
    assert_eq!(
        nodes[successor].trace_store.generations(),
        1,
        "the successor synthesizes once"
    );
    assert_eq!(
        nodes[owner].trace_store.generations(),
        1,
        "the owner is not asked again"
    );

    let stats: Vec<ServeStats> = nodes.into_iter().map(Node::finish).collect();
    assert_eq!(stats[successor].profile.counter("serve.requests.ok"), 1);
    assert_eq!(stats[owner].profile.counter("serve.requests.received"), 1);
}

#[test]
fn a_peer_fetch_is_answered_bad_request_on_the_front_in_and_out_of_cluster_mode() {
    // perfbench's `serve` workload times exactly this round trip as its
    // wire probe, so the contract is: an inline BadRequest, never queued.
    let probe = PeerFetch {
        class: "trace".to_string(),
        key: 0,
    }
    .encode();
    let fetch = |addr: &str| {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        write_frame(&mut conn, &probe).expect("send");
        Response::decode(&read_frame(&mut conn).expect("recv")).expect("decode")
    };

    let standalone = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind");
    let addr = standalone.local_addr().expect("local addr").to_string();
    let stop = standalone.shutdown_flag();
    let handle = std::thread::spawn(move || standalone.run());
    let nodes = spawn_cluster(2, "probe");

    for addr in [addr.as_str(), nodes[0].addr.as_str()] {
        for _ in 0..3 {
            assert_eq!(fetch(addr).status, Status::BadRequest, "{addr}");
        }
    }

    stop.store(true, Ordering::SeqCst);
    let mut stats = vec![handle.join().expect("server thread")];
    stats.extend(nodes.into_iter().map(Node::finish));
    for (i, s) in stats.iter().enumerate() {
        assert_eq!(s.profile.counter("serve.requests.received"), 0, "node {i}");
        assert_eq!(s.profile.counter("serve.batches"), 0, "node {i}");
    }
    assert_eq!(stats[0].profile.counter("serve.requests.bad"), 3);
    assert_eq!(stats[1].profile.counter("serve.requests.bad"), 3);
}

#[test]
fn killing_a_node_mid_load_loses_no_client_request() {
    let nodes = spawn_cluster(3, "failover");
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let names = ["gzip", "crafty", "twolf", "parser", "vortex", "bzip2"];
    let mut c = cluster_client(&addrs, 11);

    // First wave, all nodes up.
    for name in names {
        body_of(
            c.submit(&workload_request(name))
                .expect("submit with full cluster"),
        );
    }

    // Kill one node (drain, then the port refuses), and push the same
    // mix through again: the ring client must rotate every key that
    // node owned onto its route successor. Zero failures allowed.
    let mut nodes = nodes;
    let victim = nodes.remove(1);
    let victim_stats = victim.finish();
    for name in names {
        let resp = c
            .submit(&workload_request(name))
            .unwrap_or_else(|e| panic!("{name} lost after node kill: {e}"));
        assert_eq!(body_of(resp), local_report(name));
    }

    let mut write_failed = victim_stats.write_failed();
    for node in nodes {
        write_failed += node.finish().write_failed();
    }
    assert_eq!(write_failed, 0, "no response may be lost");
}

#[test]
fn a_draining_server_does_not_let_a_lone_client_hot_loop() {
    let nodes = spawn_cluster(1, "drain");
    let addr = nodes[0].addr.clone();
    let stats = nodes.into_iter().next().unwrap().finish(); // fully drained: port now refuses
    assert_eq!(stats.write_failed(), 0);

    // A zero-base-backoff client with only this dead address used to
    // spin through its retries in microseconds. The MIN_BACKOFF_MS
    // clamp makes every retry wait at least 1 ms.
    let retries = 20u32;
    let mut c = Client::new(ClientConfig {
        addrs: vec![addr],
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
    assert!(
        matches!(err, replay_serve::ClientError::Exhausted { .. }),
        "{err}"
    );
    assert!(
        elapsed >= Duration::from_millis(u64::from(retries) * replay_serve::MIN_BACKOFF_MS),
        "retries burned in {elapsed:?}: the backoff floor is not being applied"
    );
}
