//! Multi-node cluster tests: several real servers on loopback ports,
//! each with its **own** disk store and trace store (sharing the
//! process-global ones would let replication "work" through common
//! memory and prove nothing), a real failover client, and real
//! peer-to-peer artifact traffic.
//!
//! The properties pinned here are the cluster-mode contract:
//!
//! * the response for a key is byte-identical from every node, cold or
//!   warm, and identical to a local `replay report --json`;
//! * a non-owner answers `NotOwner` naming the owner and never forwards
//!   the request itself;
//! * after one node synthesizes a trace, other nodes answer the same
//!   key from peer replication (pull-on-miss or gossip push) with zero
//!   re-synthesis;
//! * killing a node mid-load loses no client request: the ring-aware
//!   client rotates to the survivor that the reduced ring would elect.

use replay_serve::proto::{read_frame, write_frame};
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
/// runs each on a background thread. `tweak` edits each node's cluster
/// config (gossip fanout) before it is applied.
fn spawn_cluster(n: usize, tag: &str, tweak: impl Fn(&mut ClusterConfig)) -> Vec<Node> {
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
            let mut ccfg = ClusterConfig::new(addr.clone(), addrs.clone());
            tweak(&mut ccfg);
            server.configure_cluster(ccfg);
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
    let nodes = spawn_cluster(3, "bytes", |_| {});
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
    let nodes = spawn_cluster(3, "redirect", |_| {});
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
fn a_cold_node_pulls_the_artifact_from_a_peer_instead_of_resynthesizing() {
    // Fanout 0 disables gossip push, so the ONLY way a second node can
    // avoid synthesis is the pull-on-miss path.
    let nodes = spawn_cluster(3, "pull", |c| c.push_fanout = 0);
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let req = workload_request("gzip");
    let route = route_order(&addrs, &req);
    let owner = nodes.iter().position(|n| n.addr == route[0]).unwrap();
    let other = nodes.iter().position(|n| n.addr == route[1]).unwrap();

    // Warm the owner (it synthesizes), then aim a relayed request at a
    // different node: it must serve the same bytes WITHOUT synthesizing,
    // by pulling the owner's artifact over the peer protocol.
    let mut relayed = req.clone();
    relayed.relayed = true;
    let from_owner = body_of(raw_submit(&route[0], &relayed));
    assert_eq!(
        nodes[owner].trace_store.generations(),
        1,
        "owner synthesizes once"
    );

    let from_other = body_of(raw_submit(&route[1], &relayed));
    assert_eq!(
        from_other, from_owner,
        "peer-filled bytes must be identical"
    );
    assert_eq!(
        nodes[other].trace_store.generations(),
        0,
        "the second node must not re-synthesize"
    );
    assert!(
        nodes[other].trace_store.peer_fills() >= 1,
        "fill came from a peer"
    );

    let stats: Vec<ServeStats> = nodes.into_iter().map(Node::finish).collect();
    assert!(
        stats[other].peer_artifact_pulls() >= 1,
        "serve.peer.artifact_pulls must record the pull"
    );
    assert!(
        stats[owner].profile.counter("serve.peer.fetch_served") >= 1,
        "the owner must record serving the fetch"
    );
}

#[test]
fn synthesis_gossips_the_artifact_to_the_next_peer_on_the_route() {
    let nodes = spawn_cluster(3, "gossip", |c| c.push_fanout = 1);
    let addrs: Vec<String> = nodes.iter().map(|n| n.addr.clone()).collect();
    let req = workload_request("crafty");
    let route = route_order(&addrs, &req);
    let successor = nodes.iter().position(|n| n.addr == route[1]).unwrap();

    let mut relayed = req.clone();
    relayed.relayed = true;
    let owner_body = body_of(raw_submit(&route[0], &relayed));

    // Give the synchronous push a moment to land, then serve the same
    // key from the successor: the gossiped artifact means no synthesis
    // AND no pull.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while nodes[successor].trace_store.disk().unwrap().writes() == 0
        && std::time::Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let successor_body = body_of(raw_submit(&route[1], &relayed));
    assert_eq!(successor_body, owner_body);
    assert_eq!(
        nodes[successor].trace_store.generations(),
        0,
        "no re-synthesis"
    );

    let stats: Vec<ServeStats> = nodes.into_iter().map(Node::finish).collect();
    let pushes: u64 = stats
        .iter()
        .map(|s| s.profile.counter("serve.peer.artifact_pushes"))
        .sum();
    let recv: u64 = stats
        .iter()
        .map(|s| s.profile.counter("serve.peer.push_recv"))
        .sum();
    assert!(pushes >= 1, "the owner must push after synthesis");
    assert!(recv >= 1, "the successor must record the push");
}

#[test]
fn killing_a_node_mid_load_loses_no_client_request() {
    let nodes = spawn_cluster(3, "failover", |_| {});
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
    let nodes = spawn_cluster(1, "drain", |_| {});
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
