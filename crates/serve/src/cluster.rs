//! Cluster coordination: ring-routing decisions, peer artifact exchange,
//! and the counters that make both observable.
//!
//! One [`ClusterState`] per serve process ties three things together:
//!
//! 1. **Request routing** — [`ClusterState::route_request`] answers, for
//!    every decoded client request, whether this node serves it locally
//!    or redirects the client to the ring owner ([`Status::NotOwner`]
//!    with the owner's address); a node never forwards a request. A
//!    *relayed* request ([`Request::relayed`]) is always served locally:
//!    that single rule bounds every request to at most one redirect hop
//!    and makes routing loops structurally impossible, even when the
//!    member lists of client and servers disagree.
//! 2. **Peer artifact exchange** — the state implements
//!    [`replay_sim::Exchange`], so a disk-backed
//!    [`replay_sim::TraceStore`] that misses locally pulls the warm RPAS
//!    container from the peers on the artifact key's own ring route
//!    (pull-on-miss), and announces freshly synthesized artifacts to a
//!    small fanout of ring successors (gossip-on-write). Every inbound
//!    container passes [`replay_store::Store::import`]'s full container
//!    validation *and* the trace round-trip gate before anything trusts
//!    it.
//! 3. **Counters** — `serve.ring.*` and `serve.peer.*` totals, merged
//!    into the server's metrics profile at drain.
//!
//! Byte-identity across nodes costs nothing here: every node renders
//! responses through the same deterministic
//! [`replay_sim::report::render_report`] path, so a redirected or
//! failed-over response is bit-equal to a local one.

use crate::proto::{
    read_frame, write_frame, Message, PeerArtifact, PeerFetch, PeerPush, Request, Response, Status,
};
use crate::ring::Ring;
use replay_obs::Obs;
use replay_sim::Exchange;
use replay_store::Store;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Cluster membership and behavior knobs for one serve process.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's advertised address — what peers and clients dial, and
    /// what [`Status::NotOwner`] redirects carry. Must be one of `peers`
    /// (it is added if missing).
    pub self_addr: String,
    /// Every member's advertised address, including this node's. Order
    /// and duplicates are irrelevant; the ring sorts and dedups.
    pub peers: Vec<String>,
    /// Gossip fanout: a freshly synthesized artifact is pushed to this
    /// many ring successors of its key (0 disables gossip; pull-on-miss
    /// still works).
    pub push_fanout: usize,
    /// Connect/IO timeout for peer artifact RPCs. Short: a slow peer
    /// must cost less than the synthesis it would save.
    pub peer_io_timeout: Duration,
}

impl ClusterConfig {
    /// A config with default knobs for `self_addr` within `peers`.
    pub fn new(self_addr: impl Into<String>, peers: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            self_addr: self_addr.into(),
            peers,
            push_fanout: 1,
            peer_io_timeout: Duration::from_secs(2),
        }
    }
}

/// Where a decoded client request must go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestRoute {
    /// This node owns the key (or the request is relayed, or the ring is
    /// trivial): simulate locally.
    Local,
    /// Another node owns the key: answer [`Status::NotOwner`] carrying
    /// this owner address.
    Redirect(String),
}

/// Shared, immutable-after-construction cluster state plus counters.
/// Cheap to share between the front and the dispatcher behind an `Arc`.
pub struct ClusterState {
    cfg: ClusterConfig,
    ring: Ring,
    /// The local artifact store peers may fetch from (the trace store's
    /// disk); `None` when this node runs storeless.
    disk: Option<&'static Store>,
    // serve.ring.*
    owned: AtomicU64,
    relayed_served: AtomicU64,
    redirected: AtomicU64,
    // serve.peer.*
    artifact_pulls: AtomicU64,
    pull_misses: AtomicU64,
    artifact_pushes: AtomicU64,
    push_recv: AtomicU64,
    push_rejected: AtomicU64,
    fetch_served: AtomicU64,
    fetch_missing: AtomicU64,
}

impl std::fmt::Debug for ClusterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterState")
            .field("self_addr", &self.cfg.self_addr)
            .field("members", &self.ring.nodes())
            .finish()
    }
}

impl ClusterState {
    /// Builds the state: the ring over `peers ∪ {self_addr}`, counters at
    /// zero. `disk` is the local artifact store peers may fetch from.
    pub fn new(cfg: ClusterConfig, disk: Option<&'static Store>) -> ClusterState {
        let mut members = cfg.peers.clone();
        if !members.contains(&cfg.self_addr) {
            members.push(cfg.self_addr.clone());
        }
        let ring = Ring::new(members);
        ClusterState {
            cfg,
            ring,
            disk,
            owned: AtomicU64::new(0),
            relayed_served: AtomicU64::new(0),
            redirected: AtomicU64::new(0),
            artifact_pulls: AtomicU64::new(0),
            pull_misses: AtomicU64::new(0),
            artifact_pushes: AtomicU64::new(0),
            push_recv: AtomicU64::new(0),
            push_rejected: AtomicU64::new(0),
            fetch_served: AtomicU64::new(0),
            fetch_missing: AtomicU64::new(0),
        }
    }

    /// The ring shared by every member.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// This node's advertised address.
    pub fn self_addr(&self) -> &str {
        &self.cfg.self_addr
    }

    /// Routes one decoded client request, counting the decision.
    ///
    /// The anti-loop invariant lives here: a request with
    /// [`Request::relayed`] set is *always* [`RequestRoute::Local`] — a
    /// node never redirects a request that has already been routed once,
    /// no matter what its own ring says.
    pub fn route_request(&self, req: &Request) -> RequestRoute {
        if req.relayed {
            self.relayed_served.fetch_add(1, Ordering::Relaxed);
            return RequestRoute::Local;
        }
        match self.ring.owner(req.key()) {
            None => RequestRoute::Local,
            Some(owner) if owner == self.cfg.self_addr => {
                self.owned.fetch_add(1, Ordering::Relaxed);
                RequestRoute::Local
            }
            Some(owner) => {
                self.redirected.fetch_add(1, Ordering::Relaxed);
                RequestRoute::Redirect(owner.to_string())
            }
        }
    }

    /// Serves a peer's artifact fetch from the local store.
    pub fn serve_fetch(&self, fetch: &PeerFetch) -> PeerArtifact {
        let container = self
            .disk
            .and_then(|d| d.export(&fetch.class, fetch.key))
            .unwrap_or_default();
        if container.is_empty() {
            self.fetch_missing.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fetch_served.fetch_add(1, Ordering::Relaxed);
        }
        PeerArtifact {
            class: fetch.class.clone(),
            key: fetch.key,
            container,
        }
    }

    /// Admits (or rejects) a gossiped artifact into the local store.
    /// Import re-validates the container against `(class, key)`, so a
    /// hostile push can be refused but never poison the store.
    pub fn serve_push(&self, push: &PeerPush) -> Response {
        let admitted = self
            .disk
            .map(|d| d.import(&push.class, push.key, &push.container))
            .unwrap_or(false);
        if admitted {
            self.push_recv.fetch_add(1, Ordering::Relaxed);
            Response::ok(Vec::new())
        } else {
            self.push_rejected.fetch_add(1, Ordering::Relaxed);
            Response::reject(Status::BadRequest, "artifact rejected")
        }
    }

    /// Records the cluster counters into `obs` under `serve.ring.*` and
    /// `serve.peer.*`.
    pub fn observe_into(&self, obs: &mut Obs) {
        if !obs.enabled() {
            return;
        }
        obs.counter("serve.ring.members", self.ring.len() as u64);
        obs.counter("serve.ring.owned", self.owned.load(Ordering::Relaxed));
        obs.counter(
            "serve.ring.relayed_served",
            self.relayed_served.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.ring.redirected",
            self.redirected.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.peer.artifact_pulls",
            self.artifact_pulls.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.peer.pull_misses",
            self.pull_misses.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.peer.artifact_pushes",
            self.artifact_pushes.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.peer.push_recv",
            self.push_recv.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.peer.push_rejected",
            self.push_rejected.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.peer.fetch_served",
            self.fetch_served.load(Ordering::Relaxed),
        );
        obs.counter(
            "serve.peer.fetch_missing",
            self.fetch_missing.load(Ordering::Relaxed),
        );
    }

    /// The peers to ask for (or push) an artifact keyed `key`, in ring
    /// order starting at the key's owner, excluding this node.
    fn peers_for(&self, key: u64) -> Vec<String> {
        self.ring
            .route(key)
            .into_iter()
            .filter(|p| *p != self.cfg.self_addr)
            .map(str::to_string)
            .collect()
    }
}

impl Exchange for ClusterState {
    /// Pull-on-miss: walk the artifact key's ring route (the nodes most
    /// likely to hold it — the owner first, then the nodes gossip fans
    /// out to) and return the first peer's container. Transport errors
    /// and misses just move to the next peer; validation happens at the
    /// importing store, not here.
    fn fetch(&self, class: &str, key: u64) -> Option<Vec<u8>> {
        let msg = PeerFetch {
            class: class.to_string(),
            key,
        }
        .encode();
        for peer in self.peers_for(key) {
            let Ok(reply) = peer_call(&peer, &msg, self.cfg.peer_io_timeout) else {
                continue;
            };
            match Message::decode(&reply) {
                Ok(Message::PeerArtifact(a)) if a.class == class && a.key == key && a.found() => {
                    self.artifact_pulls.fetch_add(1, Ordering::Relaxed);
                    return Some(a.container);
                }
                _ => continue,
            }
        }
        self.pull_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Gossip-on-write: push the fresh container to the first
    /// `push_fanout` ring successors of its key. Best effort and
    /// synchronous — the cost is bounded by `peer_io_timeout × fanout`
    /// and paid only on synthesis, which dwarfs it.
    fn publish(&self, class: &str, key: u64, container: &[u8]) {
        if self.cfg.push_fanout == 0 {
            return;
        }
        let msg = PeerPush {
            class: class.to_string(),
            key,
            container: container.to_vec(),
        }
        .encode();
        for peer in self.peers_for(key).into_iter().take(self.cfg.push_fanout) {
            if let Ok(reply) = peer_call(&peer, &msg, self.cfg.peer_io_timeout) {
                if matches!(Response::decode(&reply), Ok(r) if r.status == Status::Ok) {
                    self.artifact_pushes.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// One framed request/response round trip to a peer with a bounded
/// connect (resolving the address first so a black-holed peer costs
/// `timeout`, not the OS connect default).
fn peer_call(addr: &str, payload: &[u8], timeout: Duration) -> io::Result<Vec<u8>> {
    let sock = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "unresolvable peer"))?;
    let mut conn = TcpStream::connect_timeout(&sock, timeout)?;
    conn.set_read_timeout(Some(timeout))?;
    conn.set_write_timeout(Some(timeout))?;
    let _ = conn.set_nodelay(true);
    write_frame(&mut conn, payload)?;
    read_frame(&mut conn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Source;

    fn members() -> Vec<String> {
        vec![
            "10.0.0.1:21075".to_string(),
            "10.0.0.2:21075".to_string(),
            "10.0.0.3:21075".to_string(),
        ]
    }

    fn state_at(self_addr: &str) -> ClusterState {
        ClusterState::new(ClusterConfig::new(self_addr, members()), None)
    }

    fn req(name: &str) -> Request {
        Request {
            source: Source::Workload(name.to_string()),
            scale: 1000,
            timings: false,
            deadline_ms: 0,
            relayed: false,
        }
    }

    #[test]
    fn every_member_agrees_on_the_route_of_every_request() {
        let states: Vec<ClusterState> = members().iter().map(|m| state_at(m)).collect();
        for name in ["gzip", "eon", "mcf", "twolf", "crafty", "vortex"] {
            let r = req(name);
            let owner = states[0].ring().owner(r.key()).unwrap().to_string();
            let mut locals = 0;
            for s in &states {
                match s.route_request(&r) {
                    RequestRoute::Local => {
                        assert_eq!(s.self_addr(), owner, "only the owner serves locally");
                        locals += 1;
                    }
                    RequestRoute::Redirect(to) => {
                        assert_eq!(to, owner, "redirects all point at the owner");
                    }
                }
            }
            assert_eq!(locals, 1, "{name}: exactly one owner");
        }
    }

    #[test]
    fn relayed_requests_are_always_served_locally() {
        // The anti-hot-loop invariant: once routed, a request can never
        // be redirected again — by any node, owner or not.
        for member in members() {
            let s = state_at(&member);
            let mut r = req("gzip");
            r.relayed = true;
            assert_eq!(s.route_request(&r), RequestRoute::Local, "{member}");
        }
    }

    #[test]
    fn self_is_added_to_the_member_list_when_missing() {
        let s = ClusterState::new(ClusterConfig::new("10.0.0.9:21075", members()), None);
        assert_eq!(s.ring().len(), 4);
        assert!(s.ring().nodes().contains(&"10.0.0.9:21075".to_string()));
    }

    #[test]
    fn storeless_node_answers_fetches_with_a_miss_and_rejects_pushes() {
        let s = state_at("10.0.0.1:21075");
        let art = s.serve_fetch(&PeerFetch {
            class: "trace".into(),
            key: 42,
        });
        assert!(!art.found());
        assert_eq!((art.class.as_str(), art.key), ("trace", 42));
        let ack = s.serve_push(&PeerPush {
            class: "trace".into(),
            key: 42,
            container: vec![1, 2, 3],
        });
        assert_eq!(ack.status, Status::BadRequest);
        let mut obs = Obs::collecting();
        s.observe_into(&mut obs);
        let p = obs.into_profile();
        assert_eq!(p.counter("serve.peer.fetch_missing"), 1);
        assert_eq!(p.counter("serve.peer.push_rejected"), 1);
        assert_eq!(p.counter("serve.ring.members"), 3);
    }

    #[test]
    fn peers_for_excludes_self_and_starts_at_the_owner_side() {
        let s = state_at("10.0.0.2:21075");
        for key in [1u64, 99, 12345, u64::MAX] {
            let peers = s.peers_for(key);
            assert_eq!(peers.len(), 2);
            assert!(!peers.contains(&"10.0.0.2:21075".to_string()));
        }
    }
}
