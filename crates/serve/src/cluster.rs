//! Cluster coordination: ring-routing decisions and the counters that
//! make them observable.
//!
//! One [`ClusterState`] per serve process answers, for every decoded
//! client request, whether this node serves it locally or redirects the
//! client to the ring owner ([`NotOwner`](crate::proto::Status::NotOwner)
//! with the owner's address); a node never forwards a request. A *relayed* request
//! ([`Request::relayed`]) is always served locally: that single rule
//! bounds every request to at most one redirect hop and makes routing
//! loops structurally impossible, even when the member lists of client
//! and servers disagree. The decisions are counted under `serve.ring.*`
//! and merged into the server's metrics profile at drain.
//!
//! Nodes exchange no artifacts. Each fills its trace store from its own
//! (possibly shared) disk or by synthesis: a trace is a deterministic
//! function of its workload spec, and a 2-node loopback measurement on a
//! 2-vCPU host put a peer fetch at about twice the cost of synthesizing
//! locally.
//!
//! Byte-identity across nodes costs nothing here: every node renders
//! responses through the same deterministic
//! [`replay_sim::report::render_report`] path, so a redirected or
//! failed-over response is bit-equal to a local one.

use crate::proto::Request;
use crate::ring::Ring;
use replay_obs::Obs;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cluster membership for one serve process.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's advertised address — what clients dial, and what
    /// [`NotOwner`](crate::proto::Status::NotOwner) redirects carry. Must
    /// be one of `peers` (it is added if missing).
    pub self_addr: String,
    /// Every member's advertised address, including this node's. Order
    /// and duplicates are irrelevant; the ring sorts and dedups.
    pub peers: Vec<String>,
}

impl ClusterConfig {
    /// The config for `self_addr` within `peers`.
    pub fn new(self_addr: impl Into<String>, peers: Vec<String>) -> ClusterConfig {
        ClusterConfig {
            self_addr: self_addr.into(),
            peers,
        }
    }
}

/// Where a decoded client request must go.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestRoute {
    /// This node owns the key (or the request is relayed, or the ring is
    /// trivial): simulate locally.
    Local,
    /// Another node owns the key: answer
    /// [`NotOwner`](crate::proto::Status::NotOwner) carrying this owner
    /// address.
    Redirect(String),
}

/// Immutable-after-construction cluster state plus counters, owned by
/// the server and read by its dispatcher.
pub struct ClusterState {
    cfg: ClusterConfig,
    ring: Ring,
    owned: AtomicU64,
    relayed_served: AtomicU64,
    redirected: AtomicU64,
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
    /// zero.
    pub fn new(cfg: ClusterConfig) -> ClusterState {
        let mut members = cfg.peers.clone();
        if !members.contains(&cfg.self_addr) {
            members.push(cfg.self_addr.clone());
        }
        let ring = Ring::new(members);
        ClusterState {
            cfg,
            ring,
            owned: AtomicU64::new(0),
            relayed_served: AtomicU64::new(0),
            redirected: AtomicU64::new(0),
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

    /// Records the cluster counters into `obs` under `serve.ring.*`.
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
    }
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
        ClusterState::new(ClusterConfig::new(self_addr, members()))
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
        let s = ClusterState::new(ClusterConfig::new("10.0.0.9:21075", members()));
        assert_eq!(s.ring().len(), 4);
        assert!(s.ring().nodes().contains(&"10.0.0.9:21075".to_string()));
    }

    #[test]
    fn route_decisions_are_counted() {
        let s = state_at("10.0.0.1:21075");
        let mut local = 0;
        for name in ["gzip", "eon", "mcf", "twolf", "crafty", "vortex"] {
            if s.route_request(&req(name)) == RequestRoute::Local {
                local += 1;
            }
        }
        let mut relayed = req("gzip");
        relayed.relayed = true;
        s.route_request(&relayed);
        let mut obs = Obs::collecting();
        s.observe_into(&mut obs);
        let p = obs.into_profile();
        assert_eq!(p.counter("serve.ring.members"), 3);
        assert_eq!(p.counter("serve.ring.owned"), local);
        assert_eq!(p.counter("serve.ring.redirected"), 6 - local);
        assert_eq!(p.counter("serve.ring.relayed_served"), 1);
    }
}
