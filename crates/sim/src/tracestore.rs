//! Process-wide memoization of synthesized workload traces.
//!
//! Synthesizing a trace segment (building the program image and
//! interpreting it for tens of thousands of instructions) costs about as
//! much as simulating it once — and before this module existed, every
//! figure driver regenerated the same traces independently, once per
//! driver per configuration. The [`TraceStore`] keys each generated
//! segment by `(workload, segment, scale)` and hands out [`Arc`]-shared
//! clones, so a trace is synthesized **at most once per process** no
//! matter how many drivers, configurations, or worker threads ask for it.
//!
//! Generation is guarded per key by a [`OnceLock`]: concurrent requests
//! for the *same* segment block until the first one finishes, while
//! requests for *different* segments proceed in parallel (the outer map
//! lock is held only to fetch the cell, never while generating). The
//! [`TraceStore::generations`] counter records how many segments were
//! actually synthesized — the integration tests assert it never exceeds
//! the number of distinct keys requested.
//!
//! A store backed by a persistent [`Store`] looks each missing segment up
//! on disk before synthesizing it, and persists what it synthesizes.
//! Nothing else fills a cell: serving nodes never ship traces to each
//! other, because a trace is a deterministic function of its workload
//! spec and synthesizing it locally costs about half of fetching it from
//! a peer over loopback.

use crate::parallel;
use replay_store::{digest_bytes, Digest64, Store};
use replay_trace::{read_trace, trace_digest, write_trace, Trace, Workload, FORMAT_VERSION};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Artifact class of persisted workload traces.
pub(crate) const TRACE_CLASS: &str = "trace";

/// The persistent-store key of one trace segment: everything that
/// determines the synthesized bytes — the workload specification (which
/// folds in the generator version), the trace file format version, and
/// the `(segment, scale)` coordinates.
fn trace_key(workload: &Workload, segment: usize, scale: usize) -> u64 {
    let mut d = Digest64::new();
    d.write_u64(workload.spec_digest());
    d.write_u32(FORMAT_VERSION);
    d.write_usize(segment);
    d.write_usize(scale);
    d.finish()
}

/// A memoization key: workload specification digest, segment index,
/// per-segment scale. The *digest* — not the name — keys the cache, so
/// two workloads that share a name but differ in generation parameters
/// (exactly what `replay clone` and `replay sweep` produce) never serve
/// each other's traces.
type Key = (u64, usize, usize);

/// A process-wide cache of synthesized traces, shared via [`Arc`].
///
/// Most callers want the shared instance from [`TraceStore::global`],
/// which is additionally backed by the persistent artifact store (when
/// one is configured): a segment missing from memory is first sought on
/// disk, and only synthesized — then persisted — if the disk misses too.
/// Tests construct private stores with [`TraceStore::new`] to observe the
/// generation counter in isolation, with no disk behind them.
#[derive(Default)]
pub struct TraceStore {
    segments: Mutex<HashMap<Key, Arc<OnceLock<Arc<Trace>>>>>,
    generations: AtomicU64,
    requests: AtomicU64,
    disk_hits: AtomicU64,
    disk: Option<&'static Store>,
}

impl std::fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStore")
            .field("requests", &self.requests())
            .field("generations", &self.generations())
            .field("disk_hits", &self.disk_hits())
            .field("disk", &self.disk.map(|s| s.root().to_path_buf()))
            .finish()
    }
}

impl TraceStore {
    /// Creates an empty store with no persistent backing.
    pub fn new() -> TraceStore {
        TraceStore::default()
    }

    /// Creates an empty store backed by an explicit persistent artifact
    /// store (the global instance wires this up automatically; this
    /// constructor exists for tests that need a private disk directory).
    pub fn with_disk(disk: &'static Store) -> TraceStore {
        TraceStore {
            disk: Some(disk),
            ..TraceStore::default()
        }
    }

    /// The shared per-process store used by the experiment drivers and the
    /// CLI, backed by [`Store::global`] when a cache directory is
    /// configured.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(|| TraceStore {
            disk: Store::global(),
            ..TraceStore::default()
        })
    }

    /// One memoized trace segment of `scale` dynamic x86 instructions.
    ///
    /// The first request for a `(workload, segment, scale)` key generates
    /// the trace; every later (or concurrent) request gets the same
    /// [`Arc`].
    ///
    /// # Panics
    ///
    /// Panics if `segment >= workload.segments` (as
    /// [`Workload::segment_trace`] does).
    pub fn segment(&self, workload: &Workload, segment: usize, scale: usize) -> Arc<Trace> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let cell = {
            let mut map = self.segments.lock().expect("trace store poisoned");
            map.entry((workload.spec_digest(), segment, scale))
                .or_default()
                .clone()
        };
        // Generate outside the map lock so distinct segments synthesize
        // concurrently; the OnceLock serializes same-key racers.
        cell.get_or_init(|| Arc::new(self.load_or_generate(workload, segment, scale)))
            .clone()
    }

    /// Loads and fully validates the artifact for `key`: container decode
    /// plus the trace round-trip gate (the decoded trace must serialize
    /// back to the exact payload digest, or the artifact does not mean
    /// what it says). Evicts on any failure.
    fn validated_load(store: &Store, key: u64) -> Option<Trace> {
        let payload = store.load(TRACE_CLASS, key)?;
        match read_trace(&payload[..]) {
            Ok(trace) => {
                if trace_digest(&trace).ok() == Some(digest_bytes(&payload)) {
                    return Some(trace);
                }
                store.evict_corrupt(TRACE_CLASS, key, "re-encode mismatch");
            }
            Err(e) => store.evict_corrupt(TRACE_CLASS, key, &e.to_string()),
        }
        None
    }

    /// Fills one memoization cell: persistent store first (when backed),
    /// synthesis — then persistence — otherwise. Only actual synthesis
    /// bumps the generation counter; disk hits are cached work, not new
    /// work.
    fn load_or_generate(&self, workload: &Workload, segment: usize, scale: usize) -> Trace {
        let key = trace_key(workload, segment, scale);
        if let Some(store) = self.disk {
            if let Some(trace) = Self::validated_load(store, key) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                return trace;
            }
        }
        self.generations.fetch_add(1, Ordering::Relaxed);
        let trace = workload.segment_trace(segment, scale);
        if let Some(store) = self.disk {
            let mut bytes = Vec::new();
            if write_trace(&mut bytes, &trace).is_ok() {
                store.save(TRACE_CLASS, key, &bytes);
            }
        }
        trace
    }

    /// All of a workload's segments at the given scale, memoized
    /// per segment.
    pub fn traces(&self, workload: &Workload, scale: usize) -> Vec<Arc<Trace>> {
        (0..workload.segments)
            .map(|s| self.segment(workload, s, scale))
            .collect()
    }

    /// Synthesizes every `(workload, segment)` pair across `jobs` worker
    /// threads so a following simulation fan-out starts from a warm store.
    pub fn prefetch(&self, workloads: &[Workload], scale: usize, jobs: usize) {
        let pairs: Vec<(usize, usize)> = workloads
            .iter()
            .enumerate()
            .flat_map(|(wi, w)| (0..w.segments).map(move |s| (wi, s)))
            .collect();
        parallel::par_map(jobs, &pairs, |&(wi, s)| {
            self.segment(&workloads[wi], s, scale);
        });
    }

    /// How many trace segments have actually been synthesized (not served
    /// from cache) over the store's lifetime.
    pub fn generations(&self) -> u64 {
        self.generations.load(Ordering::Relaxed)
    }

    /// How many segment requests the store has served over its lifetime
    /// (memoization hits are `requests() - generations()`).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// How many memoization-cell fills were served by the persistent
    /// artifact store instead of synthesis. Every first request for a key
    /// is either a disk hit or a generation, so
    /// `disk_hits() + generations()` equals the number of distinct keys
    /// ever filled.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    /// Records the store's memoization counters into an
    /// [`replay_obs::Obs`] under `tracestore.*`.
    pub fn observe_into(&self, obs: &mut replay_obs::Obs) {
        if !obs.enabled() {
            return;
        }
        let requests = self.requests();
        let generations = self.generations();
        obs.counter("tracestore.requests", requests);
        obs.counter("tracestore.generations", generations);
        obs.counter("tracestore.hits", requests.saturating_sub(generations));
        obs.counter("tracestore.disk_hits", self.disk_hits());
    }

    /// Number of distinct `(workload, segment, scale)` keys requested so
    /// far.
    pub fn cached_segments(&self) -> usize {
        self.segments.lock().expect("trace store poisoned").len()
    }

    /// Drops every cached trace (outstanding [`Arc`]s stay alive). The
    /// generation counter is *not* reset — it counts synthesis work over
    /// the store's whole lifetime.
    pub fn clear(&self) {
        self.segments.lock().expect("trace store poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_trace::workloads;

    #[test]
    fn generates_each_key_once() {
        let store = TraceStore::new();
        let w = workloads::by_name("gzip").unwrap();
        let a = store.segment(&w, 0, 500);
        let b = store.segment(&w, 0, 500);
        assert!(Arc::ptr_eq(&a, &b), "same Arc served from cache");
        assert_eq!(store.generations(), 1);

        // A different scale is a different key.
        let c = store.segment(&w, 0, 600);
        assert_eq!(c.len(), 600);
        assert_eq!(store.generations(), 2);
        assert_eq!(store.cached_segments(), 2);
    }

    #[test]
    fn memoization_hits_are_observable() {
        let store = TraceStore::new();
        let w = workloads::by_name("gzip").unwrap();
        store.segment(&w, 0, 500);
        store.segment(&w, 0, 500);
        store.segment(&w, 0, 500);
        assert_eq!(store.requests(), 3);
        assert_eq!(store.generations(), 1);
        let mut obs = replay_obs::Obs::collecting();
        store.observe_into(&mut obs);
        let p = obs.into_profile();
        assert_eq!(p.counter("tracestore.requests"), 3);
        assert_eq!(p.counter("tracestore.generations"), 1);
        assert_eq!(p.counter("tracestore.hits"), 2);
    }

    #[test]
    fn same_name_different_params_do_not_collide() {
        // Regression: the memoization key once used the workload *name*,
        // so a synthesized clone sharing a suite name would be served the
        // suite workload's trace. The key is now the spec digest.
        let store = TraceStore::new();
        let w = workloads::by_name("gzip").unwrap();
        let mut params = *w.params();
        params.seed ^= 0xdead_beef;
        let twin = Workload::custom(
            w.name.clone(),
            w.suite,
            w.segments,
            w.default_segment_len,
            params,
        );
        let a = store.segment(&w, 0, 500);
        let b = store.segment(&twin, 0, 500);
        assert_eq!(store.generations(), 2, "distinct specs synthesize twice");
        assert_ne!(a.records(), b.records(), "distinct traces served");
    }

    #[test]
    fn traces_match_direct_generation() {
        let store = TraceStore::new();
        let w = workloads::by_name("eon").unwrap();
        let memo = store.traces(&w, 400);
        let direct = w.traces_scaled(400);
        assert_eq!(memo.len(), direct.len());
        for (m, d) in memo.iter().zip(&direct) {
            assert_eq!(m.name, d.name);
            assert_eq!(m.records(), d.records());
        }
        assert_eq!(store.generations(), w.segments as u64);
    }

    #[test]
    fn concurrent_requests_share_one_generation() {
        let store = TraceStore::new();
        let w = workloads::by_name("crafty").unwrap();
        let reqs: Vec<u32> = (0..16).collect();
        let got = parallel::par_map(8, &reqs, |_| store.segment(&w, 0, 800));
        for t in &got {
            assert!(Arc::ptr_eq(t, &got[0]));
        }
        assert_eq!(store.generations(), 1, "racers coalesce onto one build");
    }

    fn scratch_store(tag: &str) -> &'static Store {
        let dir =
            std::env::temp_dir().join(format!("replay-tracestore-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Box::leak(Box::new(Store::open(dir).expect("scratch store")))
    }

    #[test]
    fn disk_backed_store_skips_synthesis_on_warm_fill() {
        let disk = scratch_store("warm");
        let w = workloads::by_name("gzip").unwrap();

        let cold = TraceStore::with_disk(disk);
        let a = cold.segment(&w, 0, 500);
        assert_eq!(cold.generations(), 1, "cold run synthesizes");
        assert_eq!(disk.writes(), 1, "…and persists");

        // A fresh in-memory store over the same disk: no synthesis.
        let warm = TraceStore::with_disk(disk);
        let b = warm.segment(&w, 0, 500);
        assert_eq!(warm.generations(), 0, "warm run loads from disk");
        assert_eq!(warm.disk_hits(), 1, "…the disk hit is counted");
        assert!(disk.hits() >= 1);
        assert_eq!(a.name, b.name);
        assert_eq!(a.records(), b.records(), "bit-identical trace");
    }

    #[test]
    fn corrupt_trace_artifact_is_evicted_and_regenerated() {
        let disk = scratch_store("evict");
        let w = workloads::by_name("gzip").unwrap();
        TraceStore::with_disk(disk).segment(&w, 0, 400);

        // Truncate the one persisted artifact in place.
        let entries: Vec<_> = std::fs::read_dir(disk.root())
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(entries.len(), 1);
        let bytes = std::fs::read(&entries[0]).unwrap();
        std::fs::write(&entries[0], &bytes[..bytes.len() / 2]).unwrap();

        let recovering = TraceStore::with_disk(disk);
        let t = recovering.segment(&w, 0, 400);
        assert_eq!(t.len(), 400);
        assert_eq!(recovering.generations(), 1, "regenerated after eviction");
        assert_eq!(disk.corrupt_evictions(), 1);
        assert_eq!(disk.writes(), 2, "repaired artifact re-persisted");

        // And the repaired artifact serves the next fill from disk.
        let healed = TraceStore::with_disk(disk);
        healed.segment(&w, 0, 400);
        assert_eq!(healed.generations(), 0);
    }

    #[test]
    fn prefetch_fills_every_segment() {
        let store = TraceStore::new();
        let ws: Vec<Workload> = workloads::all().into_iter().take(3).collect();
        let total: usize = ws.iter().map(|w| w.segments).sum();
        store.prefetch(&ws, 300, 4);
        assert_eq!(store.generations(), total as u64);
        store.prefetch(&ws, 300, 4);
        assert_eq!(store.generations(), total as u64, "second pass is free");
    }
}
