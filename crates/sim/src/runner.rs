//! The simulation driver: one trace through one configuration.
//!
//! [`simulate`] is a pure function of `(trace, config)` — the runner owns
//! every piece of mutable state it touches — so the parallel experiment
//! engine ([`crate::experiment::run_specs`]) can run many instances
//! concurrently with bit-identical results. The per-record and per-fetch
//! hot paths are allocation-free once warm: the alias window recycles its
//! address buffers ([`AliasWindow`]), the frame constructor and the fill
//! unit build in buffers they keep for the whole run, cached frames are
//! [`Arc`]-shared so a frame-cache hit is a reference-count bump, and
//! frame probes reuse one [`ExecScratch`] instead of cloning the golden
//! machine state. What still allocates is paid once per built frame or
//! per filled trace that differs from the one the trace cache holds
//! under its key: its exact-size copy out of the build buffer, the
//! optimizer's work on a frame-memo miss, and the cache entry.

use crate::framestore::FrameMemo;
use crate::{ConfigKind, Injector, SimConfig, SimResult, TraceEntry, TraceFiller};
use replay_core::{
    observe_opt_totals, optimize_timed, probe_frame, AliasProfile, ExecPlan, ExecScratch, OptFrame,
    OptStats, OptTimings, OptimizerDatapath, PassId, PlanScratch, ProbeOutcome,
};
use replay_frame::{CacheEntry, Frame, FrameCache, FrameConstructor, RetireEvent};
use replay_obs::{Hist, Profile};
use replay_timing::{FetchPath, FrameFetch, Pipeline, X86Fetch};
use replay_trace::{StaticIndex, Trace, TraceRecord};
use replay_verify::Verifier;
use replay_x86::Inst;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};

/// Runtime specialization state riding along with a cached frame.
///
/// The hit counter and the lazily compiled plan are shared between the
/// cache-resident entry and the clone the run loop holds during a fetch
/// (hence `Arc`), and reset naturally whenever a frame is (re)built — a
/// frame that was invalidated and reconstructed re-earns its plan, which
/// keeps every count a pure function of the trace.
#[derive(Debug, Default)]
struct SpecState {
    /// Dynamic frame-cache hits served for this cached frame.
    hits: AtomicU32,
    /// Compiled once when `hits` crosses the threshold; `Some(None)` means
    /// compilation was attempted and declined (stay interpreted forever).
    plan: OnceLock<Option<ExecPlan>>,
}

/// A frame as stored in the frame cache: the (possibly optimized) renamed
/// form, costing its *post-optimization* uop count in cache slots — the
/// capacity benefit of optimization (§6.1). The frame body is shared, so
/// cloning a cache hit never copies uop vectors.
#[derive(Debug, Clone)]
struct CachedFrame {
    /// Frame-cache key: the static-instruction id of the entry address.
    key: u32,
    opt: Arc<OptFrame>,
    /// Uops each pass removed from this frame (`PassId::ALL` order), kept
    /// alongside the frame so every dynamic fetch can attribute its saved
    /// uops to the pass that earned them.
    removed_by_pass: [u64; 7],
    /// Hit counting + the compiled execution plan (hot frames only).
    spec: Arc<SpecState>,
}

impl CacheEntry for CachedFrame {
    fn slot_cost(&self) -> usize {
        self.opt.uop_count()
    }
}

/// How many recent records feed the alias profiler.
const ALIAS_WINDOW: usize = 512;

/// Trace records per streaming chunk, counted in `sim.chunks`.
const CHUNK_RECORDS: usize = 1024;

/// Per-address toucher set for [`Runner::profile_span`]: at most 16
/// distinct x86 addresses per data address, stored inline so the reusable
/// map never allocates per entry.
#[derive(Debug, Clone, Copy, Default)]
struct Touchers {
    len: u8,
    x86: [u32; 16],
}

impl Touchers {
    fn as_slice(&self) -> &[u32] {
        &self.x86[..self.len as usize]
    }
    fn push(&mut self, x86: u32) {
        if (self.len as usize) < self.x86.len() {
            self.x86[self.len as usize] = x86;
            self.len += 1;
        }
    }
}

/// A fixed-capacity ring over the most recent records' touched memory
/// addresses.
///
/// This replaces a `VecDeque<(u32, Vec<u32>)>` that allocated a fresh
/// address vector for **every retired record** under RPO. The ring keeps
/// one reusable buffer per slot: once all `cap` slots have been filled,
/// recording a record is a `clear` + `extend` of an existing buffer and
/// the steady-state allocation rate drops to zero.
#[derive(Debug)]
struct AliasWindow {
    cap: usize,
    /// `(x86 address, data addresses touched)`, physically a ring.
    slots: Vec<(u32, Vec<u32>)>,
    /// Physical index of the oldest entry once the ring is full.
    head: usize,
}

impl AliasWindow {
    fn new(cap: usize) -> AliasWindow {
        assert!(cap > 0, "window capacity must be positive");
        AliasWindow {
            cap,
            slots: Vec::new(),
            head: 0,
        }
    }

    /// Records one retired instruction and the data addresses it touched,
    /// evicting the oldest record when full.
    fn push(&mut self, x86: u32, addrs: impl Iterator<Item = u32>) {
        if self.slots.len() < self.cap {
            self.slots.push((x86, addrs.collect()));
        } else {
            let slot = &mut self.slots[self.head];
            slot.0 = x86;
            slot.1.clear();
            slot.1.extend(addrs);
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// The most recent `n` records, oldest first.
    fn last(&self, n: usize) -> impl Iterator<Item = &(u32, Vec<u32>)> {
        let len = self.slots.len();
        let n = n.min(len);
        (len - n..len).map(move |logical| {
            let phys = if len < self.cap {
                logical
            } else {
                (self.head + logical) % self.cap
            };
            &self.slots[phys]
        })
    }
}

struct Runner<'a> {
    cfg: &'a SimConfig,
    records: &'a [TraceRecord],
    /// The trace's static ids and decode flows.
    index: &'a StaticIndex,
    pipeline: Pipeline,
    injector: Injector,
    constructor: FrameConstructor,
    frame_cache: FrameCache<CachedFrame>,
    tc_cache: FrameCache<Arc<TraceEntry>>,
    filler: TraceFiller,
    datapath: OptimizerDatapath<CachedFrame>,
    profile: AliasProfile,
    /// This run's optimization results, reused for every frame identical
    /// to one built before (RP and RPO).
    memo: FrameMemo,
    verifier: Verifier,
    opt_stats: OptStats,
    /// Uops removed from each frame the optimizer handled, memoized or not
    /// (`opt.frame_removed_uops`).
    opt_removed: Hist,
    /// Wall time of the frames optimized in this run (memo hits add none).
    opt_timings: OptTimings,
    frames_x86: u64,
    path_mismatch_completions: u64,
    dyn_uops_removed: u64,
    dyn_loads_removed: u64,
    /// Dynamic uops saved, attributed to the pass that removed them
    /// (`PassId::ALL` order). Sums exactly to `dyn_uops_removed`.
    dyn_removed_by_pass: [u64; 7],
    recent_mem: AliasWindow,
    /// Reusable buffers for the frame-fetch hot path.
    scratch: ExecScratch,
    mem_addrs: Vec<Option<u32>>,
    touchers: HashMap<u32, Touchers>,
    /// First record index past the current chunk of the streaming loop.
    chunk_end: usize,
    /// Reusable buffers for specialized (plan) probes.
    plan_scratch: PlanScratch,
    chunks: u64,
    specialized_hits: u64,
    spec_fallbacks: u64,
    plans_compiled: u64,
    /// Dynamic uops saved on *specialized* fetches, per pass — the subset
    /// of `dyn_removed_by_pass` earned while the plan fast path served the
    /// probe.
    dyn_removed_by_pass_spec: [u64; 7],
}

impl<'a> Runner<'a> {
    fn new(trace: &'a Trace, cfg: &'a SimConfig) -> Runner<'a> {
        let cache_slots = cfg.timing.frame_cache_uops.max(1);
        let mut injector = Injector::new();
        injector.preseed(trace);
        Runner {
            cfg,
            records: trace.records(),
            index: trace.static_index(),
            pipeline: Pipeline::new(cfg.timing.clone()),
            injector,
            constructor: FrameConstructor::new(cfg.constructor.clone()),
            frame_cache: FrameCache::new(cache_slots),
            tc_cache: FrameCache::new(cache_slots),
            filler: TraceFiller::new(),
            datapath: OptimizerDatapath::new(cfg.datapath),
            profile: AliasProfile::new(),
            memo: FrameMemo::new(cfg.timing.frame_cache_uops),
            verifier: Verifier::new(),
            opt_stats: OptStats::default(),
            opt_removed: Hist::default(),
            opt_timings: OptTimings::default(),
            frames_x86: 0,
            path_mismatch_completions: 0,
            dyn_uops_removed: 0,
            dyn_loads_removed: 0,
            dyn_removed_by_pass: [0; 7],
            recent_mem: AliasWindow::new(ALIAS_WINDOW),
            scratch: ExecScratch::new(),
            mem_addrs: Vec::new(),
            touchers: HashMap::new(),
            chunk_end: 0,
            plan_scratch: PlanScratch::new(),
            chunks: 0,
            specialized_hits: 0,
            spec_fallbacks: 0,
            plans_compiled: 0,
            dyn_removed_by_pass_spec: [0; 7],
        }
    }

    /// Opens the next chunk of the streaming loop at record `start`.
    fn next_chunk(&mut self, start: usize) {
        self.chunk_end = start.saturating_add(CHUNK_RECORDS).min(self.records.len());
        self.chunks += 1;
    }

    /// Fetches one record through the decoder path.
    fn fetch_via_decoder(&mut self, idx: usize, path: FetchPath) {
        let r = &self.records[idx];
        let flow = self.index.record_flow(idx);
        let fetch = X86Fetch {
            addr: r.addr,
            uops: flow,
            taken: r.taken(),
            indirect_target: matches!(r.inst, Inst::Ret | Inst::JmpInd { .. }).then_some(r.next_pc),
            redirects_fetch: r.next_pc != r.fallthrough(),
            load_addr: r.mem_reads.first().map(|t| t.0),
            store_addr: r.mem_writes.first().map(|t| t.0),
            path,
        };
        self.pipeline.fetch_x86(&fetch);
    }

    /// Retires one record architecturally: feeds the frame constructor /
    /// fill unit and advances the golden machine state.
    fn consume(&mut self, idx: usize) {
        let r = &self.records[idx];

        if self.cfg.kind.uses_frames() {
            let flow = self.index.record_flow(idx);
            let ev = RetireEvent {
                addr: r.addr,
                uops: flow,
                next_pc: r.next_pc,
                fallthrough: r.fallthrough(),
            };
            let built = self.constructor.retire(&ev);
            if let Some(frame) = built {
                self.handle_new_frame(frame);
            }
        }
        if self.cfg.kind == ConfigKind::TraceCache {
            let flow_len = self.index.record_flow(idx).len();
            let ends = matches!(r.inst, Inst::Ret | Inst::JmpInd { .. } | Inst::LongFlow);
            if let Some(t) = self
                .filler
                .retire(r.addr, flow_len, r.taken().is_some(), ends)
            {
                let key = static_id(self.index, t.start_addr);
                // Most fills repeat the resident trace under their key:
                // keep its `Arc`. The insert still runs, so LRU state and
                // the insert and replacement counts are as for a new one.
                let entry = match self.tc_cache.peek(key) {
                    Some(resident) if **resident == *t => Arc::clone(resident),
                    _ => Arc::new(t.clone()),
                };
                self.tc_cache.insert(key, entry);
            }
        }

        // Alias-profile window (ring slots recycle their buffers).
        if self.cfg.kind == ConfigKind::ReplayOpt {
            let r = &self.records[idx];
            self.recent_mem.push(
                r.addr,
                r.mem_reads.iter().chain(r.mem_writes.iter()).map(|t| t.0),
            );
        }

        self.injector.apply_static(r, self.index.record_id(idx));
    }

    /// Records aliasing events observed within the span of a just-built
    /// frame (§3.4: "we record aliasing events during execution and pass
    /// this information to the optimizer").
    fn profile_span(&mut self, span_records: usize) {
        // All pairs of distinct instructions that touched the same address
        // within the span: the optimizer checks arbitrary (store, load) and
        // (store, store) combinations, so partial pair sets would let it
        // keep re-speculating on already-observed aliases.
        self.touchers.clear();
        for (x86, addrs) in self.recent_mem.last(span_records) {
            for &a in addrs {
                let list = self.touchers.entry(a).or_default();
                if !list.as_slice().contains(x86) {
                    for &other in list.as_slice() {
                        self.profile.record(other, *x86);
                    }
                    list.push(*x86);
                }
            }
        }
    }

    /// Optimizes (or merely remaps) a newly constructed frame and routes
    /// it toward the frame cache.
    ///
    /// A frame identical to one built earlier in the run reuses that
    /// frame's result from the memo; everything else below (statistics,
    /// verification, the datapath's modeled latency, a fresh `SpecState`)
    /// happens for every frame, so a hit changes no simulated number.
    fn handle_new_frame(&mut self, frame: Frame) {
        let now = self.pipeline.cycles();
        let key = static_id(self.index, frame.start_addr);
        let rpo = self.cfg.kind == ConfigKind::ReplayOpt;
        if rpo {
            self.profile_span(frame.x86_count());
        }
        let hit = self.memo.get(key, &frame, &self.profile);
        #[cfg(debug_assertions)]
        if let Some(hit) = &hit {
            let fresh = if rpo {
                replay_core::optimize(&frame, &self.profile, &self.cfg.opt)
            } else {
                remap(&frame)
            };
            FrameMemo::assert_exact(hit, fresh);
        }
        // The remapped pre-optimization frame is the verifier's reference;
        // build it only when verifying, keeping that path allocation-lean.
        let raw = (rpo && self.cfg.verify).then(|| OptFrame::from_frame(&frame));
        let memoized = hit.is_some();
        let (opt, stats) = match hit {
            Some(hit) => hit,
            None if rpo => {
                let (opt, stats) =
                    optimize_timed(&frame, &self.profile, &self.cfg.opt, &mut self.opt_timings);
                (Arc::new(opt), stats)
            }
            None => {
                let (opt, stats) = remap(&frame);
                (Arc::new(opt), stats)
            }
        };
        self.opt_stats += stats;
        let cached = CachedFrame {
            key,
            opt: Arc::clone(&opt),
            removed_by_pass: stats.removed_by_pass,
            spec: Arc::new(SpecState::default()),
        };
        let orig_uop_count = frame.orig_uop_count;
        if !memoized {
            self.memo.insert(key, frame, &self.profile, (opt, stats));
        }
        if rpo {
            self.opt_removed.record(stats.removed_uops());
            if let Some(mut raw) = raw {
                raw.compact();
                self.verifier
                    .check(&raw, &cached.opt, self.injector.golden());
            }
            // Frames become visible only after the optimizer datapath's
            // pipelined latency (10 cycles per uop).
            self.datapath.offer(cached, orig_uop_count, now);
        } else {
            // Basic rePLay: frames go straight into the cache (§6.3).
            self.frame_cache.insert(key, cached);
        }
    }

    /// Fetches one dynamic instance of a cached frame starting at record
    /// `i`. Returns the number of records consumed.
    fn fetch_frame_instance(&mut self, cached: &CachedFrame, i: usize) -> usize {
        let opt: &OptFrame = &cached.opt;
        let n = opt.x86_count();
        // Specialized fast path: once this cached frame has crossed the
        // hit threshold, its compiled plan probes instead of the
        // interpreter. Only a plan probe that *completes* is trusted; any
        // assert fire, unsafe-store conflict, or fault falls back to
        // `probe_frame`, which stays authoritative for failure attribution
        // (so results are bit-identical with specialization on or off).
        let threshold = self.cfg.hotpath.spec_threshold;
        let mut specialized = false;
        let mut plan_outcome = None;
        if threshold > 0 {
            let hits = cached.spec.hits.fetch_add(1, Ordering::Relaxed) + 1;
            if hits >= threshold {
                let plans_compiled = &mut self.plans_compiled;
                let plan = cached.spec.plan.get_or_init(|| {
                    let p = ExecPlan::compile(opt);
                    if p.is_some() {
                        *plans_compiled += 1;
                    }
                    p
                });
                if let Some(plan) = plan.as_ref() {
                    let o = plan.probe(self.injector.golden(), &mut self.plan_scratch);
                    if o == ProbeOutcome::Completed {
                        specialized = true;
                        self.specialized_hits += 1;
                        plan_outcome = Some(o);
                    } else {
                        self.spec_fallbacks += 1;
                    }
                }
            }
        }
        // Probe against the golden state without committing: the runner
        // retires the traced records through `consume` either way, so the
        // old clone-execute-discard of the sparse memory image was pure
        // allocation overhead.
        let outcome = match plan_outcome {
            Some(o) => o,
            None => probe_frame(opt, self.injector.golden(), &mut self.scratch),
        };
        let path_ok = (0..n)
            .all(|j| i + j < self.records.len() && self.records[i + j].addr == opt.x86_addrs[j]);

        if path_ok && outcome == ProbeOutcome::Completed {
            self.mem_addrs.clear();
            self.mem_addrs.resize(opt.len(), None);
            let txns = if specialized {
                self.plan_scratch.transactions()
            } else {
                self.scratch.transactions()
            };
            for t in txns {
                self.mem_addrs[t.uop_index] = Some(t.addr);
            }
            if specialized {
                for (d, r) in self
                    .dyn_removed_by_pass_spec
                    .iter_mut()
                    .zip(cached.removed_by_pass)
                {
                    *d += r;
                }
            }
            let exit_rec = &self.records[i + n - 1];
            self.pipeline.fetch_frame(&FrameFetch {
                frame: opt,
                mem_addrs: &self.mem_addrs,
                fails_at: None,
                exit_taken: exit_rec.taken(),
                exit_indirect: matches!(exit_rec.inst, Inst::Ret | Inst::JmpInd { .. })
                    .then_some(exit_rec.next_pc),
            });
            self.frames_x86 += n as u64;
            self.dyn_uops_removed += (opt.orig_uop_count.saturating_sub(opt.uop_count())) as u64;
            self.dyn_loads_removed += (opt.orig_load_count.saturating_sub(opt.load_count())) as u64;
            for (d, r) in self
                .dyn_removed_by_pass
                .iter_mut()
                .zip(cached.removed_by_pass)
            {
                *d += r;
            }
            for j in 0..n {
                self.consume(i + j);
            }
            return n;
        }

        // The frame fails for this instance: assertion fire, unsafe-store
        // conflict, fault, or (rarely) a divergence the optimizer proved
        // away. Charge the pessimistic recovery, then refetch the original
        // instructions from the ICache along the *actual* path.
        let fails_at = match outcome {
            ProbeOutcome::AssertFired { uop_index } => uop_index,
            ProbeOutcome::UnsafeConflict {
                uop_index,
                conflicts_with,
            } => {
                let a = opt.slot(uop_index as replay_core::Slot).x86_addr;
                let b = opt.slot(conflicts_with as replay_core::Slot).x86_addr;
                self.profile.record(a, b);
                uop_index
            }
            ProbeOutcome::Faulted { uop_index } => uop_index,
            ProbeOutcome::Completed => {
                self.path_mismatch_completions += 1;
                opt.len().saturating_sub(1)
            }
        };
        self.mem_addrs.clear();
        self.mem_addrs.resize(opt.len(), None);
        self.pipeline.fetch_frame(&FrameFetch {
            frame: opt,
            mem_addrs: &self.mem_addrs,
            fails_at: Some(fails_at),
            exit_taken: None,
            exit_indirect: None,
        });
        // A frame that just rolled back is stale for the current program
        // behaviour: drop it. The constructor rebuilds a frame for this
        // region if it is still hot (with the offending branch no longer
        // converted, since its bias run was just broken).
        self.frame_cache.invalidate(cached.key);
        let mut j = 0;
        while j < n && i + j < self.records.len() && self.records[i + j].addr == opt.x86_addrs[j] {
            self.fetch_via_decoder(i + j, FetchPath::ICache);
            self.consume(i + j);
            j += 1;
        }
        j.max(1)
    }

    fn run(mut self) -> SimResult {
        let mut i = 0usize;
        while i < self.records.len() {
            if i >= self.chunk_end {
                self.next_chunk(i);
            }
            if self.cfg.kind == ConfigKind::ReplayOpt {
                let now = self.pipeline.cycles();
                let cache = &mut self.frame_cache;
                self.datapath.drain_completed(now, |f| {
                    cache.insert(f.key, f);
                });
            }
            let key = self.index.record_id(i);
            match self.cfg.kind {
                ConfigKind::ICache => {
                    self.fetch_via_decoder(i, FetchPath::ICache);
                    self.consume(i);
                    i += 1;
                }
                ConfigKind::TraceCache => {
                    let hit = self.tc_cache.lookup(key).cloned();
                    match hit {
                        Some(entry) => {
                            let mut j = 0;
                            while j < entry.x86_addrs.len()
                                && i + j < self.records.len()
                                && self.records[i + j].addr == entry.x86_addrs[j]
                            {
                                self.fetch_via_decoder(i + j, FetchPath::Frame);
                                self.consume(i + j);
                                j += 1;
                            }
                            if j == 0 {
                                self.fetch_via_decoder(i, FetchPath::ICache);
                                self.consume(i);
                                j = 1;
                            } else {
                                self.frames_x86 += j as u64;
                            }
                            i += j;
                        }
                        None => {
                            self.fetch_via_decoder(i, FetchPath::ICache);
                            self.consume(i);
                            i += 1;
                        }
                    }
                }
                ConfigKind::Replay | ConfigKind::ReplayOpt => {
                    let hit = self.frame_cache.lookup(key).cloned();
                    match hit {
                        Some(cached) => {
                            i += self.fetch_frame_instance(&cached, i);
                        }
                        None => {
                            self.fetch_via_decoder(i, FetchPath::ICache);
                            self.consume(i);
                            i += 1;
                        }
                    }
                }
            }
        }
        self.pipeline.finish();

        let pstats = self.pipeline.stats();
        let coverage = if pstats.retired_x86 == 0 {
            0.0
        } else {
            self.frames_x86 as f64 / pstats.retired_x86 as f64
        };

        // Final harvest: everything the run observed, under stable names.
        let mut metrics = Profile::new();
        observe_opt_totals(
            &mut metrics,
            &self.cfg.opt,
            &self.opt_stats,
            &self.opt_removed,
            &self.opt_timings,
        );
        self.frame_cache
            .stats()
            .observe_into("frame_cache", &mut metrics);
        self.tc_cache
            .stats()
            .observe_into("trace_cache", &mut metrics);
        self.constructor
            .stats()
            .observe_into("constructor", &mut metrics);
        pstats.observe_into("pipeline", &mut metrics);
        self.pipeline.bins().observe_into("cycles", &mut metrics);
        // Per-port pressure (`timing.port.*`): recorded only by the
        // port-accurate core model, so generic-model profiles are
        // unchanged by the model's existence.
        self.pipeline.observe_ports(&mut metrics);
        let vstats = self.verifier.stats();
        metrics.counter_add("verify.checked", vstats.checked);
        metrics.counter_add("verify.passed", vstats.passed);
        metrics.counter_add("verify.failed", vstats.failed);
        metrics.counter_add("verify.skipped", vstats.skipped);
        metrics.counter_add("sim.dyn_uops_total", self.injector.uops_seen());
        metrics.counter_add("sim.dyn_uops_removed", self.dyn_uops_removed);
        metrics.counter_add("sim.dyn_loads_total", self.injector.loads_seen());
        metrics.counter_add("sim.dyn_loads_removed", self.dyn_loads_removed);
        metrics.counter_add("sim.frames_x86", self.frames_x86);
        metrics.counter_add("sim.path_mismatches", self.path_mismatch_completions);
        metrics.counter_add("sim.exec.specialized_hits", self.specialized_hits);
        metrics.counter_add("sim.exec.fallbacks", self.spec_fallbacks);
        metrics.counter_add("sim.exec.plans_compiled", self.plans_compiled);
        metrics.counter_add("sim.chunks", self.chunks);
        for (pi, pass) in PassId::ALL.into_iter().enumerate() {
            metrics.counter_add(
                &format!("sim.pass.{}.dyn_removed_uops", pass.name()),
                self.dyn_removed_by_pass[pi],
            );
            metrics.counter_add(
                &format!("sim.pass.{}.dyn_removed_uops_specialized", pass.name()),
                self.dyn_removed_by_pass_spec[pi],
            );
        }

        SimResult {
            workload: String::new(),
            config: self.cfg.kind,
            cycles: self.pipeline.cycles(),
            x86_retired: pstats.retired_x86,
            bins: self.pipeline.bins(),
            pipeline: pstats,
            opt_stats: self.opt_stats,
            dyn_uops_total: self.injector.uops_seen(),
            dyn_uops_removed: self.dyn_uops_removed,
            dyn_loads_total: self.injector.loads_seen(),
            dyn_loads_removed: self.dyn_loads_removed,
            constructor: self.constructor.stats(),
            coverage,
            path_mismatches: self.path_mismatch_completions,
            verify: self.verifier.stats(),
            uop_ratio: self.injector.uop_ratio(),
            profile: metrics,
        }
    }
}

/// The cache key of a frame or trace entered at `addr`: its static
/// instruction id (once per built frame or filled trace, not per record).
fn static_id(index: &StaticIndex, addr: u32) -> u32 {
    index
        .static_id(addr)
        .expect("frames start at traced instructions")
}

/// Basic rePLay's frame (§6.3): remapped and compacted, with statistics
/// that record nothing removed.
fn remap(frame: &Frame) -> (OptFrame, OptStats) {
    let mut opt = OptFrame::from_frame(frame);
    opt.compact();
    let stats = OptStats {
        uops_before: opt.uop_count() as u64,
        uops_after: opt.uop_count() as u64,
        loads_before: opt.load_count() as u64,
        loads_after: opt.load_count() as u64,
        ..OptStats::default()
    };
    (opt, stats)
}

/// Simulates one trace through one configuration.
///
/// # Example
///
/// ```
/// use replay_sim::{simulate, ConfigKind, SimConfig};
/// use replay_trace::workloads;
///
/// let trace = workloads::by_name("gzip").unwrap().segment_trace(0, 2_000);
/// let r = simulate(&trace, &SimConfig::new(ConfigKind::ICache));
/// assert_eq!(r.x86_retired, 2_000);
/// assert!(r.ipc() > 0.1);
/// ```
pub fn simulate(trace: &Trace, cfg: &SimConfig) -> SimResult {
    let mut result = Runner::new(trace, cfg).run();
    result.workload = trace.name.clone();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_trace::workloads;

    fn short_trace(name: &str, len: usize) -> Trace {
        workloads::by_name(name).unwrap().segment_trace(0, len)
    }

    #[test]
    fn all_configs_retire_every_instruction() {
        let trace = short_trace("crafty", 5_000);
        for kind in ConfigKind::ALL {
            let r = simulate(&trace, &SimConfig::new(kind));
            assert_eq!(r.x86_retired, 5_000, "{kind} retired count");
            assert_eq!(r.cycles, r.bins.total(), "{kind} bins cover cycles");
            assert!(r.ipc() > 0.05, "{kind} ipc {}", r.ipc());
        }
    }

    #[test]
    fn replay_builds_and_uses_frames() {
        let trace = short_trace("bzip2", 8_000);
        let r = simulate(&trace, &SimConfig::new(ConfigKind::Replay));
        assert!(r.constructor.completed > 0, "frames constructed");
        assert!(r.coverage > 0.3, "coverage {}", r.coverage);
        assert!(r.pipeline.frames_fetched > 0);
    }

    #[test]
    fn optimization_removes_uops_and_verifies() {
        let trace = short_trace("bzip2", 8_000);
        let r = simulate(&trace, &SimConfig::new(ConfigKind::ReplayOpt));
        assert!(r.uop_removal() > 0.05, "removal {}", r.uop_removal());
        assert!(r.verify.checked > 0, "verifier ran");
        assert_eq!(r.verify.failed, 0, "all optimizations sound");
    }

    #[test]
    fn rpo_beats_rp_on_redundant_workload() {
        let trace = short_trace("bzip2", 12_000);
        let rp = simulate(&trace, &SimConfig::new(ConfigKind::Replay));
        let rpo = simulate(&trace, &SimConfig::new(ConfigKind::ReplayOpt));
        assert!(
            rpo.ipc() > rp.ipc(),
            "RPO {} should beat RP {}",
            rpo.ipc(),
            rp.ipc()
        );
    }

    #[test]
    fn excel_aborts_some_frames() {
        let trace = short_trace("excel", 12_000);
        let r = simulate(&trace, &SimConfig::new(ConfigKind::ReplayOpt));
        assert!(
            r.pipeline.assert_events > 0,
            "speculative memory optimization must abort sometimes"
        );
    }

    #[test]
    fn trace_cache_covers_instructions() {
        let trace = short_trace("gzip", 6_000);
        let r = simulate(&trace, &SimConfig::new(ConfigKind::TraceCache));
        assert!(r.coverage > 0.2, "TC coverage {}", r.coverage);
    }

    #[test]
    fn simulate_is_deterministic() {
        // The parallel engine depends on simulate being a pure function of
        // its inputs: two runs must agree bit for bit.
        let trace = short_trace("vortex", 6_000);
        for kind in ConfigKind::ALL {
            let a = simulate(&trace, &SimConfig::new(kind).without_verify());
            let b = simulate(&trace, &SimConfig::new(kind).without_verify());
            assert_eq!(a.cycles, b.cycles, "{kind}");
            assert_eq!(a.x86_retired, b.x86_retired, "{kind}");
            assert_eq!(a.coverage.to_bits(), b.coverage.to_bits(), "{kind}");
            assert_eq!(a.pipeline.assert_events, b.pipeline.assert_events, "{kind}");
        }
    }

    #[test]
    fn specialization_never_changes_results() {
        // The specialization threshold is host-side only: every simulated
        // number must be bit-identical with specialization on, off, or at
        // pathological settings.
        let trace = short_trace("bzip2", 10_000);
        for kind in [ConfigKind::Replay, ConfigKind::ReplayOpt] {
            let base = simulate(&trace, &SimConfig::new(kind).without_verify());
            let eager = simulate(
                &trace,
                &SimConfig::new(kind).without_verify().with_spec_threshold(1),
            );
            assert!(
                eager.profile.counter("sim.exec.specialized_hits") > 0,
                "{kind}: threshold 1 should specialize every reused frame"
            );
            let variants = [
                SimConfig::new(kind)
                    .without_verify()
                    .without_specialization(),
                SimConfig::new(kind).without_verify().with_spec_threshold(1),
                SimConfig::new(kind).without_verify().with_spec_threshold(2),
            ];
            for (vi, cfg) in variants.iter().enumerate() {
                let r = simulate(&trace, cfg);
                assert_eq!(base.cycles, r.cycles, "{kind} variant {vi}: cycles");
                assert_eq!(base.x86_retired, r.x86_retired, "{kind} variant {vi}");
                assert_eq!(
                    base.coverage.to_bits(),
                    r.coverage.to_bits(),
                    "{kind} variant {vi}: coverage"
                );
                assert_eq!(
                    base.pipeline.assert_events, r.pipeline.assert_events,
                    "{kind} variant {vi}: aborts"
                );
                assert_eq!(
                    base.dyn_uops_removed, r.dyn_uops_removed,
                    "{kind} variant {vi}: removal"
                );
            }
        }
    }

    #[test]
    fn specialized_attribution_is_a_subset_of_total() {
        let trace = short_trace("bzip2", 10_000);
        let r = simulate(&trace, &SimConfig::new(ConfigKind::ReplayOpt));
        let total: u64 = PassId::ALL
            .into_iter()
            .map(|p| {
                r.profile
                    .counter(&format!("sim.pass.{}.dyn_removed_uops", p.name()))
            })
            .sum();
        let spec: u64 = PassId::ALL
            .into_iter()
            .map(|p| {
                r.profile.counter(&format!(
                    "sim.pass.{}.dyn_removed_uops_specialized",
                    p.name()
                ))
            })
            .sum();
        assert!(spec > 0, "hot frames should retire specialized uop savings");
        assert!(spec <= total, "specialized subset exceeds total");
        assert!(
            r.profile.counter("sim.exec.plans_compiled") > 0
                && r.profile.counter("sim.exec.plans_compiled")
                    <= r.profile.counter("sim.exec.specialized_hits"),
            "plans compile once and serve many hits"
        );
    }

    #[test]
    fn alias_window_recycles_and_orders() {
        let mut w = AliasWindow::new(4);
        for i in 0..10u32 {
            w.push(i, [i * 10].into_iter());
        }
        // Window holds 6..=9, oldest first.
        let got: Vec<u32> = w.last(4).map(|(x86, _)| *x86).collect();
        assert_eq!(got, vec![6, 7, 8, 9]);
        let tail: Vec<u32> = w.last(2).map(|(x86, _)| *x86).collect();
        assert_eq!(tail, vec![8, 9]);
        let addrs: Vec<&[u32]> = w.last(4).map(|(_, a)| a.as_slice()).collect();
        assert_eq!(addrs, vec![&[60][..], &[70], &[80], &[90]]);
        // Partially filled windows iterate in insertion order.
        let mut p = AliasWindow::new(8);
        p.push(1, [].into_iter());
        p.push(2, [].into_iter());
        let got: Vec<u32> = p.last(10).map(|(x86, _)| *x86).collect();
        assert_eq!(got, vec![1, 2]);
    }
}
