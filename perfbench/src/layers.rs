//! Per-layer host time of the simulator, measured from outside.
//!
//! [`replay_sim::simulate`] has no spans of its own beyond the optimizer's,
//! so each layer is timed by calling its public entry point over the same
//! traces and configurations the workload simulated:
//!
//! - `Injector::{preseed, flow, apply_with_flow}` and
//!   `FrameConstructor::retire` see exactly the record stream the runner
//!   feeds them, once per simulation that calls them;
//! - `Pipeline::fetch_x86` is timed over every record on each fetch path a
//!   simulation uses, and charged for the share of records it fetched on
//!   that path: the ICache path for records no frame covered, the frame
//!   path for TC's trace-cache hits;
//! - `probe_frame`, `ExecPlan::compile` and `ExecPlan::probe` are timed per
//!   call on the constructed frames against the golden state, and charged
//!   for the number of calls the simulation's own counters report;
//! - the optimizer passes are the one layer with spans inside the program
//!   (`opt.time_ns`, `opt.pass.<P>.time_ns`), read from each simulation's
//!   fastest repeat ([`OptSpans`]).
//!
//! Each measurement keeps the fastest of a few repeats, as the workloads
//! do for simulation times, so layers and totals share one basis.
//!
//! Whatever these do not cover (frame fetch timing, frame-cache upkeep,
//! the trace-cache fill unit, the run loop itself) is the caller's
//! `sim.unattributed_s`.

use crate::stats::{ratio, unattributed};
use crate::Outcome;
use replay_core::{
    optimize, probe_frame, AliasProfile, ExecPlan, ExecScratch, OptFrame, PassId, PlanScratch,
};
use replay_frame::{Frame, FrameConstructor, RetireEvent};
use replay_obs::{Metric, Profile};
use replay_sim::{ConfigKind, Injector, SimConfig, SimResult};
use replay_store::Digest64;
use replay_timing::{FetchPath, Pipeline, TimingConfig, X86Fetch};
use replay_trace::Trace;
use replay_uop::Uop;
use replay_x86::Inst;
use std::collections::HashMap;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Frame probes timed per trace and configuration; enough for a stable
/// per-call mean without replaying every dynamic instance.
const PROBE_SAMPLES: usize = 20_000;

/// Timings per layer measurement; the fastest is kept.
const REPEATS: usize = 3;

/// One simulation the workload ran: its trace, configuration and result.
pub struct Job<'a> {
    /// The simulated trace.
    pub trace: &'a Arc<Trace>,
    /// Its configuration.
    pub cfg: &'a SimConfig,
    /// The (unmerged) result of that one simulation.
    pub result: &'a SimResult,
}

/// Host seconds per simulator layer, summed over a set of simulations.
#[derive(Debug, Clone, Default)]
pub struct SimLayers {
    /// `Injector::preseed`.
    pub preseed_s: f64,
    /// `Injector::flow` (x86 → uop translation, cached per address).
    pub flow_s: f64,
    /// `Injector::apply_with_flow` (golden-state upkeep).
    pub apply_s: f64,
    /// `FrameConstructor::retire`.
    pub retire_s: f64,
    /// `Pipeline::fetch_x86`.
    pub fetch_x86_s: f64,
    /// `probe_frame` (interpreted frame execution).
    pub probe_s: f64,
    /// `ExecPlan::compile`.
    pub plan_compile_s: f64,
    /// `ExecPlan::probe` (specialized frame execution).
    pub plan_probe_s: f64,
    /// The optimizer pipeline (`opt.time_ns` spans).
    pub opt_s: f64,
    /// Per pass, in [`PassId::ALL`] order (`opt.pass.<P>.time_ns`).
    pub opt_pass_s: [f64; 7],
    /// Distinct static instructions translated, summed over traces.
    pub static_flows: u64,
}

impl SimLayers {
    /// The layer times that partition simulation time, for the residual.
    pub fn parts(&self) -> [f64; 9] {
        [
            self.preseed_s,
            self.flow_s,
            self.apply_s,
            self.retire_s,
            self.fetch_x86_s,
            self.probe_s,
            self.plan_compile_s,
            self.plan_probe_s,
            self.opt_s,
        ]
    }
}

/// Seconds held in a duration metric of `profile` (0 when absent).
pub fn duration_s(profile: &Profile, name: &str) -> f64 {
    match profile.get(name) {
        Some(Metric::DurationNs(ns)) => *ns as f64 / 1e9,
        _ => 0.0,
    }
}

/// Costs measured once per trace and shared by every job on it.
struct TraceCosts {
    preseed_s: f64,
    flow_s: f64,
    apply_s: f64,
    retire_s: f64,
    static_flows: u64,
    flows: Vec<Rc<Vec<Uop>>>,
    frames: Vec<Frame>,
    /// Keyed by (through the frame/trace-cache path?, core model label).
    fetch_s: HashMap<(bool, &'static str), f64>,
    /// Keyed by configuration kind: mean seconds per probe_frame call,
    /// per ExecPlan::compile call, per ExecPlan::probe call.
    exec: HashMap<ConfigKind, [f64; 3]>,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The fastest of [`REPEATS`] timings: a layer measured once can land in
/// a burst of host interference, like any single simulation.
fn fastest(mut timed: impl FnMut() -> f64) -> f64 {
    (0..REPEATS).map(|_| timed()).fold(f64::INFINITY, f64::min)
}

impl TraceCosts {
    fn measure(trace: &Trace, cfg: &SimConfig) -> TraceCosts {
        let records = trace.records();
        let preseed_s = fastest(|| {
            let t = Instant::now();
            let mut inj = Injector::new();
            inj.preseed(trace);
            black_box(&inj);
            secs(t)
        });
        let flow_s = fastest(|| {
            let mut inj = Injector::new();
            let t = Instant::now();
            for r in records {
                black_box(inj.flow(r));
            }
            secs(t)
        });
        let mut inj = Injector::new();
        let flows: Vec<Rc<Vec<Uop>>> = records.iter().map(|r| inj.flow(r)).collect();
        let mut addrs: Vec<u32> = records.iter().map(|r| r.addr).collect();
        addrs.sort_unstable();
        addrs.dedup();

        let apply_s = fastest(|| {
            let mut inj = Injector::new();
            inj.preseed(trace);
            let t = Instant::now();
            for (r, f) in records.iter().zip(&flows) {
                inj.apply_with_flow(r, f);
            }
            black_box(inj.golden());
            secs(t)
        });

        let mut frames = Vec::new();
        let retire_s = fastest(|| {
            let mut constructor = FrameConstructor::new(cfg.constructor.clone());
            frames.clear();
            let t = Instant::now();
            for (r, f) in records.iter().zip(&flows) {
                let ev = RetireEvent {
                    addr: r.addr,
                    uops: f,
                    next_pc: r.next_pc,
                    fallthrough: r.fallthrough(),
                };
                if let Some(frame) = constructor.retire(&ev) {
                    frames.push(frame);
                }
            }
            secs(t)
        });

        TraceCosts {
            preseed_s,
            flow_s,
            apply_s,
            retire_s,
            static_flows: addrs.len() as u64,
            flows,
            frames,
            fetch_s: HashMap::new(),
            exec: HashMap::new(),
        }
    }

    /// `Pipeline::fetch_x86` over every record through `path`, under
    /// `timing`.
    fn fetch(&mut self, trace: &Trace, timing: &TimingConfig, path: FetchPath) -> f64 {
        let key = (path == FetchPath::Frame, timing.core_model.label());
        if let Some(&s) = self.fetch_s.get(&key) {
            return s;
        }
        let s = fastest(|| {
            let mut p = Pipeline::new(timing.clone());
            let t = Instant::now();
            for (r, f) in trace.records().iter().zip(&self.flows) {
                p.fetch_x86(&X86Fetch {
                    addr: r.addr,
                    uops: f,
                    taken: r.taken(),
                    indirect_target: matches!(r.inst, Inst::Ret | Inst::JmpInd { .. })
                        .then_some(r.next_pc),
                    redirects_fetch: r.next_pc != r.fallthrough(),
                    load_addr: r.mem_reads.first().map(|t| t.0),
                    store_addr: r.mem_writes.first().map(|t| t.0),
                    path,
                });
            }
            black_box(p.cycles());
            secs(t)
        });
        self.fetch_s.insert(key, s);
        s
    }

    /// Mean seconds per `probe_frame`, `ExecPlan::compile` and
    /// `ExecPlan::probe` call on this trace's frames under `cfg`, each the
    /// fastest of [`REPEATS`] walks.
    fn exec(&mut self, trace: &Trace, cfg: &SimConfig) -> [f64; 3] {
        if let Some(&c) = self.exec.get(&cfg.kind) {
            return c;
        }
        // The alias profile starts empty in every run; the runner's grows
        // as aborts teach it, which changes which loads survive but not
        // what a probe costs per uop.
        let profile = AliasProfile::empty();
        let opt: Vec<OptFrame> = self
            .frames
            .iter()
            .map(|f| {
                if cfg.kind == ConfigKind::ReplayOpt {
                    optimize(f, &profile, &cfg.opt).0
                } else {
                    let mut o = OptFrame::from_frame(f);
                    o.compact();
                    o
                }
            })
            .collect();
        let by_addr: HashMap<u32, usize> = opt
            .iter()
            .enumerate()
            .map(|(i, f)| (f.start_addr, i))
            .collect();
        let mut best = [f64::INFINITY; 3];
        for _ in 0..REPEATS {
            let mut plans: Vec<Option<Option<ExecPlan>>> = (0..opt.len()).map(|_| None).collect();
            let mut scratch = ExecScratch::new();
            let mut plan_scratch = PlanScratch::new();
            let mut sums = [(0.0, 0u64); 3];
            let mut inj = Injector::new();
            inj.preseed(trace);
            for (r, f) in trace.records().iter().zip(&self.flows) {
                if sums[0].1 < PROBE_SAMPLES as u64 {
                    if let Some(&fi) = by_addr.get(&r.addr) {
                        let t = Instant::now();
                        black_box(probe_frame(&opt[fi], inj.golden(), &mut scratch));
                        sums[0] = (sums[0].0 + secs(t), sums[0].1 + 1);
                        if plans[fi].is_none() {
                            let t = Instant::now();
                            plans[fi] = Some(ExecPlan::compile(&opt[fi]));
                            sums[1] = (sums[1].0 + secs(t), sums[1].1 + 1);
                        }
                        if let Some(Some(plan)) = &plans[fi] {
                            let t = Instant::now();
                            black_box(plan.probe(inj.golden(), &mut plan_scratch));
                            sums[2] = (sums[2].0 + secs(t), sums[2].1 + 1);
                        }
                    }
                }
                inj.apply_with_flow(r, f);
            }
            for (b, (s, n)) in best.iter_mut().zip(sums) {
                *b = b.min(if n == 0 { 0.0 } else { s / n as f64 });
            }
        }
        self.exec.insert(cfg.kind, best);
        best
    }
}

/// The optimizer's in-program spans per simulation (`opt.time_ns`, then
/// `opt.pass.<P>.time_ns` in [`PassId::ALL`] order), keeping for each
/// simulation the repeat with the fastest pipeline.
#[derive(Debug, Default)]
pub struct OptSpans(HashMap<usize, [f64; 8]>);

impl OptSpans {
    /// Records one repeat of simulation `sim`.
    pub fn observe(&mut self, sim: usize, r: &SimResult) {
        let mut spans = [duration_s(&r.profile, "opt.time_ns"); 8];
        for (pi, pass) in PassId::ALL.into_iter().enumerate() {
            spans[pi + 1] = duration_s(&r.profile, &format!("opt.pass.{}.time_ns", pass.name()));
        }
        let best = self.0.entry(sim).or_insert(spans);
        if spans[0] < best[0] {
            *best = spans;
        }
    }

    /// The kept spans, summed over simulations.
    fn total(&self) -> [f64; 8] {
        let mut t = [0.0; 8];
        for spans in self.0.values() {
            for (a, b) in t.iter_mut().zip(spans) {
                *a += b;
            }
        }
        t
    }
}

/// Records the simulator's per-layer metrics for one pass of a workload.
///
/// `config_s` is the pass's simulation time per configuration (IC, TC, RP,
/// RPO), each simulation's fastest of `passes` repeats; `other_in_sim_s` is time
/// spent inside `simulate` in layers measured by the workload itself (the
/// frame-bundle store traffic). `results` are the pass's simulations, whose
/// deterministic counters repeat exactly between traced and untraced runs.
pub fn record(
    out: &mut Outcome,
    config_s: [f64; 4],
    passes: usize,
    layers: &SimLayers,
    other_in_sim_s: f64,
    results: &[&SimResult],
) {
    for (name, s) in ["sim.ic_s", "sim.tc_s", "sim.rp_s", "sim.rpo_s"]
        .into_iter()
        .zip(config_s)
    {
        out.set(name, s, passes);
    }
    let mut parts = layers.parts().to_vec();
    parts.push(other_in_sim_s);
    out.set(
        "sim.unattributed_s",
        unattributed(config_s.iter().sum(), &parts),
        passes,
    );
    out.set("inject.preseed_s", layers.preseed_s, 1);
    out.set("inject.flow_s", layers.flow_s, 1);
    out.set("inject.apply_s", layers.apply_s, 1);
    out.set("inject.static_flows", layers.static_flows as f64, 1);
    out.set("frame.retire_s", layers.retire_s, 1);
    out.set("timing.fetch_x86_s", layers.fetch_x86_s, 1);
    out.set("exec.probe_s", layers.probe_s, 1);
    out.set("exec.plan_compile_s", layers.plan_compile_s, 1);
    out.set("exec.plan_probe_s", layers.plan_probe_s, 1);
    out.set("opt.s", layers.opt_s, 1);
    let pass_names = [
        "opt.nop_s",
        "opt.cp_s",
        "opt.ra_s",
        "opt.asst_s",
        "opt.mem_s",
        "opt.cse_s",
        "opt.dce_s",
    ];
    for (name, s) in pass_names.into_iter().zip(layers.opt_pass_s) {
        out.set(name, s, 1);
    }

    let frames: Vec<&&SimResult> = results.iter().filter(|r| r.config.uses_frames()).collect();
    let sum = |f: &dyn Fn(&SimResult) -> u64, rs: &[&&SimResult]| {
        rs.iter().map(|r| f(r)).sum::<u64>() as f64
    };
    out.set("frame.built", sum(&|r| r.constructor.completed, &frames), 1);
    // These metrics carry the simulator's own profile counter names.
    for name in [
        "frame_cache.hits",
        "frame_cache.misses",
        "frame_cache.evictions",
        "frame_cache.invalidations",
    ] {
        out.set(name, sum(&|r| r.profile.counter(name), &frames), 1);
    }
    out.set(
        "frame.coverage",
        ratio(
            sum(&|r| r.profile.counter("sim.frames_x86"), &frames),
            sum(&|r| r.x86_retired, &frames),
        ),
        1,
    );
    let fetched = sum(&|r| r.pipeline.frames_fetched, &frames);
    out.set(
        "exec.completed_frac",
        ratio(
            fetched,
            fetched + sum(&|r| r.pipeline.assert_events, &frames),
        ),
        1,
    );
    out.set(
        "exec.specialized_hits",
        sum(&|r| r.profile.counter("sim.exec.specialized_hits"), &frames),
        1,
    );
    out.set(
        "exec.fallbacks",
        sum(&|r| r.profile.counter("sim.exec.fallbacks"), &frames),
        1,
    );
    out.set(
        "exec.plans_compiled",
        sum(&|r| r.profile.counter("sim.exec.plans_compiled"), &frames),
        1,
    );

    let rpo: Vec<&&SimResult> = results
        .iter()
        .filter(|r| r.config == ConfigKind::ReplayOpt)
        .collect();
    out.set(
        "opt.frames",
        sum(&|r| r.profile.counter("opt.frames"), &rpo),
        1,
    );
    out.set(
        "opt.removed_frac",
        ratio(
            sum(&|r| r.opt_stats.uops_before - r.opt_stats.uops_after, &rpo),
            sum(&|r| r.opt_stats.uops_before, &rpo),
        ),
        1,
    );

    let all: Vec<&&SimResult> = results.iter().collect();
    out.set("timing.cycles", sum(&|r| r.cycles, &all), 1);
    out.set(
        "timing.retired_uops",
        sum(&|r| r.pipeline.retired_uops, &all),
        1,
    );
    out.set(
        "timing.mispredicts",
        sum(&|r| r.pipeline.mispredicts, &all),
        1,
    );
}

/// A digest of every deterministic number a set of simulations produced:
/// configuration, cycles, retired instructions and the whole profile
/// without its wall-time spans.
pub fn digest<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> u64 {
    let mut d = Digest64::new();
    for r in results {
        d.write_str(r.config.label());
        d.write_u64(r.cycles);
        d.write_u64(r.x86_retired);
        d.write_str(&r.profile.to_json(false));
    }
    d.finish()
}

/// Notes the [`digest`] of one pass's simulations, in both traced and
/// untraced runs: the two must agree.
pub fn note_counters(out: &mut Outcome, results: &[&SimResult]) {
    out.notes.push(format!(
        "simulated counters digest {:016x} over {} simulations",
        digest(results.iter().copied()),
        results.len()
    ));
}

/// Measures every layer over `jobs` (see the module docs for what each
/// layer's time means). Jobs sharing a trace share its per-trace costs.
pub fn measure(jobs: &[Job<'_>], opt: &OptSpans) -> SimLayers {
    let mut costs: HashMap<*const Trace, TraceCosts> = HashMap::new();
    let mut out = SimLayers::default();
    for job in jobs {
        let trace: &Trace = job.trace;
        let c = costs.entry(trace as *const Trace).or_insert_with(|| {
            let c = TraceCosts::measure(trace, job.cfg);
            out.static_flows += c.static_flows;
            c
        });
        let r = job.result;
        let kind = job.cfg.kind;
        out.preseed_s += c.preseed_s;
        out.flow_s += c.flow_s;
        out.apply_s += c.apply_s;

        // Records no frame or trace-cache line covered go through
        // `fetch_x86` on the ICache path. TC fetches its trace-cache hits
        // through `fetch_x86` too, on the frame path; the rePLay
        // configurations fetch theirs as whole frames, which
        // `sim.unattributed_s` holds.
        let covered = ratio(
            r.profile.counter("sim.frames_x86") as f64,
            r.x86_retired as f64,
        );
        out.fetch_x86_s +=
            (1.0 - covered) * c.fetch(trace, &job.cfg.timing, FetchPath::ICache);
        if kind == ConfigKind::TraceCache {
            out.fetch_x86_s += covered * c.fetch(trace, &job.cfg.timing, FetchPath::Frame);
        }

        if kind.uses_frames() {
            out.retire_s += c.retire_s;
            let [probe, compile, plan_probe] = c.exec(trace, job.cfg);
            let specialized = r.profile.counter("sim.exec.specialized_hits");
            let fallbacks = r.profile.counter("sim.exec.fallbacks");
            let instances = r.pipeline.frames_fetched + r.pipeline.assert_events;
            out.probe_s += probe * instances.saturating_sub(specialized) as f64;
            out.plan_probe_s += plan_probe * (specialized + fallbacks) as f64;
            out.plan_compile_s += compile * r.profile.counter("sim.exec.plans_compiled") as f64;
        }
    }
    let spans = opt.total();
    out.opt_s = spans[0];
    out.opt_pass_s.copy_from_slice(&spans[1..]);
    out
}
