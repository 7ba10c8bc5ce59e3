//! `report_store`: the `replay report` path (port core model) for every
//! workload's segment 0, run against one artifact-store directory in
//! cycles of a cold phase (empty directory) and a warm phase (a fresh
//! in-memory trace store over the directory the cold phase filled).

use crate::fig6::pinned;
use crate::layers::{self, Job};
use crate::stats::{at_fastest, best_of, median, ratio, tail};
use crate::{Args, Outcome};
use replay_rng::SmallRng;
use replay_sim::experiment::run_specs;
use replay_sim::report::{
    render_report, run_report_model, specs_for_trace_model, strip_store_section,
};
use replay_sim::{simulate, ConfigKind, CoreModel, SimConfig, SimResult, TraceStore};
use replay_store::{digest_bytes, Store};
use replay_trace::{read_trace, trace_digest, workloads, Trace, Workload};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// x86 records per report.
pub const SCALE: usize = 20_000;

/// Records per workload in the set-up warm-up.
const WARMUP_SCALE: usize = 10_000;

/// Set-up repetitions (about 4 s in all); `setup_s` is their median, which
/// a burst of host interference shorter than half that span cannot move.
const SETUP_REPS: usize = 40;

const MODEL: CoreModel = CoreModel::PortAccurate;

/// Store-stripped report digests pinned for [`SCALE`] (`workload digest`).
const PINNED: &str = include_str!("../pinned/report_store.txt");

/// The store's counters, for per-phase deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreCounters {
    hits: u64,
    misses: u64,
    writes: u64,
    bytes_read: u64,
    bytes_written: u64,
    corrupt_evictions: u64,
}

impl StoreCounters {
    pub fn of(s: &Store) -> StoreCounters {
        StoreCounters {
            hits: s.hits(),
            misses: s.misses(),
            writes: s.writes(),
            bytes_read: s.bytes_read(),
            bytes_written: s.bytes_written(),
            corrupt_evictions: s.corrupt_evictions(),
        }
    }

    pub fn since(self, before: StoreCounters) -> StoreCounters {
        StoreCounters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            writes: self.writes - before.writes,
            bytes_read: self.bytes_read - before.bytes_read,
            bytes_written: self.bytes_written - before.bytes_written,
            corrupt_evictions: self.corrupt_evictions - before.corrupt_evictions,
        }
    }

    /// Records the `store.*` counter metrics.
    pub fn record(&self, out: &mut Outcome) {
        out.set("store.hits", self.hits as f64, 1);
        out.set("store.misses", self.misses as f64, 1);
        out.set("store.writes", self.writes as f64, 1);
        out.set("store.bytes_read", self.bytes_read as f64, 1);
        out.set("store.bytes_written", self.bytes_written as f64, 1);
        out.set("store.corrupt_evictions", self.corrupt_evictions as f64, 1);
        out.set(
            "store.hit_ratio",
            ratio(self.hits as f64, (self.hits + self.misses) as f64),
            1,
        );
    }
}

/// One report as the phase produced it.
struct Report {
    trace: Arc<Trace>,
    results: Vec<SimResult>,
    stripped_digest: u64,
    /// Traced runs: seconds per configuration (IC, TC, RP, RPO) and in
    /// `render_report`.
    config_s: [f64; 4],
    render_s: f64,
}

/// Produces one report the way `replay report` does: trace from the trace
/// store, then `run_report_model`. Traced runs call the same three steps
/// `run_report_model` is made of — spec batch, `run_specs`, `render_report`
/// — one configuration at a time, to time each.
fn report(ts: &TraceStore, w: &Workload, traced: bool) -> Report {
    let trace = ts.segment(w, 0, SCALE);
    let (mut config_s, mut render_s) = ([0.0; 4], 0.0);
    let (results, json) = if traced {
        let specs = specs_for_trace_model(&trace, MODEL);
        let mut results = Vec::new();
        for (ci, spec) in specs.iter().enumerate() {
            let t = Instant::now();
            results.extend(run_specs(std::slice::from_ref(spec), 1));
            config_s[ci] = t.elapsed().as_secs_f64();
        }
        let t = Instant::now();
        let json = render_report(&trace.name, trace.len(), MODEL, &results, false);
        render_s = t.elapsed().as_secs_f64();
        (results, json)
    } else {
        run_report_model(&trace, 1, false, MODEL)
    };
    Report {
        stripped_digest: digest_bytes(strip_store_section(&json).as_bytes()),
        trace,
        results,
        config_s,
        render_s,
    }
}

/// Removes every artifact from the store directory.
fn wipe(dir: &Path) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        std::fs::remove_file(&path).map_err(|e| format!("removing {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Loads and re-saves every artifact in the store once, from outside:
/// the store I/O one cold (writes) plus warm (reads) cycle performs.
pub struct StoreIo {
    /// Every artifact loaded once.
    pub load_s: f64,
    /// Every artifact saved once (into a scratch store).
    pub save_s: f64,
    /// The frame-bundle share of `load_s`.
    pub frames_load_s: f64,
    /// The frame-bundle share of `save_s`.
    pub frames_save_s: f64,
    /// `read_trace` over every trace artifact.
    pub decode_s: f64,
    /// `trace_digest` over every trace artifact.
    pub digest_s: f64,
}

pub fn measure_store_io(store: &Store, scratch_dir: &Path) -> Result<StoreIo, String> {
    let scratch = Store::open(scratch_dir).map_err(|e| format!("scratch store: {e}"))?;
    let mut io = StoreIo {
        load_s: 0.0,
        save_s: 0.0,
        frames_load_s: 0.0,
        frames_save_s: 0.0,
        decode_s: 0.0,
        digest_s: 0.0,
    };
    let mut names: Vec<String> = std::fs::read_dir(store.root())
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .collect();
    names.sort();
    for name in names {
        // Artifacts are named `<class>-<key as 16 hex digits>.rpa`.
        let Some((class, key)) = name
            .strip_suffix(".rpa")
            .and_then(|s| s.rsplit_once('-'))
            .and_then(|(c, k)| Some((c.to_string(), u64::from_str_radix(k, 16).ok()?)))
        else {
            continue;
        };
        let t = Instant::now();
        let payload = store
            .load(&class, key)
            .ok_or_else(|| format!("artifact {name} did not load"))?;
        let load = t.elapsed().as_secs_f64();
        let t = Instant::now();
        scratch.save(&class, key, &payload);
        let save = t.elapsed().as_secs_f64();
        io.load_s += load;
        io.save_s += save;
        if class == "frames" {
            io.frames_load_s += load;
            io.frames_save_s += save;
        } else {
            let t = Instant::now();
            let trace = read_trace(&payload[..]).map_err(|e| format!("{name}: {e}"))?;
            io.decode_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(trace_digest(&trace).map_err(|e| e.to_string())?);
            io.digest_s += t.elapsed().as_secs_f64();
        }
    }
    Ok(io)
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("store");
    Store::configure(Some(dir.clone()));
    let store = Store::global().ok_or("the artifact store did not open")?;
    let mut out = Outcome {
        busy_threads: 1,
        ..Outcome::default()
    };
    let ws = workloads::all();

    // Set-up: open the store on an empty directory and warm the process
    // (allocator, page cache, translation) with one small RP simulation
    // per workload — RP never touches the store.
    let mut setup = Vec::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        wipe(&dir)?;
        for w in &ws {
            let trace = w.segment_trace(0, WARMUP_SCALE);
            black_box(simulate(
                &trace,
                &SimConfig::new(ConfigKind::Replay)
                    .without_verify()
                    .with_core_model(MODEL),
            ));
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setup), setup.len());

    let mut rng = SmallRng::seed_from_u64(args.seed);
    // Per operation (cold reports, then warm, by workload): seconds of
    // every repeat, and in traced runs the per-configuration and render
    // split of each repeat.
    let nops = 2 * ws.len();
    let mut op_s: Vec<Vec<f64>> = vec![Vec::new(); nops];
    let mut op_config_s: Vec<[Vec<f64>; 4]> = (0..nops).map(|_| Default::default()).collect();
    let mut op_render_s: Vec<Vec<f64>> = vec![Vec::new(); nops];
    let mut cycles = 0;
    let mut opt = layers::OptSpans::default();
    let mut last_cycle: Option<(Vec<Report>, Vec<Report>, StoreCounters)> = None;
    let mut mismatches = [0u64; 3]; // pinned, warm != cold, warm synthesized or evicted
    let start = Instant::now();
    while cycles == 0 || start.elapsed().as_secs_f64() < args.seconds {
        wipe(&dir)?;
        let mut order: Vec<usize> = (0..ws.len()).collect();
        rng.shuffle(&mut order);
        let before = StoreCounters::of(store);
        let mut phases = Vec::new();
        for phase in 0..2 {
            let ts = TraceStore::with_disk(store);
            let mut reports: Vec<Option<Report>> = (0..ws.len()).map(|_| None).collect();
            for &wi in &order {
                let t = Instant::now();
                let r = report(&ts, &ws[wi], args.trace);
                let op = phase * ws.len() + wi;
                op_s[op].push(t.elapsed().as_secs_f64());
                for (ci, s) in r.config_s.into_iter().enumerate() {
                    op_config_s[op][ci].push(s);
                }
                op_render_s[op].push(r.render_s);
                for (ci, result) in r.results.iter().enumerate() {
                    opt.observe(op * ConfigKind::ALL.len() + ci, result);
                }
                reports[wi] = Some(r);
            }
            let reports: Vec<Report> = reports
                .into_iter()
                .map(|r| r.expect("report ran"))
                .collect();
            if args.pin {
                for (w, r) in ws.iter().zip(&reports) {
                    println!("{} {:016x}", w.name, r.stripped_digest);
                }
                return Ok(out);
            }
            phases.push((reports, ts.generations()));
        }
        cycles += 1;
        let counters = StoreCounters::of(store).since(before);
        let (warm, warm_generations) = phases.pop().expect("warm phase");
        let (cold, _) = phases.pop().expect("cold phase");
        // The warm phase must read everything back: no trace synthesized,
        // no artifact evicted as corrupt.
        let warm_clean = warm_generations == 0 && counters.corrupt_evictions == 0;
        mismatches[2] += !warm_clean as u64;
        for ((w, c), wr) in ws.iter().zip(&cold).zip(&warm) {
            let want = pinned(PINNED, &w.name);
            let cold_ok = want == Some(c.stripped_digest);
            let same = c.stripped_digest == wr.stripped_digest;
            mismatches[0] += !cold_ok as u64 + (want != Some(wr.stripped_digest)) as u64;
            mismatches[1] += !same as u64;
            out.check(cold_ok);
            out.check(want == Some(wr.stripped_digest) && same && warm_clean);
        }
        last_cycle = Some((cold, warm, counters));
    }
    out.notes.push(format!(
        "report_store: {} workloads at scale {SCALE}, port core, {cycles} cold+warm cycles; reports vs pinned: {} mismatched, warm != cold: {}, warm cycles that synthesized or evicted: {}",
        ws.len(),
        mismatches[0],
        mismatches[1],
        mismatches[2]
    ));
    let (cold_s, warm_s) = (best_of(&op_s[..ws.len()]), best_of(&op_s[ws.len()..]));
    out.set("report.cold_s", cold_s, cycles);
    out.set("report.warm_s", warm_s, cycles);
    let records = nops * SCALE * ConfigKind::ALL.len();
    out.set("records_per_s", records as f64 / (cold_s + warm_s), cycles);
    out.notes.push(format!(
        "cold_s {cold_s:.6} warm_s {warm_s:.6}: each report's fastest of {cycles} cycles; records_per_s = {records} records over their sum"
    ));
    let latencies_ms: Vec<f64> = at_fastest(&op_s).iter().map(|s| s * 1e3).collect();
    out.set("p50_ms", median(&latencies_ms), latencies_ms.len());
    let t = tail(&latencies_ms);
    out.set("tail_ms", t.value, t.count);
    out.notes.push(format!(
        "operation = one report, cold or warm, valued at its fastest of {cycles} cycles; tail_ms is p{} ({} of {} samples beyond it)",
        t.pct, t.beyond, t.count
    ));

    let (cold, warm, counters) = last_cycle.expect("at least one cycle");
    let results: Vec<&SimResult> = cold.iter().chain(&warm).flat_map(|r| &r.results).collect();
    layers::note_counters(&mut out, &results);
    if args.trace {
        let io = measure_store_io(store, &work.join("scratch-store"))?;
        let synth_t = Instant::now();
        for w in &ws {
            black_box(w.segment_trace(0, SCALE));
        }
        out.set("trace.synth_s", synth_t.elapsed().as_secs_f64(), 1);
        // Per cycle: each RPO run keys its frame bundle by the trace
        // digest (cold and warm), and each warm trace load re-digests.
        out.set("trace.digest_s", 3.0 * io.digest_s, 1);
        out.set("trace.decode_s", io.decode_s, 1);
        out.set("store.load_s", io.load_s, 1);
        out.set("store.save_s", io.save_s, 1);
        counters.record(&mut out);
        out.set("report.render_s", best_of(&op_render_s), cycles);

        let cfgs: Vec<SimConfig> = specs_for_trace_model(&cold[0].trace, MODEL)
            .into_iter()
            .map(|s| s.cfg)
            .collect();
        let jobs: Vec<Job> = cold
            .iter()
            .chain(&warm)
            .flat_map(|r| {
                r.results.iter().zip(&cfgs).map(|(result, cfg)| Job {
                    trace: &r.trace,
                    cfg,
                    result,
                })
            })
            .collect();
        let measured = layers::measure(&jobs, &opt);
        // Inside simulate: cold RPO runs persist their frame bundles, warm
        // ones load them, and both digest the trace for the bundle key.
        let in_sim_store = io.frames_save_s + io.frames_load_s + 2.0 * io.digest_s;
        let mut config_s = [0.0f64; 4];
        for (ci, s) in config_s.iter_mut().enumerate() {
            let per_op: Vec<Vec<f64>> = op_config_s.iter().map(|c| c[ci].clone()).collect();
            *s = best_of(&per_op);
        }
        layers::record(
            &mut out,
            config_s,
            cycles,
            &measured,
            in_sim_store,
            &results,
        );
    }
    Ok(out)
}
