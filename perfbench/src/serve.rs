//! `serve`: an in-process `Server` (event-loop front, one simulation
//! worker, artifact store in a fresh directory) under a closed loop of
//! [`CLIENTS`] connections — each sends its next request only after the
//! last reply, as `replay submit` callers do. The seeded request mix draws
//! named workloads at three small scales plus a quarter inline-trace
//! payloads from a fixed set; keys repeat, so later requests hit warm
//! store artifacts, batch dedupe and the inline-trace cache.
//!
//! The end-to-end figures are what the clients saw: records served over
//! the loop's elapsed time, and the median and tail latency of every
//! request, submit to full response, each key's cold first request
//! included.

use crate::layers::{self, Job};
use crate::report_store::{measure_store_io, StoreCounters};
use crate::stats::{median, tail};
use crate::{Args, Outcome};
use replay_obs::{Hist, Metric, Profile};
use replay_rng::SmallRng;
use replay_serve::proto::{read_frame, write_frame, PeerFetch};
use replay_serve::{
    Client, ClientConfig, ClientError, Request, Response, Server, ServerConfig, Source, Status,
};
use replay_sim::experiment::run_specs;
use replay_sim::report::{render_report, run_report, specs_for_trace, strip_store_section};
use replay_sim::{simulate, ConfigKind, CoreModel, SimConfig, SimResult, TraceStore};
use replay_store::{digest_bytes, Store};
use replay_trace::{read_trace, trace_digest, workloads, write_trace, Trace, Workload};
use std::collections::HashMap;
use std::hint::black_box;
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections (at most the host's two cores).
pub const CLIENTS: usize = 2;

/// Scales named-workload requests draw from.
pub const SCALES: [usize; 3] = [2_000, 4_000, 6_000];

/// Share of requests that ship an inline trace.
pub const INLINE_SHARE: f64 = 0.25;

/// Size of the fixed inline-trace set, and each trace's length.
const INLINE_TRACES: usize = 4;
const INLINE_SCALE: usize = 3_000;

/// Requests drawn per run; far more than a run can send.
const MIX_LEN: usize = 50_000;

/// Records per workload in the set-up warm-up.
const WARMUP_SCALE: usize = 10_000;

/// Set-up repetitions (about 4 s in all); `setup_s` is their median, which
/// a burst of host interference shorter than half that span cannot move.
const SETUP_REPS: usize = 36;

/// Attempts per request before it counts as failed.
const ATTEMPTS: u32 = 8;

/// Traced runs: warm simulations per reference configuration (fastest
/// kept) and round trips of the wire probe.
const WARM_REPEATS: usize = 2;
const WIRE_PROBES: usize = 200;

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pick {
    /// Workload `workload` (index into the suite) at `scale` records.
    Named { workload: usize, scale: usize },
    /// Inline trace `0..INLINE_TRACES` of the fixed set.
    Inline(usize),
}

/// The seeded request mix: the same seed always draws the same sequence.
pub fn mix(seed: u64, len: usize, workloads: usize) -> Vec<Pick> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7365_7276_656d_6978); // "servemix"
    (0..len)
        .map(|_| {
            if rng.random_bool(INLINE_SHARE) {
                Pick::Inline(rng.random_range(0..INLINE_TRACES))
            } else {
                Pick::Named {
                    workload: rng.random_range(0..workloads),
                    scale: SCALES[rng.random_range(0..SCALES.len())],
                }
            }
        })
        .collect()
}

/// The fixed inline-trace set: the second segment of the first
/// multi-segment workloads, serialized as `replay gen` would.
fn inline_set(ws: &[Workload]) -> Result<Vec<Vec<u8>>, String> {
    let set: Vec<Vec<u8>> = ws
        .iter()
        .filter(|w| w.segments > 1)
        .take(INLINE_TRACES)
        .map(|w| {
            let mut bytes = Vec::new();
            write_trace(&mut bytes, &w.segment_trace(1, INLINE_SCALE)).map(|()| bytes)
        })
        .collect::<Result<_, _>>()
        .map_err(|e| format!("serializing an inline trace: {e}"))?;
    if set.len() != INLINE_TRACES {
        return Err("too few multi-segment workloads for the inline set".to_string());
    }
    Ok(set)
}

/// A percentile of a log2-bucketed histogram, interpolated linearly
/// within the bucket holding the rank and clamped to the observed range.
pub fn hist_percentile(h: &Hist, pct: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let rank = ((pct * n as f64) / 100.0).ceil().max(1.0);
    let mut below = 0.0;
    for (lo, count) in h.nonzero_buckets() {
        let count = count as f64;
        if below + count >= rank {
            let (lo, hi) = (lo as f64, if lo == 0 { 1.0 } else { 2.0 * lo as f64 });
            let v = lo + (hi - lo) * (rank - below) / count;
            return v.clamp(h.min() as f64, h.max() as f64);
        }
        below += count;
    }
    h.max() as f64
}

fn hist<'a>(p: &'a Profile, name: &str) -> Option<&'a Hist> {
    match p.get(name) {
        Some(Metric::Hist(h)) => Some(h),
        _ => None,
    }
}

/// Round trips of a message the event-loop front answers itself, on the
/// idle server: connect, one frame each way, and the codec — the wire
/// part of a request's latency. (A peer fetch sent to a server outside
/// cluster mode is refused on the front, never queued.)
fn wire_probe(addr: &str) -> Result<Vec<f64>, String> {
    let probe = PeerFetch {
        class: "trace".to_string(),
        key: 0,
    }
    .encode();
    (0..WIRE_PROBES)
        .map(|_| {
            let t = Instant::now();
            let mut conn = TcpStream::connect(addr).map_err(|e| format!("wire probe: {e}"))?;
            conn.set_nodelay(true).map_err(|e| e.to_string())?;
            write_frame(&mut conn, &probe).map_err(|e| format!("wire probe: {e}"))?;
            let reply = read_frame(&mut conn).map_err(|e| format!("wire probe: {e}"))?;
            let resp = Response::decode(&reply).map_err(|e| format!("wire probe: {e}"))?;
            if resp.status != Status::BadRequest {
                return Err(format!("wire probe answered {}", resp.status));
            }
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// Removes every frame bundle from the store directory, so the next RPO
/// run of each trace optimizes its frames and saves the bundle again.
fn drop_frame_bundles(root: &Path) -> Result<(), String> {
    let entries =
        std::fs::read_dir(root).map_err(|e| format!("listing {}: {e}", root.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let bundle = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("frames-"));
        if bundle {
            std::fs::remove_file(&path)
                .map_err(|e| format!("removing {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// One answered (or abandoned) request.
struct Done {
    pick: Pick,
    ms: f64,
    /// Digest of the store-stripped body of an Ok response.
    body: Option<u64>,
}

pub fn run(args: &Args, work: &Path) -> Result<Outcome, String> {
    let dir = work.join("store");
    Store::configure(Some(dir.clone()));
    let store = Store::global().ok_or("the artifact store did not open")?;
    let mut out = Outcome {
        busy_threads: CLIENTS,
        ..Outcome::default()
    };
    let ws = workloads::all();

    // Set-up: the inputs (inline-trace set and request mix) plus a warm-up
    // of one small RP simulation per workload, then the server start.
    let mut setup = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let inline = inline_set(&ws)?;
        let picks = mix(args.seed, MIX_LEN, ws.len());
        for w in &ws {
            let trace = w.segment_trace(0, WARMUP_SCALE);
            black_box(simulate(
                &trace,
                &SimConfig::new(ConfigKind::Replay).without_verify(),
            ));
        }
        inputs = Some((inline, picks));
        setup.push(t.elapsed().as_secs_f64());
    }
    let (inline, picks) = inputs.expect("at least one set-up");
    let t = Instant::now();
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            jobs: 1,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("binding the server: {e}"))?
    .with_trace_store(Arc::new(TraceStore::with_disk(store)));
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let stop = server.shutdown_flag();
    let server_start_s = t.elapsed().as_secs_f64();
    out.set("setup_s", median(&setup) + server_start_s, setup.len());

    let request = |pick: Pick| Request {
        source: match pick {
            Pick::Named { workload, .. } => Source::Workload(ws[workload].name.clone()),
            Pick::Inline(i) => Source::TraceBytes(inline[i].clone()),
        },
        scale: match pick {
            Pick::Named { scale, .. } => scale as u64,
            Pick::Inline(_) => INLINE_SCALE as u64,
        },
        timings: false,
        deadline_ms: 0,
        relayed: false,
    };

    let before = StoreCounters::of(store);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(args.seconds);
    let (clients, elapsed, wire, stats) = std::thread::scope(|s| {
        let server = s.spawn(|| server.run());
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (addr, next, picks, request) = (&addr, &next, &picks, &request);
                s.spawn(move || {
                    let mut client = Client::new(ClientConfig {
                        retries: 0,
                        seed: args.seed ^ c as u64,
                        ..ClientConfig::for_addr(addr.clone())
                    });
                    let (mut done, mut retries) = (Vec::new(), 0u64);
                    while start.elapsed() < deadline {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&pick) = picks.get(i) else { break };
                        let req = request(pick);
                        let t = Instant::now();
                        let mut attempt = 1;
                        let resp = loop {
                            match client.submit(&req) {
                                Err(ClientError::Exhausted { .. }) if attempt < ATTEMPTS => {
                                    retries += 1;
                                    std::thread::sleep(Duration::from_millis(5 << attempt));
                                    attempt += 1;
                                }
                                r => break r,
                            }
                        };
                        done.push(Done {
                            pick,
                            ms: t.elapsed().as_secs_f64() * 1e3,
                            body: resp.ok().filter(|r| r.status == Status::Ok).map(|r| {
                                digest_bytes(
                                    strip_store_section(&String::from_utf8_lossy(&r.body))
                                        .as_bytes(),
                                )
                            }),
                        });
                    }
                    (done, retries)
                })
            })
            .collect();
        let clients: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
        let elapsed = start.elapsed().as_secs_f64();
        let wire = if args.trace {
            wire_probe(&addr)
        } else {
            Ok(Vec::new())
        };
        // Stop the server before reporting a client failure, or the scope
        // would wait on it forever.
        stop.store(true, Ordering::SeqCst);
        (clients, elapsed, wire, server.join())
    });
    let wire_ms = wire?;
    let profile = stats.map_err(|_| "the server thread panicked")?.profile;
    let (mut done, mut retries) = (Vec::new(), 0);
    for c in clients {
        let (d, r) = c.map_err(|_| "a client thread panicked")?;
        done.extend(d);
        retries += r;
    }
    let counters = StoreCounters::of(store).since(before);

    // Every served body must equal a local report for its key. Traced runs
    // simulate each key first against a store emptied of frame bundles, as
    // the server's first request of that key ran (optimizer and bundle
    // save included), then warm, as its later requests ran.
    if args.trace {
        drop_frame_bundles(store.root())?;
    }
    let mut distinct: Vec<Pick> = done.iter().map(|d| d.pick).collect();
    distinct.sort();
    distinct.dedup();
    struct Reference {
        trace: Arc<Trace>,
        results: Vec<SimResult>,
        digest: u64,
        /// Traced runs: milliseconds in `run_specs` over the four
        /// configurations, cold and warm.
        cold_ms: f64,
        warm_ms: f64,
    }
    let mut refs: HashMap<Pick, Reference> = HashMap::new();
    let mut config_s = [0.0f64; 4];
    let mut opt = layers::OptSpans::default();
    let (mut render_s, mut synth_s, mut decode_s, mut digest_s) = (0.0, 0.0, 0.0, 0.0);
    for &pick in &distinct {
        let t = Instant::now();
        let trace = Arc::new(match pick {
            Pick::Named { workload, scale } => ws[workload].segment_trace(0, scale),
            Pick::Inline(i) => {
                read_trace(&inline[i][..]).map_err(|e| format!("inline trace {i}: {e}"))?
            }
        });
        match pick {
            Pick::Named { .. } => synth_s += t.elapsed().as_secs_f64(),
            Pick::Inline(_) => decode_s += t.elapsed().as_secs_f64(),
        }
        let (results, json, cold_ms, warm_ms) = if args.trace {
            // `run_report` is exactly these steps; split to time each.
            let mut results = Vec::new();
            let (mut cold, mut warm) = (0.0, 0.0);
            for (ci, spec) in specs_for_trace(&trace).iter().enumerate() {
                let t = Instant::now();
                let r = run_specs(std::slice::from_ref(spec), 1);
                let s = t.elapsed().as_secs_f64();
                config_s[ci] += s;
                cold += s;
                opt.observe(refs.len() * ConfigKind::ALL.len() + ci, &r[0]);
                results.extend(r);
                let mut fastest = f64::INFINITY;
                for _ in 0..WARM_REPEATS {
                    let t = Instant::now();
                    black_box(run_specs(std::slice::from_ref(spec), 1));
                    fastest = fastest.min(t.elapsed().as_secs_f64());
                }
                warm += fastest;
            }
            let t = Instant::now();
            let json = render_report(
                &trace.name,
                trace.len(),
                CoreModel::Generic,
                &results,
                false,
            );
            render_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            black_box(trace_digest(&trace).map_err(|e| e.to_string())?);
            digest_s += t.elapsed().as_secs_f64();
            (results, json, cold * 1e3, warm * 1e3)
        } else {
            let (results, json) = run_report(&trace, 1, false);
            (results, json, 0.0, 0.0)
        };
        refs.insert(
            pick,
            Reference {
                digest: digest_bytes(strip_store_section(&json).as_bytes()),
                trace,
                results,
                cold_ms,
                warm_ms,
            },
        );
    }
    let mut mismatched = 0;
    let mut per_key: HashMap<Pick, usize> = HashMap::new();
    for d in &done {
        let ok = d.body == Some(refs[&d.pick].digest);
        mismatched += !ok as u64;
        out.check(ok);
        *per_key.entry(d.pick).or_default() += 1;
    }

    // What the clients saw: every request, cold or warm, as measured.
    let lat: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let records: usize = done
        .iter()
        .map(|d| refs[&d.pick].trace.len() * ConfigKind::ALL.len())
        .sum();
    out.set("records_per_s", records as f64 / elapsed, done.len());
    out.set("p50_ms", median(&lat), lat.len());
    let t = tail(&lat);
    out.set("tail_ms", t.value, t.count);
    out.notes.push(format!(
        "serve: closed loop of {CLIENTS} clients for {elapsed:.3} s, {} requests ({:.3} rps) over {} distinct keys; bodies vs local reports: {mismatched} mismatched",
        done.len(),
        done.len() as f64 / elapsed,
        distinct.len()
    ));
    out.notes.push(format!(
        "operation = one request, submit to full response; tail_ms is p{} ({} of {} samples beyond it)",
        t.pct, t.beyond, t.count
    ));
    let results: Vec<&SimResult> = distinct.iter().flat_map(|p| &refs[p].results).collect();
    layers::note_counters(&mut out, &results);

    if args.trace {
        let server_p50 =
            hist(&profile, "serve.latency_ms").map_or(0.0, |h| hist_percentile(h, 50.0));
        let server_p99 =
            hist(&profile, "serve.latency_ms").map_or(0.0, |h| hist_percentile(h, 99.0));
        out.set("serve.server_ms_p50", server_p50, done.len());
        out.set("serve.server_ms_p99", server_p99, done.len());
        out.set("serve.wire_ms_p50", median(&wire_ms), wire_ms.len());
        // Each key's first request simulated cold, its later ones warm.
        let sim_ms: Vec<f64> = per_key
            .iter()
            .flat_map(|(p, &n)| {
                let r = &refs[p];
                std::iter::once(r.cold_ms).chain(std::iter::repeat_n(r.warm_ms, n - 1))
            })
            .collect();
        out.set("serve.simulate_ms_p50", median(&sim_ms), sim_ms.len());
        let hist_mean =
            |name| hist(&profile, name).map_or(0.0, |h| h.sum() as f64 / h.count().max(1) as f64);
        out.set("serve.batches", profile.counter("serve.batches") as f64, 1);
        out.set("serve.batch_size_mean", hist_mean("serve.batch_size"), 1);
        out.set("serve.queue_depth_mean", hist_mean("serve.queue_depth"), 1);
        out.set(
            "serve.deduped",
            profile.counter("serve.requests.deduped") as f64,
            1,
        );
        out.set(
            "serve.shed",
            (profile.counter("serve.shed.conn") + profile.counter("serve.shed.work")) as f64,
            1,
        );
        out.set(
            "serve.deadline",
            profile.counter("serve.requests.deadline") as f64,
            1,
        );
        out.set(
            "serve.inline_hits",
            profile.counter("serve.inline_trace.hits") as f64,
            1,
        );
        out.set(
            "serve.inline_evictions",
            profile.counter("serve.inline_trace.evictions") as f64,
            1,
        );
        out.set("serve.client_retries", retries as f64, 1);

        let io = measure_store_io(store, &work.join("scratch-store"))?;
        out.set("trace.synth_s", synth_s, 1);
        out.set("trace.decode_s", decode_s, 1);
        out.set("trace.digest_s", digest_s, 1);
        out.set("store.load_s", io.load_s, 1);
        out.set("store.save_s", io.save_s, 1);
        counters.record(&mut out);
        out.set("report.render_s", render_s, 1);

        let cfgs: Vec<SimConfig> = ConfigKind::ALL
            .into_iter()
            .map(|k| SimConfig::new(k).without_verify())
            .collect();
        let jobs: Vec<Job> = distinct
            .iter()
            .flat_map(|p| {
                let r = &refs[p];
                r.results.iter().zip(&cfgs).map(|(result, cfg)| Job {
                    trace: &r.trace,
                    cfg,
                    result,
                })
            })
            .collect();
        let measured = layers::measure(&jobs, &opt);
        // Each cold RPO reference run keys its frame bundle by the trace
        // digest and saves the bundle to the store.
        let in_sim_store = io.frames_save_s + digest_s;
        layers::record(&mut out, config_s, 1, &measured, in_sim_store, &results);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded() {
        let a = mix(7, 2_000, 14);
        assert_eq!(a, mix(7, 2_000, 14), "same seed, same mix");
        assert_ne!(a, mix(8, 2_000, 14), "another seed, another mix");
        let inline = a.iter().filter(|p| matches!(p, Pick::Inline(_))).count();
        assert!(
            (400..600).contains(&inline),
            "about a quarter inline: {inline}"
        );
        for p in &a {
            match *p {
                Pick::Named { workload, scale } => {
                    assert!(workload < 14 && SCALES.contains(&scale));
                }
                Pick::Inline(i) => assert!(i < INLINE_TRACES),
            }
        }
        // Keys repeat, so caches are exercised.
        let mut keys = a.clone();
        keys.sort();
        keys.dedup();
        assert!(keys.len() <= 14 * SCALES.len() + INLINE_TRACES);
    }

    #[test]
    fn hist_percentile_interpolates_within_buckets() {
        let mut h = Hist::default();
        for v in [20u64, 21, 22, 23, 40] {
            h.record(v);
        }
        // Rank 3 of 5 lands in bucket [16, 32) holding 4 samples.
        assert_eq!(hist_percentile(&h, 50.0), 16.0 + 16.0 * 3.0 / 4.0);
        // The top rank is clamped to the largest sample.
        assert_eq!(hist_percentile(&h, 99.0), 40.0);
        assert_eq!(hist_percentile(&Hist::default(), 50.0), 0.0);
    }
}
