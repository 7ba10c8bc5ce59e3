//! The repository benchmark: one binary running every workload.
//!
//! ```text
//! replay-perfbench --workload fig6|report_store|serve|all --seed N
//!                  --seconds S --trace 0|1 [--out FILE] [--pin]
//! ```
//!
//! Runs one workload for `S` seconds of timed work after its set-up,
//! checks every output, and prints a human summary followed by one JSON
//! result line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. `all` runs the three workloads in turn, each
//! in its own process (the artifact store is process-wide). See README.md.

mod fig6;
mod host;
mod layers;
mod report_store;
mod serve;
mod stats;

use stats::{json_num, json_str, Metrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Every workload, in the order `all` runs them.
pub const WORKLOADS: [&str; 3] = ["fig6", "report_store", "serve"];

/// End-to-end metrics (reported with `--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (reported with `--trace 1`), with units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 65] = [
    ("sim.ic_s", "s"),
    ("sim.tc_s", "s"),
    ("sim.rp_s", "s"),
    ("sim.rpo_s", "s"),
    ("sim.unattributed_s", "s"),
    ("trace.synth_s", "s"),
    ("trace.digest_s", "s"),
    ("trace.decode_s", "s"),
    ("inject.preseed_s", "s"),
    ("inject.flow_s", "s"),
    ("inject.apply_s", "s"),
    ("inject.static_flows", "count"),
    ("frame.retire_s", "s"),
    ("frame.built", "count"),
    ("frame_cache.hits", "count"),
    ("frame_cache.misses", "count"),
    ("frame_cache.evictions", "count"),
    ("frame_cache.invalidations", "count"),
    ("frame.coverage", "frac"),
    ("opt.s", "s"),
    ("opt.nop_s", "s"),
    ("opt.cp_s", "s"),
    ("opt.ra_s", "s"),
    ("opt.asst_s", "s"),
    ("opt.mem_s", "s"),
    ("opt.cse_s", "s"),
    ("opt.dce_s", "s"),
    ("opt.frames", "count"),
    ("opt.removed_frac", "frac"),
    ("exec.probe_s", "s"),
    ("exec.plan_compile_s", "s"),
    ("exec.plan_probe_s", "s"),
    ("exec.specialized_hits", "count"),
    ("exec.fallbacks", "count"),
    ("exec.plans_compiled", "count"),
    ("exec.completed_frac", "frac"),
    ("timing.fetch_x86_s", "s"),
    ("timing.cycles", "count"),
    ("timing.retired_uops", "count"),
    ("timing.mispredicts", "count"),
    ("store.load_s", "s"),
    ("store.save_s", "s"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.writes", "count"),
    ("store.bytes_read", "bytes"),
    ("store.bytes_written", "bytes"),
    ("store.corrupt_evictions", "count"),
    ("store.hit_ratio", "frac"),
    ("report.render_s", "s"),
    ("report.cold_s", "s"),
    ("report.warm_s", "s"),
    ("serve.server_ms_p50", "ms"),
    ("serve.server_ms_p99", "ms"),
    ("serve.wire_ms_p50", "ms"),
    ("serve.simulate_ms_p50", "ms"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("serve.queue_depth_mean", "count"),
    ("serve.deduped", "count"),
    ("serve.shed", "count"),
    ("serve.deadline", "count"),
    ("serve.inline_hits", "count"),
    ("serve.inline_evictions", "count"),
    ("serve.client_retries", "count"),
];

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Per-layer (traced) run.
    pub trace: bool,
    /// Also write the full record (host, sample counts, checks) here.
    pub out: Option<PathBuf>,
    /// Print the output digests to pin instead of checking against them.
    pub pin: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: None,
        pin: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--pin" {
            a.pin = true;
            continue;
        }
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => a.workload = val.clone(),
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed {val:?}"))?,
            "--seconds" => {
                a.seconds = val
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {val:?}"))?
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val:?} (want 0 or 1)")),
                }
            }
            "--out" => a.out = Some(PathBuf::from(val)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.workload != "all" && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if a.seconds == 0.0 {
        return Err("--seconds is required".to_string());
    }
    Ok(a)
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulation jobs, reports, requests).
    pub attempted: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    /// Every metric value with its sample count, by name.
    pub values: BTreeMap<&'static str, (f64, usize)>,
    /// Human-readable notes (checks, percentile labels, digests).
    pub notes: Vec<String>,
    /// Threads the workload keeps busy at once (for the degraded flag).
    pub busy_threads: usize,
}

impl Outcome {
    /// Records a metric value summarizing `samples` samples.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.values.insert(name, (value, samples));
    }

    /// Counts one checked operation, failed or not.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Selects the metrics of one list, in list order; absent ones are 0.
    fn metrics(&self, list: &[(&'static str, &'static str)]) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in list {
            let (v, n) = self.values.get(name).copied().unwrap_or((0.0, 0));
            m.add(name, v, unit, n);
        }
        m
    }
}

/// A scratch directory inside the current (checkout) directory, removed
/// when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(workload: &str) -> Result<WorkDir, String> {
        let dir =
            PathBuf::from(".perfbench-work").join(format!("{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while a
        // concurrent run still owns a sibling).
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

fn run_one(args: &Args) -> Result<(), String> {
    let work = WorkDir::create(&args.workload)?;
    let started_load = host::Host::probe(1).loadavg;
    let mut out = match args.workload.as_str() {
        "fig6" => fig6::run(args)?,
        "report_store" => report_store::run(args, &work.0)?,
        "serve" => serve::run(args, &work.0)?,
        other => return Err(format!("unknown workload {other}")),
    };
    drop(work);
    out.set("peak_rss_mb", host::peak_rss_mb(), 1);
    if args.pin {
        return Ok(());
    }
    let mut host = host::Host::probe(out.busy_threads.max(1));
    host.loadavg = started_load;

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = out.metrics(list);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("  {note}");
    }
    for m in &metrics.0 {
        println!(
            "  {:<26} {:>16} {:<6} n={}",
            m.name,
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    println!(
        "  failed_frac {} ({} of {} operations)",
        stats::ratio(out.failed as f64, out.attempted as f64),
        out.failed,
        out.attempted
    );
    println!("host: {}", host.to_json());
    if let Some(path) = &args.out {
        let record = record_json(args, &host, &out, &metrics);
        std::fs::write(path, record).map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    println!(
        "{}",
        stats::result_line(out.attempted, out.failed, &metrics)
    );
    Ok(())
}

/// The full record written by `--out`: the result plus host, sample
/// counts and notes.
fn record_json(args: &Args, host: &host::Host, out: &Outcome, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"replay-perfbench/v1\",\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"host\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_frac\": {},\n  \"metrics\": {{",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        args.trace as u8,
        host.to_json(),
        out.attempted,
        out.failed,
        json_num(stats::ratio(out.failed as f64, out.attempted as f64)),
    );
    for (i, m) in metrics.0.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        s.push_str(&format!(
            "    {}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit),
            m.samples
        ));
    }
    s.push_str("\n  },\n  \"notes\": [");
    for (i, n) in out.notes.iter().enumerate() {
        s.push_str(if i == 0 { "\n    " } else { ",\n    " });
        s.push_str(&json_str(n));
    }
    s.push_str("\n  ]\n}\n");
    s
}

/// Runs every workload, each in a child process of this binary (the
/// artifact store is configured once per process).
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating self: {e}"))?;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(format!("{}.{w}.json", out.display()));
        }
        if args.pin {
            cmd.arg("--pin");
        }
        let status = cmd.status().map_err(|e| format!("running {w}: {e}"))?;
        if !status.success() {
            return Err(format!("workload {w} failed ({status})"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::json::{self, Value};

    fn repo_file(rel: &str) -> String {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(bench: &Value, list: &str) -> Vec<(String, String)> {
        bench
            .get(list)
            .unwrap()
            .as_arr()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let bench = json::parse(&repo_file("../BENCHMARK.json")).unwrap();
        assert_eq!(declared(&bench, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&bench, "per_layer"), owned(&PER_LAYER));
        let names: Vec<&str> = bench
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    #[test]
    fn committed_results_parse_against_benchmark_json() {
        let bench = json::parse(&repo_file("../BENCHMARK.json")).unwrap();
        let results = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results");
        let mut seen = 0;
        for entry in std::fs::read_dir(&results).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let rec = json::parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let list = match rec.get("trace") {
                Some(Value::Num(t)) if *t == 1.0 => "per_layer",
                _ => "end_to_end",
            };
            let got: Vec<(String, String)> = rec
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(n, m)| {
                    (
                        n.clone(),
                        m.get("unit").unwrap().as_str().unwrap().to_string(),
                    )
                })
                .collect();
            let mut want = declared(&bench, list);
            want.sort();
            assert_eq!(got, want, "{}", path.display());
            assert_eq!(
                rec.get("failed"),
                Some(&Value::Num(0.0)),
                "{}",
                path.display()
            );
            for key in ["nproc", "available_jobs", "loadavg", "degraded"] {
                assert!(
                    rec.get("host").unwrap().get(key).is_some(),
                    "{}: host.{key}",
                    path.display()
                );
            }
            seen += 1;
        }
        assert!(
            seen >= 2 * WORKLOADS.len(),
            "expected traced and untraced results"
        );
    }

    #[test]
    fn outcome_reports_every_listed_metric() {
        let mut o = Outcome::default();
        o.set("setup_s", 1.5, 3);
        let m = o.metrics(&END_TO_END);
        assert_eq!(m.0.len(), END_TO_END.len());
        assert_eq!(m.get("setup_s").unwrap().value, 1.5);
        assert_eq!(m.get("p50_ms").unwrap().value, 0.0);
    }

    #[test]
    fn args_are_validated() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload fig6 --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload fig6 --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload fig6 --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload fig6 --seed 1 --seconds 1 --bogus 2").is_err());
    }
}
