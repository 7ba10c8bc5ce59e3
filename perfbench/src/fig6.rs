//! `fig6`: the Figure 6 grid — every workload and segment under IC, TC,
//! RP and RPO with the generic core, verification off and no artifact
//! store — repeated for the timed phase. Traces are synthesized in set-up.

use crate::layers::{self, Job};
use crate::stats::{at_fastest, best_of, median, tail};
use crate::{Args, Outcome};
use replay_rng::SmallRng;
use replay_sim::{simulate, ConfigKind, SimConfig, SimResult};
use replay_store::Store;
use replay_trace::{workloads, Trace};
use std::sync::Arc;
use std::time::Instant;

/// x86 records per trace segment.
pub const SCALE: usize = 30_000;

/// Set-up repetitions (about 4 s in all); `setup_s` is their median, which
/// a burst of host interference shorter than half that span cannot move.
const SETUP_REPS: usize = 24;

/// Per-workload row digests pinned for [`SCALE`] (`workload digest`).
const PINNED: &str = include_str!("../pinned/fig6.txt");

/// The grid's trace segments, in workload then segment order.
struct Grid {
    names: Vec<String>,
    /// `(workload index, trace)` per segment.
    traces: Vec<(usize, Arc<Trace>)>,
}

fn synthesize() -> Grid {
    let ws = workloads::all();
    let traces = ws
        .iter()
        .enumerate()
        .flat_map(|(wi, w)| (0..w.segments).map(move |s| (wi, Arc::new(w.segment_trace(s, SCALE)))))
        .collect();
    Grid {
        names: ws.iter().map(|w| w.name.clone()).collect(),
        traces,
    }
}

/// Looks up a pinned digest in a `name digest` listing.
pub fn pinned(listing: &str, name: &str) -> Option<u64> {
    listing.lines().find_map(|l| {
        let (n, d) = l.split_once(' ')?;
        (n == name).then(|| u64::from_str_radix(d.trim(), 16).ok())?
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    // The grid runs without the artifact store, whatever the environment.
    Store::configure(None);
    let mut out = Outcome {
        busy_threads: 1,
        ..Outcome::default()
    };

    let mut setup = Vec::new();
    let mut grid = None;
    for _ in 0..SETUP_REPS {
        // The previous repetition's grid is freed outside the timing.
        drop(grid.take());
        let t = Instant::now();
        grid = Some(synthesize());
        setup.push(t.elapsed().as_secs_f64());
    }
    let grid = grid.expect("at least one set-up");
    out.set("setup_s", median(&setup), setup.len());
    out.set("trace.synth_s", median(&setup), setup.len());

    let cfgs: Vec<SimConfig> = ConfigKind::ALL
        .into_iter()
        .map(|k| SimConfig::new(k).without_verify())
        .collect();
    // Job j simulates trace j / 4 under configuration j % 4.
    let njobs = grid.traces.len() * cfgs.len();
    let records_per_pass: usize = grid.traces.iter().map(|(_, t)| t.len() * cfgs.len()).sum();

    let mut rng = SmallRng::seed_from_u64(args.seed);
    // Seconds of every run of every job, by job.
    let mut job_s: Vec<Vec<f64>> = vec![Vec::new(); njobs];
    let mut passes = 0;
    let mut opt = layers::OptSpans::default();
    let mut last: Vec<Option<SimResult>> = Vec::new();
    let mut row_failures = 0;
    let start = Instant::now();
    while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
        // The seed orders the jobs; the rows must not depend on it.
        let mut order: Vec<usize> = (0..njobs).collect();
        rng.shuffle(&mut order);
        let mut results: Vec<Option<SimResult>> = (0..njobs).map(|_| None).collect();
        for j in order {
            let (trace, ci) = (&grid.traces[j / cfgs.len()].1, j % cfgs.len());
            let t = Instant::now();
            let r = simulate(trace, &cfgs[ci]);
            job_s[j].push(t.elapsed().as_secs_f64());
            opt.observe(j, &r);
            results[j] = Some(r);
        }
        passes += 1;

        for (wi, name) in grid.names.iter().enumerate() {
            let rows: Vec<SimResult> = (0..cfgs.len())
                .map(|ci| {
                    let mut merged: Option<SimResult> = None;
                    for (ti, (w, _)) in grid.traces.iter().enumerate() {
                        if *w != wi {
                            continue;
                        }
                        let r = results[ti * cfgs.len() + ci].as_ref().expect("job ran");
                        match &mut merged {
                            Some(m) => m.merge(r),
                            None => merged = Some(r.clone()),
                        }
                    }
                    merged.expect("workload has segments")
                })
                .collect();
            // A row is every deterministic number of the workload's four
            // configurations, merged over its segments in order.
            let digest = layers::digest(&rows);
            if args.pin {
                println!("{name} {digest:016x}");
                continue;
            }
            let jobs_in_row = grid.traces.iter().filter(|(w, _)| *w == wi).count() * cfgs.len();
            let ok = pinned(PINNED, name) == Some(digest);
            row_failures += !ok as u64;
            for _ in 0..jobs_in_row {
                out.check(ok);
            }
        }
        last = results;
        if args.pin {
            return Ok(out);
        }
    }
    out.notes.push(format!(
        "fig6 grid: {} workloads, {} segments x {} configs at scale {SCALE}, {passes} passes; rows vs pinned digests: {row_failures} mismatched",
        grid.names.len(),
        grid.traces.len(),
        cfgs.len(),
    ));

    let grid_s = best_of(&job_s);
    out.set("records_per_s", records_per_pass as f64 / grid_s, passes);
    out.notes.push(format!(
        "records_per_s: {records_per_pass} records per pass over {grid_s:.6} s, each job's fastest of {passes} runs"
    ));
    let latencies_ms: Vec<f64> = at_fastest(&job_s).iter().map(|s| s * 1e3).collect();
    out.set("p50_ms", median(&latencies_ms), latencies_ms.len());
    let t = tail(&latencies_ms);
    out.set("tail_ms", t.value, t.count);
    out.notes.push(format!(
        "operation = one simulate() job, valued at its fastest of {passes} runs; tail_ms is p{} ({} of {} samples beyond it)",
        t.pct, t.beyond, t.count
    ));

    let results: Vec<SimResult> = last.into_iter().map(|r| r.expect("job ran")).collect();
    let refs: Vec<&SimResult> = results.iter().collect();
    layers::note_counters(&mut out, &refs);
    if args.trace {
        let jobs: Vec<Job> = results
            .iter()
            .enumerate()
            .map(|(j, result)| Job {
                trace: &grid.traces[j / cfgs.len()].1,
                cfg: &cfgs[j % cfgs.len()],
                result,
            })
            .collect();
        let measured = layers::measure(&jobs, &opt);
        let mut config_s = [0.0f64; 4];
        for (ci, s) in config_s.iter_mut().enumerate() {
            *s = best_of(
                &job_s[ci..]
                    .iter()
                    .step_by(cfgs.len())
                    .cloned()
                    .collect::<Vec<_>>(),
            );
        }
        layers::record(&mut out, config_s, passes, &measured, 0.0, &refs);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_listing_lookup() {
        let listing = "gzip 00000000000000ff\nvortex 0123456789abcdef\n";
        assert_eq!(pinned(listing, "gzip"), Some(0xff));
        assert_eq!(pinned(listing, "vortex"), Some(0x0123_4567_89ab_cdef));
        assert_eq!(pinned(listing, "eon"), None);
    }

    #[test]
    fn every_workload_is_pinned_at_this_scale() {
        for w in workloads::all() {
            assert!(pinned(PINNED, &w.name).is_some(), "{} not pinned", w.name);
        }
    }
}
