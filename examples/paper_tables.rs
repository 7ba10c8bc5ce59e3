//! Regenerates every number pinned in `EXPERIMENTS.md` — Table 3
//! (uop/load removal), Figure 6 (IPC by configuration), the Figures 7/8
//! Frame-cycle reduction headline, Figures 9 and 10, the pass-profit
//! ranking, the design-choice sweeps, and the §5.1.1 uop/x86 ratio —
//! using only the workspace crates, fully offline.
//!
//! ```text
//! cargo run --release -p replay-examples --bin paper_tables [SCALE] [--core-model MODEL]
//! cargo run --release -p replay-examples --bin paper_tables models [SCALE]
//! cargo run --release -p replay-examples --bin paper_tables sweeps
//! ```
//!
//! `SCALE` defaults to 30 000 x86 instructions per segment, the scale at
//! which `EXPERIMENTS.md` is pinned. `--core-model port` reruns every
//! table on the port-accurate core model; the `models` mode prints the
//! dual-model seven-pass profit ranking pinned in EXPERIMENTS.md; the
//! `sweeps` mode prints the design-choice sweep points and the §5.1.1
//! translator expansion ratio.

use replay_sim::experiment::{
    ablation, cycle_breakdown, gain_pct, grid, ipc_comparison, pass_profit, removal_averages,
    removal_table, scope_comparison, ABLATION_APPS, ABLATION_LABELS, LEAVE_ONE_OUT, PAPER_COLUMNS,
    PROFIT_PASSES,
};
use replay_sim::{out, outln, parallel, simulate, ConfigKind, CoreModel, SimConfig};
use replay_timing::CycleBin;
use replay_trace::{workloads, Suite, Workload};
use replay_x86::Interp;
use std::process::ExitCode;

/// The five Figure 10 applications ([`ABLATION_APPS`]), resolved.
fn ablation_apps() -> Vec<Workload> {
    ABLATION_APPS
        .iter()
        .map(|name| workloads::by_name(name).expect("known workload"))
        .collect()
}

/// The design-choice sweep data points quoted in EXPERIMENTS.md's
/// "Design-choice sweeps" section, then the §5.1.1 uop/x86 expansion
/// ratio over every workload.
fn sweeps(scale: usize) {
    let n = scale.min(20_000);
    let trace = workloads::by_name("bzip2").unwrap().segment_trace(0, n);
    // One sweep point: RPO with one parameter edited.
    let point = |edit: &dyn Fn(&mut SimConfig)| {
        let mut cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();
        edit(&mut cfg);
        simulate(&trace, &cfg).ipc()
    };
    let line = |label: &str, ipcs: &[f64]| {
        out!("{label}:");
        for ipc in ipcs {
            out!(" {ipc:.2}");
        }
        outln!();
    };
    outln!("Design-choice sweeps, bzip2 RPO (scale {n} x86/segment)");
    let latency = [1, 10, 40].map(|v| point(&|c| c.datapath.cycles_per_uop = v));
    line("optimizer latency (cycles/uop 1, 10, 40)", &latency);
    let frame_size = [32, 256].map(|v| point(&|c| c.constructor.max_uops = v));
    line("max frame size (32 -> 256 uops)", &frame_size);
    let bias = [2, 8, 32].map(|v| point(&|c| c.constructor.bias_threshold = v));
    line("bias threshold (2, 8, 32 outcomes)", &bias);
    let capacity = [1, 4, 16, 64].map(|k| point(&|c| c.timing.frame_cache_uops = k * 1024));
    line("frame cache capacity (1K, 4K, 16K, 64K uops)", &capacity);
    let reschedule = [false, true].map(|v| point(&|c| c.opt.reschedule = v));
    line("rescheduling (off, on)", &reschedule);

    // (x86 instructions, uops) translated per workload.
    let counts: Vec<(u64, u64)> = workloads::all()
        .iter()
        .map(|w| {
            let (program, data) = w.segment_program(0);
            let mut interp = Interp::new(program);
            for (addr, bytes) in &data {
                interp.machine.mem.write_bytes(*addr, bytes);
            }
            interp.run(n).expect("workload runs");
            let t = interp.translator();
            (t.x86_count(), t.uop_count())
        })
        .collect();
    let ratios: Vec<f64> = counts.iter().map(|&(x, u)| u as f64 / x as f64).collect();
    let lo = ratios.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = ratios.iter().copied().fold(0.0, f64::max);
    let x86: u64 = counts.iter().map(|c| c.0).sum();
    let uops: u64 = counts.iter().map(|c| c.1).sum();
    outln!(
        "uop/x86 ratio ({} workloads): average {:.3}, range {lo:.3}-{hi:.3}",
        counts.len(),
        uops as f64 / x86 as f64
    );
}

/// The dual-model seven-pass profit ranking (EXPERIMENTS.md "Pass profit
/// by core model"): every pass's contribution in percentage points of RP
/// IPC, under the generic and the port-accurate core, side by side.
fn models(scale: usize, jobs: usize) {
    outln!(
        "Pass profit by core model (scale {scale} x86/segment, {} apps)",
        ABLATION_APPS.len()
    );
    outln!("{:6} {:>10} {:>10}", "pass", "generic", "port");
    let apps = ablation_apps();
    let [generic, port] = [CoreModel::Generic, CoreModel::PortAccurate]
        .map(|model| pass_profit(&grid(&apps, scale, jobs, model, &LEAVE_ONE_OUT)));
    for (g, p) in generic.iter().zip(&port) {
        assert_eq!(g.pass, p.pass);
        outln!(
            "{:6} {:>+10.2} {:>+10.2}",
            g.pass,
            g.profit_pct,
            p.profit_pct
        );
    }
    for (label, rows) in [("generic", &generic), ("port", &port)] {
        let mut ranked: Vec<&str> = PROFIT_PASSES.to_vec();
        ranked.sort_by(|a, b| {
            let pct = |pass: &str| rows.iter().find(|r| r.pass == pass).unwrap().profit_pct;
            pct(b).total_cmp(&pct(a))
        });
        outln!("ranking ({label}): {}", ranked.join(" > "));
    }
}

/// Table 3 and Figures 6–10 under `model`, folded from two grids: the
/// paper grid over every workload and the leave-one-out grid over the
/// Figure 10 applications.
fn tables(scale: usize, model: CoreModel, jobs: usize) {
    outln!(
        "Table 3 — micro-operations and loads removed (scale {scale} x86/segment, {} core)",
        model.label()
    );
    outln!("{:10} {:>7} {:>7} {:>7}", "app", "uops%", "loads%", "IPC+%");
    let paper = grid(&workloads::all(), scale, jobs, model, &PAPER_COLUMNS);
    let rows = removal_table(&paper);
    for r in &rows {
        outln!(
            "{:10} {:7.1} {:7.1} {:+7.1}",
            r.name,
            r.uops_removed * 100.0,
            r.loads_removed * 100.0,
            r.ipc_increase_pct
        );
    }
    let (u, l, i) = removal_averages(&rows);
    outln!(
        "{:10} {:7.1} {:7.1} {:+7.1}",
        "Average",
        u * 100.0,
        l * 100.0,
        i
    );

    outln!();
    outln!("Figure 6 — IPC by configuration (scale {scale} x86/segment)");
    outln!("app           IC    TC    RP   RPO   gain%   cov%  assert%");
    let mut spec_cov = Vec::new();
    let mut desk_cov = Vec::new();
    let mut assert_fracs = Vec::new();
    for r in ipc_comparison(&paper) {
        outln!(
            "{:10} {:5.2} {:5.2} {:5.2} {:5.2} {:+7.1} {:6.1} {:8.2}",
            r.name,
            r.ipc[0],
            r.ipc[1],
            r.ipc[2],
            r.ipc[3],
            r.gain.rpo_gain_pct,
            r.gain.coverage * 100.0,
            r.gain.assert_cycle_frac * 100.0
        );
        match r.suite {
            Suite::SpecInt => spec_cov.push(r.gain.coverage),
            Suite::Desktop => desk_cov.push(r.gain.coverage),
        }
        assert_fracs.push(r.gain.assert_cycle_frac);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    outln!(
        "coverage SPEC {:.0}% desktop {:.0}% | assert cycles avg {:.1}% max {:.1}%",
        avg(&spec_cov) * 100.0,
        avg(&desk_cov) * 100.0,
        avg(&assert_fracs) * 100.0,
        assert_fracs.iter().cloned().fold(0.0, f64::max) * 100.0
    );

    outln!();
    outln!("Figures 7/8 — Frame-cycle reduction, RP → RPO (scale {scale})");
    let rows = cycle_breakdown(&paper);
    for (suite, label) in [(Suite::SpecInt, "SPEC"), (Suite::Desktop, "desktop")] {
        let suite_rows = || rows.iter().filter(|r| r.suite == suite);
        let rp: u64 = suite_rows().map(|r| r.rp.get(CycleBin::Frame)).sum();
        let rpo: u64 = suite_rows().map(|r| r.rpo.get(CycleBin::Frame)).sum();
        outln!(
            "{label:8} Frame cycles {rp} -> {rpo} ({:+.1}%)",
            gain_pct(rp as f64, rpo as f64)
        );
    }

    outln!();
    outln!("Figure 9 — block-scope vs frame-scope optimization (scale {scale})");
    outln!("{:10} {:>8} {:>8}", "app", "block%", "frame%");
    let rows = scope_comparison(&paper);
    for r in &rows {
        outln!("{:10} {:+8.1} {:+8.1}", r.name, r.block_pct, r.frame_pct);
    }
    outln!(
        "{:10} {:+8.1} {:+8.1}",
        "Average",
        avg(&rows.iter().map(|r| r.block_pct).collect::<Vec<_>>()),
        avg(&rows.iter().map(|r| r.frame_pct).collect::<Vec<_>>())
    );

    outln!();
    outln!("Figure 10 — leave-one-out ablation, 0=RP 1=RPO (scale {scale})");
    out!("{:10}", "app");
    for l in ABLATION_LABELS {
        out!(" {:>8}", format!("no {l}"));
    }
    outln!();
    for r in ablation(&grid(&ablation_apps(), scale, jobs, model, &LEAVE_ONE_OUT)) {
        out!("{:10}", r.name);
        for v in r.relative {
            out!(" {v:8.2}");
        }
        outln!();
    }
}

const USAGE: &str = "usage: paper_tables [SCALE] [--core-model generic|port]
       paper_tables models [SCALE]
       paper_tables sweeps";

/// Parses the command line into a mode (`tables` unless `models` or
/// `sweeps` is named), a scale (default 30 000) and the tables' core
/// model, rejecting anything [`USAGE`] does not name, and reads the worker
/// count ([`parallel::job_count`]).
fn parse_args(args: &[String]) -> Result<(&str, usize, CoreModel, usize), String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some(mode @ ("models" | "sweeps")) => (mode, &args[1..]),
        _ => ("tables", args),
    };
    let (mut scale, mut model) = (None, CoreModel::Generic);
    let mut rest = rest.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--core-model" if mode == "tables" => {
                let label = rest.next().ok_or("--core-model needs a value")?;
                model = CoreModel::from_label(label)
                    .ok_or_else(|| format!("unknown core model {label:?} (generic, port)"))?;
            }
            s if mode != "sweeps" && scale.is_none() && !s.starts_with('-') => {
                let n = s.parse().ok().filter(|&n: &usize| n > 0);
                scale = Some(n.ok_or_else(|| format!("bad SCALE {s:?} (a positive integer)"))?);
            }
            s => return Err(format!("unexpected argument {s:?}\n{USAGE}")),
        }
    }
    Ok((mode, scale.unwrap_or(30_000), model, parallel::job_count()?))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(("models", scale, _, jobs)) => models(scale, jobs),
        Ok(("sweeps", scale, _, _)) => sweeps(scale),
        Ok((_, scale, model, jobs)) => tables(scale, model, jobs),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
