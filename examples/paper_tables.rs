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

use replay_core::{DatapathConfig, OptConfig};
use replay_sim::experiment::{
    ablation, cycle_breakdown, gain_pct, ipc_comparison, pass_profit, removal_averages,
    removal_table, scope_comparison, ABLATION_APPS, ABLATION_LABELS, PROFIT_PASSES,
};
use replay_sim::{parallel, simulate, ConfigKind, CoreModel, SimConfig};
use replay_timing::CycleBin;
use replay_trace::{workloads, Suite, Workload};
use replay_x86::Interp;

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
    let run = |cfg: &SimConfig| {
        let t = workloads::by_name("bzip2").unwrap().segment_trace(0, n);
        simulate(&t, cfg).ipc()
    };
    println!("Design-choice sweeps, bzip2 RPO (scale {n} x86/segment)");
    print!("optimizer latency (cycles/uop 1, 10, 40):");
    for cpu in [1u64, 10, 40] {
        let mut cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();
        cfg.datapath = DatapathConfig {
            cycles_per_uop: cpu,
            ..DatapathConfig::default()
        };
        print!(" {:.2}", run(&cfg));
    }
    println!();
    print!("max frame size (32 -> 256 uops):");
    for max in [32usize, 256] {
        let mut cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();
        cfg.constructor.max_uops = max;
        print!(" {:.2}", run(&cfg));
    }
    println!();
    print!("bias threshold (2, 8, 32 outcomes):");
    for thr in [2u32, 8, 32] {
        let mut cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();
        cfg.constructor.bias_threshold = thr;
        print!(" {:.2}", run(&cfg));
    }
    println!();
    print!("frame cache capacity (1K, 4K, 16K, 64K uops):");
    for cap in [1usize, 4, 16, 64] {
        let mut cfg = SimConfig::new(ConfigKind::ReplayOpt).without_verify();
        cfg.timing.frame_cache_uops = cap * 1024;
        print!(" {:.2}", run(&cfg));
    }
    println!();
    print!("rescheduling (off, on):");
    for reschedule in [false, true] {
        let cfg = SimConfig::new(ConfigKind::ReplayOpt)
            .with_opt(OptConfig {
                reschedule,
                ..OptConfig::default()
            })
            .without_verify();
        print!(" {:.2}", run(&cfg));
    }
    println!();

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
    println!(
        "uop/x86 ratio ({} workloads): average {:.3}, range {lo:.3}-{hi:.3}",
        counts.len(),
        uops as f64 / x86 as f64
    );
}

/// The dual-model seven-pass profit ranking (EXPERIMENTS.md "Pass profit
/// by core model"): every pass's contribution in percentage points of RP
/// IPC, under the generic and the port-accurate core, side by side.
fn models(scale: usize) {
    let jobs = parallel::job_count();
    println!(
        "Pass profit by core model (scale {scale} x86/segment, {} apps)",
        ABLATION_APPS.len()
    );
    println!("{:6} {:>10} {:>10}", "pass", "generic", "port");
    let apps = ablation_apps();
    let generic = pass_profit(&apps, scale, jobs, CoreModel::Generic);
    let port = pass_profit(&apps, scale, jobs, CoreModel::PortAccurate);
    for (g, p) in generic.iter().zip(&port) {
        assert_eq!(g.pass, p.pass);
        println!(
            "{:6} {:>+10.2} {:>+10.2}",
            g.pass, g.profit_pct, p.profit_pct
        );
    }
    for (label, rows) in [("generic", &generic), ("port", &port)] {
        let mut ranked: Vec<&str> = PROFIT_PASSES.to_vec();
        ranked.sort_by(|a, b| {
            let pct = |pass: &str| rows.iter().find(|r| r.pass == pass).unwrap().profit_pct;
            pct(b).total_cmp(&pct(a))
        });
        println!("ranking ({label}): {}", ranked.join(" > "));
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("sweeps") {
        sweeps(30_000);
        return;
    }
    if std::env::args().nth(1).as_deref() == Some("models") {
        let scale = std::env::args()
            .nth(2)
            .and_then(|s| s.parse().ok())
            .unwrap_or(30_000);
        models(scale);
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(30_000);
    let model = match args.iter().position(|a| a == "--core-model") {
        None => CoreModel::Generic,
        Some(i) => {
            let label = args.get(i + 1).map(String::as_str).unwrap_or("");
            CoreModel::from_label(label)
                .unwrap_or_else(|| panic!("unknown core model {label:?} (generic, port)"))
        }
    };
    let jobs = parallel::job_count();
    let all = workloads::all();

    println!(
        "Table 3 — micro-operations and loads removed (scale {scale} x86/segment, {} core)",
        model.label()
    );
    println!("{:10} {:>7} {:>7} {:>7}", "app", "uops%", "loads%", "IPC+%");
    let rows = removal_table(&all, scale, jobs, model);
    for r in &rows {
        println!(
            "{:10} {:7.1} {:7.1} {:+7.1}",
            r.name,
            r.uops_removed * 100.0,
            r.loads_removed * 100.0,
            r.ipc_increase_pct
        );
    }
    let (u, l, i) = removal_averages(&rows);
    println!(
        "{:10} {:7.1} {:7.1} {:+7.1}",
        "Average",
        u * 100.0,
        l * 100.0,
        i
    );

    println!();
    println!("Figure 6 — IPC by configuration (scale {scale} x86/segment)");
    println!(
        "{:10} {:>5} {:>5} {:>5} {:>5} {:>7} {:>6} {:>8}",
        "app", "IC", "TC", "RP", "RPO", "gain%", "cov%", "assert%"
    );
    let mut spec_cov = Vec::new();
    let mut desk_cov = Vec::new();
    let mut assert_fracs = Vec::new();
    for r in ipc_comparison(&all, scale, jobs, model) {
        println!(
            "{:10} {:5.2} {:5.2} {:5.2} {:5.2} {:+7.1} {:6.1} {:8.2}",
            r.name,
            r.ipc[0],
            r.ipc[1],
            r.ipc[2],
            r.ipc[3],
            r.rpo_gain_pct,
            r.coverage * 100.0,
            r.assert_cycle_frac * 100.0
        );
        match r.suite {
            Suite::SpecInt => spec_cov.push(r.coverage),
            Suite::Desktop => desk_cov.push(r.coverage),
        }
        assert_fracs.push(r.assert_cycle_frac);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    println!(
        "coverage SPEC {:.0}% desktop {:.0}% | assert cycles avg {:.1}% max {:.1}%",
        avg(&spec_cov) * 100.0,
        avg(&desk_cov) * 100.0,
        avg(&assert_fracs) * 100.0,
        assert_fracs.iter().cloned().fold(0.0, f64::max) * 100.0
    );

    println!();
    println!("Figures 7/8 — Frame-cycle reduction, RP → RPO (scale {scale})");
    for (suite, label) in [(Suite::SpecInt, "SPEC"), (Suite::Desktop, "desktop")] {
        let ws: Vec<Workload> = all.iter().filter(|w| w.suite == suite).cloned().collect();
        let rows = cycle_breakdown(&ws, scale, jobs, model);
        let rp: u64 = rows.iter().map(|r| r.rp.get(CycleBin::Frame)).sum();
        let rpo: u64 = rows.iter().map(|r| r.rpo.get(CycleBin::Frame)).sum();
        println!(
            "{label:8} Frame cycles {rp} -> {rpo} ({:+.1}%)",
            gain_pct(rp as f64, rpo as f64)
        );
    }

    println!();
    println!("Figure 9 — block-scope vs frame-scope optimization (scale {scale})");
    println!("{:10} {:>8} {:>8}", "app", "block%", "frame%");
    let rows = scope_comparison(&all, scale, jobs, model);
    for r in &rows {
        println!("{:10} {:+8.1} {:+8.1}", r.name, r.block_pct, r.frame_pct);
    }
    println!(
        "{:10} {:+8.1} {:+8.1}",
        "Average",
        avg(&rows.iter().map(|r| r.block_pct).collect::<Vec<_>>()),
        avg(&rows.iter().map(|r| r.frame_pct).collect::<Vec<_>>())
    );

    println!();
    println!("Figure 10 — leave-one-out ablation, 0=RP 1=RPO (scale {scale})");
    print!("{:10}", "app");
    for l in ABLATION_LABELS {
        print!(" {:>8}", format!("no {l}"));
    }
    println!();
    for r in ablation(&ablation_apps(), scale, jobs, model) {
        print!("{:10}", r.name);
        for v in r.relative {
            print!(" {v:8.2}");
        }
        println!();
    }
}
