//! Quickstart: simulate one workload on the optimizing rePLay processor.
//!
//! ```sh
//! cargo run --release -p replay-examples --bin quickstart [workload] [x86-count]
//! ```
//!
//! Generates a synthetic trace, runs it through the RP (basic rePLay) and
//! RPO (rePLay + optimizer) configurations, and prints the headline
//! numbers: IPC, uop/load removal, frame coverage, and the cycle breakdown.

use replay_sim::experiment::gain_pct;
use replay_sim::{simulate, ConfigKind, SimConfig};
use replay_timing::CycleBin;
use replay_trace::workloads;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = args.get(1).map(String::as_str).unwrap_or("crafty");
    let count: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(30_000);

    let Some(workload) = workloads::by_name(name) else {
        eprintln!("unknown workload {name:?}; known:");
        for w in workloads::all() {
            eprintln!("  {}", w.name);
        }
        std::process::exit(1);
    };

    println!("generating {count} dynamic x86 instructions of `{name}`...");
    let trace = workload.segment_trace(0, count);
    println!(
        "trace: {} instructions, {:.1}% branches, {:.1}% memory",
        trace.len(),
        trace.branch_fraction() * 100.0,
        trace.memory_fraction() * 100.0
    );

    let rp = simulate(&trace, &SimConfig::new(ConfigKind::Replay));
    let rpo = simulate(&trace, &SimConfig::new(ConfigKind::ReplayOpt));

    println!();
    println!("                      RP (no opt)    RPO (optimized)");
    println!(
        "x86 IPC               {:11.2}    {:15.2}",
        rp.ipc(),
        rpo.ipc()
    );
    println!(
        "cycles                {:11}    {:15}",
        rp.cycles, rpo.cycles
    );
    println!(
        "frame coverage        {:10.1}%    {:14.1}%",
        rp.coverage * 100.0,
        rpo.coverage * 100.0
    );
    println!();
    println!(
        "optimizer removed {:.1}% of dynamic uops and {:.1}% of loads",
        rpo.uop_removal() * 100.0,
        rpo.load_removal() * 100.0
    );
    println!(
        "IPC increase from optimization: {:+.1}%",
        gain_pct(rp.ipc(), rpo.ipc())
    );
    println!(
        "frames aborted (assertions / unsafe stores): {} ({:.2}% of cycles)",
        rpo.pipeline.assert_events,
        rpo.bins.fraction(CycleBin::Assert) * 100.0
    );
    println!(
        "state verifier: {} frames checked, {} failed",
        rpo.verify.checked, rpo.verify.failed
    );
    println!();
    println!("cycle breakdown (RPO):");
    for bin in CycleBin::ALL {
        println!(
            "  {:8} {:9} ({:5.1}%)",
            bin.label(),
            rpo.bins.get(bin),
            rpo.bins.fraction(bin) * 100.0
        );
    }
}
