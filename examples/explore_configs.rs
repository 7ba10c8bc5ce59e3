//! Explore the processor configuration space on one workload: the four
//! fetch organizations (IC / TC / RP / RPO), the optimization scopes, and
//! the leave-one-out optimizer ablations — a miniature of the paper's whole
//! evaluation on a single application.
//!
//! ```sh
//! cargo run --release -p replay-examples --bin explore_configs [workload]
//! ```

use replay_core::OptConfig;
use replay_sim::experiment::{gain_pct, ABLATION_LABELS};
use replay_sim::{simulate, ConfigKind, SimConfig};
use replay_trace::workloads;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "excel".into());
    let workload = workloads::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown workload {name:?}");
        std::process::exit(1);
    });
    let trace = workload.segment_trace(0, 30_000);
    println!(
        "workload `{name}`: {} dynamic x86 instructions\n",
        trace.len()
    );

    println!("fetch organization comparison:");
    let mut rp_ipc = 0.0;
    let mut rpo_ipc = 0.0;
    for kind in ConfigKind::ALL {
        let r = simulate(&trace, &SimConfig::new(kind).without_verify());
        println!(
            "  {:4} ipc {:5.2}  cycles {:9}  coverage {:5.1}%",
            kind.label(),
            r.ipc(),
            r.cycles,
            r.coverage * 100.0
        );
        match kind {
            ConfigKind::Replay => rp_ipc = r.ipc(),
            ConfigKind::ReplayOpt => rpo_ipc = r.ipc(),
            _ => {}
        }
    }

    println!("\noptimization scope (Figure 9):");
    let block = simulate(
        &trace,
        &SimConfig::new(ConfigKind::ReplayOpt)
            .with_opt(OptConfig::block_scope())
            .without_verify(),
    );
    println!(
        "  block-scope ipc {:5.2} ({:+.1}% over RP)",
        block.ipc(),
        gain_pct(rp_ipc, block.ipc())
    );
    println!(
        "  frame-scope ipc {:5.2} ({:+.1}% over RP)",
        rpo_ipc,
        gain_pct(rp_ipc, rpo_ipc)
    );

    println!("\nleave-one-out ablation (Figure 10; 0 = RP, 1 = RPO):");
    let span = (rpo_ipc - rp_ipc).abs().max(1e-9);
    for label in ABLATION_LABELS {
        let r = simulate(
            &trace,
            &SimConfig::new(ConfigKind::ReplayOpt)
                .with_opt(OptConfig::without(label))
                .without_verify(),
        );
        let rel = (r.ipc() - rp_ipc) / span;
        let bar: String = std::iter::repeat_n('#', (rel.clamp(0.0, 1.5) * 24.0) as usize).collect();
        println!("  no {label:4} {rel:5.2} {bar}");
    }
}
