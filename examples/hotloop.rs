//! A hot loop, end to end through the real front end: assemble genuine x86
//! machine code, interpret it to produce a trace, and watch the frame
//! constructor unroll the loop into frames whose redundant loads the
//! optimizer removes (the paper's §3.4: "Common subexpression elimination
//! serves primarily to remove redundant loads, which often appear when
//! x86 loops are unrolled within a frame").
//!
//! ```sh
//! cargo run --release -p replay-examples --bin hotloop
//! ```

use replay_sim::experiment::gain_pct;
use replay_sim::{simulate, ConfigKind, SimConfig};
use replay_trace::{Trace, TraceRecord};
use replay_x86::{AluOp, Assembler, CondX86, Gpr, Inst, Interp, MemOperand};

fn main() {
    // while (--ecx) { eax += table[0]; ebx += table[0]; store eax }
    // The two loads of table[0] are redundant; once the loop is unrolled
    // into a frame, every iteration's loads collapse onto the first.
    let table = 0x2_0000u32;
    let out = 0x3_0000u32;
    let mut asm = Assembler::new(0x40_0000);
    asm.push(Inst::MovRI {
        dst: Gpr::Ecx,
        imm: 5_000,
    });
    let top = asm.new_label();
    let done = asm.new_label();
    asm.bind(top);
    asm.push(Inst::AluRM {
        op: AluOp::Add,
        dst: Gpr::Eax,
        mem: MemOperand::absolute(table),
    });
    asm.push(Inst::AluRM {
        op: AluOp::Add,
        dst: Gpr::Ebx,
        mem: MemOperand::absolute(table),
    });
    asm.push(Inst::MovMR {
        mem: MemOperand::absolute(out),
        src: Gpr::Eax,
    });
    asm.push(Inst::DecR { r: Gpr::Ecx });
    asm.jcc(CondX86::Nz, top);
    asm.bind(done);
    asm.push(Inst::Ret);

    let mut interp = Interp::new(asm.finish());
    interp.machine.store32(table, 7);
    let steps = interp.run(30_000).expect("loop runs");
    println!(
        "interpreted {} x86 instructions ({} uops, ratio {:.2}); eax = {}",
        steps.len(),
        interp.translator().uop_count(),
        interp.translator().ratio(),
        interp.machine.reg(replay_uop::ArchReg::Eax),
    );

    let trace = Trace::new(
        "hotloop",
        steps.iter().map(TraceRecord::from_step).collect(),
    );
    let rp = simulate(&trace, &SimConfig::new(ConfigKind::Replay));
    let rpo = simulate(&trace, &SimConfig::new(ConfigKind::ReplayOpt));

    println!();
    println!("frame coverage:     {:.1}%", rpo.coverage * 100.0);
    println!(
        "loads removed:      {:.1}% of {} dynamic loads",
        rpo.load_removal() * 100.0,
        rpo.dyn_loads_total
    );
    println!("uops removed:       {:.1}%", rpo.uop_removal() * 100.0);
    println!(
        "IPC:                RP {:.2} -> RPO {:.2} ({:+.1}%)",
        rp.ipc(),
        rpo.ipc(),
        gain_pct(rp.ipc(), rpo.ipc())
    );
    println!(
        "verifier:           {} frames checked, {} failures",
        rpo.verify.checked, rpo.verify.failed
    );
    assert_eq!(rpo.verify.failed, 0);
}
