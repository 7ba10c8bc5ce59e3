//! The 8-wide, deeply pipelined, fetch-centric processor model.
//!
//! The model walks the dynamic stream in fetch order and computes, for
//! every uop, its fetch, issue, completion, and retirement cycles subject
//! to the Table 2 resources. It is *trace-driven with limited wrong-path
//! support* exactly as in the paper (§5.1): mispredicted branches charge
//! their resolution latency but no wrong-path instructions are simulated;
//! asserting frames charge a pessimistic recovery (rollback begins only
//! after the whole frame is ready to retire, §6.1) and the covered
//! instructions are then refetched from the ICache by the caller.

use crate::accounting::{CycleBin, CycleBins};
use crate::cache::Cache;
use crate::config::{
    TimingConfig, BRANCH_RESOLUTION_DEPTH, CACHE_SWITCH_WAIT, FRONT_END_DEPTH, GSHARE_BITS, L1D,
    L1D_LATENCY, L2, L2_LATENCY, MEMORY_LATENCY, WIDTH, WINDOW, X86_DECODE_WIDTH,
};
use crate::ports::{CoreModel, Scheduler};
use crate::predictor::{Btb, Gshare};
use replay_core::{FlagsSrc, OptFrame, Src};
use replay_uop::{Opcode, Uop, NUM_ARCH_REGS};
use std::collections::{HashMap, VecDeque};

/// Which structure fetch is streaming from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchPath {
    /// The conventional instruction cache + x86 decoders.
    ICache,
    /// The frame (or trace) cache.
    Frame,
}

/// One x86 instruction presented to the ICache fetch path.
#[derive(Debug, Clone)]
pub struct X86Fetch<'a> {
    /// Instruction address.
    pub addr: u32,
    /// Its decode flow.
    pub uops: &'a [Uop],
    /// For conditional branches: the resolved direction.
    pub taken: Option<bool>,
    /// For indirect jumps: the resolved target.
    pub indirect_target: Option<u32>,
    /// True if control actually transferred away from fall-through (ends
    /// the fetch group).
    pub redirects_fetch: bool,
    /// Data address of the flow's load, if any.
    pub load_addr: Option<u32>,
    /// Data address of the flow's store, if any.
    pub store_addr: Option<u32>,
    /// Which structure delivers the instruction. A trace-cache hit streams
    /// decoded uops via the frame path (8-wide, no decoder limit) while
    /// keeping ordinary branch-prediction semantics.
    pub path: FetchPath,
}

/// A frame presented to the frame-cache fetch path.
#[derive(Debug, Clone)]
pub struct FrameFetch<'a> {
    /// The (possibly optimized) frame.
    pub frame: &'a OptFrame,
    /// Resolved data address per frame slot (`None` for non-memory uops).
    pub mem_addrs: &'a [Option<u32>],
    /// If the frame's execution fails, the slot at which it fails
    /// (assertion fire or unsafe-store conflict).
    pub fails_at: Option<usize>,
    /// For frames whose unique exit is a conditional branch: the resolved
    /// direction of this dynamic instance. The sequencer predicts it with
    /// the ordinary branch predictor.
    pub exit_taken: Option<bool>,
    /// For frames whose exit is an indirect jump: the resolved target.
    pub exit_indirect: Option<u32>,
}

/// Aggregate counters of one simulation.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineStats {
    /// Retired x86 instructions (frames count their covered instructions).
    pub retired_x86: u64,
    /// Retired uops.
    pub retired_uops: u64,
    /// Conditional-branch mispredictions.
    pub mispredicts: u64,
    /// BTB target mispredictions.
    pub btb_misses: u64,
    /// Frames that fired an assertion / aborted.
    pub assert_events: u64,
    /// Frames fetched successfully.
    pub frames_fetched: u64,
    /// Cumulative fetch-to-resolution latency of frame-terminating
    /// branches (for the paper's branch-resolution-time observation).
    pub branch_resolution_cycles: u64,
    /// Number of branches contributing to `branch_resolution_cycles`.
    pub branches_resolved: u64,
}

impl PipelineStats {
    /// Records every counter under `<prefix>.<counter>` into a
    /// [`replay_obs::Profile`] — the predictor/fetch counters behind the
    /// paper's Figures 7–8.
    pub fn observe_into(&self, prefix: &str, profile: &mut replay_obs::Profile) {
        profile.counter_add(&format!("{prefix}.retired_x86"), self.retired_x86);
        profile.counter_add(&format!("{prefix}.retired_uops"), self.retired_uops);
        profile.counter_add(&format!("{prefix}.mispredicts"), self.mispredicts);
        profile.counter_add(&format!("{prefix}.btb_misses"), self.btb_misses);
        profile.counter_add(&format!("{prefix}.assert_events"), self.assert_events);
        profile.counter_add(&format!("{prefix}.frames_fetched"), self.frames_fetched);
        profile.counter_add(
            &format!("{prefix}.branch_resolution_cycles"),
            self.branch_resolution_cycles,
        );
        profile.counter_add(
            &format!("{prefix}.branches_resolved"),
            self.branches_resolved,
        );
    }
}

/// The timing pipeline.
#[derive(Debug)]
pub struct Pipeline {
    core_model: CoreModel,
    cycle: u64,
    cycle_bin: Option<CycleBin>,
    slot_uops: usize,
    slot_insts: usize,
    last_path: Option<FetchPath>,
    reg_ready: [u64; NUM_ARCH_REGS],
    flags_ready: u64,
    sched: Scheduler,
    retire_ring: VecDeque<u64>,
    retire_cycle: u64,
    retire_used: usize,
    /// Completion time of the youngest in-flight store per *aligned
    /// 4-byte word*: loads touching the same word must wait for the
    /// store's data (store-buffer forwarding). Every access in this ISA
    /// is a 32-bit word, so an access at `addr` covers the aligned words
    /// `addr & !3` and `(addr + 3) & !3` (one word when aligned, two when
    /// straddling). Keying by exact byte address would let a load
    /// overlapping a store at a nearby address miss the dependence.
    /// Without this map, removing a load via store forwarding would
    /// *lengthen* the modeled dependence chain instead of shortening the
    /// machine's work.
    ///
    /// Bounded exactly: fetch cycles never decrease and a load issues no
    /// earlier than `fetch + FRONT_END_DEPTH`, so an entry completing at or
    /// before `cycle + FRONT_END_DEPTH` can never delay a load again. Once
    /// the map passes `4 × WINDOW` entries, [`Pipeline::record_store`]
    /// drops those. The std hasher stays: store addresses come from
    /// untrusted traces.
    store_ready: HashMap<u32, u64>,
    icache: Cache,
    l1d: Cache,
    l2: Cache,
    gshare: Gshare,
    btb: Btb,
    bins: CycleBins,
    stats: PipelineStats,
    /// Reusable per-frame scheduling buffers for [`Pipeline::fetch_frame`]:
    /// per-slot value/flag completion times and per-uop completion list.
    /// Kept on the pipeline so the frame-fetch hot path allocates nothing
    /// once warm.
    frame_slot_done: Vec<u64>,
    frame_slot_flags_done: Vec<u64>,
    frame_completions: Vec<u64>,
}

/// The aligned 4-byte words a 32-bit access at `addr` touches: one entry
/// when aligned, two when the access straddles a word boundary.
fn access_words(addr: u32) -> [u32; 2] {
    [addr & !3, addr.wrapping_add(3) & !3]
}

impl Pipeline {
    /// Creates a pipeline for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the core model's port table fails
    /// [`PortTable::validate`](crate::PortTable::validate) (the shipped
    /// tables are unit-tested to pass).
    pub fn new(cfg: TimingConfig) -> Pipeline {
        let sched = Scheduler::new(cfg.core_model.table())
            .unwrap_or_else(|e| panic!("invalid timing configuration: {e}"));
        Pipeline {
            icache: Cache::new(cfg.icache()),
            l1d: Cache::new(L1D),
            l2: Cache::new(L2),
            gshare: Gshare::new(GSHARE_BITS),
            btb: Btb::new(12),
            sched,
            cycle: 0,
            cycle_bin: None,
            slot_uops: 0,
            slot_insts: 0,
            last_path: None,
            reg_ready: [0; NUM_ARCH_REGS],
            flags_ready: 0,
            retire_ring: VecDeque::new(),
            retire_cycle: 0,
            retire_used: 0,
            store_ready: HashMap::new(),
            bins: CycleBins::new(),
            stats: PipelineStats::default(),
            frame_slot_done: Vec::new(),
            frame_slot_flags_done: Vec::new(),
            frame_completions: Vec::new(),
            core_model: cfg.core_model,
        }
    }

    /// The cycle-accounting bins accumulated so far.
    pub fn bins(&self) -> CycleBins {
        self.bins
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Total cycles elapsed (equal to the sum of all bins).
    pub fn cycles(&self) -> u64 {
        self.bins.total()
    }

    /// Retired x86 instructions per cycle.
    pub fn ipc(&self) -> f64 {
        let c = self.cycles();
        if c == 0 {
            0.0
        } else {
            self.stats.retired_x86 as f64 / c as f64
        }
    }

    // ---------------- fetch-clock helpers ----------------

    fn begin_cycle(&mut self, bin: CycleBin) {
        if self.cycle_bin.is_none() {
            self.bins.add(bin, 1);
            self.cycle_bin = Some(bin);
        }
    }

    fn next_cycle(&mut self) {
        self.cycle += 1;
        self.cycle_bin = None;
        self.slot_uops = 0;
        self.slot_insts = 0;
    }

    /// Stalls fetch until `target`, charging idle cycles to `bin`.
    fn stall_until(&mut self, target: u64, bin: CycleBin) {
        if target <= self.cycle {
            return;
        }
        // The current cycle, if not already classified as a fetch cycle,
        // is the first stall cycle.
        let mut remaining = target - self.cycle;
        if self.cycle_bin.is_none() {
            self.bins.add(bin, 1);
        }
        remaining -= 1;
        self.bins.add(bin, remaining);
        self.cycle = target;
        self.cycle_bin = None;
        self.slot_uops = 0;
        self.slot_insts = 0;
    }

    /// Charges the frame-cache ↔ ICache turnaround when the path changes.
    fn switch_path(&mut self, path: FetchPath) {
        if let Some(last) = self.last_path {
            if last != path {
                let target = self.cycle + CACHE_SWITCH_WAIT + u64::from(self.cycle_bin.is_some());
                self.stall_until(target, CycleBin::Wait);
            }
        }
        self.last_path = Some(path);
    }

    /// Reserves one fetch slot on `path`, advancing the cycle when the
    /// group is full. Returns the fetch cycle of the slot.
    fn take_slot(&mut self, path: FetchPath) -> u64 {
        let bin = match path {
            FetchPath::Frame => CycleBin::Frame,
            FetchPath::ICache => CycleBin::ICache,
        };
        if self.slot_uops >= WIDTH {
            self.next_cycle();
        }
        self.begin_cycle(bin);
        self.slot_uops += 1;
        self.cycle
    }

    /// Enforces the scheduling-window occupancy limit before inserting a
    /// uop, stalling fetch until the oldest in-flight uop retires.
    fn reserve_window_slot(&mut self) {
        while self.retire_ring.len() >= WINDOW {
            let oldest = self.retire_ring.pop_front().expect("ring non-empty");
            self.stall_until(oldest, CycleBin::Stall);
        }
    }

    /// In-order retirement bookkeeping: returns the uop's retire cycle.
    fn retire(&mut self, complete: u64) -> u64 {
        let mut t = complete + 1;
        if t > self.retire_cycle {
            self.retire_cycle = t;
            self.retire_used = 0;
        } else {
            t = self.retire_cycle;
        }
        if self.retire_used >= WIDTH {
            self.retire_cycle += 1;
            self.retire_used = 0;
            t = self.retire_cycle;
        }
        self.retire_used += 1;
        self.retire_ring.push_back(t);
        self.stats.retired_uops += 1;
        t
    }

    fn dcache_latency(&mut self, addr: u32) -> u64 {
        if self.l1d.access(addr) {
            L1D_LATENCY
        } else if self.l2.access(addr) {
            L1D_LATENCY + L2_LATENCY
        } else {
            L1D_LATENCY + L2_LATENCY + MEMORY_LATENCY
        }
    }

    fn icache_miss_latency(&mut self, addr: u32) -> Option<u64> {
        if self.icache.access(addr) {
            None
        } else if self.l2.access(addr) {
            Some(L2_LATENCY)
        } else {
            Some(L2_LATENCY + MEMORY_LATENCY)
        }
    }

    /// Schedules one uop given its fetch cycle and operand-ready time.
    /// Returns its completion time.
    ///
    /// The pipeline-depth floor is split per the `config.rs` contract:
    /// every uop waits at least [`FRONT_END_DEPTH`] cycles after fetch
    /// (decode/rename/schedule), while branch and assert uops wait the
    /// full [`BRANCH_RESOLUTION_DEPTH`] — the paper's "minimum cycles
    /// between fetching a branch and its earliest possible execution".
    fn execute(&mut self, op: Opcode, fetch: u64, ready: u64, mem_addr: Option<u32>) -> u64 {
        let depth = if op.is_branch() || op.is_assert() {
            BRANCH_RESOLUTION_DEPTH
        } else {
            FRONT_END_DEPTH
        };
        let earliest = ready.max(fetch + depth);
        let issue = self.sched.issue(op, earliest);
        let latency = match (op, mem_addr) {
            (Opcode::Load, Some(addr)) => self.dcache_latency(addr),
            (Opcode::Store, Some(addr)) => {
                // Fill the line (write-allocate); the store itself clears
                // in one cycle via the store buffer.
                let _ = self.dcache_latency(addr);
                1
            }
            _ => self.sched.op_latency(op),
        };
        issue + latency
    }

    /// Issues one uop of either fetch path given its fetch cycle and
    /// operand-ready time: loads also wait for overlapping in-flight
    /// stores, stores record their completion for later loads, and
    /// branches count their fetch-to-resolution latency. Returns the uop's
    /// completion time.
    fn issue_uop(&mut self, op: Opcode, fetch: u64, mut ready: u64, mem: Option<u32>) -> u64 {
        if op == Opcode::Load {
            if let Some(addr) = mem {
                ready = ready.max(self.load_store_wait(addr));
            }
        }
        let complete = self.execute(op, fetch, ready, mem);
        if op == Opcode::Store {
            if let Some(addr) = mem {
                self.record_store(addr, complete);
            }
        }
        if op.is_branch() {
            self.stats.branch_resolution_cycles += complete.saturating_sub(fetch);
            self.stats.branches_resolved += 1;
        }
        complete
    }

    /// Predicts the control transfer ending an instruction or frame at
    /// `pc` with the ordinary predictors: gshare for a conditional
    /// direction (`taken`), then the BTB for a taken branch's
    /// `taken_target` or an indirect jump's `indirect` target. Returns
    /// `true` on a wrong direction or a wrong/missing target, after which
    /// fetch must wait for the branch to resolve.
    fn mispredicted(
        &mut self,
        pc: u32,
        taken: Option<bool>,
        taken_target: u32,
        indirect: Option<u32>,
    ) -> bool {
        if let Some(taken) = taken {
            if !self.gshare.predict_and_update(pc, taken) {
                self.stats.mispredicts += 1;
                return true;
            }
            if taken && !self.btb.predict_and_update(pc, taken_target) {
                self.stats.btb_misses += 1;
                return true;
            }
        } else if let Some(actual) = indirect {
            if !self.btb.predict_and_update(pc, actual) {
                self.stats.btb_misses += 1;
                return true;
            }
        }
        false
    }

    /// Operand-ready floor imposed by in-flight stores overlapping a load
    /// at `addr` (word-granular; see `store_ready`).
    fn load_store_wait(&self, addr: u32) -> u64 {
        let [w0, w1] = access_words(addr);
        let mut t = self.store_ready.get(&w0).copied().unwrap_or(0);
        if w1 != w0 {
            t = t.max(self.store_ready.get(&w1).copied().unwrap_or(0));
        }
        t
    }

    /// Records a store's completion under every word it touches, pruning
    /// entries no later load can wait on once the map outgrows its bound
    /// (see `store_ready`).
    fn record_store(&mut self, addr: u32, complete: u64) {
        let [w0, w1] = access_words(addr);
        self.store_ready.insert(w0, complete);
        if w1 != w0 {
            self.store_ready.insert(w1, complete);
        }
        if self.store_ready.len() > self.store_ready_bound() {
            let horizon = self.cycle + FRONT_END_DEPTH;
            self.store_ready.retain(|_, &mut done| done > horizon);
        }
    }

    /// Entries `store_ready` may hold before it is pruned.
    fn store_ready_bound(&self) -> usize {
        4 * WINDOW
    }

    /// Records the port model's per-port pressure counters
    /// (`timing.port.*.issued` / `.contention_cycles`) into a
    /// [`replay_obs::Profile`]. The generic model's Table 2 unit banks record
    /// nothing, so its profiles carry no `timing.port.*` key.
    pub fn observe_ports(&self, profile: &mut replay_obs::Profile) {
        if self.core_model == CoreModel::PortAccurate {
            self.sched.observe_into(profile);
        }
    }

    // ---------------- ICache path ----------------

    /// Fetches one x86 instruction through the ICache and decoders,
    /// scheduling its whole uop flow.
    pub fn fetch_x86(&mut self, f: &X86Fetch<'_>) {
        self.switch_path(f.path);

        if f.path == FetchPath::ICache {
            if let Some(miss) = self.icache_miss_latency(f.addr) {
                let target = self.cycle + miss;
                self.stall_until(target, CycleBin::Miss);
            }
            // Decoder bandwidth: at most 4 x86 instructions per cycle.
            if self.slot_insts >= X86_DECODE_WIDTH {
                self.next_cycle();
            }
            self.slot_insts += 1;
        }

        let mut load_addr = f.load_addr;
        let mut store_addr = f.store_addr;
        let mut branch_complete: Option<u64> = None;

        for u in f.uops {
            self.reserve_window_slot();
            let fetch = self.take_slot(f.path);

            // Operand readiness from the architectural rename map.
            let mut ready = 0u64;
            for r in u.sources() {
                ready = ready.max(self.reg_ready[r.index()]);
            }
            if u.reads_flags() {
                ready = ready.max(self.flags_ready);
            }
            let mem = match u.op {
                Opcode::Load => load_addr.take(),
                Opcode::Store => store_addr.take(),
                _ => None,
            };
            let complete = self.issue_uop(u.op, fetch, ready, mem);
            if let Some(d) = u.dst {
                self.reg_ready[d.index()] = complete;
            }
            if u.writes_flags {
                self.flags_ready = complete;
            }
            if u.op.is_branch() {
                branch_complete = Some(complete);
            }
            self.retire(complete);
        }
        self.stats.retired_x86 += 1;

        // Prediction: a wrong direction or a wrong/missing target stalls
        // fetch until the branch resolves.
        let taken_target = f.uops.last().map_or(0, |u| u.target);
        let redirect = if self.mispredicted(f.addr, f.taken, taken_target, f.indirect_target) {
            branch_complete
        } else {
            None
        };
        if let Some(resolve) = redirect {
            self.stall_until(resolve + 1, CycleBin::Mispredict);
        } else if f.redirects_fetch && f.path == FetchPath::ICache {
            // A correctly predicted taken transfer still ends the fetch
            // group on the ICache path (no fetching past a taken branch
            // within a cycle). Trace-cache lines embed taken branches and
            // stream straight through them — that is their reason to
            // exist.
            self.next_cycle();
        }
    }

    // ---------------- Frame path ----------------

    /// Fetches an entire frame from the frame cache.
    ///
    /// Returns `true` if the frame completed; `false` if it asserted (the
    /// caller must then refetch the covered x86 instructions through
    /// [`Pipeline::fetch_x86`] — the paper's recovery path).
    ///
    /// # Panics
    ///
    /// Panics if `mem_addrs` is shorter than the frame.
    pub fn fetch_frame(&mut self, f: &FrameFetch<'_>) -> bool {
        assert!(f.mem_addrs.len() >= f.frame.len(), "mem_addrs too short");
        self.switch_path(FetchPath::Frame);

        let n = f.frame.len();
        // Reusable scheduling buffers: clear + zero-fill recycles their
        // capacity, so a warm pipeline fetches frames without allocating.
        self.frame_slot_done.clear();
        self.frame_slot_done.resize(n, 0);
        self.frame_slot_flags_done.clear();
        self.frame_slot_flags_done.resize(n, 0);
        self.frame_completions.clear();
        let mut completions_max = 0u64;
        let mut exit_branch: Option<(u32, u32, u64)> = None; // (pc, target, complete)

        for (i, u) in f.frame.iter() {
            self.reserve_window_slot();
            let fetch = self.take_slot(FetchPath::Frame);
            let mut ready = 0u64;
            for src in [u.src_a, u.src_b].into_iter().flatten() {
                ready = ready.max(match src {
                    Src::LiveIn(r) => self.reg_ready[r.index()],
                    Src::Slot(s) => self.frame_slot_done[s as usize],
                });
            }
            if let Some(fs) = u.flags_src {
                ready = ready.max(match fs {
                    FlagsSrc::LiveIn => self.flags_ready,
                    FlagsSrc::Slot(s) => self.frame_slot_flags_done[s as usize],
                });
            }
            let complete = self.issue_uop(u.op, fetch, ready, f.mem_addrs[i as usize]);
            self.frame_slot_done[i as usize] = complete;
            if u.writes_flags {
                self.frame_slot_flags_done[i as usize] = complete;
            }
            if u.op.is_branch() {
                exit_branch = Some((u.x86_addr, u.target, complete));
            }
            self.frame_completions.push(complete);
            completions_max = completions_max.max(complete);
        }

        if f.fails_at.is_some() {
            // Pessimistic recovery (§6.1): rollback begins only once every
            // uop in the frame is ready for retirement.
            self.stats.assert_events += 1;
            self.stall_until(completions_max + 1, CycleBin::Assert);
            // Architectural state rolls back; timing-wise the machine
            // resynchronizes at the recovery point.
            self.reg_ready = [self.cycle; NUM_ARCH_REGS];
            self.flags_ready = self.cycle;
            // The in-flight frame drains.
            for j in 0..self.frame_completions.len() {
                let c = self.frame_completions[j];
                self.retire(c);
            }
            return false;
        }

        // Commit: live-out registers become ready at their producers'
        // completion; everything retires atomically, in order.
        for &(r, src) in f.frame.live_out() {
            self.reg_ready[r.index()] = match src {
                Src::LiveIn(other) => self.reg_ready[other.index()],
                Src::Slot(s) => self.frame_slot_done[s as usize],
            };
        }
        self.flags_ready = match f.frame.flags_out() {
            FlagsSrc::LiveIn => self.flags_ready,
            FlagsSrc::Slot(s) => self.frame_slot_flags_done[s as usize],
        };
        for j in 0..self.frame_completions.len() {
            let c = self.frame_completions[j];
            self.retire(c.max(completions_max));
        }
        self.stats.retired_x86 += f.frame.x86_count() as u64;
        self.stats.frames_fetched += 1;

        // The frame's exit: a final conditional branch or indirect jump is
        // predicted by the ordinary predictors, exactly like a decoder-path
        // branch; a wrong prediction stalls fetch until the exit resolves.
        if let Some((pc, target, complete)) = exit_branch {
            if self.mispredicted(pc, f.exit_taken, target, f.exit_indirect) {
                self.stall_until(complete + 1, CycleBin::Mispredict);
            } else {
                self.next_cycle();
            }
        }
        true
    }

    /// Drains the pipeline at end of simulation, charging the tail to
    /// `Stall`.
    pub fn finish(&mut self) {
        let drain = self.retire_cycle.max(self.cycle);
        self.stall_until(drain, CycleBin::Stall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_core::OptFrame;
    use replay_frame::{Frame, FrameId};
    use replay_uop::{ArchReg, Cond};

    fn cfg() -> TimingConfig {
        TimingConfig::paper_default()
    }

    fn alu_flow() -> Vec<Uop> {
        vec![Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1).ending_x86()]
    }

    fn plain_fetch<'a>(addr: u32, uops: &'a [Uop]) -> X86Fetch<'a> {
        X86Fetch {
            addr,
            uops,
            taken: None,
            indirect_target: None,
            redirects_fetch: false,
            load_addr: None,
            store_addr: None,
            path: FetchPath::ICache,
        }
    }

    #[test]
    fn decoder_width_limits_x86_per_cycle() {
        let mut p = Pipeline::new(cfg());
        let flow = alu_flow();
        // 8 single-uop instructions at 4 x86/cycle = 2 fetch cycles (plus
        // a cold icache miss stall first).
        for i in 0..8 {
            p.fetch_x86(&plain_fetch(0x1000 + i, &flow));
        }
        assert_eq!(p.bins().get(CycleBin::ICache), 2);
        assert!(p.bins().get(CycleBin::Miss) > 0, "cold miss charged");
        assert_eq!(p.stats().retired_x86, 8);
    }

    #[test]
    fn ipc_counts_cycles_consistently() {
        let mut p = Pipeline::new(cfg());
        let flow = alu_flow();
        for i in 0..100u32 {
            p.fetch_x86(&plain_fetch(0x1000 + (i % 16), &flow));
        }
        p.finish();
        assert_eq!(p.cycles(), p.bins().total(), "bins cover every cycle");
        assert!(p.ipc() > 0.5, "ipc {}", p.ipc());
    }

    #[test]
    fn mispredicted_branch_charges_resolution() {
        let mut p = Pipeline::new(cfg());
        let br = vec![Uop::br(Cond::Eq, 0x2000).ending_x86()];
        // A cold conditional branch that is taken: direction predictor is
        // weakly not-taken, so this mispredicts.
        p.fetch_x86(&X86Fetch {
            addr: 0x1000,
            uops: &br,
            taken: Some(true),
            indirect_target: None,
            redirects_fetch: true,
            load_addr: None,
            store_addr: None,
            path: FetchPath::ICache,
        });
        assert_eq!(p.stats().mispredicts, 1);
        assert!(
            p.bins().get(CycleBin::Mispredict) >= BRANCH_RESOLUTION_DEPTH,
            "resolution depth charged: {}",
            p.bins().get(CycleBin::Mispredict)
        );
    }

    #[test]
    fn load_miss_latency_longer_than_hit() {
        let mut p = Pipeline::new(cfg());
        let ld = vec![Uop::load(ArchReg::Eax, ArchReg::Esi, 0).ending_x86()];
        let mut f = plain_fetch(0x1000, &ld);
        f.load_addr = Some(0x9000);
        p.fetch_x86(&f);
        let cold = p.reg_ready[ArchReg::Eax.index()];
        // Re-load the same line: now an L1 hit; dependent chain grows by
        // only the hit latency.
        let mut f2 = plain_fetch(0x1001, &ld);
        f2.load_addr = Some(0x9004);
        p.fetch_x86(&f2);
        let warm = p.reg_ready[ArchReg::Eax.index()];
        assert!(cold > 0);
        assert!(
            warm < cold + L1D_LATENCY + 5,
            "warm load completed near cold one: {warm} vs {cold}"
        );
    }

    fn tiny_frame(n_uops: usize) -> OptFrame {
        let uops = (0..n_uops)
            .map(|_| Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1))
            .collect::<Vec<_>>();
        let frame = Frame {
            id: FrameId(1),
            start_addr: 0x5000,
            x86_addrs: (0..n_uops as u32).map(|i| 0x5000 + i).collect(),
            block_starts: vec![0],
            expectations: vec![],
            exit_next: 0x6000,
            orig_uop_count: n_uops,
            uops,
        };
        let mut f = OptFrame::from_frame(&frame);
        f.compact();
        f
    }

    #[test]
    fn frame_fetch_is_eight_wide() {
        let mut p = Pipeline::new(cfg());
        let f = tiny_frame(16);
        let addrs = vec![None; 16];
        let ok = p.fetch_frame(&FrameFetch {
            frame: &f,
            mem_addrs: &addrs,
            fails_at: None,
            exit_taken: None,
            exit_indirect: None,
        });
        assert!(ok);
        assert_eq!(p.bins().get(CycleBin::Frame), 2, "16 uops / 8 wide");
        assert_eq!(p.stats().retired_x86, 16);
        assert_eq!(p.stats().frames_fetched, 1);
    }

    #[test]
    fn asserting_frame_charges_assert_cycles_and_retires_nothing() {
        let mut p = Pipeline::new(cfg());
        let f = tiny_frame(8);
        let addrs = vec![None; 8];
        let ok = p.fetch_frame(&FrameFetch {
            frame: &f,
            mem_addrs: &addrs,
            fails_at: Some(7),
            exit_taken: None,
            exit_indirect: None,
        });
        assert!(!ok);
        assert_eq!(p.stats().assert_events, 1);
        assert_eq!(p.stats().retired_x86, 0);
        assert!(
            p.bins().get(CycleBin::Assert) >= BRANCH_RESOLUTION_DEPTH,
            "pessimistic recovery is at least the pipe depth"
        );
    }

    #[test]
    fn path_switch_charges_wait() {
        let mut p = Pipeline::new(cfg());
        let flow = alu_flow();
        p.fetch_x86(&plain_fetch(0x1000, &flow));
        let f = tiny_frame(8);
        let addrs = vec![None; 8];
        p.fetch_frame(&FrameFetch {
            frame: &f,
            mem_addrs: &addrs,
            fails_at: None,
            exit_taken: None,
            exit_indirect: None,
        });
        p.fetch_x86(&plain_fetch(0x1005, &flow));
        assert!(p.bins().get(CycleBin::Wait) >= 2, "two switches");
    }

    #[test]
    fn frame_dependencies_chain_across_live_outs() {
        // A frame whose live-out feeds a subsequent icache instruction.
        let mut p = Pipeline::new(cfg());
        let f = tiny_frame(8);
        let addrs = vec![None; 8];
        p.fetch_frame(&FrameFetch {
            frame: &f,
            mem_addrs: &addrs,
            fails_at: None,
            exit_taken: None,
            exit_indirect: None,
        });
        let eax_ready = p.reg_ready[ArchReg::Eax.index()];
        assert!(eax_ready > 0, "live-out EAX carries a completion time");
    }

    #[test]
    fn window_fills_under_a_long_dependence_chain() {
        let mut p = Pipeline::new(cfg());
        // A long chain of dependent loads to distinct cold lines keeps
        // completions slow while fetch runs ahead: twice the window's worth
        // of uops is in flight long before the chain completes.
        let flow = vec![Uop::load(ArchReg::Eax, ArchReg::Eax, 0).ending_x86()];
        for i in 0..2 * WINDOW as u32 {
            let mut f = plain_fetch(0x1000 + i, &flow);
            f.load_addr = Some(0x10_0000 + i * 4096);
            p.fetch_x86(&f);
            if i < WINDOW as u32 {
                assert_eq!(
                    p.bins().get(CycleBin::Stall),
                    0,
                    "no stall below the window"
                );
            }
        }
        assert!(
            p.bins().get(CycleBin::Stall) > 0,
            "window stalls appear: {}",
            p.bins()
        );
    }

    #[test]
    fn store_to_load_dependence_is_modeled() {
        // A load that reads a just-stored word must wait for the store's
        // data chain; an unrelated load must not.
        let mut p = Pipeline::new(cfg());
        // Long-latency producer: dependent loads to cold lines.
        let mut fl = Vec::new();
        for i in 0..4u32 {
            fl.push(vec![
                Uop::load(ArchReg::Eax, ArchReg::Eax, i as i32).ending_x86()
            ]);
        }
        for (i, flow) in fl.iter().enumerate() {
            let mut f = plain_fetch(0x1000 + i as u32, flow);
            f.load_addr = Some(0x20_0000 + (i as u32) * 8192);
            p.fetch_x86(&f);
        }
        let chain_done = p.reg_ready[ArchReg::Eax.index()];
        // Store the chained value, then load it back.
        let st = vec![Uop::store(ArchReg::Esi, 0, ArchReg::Eax).ending_x86()];
        let mut f = plain_fetch(0x2000, &st);
        f.store_addr = Some(0x30_0000);
        p.fetch_x86(&f);
        let ld = vec![Uop::load(ArchReg::Ebx, ArchReg::Esi, 0).ending_x86()];
        let mut f = plain_fetch(0x2001, &ld);
        f.load_addr = Some(0x30_0000);
        p.fetch_x86(&f);
        assert!(
            p.reg_ready[ArchReg::Ebx.index()] > chain_done,
            "forwarded load waits for the store's data ({} vs {})",
            p.reg_ready[ArchReg::Ebx.index()],
            chain_done
        );
        // An unrelated cold load does not.
        let mut f = plain_fetch(0x2002, &ld);
        f.load_addr = Some(0x40_0000);
        p.fetch_x86(&f);
        assert!(p.reg_ready[ArchReg::Ebx.index()] < chain_done + 100);
    }

    #[test]
    fn branch_resolution_floor_applies_only_to_branch_and_assert_uops() {
        // Regression: the 15-cycle branch-resolution floor used to apply
        // to *every* uop, contradicting the config contract. A plain ALU
        // uop must now be schedulable after the shallower front-end depth,
        // while a branch still waits the full resolution depth.
        let mut p = Pipeline::new(cfg());
        let flow = alu_flow();
        p.fetch_x86(&plain_fetch(0x1000, &flow));
        let alu_done = p.reg_ready[ArchReg::Eax.index()];
        assert_eq!(
            alu_done,
            p.cycle + FRONT_END_DEPTH + 1,
            "ALU uop floored by front-end depth only"
        );
        assert!(alu_done < p.cycle + BRANCH_RESOLUTION_DEPTH);

        // A correctly predicted not-taken branch: its resolution time is
        // recorded without any mispredict stall.
        let br = vec![Uop::br(Cond::Eq, 0x2000).ending_x86()];
        p.fetch_x86(&X86Fetch {
            addr: 0x1004,
            uops: &br,
            taken: Some(false),
            indirect_target: None,
            redirects_fetch: false,
            load_addr: None,
            store_addr: None,
            path: FetchPath::ICache,
        });
        assert_eq!(p.stats().branches_resolved, 1);
        assert!(
            p.stats().branch_resolution_cycles >= BRANCH_RESOLUTION_DEPTH,
            "branch still floored by resolution depth: {}",
            p.stats().branch_resolution_cycles
        );
    }

    #[test]
    fn store_forwarding_is_word_granular() {
        // A load overlapping a store at a *nearby* byte address (same
        // aligned word) must see the dependence; keying by exact byte
        // address used to miss it.
        let mut p = Pipeline::new(cfg());
        // Slow producer chain feeding the store's data.
        let mut fl = Vec::new();
        for i in 0..4u32 {
            fl.push(vec![
                Uop::load(ArchReg::Eax, ArchReg::Eax, i as i32).ending_x86()
            ]);
        }
        for (i, flow) in fl.iter().enumerate() {
            let mut f = plain_fetch(0x1000 + i as u32, flow);
            f.load_addr = Some(0x20_0000 + (i as u32) * 8192);
            p.fetch_x86(&f);
        }
        let chain_done = p.reg_ready[ArchReg::Eax.index()];
        let st = vec![Uop::store(ArchReg::Esi, 0, ArchReg::Eax).ending_x86()];
        let mut f = plain_fetch(0x2000, &st);
        f.store_addr = Some(0x30_0000);
        p.fetch_x86(&f);
        // Load two bytes into the stored word: overlapping, not equal.
        let ld = vec![Uop::load(ArchReg::Ebx, ArchReg::Esi, 0).ending_x86()];
        let mut f = plain_fetch(0x2001, &ld);
        f.load_addr = Some(0x30_0002);
        p.fetch_x86(&f);
        assert!(
            p.reg_ready[ArchReg::Ebx.index()] > chain_done,
            "overlapping load waits for the store's data ({} vs {})",
            p.reg_ready[ArchReg::Ebx.index()],
            chain_done
        );
        // A load in the next word (beyond the straddle range) does not.
        let mut f = plain_fetch(0x2002, &ld);
        f.load_addr = Some(0x30_0008);
        p.fetch_x86(&f);
        assert!(p.reg_ready[ArchReg::Ebx.index()] < chain_done + 100);
    }

    #[test]
    fn store_ready_stays_bounded_over_distinct_words() {
        // 100k stores to distinct words: the map is pruned to the
        // entries a later load could still wait on, never past its bound.
        let mut p = Pipeline::new(cfg());
        let st = vec![Uop::store(ArchReg::Esi, 0, ArchReg::Eax).ending_x86()];
        for i in 0..100_000u32 {
            let mut f = plain_fetch(0x1000 + (i % 64), &st);
            f.store_addr = Some(0x10_0000 + i * 4);
            p.fetch_x86(&f);
            assert!(p.store_ready.len() <= p.store_ready_bound());
        }
        assert_eq!(p.stats().retired_x86, 100_000);
    }

    #[test]
    fn port_model_pipeline_runs_and_counts_port_pressure() {
        let mut c = cfg();
        c.core_model = crate::ports::CoreModel::PortAccurate;
        let mut p = Pipeline::new(c);
        let flow = alu_flow();
        for i in 0..32u32 {
            p.fetch_x86(&plain_fetch(0x1000 + i, &flow));
        }
        p.finish();
        assert_eq!(p.stats().retired_x86, 32);
        assert_eq!(p.cycles(), p.bins().total());
        let mut profile = replay_obs::Profile::new();
        p.observe_ports(&mut profile);
        let issued: u64 = ["p0", "p1", "p23", "p5"]
            .iter()
            .map(|l| profile.counter(&format!("timing.port.{l}.issued")))
            .sum();
        assert_eq!(issued, 32, "every uop issued to exactly one port");
    }

    #[test]
    fn generic_model_records_no_port_counters() {
        let mut p = Pipeline::new(cfg());
        let flow = alu_flow();
        p.fetch_x86(&plain_fetch(0x1000, &flow));
        let mut profile = replay_obs::Profile::new();
        p.observe_ports(&mut profile);
        assert!(
            profile.is_empty(),
            "generic model emits no timing.port.* keys"
        );
    }

    #[test]
    fn dcache_hierarchy_latencies_order() {
        let mut p = Pipeline::new(cfg());
        // Cold access: L1 + L2 + memory.
        let cold = p.dcache_latency(0x50_0000);
        // L2-resident now? No: a cold miss fills both levels, so the next
        // access to the same line is an L1 hit.
        let warm = p.dcache_latency(0x50_0000);
        assert_eq!(cold, L1D_LATENCY + L2_LATENCY + MEMORY_LATENCY);
        assert_eq!(warm, L1D_LATENCY);
        assert!(cold > warm);
    }

    #[test]
    fn frame_exit_branch_prediction_learns() {
        // A frame whose exit branch always resolves the same way should
        // stop paying misprediction after warm-up.
        let mut p = Pipeline::new(cfg());
        let frame = {
            let mut uops: Vec<Uop> = (0..7)
                .map(|_| Uop::alu_imm(Opcode::Add, ArchReg::Eax, ArchReg::Eax, 1))
                .collect();
            let mut br = Uop::br(replay_uop::Cond::Eq, 0x9000);
            br.x86_addr = 0x5007;
            uops.push(br);
            let f = Frame {
                id: FrameId(2),
                start_addr: 0x5000,
                x86_addrs: (0..8).map(|i| 0x5000 + i).collect(),
                block_starts: vec![0],
                expectations: vec![],
                exit_next: 0x9000,
                orig_uop_count: 8,
                uops,
            };
            let mut f = OptFrame::from_frame(&f);
            f.compact();
            f
        };
        let addrs = vec![None; 8];
        for _ in 0..40 {
            p.fetch_frame(&FrameFetch {
                frame: &frame,
                mem_addrs: &addrs,
                fails_at: None,
                exit_taken: Some(true),
                exit_indirect: None,
            });
        }
        let early = p.stats().mispredicts + p.stats().btb_misses;
        for _ in 0..40 {
            p.fetch_frame(&FrameFetch {
                frame: &frame,
                mem_addrs: &addrs,
                fails_at: None,
                exit_taken: Some(true),
                exit_indirect: None,
            });
        }
        let late = p.stats().mispredicts + p.stats().btb_misses - early;
        assert!(
            late == 0,
            "steady exit predicts perfectly ({late} late misses)"
        );
    }

    #[test]
    fn retire_bandwidth_is_respected() {
        // 64 independent single-cycle uops cannot retire in fewer than
        // 64/8 = 8 retire cycles.
        let mut p = Pipeline::new(cfg());
        let flow: Vec<Uop> = (0..1)
            .map(|_| Uop::mov_imm(ArchReg::Eax, 1).ending_x86())
            .collect();
        for i in 0..64u32 {
            p.fetch_x86(&plain_fetch(0x1000 + i, &flow));
        }
        p.finish();
        // retire_cycle advanced at least 8 cycles beyond the first
        // completion.
        assert!(p.retire_cycle >= 8, "retire cycle {}", p.retire_cycle);
    }

    #[test]
    fn bins_sum_to_cycles_with_frames_and_asserts() {
        let mut p = Pipeline::new(cfg());
        let flow = alu_flow();
        let f = tiny_frame(12);
        let addrs = vec![None; 12];
        for round in 0..10 {
            p.fetch_x86(&plain_fetch(0x1000 + round, &flow));
            p.fetch_frame(&FrameFetch {
                frame: &f,
                mem_addrs: &addrs,
                fails_at: (round % 4 == 3).then_some(5),
                exit_taken: None,
                exit_indirect: None,
            });
        }
        p.finish();
        assert_eq!(p.cycles(), p.bins().total());
        assert!(p.bins().get(CycleBin::Assert) > 0);
        assert!(p.bins().get(CycleBin::Frame) > 0);
        assert!(p.bins().get(CycleBin::ICache) > 0);
    }
}
