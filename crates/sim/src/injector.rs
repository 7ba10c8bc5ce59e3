//! The Micro-Op Injector: translation and golden-state maintenance.

use replay_trace::{Trace, TraceRecord};
use replay_uop::{AddrSet, ArchReg, Flags, MachineState, Uop};
use replay_x86::translate;
use std::collections::HashMap;
use std::rc::Rc;

/// The injector of Figure 5: translates trace records into uop flows
/// (cached per static instruction) and maintains the *golden* architectural
/// machine state along the trace — the state the verifier and the frame
/// executor consult at every point.
///
/// Static instructions get dense ids in first-appearance order, so the
/// per-record hot path indexes arrays instead of hashing addresses: the
/// address → id map is consulted once per record in
/// [`Injector::preseed`] (and by [`Injector::flow`]), never again.
#[derive(Debug, Default)]
pub struct Injector {
    /// Static instruction address → dense id.
    ids: HashMap<u32, u32>,
    /// Decode flow per dense id.
    flows: Vec<Rc<Vec<Uop>>>,
    /// Dense id of every record of the preseeded trace.
    record_ids: Vec<u32>,
    golden: MachineState,
    x86_seen: u64,
    uops_seen: u64,
    loads_seen: u64,
}

impl Injector {
    /// Creates an injector with a pristine machine state.
    pub fn new() -> Injector {
        Injector::default()
    }

    /// Seeds the golden memory with the *first-touch* value of every
    /// location the trace will access — the paper's initial memory map
    /// (§5.1.3), extended to the whole trace — and gives every record the
    /// dense id of its static instruction.
    ///
    /// Frames run ahead of retirement: a frame fetched at record *i* may
    /// load a location whose first trace access happens at record *i + k*.
    /// Without pre-seeding, such loads would observe zeros and the frame's
    /// assertions would mis-resolve.
    pub fn preseed(&mut self, trace: &Trace) {
        for r in ArchReg::ALL {
            self.golden.set_reg(r, trace.init_regs[r.index()]);
        }
        self.golden.set_flags(Flags::from_bits(trace.init_flags));
        let mut seen = AddrSet::new();
        self.record_ids.clear();
        self.record_ids.reserve(trace.len());
        for r in trace.records() {
            let id = self.intern(r);
            self.record_ids.push(id);
            for &(addr, value) in r.mem_reads.iter().chain(r.mem_writes.iter()) {
                if seen.insert(addr) {
                    self.golden.store32(addr, value);
                }
            }
        }
    }

    /// The dense id of `r`'s instruction, translating it on first sight.
    fn intern(&mut self, r: &TraceRecord) -> u32 {
        let flows = &mut self.flows;
        *self.ids.entry(r.addr).or_insert_with(|| {
            flows.push(Rc::new(translate(&r.inst, r.addr, r.fallthrough())));
            (flows.len() - 1) as u32
        })
    }

    /// The uop decode flow of a record's instruction (cached by address).
    pub fn flow(&mut self, r: &TraceRecord) -> Rc<Vec<Uop>> {
        let id = self.intern(r);
        Rc::clone(&self.flows[id as usize])
    }

    /// The dense static-instruction id of record `idx` of the preseeded
    /// trace.
    #[inline]
    pub(crate) fn record_id(&self, idx: usize) -> u32 {
        self.record_ids[idx]
    }

    /// The decode flow of record `idx` of the preseeded trace.
    #[inline]
    pub(crate) fn record_flow(&self, idx: usize) -> &[Uop] {
        &self.flows[self.record_ids[idx] as usize]
    }

    /// The dense id of the instruction at `addr`, if one was indexed.
    pub(crate) fn static_id(&self, addr: u32) -> Option<u32> {
        self.ids.get(&addr).copied()
    }

    /// The golden machine state as of every record applied so far.
    pub fn golden(&self) -> &MachineState {
        &self.golden
    }

    /// Applies one record's architectural effects to the golden state and
    /// accounts it.
    pub fn apply(&mut self, r: &TraceRecord) {
        self.apply_state(r);
        if let Some(f) = self.static_id(r.addr).map(|id| &self.flows[id as usize]) {
            let (uops, loads) = (f.len(), f.iter().filter(|u| u.is_load()).count());
            self.account(uops, loads);
        }
    }

    /// Applies one record like [`Injector::apply`], but accounts uops from
    /// a flow the caller already holds, skipping the flow-map lookup. The
    /// counts are identical to [`Injector::apply`] whenever `flow` is the
    /// record's decode flow.
    pub fn apply_with_flow(&mut self, r: &TraceRecord, flow: &[Uop]) {
        self.apply_state(r);
        self.account(flow.len(), flow.iter().filter(|u| u.is_load()).count());
    }

    /// Applies record `idx` of the preseeded trace, `r`, accounting uops
    /// from its flow in the dense index — the streaming loop's hash-free
    /// form of [`Injector::apply`].
    pub(crate) fn apply_record(&mut self, idx: usize, r: &TraceRecord) {
        self.apply_state(r);
        let flow = &self.flows[self.record_ids[idx] as usize];
        let (uops, loads) = (flow.len(), flow.iter().filter(|u| u.is_load()).count());
        self.account(uops, loads);
    }

    fn account(&mut self, uops: usize, loads: usize) {
        self.uops_seen += uops as u64;
        self.loads_seen += loads as u64;
    }

    /// Golden-state update shared by the two `apply` flavors.
    fn apply_state(&mut self, r: &TraceRecord) {
        // Load values reflect what memory held: seeding them keeps the
        // golden memory consistent even for locations initialized outside
        // the trace (the paper's "load data is used by the verifier to
        // perform the load operations").
        for &(addr, value) in &r.mem_reads {
            self.golden.store32(addr, value);
        }
        for &(addr, value) in &r.mem_writes {
            self.golden.store32(addr, value);
        }
        for &(reg, value) in &r.reg_writes {
            if let Some(reg) = ArchReg::from_index(reg as usize) {
                self.golden.set_reg(reg, value);
            }
        }
        self.golden.set_flags(Flags::from_bits(r.flags_after));
        self.x86_seen += 1;
    }

    /// Dynamic x86 instructions applied.
    pub fn x86_seen(&self) -> u64 {
        self.x86_seen
    }

    /// Dynamic uops injected (over applied records with cached flows).
    pub fn uops_seen(&self) -> u64 {
        self.uops_seen
    }

    /// Dynamic load uops injected.
    pub fn loads_seen(&self) -> u64 {
        self.loads_seen
    }

    /// The dynamic uop-per-x86 ratio observed.
    pub fn uop_ratio(&self) -> f64 {
        if self.x86_seen == 0 {
            0.0
        } else {
            self.uops_seen as f64 / self.x86_seen as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_trace::workloads;

    #[test]
    fn flows_are_cached_and_state_tracks() {
        let trace = workloads::by_name("gzip").unwrap().segment_trace(0, 2_000);
        let mut inj = Injector::new();
        for r in trace.records() {
            let f1 = inj.flow(r);
            let f2 = inj.flow(r);
            assert!(Rc::ptr_eq(&f1, &f2), "flow cached");
            inj.apply(r);
        }
        assert_eq!(inj.x86_seen(), trace.len() as u64);
        assert!(inj.uop_ratio() > 1.0 && inj.uop_ratio() < 2.0);
    }

    #[test]
    fn golden_state_matches_interpreter() {
        use replay_x86::Interp;
        let w = workloads::by_name("eon").unwrap();
        let (program, data) = w.segment_program(0);
        let mut interp = Interp::new(program);
        for (addr, bytes) in &data {
            interp.machine.mem.write_bytes(*addr, bytes);
        }
        let steps = interp.run(1_500).unwrap();
        let trace = replay_trace::Trace::new(
            "t",
            steps
                .iter()
                .map(replay_trace::TraceRecord::from_step)
                .collect(),
        );
        let mut inj = Injector::new();
        for r in trace.records() {
            inj.flow(r);
            inj.apply(r);
        }
        // The golden registers equal the interpreter's final registers.
        for r in ArchReg::GPRS {
            assert_eq!(inj.golden().reg(r), interp.machine.reg(r), "{r} diverged");
        }
        assert_eq!(inj.golden().flags(), interp.machine.flags());
    }
}
