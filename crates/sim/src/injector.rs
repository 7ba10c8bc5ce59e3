//! The Micro-Op Injector: translation and golden-state maintenance.

use replay_trace::{StaticIndex, Trace, TraceRecord};
use replay_uop::{ArchReg, Flags, MachineState, Uop};
use replay_x86::translate;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// The injector of Figure 5: translates trace records into uop flows
/// and maintains the *golden* architectural machine state along the trace
/// — the state the verifier and the frame executor consult at every point.
///
/// The paper's injector translates each static x86 instruction once. Here
/// that translation lives on the trace: its [`StaticIndex`] (dense static
/// ids, pooled decode flows, the initial memory map) is built on the
/// trace's first simulation and shared by every later one, so
/// [`Injector::preseed`] only sets the entry state and holds the index;
/// it walks no records. [`Injector::flow`] serves callers that feed
/// records one at a time, translating each address once per injector.
#[derive(Debug, Default)]
pub struct Injector {
    /// The static-instruction index of the preseeded trace.
    index: Option<Arc<StaticIndex>>,
    /// Flows handed out by [`Injector::flow`], by instruction address.
    flows: HashMap<u32, Rc<Vec<Uop>>>,
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

    /// Sets the trace's initial registers and flags and seeds the golden
    /// memory with the *first-touch* value of every location the trace
    /// will access — the paper's initial memory map (§5.1.3), extended to
    /// the whole trace. Both come from the trace's shared
    /// [`StaticIndex`], which the injector then holds.
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
        let index = trace.static_index();
        for &(addr, value) in index.first_touch() {
            self.golden.store32(addr, value);
        }
        self.index = Some(Arc::clone(index));
    }

    /// The uop decode flow of a record's instruction (cached by address).
    pub fn flow(&mut self, r: &TraceRecord) -> Rc<Vec<Uop>> {
        Rc::clone(
            self.flows
                .entry(r.addr)
                .or_insert_with(|| Rc::new(translate(&r.inst, r.addr, r.fallthrough()))),
        )
    }

    /// The golden machine state as of every record applied so far.
    pub fn golden(&self) -> &MachineState {
        &self.golden
    }

    /// Applies one record's architectural effects to the golden state and
    /// accounts its uops, if its instruction is in the preseeded trace or
    /// was handed out by [`Injector::flow`].
    pub fn apply(&mut self, r: &TraceRecord) {
        self.apply_state(r);
        let indexed = self.index.as_deref().and_then(|ix| {
            ix.static_id(r.addr)
                .map(|id| (ix.flow(id).len(), ix.loads(id)))
        });
        let counts = indexed.or_else(|| self.flows.get(&r.addr).map(|f| (f.len(), count_loads(f))));
        if let Some((uops, loads)) = counts {
            self.account(uops, loads);
        }
    }

    /// Applies one record like [`Injector::apply`], but accounts uops from
    /// a flow the caller already holds, skipping the flow lookup. The
    /// counts are identical to [`Injector::apply`] whenever `flow` is the
    /// record's decode flow.
    pub fn apply_with_flow(&mut self, r: &TraceRecord, flow: &[Uop]) {
        self.apply_state(r);
        self.account(flow.len(), count_loads(flow));
    }

    /// Applies a record of the preseeded trace whose static id is `id`,
    /// reading its uop and load counts from the index — the simulation
    /// loop's lookup-free form of [`Injector::apply`].
    pub(crate) fn apply_static(&mut self, r: &TraceRecord, id: u32) {
        self.apply_state(r);
        let ix = self.index.as_deref().expect("apply_static follows preseed");
        let (uops, loads) = (ix.flow(id).len(), ix.loads(id));
        self.account(uops, loads);
    }

    fn account(&mut self, uops: usize, loads: usize) {
        self.uops_seen += uops as u64;
        self.loads_seen += loads as u64;
    }

    /// Golden-state update shared by the `apply` flavors.
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

    /// Dynamic uops injected (over applied records with known flows).
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

fn count_loads(flow: &[Uop]) -> usize {
    flow.iter().filter(|u| u.is_load()).count()
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
    fn preseeded_apply_accounts_like_apply_with_flow() {
        let trace = workloads::by_name("vortex")
            .unwrap()
            .segment_trace(0, 2_000);
        let mut indexed = Injector::new();
        indexed.preseed(&trace);
        let mut fed = Injector::new();
        fed.preseed(&trace);
        for r in trace.records() {
            indexed.apply(r);
            let f = fed.flow(r);
            fed.apply_with_flow(r, &f);
        }
        assert!(Arc::ptr_eq(
            indexed.index.as_ref().unwrap(),
            trace.static_index()
        ));
        assert_eq!(indexed.uops_seen(), fed.uops_seen());
        assert_eq!(indexed.loads_seen(), fed.loads_seen());
        assert!(indexed.loads_seen() > 0);
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
        let trace =
            replay_trace::Trace::new("t", replay_trace::record_run(&mut interp, 1_500).unwrap());
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
