//! The execution core: issue ports, per-opcode bindings, and the one
//! scheduler both core models share.
//!
//! A [`PortTable`] is a port layout (a label and a pipe count per port, in
//! canonical tie-break order) plus, for every opcode, the set of ports it
//! may issue to and its latency and occupancy. The scheduler is the same
//! for every table: a uop takes the least-busy pipe among its bound ports,
//! the first in canonical order on ties. The two core models differ only in
//! their table ([`CoreModel::table`]):
//!
//! * [`PortTable::table2`] is the paper's Table 2 unit pool (6 simple
//!   ALUs, 2 complex ALUs, 4 load/store units, every ALU op single-cycle
//!   except `mul`/`div`): each unit class is one port with that many
//!   interchangeable pipes, and each opcode binds the bank of its
//!   [`OpcodeClass`].
//! * [`PortTable::uops_info`] is a port- and latency-accurate model for
//!   re-evaluating the paper's profit ranking on a port-constrained
//!   machine. Per-opcode latencies are seeded from uops.info (Abel &
//!   Reineke, "uops.info: Characterizing Latency, Throughput, and Port
//!   Usage of Instructions on Intel Microarchitectures") Nehalem
//!   measurements, on the port layout of Sniper's `DynamicMicroOpNehalem`
//!   (see SNIPPETS.md): three ALU-capable ports P0, P1 and P5 with
//!   asymmetric extras (shift/divide on P0, multiply/LEA on P1, branches
//!   on P5) and a memory bank P23 with two address-generation pipes.
//!   Deviations are documented per opcode and in `DESIGN.md` ("Core
//!   models").
//!
//! Occupancy models reciprocal throughput: an occupancy of 1 means the
//! pipe accepts a new uop of that kind every cycle; occupancy equal to
//! latency means the operation is not pipelined and blocks its pipe for
//! the full duration (the divider).

use replay_uop::{Opcode, OpcodeClass};
use std::fmt;

/// Which execution-core model schedules uops: it selects the
/// [`PortTable`] the one scheduler runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoreModel {
    /// The paper's Table 2 class-banked functional-unit pool with uniform
    /// single-cycle ALU latency (`mul`/`div` excepted):
    /// [`PortTable::table2`].
    #[default]
    Generic,
    /// Named issue ports with per-opcode bindings and uops.info-seeded
    /// latencies: [`PortTable::uops_info`].
    PortAccurate,
}

impl CoreModel {
    /// Short CLI/report label: `generic` or `port`.
    pub fn label(self) -> &'static str {
        match self {
            CoreModel::Generic => "generic",
            CoreModel::PortAccurate => "port",
        }
    }

    /// Parses a CLI label (case insensitive): `generic` or `port`.
    pub fn from_label(s: &str) -> Option<CoreModel> {
        match s.to_ascii_lowercase().as_str() {
            "generic" => Some(CoreModel::Generic),
            "port" => Some(CoreModel::PortAccurate),
            _ => None,
        }
    }

    /// The port table that defines this model.
    pub fn table(self) -> PortTable {
        match self {
            CoreModel::Generic => PortTable::table2(),
            CoreModel::PortAccurate => PortTable::uops_info(),
        }
    }
}

/// One issue port of a [`PortTable`]'s layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Port {
    /// Lower-case label, as used in `timing.port.<label>.*` counters.
    pub label: &'static str,
    /// Number of identical pipes behind the port, 1 to
    /// [`Port::MAX_PIPES`].
    pub pipes: usize,
}

impl Port {
    /// The most pipes a port may have.
    pub const MAX_PIPES: usize = 8;
}

/// A set of ports a uop may issue to, by index into the table's layout
/// (uops.info's port-usage notation: `p015` means any of P0/P1/P5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortSet(u8);

impl PortSet {
    /// The most ports a layout may have.
    pub const MAX_PORTS: usize = 8;

    /// The empty set (binds nothing; rejected by validation).
    pub const NONE: PortSet = PortSet(0);

    /// The set holding only port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not below [`PortSet::MAX_PORTS`].
    pub const fn only(port: usize) -> PortSet {
        PortSet::NONE.with(port)
    }

    /// This set plus port `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is not below [`PortSet::MAX_PORTS`].
    pub const fn with(self, port: usize) -> PortSet {
        assert!(port < PortSet::MAX_PORTS, "port index out of range");
        PortSet(self.0 | 1 << port)
    }

    /// True if no port is a member.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Member port indices, in canonical (ascending) order.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let port = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                port
            })
        })
    }
}

/// One opcode's scheduling contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortBinding {
    /// Ports the uop may issue to (at least one; validated).
    pub ports: PortSet,
    /// Result latency in cycles (memory ops take the cache hierarchy's
    /// latency instead; this field then covers only address generation).
    pub latency: u64,
    /// Cycles the chosen pipe stays busy (reciprocal throughput); equal to
    /// `latency` for unpipelined ops such as the divider.
    pub occupancy: u64,
}

/// Typed misconfiguration error for a [`PortTable`]: an opcode whose
/// entry could never issue would otherwise starve silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortConfigError {
    /// An opcode's binding names no port at all.
    UnboundOpcode(Opcode),
    /// An opcode's binding names a port the layout does not have.
    UnknownPort(Opcode),
    /// An opcode's occupancy is zero (its port would never cycle).
    ZeroOccupancy(Opcode),
    /// An opcode's latency is zero (its result would precede its issue).
    ZeroLatency(Opcode),
    /// A port of the layout, by label, has no pipes or more than
    /// [`Port::MAX_PIPES`].
    PipeCount(&'static str),
}

impl fmt::Display for PortConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortConfigError::UnboundOpcode(op) => {
                write!(f, "opcode {} binds no issue port", op.mnemonic())
            }
            PortConfigError::UnknownPort(op) => {
                write!(f, "opcode {} binds a port the layout lacks", op.mnemonic())
            }
            PortConfigError::ZeroOccupancy(op) => {
                write!(f, "opcode {} has zero port occupancy", op.mnemonic())
            }
            PortConfigError::ZeroLatency(op) => {
                write!(f, "opcode {} has zero latency", op.mnemonic())
            }
            PortConfigError::PipeCount(label) => {
                write!(f, "port {label} needs 1 to {} pipes", Port::MAX_PIPES)
            }
        }
    }
}

impl std::error::Error for PortConfigError {}

/// A port layout and the per-opcode port/latency/occupancy table over it,
/// indexed by [`Opcode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortTable {
    ports: Vec<Port>,
    bindings: [PortBinding; Opcode::ALL.len()],
}

impl PortTable {
    /// A table over `(label, pipes)` ports, binding each opcode to
    /// `bind(op) = (ports, latency, occupancy)`.
    fn build(
        ports: &[(&'static str, usize)],
        bind: impl Fn(Opcode) -> (PortSet, u64, u64),
    ) -> PortTable {
        let ports = ports
            .iter()
            .map(|&(label, pipes)| Port { label, pipes })
            .collect();
        let bindings = Opcode::ALL.map(|op| {
            let (ports, latency, occupancy) = bind(op);
            PortBinding {
                ports,
                latency,
                occupancy,
            }
        });
        PortTable { ports, bindings }
    }

    /// The paper's Table 2 unit pool: ports `simple` (6 pipes), `complex`
    /// (2) and `ldst` (4). Each opcode binds the bank of its
    /// [`OpcodeClass`]: `Mul`/`Div`/`Rem` the complex ALUs, loads and
    /// stores the load/store units, everything else (branches, asserts,
    /// `Nop`, `Fence`) the simple ALUs. `Mul` takes 3 cycles pipelined,
    /// `Div`/`Rem` 12 cycles unpipelined, everything else 1 cycle; a
    /// load/store unit is busy for one cycle, the cache latency being
    /// result latency. Table 2's 3 FPUs have no port: no opcode of the
    /// integer-only uop ISA routes to them.
    pub fn table2() -> PortTable {
        const SIMPLE: usize = 0;
        const COMPLEX: usize = 1;
        const LDST: usize = 2;
        PortTable::build(&[("simple", 6), ("complex", 2), ("ldst", 4)], |op| {
            let bank = match op.class() {
                OpcodeClass::ComplexAlu => COMPLEX,
                OpcodeClass::Load | OpcodeClass::Store => LDST,
                // SimpleAlu, Branch, Assert, Other share the simple ALUs.
                _ => SIMPLE,
            };
            let (latency, occupancy) = match op {
                Opcode::Mul => (3, 1),
                // The divider is not pipelined.
                Opcode::Div | Opcode::Rem => (12, 12),
                _ => (1, 1),
            };
            (PortSet::only(bank), latency, occupancy)
        })
    }

    /// The port-accurate table, seeded from uops.info Nehalem measurements
    /// on ports `p0`, `p1`, `p23` (two pipes) and `p5`:
    ///
    /// * single-cycle integer ALU ops issue to any of `p015`;
    /// * LEA uses the address-arithmetic units on `p01`;
    /// * shifts are `p05`;
    /// * `IMUL r32` is 3 cycles, pipelined, on `p1`;
    /// * `DIV/IDIV r32` is 21 cycles, unpipelined, on `p0`;
    /// * loads/stores/fences use the two-pipe memory bank `p23`
    ///   (cache-hierarchy latency modeled separately);
    /// * branches resolve on `p5`; assert uops behave like (macro-fused)
    ///   compare-and-branch checks and also bind `p5`;
    /// * `Nop` nominally needs no execution port — it is bound to `p015`
    ///   at 1 cycle so every opcode in the table is schedulable (documented
    ///   deviation).
    pub fn uops_info() -> PortTable {
        const P0: PortSet = PortSet::only(0);
        const P1: PortSet = PortSet::only(1);
        const P23: PortSet = PortSet::only(2);
        const P5: PortSet = PortSet::only(3);
        const P01: PortSet = P0.with(1);
        const P05: PortSet = P0.with(3);
        const P015: PortSet = P01.with(3);
        let ports = [("p0", 1), ("p1", 1), ("p23", 2), ("p5", 1)];
        PortTable::build(&ports, |op| match op {
            Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Not
            | Opcode::Neg
            | Opcode::Mov
            | Opcode::MovImm
            | Opcode::Cmp
            | Opcode::Test
            | Opcode::Nop => (P015, 1, 1),
            Opcode::Lea => (P01, 1, 1),
            Opcode::Shl | Opcode::Shr | Opcode::Sar => (P05, 1, 1),
            Opcode::Mul => (P1, 3, 1),
            // The divider is not pipelined: it blocks P0 for the full
            // latency.
            Opcode::Div | Opcode::Rem => (P0, 21, 21),
            Opcode::Load | Opcode::Store | Opcode::Fence => (P23, 1, 1),
            Opcode::Jmp | Opcode::JmpInd | Opcode::Br => (P5, 1, 1),
            Opcode::Assert | Opcode::AssertCmp | Opcode::AssertTest => (P5, 1, 1),
        })
    }

    /// The port layout, in canonical (tie-breaking) order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Replaces the pipe count of port `port` (for experiments and tests).
    ///
    /// # Panics
    ///
    /// Panics if the layout has no port `port`.
    pub fn set_pipes(&mut self, port: usize, pipes: usize) {
        self.ports[port].pipes = pipes;
    }

    /// The binding for an opcode.
    pub fn binding(&self, op: Opcode) -> PortBinding {
        self.bindings[op as usize]
    }

    /// Replaces an opcode's binding (for experiments and tests).
    pub fn set_binding(&mut self, op: Opcode, binding: PortBinding) {
        self.bindings[op as usize] = binding;
    }

    /// Checks every port has 1 to [`Port::MAX_PIPES`] pipes and every
    /// opcode binds at least one port of the layout with sane latency and
    /// occupancy, returning the first violation as a typed error.
    pub fn validate(&self) -> Result<(), PortConfigError> {
        let bad_pipes = |p: &&Port| p.pipes == 0 || p.pipes > Port::MAX_PIPES;
        if let Some(port) = self.ports.iter().find(bad_pipes) {
            return Err(PortConfigError::PipeCount(port.label));
        }
        for op in Opcode::ALL {
            let b = self.binding(op);
            if b.ports.is_empty() {
                return Err(PortConfigError::UnboundOpcode(op));
            }
            if b.ports.iter().any(|p| p >= self.ports.len()) {
                return Err(PortConfigError::UnknownPort(op));
            }
            if b.occupancy == 0 {
                return Err(PortConfigError::ZeroOccupancy(op));
            }
            if b.latency == 0 {
                return Err(PortConfigError::ZeroLatency(op));
            }
        }
        Ok(())
    }
}

/// The scheduler both core models share: per-pipe busy times over a
/// table's ports, choosing the least-busy pipe among a uop's bound ports
/// (the first in canonical order on ties, so issue is deterministic).
#[derive(Debug)]
pub(crate) struct Scheduler {
    table: PortTable,
    /// Per opcode, the pipes of its bound ports: bit `i` is `busy[i]`.
    /// A validated layout has at most 8 ports of at most 8 pipes.
    pipes: [u64; Opcode::ALL.len()],
    /// The port each pipe belongs to.
    pipe_port: Vec<usize>,
    /// Busy-until time per pipe, ports in canonical order.
    busy: Vec<u64>,
    issued: Vec<u64>,
    contention: Vec<u64>,
}

impl Scheduler {
    /// Builds a scheduler over a validated table.
    ///
    /// # Errors
    ///
    /// Returns the table's [`PortConfigError`] if any opcode could never
    /// issue (the typed alternative to silent starvation).
    pub(crate) fn new(table: PortTable) -> Result<Scheduler, PortConfigError> {
        table.validate()?;
        let mut pipe_port = Vec::new();
        let mut port_pipes = Vec::new();
        for (i, port) in table.ports().iter().enumerate() {
            port_pipes.push(((1u64 << port.pipes) - 1) << pipe_port.len());
            pipe_port.extend(std::iter::repeat_n(i, port.pipes));
        }
        let pipes = Opcode::ALL.map(|op| {
            let ports = table.binding(op).ports;
            ports.iter().fold(0, |mask, port| mask | port_pipes[port])
        });
        let n = table.ports().len();
        Ok(Scheduler {
            pipes,
            busy: vec![0; pipe_port.len()],
            pipe_port,
            issued: vec![0; n],
            contention: vec![0; n],
            table,
        })
    }

    /// Reserves a pipe for `op` at or after `earliest`; returns the actual
    /// issue cycle.
    pub(crate) fn issue(&mut self, op: Opcode, earliest: u64) -> u64 {
        // The first least-busy pipe is the minimum of `busy << 6 | pipe`
        // (at most 64 pipes; busy times stay far below 2^58 cycles). The
        // branch-free `min` avoids a mispredicted compare per pipe, which
        // made `fetch_x86` on gzip about 30% slower (2-vCPU x86-64 host).
        let mut pipes = self.pipes[op as usize];
        let mut best = u64::MAX;
        while pipes != 0 {
            let p = pipes.trailing_zeros();
            pipes &= pipes - 1;
            best = best.min(self.busy[p as usize] << 6 | u64::from(p));
        }
        let pipe = (best & 63) as usize;
        let start = earliest.max(self.busy[pipe]);
        self.busy[pipe] = start + self.table.binding(op).occupancy;
        let port = self.pipe_port[pipe];
        self.issued[port] += 1;
        self.contention[port] += start - earliest;
        start
    }

    /// Result latency of a non-memory op (memory ops take the cache
    /// hierarchy's latency, modeled by the pipeline).
    pub(crate) fn op_latency(&self, op: Opcode) -> u64 {
        self.table.binding(op).latency
    }

    /// Records per-port pressure counters,
    /// `timing.port.<label>.{issued,contention_cycles}`.
    pub(crate) fn observe_into(&self, profile: &mut replay_obs::Profile) {
        for (i, port) in self.table.ports().iter().enumerate() {
            let label = port.label;
            profile.counter_add(&format!("timing.port.{label}.issued"), self.issued[i]);
            profile.counter_add(
                &format!("timing.port.{label}.contention_cycles"),
                self.contention[i],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(table: PortTable) -> Scheduler {
        Scheduler::new(table).expect("valid table")
    }

    #[test]
    fn default_table_validates_and_binds_every_opcode() {
        for t in [PortTable::table2(), PortTable::uops_info()] {
            assert_eq!(t.validate(), Ok(()));
            for op in Opcode::ALL {
                let b = t.binding(op);
                assert!(!b.ports.is_empty(), "{op:?} bound");
                assert!(b.occupancy >= 1 && b.latency >= 1, "{op:?} sane");
            }
        }
    }

    #[test]
    fn zero_port_binding_is_a_typed_error() {
        let mut t = PortTable::uops_info();
        t.set_binding(
            Opcode::Mul,
            PortBinding {
                ports: PortSet::NONE,
                latency: 3,
                occupancy: 1,
            },
        );
        assert_eq!(
            t.validate(),
            Err(PortConfigError::UnboundOpcode(Opcode::Mul))
        );
        assert!(Scheduler::new(t.clone()).is_err());
        t.set_binding(
            Opcode::Mul,
            PortBinding {
                ports: PortSet::only(4),
                latency: 3,
                occupancy: 1,
            },
        );
        assert_eq!(t.validate(), Err(PortConfigError::UnknownPort(Opcode::Mul)));
    }

    #[test]
    fn zero_pipe_port_is_a_typed_error() {
        let mut t = PortTable::table2();
        t.set_pipes(0, 0);
        assert_eq!(t.validate(), Err(PortConfigError::PipeCount("simple")));
        assert!(Scheduler::new(t.clone()).is_err());
        t.set_pipes(0, Port::MAX_PIPES + 1);
        assert_eq!(t.validate(), Err(PortConfigError::PipeCount("simple")));
    }

    #[test]
    fn divider_blocks_its_port_for_full_latency() {
        let t = PortTable::uops_info();
        let occ = t.binding(Opcode::Div).occupancy;
        assert_eq!(occ, t.binding(Opcode::Div).latency, "unpipelined");
        let mut s = scheduler(t);
        assert_eq!(s.issue(Opcode::Div, 0), 0);
        assert_eq!(s.issue(Opcode::Div, 0), occ, "second div waits");
        // P0 is busy, but an ALU op can still take P1 or P5.
        assert_eq!(s.issue(Opcode::Add, 0), 0);
    }

    #[test]
    fn memory_bank_has_two_pipes() {
        let mut s = scheduler(PortTable::uops_info());
        assert_eq!(s.issue(Opcode::Load, 0), 0);
        assert_eq!(s.issue(Opcode::Store, 0), 0, "second pipe");
        assert_eq!(s.issue(Opcode::Load, 0), 1, "both pipes busy");
    }

    #[test]
    fn alu_ops_spread_across_three_ports() {
        let mut s = scheduler(PortTable::uops_info());
        assert_eq!(s.issue(Opcode::Add, 0), 0);
        assert_eq!(s.issue(Opcode::Add, 0), 0);
        assert_eq!(s.issue(Opcode::Add, 0), 0);
        assert_eq!(s.issue(Opcode::Add, 0), 1, "p015 all busy");
        assert_eq!(s.issued.iter().sum::<u64>(), 4);
    }

    #[test]
    fn branches_contend_on_p5() {
        let mut s = scheduler(PortTable::uops_info());
        assert_eq!(s.issue(Opcode::Br, 0), 0);
        assert_eq!(s.issue(Opcode::Assert, 0), 1, "asserts share P5");
    }

    /// A Table 2 layout with one complex and one load/store pipe and
    /// `simple` simple pipes, for the contention tests below.
    fn small_table2(simple: usize) -> PortTable {
        let mut t = PortTable::table2();
        for (port, pipes) in [simple, 1, 1].into_iter().enumerate() {
            t.set_pipes(port, pipes);
        }
        t
    }

    #[test]
    fn contention_delays_issue() {
        let mut s = scheduler(small_table2(2));
        assert_eq!(s.issue(Opcode::Add, 10), 10);
        assert_eq!(s.issue(Opcode::Add, 10), 10, "second unit");
        assert_eq!(s.issue(Opcode::Add, 10), 11, "both busy");
    }

    #[test]
    fn classes_are_independent() {
        let mut t = small_table2(1);
        t.set_binding(
            Opcode::Add,
            PortBinding {
                occupancy: 10,
                ..t.binding(Opcode::Add)
            },
        );
        let mut s = scheduler(t);
        assert_eq!(s.issue(Opcode::Add, 5), 5);
        assert_eq!(s.issue(Opcode::Load, 5), 5, "LSU not blocked");
        assert_eq!(s.issue(Opcode::Mul, 5), 5);
    }

    #[test]
    fn long_occupancy_blocks_complex_unit() {
        let mut s = scheduler(small_table2(1));
        assert_eq!(s.issue(Opcode::Div, 0), 0);
        assert_eq!(s.issue(Opcode::Rem, 0), 12);
    }

    #[test]
    fn branch_and_assert_use_simple_alus() {
        let mut s = scheduler(small_table2(1));
        assert_eq!(s.issue(Opcode::Br, 0), 0);
        assert_eq!(s.issue(Opcode::Assert, 0), 1);
        assert_eq!(s.issue(Opcode::Add, 0), 2);
    }

    /// The generic model's scheduler is the paper's class-banked unit pool:
    /// seeded `(opcode, earliest)` streams issue exactly as a first-minimum
    /// pick over per-class banks of 6 simple, 2 complex and 4 load/store
    /// units, with the Table 2 latencies.
    #[test]
    fn generic_scheduler_matches_fu_pool_computation() {
        struct Pool([Vec<u64>; 3]);
        impl Pool {
            fn issue(&mut self, op: Opcode, earliest: u64) -> u64 {
                let bank = &mut self.0[match op.class() {
                    OpcodeClass::ComplexAlu => 1,
                    OpcodeClass::Load | OpcodeClass::Store => 2,
                    _ => 0,
                }];
                let (i, &free) = bank.iter().enumerate().min_by_key(|(_, &t)| t).unwrap();
                let start = earliest.max(free);
                bank[i] = start
                    + if matches!(op, Opcode::Div | Opcode::Rem) {
                        12
                    } else {
                        1
                    };
                start
            }
        }
        for seed in 0..32 {
            let mut rng = replay_rng::SmallRng::seed_from_u64(seed);
            let mut s = scheduler(CoreModel::Generic.table());
            let mut pool = Pool([vec![0; 6], vec![0; 2], vec![0; 4]]);
            let mut earliest = 0u64;
            for _ in 0..2_000 {
                let op = *rng.choose(&Opcode::ALL);
                earliest += rng.random_range(0..3u64);
                assert_eq!(
                    s.issue(op, earliest),
                    pool.issue(op, earliest),
                    "seed {seed}"
                );
            }
        }
        let s = scheduler(PortTable::table2());
        for op in Opcode::ALL {
            let latency = match op {
                Opcode::Mul => 3,
                Opcode::Div | Opcode::Rem => 12,
                _ => 1,
            };
            assert_eq!(s.op_latency(op), latency, "{op:?}");
        }
    }

    #[test]
    fn core_model_labels_round_trip() {
        for m in [CoreModel::Generic, CoreModel::PortAccurate] {
            assert_eq!(CoreModel::from_label(m.label()), Some(m));
        }
        assert_eq!(CoreModel::from_label("PORT"), Some(CoreModel::PortAccurate));
        assert_eq!(CoreModel::from_label("fast"), None);
    }
}
