//! Initial and final memory maps (paper §5.1.3).

use replay_trace::TraceRecord;
use std::collections::HashMap;

/// The memory-state summary of a span of original trace records.
///
/// Quoting the paper: "we commit to the initial map the first load and
/// store transactions from each live memory location in the trace. All
/// store transactions in the trace are committed to the final map which is
/// used to compare the memory state at the frame boundary."
#[derive(Debug, Clone, Default)]
pub struct MemoryMaps {
    initial: HashMap<u32, u32>,
    finals: HashMap<u32, u32>,
}

impl MemoryMaps {
    /// Builds the maps from the records a frame covers.
    pub fn from_records(records: &[TraceRecord]) -> MemoryMaps {
        let mut maps = MemoryMaps::default();
        for r in records {
            for &(addr, value) in &r.mem_reads {
                maps.initial.entry(addr).or_insert(value);
                // A read does not change the running (final) value unless a
                // store already set it; reads of untouched locations seed
                // the final map with the same value.
                maps.finals.entry(addr).or_insert(value);
            }
            for &(addr, value) in &r.mem_writes {
                maps.initial.entry(addr).or_insert(value);
                maps.finals.insert(addr, value);
            }
        }
        maps
    }

    /// The value a load of `addr` must observe at frame entry, if the
    /// location is live in the trace span.
    pub fn initial(&self, addr: u32) -> Option<u32> {
        self.initial.get(&addr).copied()
    }

    /// Addresses with a defined final value.
    pub fn final_addrs(&self) -> impl Iterator<Item = u32> + '_ {
        self.finals.keys().copied()
    }

    /// Number of live locations.
    pub fn len(&self) -> usize {
        self.initial.len()
    }

    /// True when no memory was touched.
    pub fn is_empty(&self) -> bool {
        self.initial.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_x86::{Gpr, Inst};

    fn rec(read: Option<(u32, u32)>, write: Option<(u32, u32)>) -> TraceRecord {
        let mut r = TraceRecord {
            addr: 0,
            len: 1,
            inst: Inst::PushR { src: Gpr::Eax },
            next_pc: 1,
            reg_writes: [].into(),
            mem_reads: [].into(),
            mem_writes: [].into(),
            flags_after: 0,
        };
        if let Some(x) = read {
            r.mem_reads.push(x);
        }
        if let Some(x) = write {
            r.mem_writes.push(x);
        }
        r
    }

    #[test]
    fn first_touch_defines_initial() {
        let records = vec![
            rec(Some((0x100, 7)), None),
            rec(None, Some((0x100, 9))),
            rec(Some((0x100, 9)), None),
        ];
        let m = MemoryMaps::from_records(&records);
        assert_eq!(m.initial(0x100), Some(7), "first read wins");
        assert_eq!(m.finals.get(&0x100).copied(), Some(9), "last store wins");
    }

    #[test]
    fn store_first_location() {
        let records = vec![rec(None, Some((0x200, 1))), rec(None, Some((0x200, 2)))];
        let m = MemoryMaps::from_records(&records);
        assert_eq!(m.initial(0x200), Some(1));
        assert_eq!(m.finals.get(&0x200).copied(), Some(2));
    }

    #[test]
    fn untouched_is_absent() {
        let m = MemoryMaps::from_records(&[rec(Some((0x300, 5)), None)]);
        assert_eq!(m.initial(0x400), None);
        assert_eq!(m.finals.get(&0x300).copied(), Some(5));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert!(MemoryMaps::default().is_empty());
    }
}
