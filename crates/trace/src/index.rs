//! The per-trace static-instruction index.
//!
//! A dynamic trace is a few thousand static instructions repeated: the
//! fig6 grid's 720,000 records are 5,372 distinct instructions. Every
//! simulation of a trace needs the same facts about them — each record's
//! static instruction, each instruction's uop decode flow, and the
//! trace's initial memory map (§5.1.1, §5.1.3) — so a
//! [`Trace`](crate::Trace) computes them once, on first use, and shares
//! the result through an `Arc` with every simulation, clone and thread
//! that reads it ([`Trace::static_index`](crate::Trace::static_index)).

use crate::TraceRecord;
use replay_uop::{AddrSet, Uop};
use replay_x86::translate;
use std::collections::HashMap;

/// An immutable index over a trace's static instructions.
///
/// Static instructions get dense ids in first-appearance order, keyed by
/// address. The decode flows of all of them live in one pooled uop array,
/// so the index costs a handful of allocations however many instructions
/// it holds.
#[derive(Debug, Default)]
pub struct StaticIndex {
    /// Dense static id of every record, in trace order.
    record_ids: Vec<u32>,
    /// Flow of id `i` is `uops[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Every decode flow, concatenated in id order.
    uops: Vec<Uop>,
    /// Load uops in each id's flow.
    loads: Vec<u32>,
    /// `(address, id)`, sorted by address.
    by_addr: Vec<(u32, u32)>,
    /// The first value the trace reads or writes at each address, in
    /// first-touch order.
    first_touch: Vec<(u32, u32)>,
}

impl StaticIndex {
    /// Indexes `records`: interns and translates every static instruction
    /// and collects the first touch of every memory address.
    pub(crate) fn build(records: &[TraceRecord]) -> StaticIndex {
        let mut ix = StaticIndex {
            record_ids: Vec::with_capacity(records.len()),
            starts: vec![0],
            ..StaticIndex::default()
        };
        let mut ids: HashMap<u32, u32> = HashMap::new();
        let mut seen = AddrSet::new();
        for r in records {
            let id = *ids.entry(r.addr).or_insert_with(|| {
                let id = u32::try_from(ix.loads.len()).expect("static ids fit u32");
                let flow = translate(&r.inst, r.addr, r.fallthrough());
                ix.loads
                    .push(flow.iter().filter(|u| u.is_load()).count() as u32);
                ix.uops.extend_from_slice(&flow);
                ix.starts
                    .push(u32::try_from(ix.uops.len()).expect("uop pool offsets fit u32"));
                ix.by_addr.push((r.addr, id));
                id
            });
            ix.record_ids.push(id);
            for &(addr, value) in r.mem_reads.iter().chain(&r.mem_writes) {
                if seen.insert(addr) {
                    ix.first_touch.push((addr, value));
                }
            }
        }
        ix.by_addr.sort_unstable();
        // The index outlives every simulation of its trace: keep no
        // growth slack.
        ix.starts.shrink_to_fit();
        ix.uops.shrink_to_fit();
        ix.loads.shrink_to_fit();
        ix.by_addr.shrink_to_fit();
        ix.first_touch.shrink_to_fit();
        ix
    }

    /// Number of distinct static instructions.
    pub fn len(&self) -> usize {
        self.loads.len()
    }

    /// True if the trace has no instructions.
    pub fn is_empty(&self) -> bool {
        self.loads.is_empty()
    }

    /// The dense static id of record `idx`.
    #[inline]
    pub fn record_id(&self, idx: usize) -> u32 {
        self.record_ids[idx]
    }

    /// The uop decode flow of static instruction `id`.
    #[inline]
    pub fn flow(&self, id: u32) -> &[Uop] {
        let i = id as usize;
        &self.uops[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The decode flow of record `idx`.
    #[inline]
    pub fn record_flow(&self, idx: usize) -> &[Uop] {
        self.flow(self.record_ids[idx])
    }

    /// Load uops in the flow of static instruction `id`.
    #[inline]
    pub fn loads(&self, id: u32) -> usize {
        self.loads[id as usize] as usize
    }

    /// The dense id of the instruction at `addr`, if the trace has one.
    pub fn static_id(&self, addr: u32) -> Option<u32> {
        self.by_addr
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.by_addr[i].1)
    }

    /// The trace's initial memory map: the first value read or written at
    /// every address it touches, in first-touch order.
    pub fn first_touch(&self) -> &[(u32, u32)] {
        &self.first_touch
    }

    /// Heap bytes the index retains.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&self.record_ids[..])
            + size_of_val(&self.starts[..])
            + size_of_val(&self.uops[..])
            + size_of_val(&self.loads[..])
            + size_of_val(&self.by_addr[..])
            + size_of_val(&self.first_touch[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{workloads, Trace};
    use std::sync::Arc;

    #[test]
    fn ids_flows_and_first_touches_follow_the_records() {
        let trace = workloads::by_name("gzip").unwrap().segment_trace(0, 3_000);
        let ix = trace.static_index();
        let records = trace.records();
        let mut seen = std::collections::HashSet::new();
        let mut first = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let id = ix.record_id(i);
            assert_eq!(ix.static_id(r.addr), Some(id));
            assert_eq!(
                ix.flow(id),
                &translate(&r.inst, r.addr, r.fallthrough())[..]
            );
            assert_eq!(
                ix.loads(id),
                ix.flow(id).iter().filter(|u| u.is_load()).count()
            );
            for &(addr, value) in r.mem_reads.iter().chain(&r.mem_writes) {
                if seen.insert(addr) {
                    first.push((addr, value));
                }
            }
        }
        assert_eq!(ix.first_touch(), &first[..]);
        // Ids are dense, in first-appearance order.
        let mut next = 0;
        for i in 0..records.len() {
            assert!(ix.record_id(i) <= next);
            next = next.max(ix.record_id(i) + 1);
        }
        assert_eq!(next as usize, ix.len());
        assert_eq!(ix.static_id(0), None);
    }

    #[test]
    fn pooled_flows_keep_small_traces_cheap() {
        // Serve-sized traces are where the fixed per-instruction cost
        // shows: a separate `Vec` per flow plus a retained address map
        // cost about 18 B per record at 2,000 records.
        let (mut bytes, mut records) = (0, 0);
        for w in workloads::all() {
            let trace = w.segment_trace(0, 2_000);
            bytes += trace.static_index().heap_bytes();
            records += trace.len();
        }
        assert!(
            bytes < 12 * records,
            "{bytes} index bytes for {records} records"
        );
    }

    #[test]
    fn clones_share_a_built_index() {
        let trace = workloads::by_name("vortex")
            .unwrap()
            .segment_trace(0, 1_000);
        let before = trace.clone();
        let ix = Arc::clone(trace.static_index());
        assert!(Arc::ptr_eq(&ix, trace.clone().static_index()));
        assert!(Arc::ptr_eq(&ix, trace.static_index()));
        // A clone taken before the first call builds its own, equal index.
        assert!(!Arc::ptr_eq(&ix, before.static_index()));
        assert_eq!(before.static_index().first_touch(), ix.first_touch());
        assert!(Trace::default().static_index().is_empty());
    }
}
