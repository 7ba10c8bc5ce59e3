//! Statistical workload profiles.
//!
//! A [`StatProfile`] condenses a trace into a small fixed vector of
//! behavioral dimensions: the nine-class instruction mix, branch bias,
//! load redundancy, store aliasing, and call depth. Two traces with close
//! profiles exercise the rePLay pipeline similarly — the same
//! assertion-conversion rate, the same CSE opportunity, the same
//! speculative-store risk — so the stress sweep reports the profile of
//! every point it synthesizes. Every dimension is normalized to roughly
//! `[0, 1]`.

use crate::stats::{InstClass, TraceStats};
use crate::Trace;
use replay_x86::Inst;
use std::collections::{HashMap, VecDeque};

/// How many recent memory transactions the load-redundancy window spans.
///
/// A load counts as *redundant* when its address appeared among the last
/// `REDUNDANCY_WINDOW` transactions — an architecture-independent proxy
/// for the forwarding/CSE opportunity the optimizer can actually harvest
/// within a frame-sized region.
pub const REDUNDANCY_WINDOW: usize = 256;

/// Normalization divisor for mean call depth: synthetic workloads nest at
/// most a few calls deep, so depth/4 keeps the dimension in `[0, 1]`.
const CALL_DEPTH_SCALE: f64 = 4.0;

/// Number of scalar dimensions in a profile (9 mix classes + 4 behavioral
/// rates).
pub const PROFILE_DIMS: usize = 13;

/// A workload's statistical profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatProfile {
    /// Instruction-mix fractions, in [`InstClass::ALL`] order.
    pub mix: [f64; 9],
    /// Execution-weighted fraction of conditional-branch executions that
    /// follow their static branch's dominant direction (1.0 = perfectly
    /// biased, 0.5 = coin flips).
    pub branch_bias: f64,
    /// Fraction of load transactions whose address occurred within the
    /// last [`REDUNDANCY_WINDOW`] memory transactions.
    pub load_redundancy: f64,
    /// Fraction of store transactions landing on an address written by
    /// more than one static instruction — the aliasing that defeats
    /// speculative store forwarding.
    pub alias_rate: f64,
    /// Mean call-nesting depth, divided by 4 to normalize.
    pub call_depth: f64,
}

impl StatProfile {
    /// Measures the profile of a trace. Safe on an empty trace (all
    /// dimensions zero).
    pub fn measure(trace: &Trace) -> StatProfile {
        let stats = TraceStats::of(trace);
        let mut mix = [0.0f64; 9];
        for (slot, class) in mix.iter_mut().zip(InstClass::ALL) {
            *slot = stats.mix_fraction(class);
        }

        // Branch bias: dominant-direction executions over all executions.
        let mut per_branch: HashMap<u32, (usize, usize)> = HashMap::new();
        for r in trace.records() {
            if let Some(taken) = r.taken() {
                let e = per_branch.entry(r.addr).or_insert((0, 0));
                if taken {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
        let mut dominant = 0usize;
        let mut execs = 0usize;
        for (t, n) in per_branch.values() {
            dominant += t.max(n);
            execs += t + n;
        }
        let branch_bias = if execs == 0 {
            0.0
        } else {
            dominant as f64 / execs as f64
        };

        // Load redundancy: sliding window of recent transaction addresses.
        let mut window: VecDeque<u32> = VecDeque::with_capacity(REDUNDANCY_WINDOW + 1);
        let mut in_window: HashMap<u32, usize> = HashMap::new();
        let push = |window: &mut VecDeque<u32>, in_window: &mut HashMap<u32, usize>, a: u32| {
            window.push_back(a);
            *in_window.entry(a).or_insert(0) += 1;
            if window.len() > REDUNDANCY_WINDOW {
                let old = window.pop_front().expect("window non-empty");
                if let Some(c) = in_window.get_mut(&old) {
                    *c -= 1;
                    if *c == 0 {
                        in_window.remove(&old);
                    }
                }
            }
        };
        let mut loads = 0usize;
        let mut redundant = 0usize;
        for r in trace.records() {
            for (a, _) in &r.mem_reads {
                if in_window.contains_key(a) {
                    redundant += 1;
                }
                loads += 1;
                push(&mut window, &mut in_window, *a);
            }
            for (a, _) in &r.mem_writes {
                push(&mut window, &mut in_window, *a);
            }
        }
        let load_redundancy = if loads == 0 {
            0.0
        } else {
            redundant as f64 / loads as f64
        };

        // Alias rate: stores to addresses written by >1 static PC.
        let mut writer: HashMap<u32, (u32, bool)> = HashMap::new();
        for r in trace.records() {
            for (a, _) in &r.mem_writes {
                let e = writer.entry(*a).or_insert((r.addr, false));
                if e.0 != r.addr {
                    e.1 = true;
                }
            }
        }
        let mut stores = 0usize;
        let mut aliased = 0usize;
        for r in trace.records() {
            for (a, _) in &r.mem_writes {
                stores += 1;
                if writer.get(a).is_some_and(|(_, multi)| *multi) {
                    aliased += 1;
                }
            }
        }
        let alias_rate = if stores == 0 {
            0.0
        } else {
            aliased as f64 / stores as f64
        };

        // Mean call depth across the dynamic stream.
        let mut depth = 0u64;
        let mut depth_sum = 0u64;
        for r in trace.records() {
            depth_sum += depth;
            match r.inst {
                Inst::Call { .. } => depth += 1,
                Inst::Ret => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        let call_depth = if trace.is_empty() {
            0.0
        } else {
            (depth_sum as f64 / trace.len() as f64) / CALL_DEPTH_SCALE
        };

        StatProfile {
            mix,
            branch_bias,
            load_redundancy,
            alias_rate,
            call_depth,
        }
    }

    /// The profile as `(dimension name, value)` pairs, in a fixed order.
    pub fn components(&self) -> [(&'static str, f64); PROFILE_DIMS] {
        [
            ("mix.alu", self.mix[0]),
            ("mix.load", self.mix[1]),
            ("mix.store", self.mix[2]),
            ("mix.rmw", self.mix[3]),
            ("mix.br_cond", self.mix[4]),
            ("mix.br_dir", self.mix[5]),
            ("mix.br_ind", self.mix[6]),
            ("mix.muldiv", self.mix[7]),
            ("mix.other", self.mix[8]),
            ("branch_bias", self.branch_bias),
            ("load_redundancy", self.load_redundancy),
            ("alias_rate", self.alias_rate),
            ("call_depth", self.call_depth),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn empty_trace_measures_all_zero() {
        let p = StatProfile::measure(&Trace::new("empty", Vec::new()));
        for (name, v) in p.components() {
            assert_eq!(v, 0.0, "{name}");
        }
    }

    #[test]
    fn measure_is_deterministic_and_plausible() {
        let t = workloads::by_name("excel").unwrap().segment_trace(0, 8_000);
        let a = StatProfile::measure(&t);
        let b = StatProfile::measure(&t);
        assert_eq!(a, b);
        // All dims in [0, 1]; mix sums to 1.
        for (name, v) in a.components() {
            assert!((0.0..=1.0).contains(&v), "{name} = {v}");
        }
        let mix_sum: f64 = a.mix.iter().sum();
        assert!((mix_sum - 1.0).abs() < 1e-9, "mix sums to {mix_sum}");
        // Synthetic suite branches are mostly biased.
        assert!(a.branch_bias > 0.6, "branch_bias = {}", a.branch_bias);
    }

    #[test]
    fn alias_heavy_workload_scores_higher_alias_rate() {
        let excel = workloads::by_name("excel")
            .unwrap()
            .segment_trace(0, 10_000);
        let gzip = workloads::by_name("gzip").unwrap().segment_trace(0, 10_000);
        let pe = StatProfile::measure(&excel);
        let pg = StatProfile::measure(&gzip);
        assert!(
            pe.alias_rate > pg.alias_rate,
            "excel {} vs gzip {}",
            pe.alias_rate,
            pg.alias_rate
        );
    }
}
