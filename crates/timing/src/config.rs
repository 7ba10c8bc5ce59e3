//! Processor configuration (paper Table 2).
//!
//! The paper simulates one fixed machine, so almost all of Table 2 is a
//! named constant here, read directly by the pipeline. Only three values
//! take more than one value anywhere: the instruction-cache size (the
//! ICache-only reference gets 64 kB, every other configuration 8 kB), the
//! frame/trace cache capacity (varied by the capacity sweep), and the
//! execution-core model.

use crate::cache::CacheConfig;
use crate::ports::CoreModel;

/// Fetch/issue/retire width in uops (Table 2: 8).
pub(crate) const WIDTH: usize = 8;

/// Maximum x86 instructions decoded per cycle on the ICache path
/// (Table 2: 4).
pub(crate) const X86_DECODE_WIDTH: usize = 4;

/// Minimum cycles between fetching a branch (or assert) and its earliest
/// possible execution (Table 2: 15). Applies only to branch/assert uops;
/// other uops are floored by the shallower [`FRONT_END_DEPTH`].
pub(crate) const BRANCH_RESOLUTION_DEPTH: u64 = 15;

/// Front-end pipeline depth: minimum cycles between fetching *any* uop and
/// its earliest possible execution (fetch → decode → rename → schedule).
/// The paper specifies only the branch-resolution number; 8 models a front
/// end roughly half that deep.
pub(crate) const FRONT_END_DEPTH: u64 = 8;
const _: () = assert!(FRONT_END_DEPTH < BRANCH_RESOLUTION_DEPTH);

/// Scheduling-window capacity in uops (Table 2: 512).
pub(crate) const WINDOW: usize = 512;

/// gshare global-history length in bits (Table 2: 18).
pub(crate) const GSHARE_BITS: u32 = 18;

/// Instruction-cache line size in bytes; the capacity is
/// [`TimingConfig::icache_bytes`].
const ICACHE_LINE_BYTES: usize = 64;

/// Instruction-cache associativity.
const ICACHE_ASSOC: usize = 2;

/// L1 data cache geometry (Table 2: 32 kB).
pub(crate) const L1D: CacheConfig = CacheConfig {
    size_bytes: 32 * 1024,
    line_bytes: 64,
    assoc: 4,
};

/// Unified L2 geometry (Table 2: 512 kB).
pub(crate) const L2: CacheConfig = CacheConfig {
    size_bytes: 512 * 1024,
    line_bytes: 64,
    assoc: 8,
};

/// L1 data hit latency in cycles (Table 2: 2).
pub(crate) const L1D_LATENCY: u64 = 2;

/// L2 hit latency in cycles (Table 2: 10).
pub(crate) const L2_LATENCY: u64 = 10;

/// Memory latency in cycles (Table 2: 50).
pub(crate) const MEMORY_LATENCY: u64 = 50;

/// Idle cycles charged when fetch switches between the frame cache and
/// the ICache (the paper's Wait cycles).
pub(crate) const CACHE_SWITCH_WAIT: u64 = 1;

/// The timing model's settable processor parameters.
///
/// Defaults reproduce Table 2 of the paper; named constructors give the
/// ICache-only reference configuration its larger instruction cache.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Instruction-cache capacity in bytes (paper: 8 kB next to a frame or
    /// trace cache, 64 kB in the ICache-only reference).
    pub icache_bytes: usize,
    /// Frame/trace cache capacity in uops (paper: 16K ≈ 64 kB).
    pub frame_cache_uops: usize,
    /// Which execution-core model schedules uops: it picks the port table
    /// (functional units, latencies, occupancies) of the `ports` module.
    /// `Generic` is the paper's Table 2 unit pool.
    pub core_model: CoreModel,
}

impl TimingConfig {
    /// The paper's rePLay / Trace-Cache configuration: 8 kB ICache next to
    /// a 16K-uop frame cache.
    pub fn paper_default() -> TimingConfig {
        TimingConfig {
            icache_bytes: 8 * 1024,
            frame_cache_uops: 16 * 1024,
            core_model: CoreModel::Generic,
        }
    }

    /// The paper's ICache-only reference configuration: a 64 kB ICache and
    /// no frame/trace cache.
    pub fn icache_reference() -> TimingConfig {
        TimingConfig {
            icache_bytes: 64 * 1024,
            frame_cache_uops: 0,
            ..TimingConfig::paper_default()
        }
    }

    /// The instruction-cache geometry: the configured capacity over the
    /// fixed line size and associativity.
    pub(crate) fn icache(&self) -> CacheConfig {
        CacheConfig {
            size_bytes: self.icache_bytes,
            line_bytes: ICACHE_LINE_BYTES,
            assoc: ICACHE_ASSOC,
        }
    }
}

impl Default for TimingConfig {
    fn default() -> TimingConfig {
        TimingConfig::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::{PortBinding, PortConfigError, PortSet};

    #[test]
    fn table2_values() {
        let c = TimingConfig::paper_default();
        assert_eq!(WIDTH, 8);
        assert_eq!(X86_DECODE_WIDTH, 4);
        assert_eq!(BRANCH_RESOLUTION_DEPTH, 15);
        assert_eq!(WINDOW, 512);
        let units: Vec<_> = c
            .core_model
            .table()
            .ports()
            .iter()
            .map(|p| p.pipes)
            .collect();
        assert_eq!(units, [6, 2, 4], "simple, complex and load/store units");
        assert_eq!(GSHARE_BITS, 18);
        assert_eq!(L1D.size_bytes, 32 * 1024);
        assert_eq!(L1D_LATENCY, 2);
        assert_eq!(L2.size_bytes, 512 * 1024);
        assert_eq!(L2_LATENCY, 10);
        assert_eq!(MEMORY_LATENCY, 50);
        assert_eq!(c.frame_cache_uops, 16 * 1024);
        assert_eq!(c.icache().size_bytes, 8 * 1024);
        assert_eq!(c.core_model, CoreModel::Generic);
    }

    #[test]
    fn port_model_validates_its_table() {
        let mut table = CoreModel::PortAccurate.table();
        assert!(table.validate().is_ok());
        table.set_binding(
            replay_uop::Opcode::Load,
            PortBinding {
                ports: PortSet::NONE,
                latency: 1,
                occupancy: 1,
            },
        );
        assert_eq!(
            table.validate(),
            Err(PortConfigError::UnboundOpcode(replay_uop::Opcode::Load))
        );
    }

    #[test]
    fn icache_reference_differs_only_in_fetch_path() {
        let c = TimingConfig::icache_reference();
        assert_eq!(
            c.icache(),
            CacheConfig {
                size_bytes: 64 * 1024,
                ..TimingConfig::paper_default().icache()
            }
        );
        assert_eq!(c.frame_cache_uops, 0);
        assert_eq!(c.core_model, TimingConfig::paper_default().core_model);
    }
}
