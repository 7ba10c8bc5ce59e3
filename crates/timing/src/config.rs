//! Processor configuration (paper Table 2).

use crate::cache::CacheConfig;
use crate::ports::CoreModel;

/// The timing model's processor parameters.
///
/// Defaults reproduce Table 2 of the paper; named constructors give the
/// ICache-only reference configuration its larger instruction cache.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Fetch/issue/retire width in uops (paper: 8).
    pub width: usize,
    /// Maximum x86 instructions decoded per cycle on the ICache path
    /// (paper: 4).
    pub x86_decode_width: usize,
    /// Minimum cycles between fetching a branch (or assert) and its
    /// earliest possible execution (paper: 15). Applies only to
    /// branch/assert uops; other uops are floored by the shallower
    /// [`TimingConfig::front_end_depth`].
    pub branch_resolution_depth: u64,
    /// Front-end pipeline depth: minimum cycles between fetching *any*
    /// uop and its earliest possible execution (fetch → decode → rename →
    /// schedule). The paper specifies only the branch-resolution number;
    /// 8 models a front end roughly half that deep.
    pub front_end_depth: u64,
    /// Scheduling-window capacity in uops (paper: 512).
    pub window: usize,
    /// gshare global-history length in bits (paper: 18).
    pub gshare_bits: u32,
    /// Instruction cache geometry.
    pub icache: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// L1 data hit latency (paper: 2).
    pub l1d_latency: u64,
    /// L2 hit latency (paper: 10).
    pub l2_latency: u64,
    /// Memory latency (paper: 50).
    pub memory_latency: u64,
    /// Frame/trace cache capacity in uops (paper: 16K ≈ 64 kB).
    pub frame_cache_uops: usize,
    /// Idle cycle charged when fetch switches between the frame cache and
    /// the ICache (the paper's Wait cycles).
    pub cache_switch_wait: u64,
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
            width: 8,
            x86_decode_width: 4,
            window: 512,
            gshare_bits: 18,
            icache: CacheConfig {
                size_bytes: 8 * 1024,
                line_bytes: 64,
                assoc: 2,
            },
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 64,
                assoc: 4,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                line_bytes: 64,
                assoc: 8,
            },
            l1d_latency: 2,
            l2_latency: 10,
            memory_latency: 50,
            frame_cache_uops: 16 * 1024,
            cache_switch_wait: 1,
            branch_resolution_depth: 15,
            front_end_depth: 8,
            core_model: CoreModel::Generic,
        }
    }

    /// The paper's ICache-only reference configuration: a 64 kB ICache and
    /// no frame/trace cache.
    pub fn icache_reference() -> TimingConfig {
        TimingConfig {
            icache: CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 64,
                assoc: 2,
            },
            frame_cache_uops: 0,
            ..TimingConfig::paper_default()
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
        assert_eq!(c.width, 8);
        assert_eq!(c.x86_decode_width, 4);
        assert_eq!(c.branch_resolution_depth, 15);
        assert_eq!(c.window, 512);
        let units: Vec<_> = c
            .core_model
            .table()
            .ports()
            .iter()
            .map(|p| p.pipes)
            .collect();
        assert_eq!(units, [6, 2, 4], "simple, complex and load/store units");
        assert_eq!(c.gshare_bits, 18);
        assert_eq!(c.l1d.size_bytes, 32 * 1024);
        assert_eq!(c.l1d_latency, 2);
        assert_eq!(c.l2.size_bytes, 512 * 1024);
        assert_eq!(c.l2_latency, 10);
        assert_eq!(c.memory_latency, 50);
        assert_eq!(c.frame_cache_uops, 16 * 1024);
        assert_eq!(c.icache.size_bytes, 8 * 1024);
        assert_eq!(c.core_model, CoreModel::Generic);
        assert!(c.front_end_depth < c.branch_resolution_depth);
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
        assert_eq!(c.icache.size_bytes, 64 * 1024);
        assert_eq!(c.frame_cache_uops, 0);
        assert_eq!(c.window, 512);
    }
}
