//! Simulation configurations.

use replay_core::{DatapathConfig, OptConfig};
use replay_frame::ConstructorConfig;
use replay_timing::{CoreModel, TimingConfig};
use std::fmt;

/// The four processor configurations of the paper's evaluation (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConfigKind {
    /// 64 kB ICache reference (IC).
    ICache,
    /// 16K-uop trace cache + 8 kB ICache (TC).
    TraceCache,
    /// Basic rePLay: frames deposited unoptimized (RP).
    Replay,
    /// rePLay with the optimization engine (RPO).
    ReplayOpt,
}

impl ConfigKind {
    /// All four configurations in the paper's presentation order.
    pub const ALL: [ConfigKind; 4] = [
        ConfigKind::ICache,
        ConfigKind::TraceCache,
        ConfigKind::Replay,
        ConfigKind::ReplayOpt,
    ];

    /// The figure label (IC / TC / RP / RPO).
    pub fn label(self) -> &'static str {
        match self {
            ConfigKind::ICache => "IC",
            ConfigKind::TraceCache => "TC",
            ConfigKind::Replay => "RP",
            ConfigKind::ReplayOpt => "RPO",
        }
    }

    /// True for the two rePLay configurations.
    pub fn uses_frames(self) -> bool {
        matches!(self, ConfigKind::Replay | ConfigKind::ReplayOpt)
    }
}

impl fmt::Display for ConfigKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Host-side hot-path execution knobs.
///
/// These control *how fast the simulator runs*, never *what it computes*:
/// specialization falls back to the interpreter on any divergence-capable
/// event, so every simulated number is identical at every setting.
#[derive(Debug, Clone, Copy)]
pub struct HotpathConfig {
    /// Frame-cache hit count after which a cached frame's `OptFrame` is
    /// compiled to a [`replay_core::ExecPlan`]. `0` disables
    /// specialization entirely (pure interpreter).
    pub spec_threshold: u32,
}

impl Default for HotpathConfig {
    fn default() -> HotpathConfig {
        HotpathConfig { spec_threshold: 8 }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which processor organization to model.
    pub kind: ConfigKind,
    /// Timing-model parameters (Table 2).
    pub timing: TimingConfig,
    /// Optimizer configuration (used by [`ConfigKind::ReplayOpt`]).
    pub opt: OptConfig,
    /// Frame-constructor parameters.
    pub constructor: ConstructorConfig,
    /// Optimizer-datapath latency model.
    pub datapath: DatapathConfig,
    /// Run the state verifier on every optimized frame (differential
    /// check against the unoptimized form). Slows simulation; on by
    /// default to mirror the paper's methodology.
    pub verify: bool,
    /// Host-side hot-path execution knobs (frame specialization).
    pub hotpath: HotpathConfig,
}

impl SimConfig {
    /// The paper's configuration for a given organization: the ICache
    /// reference gets the 64 kB instruction cache, everything else the
    /// 8 kB ICache + 16K-uop frame/trace cache.
    pub fn new(kind: ConfigKind) -> SimConfig {
        let timing = match kind {
            ConfigKind::ICache => TimingConfig::icache_reference(),
            _ => TimingConfig::paper_default(),
        };
        SimConfig {
            kind,
            timing,
            opt: OptConfig::default(),
            constructor: ConstructorConfig::default(),
            datapath: DatapathConfig::default(),
            verify: true,
            hotpath: HotpathConfig::default(),
        }
    }

    /// Replaces the optimizer configuration (builder style).
    pub fn with_opt(mut self, opt: OptConfig) -> SimConfig {
        self.opt = opt;
        self
    }

    /// Selects the execution-core model (builder style): the paper's
    /// generic Table 2 unit pool or the port-accurate model.
    pub fn with_core_model(mut self, model: CoreModel) -> SimConfig {
        self.timing.core_model = model;
        self
    }

    /// Disables in-simulation verification (builder style).
    pub fn without_verify(mut self) -> SimConfig {
        self.verify = false;
        self
    }

    /// Replaces the specialization threshold (builder style); `0`
    /// disables specialized frame execution.
    pub fn with_spec_threshold(mut self, threshold: u32) -> SimConfig {
        self.hotpath.spec_threshold = threshold;
        self
    }

    /// Disables the specialized frame fast path (builder style) — every
    /// frame probe runs through the interpreter.
    pub fn without_specialization(self) -> SimConfig {
        self.with_spec_threshold(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(ConfigKind::ICache.label(), "IC");
        assert_eq!(ConfigKind::ReplayOpt.label(), "RPO");
        assert_eq!(ConfigKind::TraceCache.to_string(), "TC");
    }

    #[test]
    fn icache_config_gets_big_icache() {
        let c = SimConfig::new(ConfigKind::ICache);
        assert_eq!(c.timing.icache_bytes, 64 * 1024);
        let c = SimConfig::new(ConfigKind::ReplayOpt);
        assert_eq!(c.timing.icache_bytes, 8 * 1024);
        assert_eq!(c.timing.frame_cache_uops, 16 * 1024);
    }

    #[test]
    fn frame_usage() {
        assert!(!ConfigKind::ICache.uses_frames());
        assert!(!ConfigKind::TraceCache.uses_frames());
        assert!(ConfigKind::Replay.uses_frames());
        assert!(ConfigKind::ReplayOpt.uses_frames());
    }

    #[test]
    fn builders() {
        let c = SimConfig::new(ConfigKind::ReplayOpt)
            .with_opt(OptConfig::without("SF"))
            .without_verify();
        assert!(!c.opt.store_fwd);
        assert!(!c.verify);
    }

    #[test]
    fn core_model_builder() {
        let c = SimConfig::new(ConfigKind::ReplayOpt);
        assert_eq!(c.timing.core_model, CoreModel::Generic);
        let c = c.with_core_model(CoreModel::PortAccurate);
        assert_eq!(c.timing.core_model, CoreModel::PortAccurate);
    }

    #[test]
    fn hotpath_builders() {
        let c = SimConfig::new(ConfigKind::ReplayOpt);
        assert_eq!(c.hotpath.spec_threshold, 8);
        let c = c.without_specialization();
        assert_eq!(c.hotpath.spec_threshold, 0);
        let c = c.with_spec_threshold(3);
        assert_eq!(c.hotpath.spec_threshold, 3);
    }
}
