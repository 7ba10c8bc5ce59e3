//! Pass introspection: named handles for the seven optimization passes.
//!
//! The pipeline driver ([`crate::optimize`]) and the differential checking
//! harness (`replay-check`) both need to invoke passes individually — the
//! driver to run the paper's fixed order, the harness to run arbitrary
//! permutations and prefixes of it. [`PassId`] names each pass and
//! [`run_pass`] dispatches one by name, updating an [`OptStats`] the same
//! way the full pipeline would.

use crate::alias::AliasProfile;
use crate::passes;
use crate::pipeline::OptConfig;
use crate::{OptFrame, OptStats};
use std::fmt;

/// One of the seven optimization passes, in the pipeline's canonical order.
///
/// The short names follow the paper's Figure 10 ablation labels where one
/// exists (`NOP`, `CP`, `RA`, `ASST`, `SF`, `CSE`); the memory pass (store
/// forwarding + redundant-load elimination) is `MEM` and dead-code
/// elimination is `DCE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PassId {
    /// NOP and intra-frame unconditional-jump removal.
    NopRemoval,
    /// Constant propagation (including provably-true assert deletion).
    ConstProp,
    /// Reassociation and copy propagation.
    Reassociate,
    /// Value-assertion fusion (`Cmp`/`Test` + `Assert` → one uop).
    AssertFuse,
    /// Memory optimization: store forwarding + redundant-load elimination.
    MemoryOpt,
    /// Common-subexpression elimination over ALU values.
    CseAlu,
    /// Dead-code elimination (the collector every other pass relies on).
    Dce,
}

impl PassId {
    /// Every pass, in the pipeline's canonical order (§6.4): NOP → CP → RA
    /// → ASST → MEM → CSE → DCE.
    pub const ALL: [PassId; 7] = [
        PassId::NopRemoval,
        PassId::ConstProp,
        PassId::Reassociate,
        PassId::AssertFuse,
        PassId::MemoryOpt,
        PassId::CseAlu,
        PassId::Dce,
    ];

    /// The pass's short label.
    pub fn name(self) -> &'static str {
        match self {
            PassId::NopRemoval => "NOP",
            PassId::ConstProp => "CP",
            PassId::Reassociate => "RA",
            PassId::AssertFuse => "ASST",
            PassId::MemoryOpt => "MEM",
            PassId::CseAlu => "CSE",
            PassId::Dce => "DCE",
        }
    }

    /// Looks a pass up by its short label (case insensitive).
    pub fn from_name(name: &str) -> Option<PassId> {
        PassId::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for PassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Runs one pass over a frame under `cfg`'s scope and memory settings,
/// accumulating its counters into `stats`. Returns the number of changes
/// the pass made (the pipeline's quiescence measure: rewrites + removals +
/// fusions + folds). The pass runs whether or not `cfg` enables it (the
/// caller decides, see [`OptConfig::enables`]).
pub fn run_pass(
    f: &mut OptFrame,
    pass: PassId,
    cfg: &OptConfig,
    profile: &AliasProfile,
    stats: &mut OptStats,
) -> u64 {
    match pass {
        PassId::NopRemoval => {
            let n = passes::nop_removal(f);
            stats.nop_removed += n;
            n
        }
        PassId::ConstProp => {
            let r = passes::const_prop(f, cfg.scope);
            stats.const_folded += r.folded;
            stats.asserts_removed += r.asserts_removed;
            r.folded + r.operands_folded + r.asserts_removed
        }
        PassId::Reassociate => {
            let n = passes::reassociate(f, cfg.scope);
            stats.reassociations += n;
            n
        }
        PassId::AssertFuse => {
            let n = passes::assert_fuse(f, cfg.scope);
            stats.assert_fusions += n;
            n
        }
        PassId::MemoryOpt => {
            let r = passes::memory_opt(
                f,
                cfg.scope,
                profile,
                cfg.speculative_memory,
                cfg.store_fwd,
                cfg.cse,
            );
            stats.store_forwards += r.store_forwards;
            stats.cse_loads += r.redundant_loads;
            stats.speculative_load_removals += r.speculative;
            r.store_forwards + r.redundant_loads
        }
        PassId::CseAlu => {
            let n = passes::cse_alu(f, cfg.scope);
            stats.cse_alu += n;
            n
        }
        PassId::Dce => {
            let n = passes::dce(f, cfg.scope);
            stats.dce_removed += n;
            n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for p in PassId::ALL {
            assert_eq!(PassId::from_name(p.name()), Some(p));
            assert_eq!(PassId::from_name(&p.name().to_lowercase()), Some(p));
        }
        assert_eq!(PassId::from_name("BOGUS"), None);
    }

    #[test]
    fn canonical_order_matches_pipeline() {
        // The pipeline's documented order: NOP → CP → RA → ASST → MEM →
        // CSE → DCE. Guard against accidental reordering of ALL.
        let names: Vec<&str> = PassId::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, ["NOP", "CP", "RA", "ASST", "MEM", "CSE", "DCE"]);
    }
}
