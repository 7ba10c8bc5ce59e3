//! Fetch-centric cycle accounting (the paper's Figures 7/8 bins).

use std::fmt;
use std::ops::AddAssign;

/// The seven cycle categories of the paper's breakdown, in the paper's
/// priority order (§6.1): a cycle is classified by the fetch event that
/// occurred during it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CycleBin {
    /// Cycles between fetching a frame with a firing assertion and
    /// completing its recovery.
    Assert,
    /// Cycles waiting for a mispredicted branch (or BTB miss) to resolve.
    Mispredict,
    /// Frame-cache or ICache miss cycles.
    Miss,
    /// Cycles with a full downstream buffer (scheduling window).
    Stall,
    /// Turnaround cycles switching between frame cache and ICache fetch.
    Wait,
    /// Cycles spent fetching from the frame cache.
    Frame,
    /// Cycles spent fetching from the ICache.
    ICache,
}

impl CycleBin {
    /// All bins in the paper's priority/legend order.
    pub const ALL: [CycleBin; 7] = [
        CycleBin::Assert,
        CycleBin::Mispredict,
        CycleBin::Miss,
        CycleBin::Stall,
        CycleBin::Wait,
        CycleBin::Frame,
        CycleBin::ICache,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            CycleBin::Assert => "assert",
            CycleBin::Mispredict => "mispred",
            CycleBin::Miss => "miss",
            CycleBin::Stall => "stall",
            CycleBin::Wait => "wait",
            CycleBin::Frame => "frame",
            CycleBin::ICache => "icache",
        }
    }
}

impl fmt::Display for CycleBin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Cycle counts per bin.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBins {
    counts: [u64; 7],
}

impl CycleBins {
    /// Creates zeroed bins.
    pub fn new() -> CycleBins {
        CycleBins::default()
    }

    /// Adds `cycles` to a bin.
    pub fn add(&mut self, bin: CycleBin, cycles: u64) {
        self.counts[Self::idx(bin)] += cycles;
    }

    /// The count in a bin.
    pub fn get(&self, bin: CycleBin) -> u64 {
        self.counts[Self::idx(bin)]
    }

    /// Total cycles across all bins.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The fraction of cycles in a bin (zero when no cycles recorded).
    pub fn fraction(&self, bin: CycleBin) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.get(bin) as f64 / t as f64
        }
    }

    fn idx(bin: CycleBin) -> usize {
        CycleBin::ALL
            .iter()
            .position(|b| *b == bin)
            .expect("bin in ALL")
    }

    /// Records every bin under `<prefix>.<label>` into a
    /// [`replay_obs::Profile`], plus `<prefix>.total`.
    pub fn observe_into(&self, prefix: &str, profile: &mut replay_obs::Profile) {
        for bin in CycleBin::ALL {
            profile.counter_add(&format!("{prefix}.{}", bin.label()), self.get(bin));
        }
        profile.counter_add(&format!("{prefix}.total"), self.total());
    }
}

impl AddAssign for CycleBins {
    fn add_assign(&mut self, o: CycleBins) {
        for (a, b) in self.counts.iter_mut().zip(o.counts) {
            *a += b;
        }
    }
}

impl fmt::Display for CycleBins {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for bin in CycleBin::ALL {
            if !first {
                write!(f, " ")?;
            }
            write!(f, "{}={}", bin.label(), self.get(bin))?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut b = CycleBins::new();
        b.add(CycleBin::Frame, 10);
        b.add(CycleBin::Assert, 2);
        b.add(CycleBin::Frame, 5);
        assert_eq!(b.get(CycleBin::Frame), 15);
        assert_eq!(b.total(), 17);
        assert!((b.fraction(CycleBin::Assert) - 2.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn accumulate() {
        let mut a = CycleBins::new();
        a.add(CycleBin::ICache, 3);
        let mut b = CycleBins::new();
        b.add(CycleBin::ICache, 4);
        b.add(CycleBin::Wait, 1);
        a += b;
        assert_eq!(a.get(CycleBin::ICache), 7);
        assert_eq!(a.get(CycleBin::Wait), 1);
    }

    #[test]
    fn labels_match_paper() {
        let labels: Vec<_> = CycleBin::ALL.iter().map(|b| b.label()).collect();
        assert_eq!(
            labels,
            vec!["assert", "mispred", "miss", "stall", "wait", "frame", "icache"]
        );
    }

    #[test]
    fn display_lists_all_bins() {
        let mut b = CycleBins::new();
        b.add(CycleBin::Stall, 9);
        let s = b.to_string();
        assert!(s.contains("stall=9"));
        assert!(s.contains("icache=0"));
    }
}
