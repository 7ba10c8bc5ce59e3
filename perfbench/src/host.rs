//! The host a result was measured on, so a starved run says so.

use crate::stats::{json_num, json_str};

/// Host facts recorded with every result.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs this process may run on (its affinity mask, as `nproc` counts).
    pub nproc: usize,
    /// [`replay_sim::parallel::available_jobs`].
    pub available_jobs: usize,
    /// One-minute load average when the run started.
    pub loadavg: f64,
    /// Threads the workload keeps busy at once.
    pub busy_threads: usize,
    /// [`replay_sim::parallel::degraded`] for `busy_threads`.
    pub degraded: bool,
}

impl Host {
    /// Probes the host for a workload keeping `busy_threads` threads busy.
    pub fn probe(busy_threads: usize) -> Host {
        let available_jobs = replay_sim::parallel::available_jobs();
        Host {
            nproc: affinity_cpus().unwrap_or(available_jobs),
            available_jobs,
            loadavg: std::fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse().ok())
                .unwrap_or(0.0),
            busy_threads,
            degraded: replay_sim::parallel::degraded(busy_threads),
        }
    }

    /// The host as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"available_jobs\": {}, \"loadavg\": {}, \"busy_threads\": {}, \"degraded\": {}, \"os\": {}}}",
            self.nproc,
            self.available_jobs,
            json_num(self.loadavg),
            self.busy_threads,
            self.degraded,
            json_str(std::env::consts::OS)
        )
    }
}

/// Counts the CPUs in this process's affinity mask (`Cpus_allowed_list`),
/// which is what `nproc` reports.
fn affinity_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let mut n = 0;
    for part in list.split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

/// Peak resident memory of this process in MiB (`VmHWM`), or 0.0 where
/// the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))?
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
