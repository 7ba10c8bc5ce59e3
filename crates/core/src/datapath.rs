//! The optimizer datapath latency model (§4, §5.1.4).
//!
//! The paper models the optimization engine abstractly: each frame is
//! optimized with a variable latency of **10 cycles per uop**, and the
//! optimizer is **pipelined with depth 3**, which simulation shows is
//! sufficient to sustain the frame constructor's throughput. This module
//! reproduces that model: frames enter a small pipeline; a frame's service
//! time is `cycles_per_uop × frame_size`, new frames may issue one stage
//! interval (service / depth) after the previous one, and a frame only
//! becomes visible to the frame cache when it leaves the pipeline.

/// Configuration of the optimizer datapath model.
#[derive(Debug, Clone, Copy)]
pub struct DatapathConfig {
    /// Optimization latency per uop (paper: 10 cycles).
    pub cycles_per_uop: u64,
    /// Pipeline depth: how many frames can be in flight (paper: 3).
    pub pipeline_depth: usize,
    /// Backlog capacity; frames arriving when this many frames are waiting
    /// to start are dropped (the paper's alternative to stalling the
    /// constructor).
    pub queue_capacity: usize,
}

impl Default for DatapathConfig {
    fn default() -> DatapathConfig {
        DatapathConfig {
            cycles_per_uop: 10,
            pipeline_depth: 3,
            queue_capacity: 4,
        }
    }
}

#[derive(Debug, Clone)]
struct InFlight<T> {
    payload: T,
    start_at: u64,
    done_at: u64,
}

/// A latency/throughput model of the pipelined optimization engine.
///
/// Generic over the payload so the simulator can push optimized frames (the
/// optimization result is computed instantly in software; the datapath
/// models *when* it becomes architecturally visible).
#[derive(Debug)]
pub struct OptimizerDatapath<T> {
    cfg: DatapathConfig,
    stage_free: Vec<u64>,
    issue_free: u64,
    in_flight: Vec<InFlight<T>>,
    dropped: u64,
    processed: u64,
}

impl<T> OptimizerDatapath<T> {
    /// Creates an idle datapath.
    ///
    /// # Panics
    ///
    /// Panics if the pipeline depth is zero.
    pub fn new(cfg: DatapathConfig) -> OptimizerDatapath<T> {
        assert!(cfg.pipeline_depth > 0, "pipeline depth must be positive");
        OptimizerDatapath {
            stage_free: vec![0; cfg.pipeline_depth],
            issue_free: 0,
            in_flight: Vec::new(),
            dropped: 0,
            processed: 0,
            cfg,
        }
    }

    /// Offers a frame of `uop_count` uops to the optimizer at time `now`.
    /// Returns `false` if the backlog was full and the frame was dropped.
    pub fn offer(&mut self, payload: T, uop_count: usize, now: u64) -> bool {
        let waiting = self.in_flight.iter().filter(|f| f.start_at > now).count();
        if waiting >= self.cfg.queue_capacity {
            self.dropped += 1;
            return false;
        }
        let stage = self
            .stage_free
            .iter()
            .enumerate()
            .min_by_key(|(_, &t)| t)
            .map(|(i, _)| i)
            .expect("at least one stage");
        let service = self.cfg.cycles_per_uop * uop_count.max(1) as u64;
        let start_at = now.max(self.stage_free[stage]).max(self.issue_free);
        let done_at = start_at + service;
        self.stage_free[stage] = done_at;
        self.issue_free = start_at + service / self.cfg.pipeline_depth as u64;
        self.in_flight.push(InFlight {
            payload,
            start_at,
            done_at,
        });
        true
    }

    /// Hands `deliver` every frame whose optimization completes by time
    /// `now`, in completion order: by `done_at`, ties in the order the
    /// frames were offered.
    ///
    /// Frames leave the in-flight list one at a time, so a call allocates
    /// nothing; the list holds at most `pipeline_depth + queue_capacity`
    /// frames.
    pub fn drain_completed(&mut self, now: u64, mut deliver: impl FnMut(T)) {
        // `min_by_key` returns the first of equal keys: ties leave in
        // offer order.
        while let Some(i) = (0..self.in_flight.len())
            .filter(|&i| self.in_flight[i].done_at <= now)
            .min_by_key(|&i| self.in_flight[i].done_at)
        {
            self.processed += 1;
            deliver(self.in_flight.remove(i).payload);
        }
    }

    /// Number of frames accepted but not yet retrieved.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Frames dropped due to a full backlog.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Frames that completed optimization and were retrieved.
    pub fn processed(&self) -> u64 {
        self.processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dp() -> OptimizerDatapath<u32> {
        OptimizerDatapath::new(DatapathConfig::default())
    }

    fn completed(d: &mut OptimizerDatapath<u32>, now: u64) -> Vec<u32> {
        let mut out = Vec::new();
        d.drain_completed(now, |f| out.push(f));
        out
    }

    #[test]
    fn latency_is_ten_cycles_per_uop() {
        let mut d = dp();
        assert!(d.offer(1, 32, 0));
        // 32 uops * 10 cycles = 320 cycles.
        assert!(completed(&mut d, 319).is_empty());
        assert_eq!(completed(&mut d, 320), vec![1]);
        assert_eq!(d.processed(), 1);
    }

    #[test]
    fn pipelining_overlaps_frames() {
        let mut d = dp();
        assert!(d.offer(1, 30, 0)); // starts 0, done 300
        assert!(d.offer(2, 30, 0)); // issues at 100, done 400
        assert!(d.offer(3, 30, 0)); // issues at 200, done 500
        assert_eq!(completed(&mut d, 300), vec![1]);
        assert_eq!(completed(&mut d, 400), vec![2]);
        assert_eq!(completed(&mut d, 500), vec![3]);
    }

    #[test]
    fn queue_overflow_drops() {
        let cfg = DatapathConfig {
            cycles_per_uop: 10,
            pipeline_depth: 1,
            queue_capacity: 1,
        };
        let mut d: OptimizerDatapath<u32> = OptimizerDatapath::new(cfg);
        assert!(d.offer(1, 100, 0)); // in service until 1000
        assert!(d.offer(2, 100, 0)); // backlogged (starts at 1000)
        assert!(!d.offer(3, 100, 0), "backlog full: dropped");
        assert_eq!(d.dropped(), 1);
        assert_eq!(d.occupancy(), 2);
    }

    #[test]
    fn queued_frames_start_after_pipeline_frees() {
        let cfg = DatapathConfig {
            cycles_per_uop: 10,
            pipeline_depth: 1,
            queue_capacity: 8,
        };
        let mut d: OptimizerDatapath<u32> = OptimizerDatapath::new(cfg);
        d.offer(1, 10, 0); // done at 100
        d.offer(2, 10, 0); // starts at 100, done at 200
        assert_eq!(completed(&mut d, 100), vec![1]);
        assert!(completed(&mut d, 150).is_empty());
        assert_eq!(completed(&mut d, 200), vec![2]);
    }

    #[test]
    fn completion_order_is_by_time() {
        let mut d = dp();
        d.offer(1, 100, 0); // done at 1000
        d.offer(2, 10, 0); // issues ~333, done ~433
        let out = completed(&mut d, 10_000);
        assert_eq!(out, vec![2, 1]);
    }

    #[test]
    fn completion_ties_keep_offer_order() {
        let cfg = DatapathConfig {
            cycles_per_uop: 10,
            pipeline_depth: 3,
            queue_capacity: 8,
        };
        let mut d: OptimizerDatapath<u32> = OptimizerDatapath::new(cfg);
        d.offer(1, 60, 0); // starts 0, done 600
        d.offer(2, 30, 0); // issues 200, done 500
        d.offer(3, 20, 0); // issues 300, done 500
        d.offer(4, 30, 0); // waits for a stage: starts 500, done 800
        assert_eq!(completed(&mut d, 550), vec![2, 3]);
        assert_eq!(completed(&mut d, 10_000), vec![1, 4]);
        assert_eq!(d.processed(), 4);
        assert_eq!(d.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn zero_depth_rejected() {
        let cfg = DatapathConfig {
            cycles_per_uop: 10,
            pipeline_depth: 0,
            queue_capacity: 1,
        };
        let _: OptimizerDatapath<u32> = OptimizerDatapath::new(cfg);
    }
}
