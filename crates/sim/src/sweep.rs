//! Adversarial stress sweeps: walk generator parameters toward a
//! pathological corner and record where the RPO IPC gain collapses.
//!
//! [`run_sweep`] walks generator parameters ([`GenParams`]) from a benign
//! base toward a pathological corner (assert-storm, alias-heavy,
//! predictor-hostile), measures the RPO-over-RP IPC gain at every step,
//! and records where the gain collapses below a floor. The result
//! serializes as a deterministic `replay-clone/v1` JSON artifact (no
//! wall-clock fields), byte-identical across runs, job counts, and
//! machines.

use crate::experiment::{gain_points, grid, Column, GainPoint};
use crate::{parallel, ConfigKind, CoreModel, TraceStore};
use replay_trace::{GenParams, StatProfile, Suite, Workload};

/// The schema tag stamped on every sweep artifact.
pub const SCHEMA: &str = "replay-clone/v1";

/// A pathological corner of generator-parameter space. Each corner is a
/// straight-line trajectory from a benign base to an extreme point; the
/// sweep samples it at evenly-spaced steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corner {
    /// Branches stay biased enough to convert into assertions but fire
    /// often enough that recovery swamps the optimizer's winnings.
    AssertStorm,
    /// Stores increasingly alias the hot slot, defeating speculative
    /// store forwarding and triggering unsafe-store aborts.
    AliasHeavy,
    /// Unpredictable branch clusters and varied indirect jumps shred
    /// frame construction and the bias table.
    PredictorHostile,
}

impl Corner {
    /// Every corner, in sweep (and artifact) order.
    pub const ALL: [Corner; 3] = [
        Corner::AssertStorm,
        Corner::AliasHeavy,
        Corner::PredictorHostile,
    ];

    /// Stable corner name used in CLI arguments and JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            Corner::AssertStorm => "assert-storm",
            Corner::AliasHeavy => "alias-heavy",
            Corner::PredictorHostile => "predictor-hostile",
        }
    }

    /// Parses a corner name (as printed by [`Corner::name`]).
    pub fn parse(s: &str) -> Option<Corner> {
        Corner::ALL.into_iter().find(|c| c.name() == s)
    }

    /// The benign end of this corner's trajectory: a SPECint-shaped
    /// program with strongly biased branches, little aliasing, and a mild
    /// optimizer-friendly mix — comfortably inside the regime where RPO
    /// wins (the paper's Figure 6 situation).
    fn base(&self) -> GenParams {
        // Close to `eon`'s tuning: strongly biased branches, no aliasing,
        // no coin-flip branches — the suite's most optimizer-friendly
        // shape (about +6 % RPO gain at the default sweep scale).
        GenParams {
            seed: 0, // overwritten with the sweep seed
            body_phrases: 30,
            //        LC RL SP AC BB UB AS TW SB NP DV SW BM
            weights: [4, 2, 1, 16, 5, 0, 0, 5, 2, 0, 2, 0, 2],
            bias_frac: 0.997,
            alias_rate: 0.0,
            shared_callees: false,
            switch_varied: 0.02,
            longflow: true,
        }
    }

    /// The pathological end of the trajectory.
    fn extreme(&self) -> GenParams {
        let mut p = self.base();
        match self {
            Corner::AssertStorm => {
                // More convertible branches, each firing its assertion
                // a few percent of the time: conversion still happens
                // (runs of ~20 dominant outcomes stay common) but every
                // fired assertion costs a pipeline flush and a replay.
                p.weights[4] = 24; // biased_branch
                p.weights[3] = 6; // arith_chain down: branches dominate
                p.bias_frac = 0.95;
            }
            Corner::AliasHeavy => {
                // Figure 10's excel pathology, amplified: most pointer
                // stores land on the hot slot, so speculative forwarding
                // and store-order optimizations backfire.
                p.weights[6] = 10; // alias_store
                p.weights[8] = 5; // store_burst
                p.weights[3] = 6;
                p.alias_rate = 0.65;
            }
            Corner::PredictorHostile => {
                // Coin-flip branch clusters and varied indirect targets:
                // frames die young, coverage collapses, and what frames
                // survive carry no convertible branches.
                p.weights[5] = 14; // unbiased_branch
                p.weights[12] = 16; // branch_maze
                p.weights[11] = 10; // switch_jump
                p.weights[4] = 0;
                p.weights[3] = 4;
                p.weights[1] = 0; // redundant_loads: nothing left to elide
                p.weights[10] = 0; // div_chain
                p.switch_varied = 0.8;
            }
        }
        p
    }

    /// The trajectory point at interpolation fraction `t` in `[0, 1]`.
    fn at(&self, t: f64, seed: u64) -> GenParams {
        let a = self.base();
        let b = self.extreme();
        let li = |x: u32, y: u32| (x as f64 + (y as f64 - x as f64) * t).round() as u32;
        let lf = |x: f64, y: f64| x + (y - x) * t;
        GenParams {
            seed,
            body_phrases: li(a.body_phrases as u32, b.body_phrases as u32) as usize,
            weights: {
                let mut w = [0u32; 13];
                for (i, slot) in w.iter_mut().enumerate() {
                    *slot = li(a.weights[i], b.weights[i]);
                }
                w
            },
            bias_frac: lf(a.bias_frac, b.bias_frac),
            alias_rate: lf(a.alias_rate, b.alias_rate),
            shared_callees: a.shared_callees,
            switch_varied: lf(a.switch_varied, b.switch_varied),
            longflow: a.longflow,
        }
    }
}

/// Sweep configuration. Every field participates in the deterministic
/// result.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seed stamped into every synthesized point's generator.
    pub seed: u64,
    /// Samples per corner trajectory (step 0 = base, last = extreme); at
    /// least 2.
    pub steps: usize,
    /// Dynamic x86 instructions per trace.
    pub scale: usize,
    /// The RPO-over-RP gain (percent) below which a point counts as
    /// collapsed.
    pub gain_floor_pct: f64,
    /// Worker threads; any value yields the identical artifact.
    pub jobs: usize,
    /// Corners to sweep, in order.
    pub corners: Vec<Corner>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            // Pinned to a seed whose benign base point shows a healthy
            // positive RPO gain at the default scale, so collapse along a
            // trajectory is attributable to the stress axis, not the seed.
            seed: 0xe0e0,
            steps: 6,
            scale: 6_000,
            gain_floor_pct: 1.0,
            jobs: 1,
            corners: Corner::ALL.to_vec(),
        }
    }
}

/// One sampled point along a corner trajectory.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Corner name.
    pub corner: &'static str,
    /// Step index along the trajectory.
    pub step: usize,
    /// Interpolation fraction (`step / (steps - 1)`).
    pub frac: f64,
    /// Specification digest of the synthesized workload — enough, with
    /// the seed, to regenerate the exact trace.
    pub spec_digest: u64,
    /// The generator parameters the point's workload was synthesized from.
    pub params: GenParams,
    /// The RP-vs-RPO measurement.
    pub gain: GainPoint,
    /// The point's measured statistical profile.
    pub profile: StatProfile,
}

/// One corner's full trajectory plus its discovered collapse point.
#[derive(Debug, Clone)]
pub struct CornerResult {
    /// Corner name.
    pub corner: &'static str,
    /// All sampled points, in step order.
    pub points: Vec<SweepPoint>,
    /// The first step whose gain fell below the floor, if any.
    pub collapse_step: Option<usize>,
}

/// A complete sweep: per-corner trajectories and the configuration that
/// produced them.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The configuration the sweep ran with (echoed into the artifact).
    pub config: SweepConfig,
    /// Per-corner results, in configuration order.
    pub corners: Vec<CornerResult>,
}

/// Runs the sweep: every `(corner, step)` point is synthesized, profiled,
/// and simulated under RP and RPO — all points batched through one
/// order-preserving parallel map, so the artifact is bit-identical at any
/// `jobs`.
///
/// # Panics
///
/// Panics if `cfg.steps < 2`: a trajectory needs both of its endpoints.
pub fn run_sweep(cfg: &SweepConfig) -> SweepResult {
    let steps = cfg.steps;
    assert!(steps >= 2, "a sweep samples at least 2 steps, got {steps}");
    let points: Vec<(Corner, usize, f64)> = cfg
        .corners
        .iter()
        .flat_map(|c| (0..steps).map(move |s| (*c, s, s as f64 / (steps - 1) as f64)))
        .collect();
    let workloads: Vec<Workload> = points
        .iter()
        .map(|&(c, s, frac)| {
            let name = format!("{}-{s}", c.name());
            Workload::custom(name, Suite::SpecInt, 1, cfg.scale, c.at(frac, cfg.seed))
        })
        .collect();

    // Profiles first (this also warms the trace store for the specs).
    let profiles: Vec<StatProfile> = parallel::par_map(cfg.jobs, &workloads, |w| {
        StatProfile::measure(&TraceStore::global().segment(w, 0, cfg.scale))
    });

    // One batch: RP and RPO for every point.
    let cols = [ConfigKind::Replay, ConfigKind::ReplayOpt].map(Column::Kind);
    let rp_rpo = grid(&workloads, cfg.scale, cfg.jobs, CoreModel::Generic, &cols);

    let mut corners: Vec<CornerResult> = Vec::new();
    for ((&(corner, step, frac), w), (profile, gain)) in points
        .iter()
        .zip(&workloads)
        .zip(profiles.iter().zip(gain_points(&rp_rpo)))
    {
        if step == 0 {
            corners.push(CornerResult {
                corner: corner.name(),
                points: Vec::new(),
                collapse_step: None,
            });
        }
        let cr = corners.last_mut().expect("step 0 opened the corner");
        if cr.collapse_step.is_none() && gain.rpo_gain_pct < cfg.gain_floor_pct {
            cr.collapse_step = Some(step);
        }
        cr.points.push(SweepPoint {
            corner: corner.name(),
            step,
            frac,
            spec_digest: w.spec_digest(),
            params: *w.params(),
            gain,
            profile: *profile,
        });
    }
    SweepResult {
        config: cfg.clone(),
        corners,
    }
}

impl SweepResult {
    /// Serializes the sweep as a `replay-clone/v1` JSON artifact
    /// (`"kind": "sweep"`). No wall-clock or host fields: the bytes are a
    /// pure function of the configuration, so a golden artifact can be
    /// byte-compared in CI.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{{\n  \"schema\": \"{SCHEMA}\",\n  \"kind\": \"sweep\",\n"
        ));
        s.push_str(&format!("  \"seed\": {},\n", self.config.seed));
        s.push_str(&format!("  \"steps\": {},\n", self.config.steps));
        s.push_str(&format!("  \"scale\": {},\n", self.config.scale));
        s.push_str(&format!(
            "  \"gain_floor_pct\": {},\n",
            json_f64(self.config.gain_floor_pct)
        ));
        s.push_str("  \"corners\": [\n");
        for (ci, corner) in self.corners.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"corner\": \"{}\", \"collapse_step\": {},\n     \"points\": [\n",
                corner.corner,
                match corner.collapse_step {
                    Some(step) => step.to_string(),
                    None => "null".to_string(),
                }
            ));
            for (pi, p) in corner.points.iter().enumerate() {
                s.push_str(&format!(
                    "      {{\"step\": {}, \"frac\": {}, \"spec_digest\": \"{:016x}\", \
                     \"params\": {}, \"rp_ipc\": {}, \"rpo_ipc\": {}, \"rpo_gain_pct\": {}, \
                     \"coverage\": {}, \"assert_cycle_frac\": {}, \"profile\": {}}}{}\n",
                    p.step,
                    json_f64(p.frac),
                    p.spec_digest,
                    params_json(&p.params),
                    json_f64(p.gain.rp_ipc),
                    json_f64(p.gain.rpo_ipc),
                    json_f64(p.gain.rpo_gain_pct),
                    json_f64(p.gain.coverage),
                    json_f64(p.gain.assert_cycle_frac),
                    profile_json(&p.profile),
                    if pi + 1 == corner.points.len() {
                        ""
                    } else {
                        ","
                    }
                ));
            }
            s.push_str(&format!(
                "    ]}}{}\n",
                if ci + 1 == self.corners.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Formats an `f64` as a JSON number (Rust's shortest-roundtrip `{:?}`
/// output is valid JSON for every finite value).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Serializes a [`GenParams`] as a JSON object — enough to regenerate the
/// workload exactly.
fn params_json(p: &GenParams) -> String {
    let weights: Vec<String> = p.weights.iter().map(|w| w.to_string()).collect();
    format!(
        "{{\"seed\":{},\"body_phrases\":{},\"weights\":[{}],\"bias_frac\":{},\
         \"alias_rate\":{},\"shared_callees\":{},\"switch_varied\":{},\"longflow\":{}}}",
        p.seed,
        p.body_phrases,
        weights.join(","),
        json_f64(p.bias_frac),
        json_f64(p.alias_rate),
        p.shared_callees,
        json_f64(p.switch_varied),
        p.longflow,
    )
}

/// Serializes a [`StatProfile`] as a JSON object keyed by dimension name.
fn profile_json(p: &StatProfile) -> String {
    let fields: Vec<String> = p
        .components()
        .iter()
        .map(|(name, v)| format!("\"{}\":{}", name.replace('.', "_"), json_f64(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_cfg() -> SweepConfig {
        SweepConfig {
            steps: 3,
            scale: 1_500,
            corners: vec![Corner::AliasHeavy],
            ..SweepConfig::default()
        }
    }

    #[test]
    fn corner_names_round_trip() {
        for c in Corner::ALL {
            assert_eq!(Corner::parse(c.name()), Some(c));
        }
        assert_eq!(Corner::parse("nonesuch"), None);
    }

    #[test]
    fn trajectory_endpoints_match_base_and_extreme() {
        for c in Corner::ALL {
            let mut base = c.base();
            base.seed = 7;
            let mut extreme = c.extreme();
            extreme.seed = 7;
            assert_eq!(c.at(0.0, 7), base);
            assert_eq!(c.at(1.0, 7), extreme);
            // Every corner actually moves somewhere.
            assert_ne!(c.at(0.0, 7), c.at(1.0, 7), "{}", c.name());
        }
    }

    #[test]
    fn sweep_points_are_ordered_and_digest_distinct() {
        let r = run_sweep(&mini_cfg());
        assert_eq!(r.corners.len(), 1);
        let points = &r.corners[0].points;
        assert_eq!(points.len(), 3);
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.step, i);
        }
        let mut digests: Vec<u64> = points.iter().map(|p| p.spec_digest).collect();
        digests.dedup();
        assert_eq!(digests.len(), 3, "each step is a distinct spec");
    }
}
