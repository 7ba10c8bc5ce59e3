//! Experiment drivers: one function per table / figure of the paper.
//!
//! Every driver takes an explicit workload list and runs it through
//! [`grid`], the one place a paper grid is run: the workloads ×
//! configurations grid becomes one batch of [`SimSpec`]s for
//! [`run_specs`], which fans the individual `(workload, segment,
//! configuration)` jobs across a scoped worker pool ([`crate::parallel`]).
//! Traces come from the process-wide [`TraceStore`], so each segment is
//! synthesized once and shared by every driver and configuration.
//!
//! Parallelism never changes the numbers: each job is a pure function of
//! its inputs, results are collected in submission order, and segments
//! merge in the same order as the serial loop — so driver output is
//! bit-identical for every worker count (`jobs`; `1` runs serially on the
//! calling thread), and a workload's row does not depend on which other
//! workloads share its batch.

use crate::{parallel, simulate, ConfigKind, SimConfig, SimResult, TraceStore};
use replay_core::OptConfig;
use replay_timing::{CoreModel, CycleBin, CycleBins};
use replay_trace::{Suite, Trace, Workload};
use std::sync::Arc;

/// The standard driver configuration: verification off (the drivers
/// reproduce figures, not soundness checks) under the given core model.
fn cfg_model(kind: ConfigKind, model: CoreModel) -> SimConfig {
    SimConfig::new(kind).without_verify().with_core_model(model)
}

/// One simulation request: a workload's trace segments through one
/// configuration. [`run_specs`] simulates the segments (possibly on
/// different threads) and merges them, in order, into one [`SimResult`].
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Name stamped on the merged result.
    pub name: String,
    /// The workload's trace segments, shared with other specs and threads.
    pub traces: Vec<Arc<Trace>>,
    /// The configuration to simulate.
    pub cfg: SimConfig,
}

impl SimSpec {
    /// A spec for `workload`'s memoized traces under `cfg`.
    pub fn for_workload(workload: &Workload, scale: usize, cfg: SimConfig) -> SimSpec {
        SimSpec {
            name: workload.name.to_string(),
            traces: TraceStore::global().traces(workload, scale),
            cfg,
        }
    }
}

/// Runs a batch of specs on `jobs` worker threads and returns one merged
/// result per spec, in spec order.
///
/// The unit of parallelism is the *segment*, not the spec, so a handful of
/// specs with several segments each still saturates the pool. Segment
/// results merge in segment order — the same fold the serial path uses —
/// which keeps every floating-point aggregate bit-identical regardless of
/// `jobs`.
///
/// # Panics
///
/// Panics if a spec has no traces.
pub fn run_specs(specs: &[SimSpec], jobs: usize) -> Vec<SimResult> {
    let flat: Vec<(usize, usize)> = specs
        .iter()
        .enumerate()
        .flat_map(|(si, s)| (0..s.traces.len()).map(move |gi| (si, gi)))
        .collect();
    let mut seg_results = parallel::par_map(jobs, &flat, |&(si, gi)| {
        simulate(&specs[si].traces[gi], &specs[si].cfg)
    })
    .into_iter();
    specs
        .iter()
        .map(|s| {
            assert!(!s.traces.is_empty(), "spec {} has no traces", s.name);
            let mut merged: Option<SimResult> = None;
            for _ in 0..s.traces.len() {
                let r = seg_results.next().expect("one result per segment");
                match &mut merged {
                    Some(m) => m.merge(&r),
                    None => merged = Some(r),
                }
            }
            let mut result = merged.expect("at least one trace");
            result.workload = s.name.clone();
            result
        })
        .collect()
}

/// Runs one workload (all its trace segments) through one configuration
/// and aggregates the per-segment results — the serial reference path
/// [`run_specs`] must match bit for bit.
pub fn run_workload_config(traces: &[Trace], name: &str, cfg: &SimConfig) -> SimResult {
    assert!(!traces.is_empty(), "workload has no traces");
    let mut merged: Option<SimResult> = None;
    for t in traces {
        let r = simulate(t, cfg);
        match &mut merged {
            Some(m) => m.merge(&r),
            None => merged = Some(r),
        }
    }
    let mut result = merged.expect("at least one trace");
    result.workload = name.to_string();
    result
}

/// Runs every workload of `ws` through every configuration of `cfgs` as
/// one batch on `jobs` worker threads: the traces are prefetched, one
/// workload-major spec batch goes to [`run_specs`], and the results come
/// back workload-major — `cfgs.len()` per workload, in `cfgs` order.
pub fn grid(ws: &[Workload], scale: usize, jobs: usize, cfgs: &[SimConfig]) -> Vec<SimResult> {
    TraceStore::global().prefetch(ws, scale, jobs);
    let specs: Vec<SimSpec> = ws
        .iter()
        .flat_map(|w| {
            cfgs.iter()
                .map(move |cfg| SimSpec::for_workload(w, scale, cfg.clone()))
        })
        .collect();
    run_specs(&specs, jobs)
}

/// Runs [`grid`] and folds each workload's `cfgs.len()` results into one
/// row.
fn rows<R>(
    ws: &[Workload],
    scale: usize,
    jobs: usize,
    cfgs: &[SimConfig],
    row: impl Fn(&Workload, &[SimResult]) -> R,
) -> Vec<R> {
    ws.iter()
        .zip(grid(ws, scale, jobs, cfgs).chunks_exact(cfgs.len()))
        .map(|(w, rs)| row(w, rs))
        .collect()
}

/// Percent increase of `x` over `base`: `(x / base − 1) × 100`, defined as
/// 0.0 when `base` is not positive (a run that retired nothing), so a
/// degenerate result never leaks a NaN or an infinity into a table or a
/// JSON artifact. The one definition of the paper's RPO-over-RP gain.
pub fn gain_pct(base: f64, x: f64) -> f64 {
    if base > 0.0 {
        (x / base - 1.0) * 100.0
    } else {
        0.0
    }
}

/// A row of the Figure 6 IPC comparison.
#[derive(Debug, Clone)]
pub struct IpcRow {
    /// Workload name.
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// IPC for each configuration, in [`ConfigKind::ALL`] order
    /// (IC, TC, RP, RPO).
    pub ipc: [f64; 4],
    /// Percent IPC increase of RPO over RP (the number printed above the
    /// RPO bars in the paper).
    pub rpo_gain_pct: f64,
    /// Frame coverage under RP.
    pub coverage: f64,
    /// Fraction of cycles lost to assertions under RPO.
    pub assert_cycle_frac: f64,
}

/// Builds one Figure 6 row from the four per-configuration results (in
/// [`ConfigKind::ALL`] order).
fn ipc_row_from(w: &Workload, results: &[SimResult]) -> IpcRow {
    let ipc: [f64; 4] = std::array::from_fn(|i| results[i].ipc());
    let (rp, rpo) = (&results[2], &results[3]);
    IpcRow {
        name: w.name.to_string(),
        suite: w.suite,
        ipc,
        rpo_gain_pct: gain_pct(rp.ipc(), rpo.ipc()),
        coverage: rp.coverage,
        assert_cycle_frac: rpo.bins.fraction(CycleBin::Assert),
    }
}

/// Figure 6: estimated x86 instructions retired per cycle for the ICache,
/// Trace-Cache, rePLay, and rePLay+Optimization configurations, plus the
/// §6.1 side observations (coverage, assert cycles).
pub fn ipc_comparison(ws: &[Workload], scale: usize, jobs: usize, model: CoreModel) -> Vec<IpcRow> {
    let cfgs = ConfigKind::ALL.map(|kind| cfg_model(kind, model));
    rows(ws, scale, jobs, &cfgs, ipc_row_from)
}

/// The RP-versus-RPO comparison of one workload at one scale — the
/// measurement a stress sweep takes at every step along a corner
/// trajectory, and the signal whose collapse `replay sweep` hunts for.
#[derive(Debug, Clone, Copy)]
pub struct GainPoint {
    /// IPC under the rePLay (unoptimized) configuration.
    pub rp_ipc: f64,
    /// IPC under rePLay + optimization.
    pub rpo_ipc: f64,
    /// Percent IPC increase of RPO over RP ([`gain_pct`]).
    pub rpo_gain_pct: f64,
    /// Frame coverage under RP.
    pub coverage: f64,
    /// Fraction of cycles lost to assertions under RPO.
    pub assert_cycle_frac: f64,
}

/// Folds an `(RP, RPO)` result pair into a [`GainPoint`].
pub fn gain_from(rp: &SimResult, rpo: &SimResult) -> GainPoint {
    GainPoint {
        rp_ipc: rp.ipc(),
        rpo_ipc: rpo.ipc(),
        rpo_gain_pct: gain_pct(rp.ipc(), rpo.ipc()),
        coverage: rp.coverage,
        assert_cycle_frac: rpo.bins.fraction(CycleBin::Assert),
    }
}

/// The RP and RPO configurations under `model`, in that order.
fn rp_rpo(model: CoreModel) -> [SimConfig; 2] {
    [ConfigKind::Replay, ConfigKind::ReplayOpt].map(|kind| cfg_model(kind, model))
}

/// A row of the Figures 7/8 cycle breakdown: RP and RPO bins side by side.
#[derive(Debug, Clone)]
pub struct BreakdownRow {
    /// Workload name.
    pub name: String,
    /// Suite membership.
    pub suite: Suite,
    /// RP cycle bins.
    pub rp: CycleBins,
    /// RPO cycle bins.
    pub rpo: CycleBins,
}

/// Figures 7 (SPEC) and 8 (desktop): per-benchmark execution cycles for
/// the RP and RPO configurations, classified by fetch event.
pub fn cycle_breakdown(
    ws: &[Workload],
    scale: usize,
    jobs: usize,
    model: CoreModel,
) -> Vec<BreakdownRow> {
    rows(ws, scale, jobs, &rp_rpo(model), |w, rs| BreakdownRow {
        name: w.name.to_string(),
        suite: w.suite,
        rp: rs[0].bins,
        rpo: rs[1].bins,
    })
}

/// A row of Table 3.
#[derive(Debug, Clone)]
pub struct RemovalRow {
    /// Workload name.
    pub name: String,
    /// Fraction of dynamic uops removed by the optimizer.
    pub uops_removed: f64,
    /// Fraction of dynamic loads removed.
    pub loads_removed: f64,
    /// Percent IPC increase of RPO over RP.
    pub ipc_increase_pct: f64,
}

/// Table 3: the percentage of micro-operations and loads removed by the
/// rePLay optimizer, and the resulting IPC increase.
pub fn removal_table(
    ws: &[Workload],
    scale: usize,
    jobs: usize,
    model: CoreModel,
) -> Vec<RemovalRow> {
    rows(ws, scale, jobs, &rp_rpo(model), |w, rs| {
        let (rp, rpo) = (&rs[0], &rs[1]);
        RemovalRow {
            name: w.name.to_string(),
            uops_removed: rpo.uop_removal(),
            loads_removed: rpo.load_removal(),
            ipc_increase_pct: gain_pct(rp.ipc(), rpo.ipc()),
        }
    })
}

/// Averages a column of [`RemovalRow`]s.
pub fn removal_averages(rows: &[RemovalRow]) -> (f64, f64, f64) {
    let n = rows.len().max(1) as f64;
    (
        rows.iter().map(|r| r.uops_removed).sum::<f64>() / n,
        rows.iter().map(|r| r.loads_removed).sum::<f64>() / n,
        rows.iter().map(|r| r.ipc_increase_pct).sum::<f64>() / n,
    )
}

/// A row of the Figure 9 scope comparison.
#[derive(Debug, Clone)]
pub struct ScopeRow {
    /// Workload name.
    pub name: String,
    /// Percent IPC speedup of block-scope optimization over RP.
    pub block_pct: f64,
    /// Percent IPC speedup of frame-scope optimization over RP.
    pub frame_pct: f64,
}

/// Figure 9: percent IPC increase when frames are optimized only within
/// individual basic blocks versus as a unit.
pub fn scope_comparison(
    ws: &[Workload],
    scale: usize,
    jobs: usize,
    model: CoreModel,
) -> Vec<ScopeRow> {
    let cfgs = [
        cfg_model(ConfigKind::Replay, model),
        cfg_model(ConfigKind::ReplayOpt, model).with_opt(OptConfig::block_scope()),
        cfg_model(ConfigKind::ReplayOpt, model),
    ];
    rows(ws, scale, jobs, &cfgs, |w, rs| {
        let rp = rs[0].ipc();
        ScopeRow {
            name: w.name.to_string(),
            block_pct: gain_pct(rp, rs[1].ipc()),
            frame_pct: gain_pct(rp, rs[2].ipc()),
        }
    })
}

/// The Figure 10 leave-one-out labels, in the paper's legend order.
pub const ABLATION_LABELS: [&str; 6] = ["ASST", "CP", "CSE", "NOP", "RA", "SF"];

/// The five applications the paper plots in Figure 10.
pub const ABLATION_APPS: [&str; 5] = ["bzip2", "crafty", "vortex", "dream", "excel"];

/// The leave-one-out configuration list shared by Figure 10 and the pass
/// profit ranking: RP, full RPO, then RPO without each of
/// [`ABLATION_LABELS`] in order.
fn leave_one_out(model: CoreModel) -> Vec<SimConfig> {
    let mut cfgs = rp_rpo(model).to_vec();
    cfgs.extend(
        ABLATION_LABELS.iter().map(|label| {
            cfg_model(ConfigKind::ReplayOpt, model).with_opt(OptConfig::without(label))
        }),
    );
    cfgs
}

/// A row of the Figure 10 ablation: IPC of each leave-one-out trial on the
/// paper's 0(=RP)..1(=RPO) relative scale.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Workload name.
    pub name: String,
    /// Relative IPC with each optimization disabled, in
    /// [`ABLATION_LABELS`] order: 0 = RP performance, 1 = full RPO.
    pub relative: [f64; 6],
    /// Absolute IPC of the RP baseline.
    pub rp_ipc: f64,
    /// Absolute IPC of full RPO.
    pub rpo_ipc: f64,
    /// Where full RPO lands on the same relative scale (exactly 1.0 unless
    /// the normalization floor engaged because RPO ≈ RP).
    pub rpo_relative: f64,
}

/// Figure 10: the performance impact of disabling each optimization
/// individually (dead-code elimination always stays enabled).
pub fn ablation(ws: &[Workload], scale: usize, jobs: usize, model: CoreModel) -> Vec<AblationRow> {
    rows(ws, scale, jobs, &leave_one_out(model), |w, rs| {
        let rp = rs[0].ipc();
        let rpo = rs[1].ipc();
        // Guard the normalization: when optimization is near-neutral
        // on an application (as on excel, where speculative aborts eat
        // the gains), the raw span would explode the relative scale.
        let span = (rpo - rp).abs().max(0.03 * rp).max(1e-9);
        AblationRow {
            name: w.name.to_string(),
            relative: std::array::from_fn(|i| (rs[2 + i].ipc() - rp) / span),
            rp_ipc: rp,
            rpo_ipc: rpo,
            rpo_relative: (rpo - rp) / span,
        }
    })
}

/// The seven optimizer passes as profit-ranking rows: the six Figure 10
/// leave-one-out labels plus always-on dead-code elimination.
pub const PROFIT_PASSES: [&str; 7] = ["NOP", "CP", "RA", "ASST", "SF", "CSE", "DCE"];

/// One pass's measured contribution to the RPO speedup under one core
/// model.
#[derive(Debug, Clone, Copy)]
pub struct PassProfit {
    /// Pass label ([`PROFIT_PASSES`]; `SF` is the `MemoryOpt` pass).
    pub pass: &'static str,
    /// Profit in percentage points of RP IPC (see [`pass_profit`] for the
    /// two measurement bases).
    pub profit_pct: f64,
}

/// Measures every pass's profit, averaged over `ws`, under `model`.
///
/// Two measurement bases, both in percentage points of the RP baseline's
/// IPC:
///
/// * the six ablatable passes are measured leave-one-out, as in
///   Figure 10: `(ipc(RPO) − ipc(RPO without pass)) / ipc(RP) × 100`;
/// * `DCE` cannot be disabled (every other pass relies on its
///   collection), so it is measured solo:
///   `(ipc(DCE only) − ipc(RP)) / ipc(RP) × 100`.
///
/// Rows come back in [`PROFIT_PASSES`] order; rank by `profit_pct` to
/// obtain the profit ranking. Because the optimizer itself is identical
/// under both core models (it removes the same uops), any ranking shift
/// between models is purely a *timing* effect — which resources the
/// removed uops would have contended for.
pub fn pass_profit(
    ws: &[Workload],
    scale: usize,
    jobs: usize,
    model: CoreModel,
) -> Vec<PassProfit> {
    // OptConfig with every ablatable pass off: only DCE (which has no
    // flag — it is the collector the pipeline always runs) remains.
    let dce_only = ABLATION_LABELS
        .into_iter()
        .fold(OptConfig::default(), OptConfig::disable);
    let mut cfgs = leave_one_out(model);
    cfgs.push(cfg_model(ConfigKind::ReplayOpt, model).with_opt(dce_only));
    let napps = ws.len().max(1) as f64;
    let mut profit: Vec<PassProfit> = PROFIT_PASSES
        .into_iter()
        .map(|pass| PassProfit {
            pass,
            profit_pct: 0.0,
        })
        .collect();
    for rs in grid(ws, scale, jobs, &cfgs).chunks_exact(cfgs.len()) {
        let rp = rs[0].ipc();
        if rp <= 0.0 {
            continue;
        }
        let rpo = rs[1].ipc();
        let dce = rs[2 + ABLATION_LABELS.len()].ipc();
        for p in profit.iter_mut() {
            let pct = if p.pass == "DCE" {
                (dce - rp) / rp * 100.0
            } else {
                let i = ABLATION_LABELS
                    .iter()
                    .position(|l| l == &p.pass)
                    .expect("profit pass is an ablation label");
                (rpo - rs[2 + i].ipc()) / rp * 100.0
            };
            p.profit_pct += pct / napps;
        }
    }
    profit
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_trace::workloads;

    #[test]
    fn ipc_row_has_all_configs() {
        let w = workloads::by_name("eon").unwrap();
        let rows = ipc_comparison(&[w], 4_000, 2, CoreModel::Generic);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.ipc.iter().all(|&v| v > 0.0), "{:?}", row.ipc);
        assert!(row.coverage > 0.0);
    }

    #[test]
    fn ipc_row_from_empty_results_is_finite() {
        // Regression: a degenerate run (empty or fully-asserting trace)
        // retires nothing, so every per-config IPC is 0. The RPO-over-RP
        // gain must define the 0/0 case as 0.0 — a NaN or inf here leaks
        // into `replay report --json` as invalid JSON.
        let w = workloads::by_name("eon").unwrap();
        let empty = |kind| SimResult {
            workload: w.name.to_string(),
            config: kind,
            cycles: 0,
            x86_retired: 0,
            bins: CycleBins::new(),
            pipeline: replay_timing::PipelineStats::default(),
            opt_stats: replay_core::OptStats::default(),
            dyn_uops_total: 0,
            dyn_uops_removed: 0,
            dyn_loads_total: 0,
            dyn_loads_removed: 0,
            constructor: replay_frame::ConstructorStats::default(),
            coverage: 0.0,
            assert_events: 0,
            path_mismatches: 0,
            verify: replay_verify::VerifyStats::default(),
            uop_ratio: 0.0,
            profile: replay_obs::Profile::new(),
        };
        let results: Vec<SimResult> = ConfigKind::ALL.into_iter().map(empty).collect();
        let row = ipc_row_from(&w, &results);
        assert_eq!(row.rpo_gain_pct, 0.0, "degenerate gain is defined as 0.0");
        assert!(row.rpo_gain_pct.is_finite());
        assert!(row.ipc.iter().all(|v| v.is_finite()));
        assert!(row.coverage.is_finite() && row.assert_cycle_frac.is_finite());
        let point = gain_from(&results[2], &results[3]);
        assert_eq!(point.rpo_gain_pct, 0.0);
        assert!(point.assert_cycle_frac.is_finite());
    }

    #[test]
    fn removal_averages_compute() {
        let rows = vec![
            RemovalRow {
                name: "a".into(),
                uops_removed: 0.2,
                loads_removed: 0.3,
                ipc_increase_pct: 10.0,
            },
            RemovalRow {
                name: "b".into(),
                uops_removed: 0.4,
                loads_removed: 0.1,
                ipc_increase_pct: 30.0,
            },
        ];
        let (u, l, i) = removal_averages(&rows);
        assert!((u - 0.3).abs() < 1e-12);
        assert!((l - 0.2).abs() < 1e-12);
        assert!((i - 20.0).abs() < 1e-12);
    }

    #[test]
    fn ablation_rows_cover_labels() {
        let w = workloads::by_name("bzip2").unwrap();
        let rows = ablation(&[w], 3_000, 2, CoreModel::Generic);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].relative.len(), ABLATION_LABELS.len());
    }

    #[test]
    fn pass_profit_covers_all_seven_passes_under_both_models() {
        let ws = [workloads::by_name("bzip2").unwrap()];
        for model in [CoreModel::Generic, CoreModel::PortAccurate] {
            let rows = pass_profit(&ws, 3_000, 2, model);
            assert_eq!(rows.len(), PROFIT_PASSES.len());
            for (row, pass) in rows.iter().zip(PROFIT_PASSES) {
                assert_eq!(row.pass, pass);
                assert!(row.profit_pct.is_finite());
            }
        }
    }

    #[test]
    fn run_specs_matches_serial_reference() {
        let w = workloads::by_name("gzip").unwrap();
        let scale = 2_000;
        let store = TraceStore::new();
        let shared = store.traces(&w, scale);
        let direct = w.traces_scaled(scale);
        let specs: Vec<SimSpec> = ConfigKind::ALL
            .into_iter()
            .map(|kind| SimSpec {
                name: w.name.to_string(),
                traces: shared.clone(),
                cfg: SimConfig::new(kind).without_verify(),
            })
            .collect();
        let parallel4 = run_specs(&specs, 4);
        let serial = run_specs(&specs, 1);
        for ((p, s), kind) in parallel4.iter().zip(&serial).zip(ConfigKind::ALL) {
            assert_eq!(p.cycles, s.cycles, "{kind}");
            assert_eq!(p.x86_retired, s.x86_retired, "{kind}");
            assert_eq!(p.coverage.to_bits(), s.coverage.to_bits(), "{kind}");
            let reference =
                run_workload_config(&direct, &w.name, &SimConfig::new(kind).without_verify());
            assert_eq!(p.cycles, reference.cycles, "{kind} vs legacy serial path");
            assert_eq!(
                p.ipc().to_bits(),
                reference.ipc().to_bits(),
                "{kind} IPC bit-identical"
            );
        }
    }
}
