//! Experiment drivers: one function per table / figure of the paper.
//!
//! The paper's configurations are declared once, as named [`Column`]s
//! ([`PAPER_COLUMNS`], [`LEAVE_ONE_OUT`]). [`grid`], the one place a paper
//! grid is run, turns workloads × columns into one batch of [`SimSpec`]s
//! for [`run_specs`], which fans the `(workload, segment, configuration)`
//! jobs across a scoped worker pool ([`crate::parallel`]). Each driver
//! folds the resulting [`Grid`], reading results by column, so one grid
//! feeds every table that shares its columns. Traces come from the
//! process-wide [`TraceStore`], so each segment is synthesized once.
//!
//! Parallelism never changes the numbers: each job is a pure function of
//! its inputs, results are collected in submission order, and segments
//! merge in the same order as the serial loop — so driver output is
//! bit-identical for every worker count (`jobs`; `1` runs serially on the
//! calling thread), and a workload's row does not depend on which other
//! workloads or columns share its batch.

use crate::{parallel, simulate, ConfigKind, SimConfig, SimResult, TraceStore};
use replay_core::OptConfig;
use replay_timing::{CoreModel, CycleBin, CycleBins};
use replay_trace::{Suite, Trace, Workload};
use std::sync::Arc;

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

/// A configuration column of a [`grid`], addressed by name. Every driver
/// reads its results by column, never by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// One of the four machines of Figure 6 (IC, TC, RP, RPO).
    Kind(ConfigKind),
    /// RPO optimizing each basic block on its own (Figure 9).
    BlockScope,
    /// RPO without one ablatable pass, by its [`ABLATION_LABELS`] label
    /// (Figure 10).
    Without(&'static str),
    /// RPO with every ablatable pass off: only dead-code elimination,
    /// which has no flag, remains (the pass-profit ranking).
    DceOnly,
}

const RP: Column = Column::Kind(ConfigKind::Replay);
const RPO: Column = Column::Kind(ConfigKind::ReplayOpt);

impl Column {
    /// The one driver configuration of this column: verification off (the
    /// drivers reproduce figures, not soundness checks) under `model`.
    pub(crate) fn config(self, model: CoreModel) -> SimConfig {
        let opt = match self {
            Column::Kind(kind) => {
                return SimConfig::new(kind).without_verify().with_core_model(model)
            }
            Column::BlockScope => OptConfig::block_scope(),
            Column::Without(label) => OptConfig::without(label),
            Column::DceOnly => ABLATION_LABELS
                .into_iter()
                .fold(OptConfig::default(), OptConfig::disable),
        };
        RPO.config(model).with_opt(opt)
    }
}

/// The columns of Table 3 and Figures 6–9: the four machines of
/// Figure 6, then block-scope RPO for Figure 9.
pub const PAPER_COLUMNS: [Column; 5] = [
    Column::Kind(ConfigKind::ICache),
    Column::Kind(ConfigKind::TraceCache),
    RP,
    RPO,
    Column::BlockScope,
];

/// The columns of Figure 10 and the pass-profit ranking: RP, full RPO,
/// RPO without each of [`ABLATION_LABELS`], and DCE-only RPO.
pub const LEAVE_ONE_OUT: [Column; 9] = [
    RP,
    RPO,
    Column::Without("ASST"),
    Column::Without("CP"),
    Column::Without("CSE"),
    Column::Without("NOP"),
    Column::Without("RA"),
    Column::Without("SF"),
    Column::DceOnly,
];

/// The result of [`grid`]: one row per workload, in workload order, each
/// holding the workload's result under every column. The drivers below
/// fold it into a table or figure, so they work on any grid that ran
/// the columns they read.
#[derive(Debug)]
pub struct Grid {
    rows: Vec<Row>,
}

impl Grid {
    /// Folds every row, in workload order, into one driver row.
    fn map<R>(&self, f: impl Fn(&Row) -> R) -> Vec<R> {
        self.rows.iter().map(f).collect()
    }
}

/// One workload's results in a [`Grid`].
#[derive(Debug)]
struct Row {
    name: String,
    suite: Suite,
    cells: Vec<(Column, SimResult)>,
}

impl Row {
    /// The result under `col`; panics if the grid did not run `col`.
    fn get(&self, col: Column) -> &SimResult {
        self.cells
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, r)| r)
            .unwrap_or_else(|| panic!("{}: the grid has no {col:?} column", self.name))
    }

    fn ipc(&self, col: Column) -> f64 {
        self.get(col).ipc()
    }

    /// The row's RP-versus-RPO comparison.
    fn gain(&self) -> GainPoint {
        let (rp, rpo) = (self.get(RP), self.get(RPO));
        GainPoint {
            rp_ipc: rp.ipc(),
            rpo_ipc: rpo.ipc(),
            rpo_gain_pct: gain_pct(rp.ipc(), rpo.ipc()),
            coverage: rp.coverage,
            assert_cycle_frac: rpo.bins.fraction(CycleBin::Assert),
        }
    }
}

/// Runs every workload of `ws` through every column of `columns` under
/// `model` as one batch on `jobs` worker threads: the traces are
/// prefetched and one workload-major spec batch goes to [`run_specs`].
pub fn grid(
    ws: &[Workload],
    scale: usize,
    jobs: usize,
    model: CoreModel,
    columns: &[Column],
) -> Grid {
    TraceStore::global().prefetch(ws, scale, jobs);
    let specs: Vec<SimSpec> = ws
        .iter()
        .flat_map(|w| {
            columns
                .iter()
                .map(move |col| SimSpec::for_workload(w, scale, col.config(model)))
        })
        .collect();
    let mut results = run_specs(&specs, jobs).into_iter();
    let rows = ws
        .iter()
        .map(|w| Row {
            name: w.name.to_string(),
            suite: w.suite,
            cells: columns
                .iter()
                .map(|&col| (col, results.next().expect("one result per spec")))
                .collect(),
        })
        .collect();
    Grid { rows }
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
    /// RPO over RP: the gain printed above the RPO bars in the paper,
    /// coverage and assert cycles.
    pub gain: GainPoint,
}

/// Figure 6: estimated x86 instructions retired per cycle for the ICache,
/// Trace-Cache, rePLay, and rePLay+Optimization configurations, plus the
/// §6.1 side observations (coverage, assert cycles).
pub fn ipc_comparison(grid: &Grid) -> Vec<IpcRow> {
    grid.map(|row| IpcRow {
        name: row.name.clone(),
        suite: row.suite,
        ipc: ConfigKind::ALL.map(|kind| row.ipc(Column::Kind(kind))),
        gain: row.gain(),
    })
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

/// Every row's RP-versus-RPO [`GainPoint`], in workload order.
pub fn gain_points(grid: &Grid) -> Vec<GainPoint> {
    grid.map(Row::gain)
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
pub fn cycle_breakdown(grid: &Grid) -> Vec<BreakdownRow> {
    grid.map(|row| BreakdownRow {
        name: row.name.clone(),
        suite: row.suite,
        rp: row.get(RP).bins,
        rpo: row.get(RPO).bins,
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
pub fn removal_table(grid: &Grid) -> Vec<RemovalRow> {
    grid.map(|row| {
        let rpo = row.get(RPO);
        RemovalRow {
            name: row.name.clone(),
            uops_removed: rpo.uop_removal(),
            loads_removed: rpo.load_removal(),
            ipc_increase_pct: row.gain().rpo_gain_pct,
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
pub fn scope_comparison(grid: &Grid) -> Vec<ScopeRow> {
    grid.map(|row| {
        let rp = row.ipc(RP);
        ScopeRow {
            name: row.name.clone(),
            block_pct: gain_pct(rp, row.ipc(Column::BlockScope)),
            frame_pct: gain_pct(rp, row.ipc(RPO)),
        }
    })
}

/// The Figure 10 leave-one-out labels, in the paper's legend order.
pub const ABLATION_LABELS: [&str; 6] = ["ASST", "CP", "CSE", "NOP", "RA", "SF"];

/// The five applications the paper plots in Figure 10.
pub const ABLATION_APPS: [&str; 5] = ["bzip2", "crafty", "vortex", "dream", "excel"];

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
pub fn ablation(grid: &Grid) -> Vec<AblationRow> {
    grid.map(|row| {
        let rp = row.ipc(RP);
        let rpo = row.ipc(RPO);
        // Guard the normalization: when optimization is near-neutral
        // on an application (as on excel, where speculative aborts eat
        // the gains), the raw span would explode the relative scale.
        let span = (rpo - rp).abs().max(0.03 * rp).max(1e-9);
        AblationRow {
            name: row.name.clone(),
            relative: ABLATION_LABELS.map(|label| (row.ipc(Column::Without(label)) - rp) / span),
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

/// Measures every pass's profit, averaged over the grid's workloads.
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
pub fn pass_profit(grid: &Grid) -> Vec<PassProfit> {
    let napps = grid.rows.len().max(1) as f64;
    let profitable = || grid.rows.iter().filter(|row| row.ipc(RP) > 0.0);
    PROFIT_PASSES
        .map(|pass| {
            let profit_pct = profitable().fold(0.0, |sum, row| {
                let (rp, rpo) = (row.ipc(RP), row.ipc(RPO));
                let pct = match pass {
                    "DCE" => (row.ipc(Column::DceOnly) - rp) / rp * 100.0,
                    label => (rpo - row.ipc(Column::Without(label))) / rp * 100.0,
                };
                sum + pct / napps
            });
            PassProfit { pass, profit_pct }
        })
        .to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use replay_trace::workloads;

    #[test]
    fn ipc_row_has_all_configs() {
        let w = workloads::by_name("eon").unwrap();
        let rows = ipc_comparison(&grid(&[w], 4_000, 2, CoreModel::Generic, &PAPER_COLUMNS));
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert!(row.ipc.iter().all(|&v| v > 0.0), "{:?}", row.ipc);
        assert!(row.gain.coverage > 0.0);
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
            path_mismatches: 0,
            verify: replay_verify::VerifyStats::default(),
            uop_ratio: 0.0,
            profile: replay_obs::Profile::new(),
        };
        let grid = Grid {
            rows: vec![Row {
                name: w.name.to_string(),
                suite: w.suite,
                cells: ConfigKind::ALL
                    .map(|kind| (Column::Kind(kind), empty(kind)))
                    .to_vec(),
            }],
        };
        let row = ipc_comparison(&grid).remove(0);
        assert_eq!(
            row.gain.rpo_gain_pct, 0.0,
            "degenerate gain is defined as 0.0"
        );
        assert!(row.gain.rpo_gain_pct.is_finite());
        assert!(row.ipc.iter().all(|v| v.is_finite()));
        assert!(row.gain.coverage.is_finite() && row.gain.assert_cycle_frac.is_finite());
        let point = gain_points(&grid)[0];
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
        let rows = ablation(&grid(&[w], 3_000, 2, CoreModel::Generic, &LEAVE_ONE_OUT));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].relative.len(), ABLATION_LABELS.len());
    }

    #[test]
    fn pass_profit_covers_all_seven_passes_under_both_models() {
        let ws = [workloads::by_name("bzip2").unwrap()];
        for model in [CoreModel::Generic, CoreModel::PortAccurate] {
            let rows = pass_profit(&grid(&ws, 3_000, 2, model, &LEAVE_ONE_OUT));
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
