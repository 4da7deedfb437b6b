//! The full-stack conformance engine: every sweep cell, end to end through
//! the realized Fibbing routing.
//!
//! The sweep engine ([`crate::sweep`]) scores scenarios *analytically*: it
//! evaluates the optimized per-destination DAGs with the flow algebra of
//! `coyote_core::PdRouting`. The paper's claim, however, is stronger — the
//! optimized configuration is *realizable* in plain OSPF via Fibbing lies
//! (Section V) and behaves as predicted under load (Section VII). The
//! conformance engine closes that loop for every grid cell:
//!
//! 1. build the scenario as the sweep does and optimize the splitting for
//!    its margin box (the COYOTE partial-knowledge routing; the sweep's
//!    other three protocols are not run);
//! 2. compile the routing into a [`FibbingProgram`] and reconstruct the
//!    routing the *real* routers would compute from the lied-to LSDB
//!    (`realized_routing`: LSDB → SPF → FIB → `PdRouting`);
//! 3. verify the program ([`compare_routings`]: DAG equality + splitting-
//!    ratio error) and count the lies ([`fake_nodes_per_destination`]);
//! 4. simulate the base and worst-case demand matrices through *both* the
//!    intended and the realized routing on the flow-level emulator
//!    ([`FlowSimulator::from_pd_routing`]);
//! 5. emit one [`ConformanceRecord`] per cell with the max-utilization and
//!    drop-rate deltas and a tolerance verdict.
//!
//! Cells are independent, so [`run_conformance`] fans them out over a
//! [`WorkerPool`] exactly like `run_sweep`: records come back in grid
//! order, bit-identical for every thread count (asserted by the
//! `conformance_pipeline` integration test).

use crate::pool::WorkerPool;
use crate::scenario::Scenario;
use crate::sweep::{SweepGrid, SweepSpec};
use coyote_core::prelude::CoreError;
use coyote_graph::Graph;
use coyote_ospf::{
    compare_routings, compute_program_with, fake_nodes_per_destination, realized_routing,
    CompressionLevel, FibbingProgram, VirtualLinkBudget, DEFAULT_EPSILON,
};
use coyote_sim::{FlowSimulator, SimOutcome};
use coyote_traffic::DemandMatrix;
use serde::Serialize;
use std::time::Instant;

/// Default tolerance for the per-cell verdict: splitting-ratio error and
/// simulated max-utilization / drop-rate deltas must all stay below this.
/// Chosen above the quantization error of the [`COMPILE_BUDGET`]-entry
/// virtual-next-hop approximation but far below any behaviourally
/// meaningful divergence.
pub const DEFAULT_TOLERANCE: f64 = 0.05;

/// Virtual-next-hop entries per (router, prefix) used when compiling a
/// cell's routing into lies. Deliberately far above the operational budgets
/// Fig. 10 evaluates (3/5/10): conformance isolates *protocol
/// realizability* from the quantization trade-off, so the compile step gets
/// enough entries that the worst split error over the zoo (~4/budget on
/// high-degree nodes) stays under [`DEFAULT_TOLERANCE`]. The price is
/// larger fake-node multiplicities, which the records report.
pub const COMPILE_BUDGET: usize = 256;

/// Headline numbers of one simulated steady state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimSummary {
    /// Total offered rate.
    pub offered: f64,
    /// Total delivered rate.
    pub delivered: f64,
    /// Fraction of offered traffic dropped.
    pub drop_rate: f64,
    /// Maximum link utilization (carried / capacity; ≤ 1 by construction).
    pub max_utilization: f64,
}

impl SimSummary {
    fn of(sim: &FlowSimulator, outcome: &SimOutcome) -> Self {
        Self {
            offered: outcome.offered,
            delivered: outcome.delivered,
            drop_rate: outcome.drop_rate(),
            max_utilization: sim.max_utilization(outcome),
        }
    }
}

/// Intended-vs-realized simulation of one demand matrix.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MatrixConformance {
    /// Steady state under the optimizer's intended routing.
    pub intended: SimSummary,
    /// Steady state under the routing realized by the Fibbing program.
    pub realized: SimSummary,
}

impl MatrixConformance {
    fn measure(
        intended_sim: &FlowSimulator,
        realized_sim: &FlowSimulator,
        dm: &DemandMatrix,
    ) -> Self {
        Self {
            intended: SimSummary::of(intended_sim, &intended_sim.run_matrix(dm)),
            realized: SimSummary::of(realized_sim, &realized_sim.run_matrix(dm)),
        }
    }

    /// |intended − realized| max-link-utilization.
    pub fn max_utilization_delta(&self) -> f64 {
        (self.intended.max_utilization - self.realized.max_utilization).abs()
    }

    /// |intended − realized| drop rate.
    pub fn drop_rate_delta(&self) -> f64 {
        (self.intended.drop_rate - self.realized.drop_rate).abs()
    }
}

/// The conformance verdict of one grid cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConformanceRecord {
    /// The sweep cell.
    pub spec: SweepSpec,
    /// True if the realized DAGs match the intended DAGs exactly.
    pub dags_match: bool,
    /// Largest |realized − intended| splitting ratio over all
    /// (destination, edge) pairs.
    pub max_split_error: f64,
    /// `verify_program` verdict: matching DAGs and split error within the
    /// run's tolerance.
    pub faithful: bool,
    /// Total fake nodes the Fibbing program injects (after compression,
    /// when enabled).
    pub fake_nodes: usize,
    /// Total destination-prefix advertisements the fakes carry (equals
    /// `fake_nodes` for uncompressed programs; larger once compression
    /// shares fakes across destinations).
    pub prefix_advertisements: usize,
    /// The compression level the program was compiled at
    /// ([`CompressionLevel::label`]).
    pub compression: String,
    /// Largest per-destination fake-node count
    /// (from [`fake_nodes_per_destination`]).
    pub max_fake_nodes_per_destination: usize,
    /// Simulation of the scenario's base demand matrix.
    pub base: MatrixConformance,
    /// Simulation of the worst-case matrix of the evaluation family (the
    /// matrix on which the intended routing performs worst).
    pub worst: MatrixConformance,
    /// Max over both matrices of the max-utilization delta.
    pub max_utilization_delta: f64,
    /// Max over both matrices of the drop-rate delta.
    pub drop_rate_delta: f64,
    /// The cell-level verdict: faithful AND both deltas within tolerance.
    pub within_tolerance: bool,
    /// Wall-clock seconds this cell took on its worker.
    pub wall_secs: f64,
}

impl ConformanceRecord {
    /// This record with its non-deterministic wall-clock timing zeroed out.
    ///
    /// Everything else in a record is a pure function of the spec and the
    /// tolerance, so two runs of the same cell — serial or parallel, on any
    /// `--threads` value — compare equal under this view. Both the
    /// determinism integration test and the CI bit-identity assertion
    /// compare records through it instead of mutating copies in place.
    pub fn deterministic_view(&self) -> ConformanceRecord {
        ConformanceRecord {
            wall_secs: 0.0,
            ..self.clone()
        }
    }
}

/// A machine-readable conformance run: configuration, per-cell records in
/// grid order, and the total wall-clock time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConformanceReport {
    /// Worker threads the run used.
    pub threads: usize,
    /// Cells checked.
    pub cells: usize,
    /// Tolerance the verdicts were computed against.
    pub tolerance: f64,
    /// The compression level all cells were compiled at.
    pub compression: String,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// One record per grid cell, in grid order.
    pub records: Vec<ConformanceRecord>,
}

impl ConformanceReport {
    /// Sum of the per-cell wall-clock times (the work done, as opposed to
    /// [`wall_secs`](Self::wall_secs), the time it took).
    pub fn cpu_secs(&self) -> f64 {
        self.records.iter().map(|r| r.wall_secs).sum()
    }

    /// Number of cells whose verdict is within tolerance.
    pub fn pass_count(&self) -> usize {
        self.records.iter().filter(|r| r.within_tolerance).count()
    }

    /// True if every cell is within tolerance.
    pub fn all_within_tolerance(&self) -> bool {
        self.records.iter().all(|r| r.within_tolerance)
    }

    /// The worst max-utilization delta across all cells.
    pub fn worst_utilization_delta(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.max_utilization_delta)
            .fold(0.0, f64::max)
    }

    /// The worst split error across all cells.
    pub fn worst_split_error(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.max_split_error)
            .fold(0.0, f64::max)
    }

    /// Total fake nodes across all cells.
    pub fn total_fake_nodes(&self) -> usize {
        self.records.iter().map(|r| r.fake_nodes).sum()
    }

    /// Total prefix advertisements across all cells.
    pub fn total_prefix_advertisements(&self) -> usize {
        self.records.iter().map(|r| r.prefix_advertisements).sum()
    }
}

/// Compiles and checks one grid cell end to end (see the module docs for
/// the pipeline). Pure and deterministic: the record depends only on the
/// spec and the tolerance.
pub fn conformance_record(
    spec: &SweepSpec,
    tolerance: f64,
) -> Result<ConformanceRecord, CoreError> {
    conformance_record_with(spec, tolerance, CompressionLevel::Off)
}

/// [`conformance_record`] with the Fibbing program compiled at the given
/// [`CompressionLevel`] (the `--compress` path of `experiments conform`).
pub fn conformance_record_with(
    spec: &SweepSpec,
    tolerance: f64,
    level: CompressionLevel,
) -> Result<ConformanceRecord, CoreError> {
    let _cell_span = coyote_obs::span("conform.cell");
    coyote_obs::counter("conform.cells", 1);
    let started = Instant::now();
    let (scenario, intended) = {
        let _span = coyote_obs::span("conform.evaluate");
        let scenario = Scenario::build(spec)?;
        let intended = scenario.optimize(&scenario.uncertainty)?;
        (scenario, intended)
    };
    let graph = &scenario.graph;

    // Compile the optimized routing into OSPF lies and reconstruct what the
    // real routers would compute (budget: see [`COMPILE_BUDGET`]). The
    // compile itself opens the "ospf.compile" span; `realized_routing` runs
    // the routers' SPF under "ospf.spf"; compression (when on) runs under
    // "ospf.compress".
    let program = compile(graph, &intended, level)?;
    let realized =
        realized_routing(graph, &program).map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
    let verification = {
        let _span = coyote_obs::span("conform.verify");
        compare_routings(graph, &intended, &realized)
    };
    let per_destination = fake_nodes_per_destination(graph, &program);
    let max_fakes = per_destination.iter().map(|&(_, c)| c).max().unwrap_or(0);

    // The two matrices the paper's story hinges on: the operator's base
    // estimate and the adversarial worst case of the evaluation family.
    let worst_dm = scenario
        .evaluation
        .worst_matrix(graph, &intended)
        .cloned()
        .unwrap_or_else(|| scenario.base.clone());

    let _flowsim_span = coyote_obs::span("conform.flowsim");
    let intended_sim = FlowSimulator::from_pd_routing(graph, &intended);
    let realized_sim = FlowSimulator::from_pd_routing(graph, &realized);
    let base = MatrixConformance::measure(&intended_sim, &realized_sim, &scenario.base);
    let worst = MatrixConformance::measure(&intended_sim, &realized_sim, &worst_dm);
    drop(_flowsim_span);

    let max_utilization_delta = base
        .max_utilization_delta()
        .max(worst.max_utilization_delta());
    let drop_rate_delta = base.drop_rate_delta().max(worst.drop_rate_delta());
    let faithful = verification.is_faithful(tolerance);

    Ok(ConformanceRecord {
        spec: spec.clone(),
        dags_match: verification.dags_match,
        max_split_error: verification.max_split_error,
        faithful,
        fake_nodes: program.stats.fake_nodes,
        prefix_advertisements: program.stats.prefix_advertisements,
        compression: level.label(),
        max_fake_nodes_per_destination: max_fakes,
        base,
        worst,
        max_utilization_delta,
        drop_rate_delta,
        within_tolerance: faithful
            && max_utilization_delta <= tolerance
            && drop_rate_delta <= tolerance,
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

fn compile(
    graph: &Graph,
    intended: &coyote_core::PdRouting,
    level: CompressionLevel,
) -> Result<FibbingProgram, CoreError> {
    compute_program_with(
        graph,
        intended,
        VirtualLinkBudget::per_prefix(COMPILE_BUDGET),
        level,
    )
    .map_err(|e| CoreError::InvalidRouting(e.to_string()))
}

/// Runs the conformance pipeline for every cell of `grid` on a pool with
/// `threads` workers (`0` = one per core) and collects the records in grid
/// order. Results are bit-identical for every thread count; only the
/// wall-clock fields vary between runs.
pub fn run_conformance(
    grid: &SweepGrid,
    threads: usize,
    tolerance: f64,
) -> Result<ConformanceReport, CoreError> {
    run_conformance_with(grid, threads, tolerance, CompressionLevel::Off)
}

/// [`run_conformance`] with every cell compiled at the given
/// [`CompressionLevel`].
pub fn run_conformance_with(
    grid: &SweepGrid,
    threads: usize,
    tolerance: f64,
    level: CompressionLevel,
) -> Result<ConformanceReport, CoreError> {
    let pool = WorkerPool::new(threads);
    let started = Instant::now();
    let records = pool.try_par_map(&grid.specs, |spec| {
        conformance_record_with(spec, tolerance, level)
    })?;
    Ok(ConformanceReport {
        threads: pool.threads(),
        cells: records.len(),
        tolerance,
        compression: level.label(),
        wall_secs: started.elapsed().as_secs_f64(),
        records,
    })
}

/// One point of a compression Pareto sweep: the whole grid compiled at one
/// level, aggregated into the fake-node-count vs split-error trade-off.
/// Time-free, so points are bit-identical across runs and thread counts.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoPoint {
    /// The compression level ([`CompressionLevel::label`]).
    pub level: String,
    /// Quantization tolerance of the level (zero for off/lossless).
    pub epsilon: f64,
    /// Total fake nodes across all cells.
    pub fake_nodes: usize,
    /// Total prefix advertisements across all cells.
    pub prefix_advertisements: usize,
    /// `fake_nodes` relative to the uncompressed baseline (1.0 = no
    /// reduction; 0.1 = ten-fold fewer forged LSAs).
    pub fake_node_ratio: f64,
    /// Worst per-cell split error at this level.
    pub max_split_error: f64,
    /// Worst per-cell max-utilization delta at this level.
    pub max_utilization_delta: f64,
    /// Cells within tolerance at this level.
    pub cells_within_tolerance: usize,
}

/// A compression Pareto sweep over one grid: one [`ParetoPoint`] per level,
/// in the order the levels were given.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ParetoReport {
    /// Worker threads the run used.
    pub threads: usize,
    /// Cells per point.
    pub cells: usize,
    /// Tolerance the verdicts were computed against.
    pub tolerance: f64,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// One aggregated point per compression level.
    pub points: Vec<ParetoPoint>,
}

impl ParetoReport {
    /// This report with its non-deterministic wall-clock timing zeroed out
    /// (points carry no timing), for bit-identity comparisons.
    pub fn deterministic_view(&self) -> ParetoReport {
        ParetoReport {
            wall_secs: 0.0,
            ..self.clone()
        }
    }
}

/// The levels `--pareto` sweeps: the uncompressed baseline, lossless
/// merging, and a ladder of quantization tolerances up to the conformance
/// tolerance itself.
pub fn default_pareto_levels() -> Vec<CompressionLevel> {
    vec![
        CompressionLevel::Off,
        CompressionLevel::Lossless,
        CompressionLevel::Lossy { epsilon: 0.005 },
        CompressionLevel::Lossy { epsilon: 0.01 },
        CompressionLevel::Lossy {
            epsilon: DEFAULT_EPSILON,
        },
        CompressionLevel::Lossy {
            epsilon: DEFAULT_TOLERANCE,
        },
    ]
}

/// Sweeps the grid once per compression level and aggregates each run into
/// a [`ParetoPoint`]. The fake-node ratio is relative to the
/// [`CompressionLevel::Off`] point when present (the default levels lead
/// with it), otherwise to the largest fake-node total seen.
pub fn run_pareto(
    grid: &SweepGrid,
    threads: usize,
    tolerance: f64,
    levels: &[CompressionLevel],
) -> Result<ParetoReport, CoreError> {
    let started = Instant::now();
    let mut runs = Vec::with_capacity(levels.len());
    for &level in levels {
        runs.push((level, run_conformance_with(grid, threads, tolerance, level)?));
    }
    let baseline = runs
        .iter()
        .find(|(level, _)| level.is_off())
        .map(|(_, report)| report.total_fake_nodes())
        .or_else(|| runs.iter().map(|(_, r)| r.total_fake_nodes()).max())
        .unwrap_or(0);
    let points = runs
        .iter()
        .map(|(level, report)| ParetoPoint {
            level: level.label(),
            epsilon: level.epsilon(),
            fake_nodes: report.total_fake_nodes(),
            prefix_advertisements: report.total_prefix_advertisements(),
            fake_node_ratio: if baseline == 0 {
                1.0
            } else {
                report.total_fake_nodes() as f64 / baseline as f64
            },
            max_split_error: report.worst_split_error(),
            max_utilization_delta: report.worst_utilization_delta(),
            cells_within_tolerance: report.pass_count(),
        })
        .collect();
    Ok(ParetoReport {
        threads: runs
            .first()
            .map(|(_, report)| report.threads)
            .unwrap_or_else(|| WorkerPool::new(threads).threads()),
        cells: grid.specs.len(),
        tolerance,
        wall_secs: started.elapsed().as_secs_f64(),
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{BaseModel, Effort, WeightHeuristic};

    fn abilene_spec(model: BaseModel) -> SweepSpec {
        SweepSpec {
            topology: "Abilene".into(),
            model,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        }
    }

    #[test]
    fn abilene_cell_conforms_end_to_end() {
        let record = conformance_record(&abilene_spec(BaseModel::Gravity), DEFAULT_TOLERANCE)
            .expect("conformance");
        assert!(
            record.dags_match,
            "realized DAGs diverged from the intended DAGs"
        );
        assert!(record.faithful, "split error {}", record.max_split_error);
        assert!(
            record.within_tolerance,
            "util delta {} / drop delta {} above {DEFAULT_TOLERANCE}",
            record.max_utilization_delta, record.drop_rate_delta
        );
        // The optimized splits are not plain ECMP everywhere, so the program
        // must actually lie.
        assert!(record.fake_nodes > 0);
        assert!(record.max_fake_nodes_per_destination <= record.fake_nodes);
        // Simulated utilizations are capped by the drop model.
        for mc in [&record.base, &record.worst] {
            for s in [&mc.intended, &mc.realized] {
                assert!(s.max_utilization <= 1.0 + 1e-9);
                assert!(s.delivered <= s.offered + 1e-9);
                assert!((0.0..=1.0).contains(&s.drop_rate));
            }
        }
    }

    #[test]
    fn unknown_topology_fails_with_a_clear_error() {
        let mut spec = abilene_spec(BaseModel::Gravity);
        spec.topology = "NoSuchNet".into();
        let err =
            run_conformance(&SweepGrid { specs: vec![spec] }, 1, DEFAULT_TOLERANCE).unwrap_err();
        assert!(err.to_string().contains("NoSuchNet"), "{err}");
    }

    #[test]
    fn compressed_cell_keeps_the_verdict_with_far_fewer_fakes() {
        let spec = abilene_spec(BaseModel::Gravity);
        let plain = conformance_record(&spec, DEFAULT_TOLERANCE).expect("plain");
        let lossy = conformance_record_with(&spec, DEFAULT_TOLERANCE, CompressionLevel::lossy())
            .expect("lossy");
        assert!(lossy.dags_match, "compression changed the DAG support");
        assert!(
            lossy.within_tolerance,
            "split {} util {} drop {}",
            lossy.max_split_error, lossy.max_utilization_delta, lossy.drop_rate_delta
        );
        assert_eq!(plain.within_tolerance, lossy.within_tolerance);
        // The headline claim, at unit-test scale: >= 10x fewer forged LSAs.
        assert!(
            lossy.fake_nodes * 10 <= plain.fake_nodes,
            "only {} -> {} fake nodes",
            plain.fake_nodes,
            lossy.fake_nodes
        );
        assert!(lossy.prefix_advertisements >= lossy.fake_nodes);
        assert_eq!(plain.compression, "off");
        assert_eq!(lossy.compression, "lossy(0.02)");
        assert_eq!(plain.prefix_advertisements, plain.fake_nodes);
    }

    #[test]
    fn pareto_points_follow_the_level_order() {
        let grid = SweepGrid {
            specs: vec![abilene_spec(BaseModel::Gravity)],
        };
        let levels = [
            CompressionLevel::Off,
            CompressionLevel::Lossless,
            CompressionLevel::lossy(),
        ];
        let report = run_pareto(&grid, 1, DEFAULT_TOLERANCE, &levels).expect("pareto");
        assert_eq!(report.points.len(), 3);
        assert_eq!(report.cells, 1);
        let off = &report.points[0];
        assert_eq!(off.level, "off");
        assert_eq!(off.fake_node_ratio, 1.0);
        assert_eq!(off.cells_within_tolerance, 1);
        // Each successive level only ever shrinks the program.
        for pair in report.points.windows(2) {
            assert!(pair[1].fake_nodes <= pair[0].fake_nodes);
        }
        // Losslessness really is lossless.
        assert_eq!(report.points[1].max_split_error, off.max_split_error);
        assert_eq!(
            report.deterministic_view().points,
            report.points,
            "points must carry no timing"
        );
    }

    #[test]
    fn report_aggregates_pass_counts() {
        let grid = SweepGrid {
            specs: vec![abilene_spec(BaseModel::Gravity)],
        };
        let report = run_conformance(&grid, 1, DEFAULT_TOLERANCE).expect("run");
        assert_eq!(report.cells, 1);
        assert_eq!(report.tolerance, DEFAULT_TOLERANCE);
        assert_eq!(report.pass_count(), 1);
        assert!(report.all_within_tolerance());
        assert!(report.worst_utilization_delta() <= DEFAULT_TOLERANCE);
        assert!(report.cpu_secs() > 0.0);
    }
}
