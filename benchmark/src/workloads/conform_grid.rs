//! `conform-grid`: the paper's 28-cell conformance grid.
//!
//! Timed section: `run_conformance(&SweepGrid::conformance(Quick), 1,
//! DEFAULT_TOLERANCE)` — every Table-I topology × {gravity, bimodal} at
//! margin 2.0 through optimize → compile → realized SPF → verify →
//! flow-sim. The inputs are the paper's fixed grid, so `--seed` is unused.
//!
//! The traced run cannot see inside `conformance_record`, so it replays each
//! cell stage by stage from the public functions the program itself calls
//! ([`replay_cell`]) and must reproduce the untraced record bit for bit.

use super::{common_layer_metrics, load_graph, Tracing};
use crate::harness::{peak_rss_mb, Options, RepClock, Report, Setups};
use crate::stats::{geomean, median};
use crate::trace::{Recorder, Trace};
use coyote_bench::conformance::{COMPILE_BUDGET, DEFAULT_TOLERANCE};
use coyote_bench::{
    run_conformance, run_sweep, ConformanceRecord, ConformanceReport, Effort, MatrixConformance,
    SimSummary, SweepGrid, SweepSpec, WeightHeuristic,
};
use coyote_core::prelude::*;
use coyote_core::CoyoteConfig;
use coyote_ospf::{
    compare_routings, compress_program, compute_program_with, fake_nodes_per_destination,
    realized_routing, CompressionLevel, FibbingProgram, VirtualLinkBudget, DEFAULT_EPSILON,
};
use coyote_sim::FlowSimulator;
use coyote_traffic::{DemandMatrix, UncertaintySet};
use std::time::Instant;

/// The grid, checked before the clock starts: every cell names a zoo
/// topology whose base matrix carries demand.
fn setup(opts: &Options) -> Result<SweepGrid, String> {
    let mut grid = SweepGrid::conformance(Effort::Quick);
    if opts.smoke {
        grid = grid.filter("Abilene");
    }
    for spec in &grid.specs {
        let graph = load_graph(&spec.topology)?;
        if spec.model.generate(&graph).is_zero() {
            return Err(format!("{}: empty base matrix", spec.id()));
        }
    }
    Ok(grid)
}

fn cell_ms(report: &ConformanceReport) -> Vec<f64> {
    report.records.iter().map(|r| r.wall_secs * 1e3).collect()
}

fn identical(a: &ConformanceReport, b: &ConformanceReport) -> bool {
    a.records.len() == b.records.len()
        && a.records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| x.deterministic_view() == y.deterministic_view())
}

/// End-to-end metrics.
pub fn run_untraced(opts: &Options) -> Result<Report, String> {
    let mut setups = Setups::default();
    let grid = setups.run(|| setup(opts))?;
    let mut clock = RepClock::new(opts);
    let mut walls = Vec::new();
    let mut runs: Vec<ConformanceReport> = Vec::new();
    loop {
        let started = Instant::now();
        let run = run_conformance(&grid, 1, DEFAULT_TOLERANCE).map_err(|e| e.to_string())?;
        let secs = started.elapsed().as_secs_f64();
        walls.push(secs);
        runs.push(run);
        if !clock.record(secs) {
            break;
        }
    }
    setups.top_up(|| setup(opts));
    let rss = peak_rss_mb();

    let mut report = Report {
        reps: runs.len(),
        ..Report::default()
    };
    setups.report(&mut report);
    report.set_median("wall_s", &walls);
    let p50: Vec<f64> = runs.iter().map(|r| median(&cell_ms(r))).collect();
    let max: Vec<f64> = runs
        .iter()
        .map(|r| cell_ms(r).into_iter().fold(0.0, f64::max))
        .collect();
    report.set_median("op_ms", &p50);
    report.set_median("heavy_op_ms", &max);
    report.samples.insert("op_ms".into(), grid.len());
    report.set("peak_rss_mb", rss);
    report.set("lies", runs[0].total_fake_nodes() as f64);

    // The records do not carry the performance ratio the optimizer reached,
    // so quality comes from a sweep of the same grid with the clock stopped
    // (all cores: the sweep is bit-identical for every thread count).
    let sweep = run_sweep(&grid, 0).map_err(|e| e.to_string())?;
    let partial: Vec<f64> = sweep
        .records
        .iter()
        .map(|r| r.ratios.coyote_partial)
        .collect();
    report.set("quality_ratio", geomean(&partial).unwrap_or(f64::NAN));
    report.check(
        "performance ratios are finite and at least 1",
        partial.iter().all(|r| r.is_finite() && *r >= 1.0 - 1e-6),
        format!("{} cells", partial.len()),
    );

    report.attempted = (grid.len() * runs.len()) as u64;
    report.failed = runs.iter().map(|r| (r.cells - r.pass_count()) as u64).sum();
    report.check(
        "every cell within tolerance",
        report.failed == 0,
        format!(
            "{}/{} in the first repetition",
            runs[0].pass_count(),
            runs[0].cells
        ),
    );
    report.check(
        "records bit-identical across repetitions",
        runs.iter().all(|r| identical(r, &runs[0])),
        format!("{} repetitions", runs.len()),
    );
    Ok(report)
}

/// `Scenario`'s quick configuration is private; this copy must stay equal
/// to it, which the bit-for-bit comparison of every replayed record against
/// `conformance_record` enforces.
fn quick_evaluation_options() -> EvaluationOptions {
    EvaluationOptions {
        corners: 6,
        samples: 2,
        spikes: 3,
        seed: 0xC0707E,
    }
}

fn quick_coyote_config() -> CoyoteConfig {
    CoyoteConfig {
        cg_rounds: 2,
        cg_candidate_edges: 1,
        adam_iterations: 500,
        evaluation: quick_evaluation_options(),
        ..CoyoteConfig::fast()
    }
}

fn summary(sim: &FlowSimulator, dm: &DemandMatrix) -> SimSummary {
    let outcome = sim.run_matrix(dm);
    SimSummary {
        offered: outcome.offered,
        delivered: outcome.delivered,
        drop_rate: outcome.drop_rate(),
        max_utilization: sim.max_utilization(&outcome),
    }
}

/// What replaying one cell yields.
pub struct ReplayedCell {
    /// The record, comparable to `conformance_record`'s under
    /// `deterministic_view()`.
    pub record: ConformanceRecord,
    /// COYOTE (partial knowledge) performance ratio over the evaluation
    /// family.
    pub partial_ratio: f64,
    graph: coyote_graph::Graph,
    intended: PdRouting,
    program: FibbingProgram,
}

/// Replays `conformance_record(spec, tolerance)` from public functions, one
/// benchmark-side span per stage.
pub fn replay_cell(
    rec: &mut Recorder,
    spec: &SweepSpec,
    tolerance: f64,
) -> Result<ReplayedCell, String> {
    if spec.heuristic != WeightHeuristic::InverseCapacity || spec.effort != Effort::Quick {
        return Err(format!(
            "{}: the replay covers quick inverse-capacity cells only",
            spec.id()
        ));
    }
    let started = Instant::now();
    let core = |e: CoreError| format!("{}: {e}", spec.id());
    let graph = rec.span("topology.load", || load_graph(&spec.topology))?;
    let base = rec.span("traffic.base_matrix", || spec.model.generate(&graph));
    let uncertainty = rec.span("traffic.uncertainty", || {
        UncertaintySet::from_margin(&base, spec.margin)
    });
    let dags = rec
        .span("core.dags.build", || {
            build_all_dags(&graph, DagMode::Augmented)
        })
        .map_err(|e| format!("{}: {e}", spec.id()))?;
    let evaluation = rec
        .span("core.evalset.build", || {
            EvaluationSet::build(
                &graph,
                &dags,
                &uncertainty,
                Some(&base),
                &quick_evaluation_options(),
            )
        })
        .map_err(core)?;
    let ecmp = rec
        .span("core.ecmp", || ecmp_routing(&graph))
        .map_err(|e| format!("{}: {e}", spec.id()))?;
    let (base_routing, _) = rec
        .span("core.base_lp", || {
            optimal_routing_within_dags(&graph, &dags, &base)
        })
        .map_err(core)?;
    let cfg = quick_coyote_config();
    let oblivious = rec
        .span("core.splitting.oblivious", || {
            optimize_splitting_with_working_set(
                &graph,
                dags.clone(),
                &UncertaintySet::oblivious(graph.node_count()),
                Some(&base),
                &cfg,
                evaluation.clone(),
            )
        })
        .map_err(core)?;
    let partial = rec
        .span("core.splitting.partial", || {
            optimize_splitting_with_working_set(
                &graph,
                dags,
                &uncertainty,
                Some(&base),
                &cfg,
                evaluation.clone(),
            )
        })
        .map_err(core)?;
    let intended = partial.routing;
    let (partial_ratio, worst_dm) = rec.span("core.ratio_eval", || {
        for routing in [&ecmp, &base_routing, &oblivious.routing] {
            std::hint::black_box(evaluation.performance_ratio(&graph, routing));
        }
        let worst = evaluation
            .worst_matrix(&graph, &intended)
            .cloned()
            .unwrap_or_else(|| base.clone());
        (evaluation.performance_ratio(&graph, &intended), worst)
    });

    let ospf = |e: coyote_ospf::OspfError| format!("{}: {e}", spec.id());
    let program = rec
        .span("ospf.compile", || {
            compute_program_with(
                &graph,
                &intended,
                VirtualLinkBudget::per_prefix(COMPILE_BUDGET),
                CompressionLevel::Off,
            )
        })
        .map_err(ospf)?;
    let realized = rec
        .span("ospf.realize", || realized_routing(&graph, &program))
        .map_err(ospf)?;
    let (verification, max_fakes) = rec.span("ospf.verify", || {
        let verification = compare_routings(&graph, &intended, &realized);
        let max_fakes = fake_nodes_per_destination(&graph, &program)
            .iter()
            .map(|&(_, c)| c)
            .max()
            .unwrap_or(0);
        (verification, max_fakes)
    });
    let (base_mc, worst_mc) = rec.span("sim.flowsim", || {
        let intended_sim = FlowSimulator::from_pd_routing(&graph, &intended);
        let realized_sim = FlowSimulator::from_pd_routing(&graph, &realized);
        let measure = |dm: &DemandMatrix| MatrixConformance {
            intended: summary(&intended_sim, dm),
            realized: summary(&realized_sim, dm),
        };
        (measure(&base), measure(&worst_dm))
    });

    let max_utilization_delta = base_mc
        .max_utilization_delta()
        .max(worst_mc.max_utilization_delta());
    let drop_rate_delta = base_mc.drop_rate_delta().max(worst_mc.drop_rate_delta());
    let faithful = verification.is_faithful(tolerance);
    let record = ConformanceRecord {
        spec: spec.clone(),
        dags_match: verification.dags_match,
        max_split_error: verification.max_split_error,
        faithful,
        fake_nodes: program.stats.fake_nodes,
        prefix_advertisements: program.stats.prefix_advertisements,
        compression: CompressionLevel::Off.label(),
        max_fake_nodes_per_destination: max_fakes,
        base: base_mc,
        worst: worst_mc,
        max_utilization_delta,
        drop_rate_delta,
        within_tolerance: faithful
            && max_utilization_delta <= tolerance
            && drop_rate_delta <= tolerance,
        wall_secs: started.elapsed().as_secs_f64(),
    };
    Ok(ReplayedCell {
        record,
        partial_ratio,
        graph,
        intended,
        program,
    })
}

/// Per-layer metrics and the span trace.
pub fn run_traced(opts: &Options) -> Result<(Report, Trace), String> {
    let grid = setup(opts)?;
    let started = Instant::now();
    let reference = run_conformance(&grid, 1, DEFAULT_TOLERANCE).map_err(|e| e.to_string())?;
    let untraced_secs = started.elapsed().as_secs_f64();

    let mut tracing = Tracing::new();
    let mut replayed = Vec::with_capacity(grid.len());
    let mut fakes_compressed = 0usize;
    let mut traced_secs = 0.0;
    for spec in &grid.specs {
        tracing.rec.set_request(|| spec.id());
        tracing.install();
        let started = Instant::now();
        let cell_span = tracing.rec.open("conform.cell");
        let cell = replay_cell(&mut tracing.rec, spec, DEFAULT_TOLERANCE)?;
        tracing.rec.close(cell_span);
        traced_secs += started.elapsed().as_secs_f64();
        // The compression pass is not part of the grid: it runs with the
        // sink removed so the grid's counters stay the grid's.
        tracing.uninstall();
        let compressed = tracing
            .rec
            .span("ospf.compress", || {
                compress_program(
                    &cell.graph,
                    &cell.intended,
                    &cell.program,
                    CompressionLevel::Lossy {
                        epsilon: DEFAULT_EPSILON,
                    },
                )
            })
            .map_err(|e| format!("{}: {e}", spec.id()))?;
        fakes_compressed += compressed.stats.fake_nodes;
        tracing
            .rec
            .span("ospf.realize_compressed", || {
                realized_routing(&cell.graph, &compressed)
            })
            .map_err(|e| format!("{}: {e}", spec.id()))?;
        replayed.push((cell.record, cell.partial_ratio));
    }
    let (trace, snapshot) = tracing.finish();

    // One more run on two workers: what the pool buys, and what it costs.
    let parallel = run_conformance(&grid, 2, DEFAULT_TOLERANCE).map_err(|e| e.to_string())?;

    let mut report = Report {
        reps: 1,
        ..Report::default()
    };
    let totals = common_layer_metrics(&mut report, &trace, &snapshot);
    report.set("ospf.fake_nodes_compressed", fakes_compressed as f64);
    report.set("obs.overhead_ratio", traced_secs / untraced_secs);
    report.set(
        "runtime.pool.speedup_t2",
        untraced_secs / parallel.wall_secs,
    );
    report.set(
        "runtime.pool.cpu_inflation_t2",
        parallel.cpu_secs() / reference.cpu_secs(),
    );
    report
        .per_rep
        .insert("untraced_wall_s".into(), vec![untraced_secs]);
    report
        .per_rep
        .insert("traced_wall_s".into(), vec![traced_secs]);
    report
        .per_rep
        .insert("t2_wall_s".into(), vec![parallel.wall_secs]);
    let ratios: Vec<f64> = replayed.iter().map(|(_, r)| *r).collect();
    report.notes.push(format!(
        "geomean COYOTE-partial performance ratio over {} replayed cells: {}",
        ratios.len(),
        geomean(&ratios).unwrap_or(f64::NAN)
    ));
    let splitting = totals
        .get("core.optimize_splitting")
        .map_or(0.0, |t| t.inclusive_s());
    report.notes.push(format!(
        "core.optimize_splitting inclusive {:.3} s = {:.1} % of the traced repetition",
        splitting,
        100.0 * splitting / traced_secs
    ));

    report.attempted = 2 * grid.len() as u64;
    report.failed = (reference.cells - reference.pass_count()) as u64
        + replayed.iter().filter(|(r, _)| !r.within_tolerance).count() as u64;
    let mismatch = replayed
        .iter()
        .zip(&reference.records)
        .find(|((r, _), want)| r.deterministic_view() != want.deterministic_view())
        .map(|((r, _), _)| r.spec.id());
    report.check(
        "staged replay reproduces every record bit for bit",
        mismatch.is_none(),
        mismatch.map_or(format!("{} cells", replayed.len()), |id| {
            format!("first mismatch: {id}")
        }),
    );
    report.check(
        "two workers give the same records",
        identical(&parallel, &reference),
        format!("{} cells", parallel.cells),
    );
    Ok((report, trace))
}
