//! `failures-slice`: a slice of the failure grid where OSPF reconvergence
//! does most of the work.
//!
//! Timed section: `run_failures` over the seeded link / node / SRLG /
//! flash-crowd catalogue of Germany, AS1221 and InternetMCI (gravity, margin
//! 2.0, inverse-capacity weights, quick effort): about 205 cells. The full
//! 1790-cell grid takes minutes and Geant alone most of one, so the slice
//! keeps three mid-sized topologies whole rather than sampling cells.
//!
//! `failure_record` has no public stage boundary, so the traced run derives
//! the stage split from the spans the program already emits.

use super::{common_layer_metrics, load_graph, Tracing};
use crate::harness::{peak_rss_mb, Options, RepClock, Report, Setups, SplitMix64};
use crate::stats::{geomean, median, percentile};
use crate::trace::{Recorder, Trace};
use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{
    run_failures, BaseModel, CellOutcome, Effort, EventClass, FailureGrid, FailureReport,
    SweepGrid, WeightHeuristic,
};
use std::time::Instant;

const TOPOLOGIES: [&str; 3] = ["Germany", "AS1221", "InternetMCI"];

/// The catalogue for `opts.seed`, its topologies checked before the clock
/// starts.
pub fn setup(opts: &Options, rec: &mut Recorder) -> Result<FailureGrid, String> {
    let topologies: &[&str] = if opts.smoke {
        &["Abilene"]
    } else {
        &TOPOLOGIES
    };
    for name in topologies {
        rec.set_request(|| name.to_string());
        let graph = rec.span("topology.load", || load_graph(name))?;
        let base = rec.span("traffic.base_matrix", || {
            BaseModel::Gravity.generate(&graph)
        });
        if base.is_zero() {
            return Err(format!("{name}: empty base matrix"));
        }
    }
    let scenarios = SweepGrid::cross(
        topologies,
        &[BaseModel::Gravity],
        &[2.0],
        &[WeightHeuristic::InverseCapacity],
        Effort::Quick,
    );
    let catalogue_seed = SplitMix64(opts.seed).next_u64();
    rec.set_request(String::new);
    rec.span("failures.catalogue", || {
        FailureGrid::build(&scenarios, EventClass::All, catalogue_seed)
    })
    .map_err(|e| e.to_string())
}

/// A cell that produced no verdict of its own (`run_failures` substitutes a
/// fallback record) or lacks a mode. Within / degraded / unroutable are
/// verdicts, not failures.
fn failed_cells(run: &FailureReport) -> u64 {
    run.records
        .iter()
        .filter(|r| {
            let aborted = matches!(&r.outcome, CellOutcome::Unroutable { reason }
                if reason.starts_with("cell evaluation failed"));
            aborted || r.oblivious.is_none() || r.reoptimized.is_none()
        })
        .count() as u64
}

fn verdicts(run: &FailureReport) -> [usize; 3] {
    [
        run.within_count(),
        run.degraded_count(),
        run.unroutable_count(),
    ]
}

fn cell_ms(run: &FailureReport) -> Vec<f64> {
    run.records.iter().map(|r| r.wall_secs * 1e3).collect()
}

/// p95 when at least ten samples lie beyond it, otherwise the maximum (the
/// smoke catalogue is too small for a p95).
fn tail(samples: &[f64]) -> (f64, &'static str) {
    match percentile(samples, 95.0) {
        Some(p95) => (p95, "p95"),
        None => (samples.iter().copied().fold(0.0, f64::max), "max"),
    }
}

fn same_records(a: &FailureReport, b: &FailureReport) -> bool {
    a.records.len() == b.records.len()
        && a.records
            .iter()
            .zip(&b.records)
            .all(|(x, y)| x.deterministic_view() == y.deterministic_view())
}

/// End-to-end metrics.
pub fn run_untraced(opts: &Options) -> Result<Report, String> {
    let mut setups = Setups::default();
    let grid = setups.run(|| setup(opts, &mut Recorder::off()))?;
    let mut clock = RepClock::new(opts);
    let mut walls = Vec::new();
    let mut runs: Vec<FailureReport> = Vec::new();
    loop {
        let started = Instant::now();
        let run = run_failures(&grid, 1, DEFAULT_TOLERANCE).map_err(|e| e.to_string())?;
        let secs = started.elapsed().as_secs_f64();
        walls.push(secs);
        runs.push(run);
        if !clock.record(secs) {
            break;
        }
    }
    setups.top_up(|| setup(opts, &mut Recorder::off()));
    let rss = peak_rss_mb();

    let first = &runs[0];
    let mut report = Report {
        reps: runs.len(),
        ..Report::default()
    };
    setups.report(&mut report);
    report.set_median("wall_s", &walls);
    // Percentiles are over the samples pooled across repetitions.
    let pooled: Vec<f64> = runs.iter().flat_map(cell_ms).collect();
    let (tail_ms, tail_name) = tail(&pooled);
    report.set("op_ms", median(&pooled));
    report.set("heavy_op_ms", tail_ms);
    report.samples.insert("op_ms".into(), pooled.len());
    report.samples.insert("heavy_op_ms".into(), pooled.len());
    report.notes.push(format!(
        "heavy_op_ms is the cell {tail_name} of {} samples",
        pooled.len()
    ));
    report.per_rep.insert(
        "op_ms".into(),
        runs.iter().map(|r| median(&cell_ms(r))).collect(),
    );
    report.per_rep.insert(
        "heavy_op_ms".into(),
        runs.iter().map(|r| tail(&cell_ms(r)).0).collect(),
    );
    report.set("peak_rss_mb", rss);
    let ratios: Vec<f64> = first
        .records
        .iter()
        .filter_map(|r| r.degradation_ratio)
        .filter(|r| *r > 0.0)
        .collect();
    report.set("quality_ratio", geomean(&ratios).unwrap_or(f64::NAN));
    report.samples.insert("quality_ratio".into(), ratios.len());
    report.set(
        "lies",
        first
            .records
            .iter()
            .map(|r| r.fake_lsa_delta)
            .sum::<usize>() as f64,
    );

    report.attempted = (grid.len() * runs.len()) as u64;
    report.failed = runs.iter().map(failed_cells).sum();
    report.check(
        "no aborted cell, both modes on every cell",
        report.failed == 0,
        format!("{} cells x {} repetitions", grid.len(), runs.len()),
    );
    let [within, degraded, unroutable] = verdicts(first);
    report.check(
        "records identical across repetitions",
        runs.iter().all(|r| same_records(r, first)),
        format!("{within} within / {degraded} degraded / {unroutable} unroutable"),
    );
    Ok(report)
}

/// Per-layer metrics and the span trace.
pub fn run_traced(opts: &Options) -> Result<(Report, Trace), String> {
    let mut tracing = Tracing::new();
    tracing.install();
    let grid = setup(opts, &mut tracing.rec)?;
    tracing.uninstall();
    let started = Instant::now();
    let reference = run_failures(&grid, 1, DEFAULT_TOLERANCE).map_err(|e| e.to_string())?;
    let untraced_secs = started.elapsed().as_secs_f64();

    tracing.install();
    let started = Instant::now();
    let traced = tracing
        .rec
        .span("failures.run", || run_failures(&grid, 1, DEFAULT_TOLERANCE))
        .map_err(|e| e.to_string())?;
    let traced_secs = started.elapsed().as_secs_f64();
    let (mut trace, snapshot) = tracing.finish();
    // Serial, so the k-th `failures.cell` span is the k-th cell of the grid.
    let ids: Vec<String> = grid.cells.iter().map(|c| c.id()).collect();
    trace.assign_requests("failures.cell", &ids);

    let mut report = Report {
        reps: 1,
        ..Report::default()
    };
    common_layer_metrics(&mut report, &trace, &snapshot);
    let [within, degraded, unroutable] = verdicts(&traced);
    report.set("failures.verdict_within", within as f64);
    report.set("failures.verdict_degraded", degraded as f64);
    report.set("failures.verdict_unroutable", unroutable as f64);
    report.set("obs.overhead_ratio", traced_secs / untraced_secs);
    report
        .per_rep
        .insert("untraced_wall_s".into(), vec![untraced_secs]);
    report
        .per_rep
        .insert("traced_wall_s".into(), vec![traced_secs]);
    report.notes.push(format!(
        "ospf.spf self time is {:.1} % of the traced repetition",
        100.0 * report.values["ospf.spf.self_s"] / traced_secs
    ));

    report.attempted = 2 * grid.len() as u64;
    report.failed = failed_cells(&reference) + failed_cells(&traced);
    report.check(
        "no aborted cell, both modes on every cell",
        report.failed == 0,
        format!("{} cells x 2 repetitions", grid.len()),
    );
    report.check(
        "traced repetition gives the untraced records",
        same_records(&traced, &reference),
        format!("{within} within / {degraded} degraded / {unroutable} unroutable"),
    );
    Ok((report, trace))
}
