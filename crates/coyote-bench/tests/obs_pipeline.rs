//! Integration tests for the observability layer wired through the
//! conformance pipeline:
//!
//! * a profiled conformance run on Abilene exports a chrome://tracing
//!   trace that is valid JSON and whose span names cover every pipeline
//!   stage (compile → SPF → LP → flow simulation);
//! * the deterministic snapshot sections (counters + value histograms) are
//!   bit-identical between `threads = 1` and `threads = 2`, and CI runs
//!   that test alone in a fresh release process.

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{run_conformance, BaseModel, Effort, SweepGrid, WeightHeuristic};
use coyote_obs::{chrome_trace_json, install, metrics_json, uninstall, Registry};
use std::sync::{Arc, Mutex, MutexGuard};

/// The observability sink is process-global; tests that install a registry
/// must not run concurrently with each other.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    SINK_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// One conformance cell: Abilene × gravity at margin 2.0 — enough to
/// exercise compile, SPF, LP, CG and flow simulation.
fn abilene_grid() -> SweepGrid {
    SweepGrid::cross(
        &["Abilene"],
        &[BaseModel::Gravity],
        &[2.0],
        &[WeightHeuristic::InverseCapacity],
        Effort::Quick,
    )
}

/// Runs the Abilene conformance cell with a fresh registry installed and
/// returns the registry (caller must hold the sink lock).
fn profiled_run(threads: usize) -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    install(registry.clone());
    let report =
        run_conformance(&abilene_grid(), threads, DEFAULT_TOLERANCE).expect("conformance run");
    uninstall();
    assert_eq!(report.cells, 1);
    registry
}

/// Asserts `text` is exactly one JSON value (plus surrounding whitespace).
fn assert_valid_json(text: &str, what: &str) {
    if let Err(e) = serde_json::from_str(text) {
        panic!("{what} is not valid JSON: {e}");
    }
}

#[test]
fn chrome_trace_is_valid_json_and_covers_every_pipeline_stage() {
    let _guard = exclusive();
    let registry = profiled_run(1);

    let trace = chrome_trace_json(&registry);
    assert_valid_json(&trace, "chrome trace");
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("\"ph\":\"X\""));

    // Every stage of the pipeline left at least one span in the trace.
    for stage in [
        "conform.cell",
        "conform.evaluate",
        "conform.verify",
        "conform.flowsim",
        "bench.evaluate_scenario",
        "core.optimize_splitting",
        "core.opt_mcf",
        "core.worst_case",
        "lp.solve",
        "ospf.compile",
        "ospf.spf",
        "sim.flowsim",
    ] {
        assert!(
            trace.contains(&format!("\"name\":\"{stage}\"")),
            "trace is missing pipeline stage {stage}"
        );
    }

    let metrics = metrics_json(&registry.snapshot());
    assert_valid_json(&metrics, "metrics snapshot");
    for section in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"timings\"",
    ] {
        assert!(
            metrics.contains(section),
            "metrics missing section {section}"
        );
    }
}

#[test]
fn deterministic_metrics_are_bit_identical_across_thread_counts() {
    let _guard = exclusive();
    let serial = profiled_run(1);
    let parallel = profiled_run(2);

    let serial_view = serial.snapshot().deterministic();
    let parallel_view = parallel.snapshot().deterministic();
    assert_eq!(
        metrics_json(&serial_view),
        metrics_json(&parallel_view),
        "deterministic metrics diverged between threads=1 and threads=2"
    );

    // The run did real work: the workload counters are non-trivial.
    for counter in [
        "lp.pivots",
        "lp.solves",
        "lp.lu.nnz",
        "lp.degenerate_pivots",
        "lp.crash_starts",
        "core.cg.rounds",
        "ospf.fake_nodes",
        "sim.flowsim.rounds",
        "runtime.pool.items",
    ] {
        assert!(
            serial_view.counters.get(counter).copied().unwrap_or(0) > 0,
            "counter {counter} was never incremented"
        );
    }
    // The Base routing's LP named its start and the guard took it, on one
    // thread as on two (a refused start is published once per solve too).
    for view in [&serial_view, &parallel_view] {
        assert_eq!(view.counters.get("lp.crash_starts"), Some(&1));
        assert_eq!(view.counters.get("lp.crash_rejects"), None);
    }
}
