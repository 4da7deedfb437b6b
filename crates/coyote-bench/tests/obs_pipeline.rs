//! Integration tests for the observability layer wired through the
//! conformance pipeline:
//!
//! * a profiled conformance run on Abilene exports a chrome://tracing
//!   trace that is valid JSON and whose span names cover every pipeline
//!   stage (compile → SPF → LP → flow simulation);
//! * the deterministic snapshot sections (counters + value histograms) are
//!   bit-identical between `threads = 1` and `threads = 2`, and CI runs
//!   that test alone in a fresh release process;
//! * a profiled sweep of the same cell shows the Base routing's LP taking
//!   its named start, on one thread as on two;
//! * a failure cell on the same spec runs one Dijkstra per destination,
//!   its failure view's, and the routers' SPF twice;
//! * spans recorded under the worker pool nest properly on every trace
//!   lane, for every item/thread configuration (a proptest).

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::pool::WorkerPool;
use coyote_bench::{
    run_conformance, run_failures, run_sweep, BaseModel, Effort, EventClass, FailureGrid,
    SweepGrid, WeightHeuristic, DEFAULT_FAILURE_SEED,
};
use coyote_obs::{chrome_trace_json, install, metrics_json, uninstall, Registry, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;
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

/// [`profiled_run`] for the sweep of the same cell, which also solves the
/// Base routing's LP and runs the oblivious optimization.
fn profiled_sweep(threads: usize) -> Arc<Registry> {
    let registry = Arc::new(Registry::new());
    install(registry.clone());
    let report = run_sweep(&abilene_grid(), threads).expect("sweep run");
    uninstall();
    assert_eq!(report.scenarios, 1);
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
        "bench.scenario",
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
    for section in ["\"counters\"", "\"histograms\"", "\"timings\""] {
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
}

#[test]
fn base_lp_takes_its_named_start_in_a_profiled_sweep() {
    let _guard = exclusive();
    for threads in [1, 2] {
        let registry = profiled_sweep(threads);
        assert!(
            chrome_trace_json(&registry).contains("\"name\":\"bench.evaluate_scenario\""),
            "the sweep scores the four protocols"
        );
        // The Base routing's LP named its start and the guard took it (a
        // refused start is published once per solve too).
        let view = registry.snapshot().deterministic();
        assert_eq!(
            view.counters.get("lp.crash_starts"),
            Some(&1),
            "{threads} threads"
        );
        assert_eq!(
            view.counters.get("lp.crash_rejects"),
            None,
            "{threads} threads"
        );
    }
}

/// What one more failure cell costs, read off the deterministic counters of
/// a one-cell and a two-cell Abilene link grid with the same spec (so the
/// same phase-1 work). The cell's failure view runs one Dijkstra per
/// destination and nothing else in the cell runs one: not the withdrawal,
/// not the reconvergence, not the re-optimizer's DAGs, compile or realized
/// FIB. The routers' SPF still counts twice, once for the reconverged FIB
/// and once for the realized re-optimized program's.
#[test]
fn a_failure_cell_runs_one_dijkstra_per_destination() {
    let _guard = exclusive();
    let grid = FailureGrid::build(&abilene_grid(), EventClass::Link, DEFAULT_FAILURE_SEED)
        .expect("Abilene is in the zoo");
    let counters = |cells: usize| {
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        let report = run_failures(&grid.clone().limit(cells), 1, DEFAULT_TOLERANCE);
        uninstall();
        assert_eq!(report.expect("failure run").cells, cells);
        let view = registry.snapshot().deterministic();
        let count = |name: &str| view.counters.get(name).copied().unwrap_or(0);
        (count("graph.spf.runs"), count("ospf.spf.runs"))
    };
    let (one, two) = (counters(1), counters(2));
    let n = 11;
    assert_eq!(
        (two.0 - one.0, two.1 - one.1),
        (n, 2 * n),
        "(graph.spf.runs, ospf.spf.runs) of the second cell"
    );
}

/// Opens `depth` nested `prop.nest` spans, innermost last.
fn nest(depth: usize) {
    if depth == 0 {
        std::hint::black_box(0u64);
        return;
    }
    let _span = coyote_obs::span("prop.nest");
    nest(depth - 1);
}

/// Checks that on every lane, span intervals are disjoint or properly
/// nested, and that a span running inside another is recorded deeper.
///
/// Spans carry (start, duration) intervals stamped from each worker's
/// monotonic clock and a per-thread nesting depth. On any single trace
/// lane (= one worker thread of one registry) two spans must therefore be
/// disjoint or nested; partial overlap would mean the exporter
/// reconstructs a broken hierarchy in chrome://tracing.
fn assert_lanes_well_nested(events: &[TraceEvent]) -> Result<(), TestCaseError> {
    let mut by_lane: BTreeMap<u32, Vec<&TraceEvent>> = BTreeMap::new();
    for e in events {
        by_lane.entry(e.lane).or_default().push(e);
    }
    for (lane, mut evs) in by_lane {
        // Outer spans first at equal start times.
        evs.sort_by_key(|e| (e.start_ns, std::cmp::Reverse(e.dur_ns)));
        for i in 0..evs.len() {
            for j in (i + 1)..evs.len() {
                let (a, b) = (evs[i], evs[j]);
                let a_end = a.start_ns + a.dur_ns;
                let b_end = b.start_ns + b.dur_ns;
                let disjoint = b.start_ns >= a_end;
                let contained = b.start_ns >= a.start_ns && b_end <= a_end;
                prop_assert!(
                    disjoint || contained,
                    "partial overlap on lane {lane}: {} [{}, {}) vs {} [{}, {})",
                    a.name,
                    a.start_ns,
                    a_end,
                    b.name,
                    b.start_ns,
                    b_end
                );
                if !disjoint {
                    // b ran strictly inside a on the same thread, so it was
                    // opened while a was open: it must be recorded deeper.
                    prop_assert!(
                        b.depth > a.depth,
                        "lane {lane}: {} (depth {}) inside {} (depth {})",
                        b.name,
                        b.depth,
                        a.name,
                        a.depth
                    );
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pool_spans_nest_properly_on_every_lane(
        depths in proptest::collection::vec(0usize..4, 1..12),
        threads in 1usize..5,
    ) {
        let _guard = exclusive();
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        let pool = WorkerPool::new(threads);
        let out = pool.par_map(&depths, |d| {
            let _item = coyote_obs::span("prop.item");
            nest(*d);
            *d
        });
        uninstall();
        prop_assert_eq!(&out, &depths);

        let events = registry.trace_events();
        // Every span was recorded exactly once: one prop.item per item and
        // one prop.nest per nesting level, regardless of thread count.
        let items = events.iter().filter(|e| e.name == "prop.item").count();
        prop_assert_eq!(items, depths.len());
        let nests = events.iter().filter(|e| e.name == "prop.nest").count();
        prop_assert_eq!(nests, depths.iter().sum::<usize>());
        assert_lanes_well_nested(&events)?;

        // The deterministic snapshot view is identical no matter how many
        // workers recorded it: counters and value histograms commute.
        let snapshot = registry.snapshot();
        prop_assert_eq!(
            snapshot.counters.get("runtime.pool.items").copied(),
            Some(depths.len() as u64)
        );
    }
}
