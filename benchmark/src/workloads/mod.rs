//! The four workloads. Each module has `run_untraced` (the end-to-end
//! metrics, tracing off, no `coyote-obs` sink installed) and `run_traced`
//! (one untraced reference repetition, then one traced repetition for the
//! per-layer metrics and the span trace).

pub mod conform_grid;
pub mod failures_slice;
pub mod lp_families;
pub mod serve_events;

use crate::harness::{Options, Report};
use crate::trace::{NameTotals, Recorder, Trace};
use coyote_graph::Graph;
use coyote_obs::{Registry, Snapshot};
use coyote_topology::zoo;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Runs workload `name` untraced.
pub fn run_untraced(name: &str, opts: &Options) -> Result<Report, String> {
    match name {
        "conform-grid" => conform_grid::run_untraced(opts),
        "lp-families" => lp_families::run_untraced(opts),
        "failures-slice" => failures_slice::run_untraced(opts),
        "serve-events" => serve_events::run_untraced(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Runs workload `name` traced.
pub fn run_traced(name: &str, opts: &Options) -> Result<(Report, Trace), String> {
    match name {
        "conform-grid" => conform_grid::run_traced(opts),
        "lp-families" => lp_families::run_traced(opts),
        "failures-slice" => failures_slice::run_traced(opts),
        "serve-events" => serve_events::run_traced(opts),
        other => Err(format!("unknown workload {other}")),
    }
}

/// The 14 Table-I topologies (the zoo minus the two near-trees).
pub fn table1_names() -> Vec<&'static str> {
    zoo::ALL_NAMES
        .iter()
        .filter(|n| !zoo::NEAR_TREE_NAMES.contains(n))
        .copied()
        .collect()
}

/// Loads a zoo topology as a graph with inverse-capacity weights, the
/// weights every workload runs under.
pub fn load_graph(name: &str) -> Result<Graph, String> {
    let topo = zoo::by_name(name).ok_or_else(|| format!("unknown topology {name}"))?;
    let mut graph = topo.to_graph().map_err(|e| format!("{name}: {e}"))?;
    graph.set_inverse_capacity_weights(10.0);
    Ok(graph)
}

/// The traced repetition's instruments: the benchmark's span recorder and a
/// `coyote-obs` registry that collects the program's own spans and counters
/// while it is installed.
pub struct Tracing {
    /// Benchmark-side spans.
    pub rec: Recorder,
    registry: Arc<Registry>,
}

impl Tracing {
    /// Creates both; nothing is installed yet.
    pub fn new() -> Tracing {
        let registry = Arc::new(Registry::new());
        Tracing {
            rec: Recorder::new(&registry),
            registry,
        }
    }

    /// Starts collecting the program's spans and counters.
    pub fn install(&self) {
        coyote_obs::install(self.registry.clone());
    }

    /// Stops collecting them.
    pub fn uninstall(&self) {
        coyote_obs::uninstall();
    }

    /// Merges both span sources and returns the counters.
    pub fn finish(self) -> (Trace, Snapshot) {
        coyote_obs::uninstall();
        let snapshot = self.registry.snapshot();
        (self.rec.finish(&self.registry.trace_events()), snapshot)
    }
}

impl Default for Tracing {
    fn default() -> Self {
        Self::new()
    }
}

/// Fills the per-layer metrics every workload derives the same way: the
/// program's work counters, span totals by name, and the ratios between
/// them. Workload-specific metrics are set by the caller afterwards.
pub fn common_layer_metrics(
    report: &mut Report,
    trace: &Trace,
    snapshot: &Snapshot,
) -> BTreeMap<String, NameTotals> {
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    for name in [
        "topology.graphs_built",
        "graph.spf.runs",
        "core.opt_mcf.solves",
        "core.cg.rounds",
        "core.cg.optimizations",
        "gp.adam.runs",
        "gp.adam.iterations",
        "core.worst_case.lp_solves",
        "core.worst_case.scans",
        "core.incremental.solves",
        "lp.solves",
        "lp.cold_solves",
        "lp.warm_solves",
        "lp.warm_fallbacks",
        "lp.warm_pivots_saved",
        "lp.pivots",
        "lp.phase1_pivots",
        "lp.phase2_pivots",
        "lp.refactorizations",
        "lp.refresh_rounds",
        "lp.basis_repairs",
        "ospf.fake_nodes",
        "ospf.lied_router_prefix_pairs",
        "ospf.compile_runs",
        "ospf.spf.runs",
        "sim.flowsim.runs",
        "sim.flowsim.rounds",
        "failures.reconvergence.spf_runs",
        "failures.cells",
        "serve.updates",
    ] {
        report.set(name, counter(name));
    }
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    report.set(
        "gp.adam.iters_per_round",
        share(counter("gp.adam.iterations"), counter("gp.adam.runs")),
    );
    // Useful over attempted basis restores.
    report.set(
        "lp.warm_hit_ratio",
        share(
            counter("lp.warm_solves"),
            counter("lp.warm_solves") + counter("lp.warm_fallbacks"),
        ),
    );
    report.set(
        "lp.phase1_share",
        share(counter("lp.phase1_pivots"), counter("lp.pivots")),
    );

    let totals = trace.totals();
    let of = |name: &str| totals.get(name).copied().unwrap_or_default();
    // Benchmark-side stage spans carry the metric's own stem as their name.
    for stem in [
        "topology.load",
        "traffic.base_matrix",
        "traffic.uncertainty",
        "core.dags.build",
        "core.evalset.build",
        "core.base_lp",
        "core.ratio_eval",
        "core.splitting.oblivious",
        "core.splitting.partial",
        "ospf.compile",
        "ospf.compress",
        "ospf.realize",
        "ospf.realize_compressed",
        "ospf.verify",
        "failures.catalogue",
        "serve.engine.new",
        "serve.verify",
    ] {
        report.set(&format!("{stem}_ms"), of(stem).inclusive_ms());
    }
    report.set(
        "core.worst_case.scan_ms",
        of("core.worst_case").inclusive_ms(),
    );
    report.set("sim.flowsim_ms", of("sim.flowsim").inclusive_ms());
    for stage in ["base", "prune", "reconverge", "reopt", "flowsim"] {
        report.set(
            &format!("failures.{stage}_s"),
            of(&format!("failures.{stage}")).inclusive_s(),
        );
    }
    report.set(
        "core.splitting.self_s",
        of("core.optimize_splitting").self_s(),
    );
    report.set(
        "core.incremental.self_s",
        of("core.incremental.solve").self_s(),
    );
    report.set("lp.solve.self_s", of("lp.solve").self_s());
    report.set("ospf.spf.self_s", of("ospf.spf").self_s());
    report.set(
        "ospf.spf.us_per_run",
        share(of("ospf.spf").self_s() * 1e6, counter("ospf.spf.runs")),
    );
    report.set(
        "lp.pivots_per_s",
        share(counter("lp.pivots"), of("lp.solve").self_s()),
    );
    report.set("trace.spans", trace.spans.len() as f64);

    // One OPTU solve is one `core.opt_mcf` span inside an evaluation-set
    // build; one adversary edge solve is one `lp.solve` inside a scan.
    let nested_ms = |name: &str, ancestor: &str| -> Vec<f64> {
        trace
            .spans
            .iter()
            .filter(|s| s.name == name && trace.has_ancestor(s.id, ancestor))
            .map(|s| s.dur_ns() as f64 * 1e-6)
            .collect()
    };
    let optu = nested_ms("core.opt_mcf", "core.evalset.build");
    report.samples.insert("lp.optu.solve".into(), optu.len());
    report.set("core.evalset.matrices", optu.len() as f64);
    report.set("lp.optu.solve_p50_ms", crate::stats::median_or_zero(&optu));
    report.set(
        "lp.optu.solve_p95_ms",
        crate::stats::percentile(&optu, 95.0).unwrap_or(0.0),
    );
    let edges = nested_ms("lp.solve", "core.worst_case");
    report
        .samples
        .insert("core.worst_case.edge_solve".into(), edges.len());
    report.set(
        "core.worst_case.edge_solve_p50_ms",
        crate::stats::median_or_zero(&edges),
    );
    totals
}
