//! Every workload and metric name the benchmark can print.
//!
//! `BENCHMARK.json` at the repository root declares the same names, units,
//! directions and bounds; `tests/contract.rs` keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
}

/// The four workloads.
pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "conform-grid",
        why: "The paper's 28-cell grid through optimize, compile, SPF, verify and flow-sim: the headline unit and the only workload the splitting optimizer dominates (LP nested inside it, ospf about 5 %).",
    },
    WorkloadInfo {
        name: "lp-families",
        why: "1,624 OPTU solves (one matrix, many right-hand sides) and 13 exact adversary scans (one system, many objectives): the LP does all the work and Adam none, so a solver change shows undiluted.",
    },
    WorkloadInfo {
        name: "failures-slice",
        why: "About 205 seeded link, node, SRLG and flash-crowd cells on Germany, AS1221 and InternetMCI: SPF reconvergence over the lied-to LSDB dominates, the LP and the optimizer do little.",
    },
    WorkloadInfo {
        name: "serve-events",
        why: "15,000 demand updates and 3,000 link events through five in-process TeEngines: the daemon's event loop, latency-shaped, the lp and ospf layers used incrementally, no Adam and no full SPF.",
    },
];

/// One named metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricInfo {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// True when two runs of one build at one seed must agree exactly
    /// (work counters and deterministic outputs).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact,
    }
}

/// End-to-end metrics; every workload reports every one of them.
///
/// `op_ms` and `heavy_op_ms` are the latencies of the workload's two
/// operation classes: median cell / slowest cell (`conform-grid`), one OPTU
/// solve / one adversary scan (`lp-families`, section wall time over the
/// operation count), cell p50 / cell p95 (`failures-slice`), demand-update
/// p50 / link-event p50 (`serve-events`).
pub const END_TO_END: &[MetricInfo] = &[
    e2e("setup_s", "s", 0.25, false),
    e2e("wall_s", "s", 0.25, false),
    e2e("op_ms", "ms", 0.25, false),
    e2e("heavy_op_ms", "ms", 0.25, false),
    e2e("peak_rss_mb", "MB", 0.15, false),
    e2e("quality_ratio", "ratio", 0.06, true),
    e2e("lies", "count", 0.12, true),
];

const fn time(name: &'static str, unit: &'static str) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str) -> MetricInfo {
    MetricInfo {
        name,
        unit: "count",
        better: Better::Lower,
        bound: None,
        exact: true,
    }
}

const fn ratio(name: &'static str, better: Better, exact: bool) -> MetricInfo {
    MetricInfo {
        name,
        unit: "ratio",
        better,
        bound: None,
        exact,
    }
}

/// Per-layer metrics, from the traced run. Layer names are the crate and
/// module names; a metric reads 0 on a workload that does not exercise it.
pub const PER_LAYER: &[MetricInfo] = &[
    // topology, traffic
    time("topology.load_ms", "ms"),
    time("traffic.base_matrix_ms", "ms"),
    time("traffic.uncertainty_ms", "ms"),
    count("topology.graphs_built"),
    // graph, core.dag_builder
    time("core.dags.build_ms", "ms"),
    count("graph.spf.runs"),
    // core.perf, core.opt_mcf
    time("core.evalset.build_ms", "ms"),
    count("core.evalset.matrices"),
    time("core.base_lp_ms", "ms"),
    time("core.ratio_eval_ms", "ms"),
    count("core.opt_mcf.solves"),
    // core.oblivious, gp
    time("core.splitting.oblivious_ms", "ms"),
    time("core.splitting.partial_ms", "ms"),
    time("core.splitting.self_s", "s"),
    count("core.cg.rounds"),
    count("core.cg.optimizations"),
    count("gp.adam.runs"),
    count("gp.adam.iterations"),
    ratio("gp.adam.iters_per_round", Better::Lower, true),
    // core.worst_case
    time("core.worst_case.scan_ms", "ms"),
    time("core.worst_case.edge_solve_p50_ms", "ms"),
    count("core.worst_case.lp_solves"),
    count("core.worst_case.scans"),
    // core.incremental
    count("core.incremental.solves"),
    time("core.incremental.self_s", "s"),
    // lp
    count("lp.solves"),
    count("lp.cold_solves"),
    count("lp.warm_solves"),
    count("lp.warm_fallbacks"),
    ratio("lp.warm_hit_ratio", Better::Higher, true),
    MetricInfo {
        better: Better::Higher,
        ..count("lp.warm_pivots_saved")
    },
    count("lp.pivots"),
    count("lp.phase1_pivots"),
    count("lp.phase2_pivots"),
    ratio("lp.phase1_share", Better::Lower, true),
    count("lp.refactorizations"),
    count("lp.refresh_rounds"),
    count("lp.basis_repairs"),
    time("lp.optu.solve_p50_ms", "ms"),
    time("lp.optu.solve_p95_ms", "ms"),
    MetricInfo {
        name: "lp.pivots_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: None,
        exact: false,
    },
    time("lp.solve.self_s", "s"),
    // ospf
    time("ospf.compile_ms", "ms"),
    time("ospf.compress_ms", "ms"),
    count("ospf.fake_nodes_compressed"),
    time("ospf.realize_ms", "ms"),
    time("ospf.realize_compressed_ms", "ms"),
    time("ospf.verify_ms", "ms"),
    count("ospf.fake_nodes"),
    count("ospf.lied_router_prefix_pairs"),
    count("ospf.compile_runs"),
    count("ospf.spf.runs"),
    time("ospf.spf.self_s", "s"),
    time("ospf.spf.us_per_run", "us"),
    // sim
    time("sim.flowsim_ms", "ms"),
    count("sim.flowsim.runs"),
    count("sim.flowsim.rounds"),
    // bench.failures
    time("failures.catalogue_ms", "ms"),
    time("failures.base_s", "s"),
    time("failures.prune_s", "s"),
    time("failures.reconverge_s", "s"),
    time("failures.reopt_s", "s"),
    time("failures.flowsim_s", "s"),
    count("failures.reconvergence.spf_runs"),
    count("failures.cells"),
    count("failures.verdict_within"),
    count("failures.verdict_degraded"),
    count("failures.verdict_unroutable"),
    // serve
    time("serve.engine.new_ms", "ms"),
    time("serve.demand_p99_us", "us"),
    time("serve.event_p99_us", "us"),
    ratio("serve.reopt_share", Better::Higher, false),
    time("serve.cold_rebuild_ms", "ms"),
    ratio("serve.event_vs_cold_ratio", Better::Higher, false),
    time("serve.verify_ms", "ms"),
    ratio("serve.dirty_per_demand", Better::Lower, true),
    ratio("serve.delta_prefixes_per_update", Better::Lower, true),
    ratio("serve.fakes_added_per_update", Better::Lower, true),
    count("serve.updates"),
    time("serve.http.state_rtt_us", "us"),
    time("serve.http.demand_overhead_us", "us"),
    // runtime
    ratio("runtime.pool.speedup_t2", Better::Higher, false),
    ratio("runtime.pool.cpu_inflation_t2", Better::Lower, false),
    // obs
    ratio("obs.overhead_ratio", Better::Lower, false),
    count("trace.spans"),
];

/// Looks a metric up in both tables.
pub fn metric(name: &str) -> Option<&'static MetricInfo> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}
