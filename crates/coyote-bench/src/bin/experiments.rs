//! The `experiments` binary: regenerates every table and figure of the
//! paper from the command line, and runs parallel sweeps over the full
//! scenario grid.
//!
//! ```text
//! experiments <command> [--full] [--threads N] [--format json|csv|text]
//!             [--out PATH] [--filter SUBSTR] [--limit N] [--tolerance T]
//!             [--profile] [--trace-out PATH] [--metrics-out PATH]
//!
//! Commands:
//!   fig1        Running example (Fig. 1, Appendix B)
//!   gadget      Theorem 1 BIPARTITION gadget
//!   lowerbound  Theorem 4 Ω(|V|) instance
//!   fig6        Geant, gravity model, ratio vs margin
//!   fig7        Digex, gravity model
//!   fig8        AS1755, bimodal model
//!   fig9        Abilene, bimodal model, local-search weights
//!   fig10       Splitting-ratio approximation with 3/5/10 virtual next hops
//!   fig11       Average path stretch across topologies
//!   fig12       Prototype packet-drop experiment
//!   table1      Full ratio table (topologies × margins)
//!   sweep       Full scenario grid (topologies × models × margins), with
//!               per-scenario wall-clock timings in the report
//!   conform     Full-stack conformance: every Table-I-eligible topology ×
//!               both demand models through compile → realized Fibbing
//!               routing → flow-level simulation, with intended-vs-realized
//!               deltas and a per-cell tolerance verdict
//!   failures    Failure-scenario engine: the conformance grid crossed with
//!               fault events (single-link, single-node, SRLG groups, demand
//!               spikes); per cell, the pre-failure Fibbing program is kept
//!               and SPF-reconverged over the pruned LSDB (oblivious mode)
//!               and compared against a recompiled program (re-optimized
//!               mode), with a structured within/degraded/unroutable verdict
//!   serve       Long-running incremental TE daemon: loads a topology and
//!               demand model, compiles the Fibbing program once, then
//!               serves telemetry and accepts demand/link/node updates over
//!               HTTP/JSON, re-optimizing incrementally (dirty destinations
//!               only) and advancing its LSDB through per-prefix LSA deltas
//!   all         Everything above except sweep, conform, failures and serve
//!
//! Flags:
//!   --full        Paper-scale sweeps (default: quick configuration)
//!   --threads N   Worker threads for multi-scenario commands
//!                 (0 = one per core, the default; 1 = serial)
//!   --format F    Output format: text (default), json, or csv
//!   --json        Shorthand for --format json
//!   --out PATH    Write the report to PATH instead of stdout
//!   --filter S    sweep/conform/failures: keep scenarios whose id contains
//!                 S (case-insensitive; ids look like Abilene/gravity/
//!                 reverse-capacities/m2.0, failure cells append +link-3)
//!   --limit N     sweep/conform/failures: evaluate at most the first N
//!                 scenarios
//!   --tolerance T conform/failures: per-cell verdict threshold (conform:
//!                 split error and intended-vs-realized deltas; failures:
//!                 oblivious drop rate and degradation-ratio excess;
//!                 default 0.05)
//!   --compress    conform only: compile every cell's Fibbing program
//!                 through the lossy compression pipeline (cross-destination
//!                 fake merging + ratio quantization + no-op elimination)
//!   --compress-epsilon E  conform only: quantization tolerance of the
//!                 lossy pass (implies --compress; default 0.02)
//!   --pareto      conform only: sweep the grid once per compression level
//!                 (off, lossless, and a ladder of epsilons) and emit the
//!                 fake-nodes-vs-split-error Pareto table instead of the
//!                 per-cell report
//!   --events E    failures only: which event classes to inject —
//!                 link|node|srlg|spike|all (default all)
//!   --profile     sweep/conform/failures: record spans and workload
//!                 counters via coyote-obs and append a per-stage time table
//!                 plus the deterministic counters to the text report footer
//!   --trace-out PATH    sweep/conform/failures: write a chrome://tracing /
//!                 Perfetto-compatible JSON trace (implies --profile)
//!   --metrics-out PATH  sweep/conform/failures: write the counters/gauges/
//!                 histograms/timings snapshot as JSON (implies --profile)
//!   --port N      serve only: TCP port to listen on (default 7300)
//!   --topology T  serve only: topology-zoo name (default abilene)
//!   --model M     serve only: initial demand model, gravity|bimodal
//!                 (default gravity)
//!   --budget N    serve only: wECMP FIB-entry budget per prefix (default 5)
//!   --no-comparator  serve only: skip the batch-pipeline comparator
//!                 measurement at startup (faster start; /state then reports
//!                 no batch_recompile_micros)
//!
//! Every flag may be given at most once; repeated flags (e.g.
//! `--threads 1 --threads 4`) are rejected with an error rather than
//! silently letting the last occurrence win. `--json` counts as `--format`.
//! ```
//!
//! Multi-scenario commands (fig6–fig9, fig11, table1, sweep, conform,
//! failures) fan their independent scenario evaluations out across a worker
//! pool; the thread count changes wall-clock time only, never the numbers
//! in the report.

use coyote_bench::conformance::{default_pareto_levels, run_pareto, DEFAULT_TOLERANCE};
use coyote_bench::report::{
    conformance_csv, conformance_text, failures_csv, failures_text, format_series, format_table,
    pareto_csv, pareto_text, percent, profile_text, ratio, ratios_csv, sweep_csv, sweep_text,
    ReportFormat, Series,
};
use coyote_bench::{
    fig10_approximation, fig11_stretch, fig11_topologies, fig12_prototype, fig1_running_example,
    fig6_margins, margin_sweep, run_conformance_with, run_failures, run_sweep, table1,
    table1_margins, table1_topologies, theorem1_gadget, theorem4_lower_bound, BaseModel, Effort,
    EventClass, FailureGrid, ProtocolRatios, SweepGrid, WeightHeuristic,
};
use coyote_ospf::{CompressionLevel, DEFAULT_EPSILON};

/// Parsed command line.
#[derive(Debug)]
struct Cli {
    command: String,
    effort: Effort,
    threads: usize,
    format: ReportFormat,
    out: Option<String>,
    filter: Option<String>,
    limit: Option<usize>,
    tolerance: f64,
    compress: bool,
    compress_epsilon: Option<f64>,
    pareto: bool,
    events: EventClass,
    profile: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    port: u16,
    topology: String,
    model: String,
    budget: usize,
    no_comparator: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut cli = Cli {
            command: String::new(),
            effort: Effort::Quick,
            threads: 0,
            format: ReportFormat::Text,
            out: None,
            filter: None,
            limit: None,
            tolerance: DEFAULT_TOLERANCE,
            compress: false,
            compress_epsilon: None,
            pareto: false,
            events: EventClass::All,
            profile: false,
            trace_out: None,
            metrics_out: None,
            port: 7300,
            topology: "abilene".to_string(),
            model: "gravity".to_string(),
            budget: 5,
            no_comparator: false,
        };
        let mut it = args.iter().peekable();
        // Every flag may appear at most once; `--json` is shorthand for
        // `--format json`, so the two share a key.
        let mut seen: Vec<&'static str> = Vec::new();
        let mut once = |key: &'static str| -> Result<(), String> {
            if seen.contains(&key) {
                return Err(format!(
                    "flag --{key} given more than once (repeated flags are rejected \
                     rather than letting the last occurrence win)"
                ));
            }
            seen.push(key);
            Ok(())
        };
        fn value(
            it: &mut std::iter::Peekable<std::slice::Iter<String>>,
            flag: &str,
        ) -> Result<String, String> {
            // Refuse to swallow the next flag as this flag's value
            // (`--filter --threads 2` should error, not filter on "--threads").
            match it.peek() {
                Some(v) if !v.starts_with("--") => Ok(it.next().cloned().unwrap()),
                _ => Err(format!("{flag} needs a value")),
            }
        }
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--full" => {
                    once("full")?;
                    cli.effort = Effort::Full;
                }
                "--json" => {
                    once("format")?;
                    cli.format = ReportFormat::Json;
                }
                "--threads" => {
                    once("threads")?;
                    cli.threads = value(&mut it, "--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--format" => {
                    once("format")?;
                    cli.format = value(&mut it, "--format")?.parse()?;
                }
                "--out" => {
                    once("out")?;
                    cli.out = Some(value(&mut it, "--out")?);
                }
                "--filter" => {
                    once("filter")?;
                    cli.filter = Some(value(&mut it, "--filter")?);
                }
                "--limit" => {
                    once("limit")?;
                    cli.limit = Some(
                        value(&mut it, "--limit")?
                            .parse()
                            .map_err(|e| format!("--limit: {e}"))?,
                    );
                }
                "--tolerance" => {
                    once("tolerance")?;
                    cli.tolerance = value(&mut it, "--tolerance")?
                        .parse()
                        .map_err(|e| format!("--tolerance: {e}"))?;
                    if cli.tolerance.is_nan() || cli.tolerance < 0.0 {
                        return Err(format!(
                            "--tolerance must be a non-negative number, got {}",
                            cli.tolerance
                        ));
                    }
                }
                "--compress" => {
                    once("compress")?;
                    cli.compress = true;
                }
                "--compress-epsilon" => {
                    once("compress-epsilon")?;
                    let eps: f64 = value(&mut it, "--compress-epsilon")?
                        .parse()
                        .map_err(|e| format!("--compress-epsilon: {e}"))?;
                    if eps.is_nan() || eps < 0.0 {
                        return Err(format!(
                            "--compress-epsilon must be a non-negative number, got {eps}"
                        ));
                    }
                    cli.compress = true;
                    cli.compress_epsilon = Some(eps);
                }
                "--pareto" => {
                    once("pareto")?;
                    cli.pareto = true;
                }
                "--events" => {
                    once("events")?;
                    cli.events = value(&mut it, "--events")?.parse()?;
                }
                "--profile" => {
                    once("profile")?;
                    cli.profile = true;
                }
                "--trace-out" => {
                    once("trace-out")?;
                    cli.trace_out = Some(value(&mut it, "--trace-out")?);
                }
                "--metrics-out" => {
                    once("metrics-out")?;
                    cli.metrics_out = Some(value(&mut it, "--metrics-out")?);
                }
                "--port" => {
                    once("port")?;
                    cli.port = value(&mut it, "--port")?
                        .parse()
                        .map_err(|e| format!("--port: {e}"))?;
                }
                "--topology" => {
                    once("topology")?;
                    cli.topology = value(&mut it, "--topology")?;
                }
                "--model" => {
                    once("model")?;
                    cli.model = value(&mut it, "--model")?;
                    if cli.model != "gravity" && cli.model != "bimodal" {
                        return Err(format!(
                            "--model must be gravity or bimodal, got {:?}",
                            cli.model
                        ));
                    }
                }
                "--budget" => {
                    once("budget")?;
                    cli.budget = value(&mut it, "--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?;
                    if cli.budget == 0 {
                        return Err("--budget must be at least 1".to_string());
                    }
                }
                "--no-comparator" => {
                    once("no-comparator")?;
                    cli.no_comparator = true;
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                command if cli.command.is_empty() => cli.command = command.to_string(),
                extra => return Err(format!("unexpected argument {extra}")),
            }
        }
        if cli.command.is_empty() {
            cli.command = "help".to_string();
        }
        Ok(cli)
    }

    /// Emits one report in the requested format, to stdout or `--out`.
    /// `csv` is `None` for commands whose result has no tabular CSV shape.
    fn emit(
        &self,
        text: String,
        json: String,
        csv: Option<String>,
    ) -> Result<(), Box<dyn std::error::Error>> {
        let rendered = match self.format {
            ReportFormat::Text => text,
            ReportFormat::Json => json,
            ReportFormat::Csv => {
                csv.ok_or_else(|| format!("--format csv is not supported for {}", self.command))?
            }
        };
        match &self.out {
            Some(path) => {
                std::fs::write(path, rendered)?;
                println!("wrote {path}");
            }
            None => print!(
                "{}{}",
                rendered,
                if rendered.ends_with('\n') { "" } else { "\n" }
            ),
        }
        Ok(())
    }
}

/// Scoped observability session for the sweep/conform drivers: installs a
/// fresh [`coyote_obs::Registry`] as the global sink when any of
/// `--profile`, `--trace-out` or `--metrics-out` is given, and on
/// [`finish`](Profiler::finish) writes the requested artifacts and renders
/// the per-stage footer for the text report.
struct Profiler {
    registry: Option<std::sync::Arc<coyote_obs::Registry>>,
}

impl Profiler {
    fn start(cli: &Cli) -> Self {
        let active = cli.profile || cli.trace_out.is_some() || cli.metrics_out.is_some();
        let registry = active.then(|| {
            let r = std::sync::Arc::new(coyote_obs::Registry::new());
            coyote_obs::install(r.clone());
            r
        });
        Self { registry }
    }

    /// Uninstalls the sink, writes `--trace-out` / `--metrics-out` and
    /// returns the footer to append to the text report (empty when
    /// profiling is off).
    fn finish(self, cli: &Cli) -> Result<String, Box<dyn std::error::Error>> {
        let Some(registry) = self.registry else {
            return Ok(String::new());
        };
        coyote_obs::uninstall();
        let snapshot = registry.snapshot();
        if let Some(path) = &cli.trace_out {
            std::fs::write(path, coyote_obs::chrome_trace_json(&registry))?;
            eprintln!("wrote chrome trace to {path} (load in chrome://tracing or Perfetto)");
        }
        if let Some(path) = &cli.metrics_out {
            std::fs::write(path, coyote_obs::metrics_json(&snapshot))?;
            eprintln!("wrote metrics snapshot to {path}");
        }
        Ok(profile_text(&snapshot))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&cli) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    match cli.command.as_str() {
        "fig1" => cmd_fig1(cli)?,
        "gadget" => cmd_gadget(cli)?,
        "lowerbound" => cmd_lowerbound(cli)?,
        "fig6" => cmd_margin_figure(
            cli,
            "fig6",
            "Geant",
            BaseModel::Gravity,
            WeightHeuristic::InverseCapacity,
        )?,
        "fig7" => cmd_margin_figure(
            cli,
            "fig7",
            "Digex",
            BaseModel::Gravity,
            WeightHeuristic::InverseCapacity,
        )?,
        "fig8" => cmd_margin_figure(
            cli,
            "fig8",
            "AS1755",
            BaseModel::Bimodal,
            WeightHeuristic::InverseCapacity,
        )?,
        "fig9" => cmd_fig9(cli)?,
        "fig10" => cmd_fig10(cli)?,
        "fig11" => cmd_fig11(cli)?,
        "fig12" => cmd_fig12(cli)?,
        "table1" => cmd_table1(cli)?,
        "sweep" => cmd_sweep(cli)?,
        "conform" => cmd_conform(cli)?,
        "failures" => cmd_failures(cli)?,
        "serve" => cmd_serve(cli)?,
        "all" => {
            // `all` prints a stream of reports; a single --out file would be
            // overwritten by each sub-command and CSV has no shared schema.
            if cli.out.is_some() {
                return Err("--out is not supported with all (each sub-report would \
                            overwrite the file); run commands individually"
                    .into());
            }
            if cli.format == ReportFormat::Csv {
                return Err("--format csv is not supported with all (the sub-reports \
                            have different schemas); run commands individually"
                    .into());
            }
            cmd_fig1(cli)?;
            cmd_gadget(cli)?;
            cmd_lowerbound(cli)?;
            cmd_margin_figure(
                cli,
                "fig6",
                "Geant",
                BaseModel::Gravity,
                WeightHeuristic::InverseCapacity,
            )?;
            cmd_margin_figure(
                cli,
                "fig7",
                "Digex",
                BaseModel::Gravity,
                WeightHeuristic::InverseCapacity,
            )?;
            cmd_margin_figure(
                cli,
                "fig8",
                "AS1755",
                BaseModel::Bimodal,
                WeightHeuristic::InverseCapacity,
            )?;
            cmd_fig9(cli)?;
            cmd_fig10(cli)?;
            cmd_fig11(cli)?;
            cmd_fig12(cli)?;
            cmd_table1(cli)?;
        }
        _ => {
            println!(
                "usage: experiments <fig1|gadget|lowerbound|fig6|fig7|fig8|fig9|fig10|fig11|fig12|table1|sweep|conform|failures|serve|all> \
                 [--full] [--threads N] [--format json|csv|text] [--out PATH] [--filter SUBSTR] [--limit N] [--tolerance T] \
                 [--compress] [--compress-epsilon E] [--pareto] \
                 [--events link|node|srlg|spike|all] [--profile] [--trace-out PATH] [--metrics-out PATH] \
                 [--port N] [--topology T] [--model gravity|bimodal] [--budget N] [--no-comparator]"
            );
        }
    }
    Ok(())
}

fn cmd_fig1(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let r = fig1_running_example()?;
    let rows = vec![
        vec!["ECMP (unit weights)".to_string(), ratio(r.ecmp_ratio)],
        vec!["Fig. 1c configuration".to_string(), ratio(r.fig1c_ratio)],
        vec!["Golden-ratio optimum".to_string(), ratio(r.golden_ratio)],
        vec!["COYOTE (optimized)".to_string(), ratio(r.coyote_ratio)],
    ];
    let text = format!(
        "== Fig. 1 / Appendix B: running example (exact oblivious ratios) ==\n{}",
        format_table(&["configuration", "oblivious ratio"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&r)?, None)
}

fn cmd_gadget(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let r = theorem1_gadget(&[1.0, 2.0, 3.0, 4.0])?;
    let rows = vec![
        vec!["balanced orientation".to_string(), ratio(r.balanced_ratio)],
        vec![
            "unbalanced orientation".to_string(),
            ratio(r.unbalanced_ratio),
        ],
    ];
    let text = format!(
        "== Theorem 1: BIPARTITION gadget (weights {:?}) ==\n{}",
        r.weights,
        format_table(&["gadget orientation", "ratio"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&r)?, None)
}

fn cmd_lowerbound(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for n in [3usize, 5, 8, 12] {
        let r = theorem4_lower_bound(n)?;
        rows.push(vec![
            r.n.to_string(),
            ratio(r.oblivious_ratio),
            ratio(r.optimum),
        ]);
        results.push(r);
    }
    let text = format!(
        "== Theorem 4: Ω(|V|) lower bound for oblivious IP routing ==\n{}",
        format_table(&["n", "oblivious ratio", "demands-aware optimum"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&results)?, None)
}

fn protocol_series(rows: &[ProtocolRatios]) -> Vec<Series> {
    vec![
        Series {
            label: "ECMP".into(),
            points: rows.iter().map(|r| (r.margin, r.ecmp)).collect(),
        },
        Series {
            label: "Base-TM-opt".into(),
            points: rows.iter().map(|r| (r.margin, r.base)).collect(),
        },
        Series {
            label: "COYOTE-obl".into(),
            points: rows
                .iter()
                .map(|r| (r.margin, r.coyote_oblivious))
                .collect(),
        },
        Series {
            label: "COYOTE-partial".into(),
            points: rows.iter().map(|r| (r.margin, r.coyote_partial)).collect(),
        },
    ]
}

fn cmd_margin_figure(
    cli: &Cli,
    figure: &str,
    topology: &str,
    model: BaseModel,
    heuristic: WeightHeuristic,
) -> Result<(), Box<dyn std::error::Error>> {
    let margins = fig6_margins(cli.effort);
    let rows = margin_sweep(
        topology,
        model,
        heuristic,
        &margins,
        cli.effort,
        cli.threads,
    )?;
    let text = format!(
        "== {figure}: {topology}, {} model, {} weights (ratio vs margin) ==\n{}",
        model.name(),
        heuristic.name(),
        format_series("margin", &protocol_series(&rows))
    );
    cli.emit(
        text,
        serde_json::to_string_pretty(&rows)?,
        Some(ratios_csv(&rows)),
    )
}

fn cmd_fig9(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let margins = match cli.effort {
        Effort::Quick => vec![1.0, 2.0, 3.0, 5.0],
        Effort::Full => vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
    };
    let rows = margin_sweep(
        "Abilene",
        BaseModel::Bimodal,
        WeightHeuristic::LocalSearch,
        &margins,
        cli.effort,
        cli.threads,
    )?;
    let text = format!(
        "== fig9: Abilene, bimodal model, local-search weights ==\n{}",
        format_series("margin", &protocol_series(&rows))
    );
    cli.emit(
        text,
        serde_json::to_string_pretty(&rows)?,
        Some(ratios_csv(&rows)),
    )
}

fn cmd_fig10(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let (topology, margin) = match cli.effort {
        Effort::Quick => ("Abilene", 2.0),
        Effort::Full => ("AS1755", 2.0),
    };
    let r = fig10_approximation(topology, margin, cli.effort)?;
    let mut rows = vec![vec![
        "ECMP".to_string(),
        ratio(r.ecmp_ratio),
        "0".to_string(),
    ]];
    for p in &r.points {
        let label = match p.budget {
            Some(n) => format!("COYOTE {n} NHs"),
            None => "COYOTE ideal".to_string(),
        };
        rows.push(vec![label, ratio(p.ratio), p.fake_nodes.to_string()]);
    }
    let text = format!(
        "== fig10: {} (margin {}): splitting-ratio approximation ==\n{}",
        r.topology,
        r.margin,
        format_table(&["configuration", "ratio", "fake nodes"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&r)?, None)
}

fn cmd_fig11(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let topologies = fig11_topologies(cli.effort);
    let rows = fig11_stretch(&topologies, cli.effort, cli.threads)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.topology.clone(),
                format!("{:.3}", r.oblivious_stretch),
                format!("{:.3}", r.partial_stretch),
            ]
        })
        .collect();
    let text = format!(
        "== fig11: average path stretch vs ECMP (margin 2.5) ==\n{}",
        format_table(
            &["topology", "COYOTE-oblivious", "COYOTE-partial-knowledge"],
            &table
        )
    );
    cli.emit(text, serde_json::to_string_pretty(&rows)?, None)
}

fn cmd_fig12(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let results = fig12_prototype();
    let mut rows = Vec::new();
    for r in &results {
        for (i, phase) in r.phases.iter().enumerate() {
            rows.push(vec![
                r.scheme.clone(),
                format!("phase {}", i + 1),
                format!("({:.0}, {:.0}) Mbps", phase.offered.0, phase.offered.1),
                percent(phase.drop_rate),
            ]);
        }
        rows.push(vec![
            r.scheme.clone(),
            "cumulative".to_string(),
            "-".to_string(),
            percent(r.cumulative_drop_rate()),
        ]);
    }
    let text = format!(
        "== fig12: prototype packet-drop experiment (1 Mbps links) ==\n{}",
        format_table(&["scheme", "phase", "offered (t1, t2)", "drop rate"], &rows)
    );
    cli.emit(text, serde_json::to_string_pretty(&results)?, None)
}

fn cmd_table1(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let topologies = table1_topologies(cli.effort);
    let margins = table1_margins(cli.effort);
    let rows = table1(
        &topologies,
        &margins,
        BaseModel::Gravity,
        cli.effort,
        cli.threads,
    )?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.topology.clone(),
                format!("{:.1}", r.margin),
                ratio(r.ecmp),
                ratio(r.base),
                ratio(r.coyote_oblivious),
                ratio(r.coyote_partial),
            ]
        })
        .collect();
    // A summary the paper states in prose: how much further from optimal
    // ECMP is, on average, compared to COYOTE.
    let avg: f64 =
        rows.iter().map(ProtocolRatios::ecmp_vs_coyote).sum::<f64>() / rows.len().max(1) as f64;
    let text = format!(
        "== Table I: gravity base model, reverse-capacity weights ==\n{}ECMP is on average {:.0}% further from optimum than COYOTE.",
        format_table(
            &["network", "margin", "ECMP", "Base", "COYOTE obl.", "COYOTE par.know."],
            &table
        ),
        (avg - 1.0) * 100.0
    );
    cli.emit(
        text,
        serde_json::to_string_pretty(&rows)?,
        Some(ratios_csv(&rows)),
    )
}

fn cmd_sweep(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let mut grid = SweepGrid::full(cli.effort);
    let full_len = grid.len();
    if let Some(pattern) = &cli.filter {
        grid = grid.filter(pattern);
    }
    if let Some(n) = cli.limit {
        grid = grid.limit(n);
    }
    if grid.is_empty() {
        return Err("the filter/limit selection matched no scenarios".into());
    }
    eprintln!(
        "sweeping {} scenario(s) on {} thread(s)...",
        grid.len(),
        if cli.threads == 0 {
            "auto".to_string()
        } else {
            cli.threads.to_string()
        }
    );
    let profiler = Profiler::start(cli);
    let report = run_sweep(&grid, cli.threads)?;
    let footer = profiler.finish(cli)?;
    let mut selection = String::new();
    if let Some(pattern) = &cli.filter {
        selection.push_str(&format!(", filter {pattern:?}"));
    }
    if let Some(n) = cli.limit {
        selection.push_str(&format!(", limit {n}"));
    }
    let scope = if selection.is_empty() {
        "full scenario grid".to_string()
    } else {
        format!("grid slice{selection}")
    };
    let text = format!(
        "== sweep: {scope} ({} of {} topologies × models × margins cells) ==\n{}{}",
        grid.len(),
        full_len,
        sweep_text(&report),
        footer
    );
    cli.emit(
        text,
        serde_json::to_string_pretty(&report)?,
        Some(sweep_csv(&report)),
    )
}

fn cmd_conform(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let mut grid = SweepGrid::conformance(cli.effort);
    let full_len = grid.len();
    if let Some(pattern) = &cli.filter {
        grid = grid.filter(pattern);
    }
    if let Some(n) = cli.limit {
        grid = grid.limit(n);
    }
    if grid.is_empty() {
        return Err("the filter/limit selection matched no scenarios".into());
    }
    let level = if cli.compress {
        CompressionLevel::Lossy {
            epsilon: cli.compress_epsilon.unwrap_or(DEFAULT_EPSILON),
        }
    } else {
        CompressionLevel::Off
    };
    if cli.pareto {
        return cmd_conform_pareto(cli, &grid);
    }
    eprintln!(
        "checking conformance of {} cell(s) on {} thread(s), tolerance {}, compression {}...",
        grid.len(),
        if cli.threads == 0 {
            "auto".to_string()
        } else {
            cli.threads.to_string()
        },
        cli.tolerance,
        level.label()
    );
    let profiler = Profiler::start(cli);
    let report = run_conformance_with(&grid, cli.threads, cli.tolerance, level)?;
    let footer = profiler.finish(cli)?;
    let mut selection = String::new();
    if let Some(pattern) = &cli.filter {
        selection.push_str(&format!(", filter {pattern:?}"));
    }
    if let Some(n) = cli.limit {
        selection.push_str(&format!(", limit {n}"));
    }
    let scope = if selection.is_empty() {
        "full conformance grid".to_string()
    } else {
        format!("grid slice{selection}")
    };
    let text = format!(
        "== conform: {scope} ({} of {} topology × model cells) ==\n{}{}",
        grid.len(),
        full_len,
        conformance_text(&report),
        footer
    );
    cli.emit(
        text,
        serde_json::to_string_pretty(&report)?,
        Some(conformance_csv(&report)),
    )
}

/// The `conform --pareto` path: sweep the selected grid once per
/// compression level and emit the fake-nodes-vs-split-error trade-off.
fn cmd_conform_pareto(cli: &Cli, grid: &SweepGrid) -> Result<(), Box<dyn std::error::Error>> {
    let levels = default_pareto_levels();
    eprintln!(
        "pareto sweep: {} cell(s) x {} compression level(s) on {} thread(s), tolerance {}...",
        grid.len(),
        levels.len(),
        if cli.threads == 0 {
            "auto".to_string()
        } else {
            cli.threads.to_string()
        },
        cli.tolerance
    );
    let profiler = Profiler::start(cli);
    let report = run_pareto(grid, cli.threads, cli.tolerance, &levels)?;
    let footer = profiler.finish(cli)?;
    let text = format!(
        "== conform --pareto: compression trade-off over {} cell(s) ==\n{}{}",
        grid.len(),
        pareto_text(&report),
        footer
    );
    cli.emit(
        text,
        serde_json::to_string_pretty(&report)?,
        Some(pareto_csv(&report)),
    )
}

/// The `serve` command: start the long-running incremental TE daemon.
///
/// Before the server comes up (unless `--no-comparator`), the *batch
/// pipeline* is run once for the same topology/model — the full joint
/// oblivious optimization a sweep cell performs — and its wall-clock time is
/// exposed through `/state` as `batch_recompile_micros` — a different
/// policy from the daemon's separable one, reported for scale only.
fn cmd_serve(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    use coyote_serve::{DemandModel, EngineConfig, Server, ServerConfig, TeEngine};

    let model = match cli.model.as_str() {
        "bimodal" => DemandModel::Bimodal { seed: 42 },
        _ => DemandModel::Gravity { total: Some(100.0) },
    };
    let base_model = match cli.model.as_str() {
        "bimodal" => BaseModel::Bimodal,
        _ => BaseModel::Gravity,
    };

    let batch_recompile_micros = if cli.no_comparator {
        None
    } else {
        eprintln!(
            "measuring batch-pipeline comparator ({} / {} model, one margin cell)...",
            cli.topology, cli.model
        );
        let start = std::time::Instant::now();
        margin_sweep(
            &cli.topology,
            base_model,
            WeightHeuristic::InverseCapacity,
            &[2.0],
            Effort::Quick,
            1,
        )?;
        let micros = start.elapsed().as_micros() as u64;
        eprintln!("batch comparator: {} us per full recompile", micros);
        Some(micros)
    };

    // The daemon exposes /metrics from the global obs sink; install one for
    // the whole server lifetime.
    let registry = std::sync::Arc::new(coyote_obs::Registry::new());
    coyote_obs::install(registry);

    let engine = TeEngine::new(&EngineConfig {
        topology: cli.topology.clone(),
        model,
        budget: cli.budget,
    })
    .map_err(|e| format!("starting engine: {e}"))?;
    let server = Server::start(
        engine,
        &ServerConfig {
            addr: format!("127.0.0.1:{}", cli.port),
            threads: if cli.threads == 0 { 2 } else { cli.threads },
            batch_recompile_micros,
        },
    )
    .map_err(|e| format!("starting server: {e}"))?;
    eprintln!(
        "coyote-serve daemon listening on {} (topology {}, {} model, budget {}); \
         POST /shutdown to stop",
        server.addr(),
        cli.topology,
        cli.model,
        cli.budget
    );
    server.join();
    coyote_obs::uninstall();
    eprintln!("daemon stopped");
    Ok(())
}

fn cmd_failures(cli: &Cli) -> Result<(), Box<dyn std::error::Error>> {
    let mut grid = FailureGrid::standard(cli.effort, cli.events)?;
    let full_len = grid.len();
    if let Some(pattern) = &cli.filter {
        grid = grid.filter(pattern);
    }
    if let Some(n) = cli.limit {
        grid = grid.limit(n);
    }
    if grid.is_empty() {
        return Err("the filter/limit selection matched no failure cells".into());
    }
    eprintln!(
        "injecting {} failure cell(s) ({} events) on {} thread(s), tolerance {}...",
        grid.len(),
        cli.events.name(),
        if cli.threads == 0 {
            "auto".to_string()
        } else {
            cli.threads.to_string()
        },
        cli.tolerance
    );
    let profiler = Profiler::start(cli);
    let report = run_failures(&grid, cli.threads, cli.tolerance)?;
    let footer = profiler.finish(cli)?;
    let mut selection = String::new();
    if let Some(pattern) = &cli.filter {
        selection.push_str(&format!(", filter {pattern:?}"));
    }
    if let Some(n) = cli.limit {
        selection.push_str(&format!(", limit {n}"));
    }
    let scope = if selection.is_empty() {
        format!("full failure grid, {} events", cli.events.name())
    } else {
        format!("grid slice ({} events){selection}", cli.events.name())
    };
    let text = format!(
        "== failures: {scope} ({} of {} scenario × event cells) ==\n{}{}",
        grid.len(),
        full_len,
        failures_text(&report),
        footer
    );
    cli.emit(
        text,
        serde_json::to_string_pretty(&report)?,
        Some(failures_csv(&report)),
    )
}

// Unwrap audit (ISSUE 10 satellite): the only `unwrap` left in this binary
// is the `it.next().cloned().unwrap()` inside `Cli::value`, which is guarded
// by the `it.peek()` match arm on the immediately preceding line and can
// therefore never fire. Every user-reachable failure — malformed flag
// values, repeated flags, unknown flags, unwritable `--out` paths — flows
// through `Result` and surfaces as an `error:` line with a non-zero exit.
#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Cli::parse(&owned)
    }

    #[test]
    fn repeated_flag_is_rejected() {
        let err = parse(&["sweep", "--threads", "1", "--threads", "4"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let err = parse(&["failures", "--filter", "a", "--filter", "b"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn json_and_format_share_one_slot() {
        let err = parse(&["sweep", "--json", "--format", "csv"]).unwrap_err();
        assert!(err.contains("--format") && err.contains("more than once"), "{err}");
        let err = parse(&["sweep", "--format", "csv", "--json"]).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn a_flag_does_not_swallow_the_next_flag_as_its_value() {
        let err = parse(&["sweep", "--filter", "--threads"]).unwrap_err();
        assert!(err.contains("--filter needs a value"), "{err}");
        let err = parse(&["sweep", "--out"]).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    #[test]
    fn serve_flags_parse() {
        let cli = parse(&[
            "serve",
            "--port",
            "8080",
            "--topology",
            "nsf",
            "--model",
            "bimodal",
            "--budget",
            "3",
            "--no-comparator",
        ])
        .unwrap();
        assert_eq!(cli.command, "serve");
        assert_eq!(cli.port, 8080);
        assert_eq!(cli.topology, "nsf");
        assert_eq!(cli.model, "bimodal");
        assert_eq!(cli.budget, 3);
        assert!(cli.no_comparator);
    }

    #[test]
    fn serve_flag_validation() {
        let err = parse(&["serve", "--model", "bogus"]).unwrap_err();
        assert!(err.contains("gravity or bimodal"), "{err}");
        let err = parse(&["serve", "--budget", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["serve", "--port", "notaport"]).unwrap_err();
        assert!(err.contains("--port"), "{err}");
    }

    #[test]
    fn numeric_flag_values_are_validated_not_unwrapped() {
        let err = parse(&["sweep", "--tolerance", "peanut"]).unwrap_err();
        assert!(err.contains("--tolerance"), "{err}");
        let err = parse(&["sweep", "--tolerance", "-0.5"]).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = parse(&["conform", "--compress-epsilon", "NaN"]).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = parse(&["sweep", "--limit", "three"]).unwrap_err();
        assert!(err.contains("--limit"), "{err}");
    }

    #[test]
    fn unknown_flags_and_extra_arguments_error() {
        let err = parse(&["sweep", "--frobnicate"]).unwrap_err();
        assert!(err.contains("unknown flag --frobnicate"), "{err}");
        let err = parse(&["sweep", "extra"]).unwrap_err();
        assert!(err.contains("unexpected argument extra"), "{err}");
    }

    #[test]
    fn unwritable_out_path_is_an_error_not_a_panic() {
        // Regression for the user-reachable write path: `--out` pointing at a
        // directory that does not exist must surface as Err from emit().
        let cli = parse(&["sweep", "--out", "/nonexistent-dir-for-sure/x.json"]).unwrap();
        let err = cli
            .emit("text".to_string(), "{}".to_string(), None)
            .unwrap_err();
        assert!(err.to_string().contains("No such file"), "{err}");
    }
}
