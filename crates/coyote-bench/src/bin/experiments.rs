//! The `experiments` binary: regenerates every table and figure of the
//! paper from the command line, runs parallel sweeps, conformance checks and
//! failure injections over the scenario grid, and starts the TE daemon.
//!
//! ```text
//! experiments <command> [flags]      # `experiments help` lists both
//! ```
//!
//! Two tables are the whole interface. The commands are the artefact
//! registry ([`coyote_bench::ARTEFACTS`]: `fig1` … `table1`) followed by
//! [`ENGINES`] (`sweep`, `conform`, `failures`, `serve`, `all`); dispatch,
//! `all` and the usage text read the same lists. The flags are [`FLAGS`]:
//! each row names the flag, its value, the commands that accept it and how
//! it parses — a flag given to a command that does not take it, given twice
//! (`--json` counts as `--format`), or given a malformed value is an error,
//! never a guess.
//!
//! Multi-scenario commands (fig6–fig9, fig11, table1, sweep, conform,
//! failures) fan their independent scenario evaluations out across a worker
//! pool; the thread count changes wall-clock time only, never the numbers
//! in the report.

use coyote_bench::conformance::{
    default_pareto_levels, run_pareto, COMPILE_BUDGET, DEFAULT_TOLERANCE,
};
use coyote_bench::report::{profile_text, ReportFormat, Table};
use coyote_bench::{
    artefact, run_all, run_conformance_with, run_failures, run_sweep, ConformanceReport, Effort,
    EventClass, FailureGrid, FailureReport, ParetoReport, Rendered, SweepGrid, SweepReport,
    ARTEFACTS,
};
use coyote_core::prelude::CoreError;
use coyote_ospf::CompressionLevel;
use std::error::Error;

type CommandResult = Result<(), Box<dyn Error>>;

/// A command that is not a registry artefact.
struct Engine {
    name: &'static str,
    caption: &'static str,
    run: fn(&Cli) -> CommandResult,
}

/// The grid engines, the daemon and `all`, after the artefacts in the usage
/// text.
const ENGINES: &[Engine] = &[
    Engine {
        name: "sweep",
        caption: "the full scenario grid (topologies × models × margins) with per-scenario timings",
        run: cmd_sweep,
    },
    Engine {
        name: "conform",
        caption: "every Table-I topology × model through compile → realized routing → flow-sim, \
                  with intended-vs-realized deltas and a tolerance verdict per cell",
        run: cmd_conform,
    },
    Engine {
        name: "failures",
        caption: "the conformance grid × fault events: the old program reconverged over the \
                  pruned LSDB vs. a recompiled one, within/degraded/unroutable per cell",
        run: cmd_failures,
    },
    Engine {
        name: "serve",
        caption: "the incremental TE daemon: telemetry and demand/link/node updates over HTTP/JSON",
        run: cmd_serve,
    },
    Engine {
        name: "all",
        caption: "every artefact above as one report; JSON is one object keyed by artefact name",
        run: |cli| cli.emit(run_all(cli.effort, cli.threads)?),
    },
];

/// Every command with its caption, in usage order.
fn commands() -> impl Iterator<Item = (&'static str, &'static str)> {
    let artefacts = ARTEFACTS.iter().map(|a| (a.name(), a.caption()));
    artefacts.chain(ENGINES.iter().map(|e| (e.name, e.caption)))
}

/// Which commands accept a flag.
#[derive(Clone, Copy)]
enum Scope {
    /// Every command.
    All,
    /// Every command that emits a report: all but `serve`.
    Reports,
    /// The named commands.
    Only(&'static [&'static str]),
}

const GRIDS: Scope = Scope::Only(&["sweep", "conform", "failures"]);
const CONFORM: Scope = Scope::Only(&["conform"]);
const SERVE: Scope = Scope::Only(&["serve"]);

impl Scope {
    fn admits(self, command: &str) -> bool {
        match self {
            Scope::All => true,
            Scope::Reports => command != "serve",
            Scope::Only(names) => names.contains(&command),
        }
    }

    /// The commands that accept the flag, comma-separated.
    fn accepted(self) -> String {
        let names = commands().map(|(name, _)| name);
        names
            .filter(|c| self.admits(c))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// One command-line flag.
struct Flag {
    name: &'static str,
    /// The value's placeholder in the usage text; `None` for a switch.
    value: Option<&'static str>,
    scope: Scope,
    /// Stores the value (empty for a switch) in its [`Cli`] field, or says
    /// why it is malformed.
    set: fn(&mut Cli, &str) -> Result<(), String>,
    help: &'static str,
}

impl Flag {
    /// The at-most-once key: `--json` is `--format json`, so they share one.
    fn slot(&self) -> &'static str {
        match self.name {
            "--json" => "--format",
            name => name,
        }
    }

    /// `--name VALUE`, as the usage text and the README print it.
    fn spelled(&self) -> String {
        match self.value {
            Some(value) => format!("{} {value}", self.name),
            None => self.name.to_string(),
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag}: {e}"))
}

fn non_negative(flag: &str, value: &str) -> Result<f64, String> {
    let x: f64 = number(flag, value)?;
    if x.is_nan() || x < 0.0 {
        return Err(format!("{flag} must be a non-negative number, got {x}"));
    }
    Ok(x)
}

/// Every flag, in usage order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--full", value: None, scope: Scope::Reports,
           set: |c, _| { c.effort = Effort::Full; Ok(()) },
           help: "paper-scale sweeps (default: the quick configuration)" },
    Flag { name: "--threads", value: Some("N"), scope: Scope::All,
           set: |c, v| { c.threads = number("--threads", v)?; Ok(()) },
           help: "worker threads for multi-scenario commands: 0 = one per core (the default), \
                  1 = serial; serve: HTTP workers, 1 to 64 (0 or unset = 2)" },
    Flag { name: "--format", value: Some("json|csv|text"), scope: Scope::Reports,
           set: |c, v| { c.format = v.parse()?; Ok(()) },
           help: "output format (default text)" },
    Flag { name: "--json", value: None, scope: Scope::Reports,
           set: |c, _| { c.format = ReportFormat::Json; Ok(()) },
           help: "shorthand for --format json" },
    Flag { name: "--out", value: Some("PATH"), scope: Scope::Reports,
           set: |c, v| { c.out = Some(v.to_string()); Ok(()) },
           help: "write the report to PATH instead of stdout" },
    Flag { name: "--filter", value: Some("SUBSTR"), scope: GRIDS,
           set: |c, v| { c.filter = Some(v.to_string()); Ok(()) },
           help: "keep the cells whose id contains SUBSTR (case-insensitive; ids look like \
                  Abilene/gravity/reverse-capacities/m2.0, failure cells append +link-3)" },
    Flag { name: "--limit", value: Some("N"), scope: GRIDS,
           set: |c, v| { c.limit = Some(number("--limit", v)?); Ok(()) },
           help: "evaluate at most the first N cells" },
    Flag { name: "--tolerance", value: Some("T"), scope: Scope::Only(&["conform", "failures"]),
           set: |c, v| { c.tolerance = non_negative("--tolerance", v)?; Ok(()) },
           help: "per-cell verdict threshold (conform: split error and intended-vs-realized \
                  deltas; failures: oblivious drop rate and degradation-ratio excess; \
                  default 0.05)" },
    Flag { name: "--compress", value: None, scope: CONFORM,
           set: |c, _| { c.compress = true; Ok(()) },
           help: "compile every cell's Fibbing program through the lossy compression pipeline \
                  (epsilon 0.02)" },
    Flag { name: "--pareto", value: None, scope: CONFORM,
           set: |c, _| { c.pareto = true; Ok(()) },
           help: "sweep the grid once per compression level (off, lossless, a ladder of \
                  epsilons) and emit the fake-nodes-vs-split-error table" },
    Flag { name: "--events", value: Some("link|node|srlg|spike|all"),
           scope: Scope::Only(&["failures"]),
           set: |c, v| { c.events = v.parse()?; Ok(()) },
           help: "which event classes to inject (default all)" },
    Flag { name: "--profile", value: None, scope: GRIDS,
           set: |c, _| { c.profile = true; Ok(()) },
           help: "record spans and workload counters via coyote-obs and append a per-stage \
                  time table plus the deterministic counters to the text report" },
    Flag { name: "--trace-out", value: Some("PATH"), scope: GRIDS,
           set: |c, v| { c.trace_out = Some(v.to_string()); Ok(()) },
           help: "write a chrome://tracing / Perfetto JSON trace (implies --profile)" },
    Flag { name: "--metrics-out", value: Some("PATH"), scope: GRIDS,
           set: |c, v| { c.metrics_out = Some(v.to_string()); Ok(()) },
           help: "write the counters/gauges/histograms/timings snapshot as JSON (implies \
                  --profile)" },
    Flag { name: "--port", value: Some("N"), scope: SERVE,
           set: |c, v| { c.port = number("--port", v)?; Ok(()) },
           help: "TCP port to listen on (default 7300)" },
    Flag { name: "--topology", value: Some("T"), scope: SERVE,
           set: |c, v| { c.topology = v.to_string(); Ok(()) },
           help: "topology-zoo name (default abilene)" },
    Flag { name: "--model", value: Some("gravity|bimodal"), scope: SERVE,
           set: |c, v| {
               if v != "gravity" && v != "bimodal" {
                   return Err(format!("--model must be gravity or bimodal, got {v:?}"));
               }
               c.model = v.to_string();
               Ok(())
           },
           help: "initial demand model (default gravity)" },
    Flag { name: "--budget", value: Some("N"), scope: SERVE,
           set: |c, v| {
               c.budget = number("--budget", v)?;
               // Start-up splits every lied pair once per total up to the
               // budget, so the largest compile budget bounds it.
               if !(1..=COMPILE_BUDGET).contains(&c.budget) {
                   return Err(format!(
                       "--budget must be at least 1 and at most {COMPILE_BUDGET}, got {}",
                       c.budget
                   ));
               }
               Ok(())
           },
           help: "wECMP FIB-entry budget per prefix, 1 to 256 (default 5)" },
];

/// The usage text: the synopsis line, then one line per command and flag.
fn usage() -> String {
    let names: Vec<&str> = commands().map(|(name, _)| name).collect();
    let mut out = format!("usage: experiments <{}>", names.join("|"));
    for flag in FLAGS {
        out.push_str(&format!(" [{}]", flag.spelled()));
    }
    out.push_str("\n\ncommands:\n");
    for (name, caption) in commands() {
        out.push_str(&format!("  {name:<11} {caption}\n"));
    }
    out.push_str("\nflags (each at most once; [the commands that accept it]):\n");
    for flag in FLAGS {
        let scope = match flag.scope {
            Scope::All => "every command".to_string(),
            Scope::Reports => "not serve".to_string(),
            Scope::Only(_) => flag.scope.accepted(),
        };
        out.push_str(&format!(
            "  {:<28} {} [{scope}]\n",
            flag.spelled(),
            flag.help
        ));
    }
    out
}

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
    pareto: bool,
    events: EventClass,
    profile: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    port: u16,
    topology: String,
    model: String,
    budget: usize,
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
            pareto: false,
            events: EventClass::All,
            profile: false,
            trace_out: None,
            metrics_out: None,
            port: 7300,
            topology: "abilene".to_string(),
            model: "gravity".to_string(),
            budget: 5,
        };
        let mut given: Vec<&Flag> = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(flag) = FLAGS.iter().find(|f| f.name == arg) {
                if given.iter().any(|g| g.slot() == flag.slot()) {
                    return Err(format!(
                        "flag {} given more than once (repeated flags are rejected \
                         rather than letting the last occurrence win)",
                        flag.slot()
                    ));
                }
                given.push(flag);
                // A flag never swallows the next flag as its value
                // (`--filter --threads 2` is an error, not a filter on
                // "--threads").
                let value = match (flag.value, it.peek()) {
                    (None, _) => "",
                    (Some(_), Some(v)) if !v.starts_with("--") => {
                        it.next().expect("peeked").as_str()
                    }
                    (Some(_), _) => return Err(format!("{} needs a value", flag.name)),
                };
                (flag.set)(&mut cli, value)?;
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else if cli.command.is_empty() {
                cli.command = arg.clone();
            } else {
                return Err(format!("unexpected argument {arg}"));
            }
        }
        if cli.command.is_empty() {
            cli.command = "help".to_string();
        }
        // An unknown command prints the usage text whatever its flags.
        let known = commands().any(|(name, _)| name == cli.command);
        match given
            .iter()
            .find(|f| known && !f.scope.admits(&cli.command))
        {
            Some(flag) => Err(format!(
                "{} does not apply to {} (accepted by: {})",
                flag.name,
                cli.command,
                flag.scope.accepted()
            )),
            None => Ok(cli),
        }
    }

    /// Emits one report in the requested format, to stdout or `--out`.
    fn emit(&self, rendered: Rendered) -> CommandResult {
        let rendered = rendered
            .render(self.format)
            .ok_or_else(|| format!("--format csv is not supported for {}", self.command))?;
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

/// Scoped observability session for the grid commands: installs a fresh
/// [`coyote_obs::Registry`] as the global sink when any of `--profile`,
/// `--trace-out` or `--metrics-out` is given, and on
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
    fn finish(self, cli: &Cli) -> Result<String, Box<dyn Error>> {
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

fn run(cli: &Cli) -> CommandResult {
    if let Some(engine) = ENGINES.iter().find(|e| e.name == cli.command) {
        (engine.run)(cli)
    } else if let Some(artefact) = artefact(&cli.command) {
        cli.emit(artefact.run(cli.effort, cli.threads)?)
    } else {
        print!("{}", usage());
        Ok(())
    }
}

/// What [`grid_command`] needs of a work list.
trait Grid: Sized {
    fn filter(self, pattern: &str) -> Self;
    fn limit(self, n: usize) -> Self;
    fn len(&self) -> usize;
}

impl Grid for SweepGrid {
    fn filter(self, pattern: &str) -> Self {
        SweepGrid::filter(self, pattern)
    }
    fn limit(self, n: usize) -> Self {
        SweepGrid::limit(self, n)
    }
    fn len(&self) -> usize {
        SweepGrid::len(self)
    }
}

impl Grid for FailureGrid {
    fn filter(self, pattern: &str) -> Self {
        FailureGrid::filter(self, pattern)
    }
    fn limit(self, n: usize) -> Self {
        FailureGrid::limit(self, n)
    }
    fn len(&self) -> usize {
        FailureGrid::len(self)
    }
}

/// The skeleton of every grid command: select with `--filter`/`--limit`,
/// announce, run under the [`Profiler`], caption, emit.
///
/// * `cells` — what a cell is called when the selection matches none;
/// * `settings` — what the progress line says after the cell and thread
///   counts (`, tolerance 0.05`);
/// * `caption` — the report heading, given the selected and the full cell
///   count and the selection (`, filter "x", limit 3`; empty for the full
///   grid).
fn grid_command<G: Grid, R: serde::Serialize, Row>(
    cli: &Cli,
    full: G,
    cells: &str,
    settings: String,
    run: impl FnOnce(&G) -> Result<R, CoreError>,
    caption: impl FnOnce(usize, usize, &str) -> String,
    table: for<'a> fn(&'a R) -> Table<'a, Row>,
) -> CommandResult {
    let full_len = full.len();
    let mut grid = full;
    let mut selection = String::new();
    if let Some(pattern) = &cli.filter {
        grid = grid.filter(pattern);
        selection.push_str(&format!(", filter {pattern:?}"));
    }
    if let Some(n) = cli.limit {
        grid = grid.limit(n);
        selection.push_str(&format!(", limit {n}"));
    }
    if grid.len() == 0 {
        return Err(format!("the filter/limit selection matched no {cells}").into());
    }
    let threads = match cli.threads {
        0 => "auto".to_string(),
        n => n.to_string(),
    };
    let n = grid.len();
    eprintln!(
        "{}: {n} of {full_len} {cells} on {threads} thread(s){settings}...",
        cli.command
    );
    let profiler = Profiler::start(cli);
    let report = run(&grid)?;
    let footer = profiler.finish(cli)?;
    let table = table(&report);
    let caption = caption(n, full_len, &selection);
    let text = format!("== {caption} ==\n{}{footer}", table.text());
    cli.emit(Rendered::new(text, &report, Some(table.csv())))
}

/// `full` for the whole grid, `grid slice…` for a selection of it.
fn scope(full: &str, slice: &str, selection: &str) -> String {
    if selection.is_empty() {
        full.to_string()
    } else {
        format!("grid slice{slice}{selection}")
    }
}

fn cmd_sweep(cli: &Cli) -> CommandResult {
    grid_command(
        cli,
        SweepGrid::full(cli.effort),
        "scenarios",
        String::new(),
        |grid| run_sweep(grid, cli.threads),
        |n, full, selection| {
            let scope = scope("full scenario grid", "", selection);
            format!("sweep: {scope} ({n} of {full} topologies × models × margins cells)")
        },
        SweepReport::table,
    )
}

fn cmd_conform(cli: &Cli) -> CommandResult {
    let (threads, tolerance) = (cli.threads, cli.tolerance);
    let grid = SweepGrid::conformance(cli.effort);
    if cli.pareto {
        let levels = default_pareto_levels();
        return grid_command(
            cli,
            grid,
            "scenarios",
            format!(
                " x {} compression levels, tolerance {tolerance}",
                levels.len()
            ),
            |grid| run_pareto(grid, threads, tolerance, &levels),
            |n, _, _| format!("conform --pareto: compression trade-off over {n} cell(s)"),
            ParetoReport::table,
        );
    }
    let level = if cli.compress {
        CompressionLevel::lossy()
    } else {
        CompressionLevel::Off
    };
    grid_command(
        cli,
        grid,
        "scenarios",
        format!(", tolerance {tolerance}, compression {}", level.label()),
        |grid| run_conformance_with(grid, threads, tolerance, level),
        |n, full, selection| {
            let scope = scope("full conformance grid", "", selection);
            format!("conform: {scope} ({n} of {full} topology × model cells)")
        },
        ConformanceReport::table,
    )
}

fn cmd_failures(cli: &Cli) -> CommandResult {
    let (tolerance, events) = (cli.tolerance, cli.events.name());
    grid_command(
        cli,
        FailureGrid::standard(cli.effort, cli.events)?,
        "failure cells",
        format!(", {events} events, tolerance {tolerance}"),
        |grid| run_failures(grid, cli.threads, tolerance),
        |n, full, selection| {
            let full_scope = format!("full failure grid, {events} events");
            let scope = scope(&full_scope, &format!(" ({events} events)"), selection);
            format!("failures: {scope} ({n} of {full} scenario × event cells)")
        },
        FailureReport::table,
    )
}

/// The `serve` command: start the long-running incremental TE daemon.
fn cmd_serve(cli: &Cli) -> CommandResult {
    use coyote_serve::{DemandModel, EngineConfig, Server, ServerConfig, TeEngine};

    let model = match cli.model.as_str() {
        "bimodal" => DemandModel::Bimodal { seed: 42 },
        _ => DemandModel::Gravity { total: Some(100.0) },
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
            batch_recompile_micros: None,
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

// Every user-reachable failure — malformed flag values, repeated or
// misapplied flags, unknown flags, unwritable `--out` paths — flows through
// `Result` and surfaces as an `error:` line with a non-zero exit.
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
        assert!(
            err.contains("--format") && err.contains("more than once"),
            "{err}"
        );
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
        ])
        .unwrap();
        assert_eq!(cli.command, "serve");
        assert_eq!(cli.port, 8080);
        assert_eq!(cli.topology, "nsf");
        assert_eq!(cli.model, "bimodal");
        assert_eq!(cli.budget, 3);
    }

    #[test]
    fn serve_flag_validation() {
        let err = parse(&["serve", "--model", "bogus"]).unwrap_err();
        assert!(err.contains("gravity or bimodal"), "{err}");
        let err = parse(&["serve", "--budget", "0"]).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&["serve", "--budget", "257"]).unwrap_err();
        assert!(err.contains("at most 256"), "{err}");
        assert_eq!(parse(&["serve", "--budget", "256"]).unwrap().budget, 256);
        let err = parse(&["serve", "--port", "notaport"]).unwrap_err();
        assert!(err.contains("--port"), "{err}");
    }

    #[test]
    fn numeric_flag_values_are_validated_not_unwrapped() {
        let err = parse(&["conform", "--tolerance", "peanut"]).unwrap_err();
        assert!(err.contains("--tolerance"), "{err}");
        let err = parse(&["conform", "--tolerance", "-0.5"]).unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
        let err = parse(&["failures", "--tolerance", "NaN"]).unwrap_err();
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
        // The retired epsilon flag is unknown now: `--compress` is lossy at
        // epsilon 0.02, `--pareto` sweeps the other levels. Its name is
        // assembled so that searching the sources for it finds no use.
        let retired = ["--compress", "-epsilon"].concat();
        let err = parse(&["conform", &retired, "0.01"]).unwrap_err();
        assert!(err.contains(&format!("unknown flag {retired}")), "{err}");
    }

    #[test]
    fn unwritable_out_path_is_an_error_not_a_panic() {
        // Regression for the user-reachable write path: `--out` pointing at a
        // directory that does not exist must surface as Err from emit().
        let cli = parse(&["sweep", "--out", "/nonexistent-dir-for-sure/x.json"]).unwrap();
        let err = cli
            .emit(Rendered::new("text".to_string(), &(), None))
            .unwrap_err();
        assert!(err.to_string().contains("No such file"), "{err}");
    }

    /// One rejection per scope: the error names the flag and the commands
    /// that do accept it.
    #[test]
    fn a_flag_its_command_does_not_take_is_rejected() {
        for (line, accepted) in [
            ("fig6 --filter x", "accepted by: sweep, conform, failures"),
            ("sweep --port 1", "accepted by: serve"),
            ("serve --tolerance 0.1", "accepted by: conform, failures"),
            ("conform --events link", "accepted by: failures"),
            ("failures --compress", "accepted by: conform"),
            ("serve --format json", "accepted by: fig1, "),
        ] {
            let args: Vec<&str> = line.split(' ').collect();
            let err = parse(&args).unwrap_err();
            let misapplied = format!("{} does not apply to {}", args[1], args[0]);
            assert!(
                err.contains(&misapplied) && err.contains(accepted),
                "{line}: {err}"
            );
        }
        // The flag may come before the command it does not apply to.
        assert!(parse(&["--pareto", "sweep"]).is_err());
        assert!(parse(&["--pareto", "conform"]).is_ok());
        // `all` is a report like any other: `--out` yes, a grid selection no.
        assert!(parse(&["all", "--json", "--out", "results.json", "--threads", "1"]).is_ok());
        assert!(parse(&["all", "--limit", "1"]).is_err());
    }

    #[test]
    fn every_command_parses_dispatches_and_is_in_the_usage_text() {
        let usage = usage();
        let synopsis = usage.lines().next().unwrap();
        let names: Vec<&str> = commands().map(|(name, _)| name).collect();
        assert!(synopsis.starts_with(&format!("usage: experiments <{}> [", names.join("|"))));
        for (name, caption) in commands() {
            assert_eq!(parse(&[name]).unwrap().command, name);
            assert!(
                ENGINES.iter().any(|e| e.name == name) != artefact(name).is_some(),
                "{name} must dispatch from exactly one table"
            );
            assert!(
                usage.contains(&format!("  {name:<11} {caption}\n")),
                "{name}"
            );
        }
        for flag in FLAGS {
            assert!(
                synopsis.contains(&format!(" [{}]", flag.spelled())),
                "{}",
                flag.name
            );
        }
        assert_eq!(parse(&[]).unwrap().command, "help");
    }

    /// The README's synopsis block is this binary's: same commands, same
    /// flags, nothing else.
    #[test]
    fn readme_synopsis_lists_exactly_the_commands_and_flags() {
        let readme = include_str!("../../../../README.md");
        let names: Vec<&str> = commands().map(|(name, _)| name).collect();
        let start = readme
            .find(&format!("<{}>", names.join("|")))
            .expect("README lists the commands in usage order");
        let block = &readme[start..start + readme[start..].find("```").expect("fenced block")];
        for flag in FLAGS.iter().filter(|f| f.name != "--json") {
            let synopsis = format!("[{}]", flag.spelled());
            assert!(block.contains(&synopsis), "README lacks {synopsis}");
        }
        for token in block.split(|c: char| c.is_whitespace() || c == '[' || c == ']') {
            if token.starts_with("--") {
                assert!(
                    FLAGS.iter().any(|f| f.name == token),
                    "README lists unknown flag {token}"
                );
            }
        }
        // `--json` is described in the flag list below the block.
        assert!(readme.contains("`--json`"));
    }
}
