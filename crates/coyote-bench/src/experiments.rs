//! The artefact registry: every table and figure of the paper's evaluation,
//! by command name.
//!
//! [`ARTEFACTS`] is the one table the `experiments` binary dispatches, lists
//! and runs `all` from. Each entry names an artefact, captions it and says
//! how its rows are produced:
//!
//! | Entry                   | Paper artefact                  | Rows                                  |
//! |-------------------------|---------------------------------|---------------------------------------|
//! | `fig1`                  | Fig. 1 + Appendix B             | [`fig1_running_example`]              |
//! | `gadget`                | Theorem 1 reduction gadget      | [`theorem1_gadget`]                   |
//! | `lowerbound`            | Theorem 4 Ω(\|V\|) instance     | [`theorem4_lower_bound`]              |
//! | `fig6` … `fig9`, `table1` | Figs. 6–9, Table I (ratio vs. margin) | a [`SweepGrid::cross`] selection run by [`run_sweep`] |
//! | `fig10`                 | Fig. 10 (virtual next-hop budgets) | [`fig10_approximation`]            |
//! | `fig11`                 | Fig. 11 (average path stretch)  | [`fig11_stretch`]                     |
//! | `fig12`                 | Fig. 12 (prototype packet drops) | [`fig12_prototype`]                  |
//!
//! What the effort level means to the grid — which margins, which
//! topologies, which Fig. 10 instance — is decided once, in `scale`.
//! Thread count changes wall-clock time only, never a number.

use crate::pool::WorkerPool;
use crate::report::{ratios_table, text, Cell, ReportFormat, Table};
use crate::scenario::{BaseModel, Effort, ProtocolRatios, Scenario, WeightHeuristic};
use crate::sweep::{run_sweep, SweepGrid, SweepSpec};
use coyote_core::example_fig1;
use coyote_core::prelude::*;
use coyote_graph::{Graph, NodeId};
use coyote_ospf::{compute_program, realized_routing, VirtualLinkBudget};
use coyote_sim::scenario::{run_all as run_prototype_all, PrototypeResult};
use coyote_traffic::{DemandMatrix, UncertaintySet};
use serde::Serialize;
use serde_json::Value;
use BaseModel::{Bimodal, Gravity};
use WeightHeuristic::{InverseCapacity, LocalSearch};

// ---------------------------------------------------------------------------
// The registry.
// ---------------------------------------------------------------------------

/// Every list that depends on the effort level.
pub(crate) struct Scale {
    /// The margins of Figs. 6–8 (the paper: 1 to 3 in 0.5 steps).
    fig6_margins: &'static [f64],
    /// The margins of Fig. 9, Table I and the full sweep grid (the paper: 1
    /// to 5 in 0.5 steps).
    pub(crate) table1_margins: &'static [f64],
    table1_topologies: &'static [&'static str],
    /// Everything except the near-trees, plus BBNPlanet, which the paper
    /// keeps for the stretch figure.
    fig11_topologies: &'static [&'static str],
    /// Fig. 10's topology and margin.
    fig10_instance: (&'static str, f64),
}

/// What `effort` means to the grid: `Quick` keeps every artefact to seconds,
/// `Full` is the paper's configuration.
pub(crate) fn scale(effort: Effort) -> &'static Scale {
    match effort {
        Effort::Quick => &Scale {
            fig6_margins: &[1.0, 2.0, 3.0],
            table1_margins: &[1.0, 2.0, 3.0, 5.0],
            table1_topologies: &["Abilene", "NSF", "Digex", "BtEurope"],
            fig11_topologies: &["Abilene", "NSF", "Digex"],
            fig10_instance: ("Abilene", 2.0),
        },
        Effort::Full => &Scale {
            fig6_margins: &[1.0, 1.5, 2.0, 2.5, 3.0],
            table1_margins: &[1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
            #[rustfmt::skip]
            table1_topologies: &[
                "AS1221", "AS1755", "AS3257", "BICS", "BtEurope", "Digex", "GRNet", "Geant",
                "Germany", "InternetMCI", "Italy", "NSF", "Abilene", "ATT",
            ],
            #[rustfmt::skip]
            fig11_topologies: &[
                "AS1221", "AS1755", "AS3257", "Abilene", "ATT", "BBNPlanet", "BICS", "BtEurope",
                "Digex", "Geant", "Germany", "GRNet", "InternetMCI", "Italy", "NSF",
            ],
            fig10_instance: ("AS1755", 2.0),
        },
    }
}

/// One artefact in the three forms the `experiments` binary chooses between.
#[derive(Debug, Clone, PartialEq)]
pub struct Rendered {
    text: String,
    json: Value,
    csv: Option<String>,
}

impl Rendered {
    /// An artefact from its text report, its structured result and, where
    /// the result is tabular, its CSV.
    pub fn new(text: String, result: &impl Serialize, csv: Option<String>) -> Self {
        let json = result.serialize();
        Self { text, json, csv }
    }

    /// The structured result.
    pub fn json(&self) -> &Value {
        &self.json
    }

    /// The artefact in `format`; `None` if it has no CSV shape.
    pub fn render(self, format: ReportFormat) -> Option<String> {
        match format {
            ReportFormat::Text => Some(self.text),
            ReportFormat::Json => {
                Some(serde_json::to_string_pretty(&self.json).expect("the JSON shim is infallible"))
            }
            ReportFormat::Csv => self.csv,
        }
    }
}

/// How an artefact's rows are produced.
enum Rows {
    /// Ratio rows: a selection of the one grid, run by [`run_sweep`] and
    /// laid out as a margin figure (`figure`) or as Table I.
    Grid {
        select: fn(Effort) -> SweepGrid,
        figure: bool,
    },
    /// Anything else: the driver renders its own rows under the caption.
    Driver(Driver),
}

/// One entry of the registry.
pub struct Artefact {
    name: &'static str,
    caption: &'static str,
    rows: Rows,
}

type Driver = fn(&str, Effort, usize) -> Result<Rendered, CoreError>;

const fn driver(name: &'static str, caption: &'static str, run: Driver) -> Artefact {
    let rows = Rows::Driver(run);
    Artefact {
        name,
        caption,
        rows,
    }
}

const fn grid(
    name: &'static str,
    caption: &'static str,
    figure: bool,
    select: fn(Effort) -> SweepGrid,
) -> Artefact {
    let rows = Rows::Grid { select, figure };
    Artefact {
        name,
        caption,
        rows,
    }
}

/// One margin figure's grid: a topology, a model and a heuristic over
/// `margins`.
fn figure_grid(
    topology: &str,
    model: BaseModel,
    heuristic: WeightHeuristic,
    margins: &[f64],
    effort: Effort,
) -> SweepGrid {
    SweepGrid::cross(&[topology], &[model], margins, &[heuristic], effort)
}

/// Every artefact of the paper's evaluation, in the order `all` runs them.
#[rustfmt::skip]
pub const ARTEFACTS: &[Artefact] = &[
    driver("fig1", "Fig. 1 / Appendix B: running example (exact oblivious ratios)", render_fig1),
    driver("gadget", "Theorem 1: BIPARTITION gadget (weights [1.0, 2.0, 3.0, 4.0])", render_gadget),
    driver("lowerbound", "Theorem 4: Ω(|V|) lower bound for oblivious IP routing", render_lowerbound),
    grid("fig6", "fig6: Geant, gravity model, reverse-capacities weights (ratio vs margin)", true,
         |e| figure_grid("Geant", Gravity, InverseCapacity, scale(e).fig6_margins, e)),
    grid("fig7", "fig7: Digex, gravity model, reverse-capacities weights (ratio vs margin)", true,
         |e| figure_grid("Digex", Gravity, InverseCapacity, scale(e).fig6_margins, e)),
    grid("fig8", "fig8: AS1755, bimodal model, reverse-capacities weights (ratio vs margin)", true,
         |e| figure_grid("AS1755", Bimodal, InverseCapacity, scale(e).fig6_margins, e)),
    grid("fig9", "fig9: Abilene, bimodal model, local-search weights", true,
         |e| figure_grid("Abilene", Bimodal, LocalSearch, scale(e).table1_margins, e)),
    driver("fig10", "fig10: splitting-ratio approximation with 3/5/10 virtual next hops", render_fig10),
    driver("fig11", "fig11: average path stretch vs ECMP (margin 2.5)", render_fig11),
    driver("fig12", "fig12: prototype packet-drop experiment (1 Mbps links)", render_fig12),
    grid("table1", "Table I: gravity base model, reverse-capacity weights", false, |e| {
        let (topologies, margins) = (scale(e).table1_topologies, scale(e).table1_margins);
        SweepGrid::cross(topologies, &[Gravity], margins, &[InverseCapacity], e)
    }),
];

/// The registry entry called `name`.
pub fn artefact(name: &str) -> Option<&'static Artefact> {
    ARTEFACTS.iter().find(|a| a.name == name)
}

impl Artefact {
    /// The command name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The one-line description: the usage text lists it and it heads the
    /// text report — of every artefact but `fig10`, whose heading names the
    /// instance the effort level picked.
    pub fn caption(&self) -> &'static str {
        self.caption
    }

    /// The grid selection behind a ratio artefact (`None` for the others).
    pub fn grid(&self, effort: Effort) -> Option<SweepGrid> {
        match self.rows {
            Rows::Grid { select, .. } => Some(select(effort)),
            Rows::Driver(_) => None,
        }
    }

    /// Produces the artefact. `threads` as in [`run_sweep`].
    pub fn run(&self, effort: Effort, threads: usize) -> Result<Rendered, CoreError> {
        match self.rows {
            Rows::Driver(driver) => driver(self.caption, effort, threads),
            Rows::Grid { select, figure } => {
                let report = run_sweep(&select(effort), threads)?;
                let rows: Vec<ProtocolRatios> =
                    report.records.into_iter().map(|r| r.ratios).collect();
                let mut table = ratios_table(&rows, figure);
                if !figure {
                    // A summary the paper states in prose: how much further
                    // from optimal ECMP is, on average, compared to COYOTE.
                    let avg = rows.iter().map(ProtocolRatios::ecmp_vs_coyote).sum::<f64>()
                        / rows.len().max(1) as f64;
                    table.footer = format!(
                        "ECMP is on average {:.0}% further from optimum than COYOTE.",
                        (avg - 1.0) * 100.0
                    );
                }
                let text = format!("== {} ==\n{}", self.caption, table.text());
                Ok(Rendered::new(text, &rows, Some(table.csv())))
            }
        }
    }
}

/// Runs `entries` in order into one document: the text reports one after
/// the other, the JSON one object keyed by artefact name. No CSV — the
/// sections share no schema.
fn run_entries(
    entries: &[Artefact],
    effort: Effort,
    threads: usize,
) -> Result<Rendered, CoreError> {
    let mut text = String::new();
    let mut sections = Vec::new();
    for entry in entries {
        let rendered = entry.run(effort, threads)?;
        text.push_str(&rendered.text);
        if !text.ends_with('\n') {
            text.push('\n');
        }
        sections.push((entry.name.to_string(), rendered.json));
    }
    let (json, csv) = (Value::Object(sections), None);
    Ok(Rendered { text, json, csv })
}

/// The `all` command: every registry entry, in registry order.
pub fn run_all(effort: Effort, threads: usize) -> Result<Rendered, CoreError> {
    run_entries(ARTEFACTS, effort, threads)
}

// ---------------------------------------------------------------------------
// Fig. 1 / Appendix B: the running example.
// ---------------------------------------------------------------------------

/// Results of the running-example experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig1Result {
    /// Exact oblivious ratio of ECMP with unit weights.
    pub ecmp_ratio: f64,
    /// Exact oblivious ratio of the paper's Fig. 1c configuration (4/3).
    pub fig1c_ratio: f64,
    /// Exact oblivious ratio of the Appendix-B golden-ratio optimum (≈1.236).
    pub golden_ratio: f64,
    /// Exact oblivious ratio of the configuration COYOTE's optimizer finds.
    pub coyote_ratio: f64,
}

/// Reproduces the running example end to end.
pub fn fig1_running_example() -> Result<Fig1Result, CoreError> {
    let (graph, nodes) = example_fig1::topology();
    let unc = example_fig1::uncertainty(&nodes);

    let exact = |routing: &PdRouting| -> Result<f64, CoreError> {
        Ok(performance_ratio_exact(&graph, routing, &unc, RoutabilityScope::AllEdges, None)?.ratio)
    };

    let ecmp = ecmp_routing(&graph)?;
    let fig1c = example_fig1::fig1c_routing(&graph, &nodes);
    let golden = example_fig1::golden_routing(&graph, &nodes);
    let optimized = coyote(&graph, &unc, None, &CoyoteConfig::fast())?;

    Ok(Fig1Result {
        ecmp_ratio: exact(&ecmp)?,
        fig1c_ratio: exact(&fig1c)?,
        golden_ratio: exact(&golden)?,
        coyote_ratio: exact(&optimized.routing)?,
    })
}

fn render_fig1(caption: &str, _: Effort, _: usize) -> Result<Rendered, CoreError> {
    let r = fig1_running_example()?;
    let rows = [
        ("ECMP (unit weights)", r.ecmp_ratio),
        ("Fig. 1c configuration", r.fig1c_ratio),
        ("Golden-ratio optimum", r.golden_ratio),
        ("COYOTE (optimized)", r.coyote_ratio),
    ];
    let table = Table::new(&rows)
        .col("configuration", "configuration", |r| text(r.0))
        .col("oblivious_ratio", "oblivious ratio", |r| Cell::Ratio(r.1));
    let text = format!("== {caption} ==\n{}", table.text());
    Ok(Rendered::new(text, &r, None))
}

// ---------------------------------------------------------------------------
// Theorem 1: the BIPARTITION gadget.
// ---------------------------------------------------------------------------

/// Results of the NP-hardness gadget experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GadgetResult {
    /// The weights of the BIPARTITION instance.
    pub weights: Vec<f64>,
    /// Ratio achieved when the integer gadgets are oriented according to an
    /// even bipartition (Lemma 2 predicts 4/3 for positive instances).
    pub balanced_ratio: f64,
    /// Ratio achieved when all gadgets are oriented the same way (a
    /// maximally unbalanced "partition").
    pub unbalanced_ratio: f64,
}

/// Builds the Theorem-1 reduction instance for a set of integer weights and
/// measures the oblivious ratio of a balanced versus an unbalanced gadget
/// orientation, using the extreme matrices `D1`/`D2` of the proof.
pub fn theorem1_gadget(weights: &[f64]) -> Result<GadgetResult, CoreError> {
    assert!(!weights.is_empty(), "need at least one integer weight");
    let sum: f64 = weights.iter().sum();

    // Build the gadget graph.
    let mut g = Graph::new();
    let s1 = g.add_node("s1").unwrap();
    let s2 = g.add_node("s2").unwrap();
    let t = g.add_node("t").unwrap();
    let mut gadget_nodes = Vec::new();
    for (i, &w) in weights.iter().enumerate() {
        let x1 = g.add_node(format!("x1_{i}")).unwrap();
        let x2 = g.add_node(format!("x2_{i}")).unwrap();
        let m = g.add_node(format!("m_{i}")).unwrap();
        g.add_bidirectional_edge(x1, x2, w, 1.0).unwrap();
        g.add_bidirectional_edge(x1, m, w, 1.0).unwrap();
        g.add_bidirectional_edge(x2, m, w, 1.0).unwrap();
        g.add_edge(s1, x1, 2.0 * w, 1.0).unwrap();
        g.add_edge(s2, x2, 2.0 * w, 1.0).unwrap();
        g.add_edge(m, t, 2.0 * w, 1.0).unwrap();
        gadget_nodes.push((x1, x2, m));
    }

    // The two extreme matrices of the proof.
    let d1 = DemandMatrix::from_pairs(g.node_count(), &[(s1, t, 2.0 * sum)]);
    let d2 = DemandMatrix::from_pairs(g.node_count(), &[(s2, t, 2.0 * sum)]);

    // Routing following the proof of Lemma 2 for a partition assignment:
    // `in_p1[i]` decides the orientation of the (x1, x2) link of gadget i
    // and the splitting ratios at s1/s2.
    let build_routing = |in_p1: &[bool]| -> Result<PdRouting, CoreError> {
        let mut raw = vec![0.0; g.edge_count()];
        for (i, &(x1, x2, m)) in gadget_nodes.iter().enumerate() {
            let w = weights[i];
            let p1 = in_p1[i];
            // Splitting at the sources (Lemma 2): 4w/3SUM if the gadget is in
            // the source's partition, 2w/3SUM otherwise. The ratios are
            // normalized per node, so relative magnitudes are what matters.
            raw[g.find_edge(s1, x1).unwrap().index()] = if p1 { 4.0 * w } else { 2.0 * w };
            raw[g.find_edge(s2, x2).unwrap().index()] = if p1 { 2.0 * w } else { 4.0 * w };
            // Orientation and splits inside the gadget.
            let x1x2 = g.find_edge(x1, x2).unwrap();
            let x2x1 = g.find_edge(x2, x1).unwrap();
            let x1m = g.find_edge(x1, m).unwrap();
            let x2m = g.find_edge(x2, m).unwrap();
            if p1 {
                raw[x1x2.index()] = 0.5;
                raw[x1m.index()] = 0.5;
                raw[x2m.index()] = 1.0;
                raw[x2x1.index()] = 0.0;
            } else {
                raw[x2x1.index()] = 0.5;
                raw[x2m.index()] = 0.5;
                raw[x1m.index()] = 1.0;
                raw[x1x2.index()] = 0.0;
            }
            raw[g.find_edge(m, t).unwrap().index()] = 1.0;
        }
        // The DAG towards t must respect the chosen orientations; rebuild it
        // from the positive-ratio edges.
        let mut edges = Vec::new();
        for e in g.edges() {
            if raw[e.index()] > 0.0 {
                edges.push(e);
            }
        }
        let dag_t = coyote_graph::Dag::new(&g, t, &edges)?;
        let mut dags = build_all_dags(&g, DagMode::Augmented)?;
        dags[t.index()] = dag_t;
        let mut ratios = vec![vec![0.0; g.edge_count()]; g.node_count()];
        ratios[t.index()] = raw;
        // Other destinations keep uniform splits over their augmented DAGs.
        for dest in g.nodes() {
            if dest != t {
                for v in g.nodes() {
                    let out = dags[dest.index()].out_edges(v);
                    if !out.is_empty() {
                        let share = 1.0 / out.len() as f64;
                        for &e in out {
                            ratios[dest.index()][e.index()] = share;
                        }
                    }
                }
            }
        }
        Ok(PdRouting::from_ratios(&g, dags, ratios))
    };

    // Balanced partition: greedy split into two halves of (near-)equal sum.
    let balanced = balanced_partition(weights);
    let unbalanced = vec![true; weights.len()];

    let eval = |routing: &PdRouting| -> Result<f64, CoreError> {
        let mut worst = 0.0_f64;
        for dm in [&d1, &d2] {
            let opt = optu(&g, dm)?;
            if opt > 1e-9 {
                worst = worst.max(routing.max_link_utilization(&g, dm) / opt);
            }
        }
        Ok(worst)
    };

    Ok(GadgetResult {
        weights: weights.to_vec(),
        balanced_ratio: eval(&build_routing(&balanced)?)?,
        unbalanced_ratio: eval(&build_routing(&unbalanced)?)?,
    })
}

fn render_gadget(caption: &str, _: Effort, _: usize) -> Result<Rendered, CoreError> {
    let r = theorem1_gadget(&[1.0, 2.0, 3.0, 4.0])?;
    let rows = [
        ("balanced orientation", r.balanced_ratio),
        ("unbalanced orientation", r.unbalanced_ratio),
    ];
    let table = Table::new(&rows)
        .col("orientation", "gadget orientation", |r| text(r.0))
        .col("ratio", "ratio", |r| Cell::Ratio(r.1));
    let text = format!("== {caption} ==\n{}", table.text());
    Ok(Rendered::new(text, &r, None))
}

/// Greedy near-equal bipartition of a weight set (true = first partition).
pub fn balanced_partition(weights: &[f64]) -> Vec<bool> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| {
        weights[b]
            .partial_cmp(&weights[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut in_p1 = vec![false; weights.len()];
    let (mut sum1, mut sum2) = (0.0, 0.0);
    for i in order {
        if sum1 <= sum2 {
            in_p1[i] = true;
            sum1 += weights[i];
        } else {
            sum2 += weights[i];
        }
    }
    in_p1
}

// ---------------------------------------------------------------------------
// Theorem 4: the Ω(|V|) lower-bound instance.
// ---------------------------------------------------------------------------

/// Results of the lower-bound experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LowerBoundResult {
    /// Number of path nodes `n`.
    pub n: usize,
    /// Performance ratio of ECMP (a representative destination-based
    /// oblivious routing) on the spike matrices.
    pub oblivious_ratio: f64,
    /// The demands-aware optimum of every spike matrix (should be ≤ 1 by
    /// construction).
    pub optimum: f64,
}

/// Builds the Theorem-4 instance (an `n`-node path with huge-capacity path
/// links and unit-capacity links to the target) and measures how badly any
/// fixed destination-based routing does against the per-source spike
/// matrices.
pub fn theorem4_lower_bound(n: usize) -> Result<LowerBoundResult, CoreError> {
    assert!(n >= 2, "need at least two path nodes");
    let mut g = Graph::new();
    let xs: Vec<NodeId> = (0..n)
        .map(|i| g.add_node(format!("x{i}")).unwrap())
        .collect();
    let t = g.add_node("t").unwrap();
    let huge = n as f64 * 10.0;
    for i in 0..n - 1 {
        g.add_bidirectional_edge(xs[i], xs[i + 1], huge, 1.0)
            .unwrap();
    }
    for &x in &xs {
        g.add_edge(x, t, 1.0, 1.0).unwrap();
    }

    let ecmp = ecmp_routing(&g)?;
    let mut worst_ratio = 0.0_f64;
    let mut worst_opt = 0.0_f64;
    for &x in &xs {
        let dm = DemandMatrix::from_pairs(g.node_count(), &[(x, t, n as f64)]);
        let opt = optu(&g, &dm)?;
        worst_opt = worst_opt.max(opt);
        let util = ecmp.max_link_utilization(&g, &dm);
        if opt > 1e-9 {
            worst_ratio = worst_ratio.max(util / opt);
        }
    }
    Ok(LowerBoundResult {
        n,
        oblivious_ratio: worst_ratio,
        optimum: worst_opt,
    })
}

fn render_lowerbound(caption: &str, _: Effort, _: usize) -> Result<Rendered, CoreError> {
    let results = [3usize, 5, 8, 12]
        .into_iter()
        .map(theorem4_lower_bound)
        .collect::<Result<Vec<_>, _>>()?;
    let table = Table::new(&results)
        .col("n", "n", |r| text(r.n))
        .col("oblivious_ratio", "oblivious ratio", |r| {
            Cell::Ratio(r.oblivious_ratio)
        })
        .col("optimum", "demands-aware optimum", |r| {
            Cell::Ratio(r.optimum)
        });
    let text = format!("== {caption} ==\n{}", table.text());
    Ok(Rendered::new(text, &results, None))
}

// ---------------------------------------------------------------------------
// Fig. 10: approximating the splitting ratios with virtual next hops.
// ---------------------------------------------------------------------------

/// One point of Fig. 10: a virtual-next-hop budget and the resulting
/// performance ratio of the realized configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ApproximationPoint {
    /// FIB entries allowed per (router, prefix); `None` is the ideal
    /// (unquantized) configuration.
    pub budget: Option<usize>,
    /// Performance ratio of the realized routing on the shared evaluation
    /// family.
    pub ratio: f64,
    /// Fake nodes the Fibbing program needs.
    pub fake_nodes: usize,
}

/// Results of the Fig. 10 experiment for one topology and margin.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ApproximationResult {
    /// Topology name.
    pub topology: String,
    /// Margin used.
    pub margin: f64,
    /// ECMP reference ratio.
    pub ecmp_ratio: f64,
    /// One point per budget (3, 5, 10, ideal).
    pub points: Vec<ApproximationPoint>,
}

/// Reproduces Fig. 10: COYOTE's splitting ratios are quantized to 3/5/10
/// virtual next hops per router interface and re-evaluated.
pub fn fig10_approximation(
    topology: &str,
    margin: f64,
    effort: Effort,
) -> Result<ApproximationResult, CoreError> {
    let scenario = Scenario::build(&SweepSpec {
        topology: topology.to_string(),
        model: Gravity,
        margin,
        heuristic: InverseCapacity,
        effort,
    })?;
    let (graph, evaluation) = (&scenario.graph, &scenario.evaluation);
    let coyote = scenario.optimize(&scenario.uncertainty)?;

    let mut points = Vec::new();
    for budget in [Some(3usize), Some(5), Some(10), None] {
        let vl = match budget {
            Some(n) => VirtualLinkBudget::per_prefix(n),
            None => VirtualLinkBudget::unlimited(),
        };
        let program = compute_program(graph, &coyote, vl)
            .map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
        let realized = realized_routing(graph, &program)
            .map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
        let ratio = evaluation.performance_ratio(graph, &realized);
        points.push(ApproximationPoint {
            budget,
            ratio,
            fake_nodes: program.stats.fake_nodes,
        });
    }

    Ok(ApproximationResult {
        topology: scenario.topology.name,
        margin,
        ecmp_ratio: evaluation.performance_ratio(graph, &ecmp_routing(graph)?),
        points,
    })
}

fn render_fig10(_: &str, effort: Effort, _: usize) -> Result<Rendered, CoreError> {
    let (topology, margin) = scale(effort).fig10_instance;
    let r = fig10_approximation(topology, margin, effort)?;
    let mut rows = vec![("ECMP".to_string(), r.ecmp_ratio, 0)];
    for p in &r.points {
        let label = match p.budget {
            Some(n) => format!("COYOTE {n} NHs"),
            None => "COYOTE ideal".to_string(),
        };
        rows.push((label, p.ratio, p.fake_nodes));
    }
    let table = Table::new(&rows)
        .col("configuration", "configuration", |r| text(&r.0))
        .col("ratio", "ratio", |r| Cell::Ratio(r.1))
        .col("fake_nodes", "fake nodes", |r| text(r.2));
    let text = format!(
        "== fig10: {} (margin {}): splitting-ratio approximation ==\n{}",
        r.topology,
        r.margin,
        table.text()
    );
    Ok(Rendered::new(text, &r, None))
}

// ---------------------------------------------------------------------------
// Fig. 11: average path stretch.
// ---------------------------------------------------------------------------

/// One bar of Fig. 11.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StretchResult {
    /// Topology name.
    pub topology: String,
    /// Average stretch of COYOTE (oblivious) relative to ECMP.
    pub oblivious_stretch: f64,
    /// Average stretch of COYOTE (partial knowledge) relative to ECMP.
    pub partial_stretch: f64,
}

/// Reproduces Fig. 11 for the given topologies at margin 2.5, one pool
/// worker per topology (`threads` as in [`run_sweep`]): the stretch of the
/// two COYOTE routings Table I scores, relative to ECMP. Only the routings
/// are read, so neither the Base LP nor any ratio is computed.
pub fn fig11_stretch(
    topologies: &[&str],
    effort: Effort,
    threads: usize,
) -> Result<Vec<StretchResult>, CoreError> {
    WorkerPool::new(threads).try_par_map(topologies, |name| {
        let scenario = Scenario::build(&SweepSpec {
            topology: name.to_string(),
            model: Gravity,
            margin: 2.5,
            heuristic: InverseCapacity,
            effort,
        })?;
        let graph = &scenario.graph;
        let oblivious = scenario.optimize(&UncertaintySet::oblivious(graph.node_count()))?;
        let partial = scenario.optimize(&scenario.uncertainty)?;
        let ecmp = ecmp_routing(graph)?;
        let stretch = |routing| average_stretch(graph, routing, &ecmp).unwrap_or(1.0);
        Ok(StretchResult {
            oblivious_stretch: stretch(&oblivious),
            partial_stretch: stretch(&partial),
            topology: scenario.topology.name,
        })
    })
}

fn render_fig11(caption: &str, effort: Effort, threads: usize) -> Result<Rendered, CoreError> {
    let results = fig11_stretch(scale(effort).fig11_topologies, effort, threads)?;
    let table = Table::new(&results)
        .col("topology", "topology", |r| text(&r.topology))
        .col("oblivious_stretch", "COYOTE-oblivious", |r| {
            Cell::Num(r.oblivious_stretch, 3)
        })
        .col("partial_stretch", "COYOTE-partial-knowledge", |r| {
            Cell::Num(r.partial_stretch, 3)
        });
    let text = format!("== {caption} ==\n{}", table.text());
    Ok(Rendered::new(text, &results, None))
}

// ---------------------------------------------------------------------------
// Fig. 12: prototype.
// ---------------------------------------------------------------------------

/// Reproduces Fig. 12 by running the flow-level prototype emulation for
/// TE1, TE2, TE3 and COYOTE.
pub fn fig12_prototype() -> Vec<PrototypeResult> {
    run_prototype_all()
}

fn render_fig12(caption: &str, _: Effort, _: usize) -> Result<Rendered, CoreError> {
    let results = fig12_prototype();
    let mut rows = Vec::new();
    for r in &results {
        for (i, phase) in r.phases.iter().enumerate() {
            let (t1, t2) = phase.offered;
            let offered = format!("({t1:.0}, {t2:.0}) Mbps");
            rows.push((
                &r.scheme,
                format!("phase {}", i + 1),
                offered,
                phase.drop_rate,
            ));
        }
        let cumulative = r.cumulative_drop_rate();
        rows.push((&r.scheme, "cumulative".into(), "-".into(), cumulative));
    }
    let table = Table::new(&rows)
        .col("scheme", "scheme", |r| text(r.0))
        .col("phase", "phase", |r| text(&r.1))
        .col("offered", "offered (t1, t2)", |r| text(&r.2))
        .col("drop_rate", "drop rate", |r| Cell::Percent(r.3));
    let text = format!("== {caption} ==\n{}", table.text());
    Ok(Rendered::new(text, &results, None))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_numbers_match_the_paper() {
        let r = fig1_running_example().unwrap();
        assert!((r.fig1c_ratio - 4.0 / 3.0).abs() < 1e-3, "{:?}", r);
        assert!((r.golden_ratio - example_fig1::OPTIMAL_WORST_UTILIZATION).abs() < 1e-3);
        assert!(r.ecmp_ratio >= 1.5 - 1e-6);
        assert!(r.coyote_ratio < r.ecmp_ratio);
    }

    #[test]
    fn gadget_balanced_orientation_beats_unbalanced() {
        // Positive BIPARTITION instance: {1, 2, 3} splits into {1,2} and {3}.
        let r = theorem1_gadget(&[1.0, 2.0, 3.0]).unwrap();
        assert!(
            r.balanced_ratio < r.unbalanced_ratio - 0.1,
            "balanced {} vs unbalanced {}",
            r.balanced_ratio,
            r.unbalanced_ratio
        );
        // Lemma 2: a positive instance admits a 4/3 solution.
        assert!(r.balanced_ratio <= 4.0 / 3.0 + 0.05, "{}", r.balanced_ratio);
    }

    #[test]
    fn lower_bound_ratio_grows_linearly() {
        let small = theorem4_lower_bound(3).unwrap();
        let large = theorem4_lower_bound(6).unwrap();
        // Any fixed destination-based routing concentrates some spike on a
        // unit edge: ratio n (OPT spreads it at utilization <= 1).
        assert!(small.optimum <= 1.0 + 1e-6);
        assert!(large.optimum <= 1.0 + 1e-6);
        assert!((small.oblivious_ratio - 3.0).abs() < 1e-6);
        assert!((large.oblivious_ratio - 6.0).abs() < 1e-6);
    }

    #[test]
    fn balanced_partition_splits_evenly() {
        let p = balanced_partition(&[3.0, 1.0, 2.0]);
        let s1: f64 = p
            .iter()
            .zip([3.0, 1.0, 2.0])
            .filter(|(&b, _)| b)
            .map(|(_, w)| w)
            .sum();
        assert!((s1 - 3.0).abs() < 1e-9);
    }

    #[test]
    fn fig12_prototype_reproduces_the_papers_story() {
        let results = fig12_prototype();
        let coyote = results.iter().find(|r| r.scheme == "COYOTE").unwrap();
        assert!(coyote.worst_drop_rate() < 1e-9);
        for r in results.iter().filter(|r| r.scheme != "COYOTE") {
            assert!(
                r.worst_drop_rate() >= 0.25 - 1e-9,
                "{} {}",
                r.scheme,
                r.worst_drop_rate()
            );
        }
    }

    #[test]
    fn effort_lists_are_ordered_and_in_range() {
        for effort in [Effort::Quick, Effort::Full] {
            let scale = scale(effort);
            for m in [scale.fig6_margins, scale.table1_margins] {
                assert!(m.windows(2).all(|w| w[0] < w[1]));
                assert!(m.iter().all(|&x| (1.0..=5.0).contains(&x)));
            }
            for names in [scale.table1_topologies, scale.fig11_topologies] {
                assert!(!names.is_empty());
                assert!(names
                    .iter()
                    .all(|n| coyote_topology::zoo::by_name(n).is_some()));
            }
            assert!(coyote_topology::zoo::by_name(scale.fig10_instance.0).is_some());
        }
    }

    #[test]
    fn ratio_artefacts_are_selections_of_the_one_grid() {
        for name in ["fig6", "fig7", "fig8", "fig9", "table1"] {
            let grid = artefact(name).unwrap().grid(Effort::Quick).unwrap();
            assert!(!grid.is_empty(), "{name}");
        }
        let table1 = artefact("table1").unwrap().grid(Effort::Quick).unwrap();
        // Topology-major, as Table I prints it.
        assert_eq!(table1.len(), 16);
        assert!(table1.specs[..4].iter().all(|s| s.topology == "Abilene"));
        assert!(artefact("fig1").unwrap().grid(Effort::Quick).is_none());
        assert!(artefact("sweep").is_none());
    }

    #[test]
    fn all_is_one_json_document_keyed_by_artefact_name_in_registry_order() {
        // The three cheap entries the registry starts with;
        // `ci/results.json` (tests/results_artefact.rs) pins the same shape
        // over the whole registry.
        let names = ["fig1", "gadget", "lowerbound"];
        let all = run_entries(&ARTEFACTS[..3], Effort::Quick, 1).unwrap();
        let Value::Object(sections) = all.json() else {
            panic!("`all` must be one object");
        };
        let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, names);
        let text = all.clone().render(ReportFormat::Text).unwrap();
        assert!(text.starts_with("== Fig. 1 / Appendix B"), "{text}");
        assert_eq!(
            text.matches("\n== ").count(),
            2,
            "one heading per section:\n{text}"
        );
        assert!(all.clone().render(ReportFormat::Csv).is_none());
        let json = all.render(ReportFormat::Json).unwrap();
        let parsed = serde_json::from_str(&json).expect("one JSON document");
        for name in names {
            assert!(parsed.get(name).is_some(), "{name}");
        }
    }
}
