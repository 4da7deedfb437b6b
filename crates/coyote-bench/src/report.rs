//! Report rendering for the experiment harness.
//!
//! Every driver returns structured data. JSON goes through `serde_json` on
//! the already-`Serialize` result types; CSV and aligned text both come from
//! one [`Table`] — a column list whose typed [`Cell`]s know their
//! full-precision and their rounded form — to which each report type
//! contributes only its columns and its footer line.

use crate::conformance::{ConformanceRecord, ConformanceReport, ParetoPoint, ParetoReport};
use crate::failures::{FailureRecord, FailureReport, ModeOutcome};
use crate::scenario::ProtocolRatios;
use crate::sweep::{SweepRecord, SweepReport, SweepSpec};
use coyote_obs::Snapshot;
use Cell::{Fixed, Flag, Num, Percent, Ratio, Secs};

/// Renders an aligned text table: the header line, a rule, one line per row,
/// every column right-aligned to its widest cell.
fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| -> String {
        let padded = cells.iter().zip(&widths).map(|(c, &w)| format!("{c:>w$}"));
        padded.collect::<Vec<_>>().join("  ") + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1));
    let body = rows
        .iter()
        .map(|r| line(r.iter().map(String::as_str).collect()));
    line(headers.to_vec()) + &rule + "\n" + &body.collect::<String>()
}

/// Formats a ratio with two decimals (the precision Table I uses).
fn ratio(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "inf".to_string()
    }
}

/// Formats a percentage with one decimal.
fn percent(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Output format of the `experiments` binary (`--format` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Aligned human-readable tables (the default).
    #[default]
    Text,
    /// Pretty-printed JSON (the full structured result).
    Json,
    /// One comma-separated row per scenario/record.
    Csv,
}

impl std::str::FromStr for ReportFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "text" => Ok(Self::Text),
            "json" => Ok(Self::Json),
            "csv" => Ok(Self::Csv),
            other => Err(format!("unknown format {other:?} (expected json|csv|text)")),
        }
    }
}

/// One typed cell of a [`Table`]: it knows its full-precision form (CSV, so
/// reports diff across runs and thread counts) and its rounded form (text).
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// The same string in both forms (names, labels, counts).
    Str(String),
    /// A number: shortest round-trip form in CSV, `.1` decimals in text.
    Num(f64, usize),
    /// A performance ratio: full precision in CSV, two decimals (or `inf`)
    /// in text.
    Ratio(f64),
    /// A fraction: full precision in CSV, a percentage with one decimal
    /// (`25.6%`) in text.
    Percent(f64),
    /// Wall-clock seconds: microseconds in CSV, `1.23s` in text.
    Secs(f64),
    /// A measurement that may be missing: six decimals in CSV, `.1` decimals
    /// in text; `None` is an empty CSV field (never NaN) and `-` in text.
    Fixed(Option<f64>, usize),
    /// A verdict: `true`/`false` in CSV, the (true, false) words in text.
    Flag(bool, &'static str, &'static str),
}

/// [`Cell::Str`] of anything printable.
pub fn text(v: impl ToString) -> Cell {
    Cell::Str(v.to_string())
}

impl Cell {
    fn csv(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Num(v, _) | Ratio(v) | Percent(v) => v.to_string(),
            Secs(v) | Fixed(Some(v), _) => format!("{v:.6}"),
            Fixed(None, _) => String::new(),
            Flag(v, ..) => v.to_string(),
        }
    }

    fn text(&self) -> String {
        match self {
            Cell::Str(s) => s.clone(),
            Num(v, decimals) | Fixed(Some(v), decimals) => format!("{v:.decimals$}"),
            Ratio(v) => ratio(*v),
            Percent(v) => percent(*v),
            Secs(v) => format!("{v:.2}s"),
            Fixed(None, _) => "-".to_string(),
            Flag(v, yes, no) => if *v { yes } else { no }.to_string(),
        }
    }
}

struct Column<'a, R> {
    csv: &'static str,
    text: &'static str,
    cell: Box<dyn Fn(&R) -> Cell + 'a>,
}

/// A report as a column list over its rows plus the text footer line: the
/// one renderer of every tabular report, in both formats.
pub struct Table<'a, R> {
    columns: Vec<Column<'a, R>>,
    rows: &'a [R],
    /// The summary printed under the text table (empty for none).
    pub footer: String,
}

impl<'a, R> Table<'a, R> {
    /// A table over `rows` with no columns yet.
    pub fn new(rows: &'a [R]) -> Self {
        Self {
            columns: Vec::new(),
            rows,
            footer: String::new(),
        }
    }

    /// Appends a column: its name in the CSV header, its heading in the text
    /// table (an empty one leaves the column out of that format), and the
    /// accessor producing a row's cell.
    pub fn col(
        mut self,
        csv: &'static str,
        text: &'static str,
        cell: impl Fn(&R) -> Cell + 'a,
    ) -> Self {
        let cell = Box::new(cell);
        self.columns.push(Column { csv, text, cell });
        self
    }

    /// Appends the five columns every grid report starts with.
    fn spec_cols(self, spec: fn(&R) -> &SweepSpec) -> Self {
        self.col("topology", "network", move |r| text(&spec(r).topology))
            .col("model", "model", move |r| text(spec(r).model.name()))
            .col("heuristic", "", move |r| text(spec(r).heuristic.name()))
            .col("margin", "margin", move |r| Num(spec(r).margin, 1))
            .col("effort", "", move |r| text(format!("{:?}", spec(r).effort)))
    }

    /// The names and per-row cell strings of the columns one format carries.
    fn cells(
        &self,
        name: fn(&Column<R>) -> &'static str,
        form: fn(&Cell) -> String,
    ) -> (Vec<&'static str>, Vec<Vec<String>>) {
        let carried = || self.columns.iter().filter(|c| !name(c).is_empty());
        let row = |r| carried().map(|c| form(&(c.cell)(r))).collect();
        (
            carried().map(name).collect(),
            self.rows.iter().map(row).collect(),
        )
    }

    /// CSV: one header line, one line per row, cells at full precision.
    pub fn csv(&self) -> String {
        let (names, rows) = self.cells(|c| c.csv, Cell::csv);
        let lines = rows.iter().map(|row| row.join(",") + "\n");
        names.join(",") + "\n" + &lines.collect::<String>()
    }

    /// Aligned text: the rounded cells, every column right-aligned to its
    /// widest cell, then the footer.
    pub fn text(&self) -> String {
        let (headings, rows) = self.cells(|c| c.text, Cell::text);
        format_table(&headings, &rows) + &self.footer
    }
}

/// Bare [`ProtocolRatios`] rows. The CSV is the same for every ratio
/// artefact; the text is the margin series of Figs. 6–9 when `figure`, the
/// Table I layout otherwise.
#[rustfmt::skip]
pub fn ratios_table(rows: &[ProtocolRatios], figure: bool) -> Table<'_, ProtocolRatios> {
    let [network, base, oblivious, partial] = if figure {
        ["", "Base-TM-opt", "COYOTE-obl", "COYOTE-partial"]
    } else {
        ["network", "Base", "COYOTE obl.", "COYOTE par.know."]
    };
    Table::new(rows)
        .col("topology", network, |r| text(&r.topology))
        .col("margin", "margin", |r| Num(r.margin, 1))
        .col("ecmp", "ECMP", |r| Ratio(r.ecmp))
        .col("base", base, |r| Ratio(r.base))
        .col("coyote_oblivious", oblivious, |r| Ratio(r.coyote_oblivious))
        .col("coyote_partial", partial, |r| Ratio(r.coyote_partial))
}

impl SweepReport {
    /// The report as a table, with the timing footer.
    #[rustfmt::skip]
    pub fn table(&self) -> Table<'_, SweepRecord> {
        let (wall, cpu) = (self.wall_secs, self.cpu_secs());
        let mut table = Table::new(&self.records)
            .spec_cols(|r| &r.spec)
            .col("ecmp", "ECMP", |r| Ratio(r.ratios.ecmp))
            .col("base", "Base", |r| Ratio(r.ratios.base))
            .col("coyote_oblivious", "COYOTE obl.", |r| Ratio(r.ratios.coyote_oblivious))
            .col("coyote_partial", "COYOTE par.know.", |r| Ratio(r.ratios.coyote_partial))
            .col("wall_secs", "wall", |r| Secs(r.wall_secs));
        table.footer = format!(
            "{} scenarios on {} thread(s): {wall:.2}s wall, {cpu:.2}s cpu ({:.2}x speedup)\n",
            self.scenarios,
            self.threads,
            if wall > 0.0 { cpu / wall } else { 1.0 },
        );
        table
    }
}

impl ConformanceReport {
    /// The report as a table, with the verdict footer.
    #[rustfmt::skip]
    pub fn table(&self) -> Table<'_, ConformanceRecord> {
        let mut table = Table::new(&self.records)
            .spec_cols(|r| &r.spec)
            .col("faithful", "faithful", |r| Flag(r.faithful, "yes", "NO"))
            .col("dags_match", "", |r| text(r.dags_match))
            .col("", "fakes", |r| text(r.fake_nodes))
            .col("max_split_error", "split err", |r| Num(r.max_split_error, 4))
            .col("fake_nodes", "", |r| text(r.fake_nodes))
            .col("prefix_advertisements", "", |r| text(r.prefix_advertisements))
            .col("compression", "", |r| text(&r.compression))
            .col("max_fake_nodes_per_destination", "", |r| text(r.max_fake_nodes_per_destination))
            .col("base_intended_util", "", |r| Num(r.base.intended.max_utilization, 0))
            .col("base_realized_util", "", |r| Num(r.base.realized.max_utilization, 0))
            .col("worst_intended_util", "", |r| Num(r.worst.intended.max_utilization, 0))
            .col("worst_realized_util", "", |r| Num(r.worst.realized.max_utilization, 0))
            .col("base_intended_drop", "", |r| Num(r.base.intended.drop_rate, 0))
            .col("base_realized_drop", "", |r| Num(r.base.realized.drop_rate, 0))
            .col("worst_intended_drop", "", |r| Num(r.worst.intended.drop_rate, 0))
            .col("worst_realized_drop", "", |r| Num(r.worst.realized.drop_rate, 0))
            .col("max_utilization_delta", "util Δ", |r| Num(r.max_utilization_delta, 4))
            .col("drop_rate_delta", "drop Δ", |r| Num(r.drop_rate_delta, 4))
            .col("within_tolerance", "verdict", |r| Flag(r.within_tolerance, "pass", "FAIL"))
            .col("wall_secs", "wall", |r| Secs(r.wall_secs));
        table.footer = format!(
            "{}/{} cells within tolerance {} (compression {}, {} fake nodes) on \
             {} thread(s): {:.2}s wall, {:.2}s cpu\n",
            self.pass_count(),
            self.cells,
            self.tolerance,
            self.compression,
            self.total_fake_nodes(),
            self.threads,
            self.wall_secs,
            self.cpu_secs(),
        );
        table
    }
}

impl ParetoReport {
    /// The trade-off as a table: one row per compression level.
    #[rustfmt::skip]
    pub fn table(&self) -> Table<'_, ParetoPoint> {
        let cells = self.cells;
        let mut table = Table::new(&self.points)
            .col("level", "level", |p| text(&p.level))
            .col("epsilon", "", |p| Num(p.epsilon, 0))
            .col("fake_nodes", "fakes", |p| text(p.fake_nodes))
            .col("prefix_advertisements", "adverts", |p| text(p.prefix_advertisements))
            .col("fake_node_ratio", "ratio", |p| Num(p.fake_node_ratio, 3))
            .col("max_split_error", "split err", |p| Num(p.max_split_error, 4))
            .col("max_utilization_delta", "util Δ", |p| Num(p.max_utilization_delta, 4))
            .col("cells_within_tolerance", "", |p| text(p.cells_within_tolerance))
            .col("", "pass", move |p| text(format!("{}/{cells}", p.cells_within_tolerance)));
        table.footer = format!(
            "{} levels x {cells} cells, tolerance {}, on {} thread(s): {:.2}s wall\n",
            self.points.len(),
            self.tolerance,
            self.threads,
            self.wall_secs,
        );
        table
    }
}

impl FailureReport {
    /// The report as a table, with the within/degraded/unroutable footer. A
    /// mode missing after a captured failure is [`Cell::Fixed`]`(None, _)`.
    #[rustfmt::skip]
    pub fn table(&self) -> Table<'_, FailureRecord> {
        fn mode(m: &Option<ModeOutcome>, f: fn(&ModeOutcome) -> f64, decimals: usize) -> Cell {
            Fixed(m.as_ref().map(f), decimals)
        }
        let mut table = Table::new(&self.records)
            .col("cell", "", |r| text(&r.cell))
            .col("topology", "network", |r| text(&r.spec.topology))
            .col("model", "model", |r| text(r.spec.model.name()))
            .col("margin", "", |r| Num(r.spec.margin, 0))
            .col("event", "event", |r| text(r.event.id()))
            .col("verdict", "", |r| text(r.outcome.name()))
            .col("oblivious_util", "obl util", |r| mode(&r.oblivious, |m| m.max_utilization, 3))
            .col("oblivious_drop", "obl drop", |r| mode(&r.oblivious, |m| m.sim.drop_rate, 4))
            .col("oblivious_unrouted", "", |r| mode(&r.oblivious, |m| m.sim.unrouted, 0))
            .col("reoptimized_util", "reopt util", |r| mode(&r.reoptimized, |m| m.max_utilization, 3))
            .col("reoptimized_drop", "", |r| mode(&r.reoptimized, |m| m.sim.drop_rate, 0))
            .col("degradation_ratio", "degr", |r| Fixed(r.degradation_ratio, 3))
            .col("fake_lsa_delta", "ΔLSA", |r| text(r.fake_lsa_delta))
            .col("dead_demand_volume", "", |r| Fixed(Some(r.dead_demand_volume), 0))
            .col("unroutable_volume", "", |r| Fixed(Some(r.unroutable_volume), 0))
            .col("", "lost vol", |r| Fixed(Some(r.dead_demand_volume + r.unroutable_volume), 3))
            .col("", "verdict", |r| text(r.outcome.name()))
            .col("wall_secs", "wall", |r| Secs(r.wall_secs));
        table.footer = format!(
            "{} within / {} degraded / {} unroutable of {} cells, tolerance {}, \
             worst degradation {}, {:.3} demand units lost, on {} thread(s): \
             {:.2}s wall, {:.2}s cpu\n",
            self.within_count(),
            self.degraded_count(),
            self.unroutable_count(),
            self.cells,
            self.tolerance,
            Fixed(self.worst_degradation_ratio(), 3).text(),
            self.lost_volume(),
            self.threads,
            self.wall_secs,
            self.cpu_secs(),
        );
        table
    }
}

/// Formats a nanosecond quantity as seconds with millisecond precision.
fn secs(nanos: u128) -> String {
    format!("{:.3}s", nanos as f64 / 1e9)
}

/// Renders the `--profile` footer appended to text reports: a per-stage
/// wall-time table (one row per span name, from the snapshot's `timings`
/// section) followed by the deterministic workload counters. Stages are
/// sorted by total time, counters alphabetically — the table answers
/// "where did the time go", the counters "how much work was that".
pub fn profile_text(snapshot: &Snapshot) -> String {
    let mut out = String::from("\n== profile: per-stage wall time ==\n");
    if snapshot.timings.is_empty() {
        out.push_str("(no spans recorded)\n");
    } else {
        let mut stages: Vec<(&String, &coyote_obs::HistogramSnapshot)> =
            snapshot.timings.iter().collect();
        stages.sort_by(|a, b| b.1.sum.cmp(&a.1.sum).then_with(|| a.0.cmp(b.0)));
        let rows: Vec<Vec<String>> = stages
            .iter()
            .map(|(name, h)| {
                vec![
                    (*name).clone(),
                    h.count.to_string(),
                    secs(h.sum),
                    secs(h.sum.checked_div(h.count as u128).unwrap_or(0)),
                    secs(h.max as u128),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &["stage", "calls", "total", "mean", "max"],
            &rows,
        ));
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n== profile: workload counters (deterministic) ==\n");
        let rows: Vec<Vec<String>> = snapshot
            .counters
            .iter()
            .map(|(name, v)| vec![name.clone(), v.to_string()])
            .collect();
        out.push_str(&format_table(&["counter", "value"], &rows));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::{ConformanceRecord, MatrixConformance, SimSummary};
    use crate::scenario::{BaseModel, Effort, ProtocolRatios, WeightHeuristic};
    use crate::sweep::{SweepRecord, SweepSpec};

    fn sample_report() -> SweepReport {
        let spec = SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        };
        SweepReport {
            threads: 2,
            scenarios: 1,
            wall_secs: 1.5,
            records: vec![SweepRecord {
                spec,
                ratios: ProtocolRatios {
                    topology: "Abilene".into(),
                    margin: 2.0,
                    ecmp: 1.5,
                    base: 1.25,
                    coyote_oblivious: 1.4,
                    coyote_partial: 1.2,
                },
                wall_secs: 2.5,
            }],
        }
    }

    fn sample_conformance_report(within: bool) -> ConformanceReport {
        let summary = |util: f64, drop: f64| SimSummary {
            offered: 10.0,
            delivered: 10.0 * (1.0 - drop),
            drop_rate: drop,
            max_utilization: util,
        };
        let spec = SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Bimodal,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        };
        ConformanceReport {
            threads: 2,
            cells: 1,
            tolerance: 0.05,
            compression: "off".into(),
            wall_secs: 1.0,
            records: vec![ConformanceRecord {
                spec,
                dags_match: true,
                max_split_error: 0.01,
                faithful: true,
                fake_nodes: 7,
                prefix_advertisements: 7,
                compression: "off".into(),
                max_fake_nodes_per_destination: 3,
                base: MatrixConformance {
                    intended: summary(0.8, 0.0),
                    realized: summary(0.81, 0.0),
                },
                worst: MatrixConformance {
                    intended: summary(1.0, 0.1),
                    realized: summary(1.0, 0.11),
                },
                max_utilization_delta: 0.01,
                drop_rate_delta: 0.01,
                within_tolerance: within,
                wall_secs: 2.0,
            }],
        }
    }

    fn sample_failure_report() -> FailureReport {
        use crate::failures::{CellOutcome, FailureEvent, FailureRecord, FailureSimSummary};
        let spec = |model| SweepSpec {
            topology: "Abilene".into(),
            model,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        };
        let mode = |util: f64, drop: f64, unrouted: f64| ModeOutcome {
            max_utilization: util,
            sim: FailureSimSummary {
                offered: 10.0,
                delivered: 10.0 * (1.0 - drop),
                drop_rate: drop,
                unrouted,
                max_utilization: util.min(1.0),
            },
            fake_nodes: 40,
        };
        FailureReport {
            threads: 2,
            cells: 2,
            tolerance: 0.05,
            seed: 7,
            wall_secs: 1.25,
            records: vec![
                FailureRecord {
                    spec: spec(BaseModel::Gravity),
                    event: FailureEvent::LinkFailure { link: 3 },
                    cell: "Abilene/gravity/reverse-capacities/m2.0+link-3".into(),
                    outcome: CellOutcome::Degraded {
                        reason: "gap".into(),
                    },
                    oblivious: Some(mode(1.25, 0.125, 0.0)),
                    reoptimized: Some(mode(1.0, 0.0, 0.0)),
                    degradation_ratio: Some(1.25),
                    fake_lsa_delta: 12,
                    dead_demand_volume: 0.0,
                    unroutable_volume: 0.0,
                    wall_secs: 0.5,
                },
                FailureRecord {
                    spec: spec(BaseModel::Bimodal),
                    event: FailureEvent::NodeFailure { node: 7 },
                    cell: "Abilene/bimodal/reverse-capacities/m2.0+node-7".into(),
                    outcome: CellOutcome::Unroutable {
                        reason: "dead endpoint".into(),
                    },
                    oblivious: Some(mode(0.75, 0.3, 1.5)),
                    reoptimized: None,
                    degradation_ratio: None,
                    fake_lsa_delta: 0,
                    dead_demand_volume: 2.5,
                    unroutable_volume: 0.125,
                    wall_secs: 0.75,
                },
            ],
        }
    }

    fn sample_pareto_report() -> ParetoReport {
        let point = |level: &str, eps: f64, fakes: usize, ratio: f64, err: f64| {
            crate::conformance::ParetoPoint {
                level: level.into(),
                epsilon: eps,
                fake_nodes: fakes,
                prefix_advertisements: fakes + 2,
                fake_node_ratio: ratio,
                max_split_error: err,
                max_utilization_delta: err / 2.0,
                cells_within_tolerance: 1,
            }
        };
        ParetoReport {
            threads: 2,
            cells: 1,
            tolerance: 0.05,
            wall_secs: 3.0,
            points: vec![
                point("off", 0.0, 100, 1.0, 0.001),
                point("lossless", 0.0, 60, 0.6, 0.001),
                point("lossy(0.02)", 0.02, 8, 0.08, 0.018),
            ],
        }
    }

    /// The strings the nine hand-written renderers this table replaced
    /// produced on the same fixtures, captured before they were deleted.
    #[test]
    fn sweep_report_renders_byte_for_byte() {
        let report = sample_report();
        assert_eq!(report.table().csv(), concat!(
            "topology,model,heuristic,margin,effort,ecmp,base,coyote_oblivious,coyote_partial,wall_secs\n",
            "Abilene,gravity,reverse-capacities,2,Quick,1.5,1.25,1.4,1.2,2.500000\n",
        ));
        assert_eq!(
            report.table().text(),
            concat!(
                "network    model  margin  ECMP  Base  COYOTE obl.  COYOTE par.know.   wall\n",
                "--------------------------------------------------------------------------\n",
                "Abilene  gravity     2.0  1.50  1.25         1.40              1.20  2.50s\n",
                "1 scenarios on 2 thread(s): 1.50s wall, 2.50s cpu (1.67x speedup)\n",
            )
        );
    }

    #[test]
    fn conformance_report_renders_byte_for_byte() {
        let pass = sample_conformance_report(true);
        assert_eq!(pass.table().csv(), concat!(
            "topology,model,heuristic,margin,effort,faithful,dags_match,max_split_error,fake_nodes,prefix_advertisements,compression,max_fake_nodes_per_destination,base_intended_util,base_realized_util,worst_intended_util,worst_realized_util,base_intended_drop,base_realized_drop,worst_intended_drop,worst_realized_drop,max_utilization_delta,drop_rate_delta,within_tolerance,wall_secs\n",
            "Abilene,bimodal,reverse-capacities,2,Quick,true,true,0.01,7,7,off,3,0.8,0.81,1,1,0,0,0.1,0.11,0.01,0.01,true,2.000000\n",
        ));
        assert_eq!(pass.table().text(), concat!(
            "network    model  margin  faithful  fakes  split err   util Δ   drop Δ  verdict   wall\n",
            "--------------------------------------------------------------------------------------\n",
            "Abilene  bimodal     2.0       yes      7     0.0100   0.0100   0.0100     pass  2.00s\n",
            "1/1 cells within tolerance 0.05 (compression off, 7 fake nodes) on 2 thread(s): 1.00s wall, 2.00s cpu\n",
        ));
        let fail = sample_conformance_report(false);
        assert_eq!(fail.table().csv(), concat!(
            "topology,model,heuristic,margin,effort,faithful,dags_match,max_split_error,fake_nodes,prefix_advertisements,compression,max_fake_nodes_per_destination,base_intended_util,base_realized_util,worst_intended_util,worst_realized_util,base_intended_drop,base_realized_drop,worst_intended_drop,worst_realized_drop,max_utilization_delta,drop_rate_delta,within_tolerance,wall_secs\n",
            "Abilene,bimodal,reverse-capacities,2,Quick,true,true,0.01,7,7,off,3,0.8,0.81,1,1,0,0,0.1,0.11,0.01,0.01,false,2.000000\n",
        ));
        assert_eq!(fail.table().text(), concat!(
            "network    model  margin  faithful  fakes  split err   util Δ   drop Δ  verdict   wall\n",
            "--------------------------------------------------------------------------------------\n",
            "Abilene  bimodal     2.0       yes      7     0.0100   0.0100   0.0100     FAIL  2.00s\n",
            "0/1 cells within tolerance 0.05 (compression off, 7 fake nodes) on 2 thread(s): 1.00s wall, 2.00s cpu\n",
        ));
    }

    #[test]
    fn pareto_report_renders_byte_for_byte_even_when_empty() {
        let report = sample_pareto_report();
        assert_eq!(report.table().csv(), concat!(
            "level,epsilon,fake_nodes,prefix_advertisements,fake_node_ratio,max_split_error,max_utilization_delta,cells_within_tolerance\n",
            "off,0,100,102,1,0.001,0.0005,1\n",
            "lossless,0,60,62,0.6,0.001,0.0005,1\n",
            "lossy(0.02),0.02,8,10,0.08,0.018,0.009,1\n",
        ));
        assert_eq!(
            report.table().text(),
            concat!(
                "      level  fakes  adverts  ratio  split err   util Δ  pass\n",
                "------------------------------------------------------------\n",
                "        off    100      102  1.000     0.0010   0.0005   1/1\n",
                "   lossless     60       62  0.600     0.0010   0.0005   1/1\n",
                "lossy(0.02)      8       10  0.080     0.0180   0.0090   1/1\n",
                "3 levels x 1 cells, tolerance 0.05, on 2 thread(s): 3.00s wall\n",
            )
        );
        let empty = ParetoReport {
            threads: 1,
            cells: 0,
            tolerance: 0.05,
            wall_secs: 0.0,
            points: vec![],
        };
        assert_eq!(
            empty.table().csv(),
            "level,epsilon,fake_nodes,prefix_advertisements,fake_node_ratio,max_split_error,max_utilization_delta,cells_within_tolerance\n"
        );
        assert_eq!(
            empty.table().text(),
            concat!(
                "level  fakes  adverts  ratio  split err   util Δ  pass\n",
                "------------------------------------------------------\n",
                "0 levels x 0 cells, tolerance 0.05, on 1 thread(s): 0.00s wall\n",
            )
        );
    }

    #[test]
    fn failure_report_renders_missing_modes_as_empty_fields_and_dashes() {
        let report = sample_failure_report();
        assert_eq!(report.table().csv(), concat!(
            "cell,topology,model,margin,event,verdict,oblivious_util,oblivious_drop,oblivious_unrouted,reoptimized_util,reoptimized_drop,degradation_ratio,fake_lsa_delta,dead_demand_volume,unroutable_volume,wall_secs\n",
            "Abilene/gravity/reverse-capacities/m2.0+link-3,Abilene,gravity,2,link-3,degraded,1.250000,0.125000,0.000000,1.000000,0.000000,1.250000,12,0.000000,0.000000,0.500000\n",
            "Abilene/bimodal/reverse-capacities/m2.0+node-7,Abilene,bimodal,2,node-7,unroutable,0.750000,0.300000,1.500000,,,,0,2.500000,0.125000,0.750000\n",
        ));
        assert_eq!(report.table().text(), concat!(
            "network    model   event  obl util  obl drop  reopt util   degr   ΔLSA  lost vol     verdict   wall\n",
            "---------------------------------------------------------------------------------------------------\n",
            "Abilene  gravity  link-3     1.250    0.1250       1.000  1.250     12     0.000    degraded  0.50s\n",
            "Abilene  bimodal  node-7     0.750    0.3000           -      -      0     2.625  unroutable  0.75s\n",
            "0 within / 1 degraded / 1 unroutable of 2 cells, tolerance 0.05, worst degradation 1.250, 2.625 demand units lost, on 2 thread(s): 1.25s wall, 1.25s cpu\n",
        ));
    }

    #[test]
    fn ratio_rows_render_byte_for_byte_as_figure_and_as_table1() {
        let mut rows: Vec<ProtocolRatios> = sample_report()
            .records
            .into_iter()
            .map(|r| r.ratios)
            .collect();
        rows.push(ProtocolRatios {
            topology: "Abilene".into(),
            margin: 3.0,
            ecmp: f64::INFINITY,
            base: 2.0,
            coyote_oblivious: 1.125,
            coyote_partial: 1.0,
        });
        // The figure layout is what `format_series` printed for the four
        // protocol series (deleted with its only caller).
        assert_eq!(
            ratios_table(&rows, true).text(),
            concat!(
                "margin  ECMP  Base-TM-opt  COYOTE-obl  COYOTE-partial\n",
                "-----------------------------------------------------\n",
                "   2.0  1.50         1.25        1.40            1.20\n",
                "   3.0   inf         2.00        1.12            1.00\n",
            )
        );
        assert_eq!(
            ratios_table(&[], true).text(),
            concat!(
                "margin  ECMP  Base-TM-opt  COYOTE-obl  COYOTE-partial\n",
                "-----------------------------------------------------\n",
            )
        );
        assert_eq!(
            ratios_table(&rows, false).text(),
            concat!(
                "network  margin  ECMP  Base  COYOTE obl.  COYOTE par.know.\n",
                "----------------------------------------------------------\n",
                "Abilene     2.0  1.50  1.25         1.40              1.20\n",
                "Abilene     3.0   inf  2.00         1.12              1.00\n",
            )
        );
        assert_eq!(
            ratios_table(&rows, true).csv(),
            ratios_table(&rows, false).csv()
        );
        assert_eq!(
            ratios_table(&rows, false).csv(),
            concat!(
                "topology,margin,ecmp,base,coyote_oblivious,coyote_partial\n",
                "Abilene,2,1.5,1.25,1.4,1.2\n",
                "Abilene,3,inf,2,1.125,1\n",
            )
        );
    }

    #[test]
    fn report_format_parses_case_insensitively() {
        assert_eq!("JSON".parse::<ReportFormat>().unwrap(), ReportFormat::Json);
        assert_eq!("csv".parse::<ReportFormat>().unwrap(), ReportFormat::Csv);
        assert_eq!("Text".parse::<ReportFormat>().unwrap(), ReportFormat::Text);
        assert!("xml".parse::<ReportFormat>().is_err());
    }

    #[test]
    fn table_alignment_and_separator() {
        let out = format_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1.00".into()],
                vec!["longer-name".into(), "12.34".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("longer-name"));
        // Columns are right-aligned to the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn ratio_and_percent_formatting() {
        assert_eq!(ratio(1.2345), "1.23");
        assert_eq!(ratio(f64::INFINITY), "inf");
        assert_eq!(percent(0.256), "25.6%");
    }

    #[test]
    fn profile_text_sorts_stages_by_total_time() {
        let registry = coyote_obs::Registry::new();
        registry.observe_duration("fast.stage", 1_000_000); // 1 ms total
        registry.observe_duration("slow.stage", 2_000_000_000); // 2 s total
        registry.observe_duration("slow.stage", 1_000_000_000);
        registry.counter("lp.pivots", 42);
        let text = profile_text(&registry.snapshot());
        assert!(text.contains("per-stage wall time"));
        let slow = text.find("slow.stage").unwrap();
        let fast = text.find("fast.stage").unwrap();
        assert!(slow < fast, "stages must be sorted by total time:\n{text}");
        assert!(text.contains("3.000s"), "total for slow.stage:\n{text}");
        assert!(text.contains("lp.pivots"));
        assert!(text.contains("42"));
    }

    #[test]
    fn profile_text_handles_empty_snapshot() {
        let text = profile_text(&coyote_obs::Registry::new().snapshot());
        assert!(text.contains("(no spans recorded)"));
    }
}
