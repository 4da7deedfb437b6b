//! `lp-families`: the LP layer alone, used the two ways the pipeline uses it.
//!
//! Section *optu*: `EvaluationSet::build` (29 matrices at the default
//! options) for the 14 Table-I topologies × {gravity, bimodal(seed)} ×
//! margins {1.5, 3.0} — 1,624 `OPTU` LPs, one constraint matrix per topology
//! re-solved under many right-hand sides through `WarmBasis`.
//!
//! Section *adversary*: `performance_ratio_exact` of the uniform augmented
//! routing over the margin-2.0 gravity box on 13 topologies (all but Geant,
//! which alone takes as long as the other 13 together) — one slave LP per
//! edge, one constraint system re-solved under many objectives through
//! `PhaseOneCache`.
//!
//! No Adam, no SPF, no flow-sim: an LP change shows undiluted, and because
//! each section has its own metric a gain for one that costs the other
//! shows too.

use super::{common_layer_metrics, load_graph, table1_names, Tracing};
use crate::harness::{peak_rss_mb, Options, RepClock, Report, Setups, SplitMix64};
use crate::stats::geomean;
use crate::trace::{Recorder, Trace};
use coyote_bench::conformance::COMPILE_BUDGET;
use coyote_core::prelude::*;
use coyote_graph::{Dag, Graph};
use coyote_ospf::{compute_program_with, CompressionLevel, VirtualLinkBudget};
use coyote_serve::json::{self, JsonValue};
use coyote_traffic::{BimodalModel, DemandMatrix, GravityModel, UncertaintySet};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Margins of the *optu* section's uncertainty boxes.
const OPTU_MARGINS: [f64; 2] = [1.5, 3.0];
/// Margin of the *adversary* section's gravity box.
const ADVERSARY_MARGIN: f64 = 2.0;
/// The one topology the adversary section leaves out.
const ADVERSARY_SKIP: &str = "Geant";
/// At a seed without a golden file, every this-many-th OPTU objective is
/// re-solved cold.
const COLD_CHECK_STRIDE: usize = 8;

/// One evaluation family to build.
pub struct OptuSet {
    /// `topology/model/m<margin>`.
    pub id: String,
    base: DemandMatrix,
    uncertainty: UncertaintySet,
    options: EvaluationOptions,
}

/// One topology's inputs.
pub struct Topo {
    /// Zoo name.
    pub name: &'static str,
    graph: Graph,
    dags: Vec<Dag>,
    gravity: DemandMatrix,
    /// The families of the *optu* section.
    pub sets: Vec<OptuSet>,
    adversary: Option<(PdRouting, UncertaintySet)>,
}

/// Everything the timed section reads.
pub struct Inputs {
    /// Per topology, in Table-I order.
    pub topos: Vec<Topo>,
}

/// Builds the inputs from the seed: graphs, base matrices, boxes, DAGs and
/// the routings the adversary scans.
pub fn setup(opts: &Options, rec: &mut Recorder) -> Result<Inputs, String> {
    let names = if opts.smoke {
        vec!["Abilene"]
    } else {
        table1_names()
    };
    let mut rng = SplitMix64(opts.seed);
    let mut topos = Vec::with_capacity(names.len());
    for name in names {
        rec.set_request(|| name.to_string());
        let graph = rec.span("topology.load", || load_graph(name))?;
        let (gravity, bimodal) = rec.span("traffic.base_matrix", || {
            (
                GravityModel::default().generate(&graph),
                BimodalModel::with_seed(rng.next_u64()).generate(&graph),
            )
        });
        let dags = rec
            .span("core.dags.build", || {
                build_all_dags(&graph, DagMode::Augmented)
            })
            .map_err(|e| format!("{name}: {e}"))?;
        let mut sets = Vec::new();
        for (model, base) in [("gravity", &gravity), ("bimodal", &bimodal)] {
            for margin in OPTU_MARGINS {
                sets.push(OptuSet {
                    id: format!("{name}/{model}/m{margin:.1}"),
                    base: base.clone(),
                    uncertainty: rec.span("traffic.uncertainty", || {
                        UncertaintySet::from_margin(base, margin)
                    }),
                    options: EvaluationOptions {
                        seed: rng.next_u64(),
                        ..EvaluationOptions::default()
                    },
                });
            }
        }
        let adversary = if name == ADVERSARY_SKIP {
            None
        } else {
            let routing = uniform_augmented_routing(&graph).map_err(|e| format!("{name}: {e}"))?;
            let uncertainty = rec.span("traffic.uncertainty", || {
                UncertaintySet::from_margin(&gravity, ADVERSARY_MARGIN)
            });
            Some((routing, uncertainty))
        };
        topos.push(Topo {
            name,
            graph,
            dags,
            gravity,
            sets,
            adversary,
        });
    }
    Ok(Inputs { topos })
}

/// What one repetition produced.
pub struct RepOutput {
    optu_secs: f64,
    adversary_secs: f64,
    /// One family per [`OptuSet`], in input order.
    sets: Vec<EvaluationSet>,
    /// One ratio per scanned topology, in input order.
    ratios: Vec<f64>,
}

impl RepOutput {
    fn lp_count(&self) -> usize {
        self.sets.iter().map(EvaluationSet::len).sum()
    }

    fn optima(&self) -> Vec<Vec<f64>> {
        self.sets
            .iter()
            .map(|s| s.entries().map(|(_, opt)| opt).collect())
            .collect()
    }

    fn same_objectives(&self, other: &RepOutput) -> bool {
        let bits = |o: &RepOutput| -> Vec<u64> {
            let all = o
                .optima()
                .concat()
                .into_iter()
                .chain(o.ratios.iter().copied());
            all.map(f64::to_bits).collect()
        };
        bits(self) == bits(other)
    }
}

/// The timed section. The two sections alternate topology by topology, so
/// each is measured across the whole run and a slow stretch of the host
/// cannot land on one of them alone.
fn rep(inputs: &Inputs, rec: &mut Recorder) -> Result<RepOutput, String> {
    let mut out = RepOutput {
        optu_secs: 0.0,
        adversary_secs: 0.0,
        sets: Vec::new(),
        ratios: Vec::new(),
    };
    for topo in &inputs.topos {
        let started = Instant::now();
        for set in &topo.sets {
            rec.set_request(|| set.id.clone());
            let built = rec
                .span("core.evalset.build", || {
                    EvaluationSet::build(
                        &topo.graph,
                        &topo.dags,
                        &set.uncertainty,
                        Some(&set.base),
                        &set.options,
                    )
                })
                .map_err(|e| format!("{}: {e}", set.id))?;
            out.sets.push(built);
        }
        out.optu_secs += started.elapsed().as_secs_f64();

        let Some((routing, uncertainty)) = &topo.adversary else {
            continue;
        };
        let started = Instant::now();
        rec.set_request(|| format!("{}/adversary", topo.name));
        let worst = rec
            .span("core.worst_case.scan", || {
                performance_ratio_exact(
                    &topo.graph,
                    routing,
                    uncertainty,
                    RoutabilityScope::WithinDags,
                    None,
                )
            })
            .map_err(|e| format!("{}: {e}", topo.name))?;
        out.ratios.push(worst.ratio);
        out.adversary_secs += started.elapsed().as_secs_f64();
    }
    Ok(out)
}

/// Where the dense-oracle objectives of seed 1 live.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/lp-families.seed1.json")
}

/// The seed the golden file was written at.
pub const GOLDEN_SEED: u64 = 1;

fn relative_gap(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

/// Checks every objective of `out` against the golden file (to 1e-6
/// relative); returns the number of objectives off their reference.
fn check_against_golden(
    inputs: &Inputs,
    out: &RepOutput,
    golden: &JsonValue,
) -> Result<u64, String> {
    let mut off = 0;
    let optima = out.optima();
    let mut set_index = 0;
    for topo in &inputs.topos {
        for set in &topo.sets {
            let want = golden
                .get("optu")
                .and_then(|o| o.get(&set.id))
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("golden file has no objectives for {}", set.id))?;
            let got = &optima[set_index];
            set_index += 1;
            if want.len() != got.len() {
                return Err(format!(
                    "{}: {} objectives, golden has {}",
                    set.id,
                    got.len(),
                    want.len()
                ));
            }
            off += want
                .iter()
                .zip(got)
                .filter(|(w, g)| relative_gap(w.as_f64().unwrap_or(f64::NAN), **g) > 1e-6)
                .count() as u64;
        }
    }
    let scanned = inputs.topos.iter().filter(|t| t.adversary.is_some());
    for (topo, got) in scanned.zip(&out.ratios) {
        let want = golden
            .get("adversary")
            .and_then(|a| a.get(topo.name))
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("golden file has no ratio for {}", topo.name))?;
        if relative_gap(want, *got) > 1e-6 {
            off += 1;
        }
    }
    Ok(off)
}

/// Without a golden file: a sample of the warm-started objectives must
/// agree with a cold solve of the same matrix to 1e-7 relative.
fn check_against_cold(inputs: &Inputs, out: &RepOutput) -> Result<(u64, usize), String> {
    let mut off = 0;
    let mut checked = 0;
    let topo_of_set = inputs
        .topos
        .iter()
        .flat_map(|t| t.sets.iter().map(move |_| t));
    for (topo, set) in topo_of_set.zip(&out.sets) {
        for (dm, opt) in set.entries().step_by(COLD_CHECK_STRIDE) {
            let cold = optu_within_dags(&topo.graph, &topo.dags, dm)
                .map_err(|e| format!("{}: cold solve: {e}", topo.name))?;
            checked += 1;
            if relative_gap(cold, opt) > 1e-7 {
                off += 1;
            }
        }
    }
    Ok((off, checked))
}

/// The LP's optimal base routing must attain its own objective (to 1e-5), and
/// compiling those routings gives this workload's `lies`: a count that
/// moves when the LP lands on another optimal vertex.
fn check_routings(inputs: &Inputs) -> Result<(u64, usize), String> {
    let mut off = 0;
    let mut lies = 0;
    for topo in &inputs.topos {
        let (routing, objective) =
            optimal_routing_within_dags(&topo.graph, &topo.dags, &topo.gravity)
                .map_err(|e| format!("{}: {e}", topo.name))?;
        let attained = routing.max_link_utilization(&topo.graph, &topo.gravity);
        // The solver perturbs right-hand sides against degeneracy, so the
        // recovered flows sit within ~1e-6 of the reported optimum.
        if relative_gap(attained, objective) > 1e-5 {
            off += 1;
        }
        lies += compute_program_with(
            &topo.graph,
            &routing,
            VirtualLinkBudget::per_prefix(COMPILE_BUDGET),
            CompressionLevel::Off,
        )
        .map_err(|e| format!("{}: {e}", topo.name))?
        .stats
        .fake_nodes;
    }
    Ok((off, lies))
}

fn load_golden() -> Result<JsonValue, String> {
    let path = golden_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the output checks shared by the untraced and traced runs; returns
/// the number of failed operations and the workload's `lies`.
fn check_outputs(
    opts: &Options,
    inputs: &Inputs,
    out: &RepOutput,
    report: &mut Report,
) -> Result<(u64, usize), String> {
    let mut failed = 0;
    if opts.seed == GOLDEN_SEED && !opts.smoke {
        let off = check_against_golden(inputs, out, &load_golden()?)?;
        report.check(
            "objectives match the dense-tableau oracle to 1e-6",
            off == 0,
            format!("{} of {} off", off, out.lp_count() + out.ratios.len()),
        );
        failed += off;
    } else {
        let (off, checked) = check_against_cold(inputs, out)?;
        report.check(
            "warm-started objectives match a cold solve to 1e-7",
            off == 0,
            format!("{off} of {checked} sampled objectives off"),
        );
        failed += off;
    }
    let (off, lies) = check_routings(inputs)?;
    report.check(
        "optimal routings attain their objective",
        off == 0,
        format!("{} of {} off", off, inputs.topos.len()),
    );
    Ok((failed + off, lies))
}

/// End-to-end metrics.
pub fn run_untraced(opts: &Options) -> Result<Report, String> {
    let mut setups = Setups::default();
    let inputs = setups.run(|| setup(opts, &mut Recorder::off()))?;
    let mut clock = RepClock::new(opts);
    let mut outs = Vec::new();
    loop {
        let out = rep(&inputs, &mut Recorder::off())?;
        let more = clock.record(out.optu_secs + out.adversary_secs);
        outs.push(out);
        if !more {
            break;
        }
    }
    setups.top_up(|| setup(opts, &mut Recorder::off()));
    let rss = peak_rss_mb();

    let first = &outs[0];
    let mut report = Report {
        reps: outs.len(),
        ..Report::default()
    };
    setups.report(&mut report);
    let per_rep = |f: &dyn Fn(&RepOutput) -> f64| outs.iter().map(f).collect::<Vec<_>>();
    report.set_median("wall_s", &per_rep(&|o| o.optu_secs + o.adversary_secs));
    report.set_median(
        "op_ms",
        &per_rep(&|o| o.optu_secs * 1e3 / o.lp_count() as f64),
    );
    report.set_median(
        "heavy_op_ms",
        &per_rep(&|o| o.adversary_secs * 1e3 / o.ratios.len() as f64),
    );
    report
        .per_rep
        .insert("optu_wall_s".into(), per_rep(&|o| o.optu_secs));
    report
        .per_rep
        .insert("adversary_wall_s".into(), per_rep(&|o| o.adversary_secs));
    report.samples.insert("op_ms".into(), first.lp_count());
    report
        .samples
        .insert("heavy_op_ms".into(), first.ratios.len());
    report.set("peak_rss_mb", rss);
    report.set("quality_ratio", geomean(&first.ratios).unwrap_or(f64::NAN));

    report.attempted = ((first.lp_count() + first.ratios.len()) * outs.len()) as u64;
    let (failed, lies) = check_outputs(opts, &inputs, first, &mut report)?;
    report.failed = failed;
    report.set("lies", lies as f64);
    report.check(
        "objectives bit-identical across repetitions",
        outs.iter().all(|o| o.same_objectives(first)),
        format!("{} repetitions", outs.len()),
    );
    Ok(report)
}

/// Per-layer metrics and the span trace.
pub fn run_traced(opts: &Options) -> Result<(Report, Trace), String> {
    let mut tracing = Tracing::new();
    tracing.install();
    let inputs = setup(opts, &mut tracing.rec)?;
    tracing.uninstall();
    let reference = rep(&inputs, &mut Recorder::off())?;
    tracing.install();
    let traced = rep(&inputs, &mut tracing.rec)?;
    let (trace, snapshot) = tracing.finish();

    let mut report = Report {
        reps: 1,
        ..Report::default()
    };
    common_layer_metrics(&mut report, &trace, &snapshot);
    let untraced_secs = reference.optu_secs + reference.adversary_secs;
    let traced_secs = traced.optu_secs + traced.adversary_secs;
    report.set("obs.overhead_ratio", traced_secs / untraced_secs);
    report
        .per_rep
        .insert("untraced_wall_s".into(), vec![untraced_secs]);
    report
        .per_rep
        .insert("traced_wall_s".into(), vec![traced_secs]);

    report.attempted = 2 * (traced.lp_count() + traced.ratios.len()) as u64;
    report.failed = check_outputs(opts, &inputs, &traced, &mut report)?.0;
    report.check(
        "traced repetition gives the untraced objectives bit for bit",
        traced.same_objectives(&reference),
        format!("{} objectives", traced.lp_count() + traced.ratios.len()),
    );
    Ok((report, trace))
}

/// The objectives of one repetition at [`GOLDEN_SEED`], as the golden
/// file's body. Run under `COYOTE_LP_BACKEND=dense` to write the oracle's.
pub fn golden_body() -> Result<Vec<(String, Value)>, String> {
    let opts = Options {
        seed: GOLDEN_SEED,
        ..Options::default()
    };
    let inputs = setup(&opts, &mut Recorder::off())?;
    let out = rep(&inputs, &mut Recorder::off())?;
    let ids = inputs
        .topos
        .iter()
        .flat_map(|t| t.sets.iter().map(|s| s.id.clone()));
    let optu: BTreeMap<String, Vec<f64>> = ids.zip(out.optima()).collect();
    let scanned = inputs.topos.iter().filter(|t| t.adversary.is_some());
    let adversary: BTreeMap<&str, f64> = scanned.map(|t| t.name).zip(out.ratios).collect();
    Ok(vec![
        (
            "description".into(),
            Value::String(
                "lp-families objectives at seed 1 from the dense tableau oracle \
                 (COYOTE_LP_BACKEND=dense); regenerate with `coyote-benchmark write-golden`"
                    .into(),
            ),
        ),
        ("seed".into(), Value::UInt(GOLDEN_SEED)),
        (
            "backend".into(),
            Value::String(format!("{:?}", coyote_lp::default_backend())),
        ),
        (
            "optu".into(),
            Value::Object(
                optu.into_iter()
                    .map(|(id, v)| (id, Value::Array(v.into_iter().map(Value::Float).collect())))
                    .collect(),
            ),
        ),
        (
            "adversary".into(),
            Value::Object(
                adversary
                    .into_iter()
                    .map(|(name, r)| (name.to_string(), Value::Float(r)))
                    .collect(),
            ),
        ),
    ])
}
