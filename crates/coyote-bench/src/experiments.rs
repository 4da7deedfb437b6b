//! Drivers that regenerate every table and figure of the paper's evaluation.
//!
//! Each function returns structured results; the `experiments` binary
//! prints them. The mapping to the paper:
//!
//! | Driver                  | Paper artefact                                   |
//! |-------------------------|--------------------------------------------------|
//! | [`fig1_running_example`]| Fig. 1 + Appendix B (running example)            |
//! | [`theorem1_gadget`]     | Theorem 1 reduction gadget                       |
//! | [`theorem4_lower_bound`]| Theorem 4 Ω(|V|) lower-bound instance            |
//! | [`margin_sweep`]        | Figs. 6, 7, 8, 9 (ratio vs. uncertainty margin)  |
//! | [`fig10_approximation`] | Fig. 10 (virtual next-hop budgets)               |
//! | [`fig11_stretch`]       | Fig. 11 (average path stretch)                   |
//! | [`table1`]              | Table I (full ratio table)                       |
//! | [`fig12_prototype`]     | Fig. 12 (prototype packet-drop experiment)       |
//!
//! [`margin_sweep`], [`table1`] and [`fig11_stretch`] evaluate independent
//! scenarios, so they fan out across a [`coyote_runtime::WorkerPool`]
//! (`threads` argument; results are identical for every thread count). The
//! full evaluation grid behind these drivers is enumerated by
//! [`crate::sweep::SweepGrid`] and run by [`crate::sweep::run_sweep`].

use crate::scenario::{
    evaluate_scenario, BaseModel, Effort, ProtocolRatios, Scenario, WeightHeuristic,
};
use crate::sweep::SweepSpec;
use coyote_core::example_fig1;
use coyote_core::prelude::*;
use coyote_graph::{Graph, NodeId};
use coyote_ospf::{compute_program, realized_routing, VirtualLinkBudget};
use coyote_runtime::WorkerPool;
use coyote_sim::scenario::{run_all as run_prototype_all, PrototypeResult};
use coyote_traffic::{DemandMatrix, UncertaintySet};
use serde::{Deserialize, Serialize};

// ---------------------------------------------------------------------------
// Fig. 1 / Appendix B: the running example.
// ---------------------------------------------------------------------------

/// Results of the running-example experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

// ---------------------------------------------------------------------------
// Theorem 1: the BIPARTITION gadget.
// ---------------------------------------------------------------------------

/// Results of the NP-hardness gadget experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

// ---------------------------------------------------------------------------
// Figs. 6-9: performance ratio versus uncertainty margin.
// ---------------------------------------------------------------------------

/// Sweeps the uncertainty margin for one topology/model/heuristic and
/// returns one [`ProtocolRatios`] per margin (the four lines of Figs. 6-9).
///
/// The per-margin evaluations are independent; they fan out across a
/// [`WorkerPool`] with `threads` workers (`0` = one per core, `1` = serial)
/// and come back in margin order with results identical for every thread
/// count.
pub fn margin_sweep(
    topology: &str,
    model: BaseModel,
    heuristic: WeightHeuristic,
    margins: &[f64],
    effort: Effort,
    threads: usize,
) -> Result<Vec<ProtocolRatios>, CoreError> {
    WorkerPool::new(threads).try_par_map(margins, |&margin| {
        let scenario = SweepSpec {
            topology: topology.to_string(),
            model,
            margin,
            heuristic,
            effort,
        }
        .to_scenario()?;
        Ok(evaluate_scenario(&scenario)?.ratios)
    })
}

/// The margins the paper uses for Figs. 6-8 (1 to 3 in 0.5 steps).
pub fn fig6_margins(effort: Effort) -> Vec<f64> {
    match effort {
        Effort::Quick => vec![1.0, 2.0, 3.0],
        Effort::Full => vec![1.0, 1.5, 2.0, 2.5, 3.0],
    }
}

/// The margins of Fig. 9 and Table I (1 to 5 in 0.5 steps).
pub fn table1_margins(effort: Effort) -> Vec<f64> {
    match effort {
        Effort::Quick => vec![1.0, 2.0, 3.0, 5.0],
        Effort::Full => vec![1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0],
    }
}

// ---------------------------------------------------------------------------
// Fig. 10: approximating the splitting ratios with virtual next hops.
// ---------------------------------------------------------------------------

/// One point of Fig. 10: a virtual-next-hop budget and the resulting
/// performance ratio of the realized configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    let scenario = Scenario::from_zoo(
        topology,
        BaseModel::Gravity,
        margin,
        WeightHeuristic::InverseCapacity,
        effort,
    )
    .ok_or_else(|| CoreError::DimensionMismatch(format!("unknown topology {topology}")))?;
    let eval = evaluate_scenario(&scenario)?;

    let mut points = Vec::new();
    for budget in [Some(3usize), Some(5), Some(10), None] {
        let vl = match budget {
            Some(n) => VirtualLinkBudget::per_prefix(n),
            None => VirtualLinkBudget::unlimited(),
        };
        let program = compute_program(&eval.graph, &eval.coyote_routing, vl)
            .map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
        let realized = realized_routing(&eval.graph, &program)
            .map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
        let ratio = eval.evaluation.performance_ratio(&eval.graph, &realized);
        points.push(ApproximationPoint {
            budget,
            ratio,
            fake_nodes: program.stats.fake_nodes,
        });
    }

    Ok(ApproximationResult {
        topology: scenario.topology.name.clone(),
        margin,
        ecmp_ratio: eval.ratios.ecmp,
        points,
    })
}

// ---------------------------------------------------------------------------
// Fig. 11: average path stretch.
// ---------------------------------------------------------------------------

/// One bar of Fig. 11.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StretchResult {
    /// Topology name.
    pub topology: String,
    /// Average stretch of COYOTE (oblivious) relative to ECMP.
    pub oblivious_stretch: f64,
    /// Average stretch of COYOTE (partial knowledge) relative to ECMP.
    pub partial_stretch: f64,
}

/// Reproduces Fig. 11 for the given topologies at margin 2.5, one pool
/// worker per topology (`threads` as in [`margin_sweep`]).
pub fn fig11_stretch(
    topologies: &[&str],
    effort: Effort,
    threads: usize,
) -> Result<Vec<StretchResult>, CoreError> {
    let margin = 2.5;
    WorkerPool::new(threads).try_par_map(topologies, |name| {
        let scenario = SweepSpec {
            topology: name.to_string(),
            model: BaseModel::Gravity,
            margin,
            heuristic: WeightHeuristic::InverseCapacity,
            effort,
        }
        .to_scenario()?;
        let eval = evaluate_scenario(&scenario)?;

        // COYOTE oblivious routing for the same DAGs (recomputed cheaply).
        let dags = build_all_dags(&eval.graph, DagMode::Augmented)?;
        let oblivious = optimize_splitting(
            &eval.graph,
            dags,
            &UncertaintySet::oblivious(eval.graph.node_count()),
            Some(&eval.base),
            &CoyoteConfig::fast(),
        )?;

        let partial_stretch =
            average_stretch(&eval.graph, &eval.coyote_routing, &eval.ecmp_routing).unwrap_or(1.0);
        let oblivious_stretch =
            average_stretch(&eval.graph, &oblivious.routing, &eval.ecmp_routing).unwrap_or(1.0);
        Ok(StretchResult {
            topology: scenario.topology.name.clone(),
            oblivious_stretch,
            partial_stretch,
        })
    })
}

// ---------------------------------------------------------------------------
// Table I.
// ---------------------------------------------------------------------------

/// Reproduces Table I: every topology × margin with the four protocols.
///
/// The whole topology × margin cross product is flattened into one work
/// list so the pool stays busy across topology boundaries (a per-topology
/// fan-out would stall on the largest network at the end of each row).
/// Rows come back topology-major, exactly as the serial loop produced them.
pub fn table1(
    topologies: &[&str],
    margins: &[f64],
    model: BaseModel,
    effort: Effort,
    threads: usize,
) -> Result<Vec<ProtocolRatios>, CoreError> {
    let cells: Vec<(&str, f64)> = topologies
        .iter()
        .flat_map(|&name| margins.iter().map(move |&m| (name, m)))
        .collect();
    WorkerPool::new(threads).try_par_map(&cells, |&(name, margin)| {
        let scenario = SweepSpec {
            topology: name.to_string(),
            model,
            margin,
            heuristic: WeightHeuristic::InverseCapacity,
            effort,
        }
        .to_scenario()?;
        Ok(evaluate_scenario(&scenario)?.ratios)
    })
}

/// The topology subsets used by the harness.
pub fn table1_topologies(effort: Effort) -> Vec<&'static str> {
    match effort {
        Effort::Quick => vec!["Abilene", "NSF", "Digex", "BtEurope"],
        Effort::Full => vec![
            "AS1221",
            "AS1755",
            "AS3257",
            "BICS",
            "BtEurope",
            "Digex",
            "GRNet",
            "Geant",
            "Germany",
            "InternetMCI",
            "Italy",
            "NSF",
            "Abilene",
            "ATT",
        ],
    }
}

/// The topologies of the stretch figure (everything except the near-trees,
/// plus BBNPlanet which the paper keeps for this figure).
pub fn fig11_topologies(effort: Effort) -> Vec<&'static str> {
    match effort {
        Effort::Quick => vec!["Abilene", "NSF", "Digex"],
        Effort::Full => vec![
            "AS1221",
            "AS1755",
            "AS3257",
            "Abilene",
            "ATT",
            "BBNPlanet",
            "BICS",
            "BtEurope",
            "Digex",
            "Geant",
            "Germany",
            "GRNet",
            "InternetMCI",
            "Italy",
            "NSF",
        ],
    }
}

// ---------------------------------------------------------------------------
// Fig. 12: prototype.
// ---------------------------------------------------------------------------

/// Reproduces Fig. 12 by running the flow-level prototype emulation for
/// TE1, TE2, TE3 and COYOTE.
pub fn fig12_prototype() -> Vec<PrototypeResult> {
    run_prototype_all()
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
    fn margin_lists_are_ordered_and_in_range() {
        for effort in [Effort::Quick, Effort::Full] {
            for m in [fig6_margins(effort), table1_margins(effort)] {
                assert!(m.windows(2).all(|w| w[0] < w[1]));
                assert!(m.iter().all(|&x| (1.0..=5.0).contains(&x)));
            }
            assert!(!table1_topologies(effort).is_empty());
            assert!(!fig11_topologies(effort).is_empty());
        }
    }
}
