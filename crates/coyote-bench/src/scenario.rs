//! The four-protocol evaluation shared by every figure and by Table I.
//!
//! A *scenario* is one [`SweepSpec`]: a topology, a base demand-matrix
//! model, an uncertainty margin and a link-weight heuristic. Evaluating it
//! produces the performance ratio (worst case over the evaluation family,
//! normalized by the demands-aware optimum within the same DAGs) of the four
//! protocols the paper compares:
//!
//! 1. traditional TE with ECMP,
//! 2. **Base**: the optimal demands-aware routing for the base matrix,
//!    re-evaluated across the uncertainty set,
//! 3. **COYOTE (oblivious)**: splitting ratios optimized with no knowledge
//!    of the demands,
//! 4. **COYOTE (partial knowledge)**: splitting ratios optimized for the
//!    margin box.
//!
//! The four share one step, [`Scenario`]: weights, base matrix, margin box,
//! DAGs and evaluation family, plus [`Scenario::optimize`] for whichever
//! uncertainty set a caller reads the routing of. [`evaluate_scenario`]
//! builds Table I's row on it; the conformance and failure engines and
//! Fig. 10 optimize the margin box only, and Fig. 11 both sets.

use crate::sweep::SweepSpec;
use coyote_core::prelude::*;
use coyote_graph::{Dag, Graph};
use coyote_topology::{zoo, Topology};
use coyote_traffic::{BimodalModel, DemandMatrix, GravityModel, UncertaintySet};
use serde::Serialize;

/// Base demand-matrix model (Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum BaseModel {
    /// Gravity model \[22\].
    Gravity,
    /// Bimodal model \[23\].
    Bimodal,
}

impl BaseModel {
    /// Generates the base matrix for a graph.
    pub fn generate(self, graph: &Graph) -> DemandMatrix {
        match self {
            BaseModel::Gravity => GravityModel::default().generate(graph),
            BaseModel::Bimodal => BimodalModel::default().generate(graph),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BaseModel::Gravity => "gravity",
            BaseModel::Bimodal => "bimodal",
        }
    }
}

/// Link-weight heuristic for the DAG construction (Section V-B Step I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum WeightHeuristic {
    /// Weights inversely proportional to capacities (Cisco default).
    InverseCapacity,
    /// The local-search heuristic of Appendix A.
    LocalSearch,
}

impl WeightHeuristic {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            WeightHeuristic::InverseCapacity => "reverse-capacities",
            WeightHeuristic::LocalSearch => "local-search",
        }
    }
}

/// Effort level of a run: `Quick` keeps every experiment to seconds-to-
/// minutes on a laptop; `Full` uses the paper's full sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Effort {
    /// Reduced working sets / optimizer budgets.
    Quick,
    /// The paper-scale configuration.
    Full,
}

impl Effort {
    /// What the level means to the optimizers: the splitting optimizer's
    /// budget (its `evaluation` field sizes the shared evaluation family)
    /// and the local-search budget.
    fn budgets(self) -> (CoyoteConfig, LocalSearchConfig) {
        match self {
            Effort::Quick => (
                CoyoteConfig {
                    cg_rounds: 2,
                    cg_candidate_edges: 1,
                    adam_iterations: 500,
                    evaluation: EvaluationOptions {
                        corners: 6,
                        samples: 2,
                        spikes: 3,
                        seed: 0xC0707E,
                    },
                },
                LocalSearchConfig {
                    outer_iterations: 2,
                    moves_per_iteration: 3,
                },
            ),
            Effort::Full => (CoyoteConfig::default(), LocalSearchConfig::default()),
        }
    }
}

/// Performance ratios of the four protocols for one scenario (the columns of
/// Table I).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ProtocolRatios {
    /// Topology name.
    pub topology: String,
    /// Uncertainty margin.
    pub margin: f64,
    /// Traditional TE with ECMP.
    pub ecmp: f64,
    /// Optimal routing for the base matrix, re-evaluated under uncertainty.
    pub base: f64,
    /// COYOTE optimized with no demand knowledge.
    pub coyote_oblivious: f64,
    /// COYOTE optimized for the margin box.
    pub coyote_partial: f64,
}

impl ProtocolRatios {
    /// How much further from optimum ECMP is relative to COYOTE
    /// (partial knowledge); > 1 means COYOTE wins.
    pub fn ecmp_vs_coyote(&self) -> f64 {
        if self.coyote_partial <= 0.0 {
            return f64::INFINITY;
        }
        self.ecmp / self.coyote_partial
    }
}

/// Steps 1–5 of a scenario evaluation: the weighted graph, the base matrix,
/// the margin box, COYOTE's augmented DAGs and the evaluation family. Every
/// engine builds this once per spec, then optimizes the splitting for the
/// uncertainty sets whose routings it reads ([`Scenario::optimize`]).
pub struct Scenario {
    /// The zoo topology the spec names.
    pub topology: Topology,
    /// The graph with the heuristic's weights applied.
    pub graph: Graph,
    /// The base demand matrix.
    pub base: DemandMatrix,
    /// The margin box around `base`.
    pub uncertainty: UncertaintySet,
    /// COYOTE's augmented DAGs, also the normalization scope.
    dags: Vec<Dag>,
    /// The shared evaluation family.
    pub evaluation: EvaluationSet,
    /// The splitting optimizer's budget at the spec's effort.
    config: CoyoteConfig,
}

impl Scenario {
    /// Runs steps 1–5 for `spec`. An unknown topology, or a margin that is
    /// not a finite number ≥ 1, is an error.
    pub fn build(spec: &SweepSpec) -> Result<Self, CoreError> {
        let _span = coyote_obs::span("bench.scenario");
        if !(spec.margin.is_finite() && spec.margin >= 1.0) {
            return Err(CoreError::InvalidMargin(spec.margin));
        }
        let topology = zoo::by_name(&spec.topology).ok_or_else(|| {
            CoreError::DimensionMismatch(format!("unknown topology {}", spec.topology))
        })?;
        let mut graph = topology.to_graph()?;
        let (config, local_search) = spec.effort.budgets();

        // Step I weights.
        match spec.heuristic {
            WeightHeuristic::InverseCapacity => graph.set_inverse_capacity_weights(10.0),
            WeightHeuristic::LocalSearch => {
                let base = spec.model.generate(&graph);
                let unc = UncertaintySet::from_margin(&base, spec.margin);
                let result =
                    coyote_core::local_search::local_search_weights(&graph, &unc, &local_search)?;
                graph = coyote_core::local_search::apply_weights(&graph, &result.weights)?;
            }
        }

        let base = spec.model.generate(&graph);
        let uncertainty = UncertaintySet::from_margin(&base, spec.margin);
        let dags = build_all_dags(&graph, DagMode::Augmented)?;
        let evaluation =
            EvaluationSet::build(&graph, &dags, &uncertainty, Some(&base), &config.evaluation)?;
        Ok(Scenario {
            topology,
            graph,
            base,
            uncertainty,
            dags,
            evaluation,
            config,
        })
    }

    /// COYOTE's splitting optimized for `set` within the DAGs. The shared
    /// evaluation family seeds the working set (its optima are already
    /// computed); the constraint-generation adversary ranges over `set`.
    /// Calls share no mutable state, so each routing is the same whatever
    /// else was optimized before it.
    pub fn optimize(&self, set: &UncertaintySet) -> Result<PdRouting, CoreError> {
        let result = optimize_splitting_with_working_set(
            &self.graph,
            self.dags.clone(),
            set,
            Some(&self.base),
            &self.config,
            self.evaluation.clone(),
        )?;
        Ok(result.routing)
    }
}

/// Table I's row for one grid cell: the four protocols, built on the shared
/// [`Scenario`] step and scored on its evaluation family.
pub fn evaluate_scenario(spec: &SweepSpec) -> Result<ProtocolRatios, CoreError> {
    let _span = coyote_obs::span("bench.evaluate_scenario");
    coyote_obs::counter("bench.scenario_evaluations", 1);
    let scenario = Scenario::build(spec)?;
    let (graph, evaluation) = (&scenario.graph, &scenario.evaluation);

    // 1. ECMP.
    let ecmp = evaluation.performance_ratio(graph, &ecmp_routing(graph)?);

    // 2. Base: optimal for the base matrix within the DAGs.
    let (base_routing, _) = optimal_routing_within_dags(graph, &scenario.dags, &scenario.base)?;
    let base = evaluation.performance_ratio(graph, &base_routing);

    // 3. COYOTE oblivious: the adversary is unconstrained, so the optimizer
    //    guards against arbitrary matrices.
    let oblivious = scenario.optimize(&UncertaintySet::oblivious(graph.node_count()))?;
    let coyote_oblivious = evaluation.performance_ratio(graph, &oblivious);

    // 4. COYOTE partial knowledge.
    let partial = scenario.optimize(&scenario.uncertainty)?;
    let coyote_partial = evaluation.performance_ratio(graph, &partial);

    Ok(ProtocolRatios {
        topology: scenario.topology.name,
        margin: spec.margin,
        ecmp,
        base,
        coyote_oblivious,
        coyote_partial,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_graph::{EdgeId, NodeId};

    #[test]
    fn abilene_quick_scenario_orders_the_protocols_sensibly() {
        let r = &evaluate_scenario(&SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        })
        .unwrap();
        // All ratios are valid performance ratios.
        for v in [r.ecmp, r.base, r.coyote_oblivious, r.coyote_partial] {
            assert!(v >= 1.0 - 1e-6, "ratio {v} below 1");
            assert!(v.is_finite());
        }
        // COYOTE with knowledge of the box never loses to ECMP on the shared
        // evaluation family (it contains ECMP in its search space).
        assert!(
            r.coyote_partial <= r.ecmp + 0.05,
            "COYOTE {} vs ECMP {}",
            r.coyote_partial,
            r.ecmp
        );
    }

    /// Reference: the four-protocol path as one inline sequence with no
    /// shared step — ECMP, Base, oblivious and partial in that order, the
    /// last two on one DAG set (cloned once, moved once). Returns the
    /// evaluation family, the partial routing and the four ratios.
    /// Inverse-capacity cells only, as the conformance grid is.
    fn four_protocol_reference(spec: &SweepSpec) -> (EvaluationSet, PdRouting, [f64; 4]) {
        assert_eq!(spec.heuristic, WeightHeuristic::InverseCapacity);
        let mut graph = zoo::by_name(&spec.topology).unwrap().to_graph().unwrap();
        let (cfg, _) = spec.effort.budgets();
        graph.set_inverse_capacity_weights(10.0);
        let base = spec.model.generate(&graph);
        let uncertainty = UncertaintySet::from_margin(&base, spec.margin);
        let dags = build_all_dags(&graph, DagMode::Augmented).unwrap();
        let evaluation =
            EvaluationSet::build(&graph, &dags, &uncertainty, Some(&base), &cfg.evaluation)
                .unwrap();
        let ecmp = evaluation.performance_ratio(&graph, &ecmp_routing(&graph).unwrap());
        let (base_routing, _) = optimal_routing_within_dags(&graph, &dags, &base).unwrap();
        let base_ratio = evaluation.performance_ratio(&graph, &base_routing);
        let oblivious = optimize_splitting_with_working_set(
            &graph,
            dags.clone(),
            &UncertaintySet::oblivious(graph.node_count()),
            Some(&base),
            &cfg,
            evaluation.clone(),
        )
        .unwrap();
        let partial = optimize_splitting_with_working_set(
            &graph,
            dags,
            &uncertainty,
            Some(&base),
            &cfg,
            evaluation.clone(),
        )
        .unwrap();
        let ratios = [
            ecmp,
            base_ratio,
            evaluation.performance_ratio(&graph, &oblivious.routing),
            evaluation.performance_ratio(&graph, &partial.routing),
        ];
        (evaluation, partial.routing, ratios)
    }

    /// Every entry of every family matrix, then every optimum, as bits.
    fn family_bits(evaluation: &EvaluationSet) -> Vec<u64> {
        let mut bits = Vec::new();
        for (dm, optu) in evaluation.entries() {
            let n = dm.node_count();
            for s in 0..n {
                for t in 0..n {
                    bits.push(dm.get(NodeId(s), NodeId(t)).to_bits());
                }
            }
            bits.push(optu.to_bits());
        }
        bits
    }

    /// Per destination: its DAG's edges and every split, as bits.
    fn routing_bits(routing: &PdRouting) -> Vec<(Vec<EdgeId>, Vec<u64>)> {
        (0..routing.destination_count())
            .map(|t| {
                let t = NodeId(t);
                let splits = routing.ratios(t).iter().map(|r| r.to_bits()).collect();
                (routing.dag(t).edges(), splits)
            })
            .collect()
    }

    #[test]
    fn the_shared_step_changes_nothing_it_feeds() {
        // Each cell runs three CG optimizations; an unoptimized build
        // checks Abilene only.
        let topologies: &[&str] = if cfg!(debug_assertions) {
            &["Abilene"]
        } else {
            &["Abilene", "NSF"]
        };
        let specs: Vec<SweepSpec> = crate::sweep::SweepGrid::conformance(Effort::Quick)
            .specs
            .into_iter()
            .filter(|s| topologies.contains(&s.topology.as_str()))
            .collect();
        assert_eq!(specs.len(), 2 * topologies.len(), "both models per topology");
        for spec in &specs {
            let (evaluation, partial, ratios) = four_protocol_reference(spec);
            let scenario = Scenario::build(spec).unwrap();
            assert!(!evaluation.is_empty());
            assert_eq!(
                family_bits(&scenario.evaluation),
                family_bits(&evaluation),
                "{}: evaluation family",
                spec.id()
            );
            let routing = scenario.optimize(&scenario.uncertainty).unwrap();
            assert_eq!(
                routing_bits(&routing),
                routing_bits(&partial),
                "{}: partial routing",
                spec.id()
            );
            let r = evaluate_scenario(spec).unwrap();
            assert_eq!(
                [r.ecmp, r.base, r.coyote_oblivious, r.coyote_partial].map(f64::to_bits),
                ratios.map(f64::to_bits),
                "{}: Table I row",
                spec.id()
            );
        }
    }

    #[test]
    fn a_margin_below_one_or_not_finite_is_an_error_not_a_panic() {
        for margin in [0.5, 0.0, -2.0, f64::NAN, f64::INFINITY] {
            let spec = SweepSpec {
                topology: "Abilene".into(),
                model: BaseModel::Gravity,
                margin,
                heuristic: WeightHeuristic::InverseCapacity,
                effort: Effort::Quick,
            };
            for result in [
                Scenario::build(&spec).map(|_| ()),
                evaluate_scenario(&spec).map(|_| ()),
            ] {
                match result {
                    Err(CoreError::InvalidMargin(m)) => assert_eq!(m.to_bits(), margin.to_bits()),
                    other => panic!("margin {margin}: {other:?}"),
                }
            }
        }
        // The local-search heuristic builds its own box first; the same
        // check guards it.
        let spec = SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 0.5,
            heuristic: WeightHeuristic::LocalSearch,
            effort: Effort::Quick,
        };
        assert!(matches!(
            Scenario::build(&spec),
            Err(CoreError::InvalidMargin(m)) if m == 0.5
        ));
    }

    #[test]
    fn model_and_heuristic_names() {
        assert_eq!(BaseModel::Gravity.name(), "gravity");
        assert_eq!(BaseModel::Bimodal.name(), "bimodal");
        assert_eq!(
            WeightHeuristic::InverseCapacity.name(),
            "reverse-capacities"
        );
        assert_eq!(WeightHeuristic::LocalSearch.name(), "local-search");
    }
}
