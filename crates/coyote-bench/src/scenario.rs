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

use crate::sweep::SweepSpec;
use coyote_core::prelude::*;
use coyote_graph::Graph;
use coyote_topology::zoo;
use coyote_traffic::{BimodalModel, DemandMatrix, GravityModel, UncertaintySet};
use serde::{Deserialize, Serialize};

/// Base demand-matrix model (Section VI-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
                    ..CoyoteConfig::fast()
                },
                LocalSearchConfig {
                    outer_iterations: 2,
                    moves_per_iteration: 3,
                    ..Default::default()
                },
            ),
            Effort::Full => (
                CoyoteConfig {
                    evaluation: EvaluationOptions::default(),
                    ..CoyoteConfig::default()
                },
                LocalSearchConfig::default(),
            ),
        }
    }
}

/// Performance ratios of the four protocols for one scenario (the columns of
/// Table I).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// Everything produced while evaluating a scenario, for callers that need
/// more than the headline ratios (e.g. Fig. 10 re-uses the COYOTE routing).
pub struct ScenarioEvaluation {
    /// The graph with the heuristic's weights applied.
    pub graph: Graph,
    /// The base demand matrix.
    pub base: DemandMatrix,
    /// The shared evaluation family.
    pub evaluation: EvaluationSet,
    /// The headline ratios.
    pub ratios: ProtocolRatios,
    /// The COYOTE (partial knowledge) routing, for downstream experiments.
    pub coyote_routing: PdRouting,
    /// The COYOTE (oblivious) routing behind `ratios.coyote_oblivious`.
    pub oblivious_routing: PdRouting,
    /// The ECMP routing under the same weights.
    pub ecmp_routing: PdRouting,
}

/// Evaluates one grid cell: builds the four protocols and measures them on a
/// shared evaluation family.
pub fn evaluate_scenario(spec: &SweepSpec) -> Result<ScenarioEvaluation, CoreError> {
    let _span = coyote_obs::span("bench.evaluate_scenario");
    coyote_obs::counter("bench.scenario_evaluations", 1);
    let topology = zoo::by_name(&spec.topology).ok_or_else(|| {
        CoreError::DimensionMismatch(format!("unknown topology {}", spec.topology))
    })?;
    let mut graph = topology.to_graph()?;
    let (cfg, local_search) = spec.effort.budgets();

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

    // COYOTE's augmented DAGs are also the normalization scope.
    let dags = build_all_dags(&graph, DagMode::Augmented)?;
    let evaluation =
        EvaluationSet::build(&graph, &dags, &uncertainty, Some(&base), &cfg.evaluation)?;

    // 1. ECMP.
    let ecmp = ecmp_routing(&graph)?;
    let ecmp_ratio = evaluation.performance_ratio(&graph, &ecmp);

    // 2. Base: optimal for the base matrix within the DAGs.
    let (base_routing, _) = optimal_routing_within_dags(&graph, &dags, &base)?;
    let base_ratio = evaluation.performance_ratio(&graph, &base_routing);

    // 3. COYOTE oblivious. The shared evaluation family seeds the working
    //    set (its optima are already computed); the constraint-generation
    //    adversary is unconstrained, so the optimizer still guards against
    //    arbitrary matrices.
    let oblivious_set = UncertaintySet::oblivious(graph.node_count());
    let coyote_obl = optimize_splitting_with_working_set(
        &graph,
        dags.clone(),
        &oblivious_set,
        Some(&base),
        &cfg,
        evaluation.clone(),
    )?;
    let obl_ratio = evaluation.performance_ratio(&graph, &coyote_obl.routing);

    // 4. COYOTE partial knowledge.
    let coyote_partial = optimize_splitting_with_working_set(
        &graph,
        dags,
        &uncertainty,
        Some(&base),
        &cfg,
        evaluation.clone(),
    )?;
    let partial_ratio = evaluation.performance_ratio(&graph, &coyote_partial.routing);

    let ratios = ProtocolRatios {
        topology: topology.name,
        margin: spec.margin,
        ecmp: ecmp_ratio,
        base: base_ratio,
        coyote_oblivious: obl_ratio,
        coyote_partial: partial_ratio,
    };

    Ok(ScenarioEvaluation {
        graph,
        base,
        evaluation,
        ratios,
        coyote_routing: coyote_partial.routing,
        oblivious_routing: coyote_obl.routing,
        ecmp_routing: ecmp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abilene_quick_scenario_orders_the_protocols_sensibly() {
        let eval = evaluate_scenario(&SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        })
        .unwrap();
        let r = &eval.ratios;
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
