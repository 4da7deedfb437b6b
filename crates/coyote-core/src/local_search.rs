//! The local-search DAG-generation heuristic (Appendix A, Algorithm 1).
//!
//! COYOTE's second weight heuristic adapts the oblivious-ECMP weight search
//! of Altin et al. \[12\] and the Fortz–Thorup local search \[6\]:
//!
//! 1. start from inverse-capacity weights;
//! 2. compute the shortest-path DAGs and the worst-case demand matrix for
//!    ECMP on those DAGs; add it to a set `D` of critical matrices;
//! 3. greedily change single link weights while that reduces the worst ECMP
//!    link utilization over `D` (our adaptation optimizes the *maximum*
//!    utilization rather than Fortz–Thorup's Φ-cost, exactly as the paper's
//!    Appendix A points out);
//! 4. stop when the utilization target is met or the iteration budget runs
//!    out.
//!
//! The heuristic returns the graph with the final link weights; COYOTE then
//! builds its augmented DAGs from it.

use crate::ecmp::ecmp_routing;
use crate::error::CoreError;
use crate::perf::EvaluationSet;
use crate::worst_case::{bottleneck_candidates, performance_ratio_exact, RoutabilityScope};
use coyote_graph::{EdgeId, Graph};
use coyote_traffic::{DemandMatrix, UncertaintySet};

/// Configuration of the local search.
#[derive(Debug, Clone)]
pub struct LocalSearchConfig {
    /// Outer iterations (worst-case matrix generations).
    pub outer_iterations: usize,
    /// Candidate single-weight moves evaluated per outer iteration.
    pub moves_per_iteration: usize,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        Self {
            outer_iterations: 4,
            moves_per_iteration: 6,
        }
    }
}

// Multiplicative weight increments tried for a congested link.
const WEIGHT_STEPS: [f64; 3] = [1.3, 2.0, 4.0];
// The search stops once the worst ECMP utilization over the critical
// matrices falls below this bound (the `B` of Algorithm 1), expressed as a
// performance ratio.
const TARGET_RATIO: f64 = 1.05;
// How many bottleneck edges the adversarial step probes.
const ADVERSARY_CANDIDATES: usize = 3;
// A move is taken only if it lowers the best ratio by more than this.
const MOVE_GAIN: f64 = 1e-9;

/// Result of the local search.
#[derive(Debug, Clone)]
pub struct LocalSearchResult {
    /// The input graph with the final link weights.
    pub graph: Graph,
    /// Worst ECMP performance ratio over the critical-matrix set at the end.
    pub final_ratio: f64,
    /// The critical demand matrices that were generated.
    pub critical_matrices: Vec<DemandMatrix>,
    /// Outer iterations performed.
    pub iterations: usize,
}

/// Runs the local-search weight heuristic. The search always starts from
/// inverse-capacity weights (scale 10): the input graph's own weights are
/// discarded, and only its topology and capacities are read. The input
/// graph itself is not modified: the result carries a re-weighted copy.
pub fn local_search_weights(
    graph: &Graph,
    uncertainty: &UncertaintySet,
    config: &LocalSearchConfig,
) -> Result<LocalSearchResult, CoreError> {
    let mut g = graph.clone();
    g.set_inverse_capacity_weights(10.0);

    let mut critical: Vec<DemandMatrix> = Vec::new();
    let mut final_ratio = f64::INFINITY;
    let mut iterations = 0usize;

    for _ in 0..config.outer_iterations {
        iterations += 1;
        // Step 1-2: ECMP DAGs for the current weights + their worst case.
        let ecmp = ecmp_routing(&g)?;
        let reference = uncertainty
            .upper_envelope()
            .unwrap_or_else(|| DemandMatrix::zeros(g.node_count()));
        let candidates = if reference.is_zero() {
            None
        } else {
            Some(bottleneck_candidates(
                &g,
                &ecmp,
                &reference,
                ADVERSARY_CANDIDATES,
            ))
        };
        let wc = performance_ratio_exact(
            &g,
            &ecmp,
            uncertainty,
            RoutabilityScope::AllEdges,
            candidates.as_deref(),
        )?;
        if !wc.demand.is_zero() {
            critical.push(wc.demand.clone());
        }

        // Evaluate the current weights over all critical matrices.
        let ratio = ratio_over(&g, &critical)?;
        final_ratio = ratio;
        if ratio <= TARGET_RATIO {
            break;
        }

        // Step 3: greedy single-weight moves. The most utilised edge for the
        // newest critical matrix is the natural candidate (Fortz–Thorup try
        // to push traffic away from the most congested link).
        let mut best_ratio = ratio;
        let mut best_move: Option<(EdgeId, f64)> = None;
        let loads = ecmp.edge_loads(&g, &wc.demand);
        let mut hot: Vec<(EdgeId, f64)> = g
            .edges()
            .map(|e| (e, loads[e.index()] / g.capacity(e)))
            .collect();
        hot.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        for &(edge, _) in hot.iter().take(config.moves_per_iteration) {
            for step in WEIGHT_STEPS {
                let mut trial = g.clone();
                let new_weight = trial.weight(edge) * step;
                trial.set_symmetric_weight(edge, new_weight);
                let trial_ratio = ratio_over(&trial, &critical)?;
                if trial_ratio < best_ratio - MOVE_GAIN {
                    best_ratio = trial_ratio;
                    best_move = Some((edge, new_weight));
                }
            }
        }

        match best_move {
            Some((edge, w)) => {
                g.set_symmetric_weight(edge, w);
                final_ratio = best_ratio;
            }
            None => break, // local optimum
        }
    }

    Ok(LocalSearchResult {
        graph: g,
        final_ratio,
        critical_matrices: critical,
        iterations,
    })
}

/// Worst ECMP performance ratio (normalized by the DAG-restricted optimum)
/// over a finite set of matrices for the weights configured on `g`.
fn ratio_over(g: &Graph, matrices: &[DemandMatrix]) -> Result<f64, CoreError> {
    if matrices.is_empty() {
        return Ok(0.0);
    }
    let ecmp = ecmp_routing(g)?;
    let dags = crate::dag_builder::build_all_dags(g, crate::dag_builder::DagMode::Augmented)?;
    let mut set = EvaluationSet::empty();
    for dm in matrices {
        set.try_add(g, &dags, dm.clone())?;
    }
    if set.is_empty() {
        return Ok(0.0);
    }
    Ok(set.performance_ratio(g, &ecmp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_graph::NodeId;

    /// A 5-node network where inverse-capacity weights lead ECMP into a
    /// bottleneck that a single weight change fixes.
    fn skewed() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        let d = g.add_node("d").unwrap();
        let t = g.add_node("t").unwrap();
        g.add_bidirectional_edge(a, b, 10.0, 1.0).unwrap();
        g.add_bidirectional_edge(b, t, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(a, c, 10.0, 1.0).unwrap();
        g.add_bidirectional_edge(c, d, 10.0, 1.0).unwrap();
        g.add_bidirectional_edge(d, t, 10.0, 1.0).unwrap();
        g
    }

    #[test]
    fn local_search_returns_weights_for_every_edge() {
        let g = skewed();
        let base = DemandMatrix::from_pairs(5, &[(NodeId(0), NodeId(4), 1.0)]);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let result = local_search_weights(
            &g,
            &unc,
            &LocalSearchConfig {
                outer_iterations: 2,
                moves_per_iteration: 3,
            },
        )
        .unwrap();
        let tuned = &result.graph;
        assert_eq!(tuned.edge_count(), g.edge_count());
        assert!(tuned
            .edges()
            .all(|e| tuned.weight(e).is_finite() && tuned.weight(e) > 0.0));
        assert!(result.iterations >= 1);
        assert!(!result.critical_matrices.is_empty());
        assert!(result.final_ratio.is_finite());
    }

    #[test]
    fn local_search_does_not_worsen_the_starting_point() {
        let g = skewed();
        let base = DemandMatrix::from_pairs(5, &[(NodeId(0), NodeId(4), 1.5)]);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let cfg = LocalSearchConfig {
            outer_iterations: 3,
            ..Default::default()
        };
        let result = local_search_weights(&g, &unc, &cfg).unwrap();

        // Evaluate ECMP with the starting (inverse-capacity) weights and with
        // the searched weights on the final critical set.
        let mut start = g.clone();
        start.set_inverse_capacity_weights(10.0);
        let start_ratio = ratio_over(&start, &result.critical_matrices).unwrap();
        let tuned_ratio = ratio_over(&result.graph, &result.critical_matrices).unwrap();
        assert!(
            tuned_ratio <= start_ratio + 1e-6,
            "tuned {tuned_ratio} vs start {start_ratio}"
        );
    }
}
