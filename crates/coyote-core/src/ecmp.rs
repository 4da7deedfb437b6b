//! Traditional TE with ECMP: the baseline COYOTE is compared against.
//!
//! OSPF computes shortest paths for the configured link weights; ECMP splits
//! traffic *equally* among the next hops that lie on shortest paths
//! (Section II). In this reproduction an ECMP configuration is simply a
//! [`PdRouting`] whose DAGs are the shortest-path DAGs and whose splitting
//! ratios are uniform — which is exactly what [`PdRouting::uniform`]
//! produces.

use crate::dag_builder::{build_all_dags, DagMode};
use crate::routing::PdRouting;
use coyote_graph::{Graph, GraphError};

/// Builds the ECMP routing induced by the link weights currently configured
/// on `graph`.
pub fn ecmp_routing(graph: &Graph) -> Result<PdRouting, GraphError> {
    let dags = build_all_dags(graph, DagMode::ShortestPath)?;
    Ok(PdRouting::uniform(graph, dags))
}

/// Uniform splitting over the *augmented* DAGs. This is COYOTE's starting
/// point before the splitting ratios are optimized, and the ablation
/// baseline that isolates the value of DAG augmentation alone.
pub fn uniform_augmented_routing(graph: &Graph) -> Result<PdRouting, GraphError> {
    let dags = build_all_dags(graph, DagMode::Augmented)?;
    Ok(PdRouting::uniform(graph, dags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_graph::NodeId;
    use coyote_traffic::DemandMatrix;

    fn square() -> Graph {
        // A 4-node square with one heavy diagonal-ish capacity difference.
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        let d = g.add_node("d").unwrap();
        g.add_bidirectional_edge(a, b, 10.0, 1.0).unwrap();
        g.add_bidirectional_edge(b, d, 10.0, 1.0).unwrap();
        g.add_bidirectional_edge(a, c, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(c, d, 1.0, 1.0).unwrap();
        g
    }

    #[test]
    fn ecmp_splits_equally_on_equal_cost_paths() {
        let g = square();
        let routing = ecmp_routing(&g).unwrap();
        routing.validate(&g).unwrap();
        let d = NodeId(3);
        let a = NodeId(0);
        // With unit weights both 2-hop paths a-b-d and a-c-d are shortest.
        let out = routing.dag(d).out_edges(a);
        assert_eq!(out.len(), 2);
        for &e in out {
            assert!((routing.ratio(d, e) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_capacity_weights_steer_away_from_thin_links() {
        let mut g = square();
        g.set_inverse_capacity_weights(10.0);
        let routing = ecmp_routing(&g).unwrap();
        let d = NodeId(3);
        let a = NodeId(0);
        // The a-b-d path (capacity 10) is now strictly shorter than a-c-d.
        let out = routing.dag(d).out_edges(a);
        assert_eq!(out.len(), 1);
        assert_eq!(g.edge(out[0]).dst, NodeId(1));
    }

    #[test]
    fn uniform_augmented_routing_uses_more_links_than_ecmp() {
        let g = square();
        let ecmp = ecmp_routing(&g).unwrap();
        let aug = uniform_augmented_routing(&g).unwrap();
        let d = NodeId(3);
        assert!(aug.dag(d).edge_count() >= ecmp.dag(d).edge_count());
        aug.validate(&g).unwrap();
    }

    #[test]
    fn ecmp_utilization_on_a_simple_demand() {
        let g = square();
        let routing = ecmp_routing(&g).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(NodeId(0), NodeId(3), 2.0);
        // Equal split over the two 2-hop paths: 1 unit each; thin path c-d
        // (capacity 1) is fully utilised.
        let mlu = routing.max_link_utilization(&g, &dm);
        assert!((mlu - 1.0).abs() < 1e-9);
    }
}
