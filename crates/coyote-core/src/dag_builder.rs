//! COYOTE's DAG construction (Section V-B).
//!
//! Step I builds the shortest-path DAG rooted at every destination for the
//! current OSPF weights (either the *reverse capacities* heuristic or the
//! local-search heuristic of Appendix A, see [`crate::local_search`]).
//!
//! Step II *augments* each DAG: every physical link that is not part of the
//! shortest-path DAG for destination `t` is added, oriented towards the
//! endpoint that is closer to `t` (ties broken by node index, orienting the
//! link from the lower-indexed towards the higher-indexed node, which is the
//! orientation the paper's Fig. 1c uses for the tied `s2—v` link). Because
//! distances never increase along any added edge, and tied edges always go
//! from lower to higher index, the augmented edge set remains acyclic.
//!
//! Since the augmented DAG contains the shortest-path DAG, plain ECMP is a
//! point in COYOTE's search space, so COYOTE can never do worse than ECMP on
//! the demand set it optimizes for (Section V-B).

use coyote_graph::spf::{shortest_path_dag, ShortestPathDag};
use coyote_graph::{Dag, EdgeId, Graph, GraphError, NodeId};

/// Which DAG-construction variant to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagMode {
    /// Step I only: the plain shortest-path (ECMP) DAGs.
    ShortestPath,
    /// Steps I + II: shortest-path DAGs augmented with every remaining link
    /// oriented towards the destination (COYOTE's default).
    Augmented,
}

/// Builds the per-destination DAG for destination `t` in the requested mode.
pub fn build_dag(graph: &Graph, t: NodeId, mode: DagMode) -> Result<Dag, GraphError> {
    let spf = shortest_path_dag(graph, t);
    match mode {
        DagMode::ShortestPath => Dag::from_shortest_paths(graph, &spf),
        DagMode::Augmented => augment(graph, &spf),
    }
}

/// Builds the per-destination DAGs for *all* destinations.
pub fn build_all_dags(graph: &Graph, mode: DagMode) -> Result<Vec<Dag>, GraphError> {
    graph.nodes().map(|t| build_dag(graph, t, mode)).collect()
}

/// Step II: augment a shortest-path DAG with the remaining links.
pub fn augment(graph: &Graph, spf: &ShortestPathDag) -> Result<Dag, GraphError> {
    let t = spf.destination;
    let dist = &spf.dist_to_dest;
    let mut edges: Vec<EdgeId> = spf.edges();
    let mut in_spf = vec![false; graph.edge_count()];
    for e in &edges {
        in_spf[e.index()] = true;
    }

    for e in graph.edges() {
        if in_spf[e.index()] {
            continue;
        }
        let (u, v) = graph.endpoints(e);
        let (du, dv) = (dist[u.index()], dist[v.index()]);
        if !du.is_finite() || !dv.is_finite() {
            // One endpoint cannot reach the destination at all; adding the
            // edge could not help and might create dead ends.
            continue;
        }
        if u == t {
            // Never route traffic *out of* the destination.
            continue;
        }
        let keep = if dv < du {
            true // points towards the closer endpoint
        } else if dv > du {
            false // the reverse direction will be added instead
        } else {
            // Tie: orient from the lower-indexed to the higher-indexed node
            // (matches the paper's Fig. 1c orientation of the s2—v link).
            u.index() < v.index()
        };
        if keep {
            edges.push(e);
        }
    }
    Dag::new(graph, t, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example_fig1::{self, Fig1};

    #[test]
    fn augmented_dag_contains_the_shortest_path_dag() {
        let (g, Fig1 { t, .. }) = example_fig1::topology();
        let spf_dag = build_dag(&g, t, DagMode::ShortestPath).unwrap();
        let aug = build_dag(&g, t, DagMode::Augmented).unwrap();
        for e in spf_dag.edges() {
            assert!(aug.contains(e), "augmented DAG lost shortest-path edge {e}");
        }
        assert!(aug.edge_count() > spf_dag.edge_count());
    }

    #[test]
    fn fig1_augmentation_adds_the_s2_v_link_as_in_the_paper() {
        let (g, Fig1 { s2, v, t, .. }) = example_fig1::topology();
        let aug = build_dag(&g, t, DagMode::Augmented).unwrap();
        let s2v = g.find_edge(s2, v).unwrap();
        let vs2 = g.find_edge(v, s2).unwrap();
        // Tie on distance (both are 1 hop from t): the paper's Fig. 1c uses
        // the s2 -> v orientation.
        assert!(aug.contains(s2v));
        assert!(!aug.contains(vs2));
    }

    #[test]
    fn augmentation_never_routes_out_of_the_destination() {
        let (g, Fig1 { t, .. }) = example_fig1::topology();
        let aug = build_dag(&g, t, DagMode::Augmented).unwrap();
        assert!(aug.out_edges(t).is_empty());
    }

    #[test]
    fn augmented_dags_are_acyclic_for_every_zoo_style_graph() {
        // A denser random-ish graph exercises the tie-breaking rule.
        let mut g = Graph::with_nodes(8);
        let caps = [1.0, 2.0, 5.0, 1.0, 3.0, 2.0, 1.0, 4.0, 2.0, 1.0, 2.0, 3.0];
        let pairs = [
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 6),
            (6, 7),
            (7, 0),
            (0, 4),
            (1, 5),
            (2, 6),
            (3, 7),
        ];
        for (i, &(a, b)) in pairs.iter().enumerate() {
            g.add_bidirectional_edge(NodeId(a), NodeId(b), caps[i], 1.0)
                .unwrap();
        }
        // Dag::new would error on a cycle, so success here is the assertion.
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        assert_eq!(dags.len(), 8);
        for dag in &dags {
            // Every non-destination node must participate and reach t.
            for v in g.nodes() {
                if v != dag.destination() {
                    assert!(!dag.out_edges(v).is_empty());
                }
            }
        }
    }

    #[test]
    fn augmented_dag_uses_every_physical_link_in_some_direction() {
        let (g, Fig1 { t, .. }) = example_fig1::topology();
        let aug = build_dag(&g, t, DagMode::Augmented).unwrap();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            if u == t {
                continue;
            }
            let rev = g.find_edge(v, u).unwrap();
            assert!(
                aug.contains(e) || aug.contains(rev),
                "link {e} unused in both directions"
            );
        }
    }

    #[test]
    fn shortest_path_mode_matches_spf() {
        let (g, Fig1 { s1, t, .. }) = example_fig1::topology();
        let dag = build_dag(&g, t, DagMode::ShortestPath).unwrap();
        assert_eq!(dag.edge_count(), 4);
        assert_eq!(dag.out_edges(s1).len(), 2);
    }

    #[test]
    fn weighted_graph_augmentation_respects_distances() {
        // Make (s2,t) expensive so s2's shortest path goes via v; the
        // augmented DAG must then orient the direct (s2,t) link towards t
        // anyway (it points at the destination, distance 0 < distance of s2).
        let (mut g, Fig1 { s2, v, t, .. }) = example_fig1::topology();
        let s2t = g.find_edge(s2, t).unwrap();
        g.set_symmetric_weight(s2t, 10.0);
        let aug = build_dag(&g, t, DagMode::Augmented).unwrap();
        assert!(aug.contains(s2t));
        let spf_dag = build_dag(&g, t, DagMode::ShortestPath).unwrap();
        assert!(!spf_dag.contains(s2t));
        let _ = v;
    }
}
