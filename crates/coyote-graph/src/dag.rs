//! Per-destination DAG representation.
//!
//! Destination-based routing requires the routes towards each destination to
//! form a directed acyclic graph (Section III of the paper: "for every vertex
//! `t` and directed cycle `C` in `G`, for some edge `e ∈ C` on the cycle
//! `φ_t(e) = 0`"). A [`Dag`] is the set of edges a given destination is
//! allowed to use, validated for acyclicity, together with the topological
//! order needed to propagate splitting ratios and flows.

use crate::error::GraphError;
use crate::graph::{EdgeId, Graph, NodeId};
use serde::Serialize;

/// A validated per-destination DAG: a subset of graph edges that is acyclic
/// and in which every participating node can reach the destination.
#[derive(Debug, Clone, Serialize)]
pub struct Dag {
    destination: NodeId,
    /// Membership bitmap indexed by edge id.
    member: Vec<bool>,
    /// Outgoing DAG edges per node (subset of the graph's out-adjacency).
    out_edges: Vec<Vec<EdgeId>>,
    /// Incoming DAG edges per node.
    in_edges: Vec<Vec<EdgeId>>,
    /// Nodes ordered so that every DAG edge goes from a later to an earlier
    /// position ("reverse topological": destination first).
    topo_from_dest: Vec<NodeId>,
}

impl Dag {
    /// Builds a DAG rooted at `destination` from an edge set, validating that
    /// the edges are acyclic and that every node with at least one DAG edge
    /// (or that the graph marks as a traffic source) can reach the
    /// destination inside the DAG.
    pub fn new(graph: &Graph, destination: NodeId, edges: &[EdgeId]) -> Result<Self, GraphError> {
        let n = graph.node_count();
        if destination.index() >= n {
            return Err(GraphError::InvalidNode {
                node: destination.index(),
                node_count: n,
            });
        }
        let mut member = vec![false; graph.edge_count()];
        for &e in edges {
            if e.index() >= graph.edge_count() {
                return Err(GraphError::InvalidEdge {
                    edge: e.index(),
                    edge_count: graph.edge_count(),
                });
            }
            member[e.index()] = true;
        }

        let mut out_edges = vec![Vec::new(); n];
        let mut in_edges = vec![Vec::new(); n];
        for e in graph.edges() {
            if member[e.index()] {
                let (u, v) = graph.endpoints(e);
                out_edges[u.index()].push(e);
                in_edges[v.index()].push(e);
            }
        }

        // Kahn's algorithm on the DAG edges, starting from the destination and
        // walking edges backwards, yields the order "destination first".
        // A node is emitted once all of its outgoing DAG edges lead to emitted
        // nodes; if not every participating node is emitted there is a cycle.
        let mut remaining_out: Vec<usize> = out_edges.iter().map(Vec::len).collect();
        let mut emitted = vec![false; n];
        let mut topo = Vec::with_capacity(n);
        let mut queue = std::collections::VecDeque::new();
        // Nodes with no outgoing DAG edges are sinks; only the destination is
        // a legitimate sink, others are simply not part of this DAG.
        for v in graph.nodes() {
            if remaining_out[v.index()] == 0 {
                queue.push_back(v);
            }
        }
        while let Some(v) = queue.pop_front() {
            if emitted[v.index()] {
                continue;
            }
            emitted[v.index()] = true;
            topo.push(v);
            for &e in &in_edges[v.index()] {
                let u = graph.edge(e).src;
                remaining_out[u.index()] -= 1;
                if remaining_out[u.index()] == 0 {
                    queue.push_back(u);
                }
            }
        }
        if topo.len() != n {
            return Err(GraphError::NotAcyclic {
                destination: destination.index(),
            });
        }

        // Reachability inside the DAG: every node with an outgoing DAG edge
        // must reach the destination following DAG edges.
        let mut reaches = vec![false; n];
        reaches[destination.index()] = true;
        // topo is ordered "sinks first", destination among the first entries;
        // walking it in order guarantees successors are resolved before
        // predecessors.
        for &v in &topo {
            if reaches[v.index()] {
                continue;
            }
            if out_edges[v.index()]
                .iter()
                .any(|&e| reaches[graph.edge(e).dst.index()])
            {
                reaches[v.index()] = true;
            }
        }
        for v in graph.nodes() {
            if !out_edges[v.index()].is_empty() && !reaches[v.index()] {
                return Err(GraphError::Unreachable {
                    node: v.index(),
                    destination: destination.index(),
                });
            }
        }

        // Order the topological list so the destination comes first and only
        // keep nodes that participate (destination + nodes with DAG edges).
        let topo_from_dest: Vec<NodeId> = topo
            .into_iter()
            .filter(|&v| {
                v == destination
                    || !out_edges[v.index()].is_empty()
                    || !in_edges[v.index()].is_empty()
            })
            .collect();

        Ok(Self {
            destination,
            member,
            out_edges,
            in_edges,
            topo_from_dest,
        })
    }

    /// Builds the DAG that contains the ECMP shortest-path edges towards the
    /// destination of `spf` (Step I of COYOTE's DAG construction).
    pub fn from_shortest_paths(
        graph: &Graph,
        spf: &crate::spf::ShortestPathDag,
    ) -> Result<Self, GraphError> {
        Dag::new(graph, spf.destination, &spf.edges())
    }

    /// Destination this DAG routes towards.
    #[inline]
    pub fn destination(&self) -> NodeId {
        self.destination
    }

    /// True if `edge` belongs to the DAG.
    #[inline]
    pub fn contains(&self, edge: EdgeId) -> bool {
        self.member[edge.index()]
    }

    /// Outgoing DAG edges of a node (its allowed next hops towards the
    /// destination).
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_edges[node.index()]
    }

    /// Incoming DAG edges of a node.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_edges[node.index()]
    }

    /// All DAG edges in ascending id order.
    pub fn edges(&self) -> Vec<EdgeId> {
        self.member
            .iter()
            .enumerate()
            .filter_map(|(i, &m)| if m { Some(EdgeId(i)) } else { None })
            .collect()
    }

    /// Number of DAG edges.
    pub fn edge_count(&self) -> usize {
        self.member.iter().filter(|&&m| m).count()
    }

    /// Nodes ordered destination-first: every DAG edge `(u, v)` has `v`
    /// appearing before `u`. Propagating *loads* (which flow towards the
    /// destination) therefore walks this order in reverse; propagating
    /// per-source fractions walks it in reverse as well, starting from each
    /// source.
    #[inline]
    pub fn topo_from_destination(&self) -> &[NodeId] {
        &self.topo_from_dest
    }

    /// Nodes ordered sources-first (reverse of [`Self::topo_from_destination`]):
    /// every DAG edge `(u, v)` has `u` appearing before `v`. This is the order
    /// in which traffic entering at any node propagates towards the
    /// destination. Walks the stored order backwards; nothing is allocated.
    pub fn topo_to_destination(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.topo_from_dest.iter().rev().copied()
    }

    /// True if `node` participates in the DAG (has an in- or out-edge) or is
    /// the destination.
    pub fn participates(&self, node: NodeId) -> bool {
        node == self.destination
            || !self.out_edges[node.index()].is_empty()
            || !self.in_edges[node.index()].is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spf::shortest_path_dag;

    fn fig1() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let s1 = g.add_node("s1").unwrap();
        let s2 = g.add_node("s2").unwrap();
        let v = g.add_node("v").unwrap();
        let t = g.add_node("t").unwrap();
        g.add_bidirectional_edge(s1, s2, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s1, v, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s2, v, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s2, t, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(v, t, 1.0, 1.0).unwrap();
        (g, s1, s2, v, t)
    }

    #[test]
    fn builds_from_shortest_paths() {
        let (g, s1, s2, v, t) = fig1();
        let spf = shortest_path_dag(&g, t);
        let dag = Dag::from_shortest_paths(&g, &spf).unwrap();
        assert_eq!(dag.destination(), t);
        assert_eq!(dag.out_edges(s1).len(), 2);
        assert_eq!(dag.out_edges(s2).len(), 1);
        assert_eq!(dag.out_edges(v).len(), 1);
        assert!(dag.out_edges(t).is_empty());
        assert_eq!(dag.edge_count(), 4);
    }

    #[test]
    fn rejects_cycles() {
        let (g, s1, s2, _v, t) = fig1();
        // s1 -> s2, s2 -> s1 is a 2-cycle.
        let e1 = g.find_edge(s1, s2).unwrap();
        let e2 = g.find_edge(s2, s1).unwrap();
        let e3 = g.find_edge(s2, t).unwrap();
        let err = Dag::new(&g, t, &[e1, e2, e3]).unwrap_err();
        assert!(matches!(err, GraphError::NotAcyclic { .. }));
    }

    #[test]
    fn rejects_nodes_that_cannot_reach_destination() {
        let (g, s1, _s2, v, t) = fig1();
        // s1 -> v only, with no way for v to continue to t: v has an outgoing
        // edge? No — v has none, so v is a sink that is not the destination;
        // s1 cannot reach t.
        let e = g.find_edge(s1, v).unwrap();
        let err = Dag::new(&g, t, &[e]).unwrap_err();
        assert!(matches!(err, GraphError::Unreachable { .. }));
    }

    #[test]
    fn topological_orders_are_consistent() {
        let (g, _s1, _s2, _v, t) = fig1();
        let spf = shortest_path_dag(&g, t);
        let dag = Dag::from_shortest_paths(&g, &spf).unwrap();
        let order = dag.topo_from_destination();
        let pos: std::collections::HashMap<_, _> =
            order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        for e in dag.edges() {
            let (u, v) = g.endpoints(e);
            // Destination-first order: heads appear before tails.
            assert!(pos[&v] < pos[&u], "edge {u}->{v} violates topo order");
        }
        let fwd: Vec<NodeId> = dag.topo_to_destination().collect();
        assert_eq!(fwd.len(), order.len());
        assert_eq!(fwd.first(), order.last());
        assert!(dag.topo_to_destination().rev().eq(order.iter().copied()));
    }

    #[test]
    fn contains_and_edges_agree() {
        let (g, _s1, _s2, _v, t) = fig1();
        let spf = shortest_path_dag(&g, t);
        let dag = Dag::from_shortest_paths(&g, &spf).unwrap();
        for e in g.edges() {
            assert_eq!(dag.contains(e), dag.edges().contains(&e));
        }
    }

    #[test]
    fn participation_reflects_edge_membership() {
        let (g, s1, s2, v, t) = fig1();
        let e1 = g.find_edge(s2, t).unwrap();
        let dag = Dag::new(&g, t, &[e1]).unwrap();
        assert!(dag.participates(s2));
        assert!(dag.participates(t));
        assert!(!dag.participates(s1));
        assert!(!dag.participates(v));
    }

    #[test]
    fn empty_dag_is_valid_for_isolated_destination() {
        let (g, _, _, _, t) = fig1();
        let dag = Dag::new(&g, t, &[]).unwrap();
        assert_eq!(dag.edge_count(), 0);
        assert!(dag.participates(t));
    }

    #[test]
    fn invalid_indices_are_rejected() {
        let (g, _, _, _, t) = fig1();
        assert!(matches!(
            Dag::new(&g, NodeId(99), &[]),
            Err(GraphError::InvalidNode { .. })
        ));
        assert!(matches!(
            Dag::new(&g, t, &[EdgeId(999)]),
            Err(GraphError::InvalidEdge { .. })
        ));
    }
}
