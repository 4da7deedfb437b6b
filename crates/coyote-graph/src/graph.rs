//! Compact adjacency-list digraph with per-edge capacity and OSPF weight.
//!
//! The network model of the paper (Section III): a directed and capacitated
//! graph `G = (V, E)` where `c_e` denotes the capacity of edge `e`. Links of
//! real networks are bidirectional; they are modelled as two anti-parallel
//! directed edges, and [`Graph::add_bidirectional_edge`] inserts both at once.
//! A link's twin is the edge [`Graph::find_edge`] finds running the other way.

use crate::error::GraphError;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// Index of a node (router) in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct NodeId(pub usize);

/// Index of a directed edge (link direction) in a [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct EdgeId(pub usize);

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl EdgeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed edge: one direction of a physical link.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Edge {
    /// Tail (the router the traffic leaves).
    pub src: NodeId,
    /// Head (the router the traffic enters).
    pub dst: NodeId,
    /// Capacity `c_e` (arbitrary rate units; utilisation = flow / capacity).
    pub capacity: f64,
    /// OSPF link weight (used by the shortest-path DAG heuristics).
    pub weight: f64,
}

/// A directed, capacitated, weighted multigraph with named nodes.
///
/// Node and edge iteration order is insertion order, making every algorithm
/// built on top deterministic.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Graph {
    names: Vec<String>,
    name_index: HashMap<String, NodeId>,
    edges: Vec<Edge>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` anonymous nodes named `v0..v{n-1}`.
    pub fn with_nodes(n: usize) -> Self {
        let mut g = Self::new();
        for i in 0..n {
            g.add_node(format!("v{i}"))
                .expect("generated node names are unique");
        }
        g
    }

    /// Adds a node with a unique human-readable name and returns its id.
    pub fn add_node(&mut self, name: impl Into<String>) -> Result<NodeId, GraphError> {
        let name = name.into();
        if self.name_index.contains_key(&name) {
            return Err(GraphError::DuplicateNodeName(name));
        }
        let id = NodeId(self.names.len());
        self.name_index.insert(name.clone(), id);
        self.names.push(name);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        Ok(id)
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.names.len()
    }

    /// Number of directed edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all node ids in insertion order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.names.len()).map(NodeId)
    }

    /// Iterator over all edge ids in insertion order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len()).map(EdgeId)
    }

    /// Human-readable name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.names[node.index()]
    }

    /// Looks up a node by its name.
    pub fn node_by_name(&self, name: &str) -> Result<NodeId, GraphError> {
        self.name_index
            .get(name)
            .copied()
            .ok_or_else(|| GraphError::UnknownNodeName(name.to_string()))
    }

    fn check_node(&self, node: NodeId) -> Result<(), GraphError> {
        if node.index() >= self.node_count() {
            return Err(GraphError::InvalidNode {
                node: node.index(),
                node_count: self.node_count(),
            });
        }
        Ok(())
    }

    /// Adds a single directed edge and returns its id.
    pub fn add_edge(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity: f64,
        weight: f64,
    ) -> Result<EdgeId, GraphError> {
        self.check_node(src)?;
        self.check_node(dst)?;
        if src == dst {
            return Err(GraphError::SelfLoop { node: src.index() });
        }
        // `+∞` included: a flow LP's capacity row has `−capacity` as a
        // coefficient and a utilization divides by it.
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(GraphError::NonPositiveCapacity {
                src: src.index(),
                dst: dst.index(),
                capacity,
            });
        }
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge {
            src,
            dst,
            capacity,
            weight,
        });
        self.out_adj[src.index()].push(id);
        self.in_adj[dst.index()].push(id);
        Ok(id)
    }

    /// Adds a bidirectional physical link as two anti-parallel directed edges
    /// sharing the same capacity and weight. Returns `(forward, backward)`.
    pub fn add_bidirectional_edge(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        weight: f64,
    ) -> Result<(EdgeId, EdgeId), GraphError> {
        let fwd = self.add_edge(a, b, capacity, weight)?;
        let bwd = self.add_edge(b, a, capacity, weight)?;
        Ok((fwd, bwd))
    }

    /// Returns the edge record.
    #[inline]
    pub fn edge(&self, edge: EdgeId) -> &Edge {
        &self.edges[edge.index()]
    }

    /// Endpoints `(src, dst)` of an edge.
    #[inline]
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let e = self.edge(edge);
        (e.src, e.dst)
    }

    /// Capacity of an edge.
    #[inline]
    pub fn capacity(&self, edge: EdgeId) -> f64 {
        self.edge(edge).capacity
    }

    /// OSPF weight of an edge.
    #[inline]
    pub fn weight(&self, edge: EdgeId) -> f64 {
        self.edge(edge).weight
    }

    /// Sets the OSPF weight of an edge and of its anti-parallel twin (the
    /// first edge running the other way), if any.
    pub fn set_symmetric_weight(&mut self, edge: EdgeId, weight: f64) {
        let (src, dst) = self.endpoints(edge);
        self.edges[edge.index()].weight = weight;
        if let Some(rev) = self.find_edge(dst, src) {
            self.edges[rev.index()].weight = weight;
        }
    }

    /// Outgoing edges of a node.
    #[inline]
    pub fn out_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.out_adj[node.index()]
    }

    /// Incoming edges of a node.
    #[inline]
    pub fn in_edges(&self, node: NodeId) -> &[EdgeId] {
        &self.in_adj[node.index()]
    }

    /// Finds the first directed edge `src -> dst`, if present.
    pub fn find_edge(&self, src: NodeId, dst: NodeId) -> Option<EdgeId> {
        self.out_adj[src.index()]
            .iter()
            .copied()
            .find(|&e| self.edge(e).dst == dst)
    }

    /// Sets every link weight to the inverse of its capacity (Cisco's default
    /// OSPF recommendation, and the paper's *reverse capacities* heuristic).
    /// Weights are scaled so the largest is `scale`.
    pub fn set_inverse_capacity_weights(&mut self, scale: f64) {
        let min_cap = self
            .edges
            .iter()
            .map(|e| e.capacity)
            .fold(f64::INFINITY, f64::min);
        if !min_cap.is_finite() || min_cap <= 0.0 {
            return;
        }
        for e in &mut self.edges {
            e.weight = scale * min_cap / e.capacity;
        }
    }

    /// Sum of capacities on the outgoing edges of `node` (used by the gravity
    /// traffic model, which is proportional to total outgoing capacity).
    pub fn total_out_capacity(&self, node: NodeId) -> f64 {
        self.out_adj[node.index()]
            .iter()
            .map(|&e| self.edge(e).capacity)
            .sum()
    }

    /// True if `dst` is reachable from `src` following directed edges.
    pub fn is_reachable(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![src];
        seen[src.index()] = true;
        while let Some(u) = stack.pop() {
            for &e in self.out_edges(u) {
                let v = self.edge(e).dst;
                if v == dst {
                    return true;
                }
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    stack.push(v);
                }
            }
        }
        false
    }

    /// True if every ordered pair of distinct nodes is connected by a
    /// directed path (strong connectivity).
    pub fn is_strongly_connected(&self) -> bool {
        if self.node_count() <= 1 {
            return true;
        }
        let root = NodeId(0);
        self.nodes()
            .all(|v| self.is_reachable(root, v) && self.is_reachable(v, root))
    }

    /// Returns a copy of this graph with the given directed edges removed.
    ///
    /// The node set (ids and names) is preserved unchanged — a router whose
    /// every link died stays in the graph as an isolated node — so `NodeId`s,
    /// demand matrices, and per-destination routings built against the
    /// original graph keep their dimensions. Surviving edges are re-added in
    /// insertion order, so the result does not depend on the order of
    /// `failed`; duplicate or out-of-range ids in it are ignored.
    pub fn without_edges(&self, failed: &[EdgeId]) -> Graph {
        let mut dead = vec![false; self.edge_count()];
        for &e in failed {
            if e.index() < dead.len() {
                dead[e.index()] = true;
            }
        }
        let mut pruned = Graph::new();
        for name in &self.names {
            pruned
                .add_node(name.clone())
                .expect("names were unique in the source graph");
        }
        for (e, _) in self.edges.iter().zip(dead).filter(|&(_, dead)| !dead) {
            pruned
                .add_edge(e.src, e.dst, e.capacity, e.weight)
                .expect("surviving edges were valid in the source graph");
        }
        pruned
    }

    /// A deterministic summary string used in reports (`name(nodes, edges)`),
    /// e.g. `Abilene(11 nodes, 28 edges)`.
    pub fn summary(&self, name: &str) -> String {
        format!(
            "{name}({} nodes, {} directed edges)",
            self.node_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        g.add_bidirectional_edge(a, b, 10.0, 1.0).unwrap();
        g.add_bidirectional_edge(b, c, 5.0, 1.0).unwrap();
        g.add_bidirectional_edge(a, c, 2.0, 1.0).unwrap();
        g
    }

    #[test]
    fn builds_nodes_and_edges() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.node_name(NodeId(0)), "a");
        assert_eq!(g.node_by_name("c").unwrap(), NodeId(2));
        assert!(g.node_by_name("zzz").is_err());
    }

    #[test]
    fn rejects_duplicate_names() {
        let mut g = Graph::new();
        g.add_node("a").unwrap();
        assert!(matches!(
            g.add_node("a"),
            Err(GraphError::DuplicateNodeName(_))
        ));
    }

    #[test]
    fn rejects_bad_edges() {
        let mut g = Graph::with_nodes(2);
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(0), 1.0, 1.0),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), 0.0, 1.0),
            Err(GraphError::NonPositiveCapacity { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(1), -1.0, 1.0),
            Err(GraphError::NonPositiveCapacity { .. })
        ));
        assert!(matches!(
            g.add_edge(NodeId(0), NodeId(5), 1.0, 1.0),
            Err(GraphError::InvalidNode { .. })
        ));
    }

    /// A capacity no flow LP can use never enters the graph: `+∞` went in
    /// before and came out of `optu` as a late `NotFinite` LP error.
    #[test]
    fn rejects_capacities_that_are_not_finite() {
        let mut g = Graph::with_nodes(2);
        for capacity in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let err = g.add_edge(NodeId(0), NodeId(1), capacity, 1.0).unwrap_err();
            assert!(matches!(err, GraphError::NonPositiveCapacity { .. }));
            assert!(err.to_string().contains("finite and positive"), "{err}");
            assert!(g
                .add_bidirectional_edge(NodeId(0), NodeId(1), capacity, 1.0)
                .is_err());
        }
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn a_bidirectional_link_is_two_anti_parallel_edges() {
        let mut g = Graph::with_nodes(2);
        let (ab, ba) = g
            .add_bidirectional_edge(NodeId(0), NodeId(1), 10.0, 2.0)
            .unwrap();
        assert_eq!(g.endpoints(ab), (NodeId(0), NodeId(1)));
        assert_eq!(g.endpoints(ba), (NodeId(1), NodeId(0)));
        assert_eq!(g.edge(ab).capacity, g.edge(ba).capacity);
        assert_eq!(g.weight(ab), g.weight(ba));
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = triangle();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            assert!(g.out_edges(u).contains(&e));
            assert!(g.in_edges(v).contains(&e));
        }
        // Each node of the triangle has degree 2 in both directions.
        for v in g.nodes() {
            assert_eq!(g.out_edges(v).len(), 2);
            assert_eq!(g.in_edges(v).len(), 2);
        }
    }

    #[test]
    fn inverse_capacity_weights_follow_cisco_rule() {
        let mut g = triangle();
        g.set_inverse_capacity_weights(10.0);
        // Smallest capacity (2.0) gets the largest weight (scale = 10).
        let ac = g.find_edge(NodeId(0), NodeId(2)).unwrap();
        let ab = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        assert!((g.weight(ac) - 10.0).abs() < 1e-12);
        assert!((g.weight(ab) - 2.0).abs() < 1e-12);
        // Weight is inversely proportional to capacity.
        assert!(g.weight(ab) < g.weight(ac));
    }

    #[test]
    fn symmetric_weight_updates_both_directions() {
        let mut g = triangle();
        let ab = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let ba = g.find_edge(NodeId(1), NodeId(0)).unwrap();
        g.set_symmetric_weight(ab, 7.5);
        assert_eq!(g.weight(ab), 7.5);
        assert_eq!(g.weight(ba), 7.5);
        // A one-way edge has no twin to update.
        let mut g = Graph::with_nodes(2);
        let one_way = g.add_edge(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        g.set_symmetric_weight(one_way, 3.0);
        assert_eq!(g.weight(one_way), 3.0);
    }

    #[test]
    fn reachability_and_strong_connectivity() {
        let g = triangle();
        assert!(g.is_strongly_connected());
        let mut g2 = Graph::with_nodes(3);
        g2.add_edge(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        g2.add_edge(NodeId(1), NodeId(2), 1.0, 1.0).unwrap();
        assert!(g2.is_reachable(NodeId(0), NodeId(2)));
        assert!(!g2.is_reachable(NodeId(2), NodeId(0)));
        assert!(!g2.is_strongly_connected());
    }

    #[test]
    fn total_out_capacity_sums_outgoing_links() {
        let g = triangle();
        // a has links to b (10) and c (2).
        assert!((g.total_out_capacity(NodeId(0)) - 12.0).abs() < 1e-12);
    }

    #[test]
    fn without_edges_preserves_nodes_and_the_surviving_edges_in_order() {
        let g = triangle();
        let ab = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let ba = g.find_edge(NodeId(1), NodeId(0)).unwrap();
        // Fail the whole a<->b link (both directions), in either order.
        let pruned = g.without_edges(&[ab, ba]);
        assert_eq!(pruned.node_count(), 3);
        assert_eq!(pruned.edge_count(), 4);
        assert!(pruned.find_edge(NodeId(0), NodeId(1)).is_none());
        assert!(pruned.find_edge(NodeId(1), NodeId(0)).is_none());
        // The survivors in their order, whatever the order of the dead ids.
        let edges = |h: &Graph| -> Vec<Edge> { h.edges().map(|e| h.edge(e).clone()).collect() };
        assert_eq!(edges(&pruned), edges(&g)[2..]);
        assert_eq!(edges(&g.without_edges(&[ba, ab])), edges(&pruned));
        let bc = pruned.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert_eq!(pruned.capacity(bc), 5.0);
        // Node names survive unchanged.
        assert_eq!(pruned.node_name(NodeId(2)), "c");
    }

    #[test]
    fn without_edges_can_isolate_a_node() {
        let g = triangle();
        // Fail every edge touching node b: the node stays, isolated.
        let touching_b: Vec<EdgeId> = g
            .edges()
            .filter(|&e| {
                let (u, v) = g.endpoints(e);
                u == NodeId(1) || v == NodeId(1)
            })
            .collect();
        let pruned = g.without_edges(&touching_b);
        assert_eq!(pruned.node_count(), 3);
        assert_eq!(pruned.edge_count(), 2);
        assert!(pruned.out_edges(NodeId(1)).is_empty());
        assert!(pruned.in_edges(NodeId(1)).is_empty());
        assert!(!pruned.is_strongly_connected());
        // a and c remain mutually reachable over the surviving a<->c link.
        assert!(pruned.is_reachable(NodeId(0), NodeId(2)));
        assert!(pruned.is_reachable(NodeId(2), NodeId(0)));
    }

    #[test]
    fn without_edges_can_fail_one_direction() {
        let g = triangle();
        let ab = g.find_edge(NodeId(0), NodeId(1)).unwrap();
        let pruned = g.without_edges(&[ab]);
        assert_eq!(pruned.edge_count(), 5);
        assert!(pruned.find_edge(NodeId(0), NodeId(1)).is_none());
        assert!(pruned.find_edge(NodeId(1), NodeId(0)).is_some());
        // Out-of-range and duplicate ids are ignored.
        let same = g.without_edges(&[EdgeId(999), EdgeId(999)]);
        assert_eq!(same.edge_count(), g.edge_count());
    }

    #[test]
    fn summary_mentions_counts() {
        let g = triangle();
        let s = g.summary("triangle");
        assert!(s.contains("3 nodes"));
        assert!(s.contains("6 directed edges"));
    }
}
