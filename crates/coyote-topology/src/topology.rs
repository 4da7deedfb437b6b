//! The [`Topology`] type: a named, serializable description of a backbone
//! network that can be lowered to a [`coyote_graph::Graph`].
//!
//! The paper evaluates COYOTE on 16 backbone networks from the Internet
//! Topology Zoo \[19\]. Capacities follow the paper's convention: "When
//! available, we use the link capacities provided by ITZ. Otherwise, we set
//! the link capacities to be inversely-proportional to the ITZ-provided ECMP
//! weights (...). When neither ECMP link weights nor capacities are
//! available we use unit capacities and link weights."

use coyote_graph::{Graph, GraphError};
use serde::Serialize;

/// One bidirectional backbone link.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Link {
    /// Index of one endpoint in [`Topology::nodes`].
    pub a: usize,
    /// Index of the other endpoint.
    pub b: usize,
    /// Link capacity (both directions).
    pub capacity: f64,
    /// OSPF weight (both directions).
    pub weight: f64,
}

/// A named backbone topology.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Topology {
    /// Human-readable name (e.g. `"Abilene"`).
    pub name: String,
    /// Node (PoP / router) names.
    pub nodes: Vec<String>,
    /// Bidirectional links.
    pub links: Vec<Link>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nodes: Vec::new(),
            links: Vec::new(),
        }
    }

    /// Adds a node and returns its index.
    pub fn add_node(&mut self, name: impl Into<String>) -> usize {
        self.nodes.push(name.into());
        self.nodes.len() - 1
    }

    /// Adds a bidirectional link.
    pub fn add_link(&mut self, a: usize, b: usize, capacity: f64, weight: f64) {
        self.links.push(Link {
            a,
            b,
            capacity,
            weight,
        });
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of bidirectional links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Lowers the topology to a directed [`Graph`] (each link becomes two
    /// anti-parallel edges).
    pub fn to_graph(&self) -> Result<Graph, GraphError> {
        coyote_obs::counter("topology.graphs_built", 1);
        let mut g = Graph::new();
        for name in &self.nodes {
            g.add_node(name.clone())?;
        }
        for link in &self.links {
            g.add_bidirectional_edge(
                coyote_graph::NodeId(link.a),
                coyote_graph::NodeId(link.b),
                link.capacity,
                link.weight,
            )?;
        }
        Ok(g)
    }

    /// Applies the paper's fallback rule for missing weights: weight is set
    /// to `reference_capacity / capacity` (inverse capacity, Cisco default).
    pub fn set_inverse_capacity_weights(&mut self) {
        let min_cap = self
            .links
            .iter()
            .map(|l| l.capacity)
            .fold(f64::INFINITY, f64::min);
        if !min_cap.is_finite() || min_cap <= 0.0 {
            return;
        }
        // Scale so the largest weight is 10 (keeps weights in an OSPF-ish
        // integer-friendly range without affecting shortest paths).
        for l in &mut self.links {
            l.weight = 10.0 * min_cap / l.capacity;
        }
    }

    /// Indices (into [`Topology::links`]) of the links incident to `node`,
    /// in link-insertion order. Used by the failure engine to enumerate
    /// node failures and shared-risk link groups deterministically.
    pub fn incident_links(&self, node: usize) -> Vec<usize> {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, l)| l.a == node || l.b == node)
            .map(|(i, _)| i)
            .collect()
    }

    /// Degree of a node (number of incident bidirectional links).
    pub fn degree(&self, node: usize) -> usize {
        self.links
            .iter()
            .filter(|l| l.a == node || l.b == node)
            .count()
    }

    /// Average node degree (counting each bidirectional link once per
    /// endpoint).
    pub fn average_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        2.0 * self.links.len() as f64 / self.nodes.len() as f64
    }

    /// True if the lowered graph is strongly connected (every backbone in
    /// the evaluation must be).
    pub fn is_connected(&self) -> bool {
        match self.to_graph() {
            Ok(g) => g.is_strongly_connected(),
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Topology {
        let mut t = Topology::new("toy");
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        t.add_link(a, b, 10.0, 1.0);
        t.add_link(b, c, 2.5, 1.0);
        t.add_link(a, c, 10.0, 1.0);
        t
    }

    #[test]
    fn lowering_produces_two_directed_edges_per_link() {
        let t = toy();
        let g = t.to_graph().unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 6);
        assert!(t.is_connected());
        assert!((t.average_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_capacity_weights() {
        let mut t = toy();
        t.set_inverse_capacity_weights();
        // The 2.5-capacity link gets the largest weight (10), the 10-capacity
        // links get 2.5.
        assert!((t.links[1].weight - 10.0).abs() < 1e-12);
        assert!((t.links[0].weight - 2.5).abs() < 1e-12);
    }

    #[test]
    fn incident_links_and_degree_agree() {
        let t = toy();
        assert_eq!(t.incident_links(0), vec![0, 2]);
        assert_eq!(t.incident_links(1), vec![0, 1]);
        assert_eq!(t.incident_links(2), vec![1, 2]);
        for v in 0..t.node_count() {
            assert_eq!(t.incident_links(v).len(), t.degree(v));
        }
    }

    #[test]
    fn invalid_links_surface_as_errors() {
        let mut t = Topology::new("bad");
        t.add_node("only");
        t.add_link(0, 5, 1.0, 1.0);
        assert!(t.to_graph().is_err());
        assert!(!t.is_connected());
    }

    #[test]
    fn disconnected_topology_is_reported() {
        let mut t = Topology::new("disc");
        t.add_node("a");
        t.add_node("b");
        t.add_node("c");
        t.add_link(0, 1, 1.0, 1.0);
        assert!(!t.is_connected());
    }
}
