//! What a failure kills: the one failure model of the workspace.
//!
//! A [`Failure`] is a set of dead routers and dead physical links. The
//! failure grid derives one from each event, the daemon keeps one as its
//! failure state, and the LSDB withdrawal reads one; all three ask the same
//! predicate, [`Failure::kills`], whether an adjacency died.

use crate::graph::{EdgeId, Graph, NodeId};
use std::collections::BTreeSet;

/// Dead routers and dead links. A link is an unordered endpoint pair,
/// stored as `(low, high)`, and kills every directed edge between its
/// endpoints; a dead router kills every edge it touches and stays in the
/// node-id space.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Failure {
    nodes: BTreeSet<NodeId>,
    links: BTreeSet<(NodeId, NodeId)>,
}

/// The stored form of the link between `a` and `b`.
fn link(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

impl Failure {
    /// The failure of `nodes` and of `links`, endpoint pairs in either order.
    pub fn new(
        nodes: impl IntoIterator<Item = NodeId>,
        links: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Self {
        Self {
            nodes: nodes.into_iter().collect(),
            links: links.into_iter().map(|(a, b)| link(a, b)).collect(),
        }
    }

    /// Marks router `v` dead or alive; false when it already was.
    pub fn set_node(&mut self, v: NodeId, dead: bool) -> bool {
        if dead {
            self.nodes.insert(v)
        } else {
            self.nodes.remove(&v)
        }
    }

    /// Marks the link between `a` and `b` dead or alive; false when it
    /// already was.
    pub fn set_link(&mut self, a: NodeId, b: NodeId, dead: bool) -> bool {
        if dead {
            self.links.insert(link(a, b))
        } else {
            self.links.remove(&link(a, b))
        }
    }

    /// The dead routers, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().copied()
    }

    /// The dead links as `(low, high)` pairs, ascending.
    pub fn links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.links.iter().copied()
    }

    /// True when router `v` is dead.
    pub fn kills_node(&self, v: NodeId) -> bool {
        self.nodes.contains(&v)
    }

    /// True when the adjacency `a -> b` dies: an endpoint is dead, or the
    /// link between them is.
    pub fn kills(&self, a: NodeId, b: NodeId) -> bool {
        self.kills_node(a) || self.kills_node(b) || self.links.contains(&link(a, b))
    }

    /// `graph` without every edge this failure kills, through
    /// [`Graph::without_edges`]: node ids kept, surviving edges renumbered
    /// densely in their order.
    pub fn surviving(&self, graph: &Graph) -> Graph {
        let dead: Vec<EdgeId> = graph
            .edges()
            .filter(|&e| {
                let (a, b) = graph.endpoints(e);
                self.kills(a, b)
            })
            .collect();
        graph.without_edges(&dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_link_is_unordered_and_a_router_kills_what_it_touches() {
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        let failure = Failure::new([c], [(b, a)]);
        assert_eq!(failure, Failure::new([c], [(a, b)]));
        assert_eq!(failure.links().collect::<Vec<_>>(), [(a, b)]);
        assert!(failure.kills(a, b) && failure.kills(b, a));
        assert!(failure.kills(a, c) && failure.kills(c, b));
        assert!(!failure.kills(a, NodeId(3)));
        assert!(failure.kills_node(c) && !failure.kills_node(a));
    }

    #[test]
    fn setting_a_state_it_already_has_changes_nothing() {
        let mut failure = Failure::default();
        assert!(failure.set_link(NodeId(1), NodeId(0), true));
        assert!(!failure.set_link(NodeId(0), NodeId(1), true));
        assert!(failure.set_node(NodeId(2), true));
        assert!(!failure.set_node(NodeId(2), true));
        assert!(failure.set_link(NodeId(0), NodeId(1), false));
        assert!(failure.set_node(NodeId(2), false));
        assert!(!failure.set_node(NodeId(2), false));
        assert_eq!(failure, Failure::default());
    }

    #[test]
    fn the_surviving_graph_keeps_the_edges_the_failure_spares() {
        let mut g = Graph::with_nodes(4);
        for i in 0..4 {
            g.add_bidirectional_edge(NodeId(i), NodeId((i + 1) % 4), 1.0, 1.0)
                .unwrap();
        }
        let failure = Failure::new([NodeId(3)], [(NodeId(1), NodeId(0))]);
        let after = failure.surviving(&g);
        assert_eq!(after.node_count(), 4);
        let edges: Vec<_> = after.edges().map(|e| after.endpoints(e)).collect();
        assert_eq!(
            edges,
            [(NodeId(1), NodeId(2)), (NodeId(2), NodeId(1))],
            "only the 1-2 link survives"
        );
        assert_eq!(Failure::default().surviving(&g).edge_count(), 8);
    }
}
