//! Forwarding Information Base: what each router actually installs.
//!
//! After SPF runs over the (possibly lied-to) LSDB, every router holds, per
//! destination prefix, a multiset of next hops: real neighbors, each
//! possibly repeated because several (real or virtual) equal-cost paths
//! resolve to it. ECMP hashes flows uniformly over the entries, so the
//! realized split towards a neighbor is its multiplicity divided by the
//! total number of entries.

use crate::error::OspfError;
use coyote_core::PdRouting;
use coyote_graph::{Dag, EdgeId, Graph, NodeId};
use serde::Serialize;
use std::collections::BTreeMap;

/// One router's next-hop multiset towards one destination.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FibEntry {
    /// Next-hop neighbor and its ECMP multiplicity.
    pub next_hops: BTreeMap<usize, u32>,
}

impl FibEntry {
    /// Adds `count` entries towards `neighbor`.
    pub fn add(&mut self, neighbor: NodeId, count: u32) {
        if count == 0 {
            return;
        }
        *self.next_hops.entry(neighbor.index()).or_insert(0) += count;
    }

    /// Total number of ECMP entries.
    pub fn total_entries(&self) -> u32 {
        self.next_hops.values().sum()
    }

    /// The realized split fraction towards `neighbor`.
    pub fn fraction_to(&self, neighbor: NodeId) -> f64 {
        let total = self.total_entries();
        if total == 0 {
            return 0.0;
        }
        *self.next_hops.get(&neighbor.index()).unwrap_or(&0) as f64 / total as f64
    }

    /// Iterates over `(neighbor, multiplicity)` pairs in neighbor order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.next_hops.iter().map(|(&n, &m)| (NodeId(n), m))
    }
}

/// The forwarding state of the whole network: per destination prefix, per
/// router, a [`FibEntry`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fib {
    node_count: usize,
    /// `entries[destination][router]`.
    entries: Vec<Vec<FibEntry>>,
}

impl Fib {
    /// An empty FIB over `node_count` routers.
    pub fn new(node_count: usize) -> Self {
        Self {
            node_count,
            entries: vec![vec![FibEntry::default(); node_count]; node_count],
        }
    }

    /// Number of routers.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// The entry of `router` towards `destination`.
    pub fn entry(&self, router: NodeId, destination: NodeId) -> &FibEntry {
        &self.entries[destination.index()][router.index()]
    }

    /// Mutable access (used by the SPF computation).
    pub fn entry_mut(&mut self, router: NodeId, destination: NodeId) -> &mut FibEntry {
        &mut self.entries[destination.index()][router.index()]
    }

    /// Every router's entry towards `destination`, indexed by router.
    pub(crate) fn column_mut(&mut self, destination: NodeId) -> &mut [FibEntry] {
        &mut self.entries[destination.index()]
    }

    /// Converts the FIB into a [`PdRouting`] so the core evaluation machinery
    /// (worst-case ratios, stretch, …) can be applied to the *realized*
    /// configuration. Fails if the forwarding state contains a loop for some
    /// destination.
    pub fn to_routing(&self, graph: &Graph) -> Result<PdRouting, OspfError> {
        if graph.node_count() != self.node_count {
            return Err(OspfError::DimensionMismatch(format!(
                "FIB has {} routers, graph has {}",
                self.node_count,
                graph.node_count()
            )));
        }
        let columns = graph
            .nodes()
            .map(|t| self.column_routing(graph, t))
            .collect::<Result<Vec<_>, _>>()?;
        let (dags, ratios) = columns.into_iter().unzip();
        Ok(PdRouting::from_ratios(graph, dags, ratios))
    }

    /// One destination's column as a forwarding DAG over `graph` and its
    /// split ratios (indexed by edge). The first next hop that is not a
    /// physical neighbor fails the column, and so does a loop.
    pub(crate) fn column_routing(
        &self,
        graph: &Graph,
        t: NodeId,
    ) -> Result<(Dag, Vec<f64>), OspfError> {
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut raw = vec![0.0; graph.edge_count()];
        for (u, entry) in graph.nodes().zip(&self.entries[t.index()]) {
            let total = entry.total_entries();
            if u == t || total == 0 {
                continue;
            }
            for (neighbor, mult) in entry.iter() {
                let e = graph
                    .find_edge(u, neighbor)
                    .ok_or_else(|| OspfError::InvalidNextHop {
                        router: u.index(),
                        neighbor: neighbor.index(),
                    })?;
                edges.push(e);
                raw[e.index()] = mult as f64 / total as f64;
            }
        }
        let dag = Dag::new(graph, t, &edges).map_err(|e| OspfError::ForwardingLoop {
            destination: t.index(),
            detail: e.to_string(),
        })?;
        Ok((dag, raw))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        g.add_bidirectional_edge(a, b, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(b, c, 1.0, 1.0).unwrap();
        g
    }

    #[test]
    fn entry_fractions_follow_multiplicities() {
        let mut e = FibEntry::default();
        e.add(NodeId(1), 2);
        e.add(NodeId(2), 1);
        e.add(NodeId(1), 1);
        e.add(NodeId(3), 0);
        assert_eq!(e.total_entries(), 4);
        assert!((e.fraction_to(NodeId(1)) - 0.75).abs() < 1e-12);
        assert!((e.fraction_to(NodeId(2)) - 0.25).abs() < 1e-12);
        assert_eq!(e.fraction_to(NodeId(9)), 0.0);
        assert_eq!(e.iter().count(), 2);
    }

    #[test]
    fn fib_converts_to_a_valid_routing() {
        let g = line();
        let mut fib = Fib::new(3);
        // Towards c: a -> b, b -> c.
        fib.entry_mut(NodeId(0), NodeId(2)).add(NodeId(1), 1);
        fib.entry_mut(NodeId(1), NodeId(2)).add(NodeId(2), 1);
        // Towards b: a -> b, c -> b.
        fib.entry_mut(NodeId(0), NodeId(1)).add(NodeId(1), 1);
        fib.entry_mut(NodeId(2), NodeId(1)).add(NodeId(1), 1);
        // Towards a: b -> a, c -> b.
        fib.entry_mut(NodeId(1), NodeId(0)).add(NodeId(0), 1);
        fib.entry_mut(NodeId(2), NodeId(0)).add(NodeId(1), 1);
        let routing = fib.to_routing(&g).unwrap();
        routing.validate(&g).unwrap();
    }

    #[test]
    fn forwarding_loops_are_rejected() {
        let g = line();
        let mut fib = Fib::new(3);
        // Towards c: a -> b but b -> a (loop, and never reaches c).
        fib.entry_mut(NodeId(0), NodeId(2)).add(NodeId(1), 1);
        fib.entry_mut(NodeId(1), NodeId(2)).add(NodeId(0), 1);
        assert!(matches!(
            fib.to_routing(&g),
            Err(OspfError::ForwardingLoop { .. })
        ));
    }

    #[test]
    fn next_hops_must_be_physical_neighbors() {
        let g = line();
        let mut fib = Fib::new(3);
        // a claims c as a next hop but has no a-c link.
        fib.entry_mut(NodeId(0), NodeId(2)).add(NodeId(2), 1);
        assert!(matches!(
            fib.to_routing(&g),
            Err(OspfError::InvalidNextHop { .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_detected() {
        let g = line();
        let fib = Fib::new(5);
        assert!(matches!(
            fib.to_routing(&g),
            Err(OspfError::DimensionMismatch(_))
        ));
    }
}
