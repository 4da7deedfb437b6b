//! Plain OSPF: Dijkstra towards a destination and the shortest-path DAG
//! (the ECMP next-hop sets) it induces.
//!
//! OSPF routers run Dijkstra over the link-state database; traffic to a
//! destination `t` follows the *shortest-path DAG towards `t`*: the set of
//! edges `(u, v)` with `dist(u -> t) = w(u, v) + dist(v -> t)`. COYOTE's DAG
//! construction (Section V-B, Step I) starts from exactly this DAG, so the
//! routines here compute distances *towards* a destination by running
//! Dijkstra over reversed edges.
//!
//! This module is the workspace's only implementation of that question.
//! The Fibbing compiler and compressor ask it of the physical [`Graph`];
//! the simulated routers of `coyote-ospf` ask it of the graph view of their
//! router LSAs and add nothing but the lies. The equal-cost tolerance
//! ([`ECMP_EPSILON`], applied in [`shortest_path_dag`]) therefore has one
//! owner, and so does the meaning of a link metric: `+∞` is OSPF's
//! max-metric ("do not transit") and the link is skipped; zero, negative
//! and NaN metrics are clamped to `ECMP_EPSILON`.

use crate::graph::{EdgeId, Graph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Relative tolerance used when comparing path lengths for equality
/// (two paths whose lengths differ by less than this are "equal cost").
/// The routers of `coyote-ospf` tie a lie's cost with a real distance under
/// the same tolerance.
pub const ECMP_EPSILON: f64 = 1e-9;

/// The shortest-path DAG rooted at (i.e. directed towards) a destination.
#[derive(Debug, Clone)]
pub struct ShortestPathDag {
    /// Destination every edge of the DAG leads towards.
    pub destination: NodeId,
    /// Distance of every node to the destination.
    pub dist_to_dest: Vec<f64>,
    /// For every node, the outgoing edges that lie on *some* shortest path to
    /// the destination (the ECMP next-hop set).
    pub next_hop_edges: Vec<Vec<EdgeId>>,
}

impl ShortestPathDag {
    /// All DAG edges, flattened.
    pub fn edges(&self) -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = self.next_hop_edges.iter().flatten().copied().collect();
        out.sort();
        out
    }

    /// ECMP next-hop edge set of `node` towards the destination.
    pub fn next_hops(&self, node: NodeId) -> &[EdgeId] {
        &self.next_hop_edges[node.index()]
    }
}

#[derive(Debug, PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want the minimum
        // distance on top. Ties broken on node id for determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra *towards* `destination`: `dist[v]` is measured along directed
/// edges pointing at the destination (i.e. Dijkstra on the reversed graph),
/// `f64::INFINITY` when `v` cannot reach it.
pub fn dijkstra_to(graph: &Graph, destination: NodeId) -> Vec<f64> {
    coyote_obs::counter("graph.spf.runs", 1);
    let n = graph.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap = BinaryHeap::new();
    dist[destination.index()] = 0.0;
    heap.push(HeapEntry {
        dist: 0.0,
        node: destination,
    });

    while let Some(HeapEntry { dist: d, node: v }) = heap.pop() {
        if done[v.index()] {
            continue;
        }
        done[v.index()] = true;
        for &e in graph.in_edges(v) {
            let edge = graph.edge(e);
            let Some(w) = usable_weight(edge.weight) else {
                continue;
            };
            let u = edge.src;
            let nd = d + w;
            if nd + ECMP_EPSILON < dist[u.index()] {
                dist[u.index()] = nd;
                heap.push(HeapEntry { dist: nd, node: u });
            }
        }
    }

    dist
}

/// The metric SPF uses for a link advertised at `w`: `None` for `+∞`
/// (max-metric: the link carries no transit traffic), otherwise `w` with
/// zero, negative and NaN values clamped to a tiny positive metric so
/// OSPF's "weight >= 1" convention is preserved.
#[inline]
fn usable_weight(w: f64) -> Option<f64> {
    if w == f64::INFINITY {
        None
    } else if w.is_finite() && w > 0.0 {
        Some(w)
    } else {
        Some(ECMP_EPSILON)
    }
}

/// Computes the shortest-path DAG towards `destination`: the edges `(u, v)`
/// with `dist(u) ≈ w(u,v) + dist(v)` where distances are measured towards the
/// destination. This is exactly the set of ECMP next hops OSPF installs.
pub fn shortest_path_dag(graph: &Graph, destination: NodeId) -> ShortestPathDag {
    let dist = dijkstra_to(graph, destination);
    let mut next_hop_edges = vec![Vec::new(); graph.node_count()];
    for e in graph.edges() {
        let edge = graph.edge(e);
        let du = dist[edge.src.index()];
        let dv = dist[edge.dst.index()];
        if !du.is_finite() || !dv.is_finite() {
            continue;
        }
        let Some(w) = usable_weight(edge.weight) else {
            continue;
        };
        // Relative tolerance: weights can span orders of magnitude when set
        // to inverse capacities.
        let tol = ECMP_EPSILON * (1.0 + du.abs().max(dv.abs() + w.abs()));
        if (du - (dv + w)).abs() <= tol {
            next_hop_edges[edge.src.index()].push(e);
        }
    }
    ShortestPathDag {
        destination,
        dist_to_dest: dist,
        next_hop_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// The running example of the paper (Fig. 1a): s1, s2, v, t with unit
    /// capacity links. All physical links are bidirectional.
    pub(crate) fn fig1_topology() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
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
    fn dijkstra_towards_destination() {
        let (g, s1, s2, v, t) = fig1_topology();
        let dist = dijkstra_to(&g, t);
        assert_eq!(dist[t.index()], 0.0);
        assert_eq!(dist[s2.index()], 1.0);
        assert_eq!(dist[v.index()], 1.0);
        assert_eq!(dist[s1.index()], 2.0);
    }

    #[test]
    fn shortest_path_dag_matches_fig1b() {
        // With unit weights, s1 has two equal-cost next hops (via s2 and v),
        // while s2 and v forward straight to t — exactly Fig. 1b of the paper.
        let (g, s1, s2, v, t) = fig1_topology();
        let dag = shortest_path_dag(&g, t);
        assert_eq!(dag.next_hops(s1).len(), 2);
        assert_eq!(dag.next_hops(s2).len(), 1);
        assert_eq!(dag.next_hops(v).len(), 1);
        assert_eq!(dag.next_hops(t).len(), 0);
        let s2_nh = g.edge(dag.next_hops(s2)[0]).dst;
        let v_nh = g.edge(dag.next_hops(v)[0]).dst;
        assert_eq!(s2_nh, t);
        assert_eq!(v_nh, t);
        // The (s2,v) link is not on any shortest path to t.
        let s2v = g.find_edge(s2, v).unwrap();
        assert!(!dag.edges().contains(&s2v));
    }

    #[test]
    fn unreachable_nodes_have_infinite_distance() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        let dist = dijkstra_to(&g, NodeId(1));
        assert!(dist[0].is_finite());
        assert!(dist[2].is_infinite());
        let dag = shortest_path_dag(&g, NodeId(1));
        assert!(dag.next_hops(NodeId(2)).is_empty());
    }

    #[test]
    fn weighted_shortest_paths_prefer_light_edges() {
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        // Direct edge is heavy, detour is light.
        g.add_edge(a, c, 1.0, 10.0).unwrap();
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, c, 1.0, 1.0).unwrap();
        let dag = shortest_path_dag(&g, c);
        // a's only shortest next hop is via b.
        assert_eq!(dag.next_hops(a).len(), 1);
        assert_eq!(g.edge(dag.next_hops(a)[0]).dst, b);
        assert!((dag.dist_to_dest[a.index()] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_or_negative_weights_are_sanitized() {
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        g.add_edge(a, b, 1.0, 0.0).unwrap();
        let dist = dijkstra_to(&g, b);
        assert!(dist[a.index()] > 0.0);
        assert!(dist[a.index()] < 1e-6);
    }

    #[test]
    fn an_infinite_metric_link_is_never_used() {
        // a - b - c at unit weights; the only shortcut a -> c is advertised
        // at max-metric. It must neither shorten a's distance nor become a
        // next hop, and a router whose only link is max-metric is cut off.
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        let d = g.add_node("d").unwrap();
        g.add_edge(a, b, 1.0, 1.0).unwrap();
        g.add_edge(b, c, 1.0, 1.0).unwrap();
        let shortcut = g.add_edge(a, c, 1.0, f64::INFINITY).unwrap();
        let stub = g.add_edge(d, c, 1.0, f64::INFINITY).unwrap();
        let dag = shortest_path_dag(&g, c);
        assert_eq!(dag.dist_to_dest[a.index()], 2.0);
        assert_eq!(dag.dist_to_dest[b.index()], 1.0);
        assert!(dag.dist_to_dest[d.index()].is_infinite());
        assert_eq!(dag.next_hops(a), &[g.find_edge(a, b).unwrap()]);
        assert!(dag.next_hops(d).is_empty());
        assert!(!dag.edges().contains(&shortcut));
        assert!(!dag.edges().contains(&stub));
    }
}
