//! Path-length utilities for the stretch experiment (Fig. 11).
//!
//! COYOTE augments the shortest-path DAGs with extra edges, so traffic can
//! take longer routes; the paper reports that the *average path stretch*
//! (expected hop count under COYOTE divided by expected hop count under
//! OSPF/ECMP) stays within ~10%. Given per-node next-hop splitting fractions,
//! the expected hop count from a source to the destination satisfies
//! `E[hops(u)] = Σ_e φ(e)·(1 + E[hops(head(e))])`, solved by walking the DAG
//! in topological order. The average over pairs is
//! `coyote_core::perf::average_stretch`.

use crate::dag::Dag;
use crate::graph::{EdgeId, Graph};

/// A node whose positive out-fractions sum to at most this carries no
/// traffic and gets no hop count.
const ZERO_FRACTION: f64 = 1e-9;

/// Expected number of hops from every node to `dag.destination()` when, at
/// every node, the fraction of traffic leaving on edge `e` is `split(e)`
/// (fractions over each node's DAG out-edges must sum to 1 for nodes that
/// carry traffic; nodes with all-zero fractions are treated as not carrying
/// traffic and get `None`).
pub fn expected_hops<F>(graph: &Graph, dag: &Dag, split: F) -> Vec<Option<f64>>
where
    F: Fn(EdgeId) -> f64,
{
    let n = graph.node_count();
    let mut hops: Vec<Option<f64>> = vec![None; n];
    hops[dag.destination().index()] = Some(0.0);
    // Destination-first order guarantees successors are resolved first.
    for &u in dag.topo_from_destination() {
        if u == dag.destination() {
            continue;
        }
        let out = dag.out_edges(u);
        if out.is_empty() {
            continue;
        }
        let mut total_frac = 0.0;
        let mut acc = 0.0;
        let mut well_defined = true;
        for &e in out {
            let f = split(e);
            if f <= 0.0 {
                continue;
            }
            let v = graph.edge(e).dst;
            match hops[v.index()] {
                Some(h) => acc += f * (1.0 + h),
                None => {
                    well_defined = false;
                    break;
                }
            }
            total_frac += f;
        }
        if well_defined && total_frac > ZERO_FRACTION {
            hops[u.index()] = Some(acc / total_frac);
        }
    }
    hops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeId;
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
    fn equal_split_expected_hops() {
        let (g, s1, s2, v, t) = fig1();
        let spf = shortest_path_dag(&g, t);
        let dag = Dag::from_shortest_paths(&g, &spf).unwrap();
        // ECMP: s1 splits 1/2 between s2 and v; both forward straight to t.
        let hops = expected_hops(&g, &dag, |_e| 1.0);
        assert_eq!(hops[t.index()], Some(0.0));
        assert_eq!(hops[s2.index()], Some(1.0));
        assert_eq!(hops[v.index()], Some(1.0));
        assert!((hops[s1.index()].unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn skewed_split_changes_expected_hops() {
        let (g, s1, s2, v, t) = fig1();
        // DAG with an extra s2->v edge to create a 3-hop option for s1.
        let mut edges = shortest_path_dag(&g, t).edges();
        edges.push(g.find_edge(s2, v).unwrap());
        let dag = Dag::new(&g, t, &edges).unwrap();
        let s2v = g.find_edge(s2, v).unwrap();
        let s2t = g.find_edge(s2, t).unwrap();
        let s1s2 = g.find_edge(s1, s2).unwrap();
        let s1v = g.find_edge(s1, v).unwrap();
        let vt = g.find_edge(v, t).unwrap();
        let split = move |e: EdgeId| -> f64 {
            if e == s2v || e == s2t || e == s1s2 || e == s1v {
                0.5
            } else if e == vt {
                1.0
            } else {
                0.0
            }
        };
        let hops = expected_hops(&g, &dag, split);
        // s2: 0.5*(1+0) + 0.5*(1+1) = 1.5 hops; s1: 0.5*(1+1.5)+0.5*(1+1)=2.25.
        assert!((hops[s2.index()].unwrap() - 1.5).abs() < 1e-9);
        assert!((hops[s1.index()].unwrap() - 2.25).abs() < 1e-9);
    }

    #[test]
    fn zero_fraction_nodes_are_undefined() {
        let (g, s1, _s2, v, t) = fig1();
        let spf = shortest_path_dag(&g, t);
        let dag = Dag::from_shortest_paths(&g, &spf).unwrap();
        // Kill all fractions: no node (other than t) has a defined hop count.
        let hops = expected_hops(&g, &dag, |_e| 0.0);
        assert_eq!(hops[t.index()], Some(0.0));
        assert_eq!(hops[s1.index()], None);
        assert_eq!(hops[v.index()], None);
    }
}
