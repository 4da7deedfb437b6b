//! Random inputs shared by the property suites of this crate.
#![allow(dead_code)] // each suite uses the helpers it needs

use coyote_core::{build_all_dags, DagMode, PdRouting};
use coyote_graph::{Graph, NodeId};

/// A random connected backbone-like graph: a ring over `n` nodes plus
/// `extra` chords, capacities cycled from `caps`.
pub fn random_graph(n: usize, extra: &[(usize, usize)], caps: &[f64]) -> Graph {
    let mut g = Graph::with_nodes(n);
    let mut cap_iter = caps.iter().copied().cycle();
    for i in 0..n {
        let c = cap_iter.next().unwrap();
        g.add_bidirectional_edge(NodeId(i), NodeId((i + 1) % n), c, 1.0)
            .unwrap();
    }
    for &(a, b) in extra {
        let (a, b) = (a % n, b % n);
        if a != b && g.find_edge(NodeId(a), NodeId(b)).is_none() {
            let c = cap_iter.next().unwrap();
            g.add_bidirectional_edge(NodeId(a), NodeId(b), c, 1.0)
                .unwrap();
        }
    }
    g.set_inverse_capacity_weights(10.0);
    g
}

/// A random per-destination DAG routing whose splits force the Fibbing
/// controller to inject lies.
pub fn random_routing(g: &Graph, raw: &[f64]) -> PdRouting {
    let dags = build_all_dags(g, DagMode::Augmented).unwrap();
    let mut ratios = Vec::with_capacity(dags.len());
    let mut raw_iter = raw.iter().copied().cycle();
    for _ in 0..dags.len() {
        let per_edge: Vec<f64> = (0..g.edge_count())
            .map(|_| raw_iter.next().unwrap())
            .collect();
        ratios.push(per_edge);
    }
    PdRouting::from_ratios(g, dags, ratios)
}
