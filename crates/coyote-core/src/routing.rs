//! Per-destination (PD) routing configurations.
//!
//! Section III of the paper: a routing configuration `φ` specifies, for each
//! destination `t` and edge `e = (u, v)`, the fraction `φ_t(e)` of the flow
//! to `t` entering `u` that is forwarded on `e`. Destination-based routing
//! requires the edges with `φ_t(e) > 0` to form a DAG rooted at `t`.
//!
//! [`PdRouting`] stores one [`Dag`] plus splitting ratios per destination
//! and implements the flow algebra the rest of the system needs:
//!
//! * `f_st(v)` — the fraction of the `s → t` demand that reaches `v`
//!   (`source_fractions`);
//! * aggregated per-destination node flow `F_t(v)` and per-edge loads for a
//!   demand matrix (`edge_loads`);
//! * the maximum link utilization `MxLU(φ, D)` (`max_link_utilization`);
//! * expected path lengths in hops (for the stretch experiment).

use coyote_graph::{Dag, EdgeId, Graph, NodeId};
use coyote_traffic::DemandMatrix;
use serde::{Deserialize, Serialize};

/// Numerical tolerance for "splitting ratios sum to one" checks.
pub const SPLIT_TOLERANCE: f64 = 1e-6;

/// A destination-based routing configuration: one DAG and one set of
/// splitting ratios per destination node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PdRouting {
    /// `dags[t]` is the DAG used for traffic destined to node `t`.
    dags: Vec<Dag>,
    /// `phi[t][e]` is the splitting ratio of edge `e` for destination `t`
    /// (zero for edges outside the DAG).
    phi: Vec<Vec<f64>>,
}

impl PdRouting {
    /// Builds a routing from per-destination DAGs with *uniform* splits:
    /// every node divides traffic equally among its DAG out-edges. This is
    /// the natural starting point of COYOTE's optimization and is exactly
    /// ECMP when the DAGs are the shortest-path DAGs.
    pub fn uniform(graph: &Graph, dags: Vec<Dag>) -> Self {
        let mut phi = Vec::with_capacity(dags.len());
        for dag in &dags {
            let mut ratios = vec![0.0; graph.edge_count()];
            for v in graph.nodes() {
                let out = dag.out_edges(v);
                if !out.is_empty() {
                    let share = 1.0 / out.len() as f64;
                    for &e in out {
                        ratios[e.index()] = share;
                    }
                }
            }
            phi.push(ratios);
        }
        Self { dags, phi }
    }

    /// Builds a routing with explicit ratios. Ratios are normalized per
    /// (destination, node): entries on edges outside the DAG are dropped and
    /// each node's outgoing ratios are rescaled to sum to one (nodes whose
    /// ratios are all zero fall back to uniform splitting).
    pub fn from_ratios(graph: &Graph, dags: Vec<Dag>, raw: Vec<Vec<f64>>) -> Self {
        assert_eq!(dags.len(), raw.len(), "one ratio vector per destination");
        let phi = vec![vec![0.0; graph.edge_count()]; dags.len()];
        let mut routing = Self { dags, phi };
        for (t, ratios) in raw.iter().enumerate() {
            routing.set_ratios(graph, NodeId(t), ratios);
        }
        routing
    }

    /// Number of destinations (== number of graph nodes).
    pub fn destination_count(&self) -> usize {
        self.dags.len()
    }

    /// The DAG used for destination `t`.
    pub fn dag(&self, t: NodeId) -> &Dag {
        &self.dags[t.index()]
    }

    /// All DAGs, indexed by destination.
    pub fn dags(&self) -> &[Dag] {
        &self.dags
    }

    /// Splitting ratio of `edge` for destination `t`.
    #[inline]
    pub fn ratio(&self, t: NodeId, edge: EdgeId) -> f64 {
        self.phi[t.index()][edge.index()]
    }

    /// All ratios for destination `t`, indexed by edge.
    pub fn ratios(&self, t: NodeId) -> &[f64] {
        &self.phi[t.index()]
    }

    /// Overwrites the ratios of destination `t` — the one normalization
    /// [`PdRouting::from_ratios`] applies to every destination.
    pub fn set_ratios(&mut self, graph: &Graph, t: NodeId, raw: &[f64]) {
        let dag = &self.dags[t.index()];
        let cleaned = &mut self.phi[t.index()];
        for r in cleaned.iter_mut() {
            *r = 0.0;
        }
        for v in graph.nodes() {
            let out = dag.out_edges(v);
            if out.is_empty() {
                continue;
            }
            let mut sum = 0.0;
            for &e in out {
                let r = raw.get(e.index()).copied().unwrap_or(0.0).max(0.0);
                cleaned[e.index()] = r;
                sum += r;
            }
            if sum > SPLIT_TOLERANCE {
                for &e in out {
                    cleaned[e.index()] /= sum;
                }
            } else {
                let share = 1.0 / out.len() as f64;
                for &e in out {
                    cleaned[e.index()] = share;
                }
            }
        }
    }

    /// Checks the PD-routing invariants: ratios are non-negative, zero
    /// outside the DAG, and sum to one over the out-edges of every node that
    /// participates in the DAG.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        for t in graph.nodes() {
            let dag = &self.dags[t.index()];
            let phi = &self.phi[t.index()];
            for e in graph.edges() {
                let r = phi[e.index()];
                if r < -SPLIT_TOLERANCE {
                    return Err(format!("negative ratio on edge {e} for destination {t}"));
                }
                if !dag.contains(e) && r.abs() > SPLIT_TOLERANCE {
                    return Err(format!(
                        "positive ratio on edge {e} outside the DAG of destination {t}"
                    ));
                }
            }
            for v in graph.nodes() {
                let out = dag.out_edges(v);
                if out.is_empty() {
                    continue;
                }
                let sum: f64 = out.iter().map(|&e| phi[e.index()]).sum();
                if (sum - 1.0).abs() > SPLIT_TOLERANCE {
                    return Err(format!(
                        "ratios at node {v} for destination {t} sum to {sum}, expected 1"
                    ));
                }
            }
        }
        Ok(())
    }

    /// `f_st(v)` for a fixed pair: the fraction of the `s → t` demand that
    /// enters each node `v`. `f_st(s) = 1`; other nodes accumulate
    /// `Σ_{e=(u,v)} f_st(u) · φ_t(e)` (Section III).
    pub fn source_fractions(&self, graph: &Graph, s: NodeId, t: NodeId) -> Vec<f64> {
        let dag = &self.dags[t.index()];
        let phi = &self.phi[t.index()];
        let mut frac = vec![0.0; graph.node_count()];
        frac[s.index()] = 1.0;
        if s == t {
            return frac;
        }
        // Sources-first topological order guarantees predecessors are final
        // before a node is read.
        for v in dag.topo_to_destination() {
            if v == s {
                continue;
            }
            let mut acc = 0.0;
            for &e in dag.in_edges(v) {
                let u = graph.edge(e).src;
                acc += frac[u.index()] * phi[e.index()];
            }
            if acc > 0.0 {
                frac[v.index()] += acc;
            }
        }
        frac
    }

    /// Aggregated node flow towards `t`: `F_t(v) = Σ_s d_st · f_st(v)`,
    /// computed in one pass over the DAG.
    pub fn destination_node_flow(&self, graph: &Graph, dm: &DemandMatrix, t: NodeId) -> Vec<f64> {
        let dag = &self.dags[t.index()];
        let phi = &self.phi[t.index()];
        let mut flow = vec![0.0; graph.node_count()];
        for s in graph.nodes() {
            if s != t {
                flow[s.index()] = dm.get(s, t);
            }
        }
        for v in dag.topo_to_destination() {
            let mut acc = 0.0;
            for &e in dag.in_edges(v) {
                let u = graph.edge(e).src;
                acc += flow[u.index()] * phi[e.index()];
            }
            flow[v.index()] += acc;
        }
        flow
    }

    /// Per-edge loads induced by routing `dm` with this configuration: the
    /// active destinations' [`add_destination_loads`](Self::add_destination_loads)
    /// in ascending order, from `0.0`.
    pub fn edge_loads(&self, graph: &Graph, dm: &DemandMatrix) -> Vec<f64> {
        let mut loads = vec![0.0; graph.edge_count()];
        for t in dm.active_destinations() {
            self.add_destination_loads(graph, dm, t, &mut loads);
        }
        loads
    }

    /// Adds destination `t`'s share of the edge loads, `F_t(src(e)) · φ_t(e)`
    /// on every edge `e` of its DAG, to `loads`.
    pub fn add_destination_loads(
        &self,
        graph: &Graph,
        dm: &DemandMatrix,
        t: NodeId,
        loads: &mut [f64],
    ) {
        let flow = self.destination_node_flow(graph, dm, t);
        let dag = &self.dags[t.index()];
        let phi = &self.phi[t.index()];
        for e in dag.edges() {
            let u = graph.edge(e).src;
            loads[e.index()] += flow[u.index()] * phi[e.index()];
        }
    }

    /// Maximum link utilization `MxLU(φ, D) = max_e load(e) / c_e`.
    pub fn max_link_utilization(&self, graph: &Graph, dm: &DemandMatrix) -> f64 {
        self.edge_loads(graph, dm)
            .iter()
            .zip(graph.edges())
            .map(|(&load, e)| load / graph.capacity(e))
            .fold(0.0, f64::max)
    }

    /// Expected number of hops from `s` to `t` under this routing, or `None`
    /// if `s` sends no traffic towards `t` in the DAG.
    pub fn expected_hops(&self, graph: &Graph, s: NodeId, t: NodeId) -> Option<f64> {
        if s == t {
            return Some(0.0);
        }
        let dag = &self.dags[t.index()];
        let phi = &self.phi[t.index()];
        let hops = coyote_graph::path::expected_hops(graph, dag, |e| phi[e.index()]);
        hops[s.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::example_fig1::{self, Fig1};
    use coyote_graph::spf::shortest_path_dag;

    fn all_spf_dags(g: &Graph) -> Vec<Dag> {
        g.nodes()
            .map(|t| Dag::from_shortest_paths(g, &shortest_path_dag(g, t)).unwrap())
            .collect()
    }

    #[test]
    fn uniform_routing_is_valid_and_matches_ecmp_splits() {
        let (g, Fig1 { s1, t, .. }) = example_fig1::topology();
        let routing = PdRouting::uniform(&g, all_spf_dags(&g));
        routing.validate(&g).unwrap();
        // s1 has two equal-cost next hops towards t.
        let dag = routing.dag(t);
        for &e in dag.out_edges(s1) {
            assert!((routing.ratio(t, e) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn ecmp_loads_with_unit_weights_on_fig1() {
        // With unit OSPF weights the shortest-path DAG towards t is
        // {s1->s2, s1->v, s2->t, v->t}. For demands (2, 0) ECMP at s1 sends
        // one unit via s2 and one via v, so every link on the DAG carries
        // exactly one unit. (The paper's 3/2 figure for Fig. 1b assumes
        // weights under which s2 also splits; that configuration is covered
        // by the oblivious-ratio tests in `example_fig1`.)
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let routing = PdRouting::uniform(&g, all_spf_dags(&g));
        let mut dm = DemandMatrix::zeros(g.node_count());
        dm.set(s1, t, 2.0);
        let loads = routing.edge_loads(&g, &dm);
        let s2t = g.find_edge(s2, t).unwrap();
        let vt = g.find_edge(v, t).unwrap();
        let s1s2 = g.find_edge(s1, s2).unwrap();
        assert!((loads[s1s2.index()] - 1.0).abs() < 1e-12);
        assert!((loads[s2t.index()] - 1.0).abs() < 1e-12);
        assert!((loads[vt.index()] - 1.0).abs() < 1e-12);
        assert!((routing.max_link_utilization(&g, &dm) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn source_fractions_sum_correctly_along_the_dag() {
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let routing = PdRouting::uniform(&g, all_spf_dags(&g));
        let f = routing.source_fractions(&g, s1, t);
        assert_eq!(f[s1.index()], 1.0);
        assert!((f[s2.index()] - 0.5).abs() < 1e-12);
        assert!((f[v.index()] - 0.5).abs() < 1e-12);
        assert!((f[t.index()] - 1.0).abs() < 1e-12);
        // Self-pair is trivially 1 at the source.
        let f_self = routing.source_fractions(&g, t, t);
        assert_eq!(f_self[t.index()], 1.0);
        assert_eq!(f_self[s2.index()], 0.0);
    }

    #[test]
    fn from_ratios_normalizes_and_rejects_off_dag_entries() {
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let dags = all_spf_dags(&g);
        let dag_t = &dags[t.index()];
        let s1s2 = g.find_edge(s1, s2).unwrap();
        let s1v = g.find_edge(s1, v).unwrap();
        let s2v = g.find_edge(s2, v).unwrap(); // NOT in the shortest-path DAG
        let mut raw = vec![vec![0.0; g.edge_count()]; g.node_count()];
        raw[t.index()][s1s2.index()] = 2.0;
        raw[t.index()][s1v.index()] = 6.0;
        raw[t.index()][s2v.index()] = 5.0; // must be ignored
        assert!(!dag_t.contains(s2v));
        let routing = PdRouting::from_ratios(&g, dags, raw);
        routing.validate(&g).unwrap();
        assert!((routing.ratio(t, s1s2) - 0.25).abs() < 1e-12);
        assert!((routing.ratio(t, s1v) - 0.75).abs() < 1e-12);
        assert_eq!(routing.ratio(t, s2v), 0.0);
    }

    #[test]
    fn set_ratios_falls_back_to_uniform_for_all_zero_nodes() {
        let (g, Fig1 { s1, t, .. }) = example_fig1::topology();
        let mut routing = PdRouting::uniform(&g, all_spf_dags(&g));
        let raw = vec![0.0; g.edge_count()];
        routing.set_ratios(&g, t, &raw);
        routing.validate(&g).unwrap();
        let out = routing.dag(t).out_edges(s1).to_vec();
        for e in out {
            assert!((routing.ratio(t, e) - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn skewed_ratios_shift_load_as_in_fig1c() {
        // Fig. 1c: s1 splits 2/3 towards s2 and 1/3 towards v (via the DAG of
        // Fig 1b), s2 and v forward everything to t. For demands (2, 0) the
        // load on (s2,t) is 4/3 and on (v,t) is 2/3.
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let dags = all_spf_dags(&g);
        let s1s2 = g.find_edge(s1, s2).unwrap();
        let s1v = g.find_edge(s1, v).unwrap();
        let mut raw = vec![vec![0.0; g.edge_count()]; g.node_count()];
        raw[t.index()][s1s2.index()] = 2.0 / 3.0;
        raw[t.index()][s1v.index()] = 1.0 / 3.0;
        let routing = PdRouting::from_ratios(&g, dags, raw);
        let mut dm = DemandMatrix::zeros(g.node_count());
        dm.set(s1, t, 2.0);
        let loads = routing.edge_loads(&g, &dm);
        let s2t = g.find_edge(s2, t).unwrap();
        let vt = g.find_edge(v, t).unwrap();
        assert!((loads[s2t.index()] - 4.0 / 3.0).abs() < 1e-9);
        assert!((loads[vt.index()] - 2.0 / 3.0).abs() < 1e-9);
        assert!((routing.max_link_utilization(&g, &dm) - 4.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn expected_hops_under_ecmp() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = PdRouting::uniform(&g, all_spf_dags(&g));
        assert_eq!(routing.expected_hops(&g, t, t), Some(0.0));
        assert!((routing.expected_hops(&g, s2, t).unwrap() - 1.0).abs() < 1e-12);
        assert!((routing.expected_hops(&g, s1, t).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_catches_corrupted_ratios() {
        let (g, Fig1 { t, .. }) = example_fig1::topology();
        let mut routing = PdRouting::uniform(&g, all_spf_dags(&g));
        // Corrupt: put mass on an edge outside the DAG of t.
        let s2v = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        assert!(!routing.dag(t).contains(s2v));
        routing.phi[t.index()][s2v.index()] = 0.3;
        assert!(routing.validate(&g).is_err());
    }

    #[test]
    fn multi_destination_loads_superimpose() {
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let routing = PdRouting::uniform(&g, all_spf_dags(&g));
        let mut dm = DemandMatrix::zeros(g.node_count());
        dm.set(s1, t, 1.0);
        dm.set(s1, v, 1.0);
        let loads_both = routing.edge_loads(&g, &dm);
        let mut dm_a = DemandMatrix::zeros(g.node_count());
        dm_a.set(s1, t, 1.0);
        let mut dm_b = DemandMatrix::zeros(g.node_count());
        dm_b.set(s1, v, 1.0);
        let la = routing.edge_loads(&g, &dm_a);
        let lb = routing.edge_loads(&g, &dm_b);
        for e in g.edges() {
            assert!(
                (loads_both[e.index()] - la[e.index()] - lb[e.index()]).abs() < 1e-12,
                "loads are not additive on edge {e}"
            );
        }
        let _ = s2;
    }
}
