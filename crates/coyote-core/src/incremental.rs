//! The destination-separable re-optimization layer behind `coyote-serve`.
//!
//! The joint demands-aware optimum ([`crate::opt_mcf`]) couples all
//! destinations through shared capacity constraints, so a change to one
//! demand column would force a full re-solve — and worse, the re-solved
//! routing for *untouched* destinations could legitimately change. A
//! long-running controller that promises "applying the emitted delta is
//! bit-identical to a cold recompile" therefore needs a policy whose
//! solution for destination `t` is a pure function of `t`'s own inputs.
//!
//! This module provides exactly that: per destination `t`, minimize the
//! maximum link utilization of `t`'s *own* demand column routed inside
//! `t`'s (augmented) DAG:
//!
//! ```text
//! minimize α_t
//! s.t.  ∀ v ≠ t:  Σ_{e ∈ out_dag(v)} g(e) − Σ_{e ∈ in_dag(v)} g(e) = d_vt
//!       ∀ e ∈ dag(t):  g(e) ≤ α_t · c_e
//!       g ≥ 0
//! ```
//!
//! The solution depends only on `(graph, dag_t, demand column t)` —
//! *separability* — so an incremental engine can re-solve just the dirty
//! destinations and copy every other solution over unchanged, and a cold
//! recompile provably reproduces the same routing bit for bit. The LP is
//! [`crate::opt_mcf`]'s, built for one commodity inside one DAG — this
//! module owns no model of its own — and every solve is a one-shot solve
//! that starts from the destination's shortest-path tree (a pure function
//! of the same three inputs) and skips phase one: a demand update moves the
//! right-hand side, which an `LpSession` (objective changes only) cannot
//! express.
//!
//! Like [`crate::opt_mcf::split_routable_within_dags`], demand from sources
//! with no DAG out-edge (failures can partition a topology) is masked out
//! and reported rather than turned into an `Infeasible` error.

use crate::error::CoreError;
use crate::opt_mcf::{routable_within, solve_commodities, EdgeScope, Reads};
use coyote_graph::{Dag, Graph, NodeId};
use coyote_traffic::DemandMatrix;

/// The per-destination optimum: flows for one destination's demand column.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DestinationSolve {
    /// Flow towards the destination on each graph edge (dense over the
    /// graph's edge ids; zero outside the DAG).
    pub flows: Vec<f64>,
    /// The optimal `α_t`: the max utilization this column alone induces.
    pub max_utilization: f64,
    /// Demand volume masked out because its source has no DAG out-edge.
    pub unroutable_volume: f64,
    /// Number of sources whose demand towards `t` was masked out.
    pub unroutable_sources: usize,
}

/// Solves the single-destination min-max-utilization LP for `t` within its
/// DAG: mask the sources the DAG cannot carry, then hand the column to the
/// flow-LP builder as its only commodity.
pub fn solve_destination(
    graph: &Graph,
    dag: &Dag,
    dm: &DemandMatrix,
    t: NodeId,
) -> Result<DestinationSolve, CoreError> {
    let _span = coyote_obs::span("core.incremental.solve");
    coyote_obs::counter("core.incremental.solves", 1);
    if dm.node_count() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "demand matrix has {} nodes, graph has {}",
            dm.node_count(),
            graph.node_count()
        )));
    }
    if dag.destination() != t {
        return Err(CoreError::DimensionMismatch(format!(
            "DAG is rooted at {} but destination {} was requested",
            dag.destination().index(),
            t.index()
        )));
    }

    let mut solve = DestinationSolve::default();
    let mut column = vec![0.0; graph.node_count()];
    let mut active = false;
    for s in graph.nodes() {
        let d = dm.get(s, t);
        if s == t || d <= 0.0 {
            continue;
        }
        if routable_within(dag, s) {
            column[s.index()] = d;
            active = true;
        } else {
            solve.unroutable_volume += d;
            solve.unroutable_sources += 1;
        }
    }
    let commodity = if active { vec![t] } else { Vec::new() };
    let scope = EdgeScope::Dag(dag);
    let mut sol = solve_commodities(graph, commodity, &[column], scope, Reads::Flows)?;
    solve.max_utilization = sol.max_utilization;
    solve.flows = sol
        .flows
        .pop()
        .unwrap_or_else(|| vec![0.0; graph.edge_count()]);
    Ok(solve)
}

/// Destinations whose demand column differs between `old` and `new`
/// (bit-exact comparison), in ascending node order — the dirty set of a
/// demand-matrix update.
pub fn demand_dirty_destinations(old: &DemandMatrix, new: &DemandMatrix) -> Vec<NodeId> {
    // An entry outside a matrix's dimension reads as no demand.
    let bits = |dm: &DemandMatrix, s: usize, t: usize| {
        let n = dm.node_count();
        let entry = if s < n && t < n {
            dm.get(NodeId(s), NodeId(t))
        } else {
            0.0
        };
        entry.to_bits()
    };
    let n = old.node_count().max(new.node_count());
    (0..n)
        .filter(|&t| (0..n).any(|s| bits(old, s, t) != bits(new, s, t)))
        .map(NodeId)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_builder::{build_all_dags, DagMode};
    use crate::example_fig1::{self, Fig1};
    use crate::routing::PdRouting;
    use coyote_graph::EdgeId;

    /// Solves every destination independently and assembles the separable
    /// routing — the *cold* protocol the incremental engine must reproduce.
    fn separable_routing(
        graph: &Graph,
        dags: &[Dag],
        dm: &DemandMatrix,
    ) -> (PdRouting, Vec<DestinationSolve>) {
        let solves: Vec<DestinationSolve> = graph
            .nodes()
            .map(|t| solve_destination(graph, &dags[t.index()], dm, t).unwrap())
            .collect();
        let raw: Vec<Vec<f64>> = solves.iter().map(|s| s.flows.clone()).collect();
        (PdRouting::from_ratios(graph, dags.to_vec(), raw), solves)
    }

    /// The daemon's start-up scenario for a zoo topology, optionally with the
    /// physical link of edge 0 down or with router 3 cut off.
    fn daemon_scenario(name: &str, cut: Option<bool>) -> (Graph, Vec<Dag>, DemandMatrix) {
        let mut g = coyote_topology::zoo::by_name(name)
            .unwrap()
            .to_graph()
            .unwrap();
        g.set_inverse_capacity_weights(10.0);
        let dm = coyote_traffic::GravityModel::with_total(100.0).generate(&g);
        let (a, b) = g.endpoints(EdgeId(0));
        let dead: Vec<EdgeId> = g
            .edges()
            .filter(|&e| match (cut, g.endpoints(e)) {
                (None, _) => false,
                (Some(false), ends) => ends == (a, b) || ends == (b, a),
                (Some(true), (u, v)) => u == NodeId(3) || v == NodeId(3),
            })
            .collect();
        let g = g.without_edges(&dead);
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        (g, dags, dm)
    }

    /// FNV-1a over the bits of every destination's α and flows.
    fn digest(solves: &[DestinationSolve]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for s in solves {
            for x in std::iter::once(&s.max_utilization).chain(&s.flows) {
                h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// `(topology, cut, masked sources, digest)` of every destination's solve.
    /// The digests were first recorded from this module's hand-built LP when
    /// it agreed `to_bits` with the shared builder on all 252 solves (the
    /// differential that licensed deleting it), and re-recorded when the
    /// flows began to come from the shortest-path-tree start: the solve
    /// lands on another optimal vertex. What proves the objective did not
    /// move is the other half — each α must stay the in-DAG optimum of its
    /// column alone, against `optu_within_dags`, which is still the cold
    /// solve.
    #[test]
    fn every_daemon_solve_is_pinned_to_the_hand_built_lp_it_replaced() {
        let pins: [(&str, Option<bool>, usize, u64); 15] = [
            ("abilene", None, 0, 0xad928ebeea79632d),
            ("abilene", Some(false), 0, 0x1ce3f7df36dd56e1),
            ("abilene", Some(true), 20, 0xd8f41719032d18ff),
            ("nsf", None, 0, 0xd0de55ed89a0ba7d),
            ("nsf", Some(false), 0, 0xffce7ee70a8264af),
            ("nsf", Some(true), 26, 0x9079ccc12e03d8ae),
            ("germany", None, 0, 0x08be01153a6ea86b),
            ("germany", Some(false), 0, 0xb11cfdd781803a95),
            ("germany", Some(true), 32, 0xc92c376fbf79fb3f),
            ("att", None, 0, 0x94f80270de7b7f44),
            ("att", Some(false), 0, 0xe08c6b54fea24419),
            ("att", Some(true), 38, 0x7b2b39bd30f1e59d),
            ("geant", None, 0, 0x6252d04083089ff0),
            ("geant", Some(false), 0, 0xc80f6f4295797cab),
            ("geant", Some(true), 42, 0x26b4a00432b813c2),
        ];
        for (name, cut, masked, pinned) in pins {
            let (g, dags, dm) = daemon_scenario(name, cut);
            let (_, solves) = separable_routing(&g, &dags, &dm);
            let unroutable: usize = solves.iter().map(|s| s.unroutable_sources).sum();
            assert_eq!(
                (unroutable, digest(&solves)),
                (masked, pinned),
                "{name} {cut:?}"
            );
            for (t, solve) in g.nodes().zip(&solves) {
                let mut column = DemandMatrix::zeros(g.node_count());
                for s in g
                    .nodes()
                    .filter(|&s| s != t && routable_within(&dags[t.index()], s))
                {
                    column.set(s, t, dm.get(s, t));
                }
                let joint = crate::opt_mcf::optu_within_dags(&g, &dags, &column).unwrap();
                assert!(
                    (solve.max_utilization - joint).abs() < 1e-9,
                    "{name} {cut:?} {t}"
                );
            }
        }
    }

    #[test]
    fn single_destination_solve_matches_the_joint_optimum_for_one_column() {
        // With only one active destination the separable LP *is* the joint
        // MCF, so the objectives must agree.
        let (g, Fig1 { s1, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 2.0);
        let solve = solve_destination(&g, &dags[t.index()], &dm, t).unwrap();
        let joint = crate::opt_mcf::optu_within_dags(&g, &dags, &dm).unwrap();
        assert!((solve.max_utilization - joint).abs() < 1e-6);
        // Conservation: everything s1 sends arrives.
        let outflow: f64 = g
            .out_edges(s1)
            .iter()
            .map(|&e| solve.flows[e.index()])
            .sum();
        let inflow: f64 = g.in_edges(s1).iter().map(|&e| solve.flows[e.index()]).sum();
        assert!((outflow - inflow - 2.0).abs() < 1e-6);
    }

    #[test]
    fn solutions_are_separable_across_columns() {
        // Changing another destination's column must not change t's solve.
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 0.5);
        let mut other = dm.clone();
        other.set(s1, v, 7.0);
        let a = solve_destination(&g, &dags[t.index()], &dm, t).unwrap();
        let b = solve_destination(&g, &dags[t.index()], &other, t).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unroutable_sources_are_masked_not_fatal() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        // Hand the solver a DAG with no out-edges for s1 by failing both of
        // s1's links: rebuild on a pruned graph, then ask for s1's demand.
        let dead: Vec<_> = g
            .out_edges(s1)
            .iter()
            .chain(g.in_edges(s1))
            .copied()
            .collect();
        let pruned = g.without_edges(&dead);
        let pruned_dags = build_all_dags(&pruned, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 3.0);
        dm.set(s2, t, 1.0);
        let solve = solve_destination(&pruned, &pruned_dags[t.index()], &dm, t).unwrap();
        assert_eq!(solve.unroutable_sources, 1);
        assert!((solve.unroutable_volume - 3.0).abs() < 1e-12);
        assert!(solve.max_utilization > 0.0, "s2's demand still routes");
    }

    #[test]
    fn demand_dirty_set_is_exactly_the_changed_columns() {
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let mut old = DemandMatrix::zeros(g.node_count());
        old.set(s1, t, 1.0);
        old.set(s2, v, 2.0);
        let mut new = old.clone();
        assert!(demand_dirty_destinations(&old, &new).is_empty());
        new.set(s1, t, 1.5);
        new.set(s1, s2, 0.25);
        assert_eq!(demand_dirty_destinations(&old, &new), vec![s2, t]);
        // Entries outside the smaller matrix read as no demand.
        let mut grown = DemandMatrix::zeros(g.node_count() + 1);
        grown.set(s1, NodeId(4), 1.0);
        assert_eq!(
            demand_dirty_destinations(&DemandMatrix::zeros(4), &grown),
            vec![NodeId(4)]
        );
    }

    #[test]
    fn separable_routing_round_trips_through_pd_routing() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 1.0);
        let (routing, solves) = separable_routing(&g, &dags, &dm);
        routing.validate(&g).unwrap();
        assert_eq!(solves.len(), 4);
        let util = routing.max_link_utilization(&g, &dm);
        // The realized routing can be no better than the per-column optima.
        let worst_alpha = solves
            .iter()
            .map(|s| s.max_utilization)
            .fold(0.0f64, f64::max);
        assert!(util + 1e-6 >= worst_alpha);
    }
}
