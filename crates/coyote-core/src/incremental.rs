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
//! recompile provably reproduces the same routing bit for bit. Warm starts
//! go through [`PhaseOneCache`] (phase-one replay), which `coyote-lp`
//! guarantees to be bit-identical to a cold solve.
//!
//! Like [`crate::opt_mcf::split_routable_within_dags`], demand from sources
//! with no DAG out-edge (failures can partition a topology) is masked out
//! and reported rather than turned into an `Infeasible` error.

use crate::error::CoreError;
use crate::routing::PdRouting;
use coyote_graph::{Dag, Graph, NodeId, EdgeId};
use coyote_lp::{LpProblem, PhaseOneCache, Relation, Sense, VarId};
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
/// DAG. `cache` carries the phase-one replay between solves of the same
/// destination; the result is bit-identical with a fresh or a primed cache.
pub fn solve_destination(
    graph: &Graph,
    dag: &Dag,
    dm: &DemandMatrix,
    t: NodeId,
    cache: &mut PhaseOneCache,
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

    let mut solve = DestinationSolve {
        flows: vec![0.0; graph.edge_count()],
        ..DestinationSolve::default()
    };

    // Mask demand whose source cannot enter the DAG (mirrors
    // split_routable_within_dags, but for a single column).
    let mut column = vec![0.0; graph.node_count()];
    let mut active = false;
    for s in graph.nodes() {
        if s == t {
            continue;
        }
        let d = dm.get(s, t);
        if d <= 0.0 {
            continue;
        }
        if dag.out_edges(s).is_empty() {
            solve.unroutable_volume += d;
            solve.unroutable_sources += 1;
        } else {
            column[s.index()] = d;
            active = true;
        }
    }
    let dag_edges: Vec<EdgeId> = dag.edges();
    if !active || dag_edges.is_empty() {
        return Ok(solve);
    }

    let mut lp = LpProblem::new(Sense::Minimize);
    let alpha = lp.add_nonneg_var("alpha", 1.0);
    let mut flow_vars: Vec<Option<VarId>> = vec![None; graph.edge_count()];
    for &e in &dag_edges {
        flow_vars[e.index()] = Some(lp.add_nonneg_var(format!("g_{}", e.index()), 0.0));
    }

    // Flow conservation at every non-destination node touched by the DAG.
    for v in graph.nodes() {
        if v == t {
            continue;
        }
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for &e in dag.out_edges(v) {
            if let Some(var) = flow_vars[e.index()] {
                terms.push((var, 1.0));
            }
        }
        for &e in dag.in_edges(v) {
            if let Some(var) = flow_vars[e.index()] {
                terms.push((var, -1.0));
            }
        }
        if terms.is_empty() {
            continue;
        }
        lp.add_constraint(
            format!("cons_{}", v.index()),
            &terms,
            Relation::Eq,
            column[v.index()],
        );
    }

    // Capacity: flow on each DAG edge at most alpha * capacity.
    for &e in &dag_edges {
        let var = flow_vars[e.index()].expect("DAG edge has a flow variable");
        lp.add_constraint(
            format!("cap_{}", e.index()),
            &[(var, 1.0), (alpha, -graph.capacity(e))],
            Relation::Le,
            0.0,
        );
    }

    let sol = lp.solve_cached(cache).map_err(|e| match e {
        coyote_lp::LpError::Infeasible { .. } => CoreError::UnroutableDemand {
            detail: format!(
                "destination {}: flow conservation cannot be satisfied inside its DAG",
                t.index()
            ),
        },
        other => CoreError::Lp(other),
    })?;

    for &e in &dag_edges {
        if let Some(var) = flow_vars[e.index()] {
            solve.flows[e.index()] = sol.value(var).max(0.0);
        }
    }
    solve.max_utilization = sol.value(alpha).max(0.0);
    Ok(solve)
}

/// Destinations whose demand column differs between `old` and `new`
/// (bit-exact comparison), in ascending node order — the dirty set of a
/// demand-matrix update.
pub fn demand_dirty_destinations(old: &DemandMatrix, new: &DemandMatrix) -> Vec<NodeId> {
    let n = old.node_count().min(new.node_count());
    let mut dirty: Vec<NodeId> = Vec::new();
    for ti in 0..n.max(old.node_count()).max(new.node_count()) {
        let t = NodeId(ti);
        let changed = (0..old.node_count().max(new.node_count())).any(|si| {
            let s = NodeId(si);
            let before = if si < old.node_count() && ti < old.node_count() {
                old.get(s, t)
            } else {
                0.0
            };
            let after = if si < new.node_count() && ti < new.node_count() {
                new.get(s, t)
            } else {
                0.0
            };
            before.to_bits() != after.to_bits()
        });
        if changed {
            dirty.push(t);
        }
    }
    dirty
}

/// Solves every destination independently and assembles the separable
/// routing — the *cold* protocol the incremental engine must reproduce.
/// `caches` must hold one [`PhaseOneCache`] per node (results are
/// bit-identical whether the caches are fresh or primed).
pub fn separable_routing(
    graph: &Graph,
    dags: &[Dag],
    dm: &DemandMatrix,
    caches: &mut [PhaseOneCache],
) -> Result<(PdRouting, Vec<DestinationSolve>), CoreError> {
    if dags.len() != graph.node_count() || caches.len() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "{} DAGs / {} caches for {} nodes",
            dags.len(),
            caches.len(),
            graph.node_count()
        )));
    }
    let mut solves = Vec::with_capacity(graph.node_count());
    for t in graph.nodes() {
        solves.push(solve_destination(
            graph,
            &dags[t.index()],
            dm,
            t,
            &mut caches[t.index()],
        )?);
    }
    let raw: Vec<Vec<f64>> = solves.iter().map(|s| s.flows.clone()).collect();
    Ok((PdRouting::from_ratios(graph, dags.to_vec(), raw), solves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_builder::{build_all_dags, DagMode};

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
    fn single_destination_solve_matches_the_joint_optimum_for_one_column() {
        // With only one active destination the separable LP *is* the joint
        // MCF, so the objectives must agree.
        let (g, s1, _, _, t) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 2.0);
        let mut cache = PhaseOneCache::new();
        let solve = solve_destination(&g, &dags[t.index()], &dm, t, &mut cache).unwrap();
        let joint = crate::opt_mcf::optu_within_dags(&g, &dags, &dm).unwrap();
        assert!((solve.max_utilization - joint).abs() < 1e-6);
        // Conservation: everything s1 sends arrives.
        let outflow: f64 = g.out_edges(s1).iter().map(|&e| solve.flows[e.index()]).sum();
        let inflow: f64 = g.in_edges(s1).iter().map(|&e| solve.flows[e.index()]).sum();
        assert!((outflow - inflow - 2.0).abs() < 1e-6);
    }

    #[test]
    fn warm_cache_is_bit_identical_to_cold() {
        let (g, s1, s2, _, t) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 0.5);
        let mut warm = PhaseOneCache::new();
        // Prime the cache with a different column, then re-solve.
        let _ = solve_destination(&g, &dags[t.index()], &dm.scaled(3.0), t, &mut warm).unwrap();
        let warm_solve = solve_destination(&g, &dags[t.index()], &dm, t, &mut warm).unwrap();
        let cold_solve =
            solve_destination(&g, &dags[t.index()], &dm, t, &mut PhaseOneCache::new()).unwrap();
        assert_eq!(warm_solve, cold_solve, "phase-one replay must not drift");
    }

    #[test]
    fn solutions_are_separable_across_columns() {
        // Changing another destination's column must not change t's solve.
        let (g, s1, s2, v, t) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 0.5);
        let mut other = dm.clone();
        other.set(s1, v, 7.0);
        let a = solve_destination(&g, &dags[t.index()], &dm, t, &mut PhaseOneCache::new()).unwrap();
        let b =
            solve_destination(&g, &dags[t.index()], &other, t, &mut PhaseOneCache::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unroutable_sources_are_masked_not_fatal() {
        let (g, s1, s2, v, t) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
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
        let solve =
            solve_destination(&pruned, &pruned_dags[t.index()], &dm, t, &mut PhaseOneCache::new())
                .unwrap();
        assert_eq!(solve.unroutable_sources, 1);
        assert!((solve.unroutable_volume - 3.0).abs() < 1e-12);
        assert!(solve.max_utilization > 0.0, "s2's demand still routes");
        let _ = (dags, v);
    }

    #[test]
    fn demand_dirty_set_is_exactly_the_changed_columns() {
        let (g, s1, s2, v, t) = fig1();
        let mut old = DemandMatrix::zeros(g.node_count());
        old.set(s1, t, 1.0);
        old.set(s2, v, 2.0);
        let mut new = old.clone();
        assert!(demand_dirty_destinations(&old, &new).is_empty());
        new.set(s1, t, 1.5);
        new.set(s1, s2, 0.25);
        assert_eq!(demand_dirty_destinations(&old, &new), vec![s2, t]);
    }

    #[test]
    fn separable_routing_round_trips_through_pd_routing() {
        let (g, s1, s2, _, t) = fig1();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 1.0);
        let mut caches: Vec<PhaseOneCache> =
            (0..g.node_count()).map(|_| PhaseOneCache::new()).collect();
        let (routing, solves) = separable_routing(&g, &dags, &dm, &mut caches).unwrap();
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
