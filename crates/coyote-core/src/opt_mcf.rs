//! The demands-aware optimum `OPTU(D)` as a linear program.
//!
//! Section III: `OPTU(D)` is the smallest maximum link utilization any
//! per-destination routing can achieve for the demand matrix `D`. Because a
//! per-destination routing is equivalent to one aggregated flow per
//! destination, the optimum is a multicommodity-flow LP with one commodity
//! per destination:
//!
//! ```text
//! minimize α
//! s.t.  ∀ t, ∀ v ≠ t:  Σ_{e ∈ out(v)} g_t(e) − Σ_{e ∈ in(v)} g_t(e) = d_vt
//!       ∀ e:           Σ_t g_t(e) ≤ α · c_e
//!       g ≥ 0
//! ```
//!
//! Two variants are provided: the unrestricted optimum (any edge usable) and
//! the optimum *within a given set of per-destination DAGs*, which is the
//! normalizing denominator used throughout the paper's evaluation ("the
//! demands-aware optimum within the same DAGs", Section VI-B) and also
//! yields the **Base** baseline — the optimal static routing for the base
//! demand matrix, later evaluated on other matrices.

use crate::error::CoreError;
use crate::routing::PdRouting;
use coyote_graph::{Dag, Graph, NodeId};
use coyote_lp::{LpProblem, Relation, Sense, VarId};
use coyote_traffic::DemandMatrix;

/// Result of a demands-aware optimization.
#[derive(Debug, Clone)]
pub struct McfSolution {
    /// The optimal maximum link utilization.
    pub max_utilization: f64,
    /// Flow towards each active destination on each edge:
    /// `flows[k][e]` for the k-th active destination.
    pub flows: Vec<Vec<f64>>,
    /// The active destinations, in the same order as `flows`.
    pub destinations: Vec<NodeId>,
    /// Per edge, the length `y_e ≥ 0` the optimum prices its capacity at:
    /// the capacity row's dual, negated (zero for an edge no commodity may
    /// use). `None` unless the solve [`Reads::Lengths`].
    pub(crate) lengths: Option<Vec<f64>>,
}

/// Edge set abstraction: every graph edge (unrestricted), the edges of each
/// destination's DAG, or one DAG shared by every commodity handed in (the
/// daemon's single-destination solve).
pub(crate) enum EdgeScope<'a> {
    All,
    Dags(&'a [Dag]),
    Dag(&'a Dag),
}

impl EdgeScope<'_> {
    /// The DAG `t` is confined to, `None` for every edge.
    pub(crate) fn dag(&self, t: NodeId) -> Option<&Dag> {
        match self {
            EdgeScope::All => None,
            EdgeScope::Dags(dags) => Some(&dags[t.index()]),
            EdgeScope::Dag(dag) => Some(dag),
        }
    }
}

/// The flow block of every flow LP in this crate, laid out in one place.
/// Per commodity `(label, t)`: one non-negative, zero-cost column
/// `g_label(e)` for each edge `scope` lets `t` use, ascending by id. Then,
/// commodity by commodity and node by node (`t` itself skipped), the net
/// outflow of `v` — `+1` per usable out-edge, `−1` per usable in-edge,
/// possibly nothing — goes to `conserve(lp, k, v, terms)`, which closes it
/// into the caller's conservation row. Returns the columns as `[k][edge]`.
pub(crate) fn flow_block(
    lp: &mut LpProblem,
    graph: &Graph,
    scope: &EdgeScope<'_>,
    commodities: &[(usize, NodeId)],
    mut conserve: impl FnMut(
        &mut LpProblem,
        usize,
        NodeId,
        &mut Vec<(VarId, f64)>,
    ) -> Result<(), CoreError>,
) -> Result<Vec<Vec<Option<VarId>>>, CoreError> {
    let mut columns = Vec::with_capacity(commodities.len());
    for &(label, t) in commodities {
        let mut per_edge = vec![None; graph.edge_count()];
        let usable = scope
            .dag(t)
            .map_or_else(|| graph.edges().collect(), Dag::edges);
        for e in usable {
            per_edge[e.index()] = Some(lp.add_nonneg_var(("g", label, e.index()), 0.0));
        }
        columns.push(per_edge);
    }
    // One row buffer for the whole block.
    let mut terms: Vec<(VarId, f64)> = Vec::new();
    for (k, &(_, t)) in commodities.iter().enumerate() {
        for v in graph.nodes().filter(|&v| v != t) {
            // Usable out- and in-edges of `v`, each ascending by id.
            let (out, inc) = match scope.dag(t) {
                Some(dag) => (dag.out_edges(v), dag.in_edges(v)),
                None => (graph.out_edges(v), graph.in_edges(v)),
            };
            let vars: &[Option<VarId>] = &columns[k];
            terms.clear();
            terms.extend(out.iter().filter_map(|e| Some((vars[e.index()]?, 1.0))));
            terms.extend(inc.iter().filter_map(|e| Some((vars[e.index()]?, -1.0))));
            conserve(lp, k, v, &mut terms)?;
        }
    }
    Ok(columns)
}

/// What the caller of the flow LP consumes. Every optimal vertex has the
/// same `α`, so a value-only solve may land on any of them; a solve whose
/// flows become a routing starts from the shortest-path tree
/// ([`tree_arcs`]) and skips phase one. Value-only solves keep the slack
/// start until moving the `OPTU` normalizers in their last bits has a
/// stated tolerance (ROADMAP item 1 names the PR that deletes this type).
/// A solve that reads the capacity lengths reads its session's row duals;
/// any optimal vertex's duals are lengths, so inside DAGs it starts from
/// the tree as well.
#[derive(Clone, Copy)]
pub(crate) enum Reads {
    Value,
    Flows,
    Lengths,
}

/// Routes one commodity down its shortest-path tree inside `dag`: every node
/// with an out-edge gets the one minimizing `weight(e) + dist(head)` (ties:
/// first in `dag.out_edges`), basic on the node's conservation row — a
/// triangular, primal-feasible block of the flow LP's basis — and the
/// subtree volumes of `column` are added to the per-edge `load`. `None`
/// when a conservation row has no out-edge to cover it (a node a failure
/// left with in-edges only).
fn tree_arcs(
    graph: &Graph,
    dag: &Dag,
    column: &[f64],
    vars: &[Option<VarId>],
    cons_row: &[Option<usize>],
    load: &mut [f64],
    start: &mut Vec<(usize, VarId)>,
) -> Option<()> {
    let mut dist = vec![f64::INFINITY; graph.node_count()];
    let mut arc = vec![None; graph.node_count()];
    dist[dag.destination().index()] = 0.0;
    for &v in dag.topo_from_destination() {
        for &e in dag.out_edges(v) {
            let through = graph.weight(e) + dist[graph.edge(e).dst.index()];
            if arc[v.index()].is_none() || through < dist[v.index()] {
                dist[v.index()] = through;
                arc[v.index()] = Some(e);
            }
        }
    }
    let covered = |v: NodeId| cons_row[v.index()].is_none() || arc[v.index()].is_some();
    if !graph.nodes().all(covered) {
        return None;
    }
    let mut volume = column.to_vec();
    for v in dag.topo_to_destination() {
        let Some(e) = arc[v.index()] else { continue };
        start.push((cons_row[v.index()]?, vars[e.index()]?));
        load[e.index()] += volume[v.index()];
        volume[graph.edge(e).dst.index()] += volume[v.index()];
    }
    Some(())
}

/// True iff `dag` can carry demand from `s` to its destination: by the DAG
/// invariant a node with an out-edge reaches the destination.
pub(crate) fn routable_within(dag: &Dag, s: NodeId) -> bool {
    !dag.out_edges(s).is_empty()
}

/// The `DemandMatrix` front of the flow LP: one commodity per active
/// destination, its demand column read off `dm`.
fn solve_mcf(
    graph: &Graph,
    dm: &DemandMatrix,
    scope: EdgeScope<'_>,
    reads: Reads,
) -> Result<McfSolution, CoreError> {
    let _span = coyote_obs::span("core.opt_mcf");
    coyote_obs::counter("core.opt_mcf.solves", 1);
    if dm.node_count() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "demand matrix has {} nodes, graph has {}",
            dm.node_count(),
            graph.node_count()
        )));
    }
    let destinations = dm.active_destinations();
    let columns: Vec<Vec<f64>> = destinations
        .iter()
        .map(|&t| graph.nodes().map(|s| dm.get(s, t)).collect())
        .collect();
    solve_commodities(graph, destinations, &columns, scope, reads)
}

/// The one builder of the min-max-utilization flow LP: commodity `k` routes
/// `columns[k][s]` from every `s` to `destinations[k]` over the edges `scope`
/// allows it (the diagonal entry `columns[k][t]` is never read). A solve
/// that [`Reads::Flows`] or [`Reads::Lengths`] inside DAGs names its
/// starting basis: the tree arcs of [`tree_arcs`], `α` on the capacity row
/// of the link those trees load most, slacks elsewhere.
pub(crate) fn solve_commodities(
    graph: &Graph,
    destinations: Vec<NodeId>,
    columns: &[Vec<f64>],
    scope: EdgeScope<'_>,
    reads: Reads,
) -> Result<McfSolution, CoreError> {
    if destinations.is_empty() {
        return Ok(McfSolution {
            max_utilization: 0.0,
            flows: Vec::new(),
            destinations,
            lengths: None,
        });
    }

    let mut lp = LpProblem::new(Sense::Minimize);
    let alpha = lp.add_nonneg_var("alpha", 1.0);

    // Flow conservation: out - in = demand, for every non-destination node.
    let commodities: Vec<(usize, NodeId)> = destinations.iter().copied().enumerate().collect();
    let n = graph.node_count();
    let mut cons_rows = vec![None; commodities.len() * n];
    let flow_vars = flow_block(&mut lp, graph, &scope, &commodities, |lp, k, v, terms| {
        let demand = columns[k][v.index()];
        if !terms.is_empty() {
            let row = lp.add_constraint(("cons", k, v.index()), terms, Relation::Eq, demand);
            cons_rows[k * n + v.index()] = Some(row);
        } else if demand > 0.0 {
            return Err(CoreError::UnroutableDemand {
                detail: format!(
                    "node {} has demand {demand} towards {} but no usable edges",
                    graph.node_name(v),
                    graph.node_name(destinations[k])
                ),
            });
        }
        Ok(())
    })?;

    // Capacity: total flow on an edge is at most alpha * capacity.
    let mut terms: Vec<(VarId, f64)> = Vec::new();
    let mut cap_rows = vec![None; graph.edge_count()];
    for e in graph.edges() {
        terms.clear();
        terms.extend(
            flow_vars
                .iter()
                .filter_map(|vars| Some((vars[e.index()]?, 1.0))),
        );
        if terms.is_empty() {
            continue;
        }
        terms.push((alpha, -graph.capacity(e)));
        cap_rows[e.index()] =
            Some(lp.add_constraint(("cap", e.index()), &terms, Relation::Le, 0.0));
    }

    // The basis a flows-reading solve starts from: the tree arcs on the
    // conservation rows, `α` on the capacity row of the first link of
    // maximal utilization — which keeps every other capacity row's slack
    // non-negative — and slacks elsewhere.
    let tree_start = || {
        let mut start = Vec::with_capacity(lp.num_constraints());
        let mut load = vec![0.0; graph.edge_count()];
        for (k, &t) in destinations.iter().enumerate() {
            let (vars, rows) = (&flow_vars[k], &cons_rows[k * n..][..n]);
            tree_arcs(
                graph,
                scope.dag(t)?,
                &columns[k],
                vars,
                rows,
                &mut load,
                &mut start,
            )?;
        }
        let mut worst: Option<(usize, f64)> = None;
        for e in graph.edges() {
            let Some(row) = cap_rows[e.index()] else {
                continue;
            };
            let utilization = load[e.index()] / graph.capacity(e);
            if worst.is_none_or(|(_, w)| utilization > w) {
                worst = Some((row, utilization));
            }
        }
        start.push((worst?.0, alpha));
        Some(start)
    };
    let start = match reads {
        Reads::Flows | Reads::Lengths => tree_start(),
        Reads::Value => None,
    };
    let mut lengths = None;
    let solved = lp.prepare().and_then(|mut session| {
        let sol = match start {
            Some(start) => session.solve_from(&start)?,
            None => session.solve()?,
        };
        if let Reads::Lengths = reads {
            // A minimization prices a `≤` row at a non-positive dual.
            lengths = session.row_duals().map(|duals| {
                let length = |row: &Option<usize>| row.map_or(0.0, |r| (-duals[r]).max(0.0));
                cap_rows.iter().map(length).collect()
            });
        }
        Ok(sol)
    });
    let sol = solved.map_err(|e| match e {
        coyote_lp::LpError::Infeasible { .. } => CoreError::UnroutableDemand {
            detail: "flow conservation cannot be satisfied inside the allowed edge set".into(),
        },
        other => CoreError::Lp(other),
    })?;

    let flows = flow_vars
        .iter()
        .map(|per_edge| {
            per_edge
                .iter()
                .map(|v| v.map(|var| sol.value(var).max(0.0)).unwrap_or(0.0))
                .collect()
        })
        .collect();

    Ok(McfSolution {
        max_utilization: sol.value(alpha).max(0.0),
        flows,
        destinations,
        lengths,
    })
}

/// The capacity lengths of `OPTU(dm)` within `scope` ([`McfSolution`]'s
/// `lengths`): the certificate a full adversary scan starts from.
pub(crate) fn capacity_lengths(
    graph: &Graph,
    dm: &DemandMatrix,
    scope: EdgeScope<'_>,
) -> Result<Option<Vec<f64>>, CoreError> {
    Ok(solve_mcf(graph, dm, scope, Reads::Lengths)?.lengths)
}

/// `OPTU(D)`: the optimal max link utilization over *all* per-destination
/// routings (any edge usable).
pub fn optu(graph: &Graph, dm: &DemandMatrix) -> Result<f64, CoreError> {
    Ok(solve_mcf(graph, dm, EdgeScope::All, Reads::Value)?.max_utilization)
}

/// The demands-aware optimum restricted to the given per-destination DAGs
/// (the normalization used by the paper's figures and Table I).
pub fn optu_within_dags(graph: &Graph, dags: &[Dag], dm: &DemandMatrix) -> Result<f64, CoreError> {
    if dags.len() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "{} DAGs for {} nodes",
            dags.len(),
            graph.node_count()
        )));
    }
    Ok(solve_mcf(graph, dm, EdgeScope::Dags(dags), Reads::Value)?.max_utilization)
}

/// The **Base** baseline of the evaluation: the optimal demands-aware
/// routing (within the given DAGs) for the base demand matrix, returned as a
/// [`PdRouting`] so it can be re-evaluated on every other matrix in the
/// uncertainty set. Splitting ratios are recovered from the optimal flows;
/// nodes that carry no flow in the optimum fall back to uniform splitting.
pub fn optimal_routing_within_dags(
    graph: &Graph,
    dags: &[Dag],
    dm: &DemandMatrix,
) -> Result<(PdRouting, f64), CoreError> {
    if dags.len() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "{} DAGs for {} nodes",
            dags.len(),
            graph.node_count()
        )));
    }
    let sol = solve_mcf(graph, dm, EdgeScope::Dags(dags), Reads::Flows)?;
    let mut raw = vec![vec![0.0; graph.edge_count()]; graph.node_count()];
    for (k, &t) in sol.destinations.iter().enumerate() {
        for e in graph.edges() {
            raw[t.index()][e.index()] = sol.flows[k][e.index()];
        }
    }
    let routing = PdRouting::from_ratios(graph, dags.to_vec(), raw);
    Ok((routing, sol.max_utilization))
}

/// Outcome of [`split_routable_within_dags`]: the demand matrix restricted
/// to the pairs the DAGs can actually carry, plus the volume that had to be
/// masked out.
#[derive(Debug, Clone)]
pub struct RoutableSplit {
    /// The routable part of the demand matrix (unroutable entries zeroed).
    pub routable: DemandMatrix,
    /// Total demand volume that no DAG path can carry.
    pub unroutable_volume: f64,
    /// Number of (source, destination) pairs that were masked out.
    pub unroutable_pairs: usize,
}

/// Splits a demand matrix into the part the given per-destination DAGs can
/// route and the part they cannot (e.g. because a failure partitioned the
/// topology). A pair `(s, t)` is routable iff `s` has an out-edge in `t`'s
/// DAG — by the DAG invariant (every node with an out-edge reaches the
/// destination) that guarantees a complete path. Feeding `routable` to
/// [`optimal_routing_within_dags`] then cannot trip the
/// [`CoreError::UnroutableDemand`] guard, which is how the failure engine
/// keeps post-failure LPs from aborting a whole grid.
pub fn split_routable_within_dags(
    graph: &Graph,
    dags: &[Dag],
    dm: &DemandMatrix,
) -> Result<RoutableSplit, CoreError> {
    if dags.len() != graph.node_count() || dm.node_count() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "{} DAGs / {}-node demand matrix for a {}-node graph",
            dags.len(),
            dm.node_count(),
            graph.node_count()
        )));
    }
    let mut routable = dm.clone();
    let mut unroutable_volume = 0.0;
    let mut unroutable_pairs = 0usize;
    for (s, t, volume) in dm.pairs() {
        if s == t {
            continue;
        }
        if !routable_within(&dags[t.index()], s) {
            routable.set(s, t, 0.0);
            unroutable_volume += volume;
            unroutable_pairs += 1;
        }
    }
    Ok(RoutableSplit {
        routable,
        unroutable_volume,
        unroutable_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_builder::{build_all_dags, DagMode};
    use crate::example_fig1::{self, Fig1};

    #[test]
    fn optu_of_the_fig1_worst_case_demand_is_one() {
        // The paper: demands (2, 0) "can send all traffic without exceeding
        // any link capacity" by splitting between (s1 s2 t) and (s1 v t).
        let (g, Fig1 { s1, t, .. }) = example_fig1::topology();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 2.0);
        let u = optu(&g, &dm).unwrap();
        assert!((u - 1.0).abs() < 1e-6, "OPTU = {u}");
    }

    #[test]
    fn optu_scales_linearly_with_demands() {
        let (g, Fig1 { s1, t, .. }) = example_fig1::topology();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        let u1 = optu(&g, &dm).unwrap();
        let u2 = optu(&g, &dm.scaled(3.0)).unwrap();
        assert!((u2 - 3.0 * u1).abs() < 1e-6);
    }

    #[test]
    fn optu_within_spf_dags_can_be_worse_than_unrestricted() {
        // With unit weights the SPF DAG towards t does not use (s2,v); a
        // demand from s2 alone then has only the direct path, utilization 2,
        // while the unrestricted optimum splits and achieves 1.
        let (g, Fig1 { s2, t, .. }) = example_fig1::topology();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s2, t, 2.0);
        let spf = build_all_dags(&g, DagMode::ShortestPath).unwrap();
        let within = optu_within_dags(&g, &spf, &dm).unwrap();
        let free = optu(&g, &dm).unwrap();
        assert!((within - 2.0).abs() < 1e-6, "within = {within}");
        assert!((free - 1.0).abs() < 1e-6, "free = {free}");
    }

    #[test]
    fn optu_within_augmented_dags_matches_unrestricted_on_fig1() {
        // The augmented DAG restores the (s2,v) path diversity, so for the
        // single-source demands of the running example it is as good as the
        // unrestricted optimum.
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let aug = build_all_dags(&g, DagMode::Augmented).unwrap();
        for (src, amount) in [(s1, 2.0), (s2, 2.0)] {
            let mut dm = DemandMatrix::zeros(4);
            dm.set(src, t, amount);
            let within = optu_within_dags(&g, &aug, &dm).unwrap();
            let free = optu(&g, &dm).unwrap();
            assert!(
                (within - free).abs() < 1e-6,
                "within = {within}, free = {free}"
            );
        }
    }

    #[test]
    fn zero_demand_has_zero_utilization() {
        let (g, _) = example_fig1::topology();
        let dm = DemandMatrix::zeros(4);
        assert_eq!(optu(&g, &dm).unwrap(), 0.0);
    }

    #[test]
    fn unroutable_demands_are_reported() {
        let mut g = Graph::with_nodes(3);
        g.add_edge(NodeId(0), NodeId(1), 1.0, 1.0).unwrap();
        // Node 2 is isolated; demand from it cannot be routed.
        let mut dm = DemandMatrix::zeros(3);
        dm.set(NodeId(2), NodeId(1), 1.0);
        assert!(matches!(
            optu(&g, &dm),
            Err(CoreError::UnroutableDemand { .. })
        ));
    }

    #[test]
    fn base_routing_is_optimal_for_its_own_matrix() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let aug = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 1.0);
        let (routing, opt) = optimal_routing_within_dags(&g, &aug, &dm).unwrap();
        routing.validate(&g).unwrap();
        let achieved = routing.max_link_utilization(&g, &dm);
        assert!(
            achieved <= opt + 1e-6,
            "achieved {achieved} vs optimum {opt}"
        );
        let lp_value = optu_within_dags(&g, &aug, &dm).unwrap();
        assert!((opt - lp_value).abs() < 1e-9);
    }

    /// On the 14 Table-I topologies × gravity the routing-returning solve
    /// starts from the shortest-path trees, no start is refused, and its
    /// objective is the cold `optu_within_dags` optimum. The sink is shared
    /// with whatever other test of this process is solving, hence `>=`; no
    /// test here names a basis the guard refuses.
    #[test]
    fn the_tree_start_attains_the_cold_optimum_on_every_table1_topology() {
        let registry = std::sync::Arc::new(coyote_obs::Registry::new());
        coyote_obs::install(registry.clone());
        let topologies = coyote_topology::zoo::table1();
        for topo in &topologies {
            let mut g = topo.to_graph().unwrap();
            g.set_inverse_capacity_weights(10.0);
            let dm = coyote_traffic::GravityModel::with_total(100.0).generate(&g);
            let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
            let (routing, started) = optimal_routing_within_dags(&g, &dags, &dm).unwrap();
            routing.validate(&g).unwrap();
            let cold = optu_within_dags(&g, &dags, &dm).unwrap();
            assert!(
                (started - cold).abs() < 1e-9,
                "{}: {started} vs {cold}",
                topo.name
            );
        }
        coyote_obs::uninstall();
        let counters = registry.snapshot().counters;
        let count = |name: &str| counters.get(name).copied().unwrap_or(0);
        assert_eq!(topologies.len(), 14);
        assert!(count("lp.crash_starts") >= 14, "{counters:?}");
        assert_eq!(count("lp.crash_rejects"), 0);
    }

    /// A node a failure left with in-edges only keeps its conservation row
    /// (nothing may arrive there) and has no arc to cover it: no tree, the
    /// slack start as before, and still the right answer.
    #[test]
    fn a_dead_end_with_a_conservation_row_takes_the_slack_start() {
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let edge = |a, b| g.find_edge(a, b).unwrap();
        // v is a dead end of t's DAG: s1 may enter it, nothing leaves.
        let arcs = [edge(s1, s2), edge(s1, v), edge(s2, t)];
        let mut dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        dags[t.index()] = Dag::new(&g, t, &arcs).unwrap();
        let dag = &dags[t.index()];

        let mut lp = LpProblem::new(Sense::Minimize);
        let vars: Vec<Option<VarId>> = g
            .edges()
            .map(|_| Some(lp.add_nonneg_var("g", 0.0)))
            .collect();
        let rows: Vec<Option<usize>> = g.nodes().map(|u| (u != t).then_some(u.index())).collect();
        let column = [2.0, 0.0, 0.0, 0.0];
        let (mut load, mut start) = (vec![0.0; g.edge_count()], Vec::new());
        assert!(tree_arcs(&g, dag, &column, &vars, &rows, &mut load, &mut start).is_none());
        // Without the dead end's row the same DAG has its tree: s1 → s2 → t.
        let rows: Vec<Option<usize>> = rows
            .iter()
            .map(|&r| r.filter(|&r| r != v.index()))
            .collect();
        assert!(tree_arcs(&g, dag, &column, &vars, &rows, &mut load, &mut start).is_some());
        assert_eq!(
            start,
            [
                (0, vars[edge(s1, s2).index()].unwrap()),
                (1, vars[edge(s2, t).index()].unwrap())
            ]
        );
        assert_eq!(
            (load[edge(s1, s2).index()], load[edge(s2, t).index()]),
            (2.0, 2.0)
        );

        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 2.0);
        let (routing, opt) = optimal_routing_within_dags(&g, &dags, &dm).unwrap();
        routing.validate(&g).unwrap();
        assert!(
            (opt - 2.0).abs() < 1e-6,
            "everything crosses (s2, t): {opt}"
        );
        assert!((opt - optu_within_dags(&g, &dags, &dm).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn split_routable_masks_partitioned_pairs() {
        // Two components: 0-1 and 2-3 (bidirectional pairs).
        let mut g = Graph::with_nodes(4);
        g.add_bidirectional_edge(NodeId(0), NodeId(1), 1.0, 1.0)
            .unwrap();
        g.add_bidirectional_edge(NodeId(2), NodeId(3), 1.0, 1.0)
            .unwrap();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(NodeId(0), NodeId(1), 0.5); // routable
        dm.set(NodeId(0), NodeId(3), 2.0); // crosses the cut: unroutable
        dm.set(NodeId(2), NodeId(1), 1.5); // crosses the cut: unroutable
        let split = split_routable_within_dags(&g, &dags, &dm).unwrap();
        assert_eq!(split.unroutable_pairs, 2);
        assert!((split.unroutable_volume - 3.5).abs() < 1e-12);
        assert!((split.routable.total() - 0.5).abs() < 1e-12);
        // The masked matrix solves cleanly where the raw one aborts.
        assert!(optu_within_dags(&g, &dags, &dm).is_err());
        let u = optu_within_dags(&g, &dags, &split.routable).unwrap();
        assert!((u - 0.5).abs() < 1e-6, "u = {u}");
    }

    #[test]
    fn split_routable_is_a_noop_on_connected_graphs() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 2.0);
        let split = split_routable_within_dags(&g, &dags, &dm).unwrap();
        assert_eq!(split.unroutable_pairs, 0);
        assert_eq!(split.unroutable_volume, 0.0);
        assert!((split.routable.total() - dm.total()).abs() < 1e-12);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let (g, _) = example_fig1::topology();
        let dm = DemandMatrix::zeros(3);
        assert!(matches!(
            optu(&g, &dm),
            Err(CoreError::DimensionMismatch(_))
        ));
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let dm4 = DemandMatrix::zeros(4);
        assert!(matches!(
            optu_within_dags(&g, &dags[..2], &dm4),
            Err(CoreError::DimensionMismatch(_))
        ));
    }
}
