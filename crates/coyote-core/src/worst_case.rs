//! Adversarial ("worst-case") demand matrices for a fixed routing.
//!
//! This is the reproduction of the paper's *slave LP* (Appendix C): given a
//! routing `φ` and an edge `e`, find the demand matrix that maximizes the
//! utilization of `e` among all matrices that (a) can be routed within the
//! link capacities — i.e. `OPTU(D) ≤ 1`, which by the scaling-invariance
//! argument of Section IV-A is exactly what makes the edge utilization equal
//! to the performance ratio contributed by `e` — and (b) optionally lie in a
//! scaled uncertainty box `λ·d^min ≤ d ≤ λ·d^max` (constraint (8) of the
//! paper).
//!
//! Taking the maximum over all edges yields the exact performance ratio of
//! the routing over the demand set (the *oblivious performance ratio* when
//! the set is unconstrained), together with a witness matrix. The witness
//! matrices drive COYOTE's constraint-generation loop
//! ([`crate::oblivious`]) and the local-search DAG heuristic
//! ([`crate::local_search`]).
//!
//! A full scan does not solve every edge. It bounds them with dual
//! certificates (Theorem 5, `certificate.rs`): any non-negative link
//! lengths `y` give `OPTU(x) ≥ w·x / Σ_e c_e·y_e`, with `w(s, t)` the
//! `y`-shortest `s → t` distance over the edges the scope lets `t` use, so
//! edge `e`'s LP value `max_{x ∈ [lo, hi]} a_e·x / OPTU(x)` is at most
//! `Σ c·y · max_x a_e·x / w·x`, a linear-fractional maximum over the box
//! that one sort computes. The capacity duals of every LP the scan solves
//! are such lengths, at no extra LP cost: first those of `OPTU(lo)` over
//! the scope (whose bound is at most `a_e·hi / OPTU(lo)`), then those of
//! each slave LP. The scan takes the edges in descending order of their
//! least bound so far, re-bounds an edge against the certificates that are
//! newer than its bound before taking it, and stops at the first edge whose
//! bound, widened by `BOUND_SLACK`, is below the best ratio found. Ties go
//! to the earlier edge, and a solve does not depend on the order, so the
//! result is the exhaustive scan's bit for bit. A scan with no certificate
//! yet (an oblivious set, a zero lower envelope, one the scope cannot
//! route) takes the edges in index order until a solve
//! gives it one; a scan over a candidate list computes no bound and solves
//! every candidate in the given order.

use crate::certificate::{LengthBound, Pair};
use crate::error::CoreError;
use crate::opt_mcf::{capacity_lengths, flow_block, EdgeScope};
use crate::routing::PdRouting;
use coyote_graph::{EdgeId, Graph, NodeId};
use coyote_lp::{LpProblem, LpSession, Relation, Sense, VarId};
use coyote_traffic::{DemandMatrix, UncertaintySet};

/// Relative slack on an edge's certificate bound before it may end a scan.
/// The LPs are solved with `RHS_PERTURBATION` and `DUAL_TOL`, and a
/// certificate read off a slave LP bounds its own edge at about its value:
/// over the 14 Table-I topologies at margins 1.5–3 (within the DAGs; both
/// scopes on five) every computed value sat at least 1.9e-7 below every
/// certificate's computed bound of it, while the plain bound
/// `a_e·hi / OPTU(lo)` had values up to 2e-6 above it. A slack of the
/// solver's tolerances or below can stop a scan before the edge that wins.
const BOUND_SLACK: f64 = 1e-4;

/// Witness entries at or below this are dropped from the demand matrix.
/// Raised, it drops real demand from the witness the constraint-generation
/// working set adds; lowered, it admits the LP's round-off as demand.
const WITNESS_ZERO: f64 = 1e-9;

/// Which edges the *adversary's certifying flow* may use when proving that
/// its demand matrix is routable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutabilityScope {
    /// The adversary may route over any edge (`OPTU(D) ≤ 1` in the
    /// unrestricted sense) — the convention of the paper's oblivious ratio.
    AllEdges,
    /// The adversary must route inside the same per-destination DAGs as the
    /// routing under evaluation — the "demands-aware optimum within the same
    /// DAGs" normalization used by the evaluation section.
    WithinDags,
}

/// Precomputed `f_st(v)` table for a routing: `fractions[t][s][v]` is the
/// fraction of the `s → t` demand entering `v`.
#[derive(Debug, Clone)]
pub struct FractionTable {
    fractions: Vec<Vec<Vec<f64>>>,
}

impl FractionTable {
    /// Builds the table for every ordered pair (O(|V|² · |E|)).
    pub fn new(graph: &Graph, routing: &PdRouting) -> Self {
        let n = graph.node_count();
        let mut fractions = vec![vec![Vec::new(); n]; n];
        for t in graph.nodes() {
            for s in graph.nodes() {
                if s == t {
                    continue;
                }
                fractions[t.index()][s.index()] = routing.source_fractions(graph, s, t);
            }
        }
        Self { fractions }
    }

    /// `f_st(v)`.
    #[inline]
    pub fn fraction(&self, s: NodeId, t: NodeId, v: NodeId) -> f64 {
        if s == t {
            return 0.0;
        }
        self.fractions[t.index()][s.index()]
            .get(v.index())
            .copied()
            .unwrap_or(0.0)
    }
}

/// Result of a worst-case search.
#[derive(Debug, Clone)]
pub struct WorstCase {
    /// The adversarial demand matrix (already scaled so that it is routable
    /// within the capacities, i.e. `OPTU(D) ≤ 1`).
    pub demand: DemandMatrix,
    /// The performance ratio it certifies (utilization of the worst edge
    /// divided by the — by construction ≤ 1 — optimal utilization).
    pub ratio: f64,
    /// The edge whose utilization attains the ratio.
    pub edge: EdgeId,
}

/// The slave LP, prepared once per (routing, uncertainty, scope) as an
/// [`LpSession`]: only the objective changes from edge to edge, so every
/// [`SlaveLp::solve_edge`] after the first re-enters phase two from the
/// basis the session recorded — with results bit-identical to building and
/// solving from scratch.
struct SlaveLp<'a> {
    graph: &'a Graph,
    routing: &'a PdRouting,
    fractions: &'a FractionTable,
    uncertainty: &'a UncertaintySet,
    scope: RoutabilityScope,
    session: LpSession,
    d_var: Vec<Vec<Option<VarId>>>,
    pairs: Vec<(NodeId, NodeId)>,
    /// The destinations of `pairs`, ascending.
    destinations: Vec<NodeId>,
    /// The capacity row of each edge, `None` for an edge no commodity uses.
    cap_rows: Vec<Option<usize>>,
}

impl<'a> SlaveLp<'a> {
    /// Builds the constraint system (certifying-flow conservation,
    /// capacities, scaled box bounds) with an all-zero objective.
    fn new(
        graph: &'a Graph,
        routing: &'a PdRouting,
        fractions: &'a FractionTable,
        uncertainty: &'a UncertaintySet,
        scope: RoutabilityScope,
    ) -> Result<Self, CoreError> {
        let n = graph.node_count();
        if uncertainty.node_count() != n {
            return Err(CoreError::DimensionMismatch(format!(
                "uncertainty set has {} nodes, graph has {n}",
                uncertainty.node_count()
            )));
        }
        let pairs = uncertainty.active_pairs();

        let mut lp = LpProblem::new(Sense::Maximize);

        // Demand variables (objective filled in per edge).
        let mut d_var: Vec<Vec<Option<VarId>>> = vec![vec![None; n]; n];
        for &(s, t) in &pairs {
            let v = lp.add_nonneg_var(("d", s.index(), t.index()), 0.0);
            d_var[s.index()][t.index()] = Some(v);
        }

        // Scaling variable for box uncertainty: demands must lie in λ·[lo, hi].
        let lambda = if uncertainty.is_oblivious() {
            None
        } else {
            Some(lp.add_nonneg_var("lambda", 0.0))
        };

        // Certifying flow g_t(e) for every destination that can receive
        // traffic, with its conservation rows: out - in = d_vt.
        let mut destinations: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
        destinations.sort();
        destinations.dedup();
        let commodities: Vec<(usize, NodeId)> =
            destinations.iter().map(|&t| (t.index(), t)).collect();
        let flow_var = flow_block(
            &mut lp,
            graph,
            &edge_scope(routing, scope),
            &commodities,
            |lp, k, v, terms| {
                let t = destinations[k];
                match (terms.is_empty(), d_var[v.index()][t.index()]) {
                    (true, None) => {}
                    // No way to route anything out of v towards t: pin the
                    // demand to zero.
                    (true, Some(dv)) => {
                        let pin = ("pin", v.index(), t.index());
                        lp.add_constraint(pin, &[(dv, 1.0)], Relation::Eq, 0.0);
                    }
                    (false, demand) => {
                        terms.extend(demand.map(|dv| (dv, -1.0)));
                        lp.add_constraint(("cons", t.index(), v.index()), terms, Relation::Eq, 0.0);
                    }
                }
                Ok(())
            },
        )?;

        // Capacity constraints on the certifying flow: OPTU(D) <= 1.
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        let mut cap_rows = vec![None; graph.edge_count()];
        for e in graph.edges() {
            terms.clear();
            terms.extend(
                flow_var
                    .iter()
                    .filter_map(|vars| Some((vars[e.index()]?, 1.0))),
            );
            if terms.is_empty() {
                continue;
            }
            let cap = graph.capacity(e);
            cap_rows[e.index()] =
                Some(lp.add_constraint(("cap", e.index()), &terms, Relation::Le, cap));
        }

        // Box constraints (scaled by λ).
        if let Some(lambda) = lambda {
            for &(s, t) in &pairs {
                let Some(dv) = d_var[s.index()][t.index()] else {
                    continue;
                };
                let lo = uncertainty.lower(s, t);
                let hi = uncertainty.upper(s, t);
                // d <= λ·hi
                if hi.is_finite() {
                    lp.add_constraint(
                        ("ub", s.index(), t.index()),
                        &[(dv, 1.0), (lambda, -hi)],
                        Relation::Le,
                        0.0,
                    );
                }
                // d >= λ·lo
                if lo > 0.0 {
                    lp.add_constraint(
                        ("lb", s.index(), t.index()),
                        &[(dv, 1.0), (lambda, -lo)],
                        Relation::Ge,
                        0.0,
                    );
                }
            }
        }

        Ok(Self {
            graph,
            routing,
            fractions,
            uncertainty,
            scope,
            session: lp.prepare().map_err(CoreError::Lp)?,
            d_var,
            pairs,
            destinations,
            cap_rows,
        })
    }

    /// Objective coefficient of the `s → t` demand in `edge`'s LP, the
    /// utilization of `edge` per unit of that demand: `f_st(u_e)·φ_t(e)/c_e`.
    /// The scan's bounds are built from the same coefficients.
    fn coefficient(&self, s: NodeId, t: NodeId, edge: EdgeId) -> f64 {
        let phi = self.routing.ratio(t, edge);
        if phi <= 0.0 {
            return 0.0;
        }
        let (u_e, _v_e) = self.graph.endpoints(edge);
        self.fractions.fraction(s, t, u_e) * phi / self.graph.capacity(edge)
    }

    /// The certificate of link lengths `lengths` (indexed by edge) over
    /// this LP's scope and destinations.
    fn certificate(&self, lengths: &[f64]) -> Option<LengthBound> {
        let scope = edge_scope(self.routing, self.scope);
        LengthBound::new(self.graph, &scope, &self.destinations, lengths)
    }

    /// The certificate of `OPTU(lo)`'s capacity lengths over the pairs this
    /// LP carries, or `None` when the lower envelope is zero (as for an
    /// oblivious set) or the scope cannot route it.
    fn lower_envelope_certificate(&self) -> Option<LengthBound> {
        let mut lo = DemandMatrix::zeros(self.graph.node_count());
        for &(s, t) in &self.pairs {
            let l = self.uncertainty.lower(s, t);
            if l > 0.0 {
                lo.set(s, t, l);
            }
        }
        if lo.is_zero() {
            return None;
        }
        let scope = edge_scope(self.routing, self.scope);
        let lengths = capacity_lengths(self.graph, &lo, scope).ok()??;
        self.certificate(&lengths)
    }

    /// The certificate of the last solve's capacity duals (`≥ 0` in a
    /// maximization), or `None` when no solve has succeeded yet.
    fn solved_certificate(&self) -> Option<LengthBound> {
        let duals = self.session.row_duals()?;
        let length = |row: &Option<usize>| row.map_or(0.0, |r| duals[r].max(0.0));
        let lengths: Vec<f64> = self.cap_rows.iter().map(length).collect();
        self.certificate(&lengths)
    }

    /// An upper bound on `edge`'s LP value from one certificate; `scratch`
    /// is the pair buffer, reused.
    fn bound_by(&self, edge: EdgeId, certificate: &LengthBound, scratch: &mut Vec<Pair>) -> f64 {
        scratch.clear();
        scratch.extend(self.pairs.iter().map(|&(s, t)| Pair {
            a: self.coefficient(s, t, edge),
            w: certificate.distance(s, t),
            lo: self.uncertainty.lower(s, t),
            hi: self.uncertainty.upper(s, t),
        }));
        certificate.bound(scratch)
    }

    /// Finds the demand matrix maximizing the utilization of `edge`, or
    /// `None` when the edge can never carry traffic under this routing (all
    /// of its splitting ratios are zero).
    fn solve_edge(&mut self, edge: EdgeId) -> Result<Option<(DemandMatrix, f64)>, CoreError> {
        coyote_obs::counter("core.worst_case.lp_solves", 1);
        let mut any_positive = false;
        for &(s, t) in &self.pairs {
            let dv = self.d_var[s.index()][t.index()].expect("pair variable exists");
            let c = self.coefficient(s, t, edge);
            if c > 0.0 {
                any_positive = true;
            }
            self.session.set_objective(dv, c);
        }
        if !any_positive {
            return Ok(None);
        }

        let sol = self.session.solve().map_err(CoreError::Lp)?;

        let mut dm = DemandMatrix::zeros(self.graph.node_count());
        for (s, row) in self.d_var.iter().enumerate() {
            for (t, entry) in row.iter().enumerate() {
                if let Some(var) = *entry {
                    let v = sol.value(var);
                    if v > WITNESS_ZERO {
                        dm.set(NodeId(s), NodeId(t), v);
                    }
                }
            }
        }
        Ok(Some((dm, sol.objective.max(0.0))))
    }
}

/// The edges the certifying flow towards each destination may use.
fn edge_scope(routing: &PdRouting, scope: RoutabilityScope) -> EdgeScope<'_> {
    match scope {
        RoutabilityScope::AllEdges => EdgeScope::All,
        RoutabilityScope::WithinDags => EdgeScope::Dags(routing.dags()),
    }
}

/// Exact performance ratio of `routing` over `uncertainty`: the maximum over
/// all edges of the per-edge worst case. Also returns the witness demand
/// matrix and edge; of several edges attaining the maximum, the first in
/// scan order. `candidate_edges` restricts the search (e.g. to the few
/// most-utilized edges during constraint generation) and solves every
/// candidate in the given order.
///
/// `None` checks every edge, skipping those that certificates prove cannot
/// win: it takes the edges in descending order of their bound, starting
/// from the capacity lengths of `OPTU` of the lower envelope and adding the
/// capacity duals of every slave LP it solves, and stops at the first edge
/// whose bound times `1 + BOUND_SLACK` is below the best ratio (see the
/// module docs). The result is the exhaustive scan's bit for bit.
pub fn performance_ratio_exact(
    graph: &Graph,
    routing: &PdRouting,
    uncertainty: &UncertaintySet,
    scope: RoutabilityScope,
    candidate_edges: Option<&[EdgeId]>,
) -> Result<WorstCase, CoreError> {
    let _span = coyote_obs::span("core.worst_case");
    coyote_obs::counter("core.worst_case.scans", 1);
    let fractions = FractionTable::new(graph, routing);
    // One session for the whole edge scan: the standard form is built once
    // and every solve after the first skips phase one.
    let mut slave = SlaveLp::new(graph, routing, &fractions, uncertainty, scope)?;
    let (best, _solved) = scan(&mut slave, candidate_edges)?;
    best.ok_or_else(|| CoreError::InvalidRouting("routing carries no traffic on any edge".into()))
}

/// An edge the scan has not solved: its scan position, the least of its
/// bounds so far (`+∞` before the first) and how many certificates those
/// came from.
struct Open {
    pos: usize,
    edge: EdgeId,
    bound: f64,
    seen: usize,
}

/// The scan behind [`performance_ratio_exact`]; also returns how many edges
/// it solved.
fn scan(
    slave: &mut SlaveLp<'_>,
    candidate_edges: Option<&[EdgeId]>,
) -> Result<(Option<WorstCase>, usize), CoreError> {
    let bounded = candidate_edges.is_none();
    let edges: Vec<EdgeId> = match candidate_edges {
        Some(edges) => edges.to_vec(),
        None => slave.graph.edges().collect(),
    };
    let mut open: Vec<Open> = edges
        .into_iter()
        .enumerate()
        .map(|(pos, edge)| Open {
            pos,
            edge,
            bound: f64::INFINITY,
            seen: 0,
        })
        .collect();
    let mut certificates: Vec<LengthBound> = Vec::new();
    if bounded {
        certificates.extend(slave.lower_envelope_certificate());
    }
    let mut scratch = Vec::new();

    let mut best: Option<(usize, WorstCase)> = None;
    let mut solved = 0;
    // The open edge of highest bound, the earlier of equal ones.
    let top = |open: &[Open]| {
        (0..open.len()).max_by(|&a, &b| {
            let (a, b) = (&open[a], &open[b]);
            a.bound.total_cmp(&b.bound).then(b.pos.cmp(&a.pos))
        })
    };
    while let Some(i) = top(&open) {
        let next = &mut open[i];
        if next.seen < certificates.len() {
            for certificate in &certificates[next.seen..] {
                let bound = slave.bound_by(next.edge, certificate, &mut scratch);
                next.bound = next.bound.min(bound);
            }
            next.seen = certificates.len();
            continue;
        }
        if best
            .as_ref()
            .is_some_and(|(_, b)| next.bound * (1.0 + BOUND_SLACK) < b.ratio)
        {
            break;
        }
        let Open { pos, edge, .. } = open.swap_remove(i);
        solved += 1;
        let Some((dm, ratio)) = slave.solve_edge(edge)? else {
            continue;
        };
        if bounded {
            certificates.extend(slave.solved_certificate());
        }
        let wins = best
            .as_ref()
            .is_none_or(|(at, b)| ratio > b.ratio || (ratio == b.ratio && pos < *at));
        if wins {
            let wc = WorstCase {
                demand: dm,
                ratio,
                edge,
            };
            best = Some((pos, wc));
        }
    }
    Ok((best.map(|(_, wc)| wc), solved))
}

/// The edges most likely to be the bottleneck for `routing`: edges sorted by
/// their utilization under the envelope (or the provided reference) demand
/// matrix, highest first. Used to prioritize slave-LP calls during
/// constraint generation.
pub fn bottleneck_candidates(
    graph: &Graph,
    routing: &PdRouting,
    reference: &DemandMatrix,
    count: usize,
) -> Vec<EdgeId> {
    let loads = routing.edge_loads(graph, reference);
    let mut utils: Vec<(EdgeId, f64)> = graph
        .edges()
        .map(|e| (e, loads[e.index()] / graph.capacity(e)))
        .collect();
    utils.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    utils.into_iter().take(count).map(|(e, _)| e).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_builder::{build_all_dags, DagMode};
    use crate::ecmp::ecmp_routing;
    use crate::example_fig1::{self, Fig1};
    use crate::routing::PdRouting;

    /// Restricts the uncertainty set to the two users of the running example
    /// (everything else pinned to zero), each able to send up to 2 units.
    fn fig1_uncertainty(s1: NodeId, s2: NodeId, t: NodeId) -> UncertaintySet {
        let mut lower = DemandMatrix::zeros(4);
        let mut upper = DemandMatrix::zeros(4);
        let _ = &mut lower;
        upper.set(s1, t, 2.0);
        upper.set(s2, t, 2.0);
        UncertaintySet::from_bounds(lower, upper)
    }

    #[test]
    fn ecmp_on_fig1_has_oblivious_ratio_two_with_unit_weights() {
        // With unit weights s2 has a single shortest path; the demand
        // (0, 2) then loads (s2,t) at 2 while the optimum is 1.
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let unc = fig1_uncertainty(s1, s2, t);
        let wc =
            performance_ratio_exact(&g, &routing, &unc, RoutabilityScope::AllEdges, None).unwrap();
        assert!((wc.ratio - 2.0).abs() < 1e-5, "ratio = {}", wc.ratio);
        // The witness demand should be dominated by the s2 -> t flow.
        assert!(wc.demand.get(s2, t) > wc.demand.get(s1, t));
    }

    #[test]
    fn fig1c_routing_has_ratio_four_thirds() {
        // The paper's Fig. 1c configuration: within the augmented DAG,
        // s1 splits 1/2 - 1/2, s2 sends 2/3 to t and 1/3 to v.
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut raw = vec![vec![0.0; g.edge_count()]; g.node_count()];
        let s1s2 = g.find_edge(s1, s2).unwrap();
        let s1v = g.find_edge(s1, v).unwrap();
        let s2t = g.find_edge(s2, t).unwrap();
        let s2v = g.find_edge(s2, v).unwrap();
        let vt = g.find_edge(v, t).unwrap();
        raw[t.index()][s1s2.index()] = 0.5;
        raw[t.index()][s1v.index()] = 0.5;
        raw[t.index()][s2t.index()] = 2.0 / 3.0;
        raw[t.index()][s2v.index()] = 1.0 / 3.0;
        raw[t.index()][vt.index()] = 1.0;
        let routing = PdRouting::from_ratios(&g, dags, raw);
        routing.validate(&g).unwrap();
        let unc = fig1_uncertainty(s1, s2, t);
        let wc =
            performance_ratio_exact(&g, &routing, &unc, RoutabilityScope::AllEdges, None).unwrap();
        assert!(
            (wc.ratio - 4.0 / 3.0).abs() < 1e-4,
            "ratio = {} (expected 4/3)",
            wc.ratio
        );
    }

    #[test]
    fn worst_case_respects_box_bounds() {
        // Pin both demands to exactly 1 (margin 1 around the base matrix):
        // ECMP with unit weights then has ratio equal to its utilization on
        // that single matrix divided by the optimum.
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let mut base = DemandMatrix::zeros(4);
        base.set(s1, t, 1.0);
        base.set(s2, t, 1.0);
        let unc = UncertaintySet::from_margin(&base, 1.0);
        let wc =
            performance_ratio_exact(&g, &routing, &unc, RoutabilityScope::AllEdges, None).unwrap();
        // ECMP: s1 splits, s2 direct => (s2,t) carries 1 + 0.5 = 1.5; the
        // optimum routes everything at utilization 1 => ratio 1.5. The
        // witness demand must stay proportional to (1, 1).
        assert!((wc.ratio - 1.5).abs() < 1e-4, "ratio = {}", wc.ratio);
        let d1 = wc.demand.get(s1, t);
        let d2 = wc.demand.get(s2, t);
        assert!(d1 > 0.0 && d2 > 0.0);
        assert!((d1 - d2).abs() < 1e-6, "box with margin 1 forces d1 == d2");
    }

    #[test]
    fn edges_that_never_carry_traffic_are_skipped() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let fractions = FractionTable::new(&g, &routing);
        let unc = fig1_uncertainty(s1, s2, t);
        // The t -> s2 direction never carries traffic destined to t.
        let ts2 = g.find_edge(t, s2).unwrap();
        let mut slave =
            SlaveLp::new(&g, &routing, &fractions, &unc, RoutabilityScope::AllEdges).unwrap();
        assert!(slave.solve_edge(ts2).unwrap().is_none());
    }

    #[test]
    fn fraction_table_matches_direct_computation() {
        let (g, Fig1 { s1, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let table = FractionTable::new(&g, &routing);
        let direct = routing.source_fractions(&g, s1, t);
        for v in g.nodes() {
            assert!((table.fraction(s1, t, v) - direct[v.index()]).abs() < 1e-12);
        }
        assert_eq!(table.fraction(t, t, s1), 0.0);
    }

    #[test]
    fn bottleneck_candidates_rank_by_utilization() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.0);
        dm.set(s2, t, 1.0);
        let cands = bottleneck_candidates(&g, &routing, &dm, 2);
        assert_eq!(cands.len(), 2);
        // (s2,t) carries 1.5, the most of any edge.
        assert_eq!(cands[0], g.find_edge(s2, t).unwrap());
    }

    #[test]
    fn within_dag_scope_increases_the_ratio_denominator_effect() {
        // When the adversary's certifying flow is restricted to the SPF DAGs
        // (no (s2,v) path), demands from s2 cannot be counter-routed any
        // better than ECMP does, so the ratio can only go down or stay equal.
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let unc = fig1_uncertainty(s1, s2, t);
        let all =
            performance_ratio_exact(&g, &routing, &unc, RoutabilityScope::AllEdges, None).unwrap();
        let within =
            performance_ratio_exact(&g, &routing, &unc, RoutabilityScope::WithinDags, None)
                .unwrap();
        assert!(within.ratio <= all.ratio + 1e-6);
    }

    /// Sharing the session must not change a scan: one session across the
    /// edges and a fresh session per edge (every solve cold) give the same
    /// ratio and witness, bit for bit.
    #[test]
    fn scan_is_bit_identical_with_one_session_and_with_one_per_edge() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let fractions = FractionTable::new(&g, &routing);
        // A margin box has lower bounds, so phase one does real work.
        let base = DemandMatrix::from_pairs(4, &[(s1, t, 1.0), (s2, t, 0.5)]);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let scope = RoutabilityScope::WithinDags;

        let scan = |fresh: bool| {
            let new = || SlaveLp::new(&g, &routing, &fractions, &unc, scope).unwrap();
            let mut slave = new();
            let mut best: Option<(DemandMatrix, f64)> = None;
            for e in g.edges() {
                if fresh {
                    slave = new();
                }
                if let Some((dm, ratio)) = slave.solve_edge(e).unwrap() {
                    if best.as_ref().is_none_or(|b| ratio > b.1) {
                        best = Some((dm, ratio));
                    }
                }
            }
            best.unwrap()
        };
        let (warm_dm, warm_ratio) = scan(false);
        let (cold_dm, cold_ratio) = scan(true);
        assert_eq!(warm_ratio.to_bits(), cold_ratio.to_bits());
        for (s, t, v) in cold_dm.pairs() {
            assert_eq!(warm_dm.get(s, t).to_bits(), v.to_bits());
        }
        assert_eq!(warm_dm.pairs().count(), cold_dm.pairs().count());
        // And the shared-session scan is what the public entry point runs.
        let wc = performance_ratio_exact(&g, &routing, &unc, scope, None).unwrap();
        assert_eq!(wc.ratio.to_bits(), warm_ratio.to_bits());
    }

    /// Exact scans of the uniform augmented routing over the margin-2.0
    /// gravity box (the `lp-families` adversary section), pinned as an FNV-1a
    /// digest of the ratio bits, the worst edge and every witness entry's
    /// bits. The six constants were recorded from the commit before
    /// `SlaveLp` held an `LpSession` (per-edge `LpProblem` + phase-one
    /// cache), so a session scan is pinned against that code, not itself.
    #[test]
    fn exact_scans_are_pinned_to_the_pre_session_slave_lp() {
        let pins: [(&str, RoutabilityScope, u64); 6] = [
            ("abilene", RoutabilityScope::AllEdges, 0x21d240a57b527e25),
            ("abilene", RoutabilityScope::WithinDags, 0x3b345d34497bbbe1),
            ("nsf", RoutabilityScope::AllEdges, 0xa71892e511e6e3b2),
            ("nsf", RoutabilityScope::WithinDags, 0x08aa08f86c4a81b6),
            ("germany", RoutabilityScope::AllEdges, 0xfaf1e2ce69c9c7b4),
            ("germany", RoutabilityScope::WithinDags, 0x02aaced39d6144bd),
        ];
        for (name, scope, pinned) in pins {
            let mut g = coyote_topology::zoo::by_name(name)
                .unwrap()
                .to_graph()
                .unwrap();
            g.set_inverse_capacity_weights(10.0);
            let routing = crate::ecmp::uniform_augmented_routing(&g).unwrap();
            let base = coyote_traffic::GravityModel::default().generate(&g);
            let unc = UncertaintySet::from_margin(&base, 2.0);
            let wc = performance_ratio_exact(&g, &routing, &unc, scope, None).unwrap();
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            let mut eat = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
            eat(wc.ratio.to_bits());
            eat(wc.edge.index() as u64);
            for (s, t, v) in wc.demand.pairs() {
                eat(s.index() as u64);
                eat(t.index() as u64);
                eat(v.to_bits());
            }
            assert_eq!(h, pinned, "{name} {scope:?}: digest {h:#018x}");
        }
    }

    /// The scan as it was before bounds: every edge in index order, the first
    /// strict maximum wins. Also returns every edge's value.
    fn exhaustive_scan(
        g: &Graph,
        routing: &PdRouting,
        unc: &UncertaintySet,
        scope: RoutabilityScope,
    ) -> (WorstCase, Vec<Option<f64>>) {
        let fractions = FractionTable::new(g, routing);
        let mut slave = SlaveLp::new(g, routing, &fractions, unc, scope).unwrap();
        let mut best: Option<WorstCase> = None;
        let mut values = Vec::new();
        for edge in g.edges() {
            let solved = slave.solve_edge(edge).unwrap();
            values.push(solved.as_ref().map(|(_, ratio)| *ratio));
            if let Some((demand, ratio)) = solved {
                if best.as_ref().is_none_or(|b| ratio > b.ratio) {
                    best = Some(WorstCase {
                        demand,
                        ratio,
                        edge,
                    });
                }
            }
        }
        (best.unwrap(), values)
    }

    /// Ratio bits, edge and every witness entry's bits.
    fn assert_same_worst_case(got: &WorstCase, want: &WorstCase, label: &str) {
        assert_eq!(got.ratio.to_bits(), want.ratio.to_bits(), "{label}: ratio");
        assert_eq!(got.edge, want.edge, "{label}: edge");
        let entries = |wc: &WorstCase| -> Vec<(NodeId, NodeId, u64)> {
            wc.demand
                .pairs()
                .map(|(s, t, v)| (s, t, v.to_bits()))
                .collect()
        };
        assert_eq!(entries(got), entries(want), "{label}: witness");
    }

    /// A zoo topology with inverse-capacity weights, its uniform augmented
    /// routing and its gravity matrix.
    fn gravity_instance(name: &str) -> (Graph, PdRouting, DemandMatrix) {
        let mut g = coyote_topology::zoo::by_name(name)
            .unwrap()
            .to_graph()
            .unwrap();
        g.set_inverse_capacity_weights(10.0);
        let routing = crate::ecmp::uniform_augmented_routing(&g).unwrap();
        let base = coyote_traffic::GravityModel::default().generate(&g);
        (g, routing, base)
    }

    /// The certificate scan against the exhaustive one on five topologies,
    /// both scopes and three margins (uniform augmented routing, gravity
    /// box, inverse-capacity weights), and on two oblivious sets: the same
    /// worst case bit for bit, every edge's value under its `OPTU(lo)`
    /// bound, and edges really skipped. The exhaustive scans take ≈ 40 s
    /// optimized, so an unoptimized build checks Abilene only; CI runs the
    /// whole grid in release.
    #[test]
    fn bounded_scan_equals_the_exhaustive_scan() {
        let scopes = [RoutabilityScope::WithinDags, RoutabilityScope::AllEdges];
        let names: &[&str] = if cfg!(debug_assertions) {
            &["abilene"]
        } else {
            &["abilene", "nsf", "germany", "grnet", "bics"]
        };
        let mut most_skipped = 0.0f64;
        for &name in names {
            let (g, routing, base) = gravity_instance(name);
            let fractions = FractionTable::new(&g, &routing);
            for (scope, margin) in scopes.iter().flat_map(|&s| [(s, 1.5), (s, 2.0), (s, 3.0)]) {
                let label = format!("{name} {scope:?} m{margin}");
                let unc = UncertaintySet::from_margin(&base, margin);
                let (want, values) = exhaustive_scan(&g, &routing, &unc, scope);

                let mut slave = SlaveLp::new(&g, &routing, &fractions, &unc, scope).unwrap();
                let lower = slave
                    .lower_envelope_certificate()
                    .expect("a margin box has a certificate");
                let mut scratch = Vec::new();
                for (e, value) in g.edges().zip(&values) {
                    let Some(value) = *value else { continue };
                    let bound =
                        slave.bound_by(e, &lower, &mut scratch) * (1.0 + BOUND_SLACK / 100.0);
                    assert!(value <= bound, "{label} {e:?}: LP {value} > bound {bound}");
                }
                let (got, solved) = scan(&mut slave, None).unwrap();
                assert_same_worst_case(&got.unwrap(), &want, &label);
                let skipped = 1.0 - solved as f64 / g.edge_count() as f64;
                most_skipped = most_skipped.max(skipped);
            }
        }
        assert!(
            most_skipped > 0.5,
            "at most {most_skipped} of the edges skipped"
        );

        // Oblivious sets: no certificate until the first solve.
        let (fig1, _) = example_fig1::topology();
        let (abilene, ..) = gravity_instance("abilene");
        for (label, g) in [("fig1", &fig1), ("abilene", &abilene)] {
            let routing = crate::ecmp::uniform_augmented_routing(g).unwrap();
            let unc = UncertaintySet::oblivious(g.node_count());
            let scope = RoutabilityScope::AllEdges;
            let (want, _) = exhaustive_scan(g, &routing, &unc, scope);
            let got = performance_ratio_exact(g, &routing, &unc, scope, None).unwrap();
            assert_same_worst_case(&got, &want, &format!("{label} oblivious"));
        }
    }

    /// How many slave LPs the certificate scan solves on the `lp-families`
    /// instance of Abilene (margin 2.0, within the DAGs): a pruning
    /// regression shows here first. The `OPTU(lo)` certificate alone solves
    /// 10 of the 28 edges.
    #[test]
    fn the_certificate_scan_solves_a_pinned_number_of_edges() {
        let (g, routing, base) = gravity_instance("abilene");
        let fractions = FractionTable::new(&g, &routing);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let scope = RoutabilityScope::WithinDags;
        let mut slave = SlaveLp::new(&g, &routing, &fractions, &unc, scope).unwrap();
        let (_, solved) = scan(&mut slave, None).unwrap();
        assert_eq!(solved, 6);
    }

    /// An oblivious set, a zero lower envelope and a lower envelope the
    /// scope cannot route have no certificate before the first solve, and
    /// the scan still finds the exhaustive scan's worst case.
    #[test]
    fn scans_without_a_lower_envelope_certificate_match_the_exhaustive_scan() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        // s1 cut off: a lower bound on its demand cannot be routed.
        let s1_links: Vec<EdgeId> = g
            .out_edges(s1)
            .iter()
            .chain(g.in_edges(s1))
            .copied()
            .collect();
        let cut = g.without_edges(&s1_links);
        let cut_routing = crate::ecmp::uniform_augmented_routing(&cut).unwrap();
        let base = DemandMatrix::from_pairs(4, &[(s1, t, 1.0), (s2, t, 1.0)]);
        let cases = [
            ("oblivious", &g, &routing, UncertaintySet::oblivious(4)),
            (
                "zero lower envelope",
                &g,
                &routing,
                fig1_uncertainty(s1, s2, t),
            ),
            (
                "unroutable lower envelope",
                &cut,
                &cut_routing,
                UncertaintySet::from_margin(&base, 2.0),
            ),
        ];
        for (label, g, routing, unc) in cases {
            for scope in [RoutabilityScope::AllEdges, RoutabilityScope::WithinDags] {
                let label = format!("{label} {scope:?}");
                let fractions = FractionTable::new(g, routing);
                let mut slave = SlaveLp::new(g, routing, &fractions, &unc, scope).unwrap();
                assert!(slave.lower_envelope_certificate().is_none(), "{label}");
                let (got, _) = scan(&mut slave, None).unwrap();
                let (want, _) = exhaustive_scan(g, routing, &unc, scope);
                assert_same_worst_case(&got.unwrap(), &want, &label);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Weak duality on random inputs: for any non-negative link lengths,
        /// every edge's slave-LP value is at most its certificate bound, on
        /// random small graphs, random boxes (margins 1–3, some lower
        /// bounds zero) and both scopes.
        #[test]
        fn any_lengths_bound_every_edge_on_random_graphs(
            n in 4usize..8,
            extra_links in 0usize..4,
            seed in 0u64..1_000_000,
            margin in 1.0f64..3.0,
            zero_lower in proptest::collection::vec(0usize..4, 64..65),
            lengths in proptest::collection::vec(0.0f64..3.0, 64..65),
            zero_length in proptest::collection::vec(0usize..3, 64..65),
        ) {
            let g = coyote_topology::BackboneSpec::mesh("random", n, extra_links, seed)
                .generate()
                .to_graph()
                .unwrap();
            let routing = crate::ecmp::uniform_augmented_routing(&g).unwrap();
            let fractions = FractionTable::new(&g, &routing);
            let base = coyote_traffic::GravityModel::default().generate(&g);
            let mut lower = DemandMatrix::zeros(n);
            let mut upper = DemandMatrix::zeros(n);
            for (k, (s, t, d)) in base.pairs().enumerate() {
                if zero_lower[k % 64] != 0 {
                    lower.set(s, t, d / margin);
                }
                upper.set(s, t, d * margin);
            }
            let unc = UncertaintySet::from_bounds(lower, upper);
            let y: Vec<f64> = g
                .edges()
                .map(|e| if zero_length[e.index() % 64] == 0 { 0.0 } else { lengths[e.index() % 64] })
                .collect();
            for scope in [RoutabilityScope::AllEdges, RoutabilityScope::WithinDags] {
                let mut slave = SlaveLp::new(&g, &routing, &fractions, &unc, scope).unwrap();
                let Some(certificate) = slave.certificate(&y) else { continue };
                let mut scratch = Vec::new();
                for e in g.edges() {
                    let Some((_, value)) = slave.solve_edge(e).unwrap() else { continue };
                    let bound = slave.bound_by(e, &certificate, &mut scratch);
                    proptest::prop_assert!(
                        value <= bound * (1.0 + 1e-6),
                        "{:?} {:?}: LP {} > bound {}", scope, e, value, bound
                    );
                }
            }
        }
    }

    #[test]
    fn candidate_edge_restriction_is_respected() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let routing = ecmp_routing(&g).unwrap();
        let unc = fig1_uncertainty(s1, s2, t);
        let s2t = g.find_edge(s2, t).unwrap();
        let wc =
            performance_ratio_exact(&g, &routing, &unc, RoutabilityScope::AllEdges, Some(&[s2t]))
                .unwrap();
        assert_eq!(wc.edge, s2t);
    }
}
