//! Property-based integration tests: invariants that must hold on *random*
//! topologies, demand matrices and splitting ratios, not just on the
//! hand-picked examples.

use coyote::core::prelude::*;
use coyote::graph::{Graph, NodeId};
use coyote::lp::{LpProblem, Relation, Sense};
use coyote::ospf::{approximate_split, max_split_error, realized_fractions};
use coyote::traffic::{DemandMatrix, UncertaintySet};
use proptest::prelude::*;

/// Builds a random connected backbone-like graph from a proptest seed:
/// a ring over `n` nodes plus `extra` chords, capacities in [1, 10].
fn random_graph(n: usize, extra: &[(usize, usize)], caps: &[f64]) -> Graph {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Augmented DAGs are always acyclic, contain every shortest-path edge,
    /// and let every node reach the destination.
    #[test]
    fn augmented_dags_are_valid_on_random_graphs(
        n in 4usize..10,
        extra in proptest::collection::vec((0usize..10, 0usize..10), 0..6),
        caps in proptest::collection::vec(1.0f64..10.0, 3..8),
    ) {
        let g = random_graph(n, &extra, &caps);
        let spf = build_all_dags(&g, DagMode::ShortestPath).unwrap();
        let aug = build_all_dags(&g, DagMode::Augmented).unwrap();
        for t in g.nodes() {
            for e in spf[t.index()].edges() {
                prop_assert!(aug[t.index()].contains(e));
            }
            for v in g.nodes() {
                if v != t {
                    prop_assert!(!aug[t.index()].out_edges(v).is_empty());
                }
            }
        }
    }

    /// Conservation: under any valid routing, the traffic arriving at a
    /// destination equals the total demand towards it, and link loads are
    /// non-negative.
    #[test]
    fn flow_conservation_holds_for_uniform_routings(
        n in 4usize..9,
        extra in proptest::collection::vec((0usize..9, 0usize..9), 0..5),
        caps in proptest::collection::vec(1.0f64..10.0, 3..8),
        demands in proptest::collection::vec(0.0f64..5.0, 6..20),
    ) {
        let g = random_graph(n, &extra, &caps);
        let routing = uniform_augmented_routing(&g).unwrap();
        routing.validate(&g).unwrap();

        let mut dm = DemandMatrix::zeros(n);
        let mut k = 0usize;
        for s in 0..n {
            for t in 0..n {
                if s != t && k < demands.len() {
                    dm.set(NodeId(s), NodeId(t), demands[k]);
                    k += 1;
                }
            }
        }
        for t in dm.active_destinations() {
            let flow = routing.destination_node_flow(&g, &dm, t);
            let arriving = flow[t.index()];
            prop_assert!((arriving - dm.total_to(t)).abs() < 1e-6,
                "destination {t}: {arriving} arrived vs {} demanded", dm.total_to(t));
        }
        for load in routing.edge_loads(&g, &dm) {
            prop_assert!(load >= -1e-9);
        }
    }

    /// The LP solver agrees with a brute-force vertex enumeration on random
    /// 2-variable LPs (maximize c·x over box + one coupling constraint).
    #[test]
    fn lp_solver_matches_brute_force_on_2d_problems(
        c0 in -3.0f64..3.0,
        c1 in -3.0f64..3.0,
        ub0 in 0.5f64..4.0,
        ub1 in 0.5f64..4.0,
        budget in 1.0f64..6.0,
    ) {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", c0);
        let y = lp.add_nonneg_var("y", c1);
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Le, budget);
        lp.add_constraint("ux", &[(x, 1.0)], Relation::Le, ub0);
        lp.add_constraint("uy", &[(y, 1.0)], Relation::Le, ub1);
        let sol = lp.solve().unwrap();

        // Brute force over the polytope's vertices.
        let mut best = f64::NEG_INFINITY;
        let candidates = [
            (0.0, 0.0),
            (ub0.min(budget), 0.0),
            (0.0, ub1.min(budget)),
            (ub0, (budget - ub0).clamp(0.0, ub1)),
            ((budget - ub1).clamp(0.0, ub0), ub1),
            (ub0, ub1),
        ];
        for (vx, vy) in candidates {
            if vx + vy <= budget + 1e-9 && vx <= ub0 + 1e-9 && vy <= ub1 + 1e-9 {
                best = best.max(c0 * vx + c1 * vy);
            }
        }
        prop_assert!((sol.objective - best).abs() < 1e-4,
            "LP {} vs brute force {best}", sol.objective);
    }

    /// ECMP-multiplicity approximation: realized fractions always form a
    /// distribution, respect the budget, and the error never exceeds the
    /// worst case of one entry resolution.
    #[test]
    fn split_approximation_invariants(
        fractions in proptest::collection::vec(0.0f64..1.0, 2..6),
        budget in 2usize..16,
    ) {
        prop_assume!(fractions.iter().any(|&f| f > 0.01));
        let m = approximate_split(&fractions, budget);
        let used: u32 = m.iter().sum();
        let positive = fractions.iter().filter(|&&f| f > 0.0).count() as u32;
        prop_assert!(used >= positive);
        prop_assert!(used <= budget.max(positive as usize) as u32);
        let realized = realized_fractions(&m);
        let total: f64 = realized.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Error bound: with T entries the realized fractions are multiples
        // of 1/T, so the max error is below 1 (and usually below 1/positive).
        prop_assert!(max_split_error(&fractions, &m) <= 1.0);
        // Zero-demand next hops never get entries.
        for (f, &mi) in fractions.iter().zip(&m) {
            if *f == 0.0 {
                prop_assert_eq!(mi, 0);
            }
        }
    }

    /// Worst-case demand matrices returned by the slave LP are always
    /// routable within the capacities (that is what normalizes the ratio).
    #[test]
    fn adversarial_matrices_are_routable(
        n in 4usize..7,
        extra in proptest::collection::vec((0usize..7, 0usize..7), 0..4),
        caps in proptest::collection::vec(1.0f64..5.0, 3..6),
    ) {
        let g = random_graph(n, &extra, &caps);
        let routing = ecmp_routing(&g).unwrap();
        let unc = UncertaintySet::oblivious(n);
        let wc = performance_ratio_exact(&g, &routing, &unc, RoutabilityScope::AllEdges, None)
            .unwrap();
        prop_assert!(wc.ratio >= 1.0 - 1e-6);
        let opt = optu(&g, &wc.demand).unwrap();
        prop_assert!(opt <= 1.0 + 1e-4, "witness demand has OPTU {opt} > 1");
    }
}
