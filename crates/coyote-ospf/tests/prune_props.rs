//! Property-based tests for failure withdrawal (the failure engine's OSPF
//! reconvergence model): after withdrawing a failed link or router from a
//! lied-to LSDB, no reconverged forwarding entry may ever traverse the
//! failed element — neither through a real adjacency nor through a
//! surviving lie's forwarding address. And the two sides of one
//! [`Failure`], the surviving graph and the LSDB withdrawal, agree.

mod common;

use common::{random_graph, random_routing};
use coyote_graph::{Edge, EdgeId, Failure, Graph, NodeId};
use coyote_ospf::{compute_program, Fib, Lsdb, VirtualLinkBudget};
use proptest::prelude::*;

/// Asserts that no FIB entry forwards across a dead adjacency or towards a
/// dead router.
fn assert_fib_avoids(
    fib: &Fib,
    n: usize,
    dead_nodes: &[NodeId],
    dead_links: &[(NodeId, NodeId)],
) -> Result<(), TestCaseError> {
    for t in 0..n {
        for u in 0..n {
            let entry = fib.entry(NodeId(u), NodeId(t));
            for (next_hop, _) in entry.iter() {
                prop_assert!(
                    !dead_nodes.contains(&next_hop),
                    "router {u} -> dead node {next_hop} towards {t}"
                );
                for &(a, b) in dead_links {
                    let uses_dead_link =
                        (NodeId(u) == a && next_hop == b) || (NodeId(u) == b && next_hop == a);
                    prop_assert!(
                        !uses_dead_link,
                        "router {u} forwards over dead link {a}-{b} towards {t}"
                    );
                }
            }
            // A dead router must have no forwarding state at all.
            if dead_nodes.contains(&NodeId(u)) {
                prop_assert_eq!(
                    entry.total_entries(),
                    0,
                    "dead router {} still has FIB entries",
                    u
                );
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Failing one bidirectional link: the withdrawal's SPF never routes
    /// across it, in either direction, for any destination.
    #[test]
    fn no_reconverged_path_traverses_a_failed_link(
        n in 4usize..8,
        extra in proptest::collection::vec((0usize..12, 0usize..12), 0..4),
        raw in proptest::collection::vec(0.0f64..4.0, 8..16),
        link_pick in 0usize..64,
    ) {
        let caps = [1.0, 2.0, 5.0];
        let g = random_graph(n, &extra, &caps);
        let target = random_routing(&g, &raw);
        let Ok(program) = compute_program(&g, &target, VirtualLinkBudget::per_prefix(8)) else {
            return Ok(()); // unrealizable split: not the property under test
        };

        // Pick a bidirectional link (the forward edges are the even ids).
        let link_count = g.edge_count() / 2;
        let e = coyote_graph::EdgeId(2 * (link_pick % link_count));
        let (a, b) = g.endpoints(e);
        let dead_links = [(a, b)];

        let withdrawal = program.lsdb.withdraw(&Failure::new([], dead_links));
        prop_assert_eq!(withdrawal.stats().dead_routers, 0);
        prop_assert_eq!(withdrawal.stats().dropped_links, 2);
        assert_fib_avoids(&withdrawal.fib(), n, &[], &dead_links)?;
    }

    /// Failing one router: the withdrawal's SPF never forwards to it and
    /// the router itself holds no forwarding state.
    #[test]
    fn no_reconverged_path_traverses_a_failed_node(
        n in 4usize..8,
        extra in proptest::collection::vec((0usize..12, 0usize..12), 0..4),
        raw in proptest::collection::vec(0.0f64..4.0, 8..16),
        node_pick in 0usize..64,
    ) {
        let caps = [1.0, 2.0, 5.0];
        let g = random_graph(n, &extra, &caps);
        let target = random_routing(&g, &raw);
        let Ok(program) = compute_program(&g, &target, VirtualLinkBudget::per_prefix(8)) else {
            return Ok(());
        };

        let dead = NodeId(node_pick % n);
        let dead_nodes = [dead];
        let withdrawal = program.lsdb.withdraw(&Failure::new(dead_nodes, []));
        prop_assert_eq!(withdrawal.stats().dead_routers, 1);
        assert_fib_avoids(&withdrawal.fib(), n, &dead_nodes, &[])?;
    }

    /// Withdrawing is idempotent: a dead router's links, named again as
    /// dead links of the same failure, change nothing — not the stats, not
    /// the FIB.
    #[test]
    fn pruning_is_idempotent(
        n in 4usize..8,
        extra in proptest::collection::vec((0usize..12, 0usize..12), 0..4),
        raw in proptest::collection::vec(0.0f64..4.0, 8..16),
        node_pick in 0usize..64,
    ) {
        let caps = [1.0, 2.0];
        let g = random_graph(n, &extra, &caps);
        let target = random_routing(&g, &raw);
        let Ok(program) = compute_program(&g, &target, VirtualLinkBudget::per_prefix(8)) else {
            return Ok(());
        };
        let dead = NodeId(node_pick % n);
        let incident: Vec<(NodeId, NodeId)> = g
            .edges()
            .map(|e| g.endpoints(e))
            .filter(|&(a, b)| a == dead || b == dead)
            .collect();
        let once = program.lsdb.withdraw(&Failure::new([dead], []));
        let twice = program.lsdb.withdraw(&Failure::new([dead], incident));
        prop_assert_eq!(once.stats().dead_routers, 1);
        prop_assert_eq!(once.stats(), twice.stats());
        prop_assert_eq!(once.fib(), twice.fib());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One random failure, 0–3 dead links and 0–2 dead routers, seen from
    /// both sides. The surviving graph keeps exactly the edges `kills`
    /// spares, in order; a pair is connected in it exactly when the
    /// withdrawal reaches; and the withdrawal's surviving adjacencies are
    /// the surviving graph's `(src, dst, weight)` multiset.
    #[test]
    fn the_surviving_graph_and_the_withdrawal_agree(
        n in 4usize..9,
        extra in proptest::collection::vec((0usize..16, 0usize..16), 0..5),
        link_picks in proptest::collection::vec(0usize..64, 0..4),
        node_picks in proptest::collection::vec(0usize..16, 0..3),
    ) {
        let g = random_graph(n, &extra, &[1.0, 2.0, 5.0]);
        // The forward edges are the even ids.
        let links = link_picks
            .iter()
            .map(|&p| g.endpoints(EdgeId(2 * (p % (g.edge_count() / 2)))));
        let routers = node_picks.iter().filter(|&&v| v < n).map(|&v| NodeId(v));
        let failure = Failure::new(routers, links);
        let after = failure.surviving(&g);

        let spared: Vec<Edge> = g
            .edges()
            .filter(|&e| !failure.kills(g.edge(e).src, g.edge(e).dst))
            .map(|e| g.edge(e).clone())
            .collect();
        let kept: Vec<Edge> = after.edges().map(|e| after.edge(e).clone()).collect();
        prop_assert_eq!(kept, spared);

        let lsdb = Lsdb::from_graph(&g);
        let withdrawal = lsdb.withdraw(&failure);
        for s in g.nodes() {
            for t in g.nodes() {
                prop_assert_eq!(
                    after.is_reachable(s, t),
                    withdrawal.reaches(s, t),
                    "{} -> {} under {:?}", s, t, failure
                );
            }
        }
        let adjacencies = |h: &Graph| {
            let mut all: Vec<(NodeId, NodeId, u64)> = h
                .edges()
                .map(|e| (h.edge(e).src, h.edge(e).dst, h.weight(e).to_bits()))
                .collect();
            all.sort_unstable();
            all
        };
        prop_assert_eq!(adjacencies(withdrawal.topology()), adjacencies(&after));
    }
}
