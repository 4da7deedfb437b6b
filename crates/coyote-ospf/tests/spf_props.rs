//! The routers' SPF against independent references.
//!
//! `compute_fib` and `Withdrawal::fib` are plain OSPF from
//! `coyote_graph::spf` over the LSDB's graph view, plus two passes over the
//! lies. Two things can go wrong in that arrangement, and each has its own
//! check here:
//!
//! * the lies are combined wrongly — so random lied-to LSDBs (cheaper,
//!   equal-cost and dearer lies, shared multi-prefix fakes, a failed
//!   router) are compared entry by entry against a brute-force reference
//!   that asks the question per (router, prefix), with Bellman–Ford
//!   distances and its own next-hop test;
//! * the graph view differs from the physical graph — so on every zoo
//!   topology the view must give bit-equal distances and equal next-hop
//!   sets, before and after a router failure.

mod common;

use common::random_graph;
use coyote_graph::spf::{dijkstra_to, shortest_path_dag};
use coyote_graph::{Graph, NodeId};
use coyote_ospf::{compute_fib, FakeNodeLsa, Fib, Lsdb, PrefixAdvertisement};
use proptest::prelude::*;

/// What every router installs, asked one (router, prefix) pair at a time.
fn reference_fib(lsdb: &Lsdb, n: usize) -> Fib {
    let mut fib = Fib::new(n);
    for t in (0..n).map(NodeId) {
        let mut dist = vec![f64::INFINITY; n];
        dist[t.index()] = 0.0;
        for _ in 0..n {
            for lsa in lsdb.router_lsas() {
                for l in &lsa.links {
                    let through = l.weight + dist[l.neighbor.index()];
                    let d = &mut dist[lsa.router.index()];
                    *d = d.min(through);
                }
            }
        }
        for lsa in lsdb.router_lsas() {
            let (u, real) = (lsa.router, dist[lsa.router.index()]);
            if u == t || !real.is_finite() {
                continue;
            }
            let lies: Vec<(f64, NodeId)> = lsdb
                .fakes()
                .iter()
                .filter(|f| f.attachment == u)
                .filter_map(|f| Some((f.total_cost_to(t)?, f.forwarding_address)))
                .collect();
            let best = lies.iter().fold(real, |best, &(cost, _)| best.min(cost));
            let ties = |cost: f64| (cost - best).abs() <= 1e-9 * (1.0 + best.abs());
            let entry = fib.entry_mut(u, t);
            if ties(real) {
                for l in &lsa.links {
                    if ties(l.weight + dist[l.neighbor.index()]) {
                        entry.add(l.neighbor, 1);
                    }
                }
            }
            for (_, forwarding_address) in lies.into_iter().filter(|&(cost, _)| ties(cost)) {
                entry.add(forwarding_address, 1);
            }
        }
    }
    fib
}

/// Half the total cost of a lie at `u` towards `t`, relative to `u`'s real
/// distance: two different cheaper costs, an exact tie, and a dearer one.
/// Two equal halves make a tie sum back to the distance exactly.
fn half_lie_cost(real_dist: f64, kind: usize) -> f64 {
    let scale = [0.25, 0.5, 1.0, 2.0][kind % 4];
    real_dist * scale / 2.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_fib_matches_the_per_pair_reference(
        n in 4usize..9,
        extra in proptest::collection::vec((0usize..16, 0usize..16), 0..5),
        lies in proptest::collection::vec((0usize..64, 0usize..64, 0usize..8, 0usize..4), 0..24),
        shared in proptest::collection::vec((0usize..64, 0usize..64, 0usize..64, 0usize..16), 0..6),
        withdrawn in 0usize..16,
    ) {
        let g = random_graph(n, &extra, &[1.0, 2.0, 5.0]);
        let real_dist: Vec<Vec<f64>> = g.nodes().map(|t| dijkstra_to(&g, t).dist).collect();
        let neighbor = |u: NodeId, pick: usize| {
            let out = g.out_edges(u);
            g.edge(out[pick % out.len()]).dst
        };

        let mut lsdb = Lsdb::from_graph(&g);
        for &(u, t, fwd, kind) in &lies {
            let (u, t) = (NodeId(u % n), NodeId(t % n));
            let half = half_lie_cost(real_dist[t.index()][u.index()], kind);
            lsdb.inject(FakeNodeLsa::single(u, t, half, half, neighbor(u, fwd)));
        }
        for &(u, t_a, t_b, kinds) in &shared {
            let (u, t_a, t_b) = (NodeId(u % n), NodeId(t_a % n), NodeId(t_b % n));
            if t_a == t_b {
                continue;
            }
            let mut fake = FakeNodeLsa::single(u, t_a, 0.0, 0.0, neighbor(u, kinds));
            fake.prefixes[0].cost_fake_to_destination =
                2.0 * half_lie_cost(real_dist[t_a.index()][u.index()], kinds);
            fake.prefixes.push(PrefixAdvertisement {
                destination: t_b,
                cost_fake_to_destination:
                    2.0 * half_lie_cost(real_dist[t_b.index()][u.index()], kinds / 4),
            });
            lsdb.inject(fake);
        }

        // Half the cases fail one router after the lies are in. The
        // reference reads the copy that has its LSA and the lies it
        // invalidates removed.
        let (fib, reference) = if withdrawn < n {
            let dead = [NodeId(withdrawn)];
            (lsdb.withdraw(&dead, &[]).fib(), reference_fib(&lsdb.pruned(&dead, &[]).0, n))
        } else {
            (compute_fib(&lsdb, n), reference_fib(&lsdb, n))
        };
        for t in g.nodes() {
            for u in g.nodes() {
                prop_assert_eq!(
                    fib.entry(u, t),
                    reference.entry(u, t),
                    "router {} towards prefix {} ({} fakes)",
                    u,
                    t,
                    lsdb.fake_count()
                );
            }
        }
    }
}

/// Distances (bit for bit) and next-hop neighbor sets of plain OSPF on both
/// representations of one topology.
fn assert_same_plain_ospf(physical: &Graph, view: &Graph, what: &str) {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let hops = |g: &Graph, edges: &[coyote_graph::EdgeId]| {
        let mut hops: Vec<NodeId> = edges.iter().map(|&e| g.edge(e).dst).collect();
        hops.sort();
        hops
    };
    assert_eq!(physical.node_count(), view.node_count(), "{what}");
    for t in physical.nodes() {
        let (a, b) = (shortest_path_dag(physical, t), shortest_path_dag(view, t));
        assert_eq!(
            bits(&a.dist_to_dest),
            bits(&b.dist_to_dest),
            "{what} -> {t}"
        );
        for u in physical.nodes() {
            assert_eq!(
                hops(physical, a.next_hops(u)),
                hops(view, b.next_hops(u)),
                "{what}: next hops of {u} towards {t}"
            );
        }
    }
}

#[test]
fn the_lsdb_view_is_the_physical_graph_on_every_zoo_topology() {
    for topology in coyote_topology::zoo::all() {
        let g = topology.to_graph().expect("zoo topology loads");
        let n = g.node_count();
        let lsdb = Lsdb::from_graph(&g);
        assert_same_plain_ospf(&g, &lsdb.real_topology(n), &topology.name);

        // Fail the best-connected router: the view keeps it as an isolated
        // node, exactly like the physical graph minus its incident edges.
        let hub = g
            .nodes()
            .max_by_key(|&v| g.out_edges(v).len())
            .expect("non-empty topology");
        let incident: Vec<_> = g
            .edges()
            .filter(|&e| g.edge(e).src == hub || g.edge(e).dst == hub)
            .collect();
        let withdrawal = lsdb.withdraw(&[hub], &[]);
        assert_eq!(withdrawal.stats().dead_routers, 1);
        assert_same_plain_ospf(
            &g.without_edges(&incident),
            withdrawal.topology(),
            &format!("{} without {hub}", topology.name),
        );
    }
}
