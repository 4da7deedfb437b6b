//! Per-router SPF over the (possibly lied-to) LSDB.
//!
//! Plain OSPF — distances towards a prefix and the equal-cost next hops —
//! is not computed here: it is [`coyote_graph::spf::shortest_path_dag`] run
//! over [`Lsdb::real_topology`], the same kernel the Fibbing compiler asks
//! about the physical graph, so compiler and routers agree by construction
//! on what a lie-free router would do. This module adds only the lies.
//! Fake-node advertisements participate exactly like real routes: if a lie
//! attached at router `u` advertises the destination at a total cost lower
//! than `u`'s real shortest-path distance, `u` prefers the lie (and forwards
//! to the lie's forwarding address); equal-cost lies and real routes are
//! combined by ECMP, with one FIB entry each — which is how virtual next
//! hops realize unequal splits. Lies never alter the real distance field:
//! in Fibbing they are crafted per destination and only influence the
//! router they are attached to.
//!
//! A lie of `k` replicas ([`FakeNodeLsa::replicas`]) costs one pass and adds
//! its `k` entries as one multiplicity.

use crate::fib::{Fib, FibEntry};
use crate::lsa::FakeNodeLsa;
use crate::lsdb::Lsdb;
use coyote_graph::spf::{shortest_path_dag, ShortestPathDag, ECMP_EPSILON};
use coyote_graph::{Graph, NodeId};
use std::borrow::Borrow;

/// True when a route at `cost` ties with the winning cost `best`, under the
/// one relative ECMP tie tolerance ([`ECMP_EPSILON`]) the real shortest-path
/// DAG uses too. The compressor groups lies with the same test, so it keeps
/// exactly the lies the routers would install.
#[inline]
pub(crate) fn ties(cost: f64, best: f64) -> bool {
    (cost - best).abs() <= ECMP_EPSILON * (1.0 + best.abs())
}

/// The cost at which `u` routes towards `t`: the cheaper of its real
/// distance and its cheapest lie. `None` when `u` installs nothing for `t` —
/// it is the destination itself, or it has no real route (which includes
/// every router whose LSA is withdrawn; lies do not resurrect it).
#[inline]
fn winning_cost(u: NodeId, t: NodeId, real_dist: f64, cheapest_lie: f64) -> Option<f64> {
    (u != t && real_dist.is_finite()).then(|| real_dist.min(cheapest_lie))
}

/// `(lie, prefix)` index pairs grouped by destination: `ads[t]` lists the
/// prefix advertisements, of one database's lies, that advertise `t`.
pub(crate) type ByDestination = Vec<Vec<(usize, usize)>>;

/// Computes the full FIB: for every destination prefix and every router, the
/// ECMP next-hop multiset after taking the injected lies into account. One
/// plain SPF per prefix, then one pass per prefix over its lies.
pub fn compute_fib(lsdb: &Lsdb, node_count: usize) -> Fib {
    let _span = coyote_obs::span("ospf.spf");
    coyote_obs::counter("ospf.spf.runs", node_count as u64);
    let mut ads: ByDestination = vec![Vec::new(); node_count];
    for (l, lie) in lsdb.fakes().iter().enumerate() {
        for (p, prefix) in lie.prefixes.iter().enumerate() {
            ads[prefix.destination.index()].push((l, p));
        }
    }
    let real = lsdb.real_topology(node_count);
    let spfs = real.nodes().map(|t| shortest_path_dag(&real, t));
    build_fib(&real, spfs, lsdb.fakes(), &ads)
}

/// The FIB builder behind both [`compute_fib`] and
/// [`Withdrawal`](crate::Withdrawal): one column per shortest-path DAG in
/// `spfs` (plain OSPF over `real`, one per destination), filled from that
/// destination's `(lie, prefix)` advertisements in `ads`.
pub(crate) fn build_fib<S: Borrow<ShortestPathDag>>(
    real: &Graph,
    spfs: impl Iterator<Item = S>,
    fakes: &[FakeNodeLsa],
    ads: &ByDestination,
) -> Fib {
    let mut fib = Fib::new(real.node_count());
    let mut cheapest = vec![f64::INFINITY; real.node_count()];
    for spf in spfs {
        let spf = spf.borrow();
        let t = spf.destination;
        fill_column(
            fib.column_mut(t),
            &mut cheapest,
            real,
            spf,
            fakes,
            &ads[t.index()],
        );
    }
    fib
}

/// Fills every router's entry towards `spf.destination` from scratch.
///
/// One pass over the prefix's `(lie, prefix)` advertisements `ads` finds the
/// cheapest lie per router (into the scratch row `cheapest`); the real next
/// hops are installed wherever the real route ties with the winning cost; a
/// second pass adds, per lie at the winning cost, one entry per replica.
pub(crate) fn fill_column(
    column: &mut [FibEntry],
    cheapest: &mut [f64],
    real: &Graph,
    spf: &ShortestPathDag,
    fakes: &[FakeNodeLsa],
    ads: &[(usize, usize)],
) {
    let t = spf.destination;
    // A lie and its total cost towards `t` (shared fakes carry per-prefix
    // costs).
    let lie = |&(l, p): &(usize, usize)| {
        let fake = &fakes[l];
        (
            fake,
            fake.cost_to_fake + fake.prefixes[p].cost_fake_to_destination,
        )
    };
    cheapest.fill(f64::INFINITY);
    for (fake, cost) in ads.iter().map(lie) {
        let slot = &mut cheapest[fake.attachment.index()];
        *slot = slot.min(cost);
    }

    for (u, entry) in real.nodes().zip(column.iter_mut()) {
        entry.next_hops.clear();
        let d = spf.dist_to_dest[u.index()];
        if winning_cost(u, t, d, cheapest[u.index()]).is_some_and(|best| ties(d, best)) {
            for &e in spf.next_hops(u) {
                entry.add(real.edge(e).dst, 1);
            }
        }
    }

    // Lies at the winning cost add one entry per replica towards their
    // forwarding address.
    for (fake, cost) in ads.iter().map(lie) {
        let u = fake.attachment;
        let d = spf.dist_to_dest[u.index()];
        if winning_cost(u, t, d, cheapest[u.index()]).is_some_and(|best| ties(cost, best)) {
            column[u.index()].add(fake.forwarding_address, fake.replicas);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::common::random_graph;
    use crate::lsa::PrefixAdvertisement;
    use coyote_core::example_fig1::{self, Fig1};
    use coyote_graph::spf::dijkstra_to;
    use coyote_graph::Failure;
    use proptest::prelude::*;

    #[test]
    fn honest_lsdb_reproduces_plain_ecmp() {
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let lsdb = Lsdb::from_graph(&g);
        let fib = compute_fib(&lsdb, 4);
        // s1 splits equally between s2 and v; s2 and v go straight to t.
        let e = fib.entry(s1, t);
        assert_eq!(e.total_entries(), 2);
        assert!((e.fraction_to(s2) - 0.5).abs() < 1e-12);
        assert!((e.fraction_to(v) - 0.5).abs() < 1e-12);
        assert_eq!(fib.entry(s2, t).total_entries(), 1);
        assert!((fib.entry(s2, t).fraction_to(t) - 1.0).abs() < 1e-12);
        // The routing derived from the honest FIB is exactly ECMP.
        let routing = fib.to_routing(&g).unwrap();
        let ecmp = coyote_core::ecmp_routing(&g).unwrap();
        for dest in g.nodes() {
            for e in g.edges() {
                assert!(
                    (routing.ratio(dest, e) - ecmp.ratio(dest, e)).abs() < 1e-9,
                    "mismatch for destination {dest} edge {e}"
                );
            }
        }
    }

    #[test]
    fn a_cheaper_lie_overrides_the_real_route() {
        // Deceive s2 into sending t-traffic via v (instead of its direct
        // link) by advertising a fake node at total cost 0.5 < 1.
        let (g, Fig1 { s2, v, t, .. }) = example_fig1::topology();
        let mut lsdb = Lsdb::from_graph(&g);
        lsdb.inject(FakeNodeLsa::single(s2, t, 0.25, 0.25, v));
        let fib = compute_fib(&lsdb, 4);
        let e = fib.entry(s2, t);
        assert_eq!(e.total_entries(), 1);
        assert!((e.fraction_to(v) - 1.0).abs() < 1e-12);
        assert_eq!(e.fraction_to(t), 0.0);
    }

    #[test]
    fn replicated_lies_realize_unequal_splits() {
        // Fig. 1d: two virtual entries towards s2 and the real path via v
        // give s1 a 2/3 - 1/3 split. We realize it with lies only: three
        // fake entries, two resolving to s2 and one to v, all cheaper than
        // the real distance.
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let mut lsdb = Lsdb::from_graph(&g);
        let lie = |fwd: NodeId| FakeNodeLsa::single(s1, t, 0.5, 0.5, fwd);
        lsdb.inject(lie(s2));
        lsdb.inject(lie(s2));
        lsdb.inject(lie(v));
        let fib = compute_fib(&lsdb, 4);
        let e = fib.entry(s1, t);
        assert_eq!(e.total_entries(), 3);
        assert!((e.fraction_to(s2) - 2.0 / 3.0).abs() < 1e-12);
        assert!((e.fraction_to(v) - 1.0 / 3.0).abs() < 1e-12);
        // Other routers are unaffected.
        assert_eq!(fib.entry(s2, t).total_entries(), 1);
    }

    #[test]
    fn lies_for_one_prefix_do_not_leak_to_others() {
        let (g, Fig1 { s1, s2, v, t }) = example_fig1::topology();
        let mut lsdb = Lsdb::from_graph(&g);
        lsdb.inject(FakeNodeLsa::single(s1, t, 0.5, 0.5, s2));
        let fib = compute_fib(&lsdb, 4);
        // Routing towards v (a different prefix) is untouched ECMP.
        let e = fib.entry(s1, v);
        assert_eq!(e.total_entries(), 1);
        assert!((e.fraction_to(v) - 1.0).abs() < 1e-12);
        let _ = s2;
    }

    #[test]
    fn equal_cost_lie_combines_with_real_routes() {
        // A lie at exactly the real distance adds a parallel entry instead
        // of replacing the real ones.
        let (g, Fig1 { s2, v, t, .. }) = example_fig1::topology();
        let mut lsdb = Lsdb::from_graph(&g);
        lsdb.inject(FakeNodeLsa::single(s2, t, 0.5, 0.5, v));
        let fib = compute_fib(&lsdb, 4);
        let e = fib.entry(s2, t);
        assert_eq!(e.total_entries(), 2);
        assert!((e.fraction_to(t) - 0.5).abs() < 1e-12);
        assert!((e.fraction_to(v) - 0.5).abs() < 1e-12);
    }

    // If the lies are combined wrongly, the FIB is wrong. So random lied-to
    // LSDBs (cheaper, equal-cost and dearer lies, shared multi-prefix fakes, a
    // failed router) are compared entry by entry against a brute-force
    // reference that asks the question per (router, prefix), with Bellman–Ford
    // distances and its own next-hop test.

    /// What every router installs, asked one (router, prefix) pair at a time.
    pub(crate) fn reference_fib(lsdb: &Lsdb, n: usize) -> Fib {
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
                let lies: Vec<(f64, NodeId, u32)> = lsdb
                    .fakes()
                    .iter()
                    .filter(|f| f.attachment == u)
                    .filter_map(|f| Some((f.total_cost_to(t)?, f.forwarding_address, f.replicas)))
                    .collect();
                let best = lies.iter().fold(real, |best, &(cost, ..)| best.min(cost));
                let ties = |cost: f64| (cost - best).abs() <= 1e-9 * (1.0 + best.abs());
                let entry = fib.entry_mut(u, t);
                if ties(real) {
                    for l in &lsa.links {
                        if ties(l.weight + dist[l.neighbor.index()]) {
                            entry.add(l.neighbor, 1);
                        }
                    }
                }
                // One entry per replica of each lie.
                for (_, via, replicas) in lies.into_iter().filter(|&(cost, ..)| ties(cost)) {
                    for _ in 0..replicas {
                        entry.add(via, 1);
                    }
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
            lies in proptest::collection::vec(
                (0usize..64, 0usize..64, 0usize..8, 0usize..4),
                0..24,
            ),
            shared in proptest::collection::vec(
                (0usize..64, 0usize..64, 0usize..64, 0usize..16),
                0..6,
            ),
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
                let fib = lsdb.withdraw(&Failure::new(dead, [])).fib();
                (fib, reference_fib(&lsdb.pruned(&dead, &[]).0, n))
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
}
