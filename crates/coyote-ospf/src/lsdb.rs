//! The OSPF link-state database, including injected lies.
//!
//! A lie is stored once with its replica count
//! ([`FakeNodeLsa::replicas`]), so every fake-node count the database reports
//! is a sum of counts.

use crate::lsa::{fake_count, FakeNodeLsa, RouterLink, RouterLsa};
use coyote_graph::{Graph, NodeId};
use serde::Serialize;

/// What [`Lsdb::withdraw`] removes while simulating OSPF's reaction to a
/// failure: dead router advertisements, withdrawn adjacencies, and lies the
/// Fibbing controller must retract because the failure invalidated them.
/// The fake counts count fake nodes, each lie's replicas included.
/// `dropped_fakes` is the *reconvergence fake-LSA delta* reported by the
/// failure engine. With compressed (multi-prefix) fakes a failure may also
/// strip individual prefix advertisements off a surviving shared fake;
/// `dropped_advertisements` counts those withdrawals (for single-prefix
/// programs it equals `dropped_fakes`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct PruneStats {
    /// Router LSAs withdrawn because the router itself failed.
    pub dead_routers: usize,
    /// Directed adjacencies removed from surviving router LSAs.
    pub dropped_links: usize,
    /// Fake-node LSAs retracted entirely because the failure invalidated
    /// them (structurally, or because every prefix they advertised had to be
    /// withdrawn).
    pub dropped_fakes: usize,
    /// Fake-node LSAs that survive the failure (possibly with fewer
    /// prefixes).
    pub retained_fakes: usize,
    /// Individual prefix advertisements withdrawn, across dropped and
    /// surviving fakes.
    pub dropped_advertisements: usize,
}

/// The link-state database every router's SPF computation reads: the real
/// topology (one [`RouterLsa`] per router) plus the fake-node advertisements
/// injected by the Fibbing controller.
///
/// The compiler and the compressor emit lies in a canonical form: no two
/// adjacent lies are equal except in their replica count. The derived
/// `PartialEq` compares lie by lie, so two databases built that way from the
/// same program are equal.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct Lsdb {
    pub(crate) router_lsas: Vec<RouterLsa>,
    pub(crate) fakes: Vec<FakeNodeLsa>,
}

impl Lsdb {
    /// Builds the LSDB describing the physical topology of `graph` (no lies).
    pub fn from_graph(graph: &Graph) -> Self {
        let router_lsas = graph
            .nodes()
            .map(|r| RouterLsa {
                router: r,
                links: graph
                    .out_edges(r)
                    .iter()
                    .map(|&e| RouterLink {
                        neighbor: graph.edge(e).dst,
                        weight: graph.weight(e),
                    })
                    .collect(),
            })
            .collect();
        Self {
            router_lsas,
            fakes: Vec::new(),
        }
    }

    /// The real router advertisements.
    pub fn router_lsas(&self) -> &[RouterLsa] {
        &self.router_lsas
    }

    /// The real topology as the routers see it: a graph over node ids
    /// `0..node_count` with one edge per advertised adjacency (parallel
    /// adjacencies kept, the advertised metric as weight, unit capacity —
    /// LSAs carry none). Lies are not part of it, and a router whose LSA is
    /// withdrawn stays as an isolated node so ids keep their meaning.
    ///
    /// This is what [`coyote_graph::spf`] runs over to answer "what would
    /// plain OSPF do" on the router side. Panics if an LSA names a router
    /// outside `0..node_count` or lists itself as a neighbor.
    pub fn real_topology(&self, node_count: usize) -> Graph {
        let mut graph = Graph::with_nodes(node_count);
        for lsa in &self.router_lsas {
            for link in &lsa.links {
                graph
                    .add_edge(lsa.router, link.neighbor, 1.0, link.weight)
                    .expect("router LSAs name distinct routers inside the node-id space");
            }
        }
        graph
    }

    /// Injects a lie (of at least one replica).
    pub fn inject(&mut self, lie: FakeNodeLsa) {
        debug_assert!(lie.replicas >= 1, "a lie stands for at least one fake");
        self.fakes.push(lie);
    }

    /// All injected lies, each with its replica count.
    pub fn fakes(&self) -> &[FakeNodeLsa] {
        &self.fakes
    }

    /// Number of injected fake nodes: the lies' replica counts summed (a
    /// shared fake counts once however many prefixes it advertises).
    pub fn fake_count(&self) -> usize {
        fake_count(&self.fakes)
    }

    /// Total number of prefix advertisements across all fake nodes. Equal to
    /// [`fake_count`](Self::fake_count) for uncompressed (single-prefix)
    /// programs; larger once cross-destination merging shares fakes.
    pub fn prefix_advertisement_count(&self) -> usize {
        self.fakes
            .iter()
            .map(|f| f.fakes() * f.prefix_count())
            .sum()
    }

    /// Number of fake nodes advertising one destination prefix.
    pub fn fake_count_for(&self, destination: NodeId) -> usize {
        self.fakes
            .iter()
            .filter(|f| f.advertises(destination))
            .map(FakeNodeLsa::fakes)
            .sum()
    }
}

#[cfg(test)]
/// The copy-and-edit form of a failure, which [`Lsdb::withdraw`] replaced:
/// the reference the differential tests check the view against.
mod copy_and_edit {
    use super::*;
    use coyote_graph::spf::dijkstra_to;
    use std::collections::{BTreeMap, HashSet};

    impl Lsdb {
        /// 1 + the largest node index among the router LSAs, their
        /// adjacencies and the lies. Robust to withdrawn router LSAs, unlike
        /// the LSA count.
        pub(crate) fn node_id_space(&self) -> usize {
            let routers = self.router_lsas.iter().flat_map(|lsa| {
                std::iter::once(lsa.router).chain(lsa.links.iter().map(|l| l.neighbor))
            });
            let lies = self.fakes.iter().flat_map(|f| {
                [f.attachment, f.forwarding_address]
                    .into_iter()
                    .chain(f.prefixes.iter().map(|p| p.destination))
            });
            routers
                .chain(lies)
                .map(|v| v.index() + 1)
                .max()
                .unwrap_or(0)
        }

        /// Retracts every advertisement for one destination prefix and drops
        /// lies left with no prefixes. Returns how many prefix advertisements
        /// were withdrawn, replicas included (for single-prefix programs: how
        /// many fakes).
        ///
        /// This is the Fibbing controller's emergency fallback after a failure:
        /// lies that were loop-free on the pre-failure topology can form a
        /// forwarding loop once real shortest paths reconverge around the
        /// failed element. Withdrawing the whole prefix's lies returns that
        /// destination to plain (provably loop-free) OSPF forwarding — without
        /// disturbing the other prefixes a shared fake still advertises.
        /// [`Withdrawal::reconverge`](crate::Withdrawal::reconverge) does the
        /// same on its view of the database; this copy-and-edit form stays as
        /// the reference its differential test checks it against.
        pub(crate) fn retract_fakes_for(&mut self, destination: NodeId) -> usize {
            let mut withdrawn = 0usize;
            self.fakes.retain_mut(|f| {
                let before = f.prefixes.len();
                f.prefixes.retain(|p| p.destination != destination);
                withdrawn += f.fakes() * (before - f.prefixes.len());
                !f.prefixes.is_empty()
            });
            withdrawn
        }

        /// Simulates OSPF's reaction to a failure: returns a copy of this LSDB
        /// with the `dead_nodes` and `dead_links` (unordered endpoint pairs)
        /// withdrawn, plus [`PruneStats`] describing what was removed.
        ///
        /// [`withdraw`](Self::withdraw) answers the same question without the
        /// copy and is what the failure engine and the daemon call; this method
        /// stays as the reference its differential test checks it against.
        ///
        /// Real state first: router LSAs of dead routers disappear entirely
        /// (their neighbors stop hearing them), and surviving LSAs lose every
        /// adjacency towards a dead neighbor or across a dead link. Then the
        /// lies: a fake-node LSA is retracted whole when the failure invalidates
        /// it structurally — its attachment or forwarding address died, or the
        /// physical link `attachment -> forwarding_address` it relies on died.
        /// Otherwise its advertisements are filtered per prefix: an
        /// advertisement is withdrawn when its destination died or when the
        /// forwarding address can no longer reach that destination over the
        /// surviving *real* topology (forwarding into a dead end would blackhole
        /// traffic, so the controller withdraws the advertisement — other
        /// prefixes on a shared fake survive untouched). A fake left with no
        /// advertisements is retracted. Retained lies keep their metrics;
        /// re-running SPF on the pruned LSDB yields the obliviously reconverged
        /// routing.
        pub(crate) fn pruned(
            &self,
            dead_nodes: &[NodeId],
            dead_links: &[(NodeId, NodeId)],
        ) -> (Lsdb, PruneStats) {
            let dead: HashSet<NodeId> = dead_nodes.iter().copied().collect();
            let dead_pairs: HashSet<(NodeId, NodeId)> = dead_links
                .iter()
                .flat_map(|&(a, b)| [(a, b), (b, a)])
                .collect();
            let mut stats = PruneStats::default();

            let mut router_lsas = Vec::with_capacity(self.router_lsas.len());
            for lsa in &self.router_lsas {
                if dead.contains(&lsa.router) {
                    stats.dead_routers += 1;
                    continue;
                }
                let links: Vec<RouterLink> = lsa
                    .links
                    .iter()
                    .filter(|l| {
                        let gone = dead.contains(&l.neighbor)
                            || dead_pairs.contains(&(lsa.router, l.neighbor));
                        if gone {
                            stats.dropped_links += 1;
                        }
                        !gone
                    })
                    .cloned()
                    .collect();
                router_lsas.push(RouterLsa {
                    router: lsa.router,
                    links,
                });
            }

            let mut pruned = Lsdb {
                router_lsas,
                fakes: Vec::new(),
            };
            // Reachability of each destination over the surviving real topology,
            // computed lazily (one SPF per distinct destination among the lies).
            // The node-id space is the *original* one — a previous prune may
            // already have withdrawn LSAs, so `router_lsas.len()` undercounts.
            let surviving = pruned.real_topology(self.node_id_space());
            let mut dist_cache: BTreeMap<NodeId, Vec<f64>> = BTreeMap::new();
            for fake in &self.fakes {
                let structurally_dead = dead.contains(&fake.attachment)
                    || dead.contains(&fake.forwarding_address)
                    || dead_pairs.contains(&(fake.attachment, fake.forwarding_address));
                if structurally_dead {
                    stats.dropped_fakes += fake.fakes();
                    stats.dropped_advertisements += fake.fakes() * fake.prefix_count();
                    continue;
                }
                // Per-prefix filtering: dead destinations and blackholed
                // forwarding addresses lose their advertisement; the fake node
                // itself survives as long as any prefix remains.
                let mut survivor = fake.clone();
                survivor.prefixes.retain(|p| {
                    let gone = dead.contains(&p.destination) || {
                        let dist = dist_cache
                            .entry(p.destination)
                            .or_insert_with(|| dijkstra_to(&surviving, p.destination));
                        !dist[fake.forwarding_address.index()].is_finite()
                    };
                    if gone {
                        stats.dropped_advertisements += fake.fakes();
                    }
                    !gone
                });
                if survivor.prefixes.is_empty() {
                    stats.dropped_fakes += fake.fakes();
                } else {
                    stats.retained_fakes += fake.fakes();
                    pruned.fakes.push(survivor);
                }
            }
            (pruned, stats)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsa::PrefixAdvertisement;

    fn triangle() -> Graph {
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        g.add_bidirectional_edge(a, b, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(b, c, 1.0, 2.0).unwrap();
        g.add_bidirectional_edge(a, c, 1.0, 3.0).unwrap();
        g
    }

    fn lie(att: usize, dest: usize, fwd: usize) -> FakeNodeLsa {
        FakeNodeLsa::single(NodeId(att), NodeId(dest), 0.1, 0.1, NodeId(fwd))
    }

    #[test]
    fn lsdb_mirrors_the_physical_adjacencies() {
        let g = triangle();
        let lsdb = Lsdb::from_graph(&g);
        assert_eq!(lsdb.router_lsas().len(), 3);
        let lsa_a = &lsdb.router_lsas()[0];
        assert_eq!(lsa_a.router, NodeId(0));
        assert_eq!(lsa_a.links.len(), 2);
        assert_eq!(lsdb.fake_count(), 0);
        assert_eq!(lsdb.prefix_advertisement_count(), 0);
    }

    #[test]
    fn pruning_a_node_withdraws_its_lsa_and_its_neighbors_adjacencies() {
        let g = triangle();
        let lsdb = Lsdb::from_graph(&g);
        let (pruned, stats) = lsdb.pruned(&[NodeId(1)], &[]);
        assert_eq!(stats.dead_routers, 1);
        assert_eq!(stats.dropped_links, 2); // a->b and c->b withdrawn
        assert_eq!(pruned.router_lsas().len(), 2);
        for lsa in pruned.router_lsas() {
            assert!(lsa.links.iter().all(|l| l.neighbor != NodeId(1)));
        }
    }

    #[test]
    fn pruning_a_link_withdraws_both_orientations() {
        let g = triangle();
        let lsdb = Lsdb::from_graph(&g);
        let (pruned, stats) = lsdb.pruned(&[], &[(NodeId(0), NodeId(1))]);
        assert_eq!(stats.dead_routers, 0);
        assert_eq!(stats.dropped_links, 2);
        assert_eq!(pruned.router_lsas().len(), 3);
        assert!(pruned.router_lsas()[0]
            .links
            .iter()
            .all(|l| l.neighbor != NodeId(1)));
        assert!(pruned.router_lsas()[1]
            .links
            .iter()
            .all(|l| l.neighbor != NodeId(0)));
    }

    #[test]
    fn pruning_retracts_invalidated_lies_and_keeps_the_survivors_in_order() {
        let g = triangle();
        let mut lsdb = Lsdb::from_graph(&g);
        // Four lies towards c: via the a->b link, via b directly, attached
        // at b, and a->c directly.
        lsdb.inject(lie(0, 2, 1)); // relies on link a-b: retracted
        lsdb.inject(lie(1, 2, 2)); // attachment b's fwd link b-c survives
        lsdb.inject(lie(0, 2, 2)); // direct a->c survives
        lsdb.inject(lie(2, 1, 1)); // destination b still reachable
        let (pruned, stats) = lsdb.pruned(&[], &[(NodeId(0), NodeId(1))]);
        assert_eq!(stats.dropped_fakes, 1);
        assert_eq!(stats.retained_fakes, 3);
        assert_eq!(stats.dropped_advertisements, 1);
        assert_eq!(pruned.fake_count(), 3);
        assert_eq!(pruned.fakes(), &lsdb.fakes()[1..]);
    }

    #[test]
    fn retracting_a_prefix_withdraws_its_lies_and_keeps_the_rest() {
        let g = triangle();
        let mut lsdb = Lsdb::from_graph(&g);
        lsdb.inject(lie(0, 2, 1));
        lsdb.inject(lie(1, 2, 2));
        lsdb.inject(lie(2, 1, 1));
        assert_eq!(lsdb.retract_fakes_for(NodeId(2)), 2);
        assert_eq!(lsdb.fake_count(), 1);
        assert!(lsdb.fakes()[0].advertises(NodeId(1)));
        assert_eq!(lsdb.retract_fakes_for(NodeId(2)), 0);
    }

    #[test]
    fn retracting_a_prefix_keeps_shared_fakes_for_other_prefixes() {
        let g = triangle();
        let mut lsdb = Lsdb::from_graph(&g);
        // A shared fake at a, forwarding via b, advertising both b and c.
        let mut shared = lie(0, 2, 1);
        shared.prefixes.push(PrefixAdvertisement {
            destination: NodeId(1),
            cost_fake_to_destination: 0.2,
        });
        lsdb.inject(shared);
        lsdb.inject(lie(0, 2, 2));
        assert_eq!(lsdb.prefix_advertisement_count(), 3);

        // Retracting c withdraws two advertisements but only one whole fake;
        // the shared fake survives, still advertising b.
        assert_eq!(lsdb.retract_fakes_for(NodeId(2)), 2);
        assert_eq!(lsdb.fake_count(), 1);
        assert_eq!(lsdb.prefix_advertisement_count(), 1);
        assert!(lsdb.fakes()[0].advertises(NodeId(1)));
        assert!(!lsdb.fakes()[0].advertises(NodeId(2)));
    }

    #[test]
    fn pruning_strips_single_prefixes_off_shared_fakes() {
        let g = triangle();
        let mut lsdb = Lsdb::from_graph(&g);
        // Shared fake at a forwarding via c, advertising both c and b.
        let mut shared = lie(0, 2, 2);
        shared.prefixes.push(PrefixAdvertisement {
            destination: NodeId(1),
            cost_fake_to_destination: 0.2,
        });
        lsdb.inject(shared);
        // Killing router b invalidates the b-prefix advertisement, but the
        // fake (attached at a, forwarding to c) survives for c.
        let (pruned, stats) = lsdb.pruned(&[NodeId(1)], &[]);
        assert_eq!(stats.dropped_fakes, 0);
        assert_eq!(stats.retained_fakes, 1);
        assert_eq!(stats.dropped_advertisements, 1);
        assert_eq!(pruned.fake_count(), 1);
        assert!(pruned.fakes()[0].advertises(NodeId(2)));
        assert!(!pruned.fakes()[0].advertises(NodeId(1)));
    }

    #[test]
    fn pruning_retracts_lies_whose_forwarding_address_is_blackholed() {
        // Path graph a - b - c with a lie at a forwarding via b towards c.
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        g.add_bidirectional_edge(a, b, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(b, c, 1.0, 1.0).unwrap();
        let mut lsdb = Lsdb::from_graph(&g);
        lsdb.inject(FakeNodeLsa::single(a, c, 0.1, 0.1, b));
        // Killing the b-c link leaves the a-b link (and the lie's structure)
        // intact, but b can no longer reach c: the lie must be retracted.
        let (pruned, stats) = lsdb.pruned(&[], &[(b, c)]);
        assert_eq!(stats.dropped_fakes, 1);
        assert_eq!(stats.dropped_advertisements, 1);
        assert_eq!(pruned.fake_count(), 0);
    }

    #[test]
    fn counts_sum_the_replicas() {
        let g = triangle();
        let mut lsdb = Lsdb::from_graph(&g);
        let mut shared = FakeNodeLsa {
            replicas: 3,
            ..lie(0, 2, 1)
        };
        shared.prefixes.push(PrefixAdvertisement {
            destination: NodeId(1),
            cost_fake_to_destination: 0.2,
        });
        lsdb.inject(shared);
        lsdb.inject(lie(0, 2, 1));
        lsdb.inject(FakeNodeLsa {
            replicas: 2,
            ..lie(1, 2, 2)
        });
        assert_eq!(lsdb.fakes().len(), 3);
        assert_eq!(lsdb.fake_count(), 6);
        assert_eq!(lsdb.prefix_advertisement_count(), 9);
        assert_eq!(lsdb.fake_count_for(NodeId(2)), 6);
        assert_eq!(lsdb.fake_count_for(NodeId(1)), 3);
        assert_eq!(lsdb.fake_count_for(NodeId(0)), 0);
    }

    #[test]
    fn a_lie_beyond_the_routers_widens_the_node_id_space() {
        let mut lsdb = Lsdb::from_graph(&Graph::with_nodes(2));
        assert_eq!(lsdb.node_id_space(), 2);
        lsdb.inject(lie(0, 4, 1));
        assert_eq!(lsdb.node_id_space(), 5);
    }
}
