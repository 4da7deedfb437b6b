//! OSPF's reaction to a failure, read off the healthy LSDB.
//!
//! [`Lsdb::withdraw`] takes a [`Failure`] and the [`FailureView`] of the
//! topology it leaves, and answers two questions without copying the
//! database or running a Dijkstra. Which real adjacencies die, and which
//! lies does the controller have to retract? A lie goes when the failure
//! invalidates it structurally, or when its forwarding address can no
//! longer reach the prefix. Both questions are asked once per lie: its
//! replicas get the same answers, so they live and die together, and the
//! stats, the surviving fake count and the retracted advertisements are
//! sums of replica counts. The survivors are kept as `(lie, prefix)`
//! indices, grouped by destination. The blackhole test and the reconverged
//! FIB read the view's shortest-path DAGs, the n Dijkstras the caller
//! already paid for to build the view, so a withdrawal costs O(LSAs + lies),
//! whatever the replication.
//!
//! [`Withdrawal::reconverge`] is then the controller's emergency fallback,
//! one column at a time. Surviving lies were loop-free before the failure,
//! but real shortest paths move under it and can close a cycle through a
//! lie. When destination `t`'s column loops, `t`'s advertisements are
//! withdrawn and only that column is rebuilt from the plain next hops. Plain
//! OSPF is loop-free, so a column that still loops cannot be repaired.
//! Withdrawing `t`'s lies changes column `t` and no other, so this gives the
//! same routing and the same first error as withdrawing and recomputing the
//! whole FIB until it validates.

use crate::error::OspfError;
use crate::fib::Fib;
use crate::lsa::FakeNodeLsa;
use crate::lsdb::{Lsdb, PruneStats};
use crate::spf::{build_fib, fill_column, ByDestination};
use coyote_core::PdRouting;
use coyote_graph::{Failure, FailureView};

/// A failure applied to a borrowed [`Lsdb`] over the borrowed view of what
/// it leaves: which prefix advertisements are still live.
#[derive(Debug)]
pub struct Withdrawal<'a> {
    fakes: &'a [FakeNodeLsa],
    view: &'a FailureView,
    /// The live `(lie, prefix)` advertisements, grouped by destination.
    live: ByDestination,
    /// Live prefix advertisements per lie, indexed like `fakes`.
    live_prefixes: Vec<usize>,
    stats: PruneStats,
}

/// What [`Withdrawal::reconverge`] ends with.
#[derive(Debug)]
pub struct Reconvergence {
    /// The reconverged routing, or the first destination whose column fails.
    /// An [`OspfError::ForwardingLoop`] here is unrepairable: that
    /// destination's lies were already withdrawn, or it had none.
    pub routing: Result<PdRouting, OspfError>,
    /// Prefix advertisements withdrawn to break forwarding loops, replicas
    /// included.
    pub retracted: usize,
    /// Fake nodes still advertising at least one prefix.
    pub fake_count: usize,
}

impl Lsdb {
    /// Simulates OSPF's reaction to `failure` without copying the database.
    ///
    /// `view` is the real topology the routers see after `failure`
    /// ([`Failure::surviving`] of the graph the router LSAs describe). The
    /// LSAs of dead routers and every adjacency the failure
    /// [kills](Failure::kills) count as withdrawn. A lie is retracted whole
    /// when the failure kills its adjacency `attachment ->
    /// forwarding_address`; otherwise each of its prefix advertisements is
    /// withdrawn when the destination died or the forwarding address no
    /// longer reaches it in `view` (a blackhole), and a fake left with none
    /// is retracted. Retained lies keep their metrics. Fails with
    /// [`OspfError::DimensionMismatch`] unless `view` has one router per
    /// router LSA (the lies name routers among them, as for `compute_fib`).
    pub fn withdraw<'a>(
        &'a self,
        failure: &Failure,
        view: &'a FailureView,
    ) -> Result<Withdrawal<'a>, OspfError> {
        let n = view.graph().node_count();
        if self.router_lsas.len() != n {
            return Err(OspfError::DimensionMismatch(format!(
                "the LSDB has {} routers, the view {n}",
                self.router_lsas.len()
            )));
        }
        let mut stats = PruneStats::default();
        for lsa in &self.router_lsas {
            let (u, links) = (lsa.router, &lsa.links);
            if failure.kills_node(u) {
                stats.dead_routers += 1;
            } else {
                stats.dropped_links += links
                    .iter()
                    .filter(|l| failure.kills(u, l.neighbor))
                    .count();
            }
        }

        let mut live: ByDestination = vec![Vec::new(); n];
        let mut live_prefixes = vec![0; self.fakes.len()];
        for (l, lie) in self.fakes.iter().enumerate() {
            let (via, fakes) = (lie.forwarding_address, lie.fakes());
            if failure.kills(lie.attachment, via) {
                stats.dropped_fakes += fakes;
                stats.dropped_advertisements += fakes * lie.prefix_count();
                continue;
            }
            for (p, prefix) in lie.prefixes.iter().enumerate() {
                let t = prefix.destination;
                if failure.kills_node(t) || !view.reaches(via, t) {
                    stats.dropped_advertisements += fakes;
                } else {
                    live[t.index()].push((l, p));
                    live_prefixes[l] += 1;
                }
            }
            if live_prefixes[l] == 0 {
                stats.dropped_fakes += fakes;
            } else {
                stats.retained_fakes += fakes;
            }
        }
        Ok(Withdrawal {
            fakes: &self.fakes,
            view,
            live,
            live_prefixes,
            stats,
        })
    }
}

impl Withdrawal<'_> {
    /// What the failure withdrew.
    pub fn stats(&self) -> PruneStats {
        self.stats
    }

    /// The routers' FIB over the view and the live lies, before any loop is
    /// repaired.
    pub fn fib(&self) -> Fib {
        build_fib(self.view, self.fakes, &self.live)
    }

    /// Reconverges the routers on the view's graph: builds the
    /// [`fib`](Self::fib) once, then converts it destination by destination.
    /// A destination whose column loops has its live advertisements
    /// withdrawn and its column rebuilt from plain next hops, once.
    pub fn reconverge(mut self) -> Reconvergence {
        coyote_obs::counter("ospf.spf.runs", self.view.spfs().len() as u64);
        let mut retracted = 0;
        let routing = self.repaired_routing(&mut retracted);
        let fake_count = self
            .fakes
            .iter()
            .zip(&self.live_prefixes)
            .filter(|&(_, &live)| live > 0)
            .map(|(lie, _)| lie.fakes())
            .sum();
        Reconvergence {
            routing,
            retracted,
            fake_count,
        }
    }

    fn repaired_routing(&mut self, retracted: &mut usize) -> Result<PdRouting, OspfError> {
        let graph = self.view.graph();
        let mut fib = self.fib();
        let mut cheapest = vec![f64::INFINITY; graph.node_count()];
        let mut columns = Vec::with_capacity(graph.node_count());
        for t in graph.nodes() {
            let column = match fib.column_routing(graph, t) {
                Err(OspfError::ForwardingLoop { .. }) if !self.live[t.index()].is_empty() => {
                    for (l, _) in self.live[t.index()].drain(..) {
                        self.live_prefixes[l] -= 1;
                        *retracted += self.fakes[l].fakes();
                    }
                    let (spf, ads) = (&self.view.spfs()[t.index()], &self.live[t.index()]);
                    let column = fib.column_mut(t);
                    fill_column(column, &mut cheapest, graph, spf, self.fakes, ads);
                    fib.column_routing(graph, t)
                }
                column => column,
            }?;
            columns.push(column);
        }
        let (dags, ratios) = columns.into_iter().unzip();
        Ok(PdRouting::from_ratios(graph, dags, ratios))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{random_graph, random_routing};
    use crate::compress::{compress_program, CompressionLevel};
    use crate::fibbing::{compute_program, FibbingProgram, VirtualLinkBudget};
    use crate::lsa::PrefixAdvertisement;
    use crate::spf::compute_fib;
    use crate::spf::tests::reference_fib;
    use coyote_graph::{EdgeId, Graph, NodeId};
    use proptest::prelude::*;

    /// Path a - b - c - d at unit weights.
    fn path() -> Graph {
        let mut g = Graph::with_nodes(4);
        for i in 0..3 {
            g.add_bidirectional_edge(NodeId(i), NodeId(i + 1), 1.0, 1.0)
                .unwrap();
        }
        g
    }

    #[test]
    fn a_failure_withdraws_what_the_copy_drops() {
        let g = path();
        let mut lsdb = Lsdb::from_graph(&g);
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        lsdb.inject(FakeNodeLsa::single(a, d, 0.1, 0.1, b)); // b no longer reaches d
        lsdb.inject(FakeNodeLsa::single(b, c, 0.1, 0.1, c)); // survives
        let mut shared = FakeNodeLsa::single(c, b, 0.1, 0.1, b);
        shared.prefixes.push(PrefixAdvertisement {
            destination: d,
            cost_fake_to_destination: 0.1,
        });
        lsdb.inject(shared); // keeps b, loses d
        lsdb.inject(FakeNodeLsa::single(c, d, 0.1, 0.1, d)); // its link dies
        let dead_links = [(d, c)];
        let failure = Failure::new([], dead_links);
        let view = failure.surviving(&g);
        let withdrawal = lsdb.withdraw(&failure, &view).unwrap();
        assert_eq!(withdrawal.stats(), lsdb.pruned(&[], &dead_links).1);
        assert_eq!(
            withdrawal.stats(),
            PruneStats {
                dead_routers: 0,
                dropped_links: 2,
                dropped_fakes: 2,
                retained_fakes: 2,
                dropped_advertisements: 3,
            }
        );
        assert_eq!(view.graph().edge_count(), 4);
        assert!(view.reaches(a, c) && !view.reaches(a, d));
        let reconverged = withdrawal.reconverge();
        assert_eq!(reconverged.fake_count, 2);
        assert_eq!(reconverged.retracted, 0);
        reconverged.routing.expect("no loop");
    }

    #[test]
    fn a_looping_prefix_loses_its_lies_and_nothing_else() {
        // Ring a - b - c - d - a. Lies at b and at d send c-traffic to a,
        // which splits it back over b and d: the column towards c loops
        // until its lies are withdrawn. The shared fake at b also advertises
        // d, and that advertisement survives the retraction.
        let mut g = Graph::with_nodes(4);
        for i in 0..4 {
            g.add_bidirectional_edge(NodeId(i), NodeId((i + 1) % 4), 1.0, 1.0)
                .unwrap();
        }
        let (a, b, c, d) = (NodeId(0), NodeId(1), NodeId(2), NodeId(3));
        let mut lsdb = Lsdb::from_graph(&g);
        let mut shared = FakeNodeLsa::single(b, c, 0.1, 0.1, a);
        shared.prefixes.push(PrefixAdvertisement {
            destination: d,
            cost_fake_to_destination: 1.9,
        });
        lsdb.inject(shared);
        lsdb.inject(FakeNodeLsa::single(d, c, 0.1, 0.1, a));

        let view = Failure::default().surviving(&g);
        let withdrawal = lsdb.withdraw(&Failure::default(), &view).unwrap();
        assert!(matches!(
            withdrawal.fib().to_routing(&g),
            Err(OspfError::ForwardingLoop { destination: 2, .. })
        ));
        let reconverged = withdrawal.reconverge();
        assert_eq!(reconverged.retracted, 2);
        assert_eq!(reconverged.fake_count, 1);
        let routing = reconverged.routing.expect("plain OSPF repairs the loop");
        let edge = |u, v| g.find_edge(u, v).unwrap();
        // Towards c: plain ECMP again, a splits over b and d.
        assert_eq!(routing.ratio(c, edge(a, b)), 0.5);
        assert_eq!(routing.ratio(c, edge(a, d)), 0.5);
        assert_eq!(routing.ratio(c, edge(b, c)), 1.0);
        // Towards d: the surviving lie ties b's real routes and adds a
        // second entry towards a.
        assert!((routing.ratio(d, edge(b, a)) - 2.0 / 3.0).abs() < 1e-12);
        assert!((routing.ratio(d, edge(b, c)) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_graph_with_other_routers_is_a_dimension_error() {
        let lsdb = Lsdb::from_graph(&path());
        let none = Failure::default();
        let smaller = none.surviving(&Graph::with_nodes(3));
        assert!(matches!(
            lsdb.withdraw(&none, &smaller),
            Err(OspfError::DimensionMismatch(_))
        ));
    }

    // `Lsdb::withdraw` + `Withdrawal::reconverge` against the copy they
    // replaced.
    //
    // The reference is the failure engine's old loop: `Lsdb::pruned` copies
    // the database without the failed elements, `compute_fib` rebuilds every
    // router's FIB, `Fib::to_routing` converts it, and on the first looping
    // destination `Lsdb::retract_fakes_for` withdraws that prefix's lies and
    // the loop starts over. A loop with nothing left to retract ends it.
    //
    // The view must agree with the copy on random programs, plain and
    // losslessly compressed (shared multi-prefix fakes), under 0–3 dead links
    // and 0–1 dead router. It must agree on the stats, and bit for bit on
    // every ratio. It must also agree on every DAG edge, on the surviving fake
    // count, on the advertisements retracted, and on the error and its
    // destination.

    /// Per destination: the DAG's edges and the bits of every ratio.
    type Columns = Vec<(Vec<EdgeId>, Vec<u64>)>;

    /// What one reconvergence ends with, in a form both sides produce.
    #[derive(Debug, PartialEq)]
    struct Outcome {
        routing: Result<Columns, OspfError>,
        fake_count: usize,
        retracted: usize,
    }

    fn columns(routing: Result<PdRouting, OspfError>, n: usize) -> Result<Columns, OspfError> {
        routing.map(|r| {
            (0..n)
                .map(NodeId)
                .map(|t| {
                    let bits = r.ratios(t).iter().map(|x| x.to_bits()).collect();
                    (r.dag(t).edges(), bits)
                })
                .collect()
        })
    }

    /// The copy-and-restart loop the failure engine ran before `withdraw`.
    fn reference(
        lsdb: &Lsdb,
        dead_nodes: &[NodeId],
        dead_links: &[(NodeId, NodeId)],
        graph: &Graph,
    ) -> (PruneStats, Outcome) {
        let n = graph.node_count();
        let (mut lsdb, stats) = lsdb.pruned(dead_nodes, dead_links);
        let mut retracted = 0;
        let routing = loop {
            match compute_fib(&lsdb, n).to_routing(graph) {
                Err(OspfError::ForwardingLoop {
                    destination,
                    detail,
                }) => {
                    let dropped = lsdb.retract_fakes_for(NodeId(destination));
                    if dropped == 0 {
                        break Err(OspfError::ForwardingLoop {
                            destination,
                            detail,
                        });
                    }
                    retracted += dropped;
                }
                other => break other,
            }
        };
        let outcome = Outcome {
            routing: columns(routing, n),
            fake_count: lsdb.fake_count(),
            retracted,
        };
        (stats, outcome)
    }

    /// Checks one failure of one lied-to database; returns the
    /// advertisements retracted.
    fn check(
        g: &Graph,
        lsdb: &Lsdb,
        dead_nodes: &[NodeId],
        dead_links: &[(NodeId, NodeId)],
    ) -> Result<usize, TestCaseError> {
        let failure = Failure::new(dead_nodes.iter().copied(), dead_links.iter().copied());
        let view = failure.surviving(g);
        let (stats, expected) = reference(lsdb, dead_nodes, dead_links, view.graph());
        let withdrawal = lsdb
            .withdraw(&failure, &view)
            .expect("the view has the LSDB's routers");
        prop_assert_eq!(withdrawal.stats(), stats);
        let reconverged = withdrawal.reconverge();
        let got = Outcome {
            routing: columns(reconverged.routing, g.node_count()),
            fake_count: reconverged.fake_count,
            retracted: reconverged.retracted,
        };
        prop_assert_eq!(
            &got,
            &expected,
            "dead nodes {:?}, dead links {:?}",
            dead_nodes,
            dead_links
        );
        Ok(expected.retracted)
    }

    /// The plain program and its lossless compression (`None` when the
    /// target split is unrealizable, which is not what these tests are
    /// about).
    fn programs(g: &Graph, raw: &[f64]) -> Option<[FibbingProgram; 2]> {
        let target = random_routing(g, raw);
        let plain = compute_program(g, &target, VirtualLinkBudget::per_prefix(8)).ok()?;
        let lossless = compress_program(g, &target, &plain, CompressionLevel::Lossless).ok()?;
        Some([plain, lossless])
    }

    /// The bidirectional link behind `pick` (the forward edges are the even
    /// ids).
    fn link(g: &Graph, pick: usize) -> (NodeId, NodeId) {
        g.endpoints(EdgeId(2 * (pick % (g.edge_count() / 2))))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn the_view_reconverges_like_the_copy(
            n in 4usize..9,
            extra in proptest::collection::vec((0usize..16, 0usize..16), 0..5),
            raw in proptest::collection::vec(0.0f64..4.0, 8..16),
            link_picks in proptest::collection::vec(0usize..64, 0..4),
            node_pick in 0usize..16,
        ) {
            let g = random_graph(n, &extra, &[1.0, 2.0, 5.0]);
            let Some(programs) = programs(&g, &raw) else {
                return Ok(());
            };
            let dead_links: Vec<_> = link_picks.iter().map(|&p| link(&g, p)).collect();
            // Half the cases also kill a router.
            let dead_nodes: Vec<_> =
                (node_pick < n).then_some(NodeId(node_pick)).into_iter().collect();
            for program in &programs {
                check(&g, &program.lsdb, &dead_nodes, &dead_links)?;
            }
        }
    }

    /// The property above only bites where retraction happens. Every single
    /// link and single router failure of a fixed family of programs, plain
    /// and lossless: equal everywhere, and some of them do retract.
    #[test]
    fn every_single_failure_of_a_fixed_family_reconverges_like_the_copy() {
        let mut retracting = 0;
        for n in 5..8 {
            let extra = [(0, n / 2), (1, n - 2), (2, n - 1)];
            let g = random_graph(n, &extra, &[1.0, 2.0, 5.0]);
            let raw: Vec<f64> = (0..13).map(|i| ((i * 7) % 11) as f64 / 3.0).collect();
            let programs = programs(&g, &raw).expect("the family compiles");
            for program in &programs {
                for pick in 0..g.edge_count() / 2 {
                    let retracted = check(&g, &program.lsdb, &[], &[link(&g, pick)]).unwrap();
                    retracting += usize::from(retracted > 0);
                }
                for v in g.nodes() {
                    let retracted = check(&g, &program.lsdb, &[v], &[]).unwrap();
                    retracting += usize::from(retracted > 0);
                }
            }
        }
        assert!(retracting > 0, "no failure in the family retracted a lie");
    }

    // Counts are sums. A compiled program holds each lie once with its
    // replica count; a lie of count k split into counts j and k − j stands
    // for the same fakes, so every reader must answer as for the whole lie:
    // the FIB, the stats, the surviving fake count and the retracted
    // advertisements. The parts sit next to each other or have the next lie
    // of the program between them. Plain and losslessly compressed
    // (multi-prefix) programs both go through it.

    /// `lsdb` with each lie of count k ≥ 2 split by `splits[i % len]`, `(at,
    /// apart)`, into counts `1 + at % (k − 1)` and the rest; where `apart` is
    /// set, the next lie goes between the two parts.
    fn split(lsdb: &Lsdb, splits: &[(u32, bool)]) -> Lsdb {
        let mut fakes = Vec::new();
        let mut pending: Option<FakeNodeLsa> = None;
        for (i, lie) in lsdb.fakes().iter().enumerate() {
            let (at, apart) = splits[i % splits.len()];
            let k = lie.replicas;
            let j = if k < 2 { k } else { 1 + at % (k - 1) };
            fakes.push(FakeNodeLsa {
                replicas: j,
                ..lie.clone()
            });
            fakes.extend(pending.take());
            let rest = (j < k).then(|| FakeNodeLsa {
                replicas: k - j,
                ..lie.clone()
            });
            if apart {
                pending = rest;
            } else {
                fakes.extend(rest);
            }
        }
        fakes.extend(pending);
        Lsdb {
            router_lsas: lsdb.router_lsas.clone(),
            fakes,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn split_counts_match_the_references(
            n in 4usize..9,
            extra in proptest::collection::vec((0usize..16, 0usize..16), 0..5),
            raw in proptest::collection::vec(0.0f64..4.0, 8..16),
            splits in proptest::collection::vec((0usize..8, 0usize..2), 1..12),
            link_picks in proptest::collection::vec(0usize..64, 0..3),
            node_pick in 0usize..16,
        ) {
            let g = random_graph(n, &extra, &[1.0, 2.0, 5.0]);
            let Some(programs) = programs(&g, &raw) else {
                return Ok(());
            };
            // Half the splits keep their parts apart.
            let splits: Vec<(u32, bool)> =
                splits.iter().map(|&(at, a)| (at as u32, a == 0)).collect();
            let dead_links: Vec<_> = link_picks.iter().map(|&p| link(&g, p)).collect();
            let dead_nodes: Vec<_> =
                (node_pick < n).then_some(NodeId(node_pick)).into_iter().collect();
            for program in &programs {
                let lsdb = split(&program.lsdb, &splits);
                prop_assert_eq!(lsdb.fake_count(), program.lsdb.fake_count());
                let fib = compute_fib(&lsdb, n);
                prop_assert_eq!(&fib, &compute_fib(&program.lsdb, n));
                let expected = reference_fib(&lsdb, n);
                for t in g.nodes() {
                    for u in g.nodes() {
                        prop_assert_eq!(fib.entry(u, t), expected.entry(u, t), "{} -> {}", u, t);
                    }
                }
                check(&g, &lsdb, &dead_nodes, &dead_links)?;
            }
        }
    }

    /// The generator above splits: some lie of a compiled program has
    /// more than one replica, and splitting it adds a lie but no fake.
    #[test]
    fn compiled_programs_have_lies_to_split() {
        let g = random_graph(6, &[(0, 3), (1, 4)], &[1.0, 2.0, 5.0]);
        let raw: Vec<f64> = (0..13).map(|i| ((i * 7) % 11) as f64 / 3.0).collect();
        for program in programs(&g, &raw).expect("the family compiles") {
            let lies = program.lsdb.fakes().len();
            assert!(lies < program.lsdb.fake_count(), "no lie has two replicas");
            let parts = split(&program.lsdb, &[(0, true)]);
            assert!(parts.fakes().len() > lies);
            assert_eq!(parts.fake_count(), program.lsdb.fake_count());
        }
    }
}
