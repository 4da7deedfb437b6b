//! The routers' SPF over the LSDB's graph view against the physical graph.
//!
//! `compute_fib` is plain OSPF from `coyote_graph::spf` over the LSDB's
//! graph view, plus two passes over the counted lies; `Withdrawal::fib` and
//! `compute_fib_on` read the same SPFs off a failure's view of the physical
//! graph instead. If the two differed, the FIBs would too; so on every zoo
//! topology they must give bit-equal distances and equal next-hop sets,
//! before and after a router failure (the LSDB side without the router's
//! LSA and the adjacencies towards it). How the lies are combined is checked against a
//! brute-force per-(router, prefix) reference by `spf`'s unit tests.

use coyote_graph::spf::shortest_path_dag;
use coyote_graph::{Failure, FailureView, Graph, NodeId};
use coyote_ospf::{LsaDelta, Lsdb, RouterLsa};

/// Distances (bit for bit) and next-hop neighbor sets of plain OSPF on both
/// representations of one topology: the physical side's view, and
/// `shortest_path_dag` over the LSDB's graph view.
fn assert_same_plain_ospf(physical: &FailureView, view: &Graph, what: &str) {
    let bits = |d: &[f64]| d.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let hops = |g: &Graph, edges: &[coyote_graph::EdgeId]| {
        let mut hops: Vec<NodeId> = edges.iter().map(|&e| g.edge(e).dst).collect();
        hops.sort();
        hops
    };
    let graph = physical.graph();
    assert_eq!(graph.node_count(), view.node_count(), "{what}");
    for (t, a) in graph.nodes().zip(physical.spfs()) {
        let b = shortest_path_dag(view, t);
        assert_eq!(
            bits(&a.dist_to_dest),
            bits(&b.dist_to_dest),
            "{what} -> {t}"
        );
        for u in graph.nodes() {
            assert_eq!(
                hops(graph, a.next_hops(u)),
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
        let healthy = Failure::default().surviving(&g);
        assert_same_plain_ospf(&healthy, &lsdb.real_topology(n), &topology.name);

        // Fail the best-connected router: the LSDB without its LSA and the
        // adjacencies towards it keeps it as an isolated node, exactly like
        // the failure's view of the physical graph.
        let hub = g
            .nodes()
            .max_by_key(|&v| g.out_edges(v).len())
            .expect("non-empty topology");
        let failure = Failure::new([hub], []);
        let router_lsas: Vec<RouterLsa> = (lsdb.router_lsas().iter())
            .filter(|lsa| lsa.router != hub)
            .map(|lsa| RouterLsa {
                router: lsa.router,
                links: lsa
                    .links
                    .iter()
                    .filter(|l| l.neighbor != hub)
                    .cloned()
                    .collect(),
            })
            .collect();
        let mut pruned = Lsdb::default();
        let delta = LsaDelta {
            router_lsas: Some(router_lsas),
            updates: Vec::new(),
        };
        delta.apply(&mut pruned).expect("no lies to apply");
        assert_same_plain_ospf(
            &failure.surviving(&g),
            &pruned.real_topology(n),
            &format!("{} without {hub}", topology.name),
        );
    }
}
