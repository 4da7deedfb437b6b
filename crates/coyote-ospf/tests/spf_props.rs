//! The routers' SPF over the LSDB's graph view against the physical graph.
//!
//! `compute_fib` and `Withdrawal::fib` are plain OSPF from
//! `coyote_graph::spf` over the LSDB's graph view, plus two passes over the
//! counted lies. If the graph view differed from the physical graph, every FIB
//! would inherit the difference; so on every zoo topology the view must
//! give bit-equal distances and equal next-hop sets, before and after a
//! router failure. How the lies are combined is checked against a
//! brute-force per-(router, prefix) reference by `spf`'s unit tests.

use coyote_graph::spf::shortest_path_dag;
use coyote_graph::{Failure, Graph, NodeId};
use coyote_ospf::Lsdb;

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
        let withdrawal = lsdb.withdraw(&Failure::new([hub], []));
        assert_eq!(withdrawal.stats().dead_routers, 1);
        assert_same_plain_ospf(
            &g.without_edges(&incident),
            withdrawal.topology(),
            &format!("{} without {hub}", topology.name),
        );
    }
}
