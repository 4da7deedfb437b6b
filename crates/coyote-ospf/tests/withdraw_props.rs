//! `Lsdb::withdraw` + `Withdrawal::reconverge` against the copy they
//! replaced.
//!
//! The reference is the failure engine's old loop: `Lsdb::pruned` copies
//! the database without the failed elements, `compute_fib` rebuilds every
//! router's FIB, `Fib::to_routing` converts it, and on the first looping
//! destination `Lsdb::retract_fakes_for` withdraws that prefix's lies and
//! the loop starts over. A loop with nothing left to retract ends it.
//!
//! The view must agree with the copy on random programs, plain and
//! losslessly compressed (shared multi-prefix fakes), under 0–3 dead links
//! and 0–1 dead router. It must agree on the stats, and bit for bit on
//! every ratio. It must also agree on every DAG edge, on the surviving fake
//! count, on the advertisements retracted, and on the error and its
//! destination.

mod common;

use common::{random_graph, random_routing};
use coyote_core::PdRouting;
use coyote_graph::{EdgeId, Graph, NodeId};
use coyote_ospf::{
    compress_program, compute_fib, compute_program, CompressionLevel, FibbingProgram, Lsdb,
    OspfError, VirtualLinkBudget,
};
use proptest::prelude::*;

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
) -> (coyote_ospf::PruneStats, Outcome) {
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

/// The post-failure physical graph: the dead links and every edge of a dead
/// router removed, node ids kept.
fn surviving_graph(g: &Graph, dead_nodes: &[NodeId], dead_links: &[(NodeId, NodeId)]) -> Graph {
    let failed: Vec<EdgeId> = g
        .edges()
        .filter(|&e| {
            let (a, b) = g.endpoints(e);
            dead_nodes.contains(&a)
                || dead_nodes.contains(&b)
                || dead_links.contains(&(a, b))
                || dead_links.contains(&(b, a))
        })
        .collect();
    g.without_edges(&failed)
}

/// Checks one failure of one program; returns the advertisements retracted.
fn check(
    g: &Graph,
    program: &FibbingProgram,
    dead_nodes: &[NodeId],
    dead_links: &[(NodeId, NodeId)],
) -> Result<usize, TestCaseError> {
    let after = surviving_graph(g, dead_nodes, dead_links);
    let (stats, expected) = reference(&program.lsdb, dead_nodes, dead_links, &after);
    let withdrawal = program.lsdb.withdraw(dead_nodes, dead_links);
    prop_assert_eq!(withdrawal.stats(), stats);
    let reconverged = withdrawal.reconverge(&after);
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

/// The plain program and its lossless compression (`None` when the target
/// split is unrealizable, which is not what these tests are about).
fn programs(g: &Graph, raw: &[f64]) -> Option<[FibbingProgram; 2]> {
    let target = random_routing(g, raw);
    let plain = compute_program(g, &target, VirtualLinkBudget::per_prefix(8)).ok()?;
    let lossless = compress_program(g, &target, &plain, CompressionLevel::Lossless).ok()?;
    Some([plain, lossless])
}

/// The bidirectional link behind `pick` (the forward edges are the even ids).
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
        let dead_nodes: Vec<_> = (node_pick < n).then_some(NodeId(node_pick)).into_iter().collect();
        for program in &programs {
            check(&g, program, &dead_nodes, &dead_links)?;
        }
    }
}

/// The property above only bites where retraction happens. Every single
/// link and single router failure of a fixed family of programs, plain and
/// lossless: equal everywhere, and some of them do retract.
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
                let retracted = check(&g, program, &[], &[link(&g, pick)]).unwrap();
                retracting += usize::from(retracted > 0);
            }
            for v in g.nodes() {
                let retracted = check(&g, program, &[v], &[]).unwrap();
                retracting += usize::from(retracted > 0);
            }
        }
    }
    assert!(retracting > 0, "no failure in the family retracted a lie");
}
