//! Property-based differential tests for the program-compression pass:
//! on random topologies and random target DAG routings, the compressed
//! program must route exactly like the uncompressed one (same per-
//! destination next-hop sets, splits within the quantization tolerance),
//! and compression must be idempotent. Both the compiler and the compressor
//! emit lies in canonical form. Per-prefix retraction on shared
//! fakes is checked by `compress`'s unit tests, because its reference,
//! `Lsdb::retract_fakes_for`, is test-only code.

mod common;

use common::{random_graph, random_routing};
use coyote_graph::{Graph, NodeId};
use coyote_ospf::{
    compare_routings, compress_program, compute_fib, compute_program, fake_nodes_per_destination,
    realized_routing, CompressionLevel, FakeNodeLsa, FibbingProgram, VirtualLinkBudget,
};
use proptest::prelude::*;

/// The canonical form compiler and compressor both emit: every lie has at
/// least one replica and no two adjacent lies are equal except in their
/// count. And the fake counts agree: the stats with the database, the
/// per-destination counts with the prefix advertisements.
fn assert_canonical(g: &Graph, program: &FibbingProgram) -> Result<(), TestCaseError> {
    let lies = program.lsdb.fakes();
    let uncounted = |lie: &FakeNodeLsa| FakeNodeLsa {
        replicas: 1,
        ..lie.clone()
    };
    prop_assert!(lies.iter().all(|lie| lie.replicas >= 1));
    for (i, pair) in lies.windows(2).enumerate() {
        let equal = uncounted(&pair[0]) == uncounted(&pair[1]);
        prop_assert!(
            !equal,
            "lies {} and {} differ only in their count",
            i,
            i + 1
        );
    }
    prop_assert_eq!(program.stats.fake_nodes, program.lsdb.fake_count());
    let per_destination: usize = fake_nodes_per_destination(g, program)
        .iter()
        .map(|&(_, count)| count)
        .sum();
    prop_assert_eq!(per_destination, program.stats.prefix_advertisements);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Differential equivalence: at every compression level, the compressed
    /// program's FIB has exactly the same per-(router, destination) next-hop
    /// *sets* as the uncompressed one, and its realized routing stays within
    /// `max(epsilon, uncompressed error)` of the target splits.
    #[test]
    fn compressed_programs_route_like_uncompressed_ones(
        n in 4usize..8,
        extra in proptest::collection::vec((0usize..12, 0usize..12), 0..4),
        raw in proptest::collection::vec(0.0f64..4.0, 8..16),
        eps in 0.0f64..0.1,
    ) {
        let caps = [1.0, 2.0, 5.0];
        let g = random_graph(n, &extra, &caps);
        let target = random_routing(&g, &raw);
        let Ok(plain) = compute_program(&g, &target, VirtualLinkBudget::per_prefix(8)) else {
            return Ok(()); // unrealizable split: not the property under test
        };
        // Uncompressed, every lie advertises one prefix: the per-destination
        // counts sum to the fake nodes.
        assert_canonical(&g, &plain)?;
        prop_assert_eq!(plain.stats.prefix_advertisements, plain.stats.fake_nodes);
        let plain_fib = compute_fib(&plain.lsdb, n);
        let plain_err = compare_routings(&g, &target, &realized_routing(&g, &plain).unwrap());

        for level in [CompressionLevel::Lossless, CompressionLevel::Lossy { epsilon: eps }] {
            let compressed = compress_program(&g, &target, &plain, level).unwrap();
            assert_canonical(&g, &compressed)?;
            prop_assert!(compressed.stats.fake_nodes <= plain.stats.fake_nodes);

            // Same next-hop support everywhere.
            let fib = compute_fib(&compressed.lsdb, n);
            for t in 0..n {
                for u in 0..n {
                    let a: Vec<NodeId> =
                        plain_fib.entry(NodeId(u), NodeId(t)).iter().map(|(v, _)| v).collect();
                    let b: Vec<NodeId> =
                        fib.entry(NodeId(u), NodeId(t)).iter().map(|(v, _)| v).collect();
                    prop_assert_eq!(
                        a, b,
                        "next-hop set changed at router {} towards {} ({:?})",
                        u, t, level
                    );
                }
            }

            // Splits stay within the compression bound against the target.
            let report =
                compare_routings(&g, &target, &realized_routing(&g, &compressed).unwrap());
            prop_assert!(report.dags_match, "{level:?}: DAG support changed");
            let bound = plain_err.max_split_error.max(level.epsilon()) + 1e-9;
            prop_assert!(
                report.max_split_error <= bound,
                "{:?}: split error {} beyond bound {}",
                level, report.max_split_error, bound
            );
            // Lossless really is lossless: the FIB multiplicities agree too.
            if level == CompressionLevel::Lossless {
                for t in 0..n {
                    for u in 0..n {
                        prop_assert_eq!(
                            plain_fib.entry(NodeId(u), NodeId(t)),
                            fib.entry(NodeId(u), NodeId(t))
                        );
                    }
                }
            }
        }
    }

    /// Compressing twice is exactly compressing once: the canonical LSDB
    /// and the stats are reproduced bit-for-bit.
    #[test]
    fn compression_is_idempotent(
        n in 4usize..8,
        extra in proptest::collection::vec((0usize..12, 0usize..12), 0..4),
        raw in proptest::collection::vec(0.0f64..4.0, 8..16),
        eps in 0.0f64..0.1,
    ) {
        let caps = [1.0, 2.0];
        let g = random_graph(n, &extra, &caps);
        let target = random_routing(&g, &raw);
        let Ok(plain) = compute_program(&g, &target, VirtualLinkBudget::per_prefix(8)) else {
            return Ok(());
        };
        for level in [CompressionLevel::Lossless, CompressionLevel::Lossy { epsilon: eps }] {
            let once = compress_program(&g, &target, &plain, level).unwrap();
            let twice = compress_program(&g, &target, &once, level).unwrap();
            prop_assert_eq!(once.lsdb.fakes(), twice.lsdb.fakes(), "{:?}", level);
            prop_assert_eq!(once.stats.clone(), twice.stats.clone(), "{:?}", level);
            prop_assert_eq!(
                twice.compression.fake_nodes_before,
                twice.compression.fake_nodes_after,
                "a second pass must find nothing left to compress"
            );
        }
    }
}
