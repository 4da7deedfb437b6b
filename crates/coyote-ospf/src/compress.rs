//! Program compression: fewer forged LSAs for the same routing.
//!
//! The uncompressed Fibbing compiler of [`crate::fibbing`] emits one
//! single-prefix fake node per virtual next-hop replica per destination
//! prefix, which makes the forged-LSA count proportional to
//! topology × prefixes (Section V-D of the paper raises exactly this
//! deployability concern; Fig. 10 bounds it with per-prefix budgets).
//! This module shrinks a compiled program with three cooperating passes,
//! applied per (router, prefix) lie group and then globally:
//!
//! 1. **Splitting-ratio quantization** (`Lossy` only): re-approximate the
//!    *target* split fractions with the smallest multiplicity vocabulary
//!    whose error stays within `epsilon` ([`quantize_split`]), instead of
//!    the accuracy-greedy [`crate::wecmp::approximate_split`]. Quantizing
//!    against the target (not the realized split) makes the pass
//!    deterministic and idempotent.
//! 2. **No-op lie elimination**: a lie group whose multiplicities are all
//!    one and whose next-hop set equals what plain SPF already computes is
//!    an exact no-op — ECMP splits equally over the same set either way —
//!    and is dropped.
//! 3. **Cross-destination fake-node merging**: surviving replicas are
//!    re-keyed by (attachment, forwarding address); replica `r` of the pair
//!    advertises every prefix that still needs more than `r` copies, so the
//!    fake-node count becomes Σ max-multiplicity per pair instead of
//!    Σ Σ multiplicity per pair per prefix. Consecutive replicas that
//!    advertise the same prefixes are one counted lie, so a pair emits one
//!    lie per distinct multiplicity among its prefixes.
//!
//! Equivalence argument: pass 3 preserves, per prefix, the exact multiset
//! of (attachment, forwarding address, total cost) advertisements, so the
//! per-prefix SPF outcome — and hence the FIB — is unchanged. Pass 2 only
//! removes groups whose realized behaviour is identical with or without
//! the lie. Pass 1 is the only lossy step and its per-group error against
//! the target is `<= max(epsilon, uncompressed error)`: when no smaller
//! vocabulary meets `epsilon`, [`quantize_split`] falls back to the
//! original budgeted approximation.

use crate::error::OspfError;
use crate::fibbing::{FibbingProgram, FibbingStats, VirtualLinkBudget};
use crate::lsa::{FakeNodeLsa, PrefixAdvertisement};
use crate::lsdb::Lsdb;
use crate::spf::ties;
use crate::wecmp::quantize_split;
use coyote_graph::spf::shortest_path_dag;
use coyote_graph::{Graph, NodeId};
use serde::Serialize;
use std::collections::BTreeMap;

/// Default split-error tolerance of the lossy compression level: well under
/// the conformance tolerance (0.05) so quantization noise cannot flip a
/// verdict on its own.
pub const DEFAULT_EPSILON: f64 = 0.02;

/// How aggressively to compress a compiled Fibbing program.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize)]
pub enum CompressionLevel {
    /// No compression: the program is exactly what the compiler emitted.
    #[default]
    Off,
    /// Merging and exact no-op elimination only — the realized FIB is
    /// bit-identical to the uncompressed program's.
    Lossless,
    /// Additionally quantize splitting ratios to the smallest multiplicity
    /// vocabulary within `epsilon` of the target fractions.
    Lossy {
        /// Maximum tolerated per-(router, prefix) split error.
        epsilon: f64,
    },
}

impl CompressionLevel {
    /// The default lossy level ([`DEFAULT_EPSILON`]).
    pub fn lossy() -> Self {
        Self::Lossy {
            epsilon: DEFAULT_EPSILON,
        }
    }

    /// True for [`CompressionLevel::Off`].
    pub fn is_off(&self) -> bool {
        matches!(self, Self::Off)
    }

    /// The quantization tolerance: zero unless lossy.
    pub fn epsilon(&self) -> f64 {
        match self {
            Self::Lossy { epsilon } => epsilon.max(0.0),
            _ => 0.0,
        }
    }

    /// A short human-readable label (`off`, `lossless`, `lossy(0.02)`).
    pub fn label(&self) -> String {
        match self {
            Self::Off => "off".to_string(),
            Self::Lossless => "lossless".to_string(),
            Self::Lossy { epsilon } => format!("lossy({epsilon})"),
        }
    }
}

/// What compression did to a program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CompressionStats {
    /// Fake nodes before compression.
    pub fake_nodes_before: usize,
    /// Fake nodes after compression.
    pub fake_nodes_after: usize,
    /// Prefix advertisements carried by the compressed fakes.
    pub advertisements: usize,
    /// Fake-node LSAs saved by cross-destination merging (advertisements
    /// minus fake nodes: each shared prefix rides an existing LSA).
    pub merged_fake_nodes: usize,
    /// Virtual FIB entries removed by ratio quantization.
    pub quantized_entries: usize,
    /// (router, prefix) lie groups dropped as exact no-ops.
    pub eliminated_groups: usize,
}

/// One (destination, router) lie group decompiled from the LSDB.
struct LieGroup {
    /// Forwarding address -> replica multiplicity.
    hops: BTreeMap<usize, u32>,
    /// Common total advertised cost of the group's lies.
    cost: f64,
}

/// Compresses a compiled `program` for `graph`/`target` at `level`.
///
/// The program must have been compiled for exactly this graph and target
/// routing (quantization re-reads the target fractions). `Off` returns a
/// clone; `Lossless` preserves the realized FIB bit-for-bit; `Lossy`
/// bounds the per-(router, prefix) split error against the target by
/// `max(epsilon, uncompressed error)`. Compression is idempotent: the
/// rebuilt LSDB is in canonical form and a second pass reproduces it.
pub fn compress_program(
    graph: &Graph,
    target: &coyote_core::PdRouting,
    program: &FibbingProgram,
    level: CompressionLevel,
) -> Result<FibbingProgram, OspfError> {
    if target.destination_count() != graph.node_count() {
        return Err(OspfError::DimensionMismatch(format!(
            "routing covers {} destinations, graph has {} nodes",
            target.destination_count(),
            graph.node_count()
        )));
    }
    if level.is_off() {
        return Ok(program.clone());
    }
    let _span = coyote_obs::span("ospf.compress");
    let fake_nodes_before = program.lsdb.fake_count();

    // Decompile the lies into (destination, router) groups. Advertisements
    // costlier than the group's best never install FIB entries (SPF keeps
    // only best-cost routes) and are dropped here.
    // (forwarding address, total cost, replicas) per advertisement.
    type Adverts = Vec<(usize, f64, u32)>;
    let mut raw: BTreeMap<(usize, usize), Adverts> = BTreeMap::new();
    for fake in program.lsdb.fakes() {
        for p in &fake.prefixes {
            raw.entry((p.destination.index(), fake.attachment.index()))
                .or_default()
                .push((
                    fake.forwarding_address.index(),
                    fake.cost_to_fake + p.cost_fake_to_destination,
                    fake.replicas,
                ));
        }
    }
    let mut groups: BTreeMap<(usize, usize), LieGroup> = BTreeMap::new();
    for (key, adverts) in raw {
        let cost = adverts
            .iter()
            .map(|&(_, c, _)| c)
            .fold(f64::INFINITY, f64::min);
        let mut hops = BTreeMap::new();
        for (n, c, replicas) in adverts {
            if ties(c, cost) {
                *hops.entry(n).or_insert(0u32) += replicas;
            }
        }
        groups.insert(key, LieGroup { hops, cost });
    }

    // Quantize and eliminate, destination by destination so plain SPF runs
    // once per prefix.
    let mut quantized_entries = 0usize;
    let mut eliminated_groups = 0usize;
    let epsilon = level.epsilon();
    let destinations: Vec<usize> = {
        let mut ts: Vec<usize> = groups.keys().map(|&(t, _)| t).collect();
        ts.dedup();
        ts
    };
    for t_idx in destinations {
        let t = NodeId(t_idx);
        let plain = shortest_path_dag(graph, t);
        let dag = target.dag(t);
        let group_keys: Vec<(usize, usize)> = groups
            .range((t_idx, 0)..(t_idx + 1, 0))
            .map(|(&k, _)| k)
            .collect();
        for key in group_keys {
            let u = NodeId(key.1);

            // Target fractions over u's DAG out-edges, keyed by next hop.
            let mut desired: BTreeMap<usize, f64> = BTreeMap::new();
            for &e in dag.out_edges(u) {
                let r = target.ratio(t, e);
                if r > 0.0 {
                    *desired.entry(graph.edge(e).dst.index()).or_insert(0.0) += r;
                }
            }

            if matches!(level, CompressionLevel::Lossy { .. }) {
                let group = groups.get_mut(&key).expect("group key just collected");
                // Quantize only when the lie's next-hop set matches the
                // target's (always true for compiler output); otherwise the
                // fractions cannot be aligned and the group is kept as-is.
                if group.hops.keys().eq(desired.keys()) && !group.hops.is_empty() {
                    let fractions: Vec<f64> = desired.values().copied().collect();
                    let current_total: u32 = group.hops.values().sum();
                    let quantized = quantize_split(&fractions, epsilon, current_total as usize);
                    let new_total: u32 = quantized.iter().sum();
                    quantized_entries += current_total.saturating_sub(new_total) as usize;
                    for (slot, m) in group.hops.values_mut().zip(&quantized) {
                        *slot = *m;
                    }
                }
            }

            // Exact no-op check: all multiplicities one and the lie's hop
            // set equals plain SPF's ECMP set — the realized split is the
            // same equal split either way.
            let group = &groups[&key];
            if group.hops.values().all(|&m| m == 1) {
                let native: BTreeMap<usize, u32> = plain
                    .next_hops(u)
                    .iter()
                    .map(|&e| (graph.edge(e).dst.index(), 1))
                    .collect();
                if native == group.hops {
                    groups.remove(&key);
                    eliminated_groups += 1;
                }
            }
        }
    }

    // Merge: re-key by (attachment, forwarding address) and rebuild the
    // LSDB in canonical order. Replica `r` of a pair advertises every
    // prefix whose multiplicity towards that pair exceeds `r`, so per
    // prefix the multiset of (attachment, forwarding, cost) lies — and
    // hence the SPF outcome — is exactly the group's. The replicas between
    // two consecutive distinct multiplicities advertise the same prefixes
    // and are one counted lie; the prefix sets shrink from one lie to the
    // next, so no two adjacent lies are equal except in their count.
    // (prefix, multiplicity, advertised cost) triples per (attachment,
    // forwarding) pair.
    type PairLies = Vec<(usize, u32, f64)>;
    let mut by_pair: BTreeMap<(usize, usize), PairLies> = BTreeMap::new();
    for (&(t, u), group) in &groups {
        for (&n, &m) in &group.hops {
            if m > 0 {
                by_pair.entry((u, n)).or_default().push((t, m, group.cost));
            }
        }
    }
    let mut lsdb = Lsdb::from_graph(graph);
    let mut max_entries = 0u32;
    for (&(u, n), prefixes) in &by_pair {
        let mut multiplicities: Vec<u32> = prefixes.iter().map(|&(_, m, _)| m).collect();
        multiplicities.sort_unstable();
        multiplicities.dedup();
        let mut below = 0;
        for m in multiplicities {
            lsdb.inject(FakeNodeLsa {
                attachment: NodeId(u),
                cost_to_fake: 0.0,
                forwarding_address: NodeId(n),
                prefixes: prefixes
                    .iter()
                    .filter(|&&(_, m, _)| m > below)
                    .map(|&(t, _, cost)| PrefixAdvertisement {
                        destination: NodeId(t),
                        cost_fake_to_destination: cost,
                    })
                    .collect(),
                replicas: m - below,
            });
            below = m;
        }
    }
    for group in groups.values() {
        max_entries = max_entries.max(group.hops.values().sum());
    }

    let fake_nodes_after = lsdb.fake_count();
    let advertisements = lsdb.prefix_advertisement_count();
    let compression = CompressionStats {
        fake_nodes_before,
        fake_nodes_after,
        advertisements,
        merged_fake_nodes: advertisements.saturating_sub(fake_nodes_after),
        quantized_entries,
        eliminated_groups,
    };
    if coyote_obs::enabled() {
        coyote_obs::counter("ospf.compress.merged", compression.merged_fake_nodes as u64);
        coyote_obs::counter("ospf.compress.quantized", quantized_entries as u64);
        coyote_obs::counter("ospf.compress.eliminated", eliminated_groups as u64);
    }
    let stats = FibbingStats {
        fake_nodes: fake_nodes_after,
        prefix_advertisements: advertisements,
        lied_router_prefix_pairs: groups.len(),
        native_router_prefix_pairs: program.stats.native_router_prefix_pairs + eliminated_groups,
        max_entries_per_router_prefix: max_entries,
    };
    Ok(FibbingProgram {
        lsdb,
        stats,
        compression,
    })
}

/// [`crate::fibbing::compute_program`] followed by [`compress_program`] at
/// the requested level ([`CompressionLevel::Off`] is the plain compiler).
pub fn compute_program_with(
    graph: &Graph,
    target: &coyote_core::PdRouting,
    budget: VirtualLinkBudget,
    level: CompressionLevel,
) -> Result<FibbingProgram, OspfError> {
    let program = crate::fibbing::compute_program(graph, target, budget)?;
    if level.is_off() {
        return Ok(program);
    }
    compress_program(graph, target, &program, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::{random_graph, random_routing};
    use crate::fibbing::{compute_program, program_fib, realized_routing};
    use crate::spf::compute_fib;
    use crate::verify::compare_routings;
    use coyote_core::example_fig1;
    use coyote_core::{ecmp_routing, uniform_augmented_routing};
    use coyote_graph::NodeId;
    use proptest::prelude::*;

    #[test]
    fn off_is_the_plain_compiler() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let budget = VirtualLinkBudget::per_prefix(5);
        let plain = compute_program(&g, &target, budget).unwrap();
        let off = compute_program_with(&g, &target, budget, CompressionLevel::Off).unwrap();
        assert_eq!(plain.lsdb.fakes(), off.lsdb.fakes());
        assert_eq!(plain.stats, off.stats);
        assert_eq!(off.compression, CompressionStats::default());
    }

    #[test]
    fn lossless_compression_preserves_the_fib_exactly() {
        let (g, _) = example_fig1::topology();
        let target = uniform_augmented_routing(&g).unwrap();
        let plain = compute_program(&g, &target, VirtualLinkBudget::per_prefix(5)).unwrap();
        let lossless = compress_program(&g, &target, &plain, CompressionLevel::Lossless).unwrap();
        let fib_plain = program_fib(&g, &plain);
        let fib_lossless = program_fib(&g, &lossless);
        for u in g.nodes() {
            for t in g.nodes() {
                assert_eq!(
                    fib_plain.entry(u, t),
                    fib_lossless.entry(u, t),
                    "FIB diverged at router {u} prefix {t}"
                );
            }
        }
        // Merging never increases the LSA count, and the bookkeeping
        // identity holds: every advertisement beyond one per fake node is
        // a merged (saved) LSA.
        assert!(lossless.stats.fake_nodes <= plain.stats.fake_nodes);
        assert_eq!(
            lossless.compression.merged_fake_nodes,
            lossless.compression.advertisements - lossless.compression.fake_nodes_after
        );
        assert_eq!(
            lossless.compression.fake_nodes_before,
            plain.stats.fake_nodes
        );
    }

    #[test]
    fn lossy_compression_stays_within_epsilon_of_the_target() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let plain = compute_program(&g, &target, VirtualLinkBudget::unlimited()).unwrap();
        let plain_err = compare_routings(&g, &target, &realized_routing(&g, &plain).unwrap());
        for eps in [0.1, 0.05, 0.02] {
            let lossy = compress_program(
                &g,
                &target,
                &plain,
                CompressionLevel::Lossy { epsilon: eps },
            )
            .unwrap();
            let realized = realized_routing(&g, &lossy).unwrap();
            let report = compare_routings(&g, &target, &realized);
            assert!(report.dags_match, "eps {eps}: DAG support changed");
            assert!(
                report.max_split_error <= plain_err.max_split_error.max(eps) + 1e-9,
                "eps {eps}: split error {} beyond bound",
                report.max_split_error
            );
            assert!(lossy.stats.fake_nodes <= plain.stats.fake_nodes);
        }
    }

    #[test]
    fn noop_lies_are_eliminated() {
        // A lie that reproduces plain ECMP exactly (the honest next hops,
        // multiplicity one each) is an exact no-op and must be dropped.
        let (g, nodes) = example_fig1::topology();
        let target = ecmp_routing(&g).unwrap();
        let mut program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(5)).unwrap();
        assert_eq!(program.stats.fake_nodes, 0);
        // s1's honest ECMP towards t splits over s2 and v (cost 2 both ways).
        program
            .lsdb
            .inject(FakeNodeLsa::single(nodes.s1, nodes.t, 0.5, 0.5, nodes.s2));
        program
            .lsdb
            .inject(FakeNodeLsa::single(nodes.s1, nodes.t, 0.5, 0.5, nodes.v));
        program.stats.fake_nodes = 2;
        let compressed =
            compress_program(&g, &target, &program, CompressionLevel::Lossless).unwrap();
        assert_eq!(compressed.compression.eliminated_groups, 1);
        assert_eq!(compressed.stats.fake_nodes, 0);
        let realized = realized_routing(&g, &compressed).unwrap();
        let report = compare_routings(&g, &target, &realized);
        assert!(report.dags_match && report.max_split_error < 1e-9);
    }

    #[test]
    fn compression_is_idempotent() {
        let (g, _) = example_fig1::topology();
        let target = uniform_augmented_routing(&g).unwrap();
        let plain = compute_program(&g, &target, VirtualLinkBudget::unlimited()).unwrap();
        for level in [CompressionLevel::Lossless, CompressionLevel::lossy()] {
            let once = compress_program(&g, &target, &plain, level).unwrap();
            let twice = compress_program(&g, &target, &once, level).unwrap();
            assert_eq!(once.lsdb.fakes(), twice.lsdb.fakes(), "level {level:?}");
            assert_eq!(once.stats, twice.stats, "level {level:?}");
        }
    }

    #[test]
    fn quantization_shrinks_the_vocabulary() {
        // The golden split needs many replicas for an exact match but only
        // a couple within 10%.
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let plain = compute_program(&g, &target, VirtualLinkBudget::unlimited()).unwrap();
        let lossy = compress_program(
            &g,
            &target,
            &plain,
            CompressionLevel::Lossy { epsilon: 0.1 },
        )
        .unwrap();
        assert!(
            lossy.compression.quantized_entries > 0,
            "expected quantization to reclaim entries: {:?}",
            lossy.compression
        );
        assert!(lossy.stats.fake_nodes < plain.stats.fake_nodes);
    }

    #[test]
    fn level_labels_and_defaults() {
        assert_eq!(CompressionLevel::Off.label(), "off");
        assert_eq!(CompressionLevel::Lossless.label(), "lossless");
        assert_eq!(CompressionLevel::lossy().label(), "lossy(0.02)");
        assert!(CompressionLevel::default().is_off());
        assert_eq!(CompressionLevel::Lossless.epsilon(), 0.0);
        assert_eq!(CompressionLevel::lossy().epsilon(), DEFAULT_EPSILON);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Per-prefix retraction on shared fakes: withdrawing one destination's
        /// advertisements from a compressed LSDB leaves every other prefix's
        /// FIB entries bit-identical, and no lie for the retracted prefix
        /// survives.
        #[test]
        fn retracting_one_prefix_never_disturbs_the_others(
            n in 4usize..8,
            extra in proptest::collection::vec((0usize..12, 0usize..12), 0..4),
            raw in proptest::collection::vec(0.0f64..4.0, 8..16),
            pick in 0usize..64,
            eps in 0.0f64..0.1,
        ) {
            let caps = [1.0, 2.0, 5.0];
            let g = random_graph(n, &extra, &caps);
            let target = random_routing(&g, &raw);
            let Ok(plain) = compute_program(&g, &target, VirtualLinkBudget::per_prefix(8)) else {
                return Ok(());
            };
            let compressed =
                compress_program(&g, &target, &plain, CompressionLevel::Lossy { epsilon: eps })
                    .unwrap();
            let before = compute_fib(&compressed.lsdb, n);

            let d = NodeId(pick % n);
            let mut lsdb = compressed.lsdb.clone();
            let withdrawn = lsdb.retract_fakes_for(d);
            prop_assert_eq!(lsdb.fake_count_for(d), 0, "lies for {} survived", d);
            prop_assert!(
                withdrawn <= compressed.stats.prefix_advertisements,
                "withdrew more advertisements than the program carried"
            );

            let after = compute_fib(&lsdb, n);
            for t in 0..n {
                if t == d.index() {
                    continue;
                }
                for u in 0..n {
                    prop_assert_eq!(
                        before.entry(NodeId(u), NodeId(t)),
                        after.entry(NodeId(u), NodeId(t)),
                        "retracting {} changed router {}'s entry towards {}",
                        d, u, t
                    );
                }
            }
        }
    }
}
