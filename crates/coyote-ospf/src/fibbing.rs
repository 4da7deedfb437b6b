//! The Fibbing controller: turning a COYOTE routing into OSPF lies.
//!
//! Section V-D of the paper: "COYOTE leverages the techniques in \[9\]
//! (Fibbing) and in \[18\] (virtual next hops) to carefully craft lies so as
//! to generate the desired per-destination forwarding DAGs and approximate
//! the optimal traffic splitting ratios with ECMP."
//!
//! Given a target [`PdRouting`] the controller decides, per destination
//! prefix and per router:
//!
//! 1. what the desired next-hop set and splitting fractions are;
//! 2. whether plain OSPF/ECMP already produces exactly that behaviour (in
//!    which case *no lie is needed* — keeping the number of fake nodes small
//!    is an explicit goal of the paper's Section VI);
//! 3. otherwise, how many virtual next-hop entries to install per neighbor
//!    (bounded by the operator's budget, Fig. 10 evaluates 3/5/10) and which
//!    fake-node advertisements realize them.
//!
//! Step 2 asks [`coyote_graph::spf::shortest_path_dag`] of the physical
//! graph — the same kernel, tolerance included, that the simulated routers
//! of [`crate::spf`] run over their router LSAs, so "no lie needed" here
//! means the routers really do install exactly that next-hop set.
//!
//! The resulting [`FibbingProgram`] carries the lied-to LSDB; running the
//! ordinary SPF of [`crate::spf`] over it yields the FIB that the *real*
//! routers would compute, which [`realized_routing`] converts back into a
//! [`PdRouting`] for evaluation.

use crate::compress::CompressionStats;
use crate::error::OspfError;
use crate::fib::Fib;
use crate::lsa::FakeNodeLsa;
use crate::lsdb::Lsdb;
use crate::spf::compute_fib;
use crate::wecmp::approximate_split;
use coyote_core::PdRouting;
use coyote_graph::spf::{shortest_path_dag, ShortestPathDag};
use coyote_graph::{Graph, NodeId};
use serde::Serialize;

/// Operator budget for splitting-ratio approximation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct VirtualLinkBudget {
    /// Maximum number of ECMP FIB entries a router may hold towards one
    /// destination prefix (real next hops plus virtual replicas). The paper
    /// evaluates 3, 5 and 10 (Fig. 10).
    pub max_entries_per_prefix: usize,
}

impl VirtualLinkBudget {
    /// A budget of `n` entries per (router, prefix).
    pub fn per_prefix(n: usize) -> Self {
        Self {
            max_entries_per_prefix: n.max(1),
        }
    }

    /// A budget large enough to be effectively unconstrained (used to
    /// approximate the "ideal" curve of Fig. 10).
    pub fn unlimited() -> Self {
        Self {
            max_entries_per_prefix: 64,
        }
    }
}

/// Statistics about a computed Fibbing program.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct FibbingStats {
    /// Total fake nodes injected.
    pub fake_nodes: usize,
    /// Total destination-prefix advertisements carried by the fakes. Equal
    /// to `fake_nodes` for uncompressed programs (one prefix per fake);
    /// larger once compression shares fakes across destinations.
    pub prefix_advertisements: usize,
    /// Number of (router, prefix) pairs that needed at least one lie.
    pub lied_router_prefix_pairs: usize,
    /// Number of (router, prefix) pairs whose desired behaviour was already
    /// plain ECMP (no lie).
    pub native_router_prefix_pairs: usize,
    /// Largest number of FIB entries any router holds for any prefix.
    pub max_entries_per_router_prefix: u32,
}

/// A complete Fibbing configuration: the lied-to LSDB plus bookkeeping.
#[derive(Debug, Clone)]
pub struct FibbingProgram {
    /// The LSDB containing the real topology and the injected lies.
    pub lsdb: Lsdb,
    /// Statistics (fake-node counts etc.).
    pub stats: FibbingStats,
    /// What compression did to this program (all-zero when uncompressed).
    pub compression: CompressionStats,
}

/// The lies realizing one destination prefix of a target routing, plus the
/// per-destination slice of the compile statistics. Produced by
/// [`compile_destination`]; [`compute_program`] is exactly the concatenation
/// of these over all destinations in node order, which is what makes the
/// incremental recompile of `coyote-serve` bit-identical to a cold compile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DestinationLies {
    /// The lies for this prefix, in injection order. `FakeNodeId`s are
    /// placeholders (`0`); [`Lsdb::inject`] assigns the dense ids.
    pub lies: Vec<FakeNodeLsa>,
    /// (router, prefix) pairs of this destination that needed a lie.
    pub lied_pairs: usize,
    /// (router, prefix) pairs already realized by plain ECMP.
    pub native_pairs: usize,
    /// Largest number of FIB entries any router holds towards this prefix.
    pub max_entries: u32,
}

/// Computes the lies realizing `target`'s DAG and splitting ratios for the
/// single destination `t`.
///
/// `plain` is the physical graph's shortest-path DAG towards `t`
/// ([`shortest_path_dag`]`(graph, t)`): what plain OSPF does, and the real
/// distances every lie must undercut. The caller passes it in, so a caller
/// that already ran that Dijkstra — to build `t`'s augmented DAG, say —
/// does not pay for it twice; this function runs none.
///
/// The result for `t` depends only on the physical topology (through
/// `plain`; lies never alter real distances), `target.dag(t)` and
/// `target`'s ratios towards `t` — the separability that the incremental
/// re-optimization layer relies on.
pub fn compile_destination(
    graph: &Graph,
    plain: &ShortestPathDag,
    target: &PdRouting,
    t: NodeId,
    budget: VirtualLinkBudget,
) -> Result<DestinationLies, OspfError> {
    if target.destination_count() != graph.node_count() {
        return Err(OspfError::DimensionMismatch(format!(
            "routing covers {} destinations, graph has {} nodes",
            target.destination_count(),
            graph.node_count()
        )));
    }
    if plain.destination != t || plain.dist_to_dest.len() != graph.node_count() {
        return Err(OspfError::DimensionMismatch(format!(
            "shortest-path DAG towards {} over {} nodes, expected towards {} over {}",
            plain.destination.index(),
            plain.dist_to_dest.len(),
            t.index(),
            graph.node_count()
        )));
    }
    let mut out_lies = DestinationLies::default();
    let dag = target.dag(t);
    for u in graph.nodes() {
        if u == t {
            continue;
        }
        let out = dag.out_edges(u);
        if out.is_empty() {
            continue;
        }
        // Desired fractions over the DAG out-edges of u.
        let fractions: Vec<f64> = out.iter().map(|&e| target.ratio(t, e)).collect();
        let multiplicities = approximate_split(&fractions, budget.max_entries_per_prefix);

        // Desired next hops with their multiplicities.
        let desired: Vec<(NodeId, u32)> = out
            .iter()
            .zip(&multiplicities)
            .filter(|(_, &m)| m > 0)
            .map(|(&e, &m)| (graph.edge(e).dst, m))
            .collect();
        if desired.is_empty() {
            return Err(OspfError::UnrealizableSplit {
                router: u.index(),
                destination: t.index(),
            });
        }

        // What would plain OSPF/ECMP do at u for this prefix? Native ECMP
        // matches iff the desired set is exactly the native set, each with
        // multiplicity one.
        let mut desired_sorted: Vec<(usize, u32)> =
            desired.iter().map(|&(n, m)| (n.index(), m)).collect();
        desired_sorted.sort();
        let mut native_sorted: Vec<(usize, u32)> = plain
            .next_hops(u)
            .iter()
            .map(|&e| (graph.edge(e).dst.index(), 1))
            .collect();
        native_sorted.sort();
        if desired_sorted == native_sorted {
            out_lies.native_pairs += 1;
            continue;
        }

        // Otherwise: lie. All fake routes share a total cost strictly
        // below the real distance so the router uses them exclusively;
        // the per-neighbor multiplicity realizes the split.
        out_lies.lied_pairs += 1;
        let real_dist = plain.dist_to_dest[u.index()];
        let total_cost = if real_dist.is_finite() {
            real_dist * 0.5
        } else {
            1.0
        };
        for &(neighbor, mult) in &desired {
            for _ in 0..mult {
                out_lies.lies.push(FakeNodeLsa::single(
                    u,
                    t,
                    total_cost / 2.0,
                    total_cost / 2.0,
                    neighbor,
                ));
            }
        }
        let entries: u32 = desired.iter().map(|&(_, m)| m).sum();
        out_lies.max_entries = out_lies.max_entries.max(entries);
    }
    Ok(out_lies)
}

/// Computes the lies realizing `target` under the given budget.
pub fn compute_program(
    graph: &Graph,
    target: &PdRouting,
    budget: VirtualLinkBudget,
) -> Result<FibbingProgram, OspfError> {
    let _span = coyote_obs::span("ospf.compile");
    if target.destination_count() != graph.node_count() {
        return Err(OspfError::DimensionMismatch(format!(
            "routing covers {} destinations, graph has {} nodes",
            target.destination_count(),
            graph.node_count()
        )));
    }
    let mut lsdb = Lsdb::from_graph(graph);
    let mut stats = FibbingStats::default();

    for t in graph.nodes() {
        let plain = shortest_path_dag(graph, t);
        let per_dest = compile_destination(graph, &plain, target, t, budget)?;
        coyote_obs::observe(
            "ospf.fake_nodes_per_destination",
            per_dest.lies.len() as u64,
        );
        for lie in per_dest.lies {
            lsdb.inject(lie);
            stats.fake_nodes += 1;
        }
        stats.lied_router_prefix_pairs += per_dest.lied_pairs;
        stats.native_router_prefix_pairs += per_dest.native_pairs;
        stats.max_entries_per_router_prefix = stats
            .max_entries_per_router_prefix
            .max(per_dest.max_entries);
    }

    // One prefix advertisement per (single-prefix) fake node here; the
    // compression pass recomputes both when fakes become shared.
    stats.prefix_advertisements = stats.fake_nodes;

    if coyote_obs::enabled() {
        coyote_obs::counter("ospf.compile_runs", 1);
        coyote_obs::counter("ospf.fake_nodes", stats.fake_nodes as u64);
        // One forged fake-node LSA realizes each fake node in this
        // implementation, so the LSA count mirrors the fake-node count.
        coyote_obs::counter("ospf.forged_lsas", stats.fake_nodes as u64);
        coyote_obs::counter(
            "ospf.lied_router_prefix_pairs",
            stats.lied_router_prefix_pairs as u64,
        );
    }

    Ok(FibbingProgram {
        lsdb,
        stats,
        compression: CompressionStats::default(),
    })
}

/// Runs the routers' SPF over the program's LSDB and returns the FIB.
pub fn program_fib(graph: &Graph, program: &FibbingProgram) -> Fib {
    compute_fib(&program.lsdb, graph.node_count())
}

/// The routing the real routers would realize under this program.
pub fn realized_routing(graph: &Graph, program: &FibbingProgram) -> Result<PdRouting, OspfError> {
    program_fib(graph, program).to_routing(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coyote_core::example_fig1;
    use coyote_core::{ecmp_routing, uniform_augmented_routing};

    #[test]
    fn plain_ecmp_needs_no_lies() {
        // Compiler and routers must agree on what plain OSPF does: on the
        // running example and on every zoo topology, ECMP compiles to zero
        // lies and the routers realize it exactly.
        let zoo = coyote_topology::zoo::all()
            .into_iter()
            .map(|topology| topology.to_graph().unwrap());
        for g in std::iter::once(example_fig1::topology().0).chain(zoo) {
            let target = ecmp_routing(&g).unwrap();
            let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(5)).unwrap();
            assert_eq!(program.stats.fake_nodes, 0);
            assert_eq!(program.stats.lied_router_prefix_pairs, 0);
            assert!(program.stats.native_router_prefix_pairs > 0);
            let realized = realized_routing(&g, &program).unwrap();
            for t in g.nodes() {
                for e in g.edges() {
                    assert!((realized.ratio(t, e) - target.ratio(t, e)).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn fig1c_splits_are_realized_with_a_handful_of_lies() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::fig1c_routing(&g, &nodes);
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(3)).unwrap();
        assert!(program.stats.fake_nodes > 0);
        let realized = realized_routing(&g, &program).unwrap();
        realized.validate(&g).unwrap();
        // The 2/3 - 1/3 split at s2 towards t is realized exactly with 3
        // entries.
        let s2t = g.find_edge(nodes.s2, nodes.t).unwrap();
        let s2v = g.find_edge(nodes.s2, nodes.v).unwrap();
        assert!((realized.ratio(nodes.t, s2t) - 2.0 / 3.0).abs() < 1e-9);
        assert!((realized.ratio(nodes.t, s2v) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn golden_split_approximation_improves_with_the_budget() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let mut last_err = f64::INFINITY;
        for budget in [3usize, 5, 10, 32] {
            let program =
                compute_program(&g, &target, VirtualLinkBudget::per_prefix(budget)).unwrap();
            let realized = realized_routing(&g, &program).unwrap();
            let s1s2 = g.find_edge(nodes.s1, nodes.s2).unwrap();
            let err = (realized.ratio(nodes.t, s1s2) - example_fig1::INVERSE_GOLDEN_RATIO).abs();
            assert!(
                err <= last_err + 1e-9,
                "budget {budget}: error {err} > {last_err}"
            );
            last_err = err;
        }
        assert!(last_err < 0.02);
    }

    #[test]
    fn augmented_uniform_routing_is_realizable() {
        let (g, _) = example_fig1::topology();
        let target = uniform_augmented_routing(&g).unwrap();
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(5)).unwrap();
        let realized = realized_routing(&g, &program).unwrap();
        realized.validate(&g).unwrap();
        // Every DAG edge with positive target ratio keeps a positive
        // realized ratio.
        for t in g.nodes() {
            for e in g.edges() {
                if target.ratio(t, e) > 0.0 {
                    assert!(
                        realized.ratio(t, e) > 0.0,
                        "edge {e} lost its share for destination {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn budget_caps_the_fib_entries() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(3)).unwrap();
        let fib = program_fib(&g, &program);
        for u in g.nodes() {
            for t in g.nodes() {
                assert!(
                    fib.entry(u, t).total_entries() <= 3,
                    "router {u} exceeds the 3-entry budget towards {t}"
                );
            }
        }
        assert!(program.stats.max_entries_per_router_prefix <= 3);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (g, _) = example_fig1::topology();
        let mut small = Graph::new();
        small.add_node("x").unwrap();
        small.add_node("y").unwrap();
        small
            .add_bidirectional_edge(NodeId(0), NodeId(1), 1.0, 1.0)
            .unwrap();
        let target = ecmp_routing(&small).unwrap();
        assert!(matches!(
            compute_program(&g, &target, VirtualLinkBudget::per_prefix(3)),
            Err(OspfError::DimensionMismatch(_))
        ));
    }
}
