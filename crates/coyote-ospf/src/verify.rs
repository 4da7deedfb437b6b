//! Verification that a Fibbing program realizes its target routing.
//!
//! Before deploying lies into a live IGP an operator wants to know (a) that
//! the forwarding DAGs the routers will compute are exactly the intended
//! ones (no loops, no lost edges) and (b) how far the ECMP-realized splits
//! are from the optimized ratios (bounded by the virtual-link budget). This
//! module compares the routing realized by [`crate::fibbing::FibbingProgram`]
//! against the target and produces a compact report.

use crate::error::OspfError;
use crate::fibbing::{realized_routing, FibbingProgram};
use coyote_core::PdRouting;
use coyote_graph::{Graph, NodeId};
use serde::Serialize;

/// Outcome of verifying one Fibbing program against its target routing.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VerificationReport {
    /// True if every edge that carries traffic in the target also carries
    /// traffic in the realized routing and vice versa (the DAGs match).
    pub dags_match: bool,
    /// Largest absolute difference between a realized and a target splitting
    /// ratio, over all (destination, edge) pairs.
    pub max_split_error: f64,
    /// Mean absolute splitting-ratio error over edges that carry traffic.
    pub mean_split_error: f64,
    /// Destinations whose realized DAG differs from the target.
    pub mismatched_destinations: Vec<usize>,
}

impl VerificationReport {
    /// True if the program realizes the target within `tolerance` on every
    /// splitting ratio and with matching DAGs.
    pub fn is_faithful(&self, tolerance: f64) -> bool {
        self.dags_match && self.max_split_error <= tolerance
    }
}

/// Compares the routing realized by `program` with `target`.
pub fn verify_program(
    graph: &Graph,
    target: &PdRouting,
    program: &FibbingProgram,
) -> Result<VerificationReport, OspfError> {
    let realized = realized_routing(graph, program)?;
    Ok(compare_routings(graph, target, &realized))
}

/// A splitting ratio above this puts the edge in its destination's DAG:
/// the DAGs are compared, and the split errors taken, over such edges.
const USED_RATIO: f64 = 1e-9;

/// Compares two routings edge by edge (exposed separately so tests and the
/// experiment harness can verify routings from other sources, e.g. an
/// "ideal" configuration versus its budget-limited approximation).
pub fn compare_routings(
    graph: &Graph,
    target: &PdRouting,
    realized: &PdRouting,
) -> VerificationReport {
    let mut max_err = 0.0_f64;
    let mut err_sum = 0.0_f64;
    let mut err_count = 0usize;
    let mut mismatched: Vec<usize> = Vec::new();

    for t in graph.nodes() {
        let mut dag_ok = true;
        for e in graph.edges() {
            let a = target.ratio(t, e);
            let b = realized.ratio(t, e);
            if (a > USED_RATIO) != (b > USED_RATIO) {
                dag_ok = false;
            }
            if a > USED_RATIO || b > USED_RATIO {
                let d = (a - b).abs();
                max_err = max_err.max(d);
                err_sum += d;
                err_count += 1;
            }
        }
        if !dag_ok {
            mismatched.push(t.index());
        }
    }

    VerificationReport {
        dags_match: mismatched.is_empty(),
        max_split_error: max_err,
        mean_split_error: if err_count == 0 {
            0.0
        } else {
            err_sum / err_count as f64
        },
        mismatched_destinations: mismatched,
    }
}

/// Convenience: the number of fake nodes advertising each destination (each
/// lie's replicas summed), reported alongside verification in the experiment
/// harness.
///
/// For uncompressed programs every fake advertises exactly one prefix, so
/// the per-destination counts sum to the fake-node total. Once compression
/// shares fakes across destinations a fake is counted towards *every*
/// prefix it advertises: the counts sum to
/// [`crate::fibbing::FibbingStats::prefix_advertisements`] (equivalently
/// `lsdb.prefix_advertisement_count()`), not to the LSA count.
pub fn fake_nodes_per_destination(graph: &Graph, program: &FibbingProgram) -> Vec<(NodeId, usize)> {
    graph
        .nodes()
        .map(|t| (t, program.lsdb.fake_count_for(t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fibbing::{compute_program, VirtualLinkBudget};
    use coyote_core::example_fig1;
    use coyote_core::{ecmp_routing, uniform_augmented_routing};

    #[test]
    fn honest_program_verifies_exactly() {
        let (g, _) = example_fig1::topology();
        let target = ecmp_routing(&g).unwrap();
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(3)).unwrap();
        let report = verify_program(&g, &target, &program).unwrap();
        assert!(report.dags_match);
        assert!(report.max_split_error < 1e-9);
        assert!(report.is_faithful(1e-6));
    }

    #[test]
    fn fig1c_program_is_faithful_with_three_entries() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::fig1c_routing(&g, &nodes);
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(3)).unwrap();
        let report = verify_program(&g, &target, &program).unwrap();
        assert!(
            report.dags_match,
            "mismatched: {:?}",
            report.mismatched_destinations
        );
        // 1/2 and 1/3–2/3 splits are exactly representable with <= 3 entries.
        assert!(
            report.max_split_error < 1e-9,
            "error {}",
            report.max_split_error
        );
    }

    #[test]
    fn golden_split_error_shrinks_with_budget() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let mut previous = f64::INFINITY;
        for budget in [2usize, 3, 5, 10, 32] {
            let program =
                compute_program(&g, &target, VirtualLinkBudget::per_prefix(budget)).unwrap();
            let report = verify_program(&g, &target, &program).unwrap();
            assert!(report.dags_match);
            assert!(
                report.max_split_error <= previous + 1e-9,
                "budget {budget} error {} > {previous}",
                report.max_split_error
            );
            previous = report.max_split_error;
        }
        assert!(previous < 0.02);
    }

    #[test]
    fn compare_routings_detects_dag_mismatches() {
        let (g, _) = example_fig1::topology();
        let ecmp = ecmp_routing(&g).unwrap();
        let augmented = uniform_augmented_routing(&g).unwrap();
        let report = compare_routings(&g, &augmented, &ecmp);
        // The augmented routing uses edges ECMP never touches.
        assert!(!report.dags_match);
        assert!(!report.mismatched_destinations.is_empty());
        assert!(!report.is_faithful(1.0));
    }

    /// Diamond: s reaches t via a or b, all unit capacities/weights.
    fn diamond() -> (Graph, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let s = g.add_node("s").unwrap();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let t = g.add_node("t").unwrap();
        g.add_bidirectional_edge(s, a, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s, b, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(a, t, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(b, t, 1.0, 1.0).unwrap();
        (g, s, a, b, t)
    }

    #[test]
    fn empty_routing_over_an_edgeless_graph_is_trivially_faithful() {
        let g = Graph::with_nodes(3);
        assert_eq!(g.edge_count(), 0);
        let dags: Vec<coyote_graph::Dag> = g
            .nodes()
            .map(|t| coyote_graph::Dag::new(&g, t, &[]).unwrap())
            .collect();
        let routing = PdRouting::uniform(&g, dags);
        let report = compare_routings(&g, &routing, &routing);
        assert!(report.dags_match);
        assert_eq!(report.max_split_error, 0.0);
        // No edge ever carries traffic: the mean must take the zero-count
        // branch, not divide by zero.
        assert_eq!(report.mean_split_error, 0.0);
        assert!(report.mismatched_destinations.is_empty());
        assert!(report.is_faithful(0.0));
    }

    #[test]
    fn zero_ratio_out_edges_count_as_absent_from_the_dag() {
        let (g, s, a, b, t) = diamond();
        let realized = ecmp_routing(&g).unwrap();
        // Target keeps the same DAG structure but zeroes the s->b branch:
        // a zero ratio means the edge carries nothing, so a realized 1/2
        // share on it is a DAG mismatch, not merely a split error.
        let mut target = realized.clone();
        let mut raw = vec![0.0; g.edge_count()];
        raw[g.find_edge(s, a).unwrap().index()] = 1.0;
        raw[g.find_edge(s, b).unwrap().index()] = 0.0;
        raw[g.find_edge(a, t).unwrap().index()] = 1.0;
        raw[g.find_edge(b, t).unwrap().index()] = 1.0;
        target.set_ratios(&g, t, &raw);

        let report = compare_routings(&g, &target, &realized);
        assert!(!report.dags_match);
        assert_eq!(report.mismatched_destinations, vec![t.index()]);
        assert!((report.max_split_error - 0.5).abs() < 1e-12);
        assert!(
            !report.is_faithful(1.0),
            "DAG mismatches can never be faithful"
        );
    }

    #[test]
    fn routings_over_disjoint_edge_sets_mismatch_in_both_directions() {
        let (g, s, a, b, t) = diamond();
        let base = ecmp_routing(&g).unwrap();
        // Rebuilds the base routing with t's DAG replaced by the given edge
        // set (ratios renormalize over the new DAG: a single out-edge gets
        // the whole share).
        let with_dag_for_t = |edges: &[coyote_graph::EdgeId]| {
            let dag_t = coyote_graph::Dag::new(&g, t, edges).unwrap();
            let mut dags = base.dags().to_vec();
            dags[t.index()] = dag_t;
            let ratios: Vec<Vec<f64>> = g.nodes().map(|d| base.ratios(d).to_vec()).collect();
            PdRouting::from_ratios(&g, dags, ratios)
        };
        // via_a routes all of t's traffic s->a->t; via_b routes s->b->t.
        let via_a = with_dag_for_t(&[
            g.find_edge(s, a).unwrap(),
            g.find_edge(a, t).unwrap(),
            g.find_edge(b, t).unwrap(),
        ]);
        let via_b = with_dag_for_t(&[
            g.find_edge(s, b).unwrap(),
            g.find_edge(b, t).unwrap(),
            g.find_edge(a, t).unwrap(),
        ]);

        let forward = compare_routings(&g, &via_a, &via_b);
        let backward = compare_routings(&g, &via_b, &via_a);
        for report in [&forward, &backward] {
            assert!(!report.dags_match);
            assert!(report.mismatched_destinations.contains(&t.index()));
            // The s->a / s->b edges disagree completely.
            assert!((report.max_split_error - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn is_faithful_exactly_at_the_tolerance_boundary() {
        let (g, s, a, b, t) = diamond();
        let realized = ecmp_routing(&g).unwrap();
        let mut target = realized.clone();
        let mut raw = vec![0.0; g.edge_count()];
        raw[g.find_edge(s, a).unwrap().index()] = 0.75;
        raw[g.find_edge(s, b).unwrap().index()] = 0.25;
        raw[g.find_edge(a, t).unwrap().index()] = 1.0;
        raw[g.find_edge(b, t).unwrap().index()] = 1.0;
        target.set_ratios(&g, t, &raw);

        let report = compare_routings(&g, &target, &realized);
        assert!(report.dags_match, "same DAG, only the splits differ");
        // 0.75 - 0.5 is exact in binary, so the boundary is sharp.
        assert_eq!(report.max_split_error, 0.25);
        assert!(report.is_faithful(0.25), "<= tolerance is faithful");
        assert!(!report.is_faithful(0.25 - 1e-12));
        assert!(report.is_faithful(0.3));
    }

    #[test]
    fn fake_node_accounting_lines_up_with_the_lsdb() {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(5)).unwrap();
        let per_dest = fake_nodes_per_destination(&g, &program);
        let total: usize = per_dest.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, program.lsdb.fake_count());
        assert_eq!(total, program.stats.fake_nodes);
        // Uncompressed: one prefix per fake, so all four totals coincide.
        assert_eq!(total, program.stats.prefix_advertisements);
        assert_eq!(total, program.lsdb.prefix_advertisement_count());
    }

    #[test]
    fn shared_fake_accounting_sums_to_advertisements() {
        // Once compression shares fakes across destinations the
        // per-destination counts sum to the advertisement total, while the
        // LSA count is strictly smaller — and both totals must match the
        // stats the compiler reports.
        let (g, _) = example_fig1::topology();
        let target = uniform_augmented_routing(&g).unwrap();
        let program = crate::compress::compute_program_with(
            &g,
            &target,
            VirtualLinkBudget::per_prefix(5),
            crate::compress::CompressionLevel::Lossless,
        )
        .unwrap();
        let per_dest = fake_nodes_per_destination(&g, &program);
        let total: usize = per_dest.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, program.lsdb.prefix_advertisement_count());
        assert_eq!(total, program.stats.prefix_advertisements);
        assert_eq!(program.lsdb.fake_count(), program.stats.fake_nodes);
        assert!(
            program.stats.fake_nodes <= program.stats.prefix_advertisements,
            "sharing can only reduce the LSA count below the advertisements"
        );
    }
}
