//! Performance-ratio evaluation and path-stretch measurements.
//!
//! The paper's figures report, for every TE scheme, *how far the worst-case
//! link utilization is from the demands-aware optimum within the same DAGs*
//! over the operator's uncertainty set (Section VI-B), plus the average path
//! stretch relative to OSPF/ECMP (Fig. 11).
//!
//! Evaluating the exact maximum over a box-shaped uncertainty set takes one
//! `OPTU` of the lower envelope plus up to one slave LP per edge
//! ([`crate::worst_case`]). Edges whose dual-certificate bound cannot beat
//! the best ratio are skipped: the uniform augmented routing over a
//! margin-2 gravity box, within the DAGs, solves 58 of 672 edges on 13
//! Table-I topologies, at ≈ 0.07 s per scan on one core. That is still
//! exact but expensive when sweeping 14 topologies × 9 margins × 4 schemes,
//! so the [`EvaluationSet`] used by the experiment harness evaluates all
//! schemes on the *same* finite family of demand matrices drawn from the
//! uncertainty set — its corner points (every pair at its lower or upper
//! bound), the envelopes, the base matrix, interior samples, and any
//! adversarial witness matrices produced by the optimizers — and normalizes
//! by the LP optimum of each matrix. This lower-bounds the true ratio
//! identically for every scheme, so the comparisons the paper draws are
//! preserved; the exact per-edge LP evaluation remains available for
//! validation and is used in the unit tests.

use crate::error::CoreError;
use crate::opt_mcf::optu_within_dags;
use crate::routing::PdRouting;
use coyote_graph::rng::SplitMix64;
use coyote_graph::{Dag, Graph, NodeId};
use coyote_traffic::{DemandMatrix, UncertaintySet};

/// A finite family of demand matrices with precomputed normalization
/// denominators (`OPTU` within a fixed DAG set).
#[derive(Debug, Clone)]
pub struct EvaluationSet {
    /// The matrices to evaluate on.
    matrices: Vec<DemandMatrix>,
    /// `OPTU(D)` within the DAGs, per matrix (strictly positive).
    optima: Vec<f64>,
}

/// Controls how many matrices an [`EvaluationSet`] contains.
#[derive(Debug, Clone)]
pub struct EvaluationOptions {
    /// Number of random corner matrices (each pair independently at its
    /// lower or upper bound).
    pub corners: usize,
    /// Number of uniform interior samples.
    pub samples: usize,
    /// Per-destination "spike" matrices: for each of up to this many
    /// destinations, a matrix with every demand towards that destination at
    /// its upper bound and everything else at its lower bound.
    pub spikes: usize,
    /// RNG seed for corners and samples.
    pub seed: u64,
}

impl Default for EvaluationOptions {
    fn default() -> Self {
        Self {
            corners: 12,
            samples: 6,
            spikes: 8,
            seed: 0xC0707E,
        }
    }
}

/// The floor of the per-entry upper bound the oblivious set's corners and
/// samples fall back to (the base matrix's largest entry), so a zero base
/// still yields non-zero corners.
const MIN_FALLBACK_UPPER: f64 = 1e-6;

/// A matrix whose `OPTU` within the DAGs is at or below this is not added:
/// normalizing by it would divide by round-off.
const ZERO_OPTIMUM: f64 = 1e-12;

impl EvaluationSet {
    /// An empty family; populate it with [`EvaluationSet::try_add`].
    pub fn empty() -> Self {
        Self {
            matrices: Vec::new(),
            optima: Vec::new(),
        }
    }

    /// Builds the evaluation family for an uncertainty set. `base` (the
    /// matrix the margin was derived from) is included when provided. For
    /// the fully oblivious set, corners fall back to `fallback_upper` per
    /// entry.
    pub fn build(
        graph: &Graph,
        dags: &[Dag],
        uncertainty: &UncertaintySet,
        base: Option<&DemandMatrix>,
        options: &EvaluationOptions,
    ) -> Result<Self, CoreError> {
        let n = graph.node_count();
        let mut rng = SplitMix64::new(options.seed);
        let mut matrices: Vec<DemandMatrix> = Vec::new();

        if let Some(b) = base {
            matrices.push(b.clone());
        }
        if let Some(up) = uncertainty.upper_envelope() {
            matrices.push(up);
        }
        if let Some(lo) = uncertainty.lower_envelope() {
            if !lo.is_zero() {
                matrices.push(lo);
            }
        }

        let fallback_upper = base
            .map(|b| b.max_entry())
            .unwrap_or(1.0)
            .max(MIN_FALLBACK_UPPER);
        let pairs = uncertainty.active_pairs();

        // Corner matrices.
        for _ in 0..options.corners {
            let mut dm = DemandMatrix::zeros(n);
            for &(s, t) in &pairs {
                let lo = uncertainty.lower(s, t);
                let hi = match uncertainty.upper(s, t) {
                    u if u.is_finite() => u,
                    _ => fallback_upper,
                };
                let v = if rng.coin() { hi } else { lo };
                if v > 0.0 {
                    dm.set(s, t, v);
                }
            }
            if !dm.is_zero() {
                matrices.push(dm);
            }
        }

        // Per-destination spikes.
        let mut dests: Vec<NodeId> = pairs.iter().map(|&(_, t)| t).collect();
        dests.sort();
        dests.dedup();
        for &t in dests.iter().take(options.spikes) {
            let mut dm = DemandMatrix::zeros(n);
            for &(s, tt) in &pairs {
                let hi = match uncertainty.upper(s, tt) {
                    u if u.is_finite() => u,
                    _ => fallback_upper,
                };
                let v = if tt == t {
                    hi
                } else {
                    uncertainty.lower(s, tt)
                };
                if v > 0.0 {
                    dm.set(s, tt, v);
                }
            }
            if !dm.is_zero() {
                matrices.push(dm);
            }
        }

        // Interior samples.
        for dm in uncertainty.sample(options.samples, fallback_upper, options.seed ^ 0x5A5A) {
            if !dm.is_zero() {
                matrices.push(dm);
            }
        }

        let mut set = Self::empty();
        for dm in matrices {
            set.try_add(graph, dags, dm)?;
        }
        if set.matrices.is_empty() {
            return Err(CoreError::InvalidRouting(
                "evaluation set is empty (all candidate matrices were zero or unroutable)".into(),
            ));
        }
        Ok(set)
    }

    /// Adds a matrix (e.g. an adversarial witness from constraint
    /// generation) with its normalization; silently skips zero matrices.
    pub fn try_add(
        &mut self,
        graph: &Graph,
        dags: &[Dag],
        dm: DemandMatrix,
    ) -> Result<(), CoreError> {
        if dm.is_zero() {
            return Ok(());
        }
        let opt = optu_within_dags(graph, dags, &dm)?;
        if opt <= ZERO_OPTIMUM {
            return Ok(());
        }
        self.matrices.push(dm);
        self.optima.push(opt);
        Ok(())
    }

    /// Number of matrices in the family.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// True if the family is empty.
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }

    /// The matrices and their optima.
    pub fn entries(&self) -> impl Iterator<Item = (&DemandMatrix, f64)> + '_ {
        self.matrices.iter().zip(self.optima.iter().copied())
    }

    /// Performance ratio of a routing over this family:
    /// `max_D MxLU(φ, D) / OPTU(D)`.
    pub fn performance_ratio(&self, graph: &Graph, routing: &PdRouting) -> f64 {
        self.entries()
            .map(|(dm, opt)| routing.max_link_utilization(graph, dm) / opt)
            .fold(0.0, f64::max)
    }

    /// The matrix of the family on which `routing` performs worst.
    pub fn worst_matrix(&self, graph: &Graph, routing: &PdRouting) -> Option<&DemandMatrix> {
        self.entries()
            .map(|(dm, opt)| (dm, routing.max_link_utilization(graph, dm) / opt))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(dm, _)| dm)
    }
}

/// Average path stretch of `routing` relative to `reference` (typically
/// plain ECMP): the mean over all ordered pairs (weighted equally, as in
/// Fig. 11) of the ratio of expected hop counts. Pairs that are undefined
/// under either routing are skipped.
pub fn average_stretch(graph: &Graph, routing: &PdRouting, reference: &PdRouting) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for s in graph.nodes() {
        for t in graph.nodes() {
            if s == t {
                continue;
            }
            let (Some(a), Some(b)) = (
                routing.expected_hops(graph, s, t),
                reference.expected_hops(graph, s, t),
            ) else {
                continue;
            };
            if b <= 0.0 {
                continue;
            }
            sum += a / b;
            count += 1;
        }
    }
    if count == 0 {
        None
    } else {
        Some(sum / count as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_builder::{build_all_dags, DagMode};
    use crate::ecmp::{ecmp_routing, uniform_augmented_routing};
    use crate::example_fig1::{self, Fig1};
    use crate::opt_mcf::optu_within_dags;
    use coyote_graph::NodeId;

    fn base_dm(s1: NodeId, s2: NodeId, t: NodeId) -> DemandMatrix {
        DemandMatrix::from_pairs(4, &[(s1, t, 1.0), (s2, t, 1.0)])
    }

    #[test]
    fn evaluation_set_contains_base_and_envelopes() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let base = base_dm(s1, s2, t);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let set = EvaluationSet::build(
            &g,
            &dags,
            &unc,
            Some(&base),
            &EvaluationOptions {
                corners: 4,
                samples: 2,
                spikes: 2,
                seed: 1,
            },
        )
        .unwrap();
        assert!(set.len() >= 3);
        for (_, opt) in set.entries() {
            assert!(opt > 0.0);
        }
    }

    #[test]
    fn performance_ratio_is_at_least_one_for_any_routing() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let base = base_dm(s1, s2, t);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let set = EvaluationSet::build(&g, &dags, &unc, Some(&base), &EvaluationOptions::default())
            .unwrap();
        let ecmp = ecmp_routing(&g).unwrap();
        let aug = uniform_augmented_routing(&g).unwrap();
        assert!(set.performance_ratio(&g, &ecmp) >= 1.0 - 1e-9);
        assert!(set.performance_ratio(&g, &aug) >= 1.0 - 1e-9);
    }

    #[test]
    fn ecmp_is_no_better_than_the_dag_optimum_on_the_worst_matrix() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let base = base_dm(s1, s2, t);
        let unc = UncertaintySet::from_margin(&base, 3.0);
        let set = EvaluationSet::build(&g, &dags, &unc, Some(&base), &EvaluationOptions::default())
            .unwrap();
        let ecmp = ecmp_routing(&g).unwrap();
        let worst = set.worst_matrix(&g, &ecmp).unwrap();
        let opt = optu_within_dags(&g, &dags, worst).unwrap();
        assert!(ecmp.max_link_utilization(&g, worst) >= opt - 1e-9);
    }

    #[test]
    fn adding_an_adversarial_matrix_can_only_raise_the_ratio() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let base = base_dm(s1, s2, t);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let mut set =
            EvaluationSet::build(&g, &dags, &unc, Some(&base), &EvaluationOptions::default())
                .unwrap();
        let ecmp = ecmp_routing(&g).unwrap();
        let before = set.performance_ratio(&g, &ecmp);
        // The single-source matrix that hammers s2's only shortest path.
        let adversarial = DemandMatrix::from_pairs(4, &[(s2, t, 2.0)]);
        set.try_add(&g, &dags, adversarial).unwrap();
        let after = set.performance_ratio(&g, &ecmp);
        assert!(after >= before - 1e-12);
    }

    #[test]
    fn zero_matrices_are_skipped_silently() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let base = base_dm(s1, s2, t);
        let unc = UncertaintySet::from_margin(&base, 2.0);
        let mut set =
            EvaluationSet::build(&g, &dags, &unc, Some(&base), &EvaluationOptions::default())
                .unwrap();
        let len = set.len();
        set.try_add(&g, &dags, DemandMatrix::zeros(4)).unwrap();
        assert_eq!(set.len(), len);
    }

    #[test]
    fn stretch_of_a_routing_against_itself_is_one() {
        let (g, _) = example_fig1::topology();
        let ecmp = ecmp_routing(&g).unwrap();
        let s = average_stretch(&g, &ecmp, &ecmp).unwrap();
        assert!((s - 1.0).abs() < 1e-12);
        // Two routers and no link: no pair has a hop count, so no stretch.
        let apart = Graph::with_nodes(2);
        let ecmp = ecmp_routing(&apart).unwrap();
        assert_eq!(average_stretch(&apart, &ecmp, &ecmp), None);
    }

    #[test]
    fn augmented_uniform_routing_has_bounded_stretch() {
        // Uniform splitting over the augmented DAG takes some longer detours
        // but on the 4-node example stays well under 2x.
        let (g, _) = example_fig1::topology();
        let ecmp = ecmp_routing(&g).unwrap();
        let aug = uniform_augmented_routing(&g).unwrap();
        let s = average_stretch(&g, &aug, &ecmp).unwrap();
        assert!(s >= 1.0 - 1e-9);
        assert!(s < 2.0, "stretch {s} unexpectedly large");
    }
}
