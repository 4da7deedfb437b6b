//! The bimodal traffic model.
//!
//! Second base model of the paper's evaluation (Section VI-B), after Medina
//! et al. \[23\]: "a small fraction of all pairs of routers exchange large
//! quantities of traffic, and the other pairs send small flows". Pairs are
//! selected pseudo-randomly from a caller-supplied seed so experiments are
//! reproducible.

use crate::demand::DemandMatrix;
use coyote_graph::rng::SplitMix64;
use coyote_graph::{Graph, NodeId};

// Fraction of ordered pairs that are "elephant" pairs.
const LARGE_FRACTION: f64 = 0.1;
// Mean demand of an elephant pair, as a multiple of the mean mouse demand.
const LARGE_TO_SMALL_RATIO: f64 = 10.0;

/// Bimodal model generator. The matrix carries the gravity model's default
/// total: the sum of all link capacities divided by the number of nodes.
#[derive(Debug, Clone)]
pub struct BimodalModel {
    /// RNG seed.
    pub seed: u64,
}

impl Default for BimodalModel {
    fn default() -> Self {
        Self::with_seed(0xC0707E)
    }
}

impl BimodalModel {
    /// Creates a bimodal model with an explicit seed.
    pub fn with_seed(seed: u64) -> Self {
        Self { seed }
    }

    /// Generates the bimodal matrix for `graph`.
    pub fn generate(&self, graph: &Graph) -> DemandMatrix {
        let n = graph.node_count();
        let mut dm = DemandMatrix::zeros(n);
        if n < 2 {
            return dm;
        }
        let mut rng = SplitMix64::new(self.seed);
        let mut raw = vec![0.0; n * n];
        let mut raw_total = 0.0;
        for s in 0..n {
            for t in 0..n {
                if s == t {
                    continue;
                }
                let is_large = rng.unit() < LARGE_FRACTION;
                // Uniform jitter around the mode's mean keeps the matrix
                // generic (no exactly-equal demands).
                let jitter = 0.5 + rng.unit();
                let base = if is_large { LARGE_TO_SMALL_RATIO } else { 1.0 };
                let v = base * jitter;
                raw[s * n + t] = v;
                raw_total += v;
            }
        }
        let cap_sum: f64 = graph.edges().map(|e| graph.capacity(e)).sum();
        let total = cap_sum / n as f64;
        if raw_total <= 0.0 {
            return dm;
        }
        for s in 0..n {
            for t in 0..n {
                if s != t {
                    dm.set(NodeId(s), NodeId(t), total * raw[s * n + t] / raw_total);
                }
            }
        }
        dm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Graph {
        let mut g = Graph::with_nodes(n);
        for i in 0..n {
            g.add_bidirectional_edge(NodeId(i), NodeId((i + 1) % n), 10.0, 1.0)
                .unwrap();
        }
        g
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let g = ring(8);
        let a = BimodalModel::with_seed(7).generate(&g);
        let b = BimodalModel::with_seed(7).generate(&g);
        assert_eq!(a, b);
        let c = BimodalModel::with_seed(8).generate(&g);
        assert_ne!(a, c);
    }

    #[test]
    fn respects_total_demand() {
        // The sum of capacities over the node count: twelve links of
        // capacity 10 over six nodes.
        let dm = BimodalModel::default().generate(&ring(6));
        assert!((dm.total() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn exhibits_two_modes() {
        let g = ring(12);
        let dm = BimodalModel::with_seed(3).generate(&g);
        let mut values: Vec<f64> = dm.pairs().map(|(_, _, d)| d).collect();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let small_median = values[values.len() / 4];
        let large_max = values[values.len() - 1];
        // Elephants should dwarf mice by roughly the configured ratio.
        assert!(
            large_max / small_median > 10.0,
            "ratio {} too small",
            large_max / small_median
        );
    }

    #[test]
    fn all_pairs_get_some_traffic() {
        let g = ring(5);
        let dm = BimodalModel::default().generate(&g);
        assert_eq!(dm.pairs().count(), 5 * 4);
    }

    #[test]
    fn single_node_graph_yields_zero_matrix() {
        let g = Graph::with_nodes(1);
        assert!(BimodalModel::default().generate(&g).is_zero());
    }
}
