//! Demand-uncertainty sets.
//!
//! COYOTE optimizes splitting ratios "with respect to all (even adversarially
//! chosen) traffic scenarios within the operator's uncertainty bounds"
//! (Section III): the actual demand `d_st` may take any value in
//! `[d_st^min, d_st^max]`. The evaluation parameterizes the bounds with a
//! *margin* `x ≥ 1` around a base matrix: `d_st ∈ [d_st / x, d_st · x]`
//! (Section VI-B). The fully *oblivious* variant assumes nothing at all:
//! every non-negative matrix is possible.

use crate::demand::DemandMatrix;
use coyote_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// The set of demand matrices the operator deems possible.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum UncertaintySet {
    /// Every non-negative demand matrix is possible ("oblivious" in the
    /// paper; only matrices that are routable at all matter, which the
    /// worst-case computation enforces separately).
    Oblivious {
        /// Number of nodes.
        node_count: usize,
    },
    /// Box bounds `d_st ∈ [lower_st, upper_st]` for every ordered pair, up to
    /// a common non-negative scaling λ (the paper scales every candidate
    /// matrix so it is routable; see Appendix C, constraint (8)).
    Box {
        /// Per-pair lower bounds.
        lower: DemandMatrix,
        /// Per-pair upper bounds.
        upper: DemandMatrix,
    },
}

impl UncertaintySet {
    /// The fully oblivious set over `node_count` nodes.
    pub fn oblivious(node_count: usize) -> Self {
        UncertaintySet::Oblivious { node_count }
    }

    /// Box uncertainty derived from a base matrix and a margin `x ≥ 1`:
    /// `d ∈ [base / x, base · x]` entry-wise (the construction used in the
    /// paper's figures and Table I).
    pub fn from_margin(base: &DemandMatrix, margin: f64) -> Self {
        assert!(
            margin >= 1.0,
            "uncertainty margin must be >= 1, got {margin}"
        );
        let n = base.node_count();
        let mut lower = DemandMatrix::zeros(n);
        let mut upper = DemandMatrix::zeros(n);
        for (s, t, d) in base.pairs() {
            lower.set(s, t, d / margin);
            upper.set(s, t, d * margin);
        }
        UncertaintySet::Box { lower, upper }
    }

    /// Explicit box bounds.
    pub fn from_bounds(lower: DemandMatrix, upper: DemandMatrix) -> Self {
        assert_eq!(
            lower.node_count(),
            upper.node_count(),
            "bound matrices must have the same node count"
        );
        UncertaintySet::Box { lower, upper }
    }

    /// Number of nodes the set talks about.
    pub fn node_count(&self) -> usize {
        match self {
            UncertaintySet::Oblivious { node_count } => *node_count,
            UncertaintySet::Box { lower, .. } => lower.node_count(),
        }
    }

    /// True if the set places no restriction on demands.
    pub fn is_oblivious(&self) -> bool {
        matches!(self, UncertaintySet::Oblivious { .. })
    }

    /// Lower bound of a pair (zero in the oblivious set).
    pub fn lower(&self, s: NodeId, t: NodeId) -> f64 {
        match self {
            UncertaintySet::Oblivious { .. } => 0.0,
            UncertaintySet::Box { lower, .. } => lower.get(s, t),
        }
    }

    /// Upper bound of a pair (`f64::INFINITY` in the oblivious set).
    pub fn upper(&self, s: NodeId, t: NodeId) -> f64 {
        match self {
            UncertaintySet::Oblivious { .. } => f64::INFINITY,
            UncertaintySet::Box { upper, .. } => upper.get(s, t),
        }
    }

    /// True if `dm` lies inside the box, allowing a common scaling `lambda`.
    /// For `lambda = 1` this is plain membership.
    pub fn contains_scaled(&self, dm: &DemandMatrix, lambda: f64, tol: f64) -> bool {
        match self {
            UncertaintySet::Oblivious { .. } => true,
            UncertaintySet::Box { lower, upper } => {
                let n = lower.node_count();
                for s in 0..n {
                    for t in 0..n {
                        if s == t {
                            continue;
                        }
                        let (s, t) = (NodeId(s), NodeId(t));
                        let v = dm.get(s, t);
                        if v < lambda * lower.get(s, t) - tol || v > lambda * upper.get(s, t) + tol
                        {
                            return false;
                        }
                    }
                }
                true
            }
        }
    }

    /// True if `dm` lies inside the box exactly (no scaling).
    pub fn contains(&self, dm: &DemandMatrix, tol: f64) -> bool {
        self.contains_scaled(dm, 1.0, tol)
    }

    /// The pairs whose upper bound is strictly positive — the only pairs
    /// that can ever carry traffic. Oblivious sets return every ordered
    /// pair.
    pub fn active_pairs(&self) -> Vec<(NodeId, NodeId)> {
        let n = self.node_count();
        match self {
            UncertaintySet::Oblivious { .. } => {
                let mut out = Vec::with_capacity(n * (n - 1));
                for s in 0..n {
                    for t in 0..n {
                        if s != t {
                            out.push((NodeId(s), NodeId(t)));
                        }
                    }
                }
                out
            }
            UncertaintySet::Box { upper, .. } => upper.pairs().map(|(s, t, _)| (s, t)).collect(),
        }
    }

    /// The "envelope" matrix of upper bounds (useful as a pessimistic
    /// starting matrix). Returns `None` for the oblivious set.
    pub fn upper_envelope(&self) -> Option<DemandMatrix> {
        match self {
            UncertaintySet::Oblivious { .. } => None,
            UncertaintySet::Box { upper, .. } => Some(upper.clone()),
        }
    }

    /// The matrix of lower bounds. Returns `None` for the oblivious set.
    pub fn lower_envelope(&self) -> Option<DemandMatrix> {
        match self {
            UncertaintySet::Oblivious { .. } => None,
            UncertaintySet::Box { lower, .. } => Some(lower.clone()),
        }
    }

    /// Samples `count` matrices uniformly inside the box (for the oblivious
    /// set, samples inside `[0, fallback_upper]` per entry). Used by
    /// randomized robustness tests.
    pub fn sample(&self, count: usize, fallback_upper: f64, seed: u64) -> Vec<DemandMatrix> {
        let n = self.node_count();
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let mut dm = DemandMatrix::zeros(n);
                for s in 0..n {
                    for t in 0..n {
                        if s == t {
                            continue;
                        }
                        let (s, t) = (NodeId(s), NodeId(t));
                        let lo = self.lower(s, t);
                        let hi = match self.upper(s, t) {
                            u if u.is_finite() => u,
                            _ => fallback_upper,
                        };
                        if hi <= 0.0 {
                            continue;
                        }
                        dm.set(s, t, rng.gen_range(lo..=hi.max(lo)));
                    }
                }
                dm
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> DemandMatrix {
        DemandMatrix::from_pairs(
            3,
            &[(NodeId(0), NodeId(2), 2.0), (NodeId(1), NodeId(2), 4.0)],
        )
    }

    #[test]
    fn margin_box_brackets_the_base_matrix() {
        let b = base();
        let set = UncertaintySet::from_margin(&b, 2.0);
        assert!(!set.is_oblivious());
        assert_eq!(set.lower(NodeId(0), NodeId(2)), 1.0);
        assert_eq!(set.upper(NodeId(0), NodeId(2)), 4.0);
        assert_eq!(set.lower(NodeId(1), NodeId(2)), 2.0);
        assert_eq!(set.upper(NodeId(1), NodeId(2)), 8.0);
        // Pairs with no base demand stay pinned at zero.
        assert_eq!(set.upper(NodeId(0), NodeId(1)), 0.0);
        assert!(set.contains(&b, 1e-12));
    }

    #[test]
    fn margin_one_pins_the_matrix_exactly() {
        let b = base();
        let set = UncertaintySet::from_margin(&b, 1.0);
        assert!(set.contains(&b, 1e-12));
        let mut other = b.clone();
        other.set(NodeId(0), NodeId(2), 2.5);
        assert!(!set.contains(&other, 1e-12));
    }

    #[test]
    #[should_panic(expected = "margin must be >= 1")]
    fn rejects_margins_below_one() {
        let _ = UncertaintySet::from_margin(&base(), 0.5);
    }

    #[test]
    fn scaled_membership() {
        let b = base();
        let set = UncertaintySet::from_margin(&b, 1.0);
        let doubled = b.scaled(2.0);
        assert!(!set.contains(&doubled, 1e-12));
        assert!(set.contains_scaled(&doubled, 2.0, 1e-12));
    }

    #[test]
    fn oblivious_set_accepts_everything() {
        let set = UncertaintySet::oblivious(3);
        assert!(set.is_oblivious());
        assert!(set.contains(&base(), 0.0));
        assert_eq!(set.upper(NodeId(0), NodeId(1)), f64::INFINITY);
        assert_eq!(set.lower(NodeId(0), NodeId(1)), 0.0);
        assert_eq!(set.active_pairs().len(), 6);
        assert!(set.upper_envelope().is_none());
        assert!(set.lower_envelope().is_none());
    }

    #[test]
    fn active_pairs_follow_positive_upper_bounds() {
        let set = UncertaintySet::from_margin(&base(), 3.0);
        let pairs = set.active_pairs();
        assert_eq!(pairs.len(), 2);
        assert!(pairs.contains(&(NodeId(0), NodeId(2))));
        assert!(pairs.contains(&(NodeId(1), NodeId(2))));
    }

    #[test]
    fn samples_stay_inside_the_box() {
        let set = UncertaintySet::from_margin(&base(), 2.0);
        for dm in set.sample(20, 10.0, 99) {
            assert!(set.contains(&dm, 1e-9));
        }
        // Deterministic for a fixed seed.
        assert_eq!(set.sample(3, 10.0, 1), set.sample(3, 10.0, 1));
    }

    #[test]
    fn envelopes_round_trip() {
        let b = base();
        let set = UncertaintySet::from_margin(&b, 2.0);
        let up = set.upper_envelope().unwrap();
        let lo = set.lower_envelope().unwrap();
        assert_eq!(up.get(NodeId(1), NodeId(2)), 8.0);
        assert_eq!(lo.get(NodeId(1), NodeId(2)), 2.0);
        assert!(set.contains(&lo, 1e-12));
        assert!(set.contains(&up, 1e-12));
    }
}
