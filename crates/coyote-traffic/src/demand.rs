//! Demand matrices: how much traffic each (source, destination) pair wants
//! to send.
//!
//! Section III of the paper: "Given a Demand Matrix (DM)
//! `D = {d_{s1 t1}, …, d_{sk tk}}` specifying the demand between each pair of
//! vertices". Demands are non-negative rates in the same units as link
//! capacities; the performance ratio is invariant to rescaling the whole
//! matrix, which several algorithms exploit.

use coyote_graph::NodeId;
use serde::Serialize;

/// A dense |V| × |V| demand matrix (diagonal is ignored / kept at zero).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DemandMatrix {
    n: usize,
    /// Row-major demands: `data[s * n + t]`.
    data: Vec<f64>,
}

impl DemandMatrix {
    /// Creates an all-zero demand matrix over `n` nodes.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Demand from `s` to `t` (zero on the diagonal).
    #[inline]
    pub fn get(&self, s: NodeId, t: NodeId) -> f64 {
        self.data[s.index() * self.n + t.index()]
    }

    /// Sets the demand from `s` to `t`. Self-demands and negative values are
    /// clamped to zero.
    pub fn set(&mut self, s: NodeId, t: NodeId, value: f64) {
        if s == t {
            return;
        }
        self.data[s.index() * self.n + t.index()] = value.max(0.0);
    }

    /// Adds `value` to the demand from `s` to `t`.
    pub fn add(&mut self, s: NodeId, t: NodeId, value: f64) {
        let v = self.get(s, t) + value;
        self.set(s, t, v);
    }

    /// Multiplies every entry by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }

    /// Returns a scaled copy.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut out = self.clone();
        out.scale(factor);
        out
    }

    /// Sum of all demands.
    pub fn total(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Largest single demand.
    pub fn max_entry(&self) -> f64 {
        self.data.iter().copied().fold(0.0, f64::max)
    }

    /// True if every demand is zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0.0)
    }

    /// Iterator over the strictly positive (source, destination, demand)
    /// triples, in row-major order (deterministic).
    pub fn pairs(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.n).flat_map(move |s| {
            (0..self.n).filter_map(move |t| {
                let v = self.data[s * self.n + t];
                if v > 0.0 && s != t {
                    Some((NodeId(s), NodeId(t), v))
                } else {
                    None
                }
            })
        })
    }

    /// All destinations that receive a positive amount of traffic, in
    /// ascending order.
    pub fn active_destinations(&self) -> Vec<NodeId> {
        (0..self.n)
            .filter(|&t| (0..self.n).any(|s| s != t && self.data[s * self.n + t] > 0.0))
            .map(NodeId)
            .collect()
    }

    /// Total traffic destined to `t` from all sources.
    pub fn total_to(&self, t: NodeId) -> f64 {
        (0..self.n)
            .filter(|&s| s != t.index())
            .map(|s| self.data[s * self.n + t.index()])
            .sum()
    }

    /// Builds a matrix from explicit (source, destination, demand) triples.
    pub fn from_pairs(n: usize, pairs: &[(NodeId, NodeId, f64)]) -> Self {
        let mut dm = Self::zeros(n);
        for &(s, t, d) in pairs {
            dm.add(s, t, d);
        }
        dm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_and_diagonal_is_ignored() {
        let mut dm = DemandMatrix::zeros(3);
        dm.set(NodeId(0), NodeId(1), 2.5);
        dm.set(NodeId(1), NodeId(1), 7.0); // diagonal: ignored
        dm.set(NodeId(2), NodeId(0), -3.0); // negative: clamped
        assert_eq!(dm.get(NodeId(0), NodeId(1)), 2.5);
        assert_eq!(dm.get(NodeId(1), NodeId(1)), 0.0);
        assert_eq!(dm.get(NodeId(2), NodeId(0)), 0.0);
        assert_eq!(dm.total(), 2.5);
        assert_eq!(dm.max_entry(), 2.5);
        assert!(!dm.is_zero());
        assert!(DemandMatrix::zeros(2).is_zero());
    }

    #[test]
    fn scaling_and_totals() {
        let mut dm = DemandMatrix::zeros(3);
        dm.set(NodeId(0), NodeId(2), 1.0);
        dm.set(NodeId(1), NodeId(2), 3.0);
        dm.scale(2.0);
        assert_eq!(dm.total(), 8.0);
        assert_eq!(dm.total_to(NodeId(2)), 8.0);
        assert_eq!(dm.total_to(NodeId(0)), 0.0);
        let dm2 = dm.scaled(0.5);
        assert_eq!(dm2.total(), 4.0);
        assert_eq!(dm.total(), 8.0); // original untouched
    }

    #[test]
    fn pairs_iterates_only_positive_offdiagonal() {
        let mut dm = DemandMatrix::zeros(3);
        dm.set(NodeId(0), NodeId(1), 1.0);
        dm.set(NodeId(2), NodeId(1), 2.0);
        let pairs: Vec<_> = dm.pairs().collect();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (NodeId(0), NodeId(1), 1.0));
        assert_eq!(pairs[1], (NodeId(2), NodeId(1), 2.0));
        assert_eq!(dm.active_destinations(), vec![NodeId(1)]);
        // Ascending whatever order the entries were set in.
        dm.set(NodeId(1), NodeId(2), 1.0);
        dm.set(NodeId(1), NodeId(0), 1.0);
        assert_eq!(
            dm.active_destinations(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    fn from_pairs_accumulates_duplicates() {
        let dm = DemandMatrix::from_pairs(
            3,
            &[
                (NodeId(0), NodeId(1), 1.0),
                (NodeId(0), NodeId(1), 2.0),
                (NodeId(1), NodeId(2), 0.5),
            ],
        );
        assert_eq!(dm.get(NodeId(0), NodeId(1)), 3.0);
        assert_eq!(dm.get(NodeId(1), NodeId(2)), 0.5);
    }
}
