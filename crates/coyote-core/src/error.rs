//! Error type for the COYOTE core pipeline.

use coyote_graph::GraphError;
use coyote_lp::LpError;
use std::fmt;

/// Errors surfaced by the COYOTE core algorithms.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// An underlying graph/DAG operation failed.
    Graph(GraphError),
    /// An underlying linear program failed (infeasible, unbounded, …).
    Lp(LpError),
    /// A routing configuration violated the PD-routing invariants.
    InvalidRouting(String),
    /// A demand matrix cannot be routed at all (e.g. a destination is
    /// unreachable inside the provided DAGs).
    UnroutableDemand {
        /// Human-readable description of the offending demand.
        detail: String,
    },
    /// Mismatched dimensions between inputs (graphs, matrices, DAG sets).
    DimensionMismatch(String),
    /// An uncertainty margin that is not a finite number ≥ 1.
    InvalidMargin(f64),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Graph(e) => write!(f, "graph error: {e}"),
            CoreError::Lp(e) => write!(f, "LP error: {e}"),
            CoreError::InvalidRouting(msg) => write!(f, "invalid PD routing: {msg}"),
            CoreError::UnroutableDemand { detail } => {
                write!(f, "demand matrix cannot be routed: {detail}")
            }
            CoreError::DimensionMismatch(msg) => write!(f, "dimension mismatch: {msg}"),
            CoreError::InvalidMargin(margin) => write!(
                f,
                "uncertainty margin must be a finite number >= 1, got {margin}"
            ),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<GraphError> for CoreError {
    fn from(e: GraphError) -> Self {
        CoreError::Graph(e)
    }
}

impl From<LpError> for CoreError {
    fn from(e: LpError) -> Self {
        CoreError::Lp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = GraphError::SelfLoop { node: 3 }.into();
        assert!(e.to_string().contains("graph error"));
        let e: CoreError = LpError::Unbounded.into();
        assert!(e.to_string().contains("LP error"));
        let e = CoreError::UnroutableDemand {
            detail: "s1->t".into(),
        };
        assert!(e.to_string().contains("s1->t"));
        let e = CoreError::InvalidRouting("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = CoreError::DimensionMismatch("n".into());
        assert!(e.to_string().contains("mismatch"));
        let e = CoreError::InvalidMargin(0.5);
        assert!(e.to_string().contains("margin") && e.to_string().contains("0.5"));
    }
}
