//! Error type shared by the graph substrate.

use std::fmt;

/// Errors produced while building or querying graphs and DAGs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A node index was out of range for the graph it was used with.
    InvalidNode {
        /// The offending node index.
        node: usize,
        /// Number of nodes in the graph.
        node_count: usize,
    },
    /// An edge index was out of range for the graph it was used with.
    InvalidEdge {
        /// The offending edge index.
        edge: usize,
        /// Number of edges in the graph.
        edge_count: usize,
    },
    /// An edge was inserted whose capacity is not a finite positive number.
    NonPositiveCapacity {
        /// Source node of the edge.
        src: usize,
        /// Destination node of the edge.
        dst: usize,
        /// The rejected capacity.
        capacity: f64,
    },
    /// A self-loop was inserted; the routing model never uses them.
    SelfLoop {
        /// The node carrying the loop.
        node: usize,
    },
    /// A duplicate node name was registered.
    DuplicateNodeName(String),
    /// The edge set handed to [`crate::Dag::new`] contains a directed cycle,
    /// so it is not a valid per-destination DAG.
    NotAcyclic {
        /// Destination the DAG was rooted at.
        destination: usize,
    },
    /// A node cannot reach the DAG's destination through DAG edges.
    Unreachable {
        /// The disconnected node.
        node: usize,
        /// Destination of the DAG.
        destination: usize,
    },
    /// A requested node name does not exist.
    UnknownNodeName(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidNode { node, node_count } => {
                write!(
                    f,
                    "node index {node} out of range (graph has {node_count} nodes)"
                )
            }
            GraphError::InvalidEdge { edge, edge_count } => {
                write!(
                    f,
                    "edge index {edge} out of range (graph has {edge_count} edges)"
                )
            }
            GraphError::NonPositiveCapacity { src, dst, capacity } => {
                write!(
                    f,
                    "edge {src}->{dst} has capacity {capacity}; it must be finite and positive"
                )
            }
            GraphError::SelfLoop { node } => write!(f, "self loop on node {node} is not allowed"),
            GraphError::DuplicateNodeName(name) => write!(f, "duplicate node name {name:?}"),
            GraphError::NotAcyclic { destination } => {
                write!(
                    f,
                    "edge set for destination {destination} contains a directed cycle"
                )
            }
            GraphError::Unreachable { node, destination } => {
                write!(
                    f,
                    "node {node} cannot reach destination {destination} inside the DAG"
                )
            }
            GraphError::UnknownNodeName(name) => write!(f, "unknown node name {name:?}"),
        }
    }
}

impl std::error::Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = GraphError::InvalidNode {
            node: 7,
            node_count: 3,
        };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("3"));
        let e = GraphError::NonPositiveCapacity {
            src: 0,
            dst: 1,
            capacity: -2.0,
        };
        assert!(e.to_string().contains("-2"));
        let e = GraphError::NotAcyclic { destination: 4 };
        assert!(e.to_string().contains("cycle"));
        let e = GraphError::UnknownNodeName("x".into());
        assert!(e.to_string().contains('x'));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(
            GraphError::SelfLoop { node: 1 },
            GraphError::SelfLoop { node: 1 }
        );
        assert_ne!(
            GraphError::SelfLoop { node: 1 },
            GraphError::SelfLoop { node: 2 }
        );
    }
}
