//! # coyote-graph
//!
//! Directed, capacitated graph substrate for the COYOTE traffic-engineering
//! reproduction ("Lying Your Way to Better Traffic Engineering", CoNEXT 2016).
//!
//! The paper models the network as a directed capacitated graph `G = (V, E)`
//! where `c_e` is the capacity of edge `e`, and routes traffic along
//! per-destination directed acyclic graphs (DAGs). This crate provides the
//! pieces every other crate builds on:
//!
//! * [`Graph`] — a compact adjacency-list digraph with per-edge capacity and
//!   OSPF-style weight, plus node names for human-readable reporting.
//! * [`spf`] — plain OSPF: Dijkstra distances *towards* a destination and
//!   the shortest-path DAG (ECMP next-hop sets) rooted at it. The starting
//!   point of COYOTE's DAG construction (Section V-B Step I), and the one
//!   SPF kernel of the workspace: `coyote-ospf`'s simulated routers run it
//!   over the graph view of their router LSAs.
//! * [`dag`] — per-destination DAG representation with topological orders,
//!   acyclicity validation and reverse-topological traversal (the order in
//!   which splitting ratios and loads are propagated).
//! * [`path`] — expected hop counts under a routing function, used by the
//!   Fig. 11 "path stretch" experiment.
//! * [`failure`] — [`Failure`], the dead routers and links of one failure
//!   and the graph that survives it: what the failure grid, the daemon and
//!   the LSDB withdrawal all read.
//! * [`rng`] — the workspace's one seeded generator (SplitMix64), behind
//!   every seeded draw: reconstructed topologies, bimodal matrices, the
//!   evaluation family, the failure grid's events.
//!
//! The crate is dependency-free (besides `serde` for persisting topologies)
//! and deterministic: iteration orders are fixed so that experiments are
//! reproducible run-to-run.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dag;
pub mod error;
pub mod failure;
pub mod graph;
pub mod path;
pub mod rng;
pub mod spf;

pub use dag::Dag;
pub use error::GraphError;
pub use failure::Failure;
pub use graph::{Edge, EdgeId, Graph, NodeId};
pub use spf::{ShortestPathDag, SpfResult};
