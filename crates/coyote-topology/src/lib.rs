//! # coyote-topology
//!
//! Backbone network topologies for the COYOTE reproduction.
//!
//! * [`topology::Topology`] — a named, serializable topology that lowers to
//!   a [`coyote_graph::Graph`].
//! * [`zoo`] — the 16 networks of the paper's evaluation (Internet Topology
//!   Zoo reconstructions; see the module docs for exactly what is real and
//!   what is synthesized).
//! * [`generators`] — the deterministic synthetic backbone generator used
//!   for the non-redistributable networks.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod generators;
pub mod topology;
pub mod zoo;

pub use generators::BackboneSpec;
pub use topology::{Link, Topology};
