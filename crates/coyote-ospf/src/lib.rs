//! # coyote-ospf
//!
//! The OSPF/ECMP + Fibbing substrate of the COYOTE reproduction: everything
//! needed to turn the optimized splitting ratios of `coyote-core` into state
//! that unmodified, standard routers would actually compute.
//!
//! * [`lsa`] / [`lsdb`] — link-state advertisements (real and fake) and the
//!   link-state database the routers flood. A lie carries its replica count:
//!   `k` identical fake nodes are one counted lie from the compiler to the
//!   daemon, and every fake-node count is a sum of counts.
//! * [`spf`] — per-router SPF over the LSDB and the resulting [`fib::Fib`]:
//!   plain OSPF from `coyote_graph::spf` over [`Lsdb::real_topology`], plus
//!   the injected lies.
//! * [`wecmp`] — approximation of unequal splits by replicated ECMP entries
//!   (Nemeth et al. \[18\]), under an operator-set virtual-link budget.
//! * [`fibbing`] — the controller that computes which lies to inject for a
//!   target [`coyote_core::PdRouting`] (Fibbing \[8\], \[9\]).
//! * [`delta`] — per-prefix LSA deltas for the long-running controller:
//!   applying a delta to the old LSDB is bit-identical to a cold recompile.
//! * [`withdraw`] — OSPF's reaction to a failure, read off the healthy
//!   LSDB: withdrawn lies, one SPF per destination, and reconvergence that
//!   retracts a looping prefix's lies.
//! * [`verify`] — checks that the realized forwarding state matches the
//!   target (DAG equality, splitting-ratio error).
//!
//! ```
//! use coyote_core::example_fig1;
//! use coyote_ospf::{compute_program, realized_routing, VirtualLinkBudget};
//!
//! let (graph, nodes) = example_fig1::topology();
//! let target = example_fig1::fig1c_routing(&graph, &nodes);
//! let program = compute_program(&graph, &target, VirtualLinkBudget::per_prefix(3)).unwrap();
//! let realized = realized_routing(&graph, &program).unwrap();
//! realized.validate(&graph).unwrap();
//! assert!(program.stats.fake_nodes > 0);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod compress;
pub mod delta;
pub mod error;
pub mod fib;
pub mod fibbing;
pub mod lsa;
pub mod lsdb;
pub mod spf;
pub mod verify;
pub mod wecmp;
pub mod withdraw;

pub use compress::{
    compress_program, compute_program_with, CompressionLevel, CompressionStats, DEFAULT_EPSILON,
};
pub use delta::{LsaDelta, PrefixUpdate};
pub use error::OspfError;
pub use fib::{Fib, FibEntry};
pub use fibbing::{
    compile_destination, compute_program, program_fib, realized_routing, DestinationLies,
    FibbingProgram, FibbingStats, VirtualLinkBudget,
};
pub use lsa::{FakeNodeLsa, PrefixAdvertisement, RouterLink, RouterLsa};
pub use lsdb::{Lsdb, PruneStats};
pub use spf::compute_fib;
pub use verify::{
    compare_routings, fake_nodes_per_destination, verify_program, VerificationReport,
};
pub use wecmp::{approximate_split, max_split_error, quantize_split, realized_fractions};
pub use withdraw::{Reconvergence, Withdrawal};

#[cfg(test)]
/// The random inputs the property suites share with the integration tests.
#[path = "../tests/common/mod.rs"]
mod common;
