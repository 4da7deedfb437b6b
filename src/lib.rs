//! # coyote — facade crate
//!
//! One-stop re-export of the COYOTE traffic-engineering reproduction
//! ("Lying Your Way to Better Traffic Engineering", CoNEXT 2016).
//!
//! The individual crates can be used independently; this facade re-exports
//! them under short module names so that examples and downstream users can
//! depend on a single crate:
//!
//! * [`graph`] — directed capacitated graphs, DAGs, and plain OSPF (the one
//!   SPF/ECMP kernel the compiler and the simulated routers share).
//! * [`lp`] — the LP solver: a sparse revised simplex with an LU-factored
//!   basis, and the dense two-phase tableau kept as its differential
//!   oracle.
//! * [`traffic`] — demand matrices (gravity, bimodal) and uncertainty sets.
//! * [`topology`] — backbone topologies (Topology Zoo reconstructions).
//! * [`core`] — COYOTE itself: DAG construction, splitting optimization
//!   (log-space smooth max minimized with Adam), ECMP and demands-aware
//!   baselines, performance-ratio evaluation.
//! * [`ospf`] — the OSPF/ECMP + Fibbing substrate (fake LSAs, virtual
//!   next-hops) that turns COYOTE's ratios into deployable router state.
//! * [`sim`] — the flow-level emulator used by the prototype experiment.
//! * [`serve`] — the long-running incremental TE daemon: an HTTP/JSON
//!   control plane that holds the compiled Fibbing program in memory and
//!   reacts to demand drift and link/node events with dirty-set re-solves
//!   and per-prefix LSA deltas (`experiments serve`).
//! * [`obs`] — spans/counters/histograms wired through the
//!   whole pipeline; exports chrome://tracing traces and flat metrics
//!   summaries (`experiments … --profile`).
//! * [`bench`](mod@bench) — the experiment harness itself: scenario grid, parallel
//!   sweep engine on a scoped worker pool, and the full-stack conformance
//!   engine that drives every sweep cell through compile → realized
//!   Fibbing routing → simulation.
//!
//! See `examples/quickstart.rs` for an end-to-end walk-through.
//!
//! ## Quick start
//!
//! ```
//! use coyote::core::prelude::*;
//! use coyote::traffic::DemandMatrix;
//!
//! // The paper's running example (Fig. 1a) with its 0–2 Mbps user bounds.
//! let (graph, nodes) = coyote::core::example_fig1::topology();
//! let uncertainty = coyote::core::example_fig1::uncertainty(&nodes);
//!
//! // COYOTE's pipeline: augmented DAGs + worst-case-optimized splitting.
//! let pipeline = Pipeline::new(graph.clone(), &uncertainty, None, CoyoteConfig::fast()).unwrap();
//! let result = pipeline.optimize(&uncertainty).unwrap();
//! result.routing.validate(&graph).unwrap();
//!
//! // Both COYOTE and the ECMP baseline route this demand within twice the
//! // unit capacities (COYOTE optimizes the *worst case* over the whole
//! // uncertainty set, not any single matrix).
//! let ecmp = ecmp_routing(&graph).unwrap();
//! let dm = DemandMatrix::from_pairs(4, &[(nodes.s1, nodes.t, 2.0)]);
//! assert!(result.routing.max_link_utilization(&graph, &dm) <= 2.0);
//! assert!(ecmp.max_link_utilization(&graph, &dm) <= 2.0);
//! ```

#![warn(missing_docs)]

pub use coyote_bench as bench;
pub use coyote_core as core;
pub use coyote_graph as graph;
pub use coyote_lp as lp;
pub use coyote_obs as obs;
pub use coyote_ospf as ospf;
pub use coyote_serve as serve;
pub use coyote_sim as sim;
pub use coyote_topology as topology;
pub use coyote_traffic as traffic;
