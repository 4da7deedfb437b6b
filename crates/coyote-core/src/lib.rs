//! # coyote-core
//!
//! The core of the COYOTE reproduction ("Lying Your Way to Better Traffic
//! Engineering", CoNEXT 2016): destination-based, demands-oblivious traffic
//! engineering that is realizable over unmodified OSPF/ECMP routers.
//!
//! The pipeline mirrors Fig. 5 of the paper:
//!
//! 1. **DAG construction** ([`dag_builder`], [`local_search`]) — shortest-path
//!    DAGs from OSPF weights (inverse-capacity or local-search heuristics),
//!    augmented with every remaining link oriented towards the destination.
//! 2. **In-DAG traffic splitting** ([`oblivious`]) — splitting ratios
//!    optimized against the worst demand matrix inside the operator's
//!    uncertainty bounds, via a log-domain first-order method plus
//!    constraint generation with the exact slave LP ([`worst_case`]).
//! 3. **Evaluation** ([`perf`], [`opt_mcf`]) — performance ratios against the
//!    demands-aware optimum, ECMP baselines ([`ecmp`]), and path stretch.
//!
//! [`Pipeline`] runs steps 1–2 on one weighted graph: DAGs and evaluation
//! family built once, the splitting optimized per uncertainty set.
//!
//! The OSPF/Fibbing translation (fake nodes and virtual links) lives in the
//! `coyote-ospf` crate; the flow-level prototype emulation in `coyote-sim`.
//!
//! ## Quick start
//!
//! ```
//! use coyote_core::prelude::*;
//! use coyote_traffic::{DemandMatrix, GravityModel, UncertaintySet};
//!
//! // The paper's running example: Fig. 1a.
//! let (graph, nodes) = coyote_core::example_fig1::topology();
//! let uncertainty = coyote_core::example_fig1::uncertainty(&nodes);
//!
//! // COYOTE: augmented DAGs + optimized splitting ratios.
//! let pipeline = Pipeline::new(graph.clone(), &uncertainty, None, CoyoteConfig::fast()).unwrap();
//! let result = pipeline.optimize(&uncertainty).unwrap();
//! result.routing.validate(&graph).unwrap();
//!
//! // ECMP baseline for comparison.
//! let ecmp = ecmp_routing(&graph).unwrap();
//! let dm = DemandMatrix::from_pairs(4, &[(nodes.s1, nodes.t, 2.0)]);
//! assert!(result.routing.max_link_utilization(&graph, &dm) <= 2.0);
//! assert!(ecmp.max_link_utilization(&graph, &dm) <= 2.0);
//! let _ = GravityModel::default();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod certificate;
pub mod dag_builder;
pub mod ecmp;
pub mod error;
pub mod example_fig1;
pub mod incremental;
pub mod local_search;
pub mod oblivious;
pub mod opt_mcf;
pub mod perf;
pub mod routing;
pub mod worst_case;

pub use dag_builder::{build_all_dags, build_dag, DagMode};
pub use ecmp::{ecmp_routing, uniform_augmented_routing};
pub use error::CoreError;
pub use incremental::{demand_dirty_destinations, solve_destination, DestinationSolve};
pub use local_search::{local_search_weights, LocalSearchConfig, LocalSearchResult};
pub use oblivious::{optimize_splitting_with_working_set, CoyoteConfig, CoyoteResult, Pipeline};
pub use opt_mcf::{
    optimal_routing_within_dags, optu, optu_within_dags, split_routable_within_dags, RoutableSplit,
};
pub use perf::{average_stretch, EvaluationOptions, EvaluationSet};
pub use routing::PdRouting;
pub use worst_case::{performance_ratio_exact, FractionTable, RoutabilityScope, WorstCase};

/// Convenient glob import for downstream users and examples.
pub mod prelude {
    pub use crate::dag_builder::{build_all_dags, DagMode};
    pub use crate::ecmp::{ecmp_routing, uniform_augmented_routing};
    pub use crate::error::CoreError;
    pub use crate::local_search::{local_search_weights, LocalSearchConfig};
    pub use crate::oblivious::{
        optimize_splitting_with_working_set, CoyoteConfig, CoyoteResult, Pipeline,
    };
    pub use crate::opt_mcf::{
        optimal_routing_within_dags, optu, optu_within_dags, split_routable_within_dags,
        RoutableSplit,
    };
    pub use crate::perf::{average_stretch, EvaluationOptions, EvaluationSet};
    pub use crate::routing::PdRouting;
    pub use crate::worst_case::{performance_ratio_exact, RoutabilityScope};
}
