//! # coyote-bench
//!
//! The experiment harness of the COYOTE reproduction: the four-protocol
//! scenario evaluation ([`scenario`]), the registry of every table and
//! figure of the paper's evaluation (Section VI–VII, [`experiments`]), a
//! parallel scenario-sweep engine ([`sweep`]) over the full evaluation grid,
//! a full-stack conformance engine ([`conformance`]) that drives every cell
//! through compile → realized Fibbing routing → flow-level simulation, a
//! failure-scenario engine ([`failures`]), and text/JSON/CSV report
//! rendering ([`report`]).
//!
//! Run the harness with the `experiments` binary:
//!
//! ```text
//! cargo run --release -p coyote-bench --bin experiments -- table1
//! cargo run --release -p coyote-bench --bin experiments -- fig6 --full
//! cargo run --release -p coyote-bench --bin experiments -- all
//! cargo run --release -p coyote-bench --bin experiments -- \
//!     sweep --threads 0 --filter Abilene --format csv --out report.csv
//! ```
//!
//! Scenario evaluations are independent, so the sweep engine — which also
//! runs the ratio figures and Table I, each a selection of the one grid —
//! fans out across a [`pool::WorkerPool`]; thread count changes
//! wall-clock time only, never results.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod conformance;
pub mod experiments;
pub mod failures;
pub mod pool;
pub mod report;
pub mod scenario;
pub mod sweep;

pub use conformance::{
    conformance_record, conformance_record_with, default_pareto_levels, run_conformance,
    run_conformance_with, run_pareto, ConformanceRecord, ConformanceReport, MatrixConformance,
    ParetoPoint, ParetoReport, SimSummary,
};

pub use failures::{
    enumerate_events, run_failures, CellOutcome, EventClass, FailureCell, FailureEvent,
    FailureGrid, FailureRecord, FailureReport, FailureSimSummary, ModeOutcome,
    DEFAULT_FAILURE_SEED,
};

pub use experiments::{
    artefact, fig10_approximation, fig11_stretch, fig12_prototype, fig1_running_example, run_all,
    theorem1_gadget, theorem4_lower_bound, Artefact, Rendered, ARTEFACTS,
};
pub use scenario::{
    evaluate_scenario, BaseModel, Effort, ProtocolRatios, Scenario, WeightHeuristic,
};
pub use sweep::{run_sweep, SweepGrid, SweepRecord, SweepReport, SweepSpec};
