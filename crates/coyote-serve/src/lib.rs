//! # coyote-serve
//!
//! The serving layer of the COYOTE reproduction: a long-running incremental
//! TE daemon. Where `coyote-bench` runs the pipeline as a batch job, this
//! crate keeps the compiled Fibbing program *in memory* and reacts to demand
//! drift and topology events with incremental re-optimization:
//!
//! * [`engine`] — the [`TeEngine`] state machine: dirty-set tracking,
//!   per-destination re-solves ([`coyote_core::incremental`]), per-prefix
//!   recompiles, the one previous program a recovery restores, and
//!   [`coyote_ospf::LsaDelta`] emission. The engine advances
//!   its own LSDB by *applying the delta it emits*, so the differential
//!   guarantee — delta applied to the old LSDB is bit-identical to a cold
//!   recompile — is the production path, checked by
//!   [`TeEngine::verify_against_cold`].
//! * [`http`] — a threaded HTTP/1.1 server on `std` alone, exposing
//!   telemetry (`GET /state`, `/program`, `/metrics`) and updates
//!   (`POST /demand`, `/link`, `/node`, `/recompile`, `/shutdown`). Request
//!   bodies are read and replies printed by the vendored `serde_json`.
//! * [`json`] — `parse` and `JsonValue`, the daemon's names for
//!   `serde_json::from_str` and `serde_json::Value`.
//! * [`api`] — the wire types of the JSON responses.
//!
//! The load harness is the repo's benchmark (`benchmark/`, workload
//! `serve-events`): seeded demand updates and link events through in-process
//! engines, the differential guarantee checked at every checkpoint.
//!
//! ```no_run
//! use coyote_serve::{EngineConfig, ServerConfig, Server, TeEngine};
//!
//! let engine = TeEngine::new(&EngineConfig::default()).unwrap();
//! let server = Server::start(engine, &ServerConfig::default()).unwrap();
//! println!("daemon listening on {}", server.addr());
//! server.join();
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
pub mod engine;
pub mod error;
pub mod http;
pub mod json;

pub use api::{LatencyStats, LinkUtilization, ProgramResponse, StateResponse};
pub use engine::{
    ColdCheck, ColdState, DemandModel, DemandUpdate, EngineConfig, TeEngine, UpdateOutcome,
};
pub use error::ServeError;
pub use http::{Server, ServerConfig};
