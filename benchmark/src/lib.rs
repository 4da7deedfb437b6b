//! # coyote-benchmark
//!
//! The repository's benchmark: one command, four named workloads,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! traced run. See `README.md` for what each workload and metric is for.
//!
//! Layers are timed from outside, by calling the public functions of the
//! workspace crates; nothing here changes or instruments the program.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod aa;
pub mod harness;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
