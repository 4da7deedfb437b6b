//! # coyote-gp
//!
//! Log-space convex-optimization helpers for COYOTE's splitting optimizer.
//!
//! COYOTE's in-DAG traffic-splitting optimization (Section V-C and
//! Appendix C of the paper) cannot be expressed as a linear program because
//! link loads are *products* of splitting ratios along paths. The paper's
//! way out is geometric programming: take logarithms of the splitting
//! variables so that each load constraint becomes a *log-sum-exp of affine
//! functions* (convex). This reproduction never builds the GP symbolically:
//! `coyote-core::oblivious` parametrizes the splitting ratios by a softmax
//! (which enforces the per-node "ratios sum to one" constraint exactly),
//! smooths the worst-case link utilization with a log-sum-exp and minimizes
//! it with a first-order method. What is left in this crate is exactly what
//! that needs:
//!
//! * [`logspace`] — numerically stable `log-sum-exp`, `softmax` and the
//!   smooth maximum with its weights;
//! * [`solver`] — first-order unconstrained minimizers (Adam, and gradient
//!   descent with backtracking) over a user-supplied differentiable
//!   [`Objective`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod logspace;
pub mod solver;

pub use solver::{AdamOptions, Objective, OptResult};
