//! # coyote-lp
//!
//! A self-contained, two-phase **simplex** linear-programming solver: one
//! revised simplex over a sparse CSR constraint matrix with an
//! incrementally updated LU basis factorization, which carries only the
//! mechanisms that change a result. The original dense tableau, with the
//! defences against its own rounding drift, is test-only code
//! (`simplex.rs`): the reference the differential suite
//! (`differential.rs`) compares the solver against.
//!
//! The COYOTE paper solves several families of linear programs:
//!
//! * the *demands-aware optimum* `OPTU(D)` — a per-destination
//!   multicommodity-flow LP minimizing maximum link utilization
//!   (Section III / VI, used as the normalizing denominator of every
//!   performance ratio);
//! * the *"slave LP"* (Appendix C) that finds, for a fixed routing and a
//!   fixed edge, the demand matrix maximizing that edge's utilization over
//!   all matrices routable within the capacities (optionally intersected
//!   with the operator's uncertainty box) — the building block of both the
//!   constraint-generation loop and the oblivious-ratio evaluation;
//! * the dual "weight" certificates of Theorem 5.
//!
//! The original work delegates these to AMPL/MOSEK; this crate implements the
//! solver from scratch so that the whole reproduction is dependency-free.
//!
//! Every variable is non-negative, as in every LP the paper poses (flows,
//! demands, `α`, `λ`), and every solve runs through the crate's one
//! prepared-model type, [`LpSession`] ([`LpProblem::prepare`]): the model
//! is validated and converted to standard form once. Repeated solves of one
//! constraint system under changing objectives (the per-edge slave LPs of
//! `coyote-core::worst_case`) re-enter phase two from the basis the session
//! itself recorded — bit-identical to a cold solve by construction and
//! therefore not switchable. A single solve is [`LpProblem::solve`], or
//! [`LpProblem::solve_from`] when the caller can name a feasible starting
//! basis from the problem's structure (a hint the solver checks, never an
//! answer it trusts): each is a fresh session's first solve.
//!
//! ## Usage
//!
//! ```
//! use coyote_lp::{LpProblem, Sense, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  x,y >= 0
//! let mut lp = LpProblem::new(Sense::Maximize);
//! let x = lp.add_nonneg_var("x", 3.0);
//! let y = lp.add_nonneg_var("y", 2.0);
//! lp.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! lp.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = lp.solve().unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-6);
//! assert!((sol.value(x) - 4.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod basis;
mod differential;
mod error;
mod model;
mod revised;
mod simplex;
mod solution;
mod sparse;
mod tol;

pub use error::LpError;
pub use model::{default_backend, LpProblem, Name, Relation, Sense, SolverBackend, VarId};
pub use revised::LpSession;
pub use solution::{LpSolution, SolveStart, SolveStats};
