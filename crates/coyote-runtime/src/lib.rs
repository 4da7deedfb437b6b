//! # coyote-runtime
//!
//! A tiny, dependency-free parallel runtime for the COYOTE reproduction.
//!
//! The experiment harness (`coyote-bench`) evaluates large scenario grids —
//! 16 topologies × two base demand models × a sweep of uncertainty margins —
//! where every scenario is independent and CPU-bound (LP solves, gradient
//! descent). This crate provides the one primitive that workload
//! needs: an **ordered parallel map** over a slice, built on
//! [`std::thread::scope`] so the build stays offline (no `rayon`, no
//! external crates).
//!
//! Guarantees:
//!
//! * **Ordering** — [`WorkerPool::par_map`] returns outputs in the same
//!   order as the inputs, regardless of which worker finished first.
//! * **Determinism** — given a pure function, the output is identical to the
//!   serial `items.iter().map(f).collect()`; thread count only changes
//!   wall-clock time, never results.
//! * **Panic propagation** — a panic inside the mapped function is re-raised
//!   on the caller's thread once all workers have drained (no hangs, no
//!   silently dropped items).
//!
//! ## Example
//!
//! ```
//! use coyote_runtime::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.par_map(&[1, 2, 3, 4, 5], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//!
//! // Fallible work, abort-on-error: the first error (in *input* order)
//! // is returned and remaining items stop being claimed.
//! let parsed: Result<Vec<i32>, _> =
//!     pool.try_par_map(&["1", "2", "3"], |s| s.parse::<i32>());
//! assert_eq!(parsed.unwrap(), vec![1, 2, 3]);
//!
//! // Fallible work, capture-everything: every per-item `Result` is kept,
//! // so isolated failures do not abort the batch.
//! let outcomes = pool.par_map_results(&["1", "x", "3"], |s| s.parse::<i32>());
//! assert_eq!(outcomes.iter().filter(|r| r.is_ok()).count(), 2);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod pool;

pub use pool::{available_threads, par_map, WorkerPool};
