//! Error type for the LP solver.

use std::fmt;

/// Errors reported by [`crate::LpProblem::solve`].
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// The constraint system admits no feasible point.
    Infeasible {
        /// Residual infeasibility left at the end of phase one.
        residual: f64,
    },
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was exhausted before reaching optimality.
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// A variable or constraint referenced an unknown variable id.
    UnknownVariable {
        /// The offending index.
        index: usize,
    },
    /// A coefficient or right-hand side was NaN/infinite where a finite
    /// value is required.
    NotFinite {
        /// Description of where the bad value appeared.
        context: String,
    },
    /// The starting basis handed to [`crate::LpProblem::solve_from`] is not
    /// a basis of this problem at all: an unknown row or variable, a row or
    /// variable named twice, or an equality row left without a basic
    /// variable.
    InvalidStart {
        /// What is wrong with the list.
        context: String,
    },
    /// The solver hit an unrecoverable numerical failure (e.g. a basis that
    /// turned singular mid-solve). Should not occur on well-scaled
    /// problems; reported rather than panicking.
    Numerical {
        /// Description of the failure.
        context: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Infeasible { residual } => {
                write!(
                    f,
                    "problem is infeasible (phase-one residual {residual:.3e})"
                )
            }
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::IterationLimit { limit } => {
                write!(f, "simplex iteration limit of {limit} reached")
            }
            LpError::UnknownVariable { index } => write!(f, "unknown variable index {index}"),
            LpError::NotFinite { context } => write!(f, "non-finite value in {context}"),
            LpError::InvalidStart { context } => write!(f, "invalid starting basis: {context}"),
            LpError::Numerical { context } => write!(f, "numerical failure: {context}"),
        }
    }
}

impl std::error::Error for LpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(LpError::Unbounded.to_string().contains("unbounded"));
        assert!(LpError::Infeasible { residual: 0.5 }
            .to_string()
            .contains("infeasible"));
        assert!(LpError::IterationLimit { limit: 10 }
            .to_string()
            .contains("10"));
    }
}
