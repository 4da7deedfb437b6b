//! Solution and statistics types returned by the solver.

use crate::model::VarId;

/// The basis a solve started from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum SolveStart {
    /// The slack/artificial basis of the standard form: a cold two-phase
    /// solve.
    #[default]
    Slack,
    /// The post-phase-one basis its [`crate::LpSession`] recorded: phase one
    /// skipped.
    Recorded,
    /// The basis the caller of [`crate::LpProblem::solve_from`] named: phase
    /// one skipped.
    Supplied,
    /// The slack basis, after the caller's basis turned out singular or not
    /// primal-feasible.
    Refused,
}

/// Statistics about a solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex pivots performed in phase one.
    pub phase1_pivots: usize,
    /// Simplex pivots performed in phase two.
    pub phase2_pivots: usize,
    /// Number of structural columns of the standard form, one per variable.
    pub standard_vars: usize,
    /// Number of rows of the tableau.
    pub rows: usize,
    /// Optimize→verify→re-run rounds across both phases (each phase runs
    /// at least one).
    pub refresh_rounds: usize,
    /// Completed basis factorizations.
    pub refactorizations: usize,
    /// `nnz(L) + nnz(U)`, diagonals excluded, summed over those
    /// factorizations: the fill the basis kernel paid for.
    pub lu_nnz: usize,
    /// Pivots whose step length θ was at most the feasibility tolerance:
    /// the basis changed and the vertex did not.
    pub degenerate_pivots: usize,
    /// Which basis the solve started from.
    pub start: SolveStart,
    /// Phase-one pivots avoided by the warm start (the count the session's
    /// cold solve paid).
    pub warm_pivots_saved: usize,
}

/// An optimal solution of an [`crate::LpProblem`].
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Optimal objective value in the *original* optimization direction.
    pub objective: f64,
    /// Value of every variable, indexed by [`VarId`].
    pub values: Vec<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
}

impl LpSolution {
    /// Value of a variable in the optimal solution.
    #[inline]
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_reads_by_variable() {
        let sol = LpSolution {
            objective: 1.0,
            values: vec![2.0, 3.0],
            stats: SolveStats::default(),
        };
        assert_eq!((sol.value(VarId(0)), sol.value(VarId(1))), (2.0, 3.0));
        assert_eq!(sol.stats.phase1_pivots + sol.stats.phase2_pivots, 0);
    }
}
