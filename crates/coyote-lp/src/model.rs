//! Problem-builder API: non-negative variables, linear constraints,
//! objective.

use crate::error::LpError;
use crate::revised::LpSession;
use crate::solution::LpSolution;
use std::fmt;
use std::ops::Range;

/// The simplex implementation that solves every problem: there is one,
/// the sparse revised simplex. Kept, with [`default_backend`], only for
/// the benchmark's golden-file header, its one caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverBackend {
    /// Sparse revised simplex with LU/eta basis updates.
    Revised,
}

/// The backend every solve runs on: [`SolverBackend::Revised`]. Its only
/// caller is the benchmark's golden-file header.
pub fn default_backend() -> SolverBackend {
    SolverBackend::Revised
}

/// Handle to a decision variable of an [`LpProblem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Raw index of the variable in the problem.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Name of a variable or constraint: a static prefix plus up to two indices
/// (`"alpha"`, `("cap", 7)`, `("g", 3, 17)`). It is rendered — `alpha`,
/// `cap_7`, `g_3_17` — only when an [`LpError`] that mentions it is
/// formatted, so naming a column or a row never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Name {
    prefix: &'static str,
    indices: [Option<usize>; 2],
}

impl From<&'static str> for Name {
    fn from(prefix: &'static str) -> Self {
        let indices = [None, None];
        Self { prefix, indices }
    }
}

impl From<(&'static str, usize)> for Name {
    fn from((prefix, i): (&'static str, usize)) -> Self {
        let indices = [Some(i), None];
        Self { prefix, indices }
    }
}

impl From<(&'static str, usize, usize)> for Name {
    fn from((prefix, i, j): (&'static str, usize, usize)) -> Self {
        let indices = [Some(i), Some(j)];
        Self { prefix, indices }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.prefix)?;
        let mut indices = self.indices.iter().flatten();
        indices.try_for_each(|i| write!(f, "_{i}"))
    }
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// Constraint relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `expr <= rhs`
    Le,
    /// `expr >= rhs`
    Ge,
    /// `expr == rhs`
    Eq,
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub name: Name,
    pub objective: f64,
}

impl Variable {
    /// The objective-coefficient half of [`LpProblem::validate`].
    pub(crate) fn check_objective(&self) -> Result<(), LpError> {
        if self.objective.is_finite() {
            Ok(())
        } else {
            Err(LpError::NotFinite {
                context: format!("objective coefficient of {}", self.name),
            })
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Constraint {
    pub name: Name,
    /// The row's `(variable, coefficient)` terms, a range of the problem's
    /// term arena (`LpProblem::row_terms`). Duplicate variables are summed.
    pub terms: Range<usize>,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear program under construction.
///
/// Every variable is non-negative: variable `i` is column `i` of the
/// standard form. Constraints are sparse rows.
#[derive(Debug, Clone)]
pub struct LpProblem {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
    /// Every constraint's terms, row after row: one allocation for the
    /// whole model, not one per row.
    pub(crate) terms: Vec<(VarId, f64)>,
}

impl LpProblem {
    /// Creates an empty problem with the given optimization direction.
    pub fn new(sense: Sense) -> Self {
        Self {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            terms: Vec::new(),
        }
    }

    /// Adds a non-negative variable (`0 <= x`) with objective coefficient
    /// `objective`; returns its handle.
    pub fn add_nonneg_var(&mut self, name: impl Into<Name>, objective: f64) -> VarId {
        let id = VarId(self.vars.len());
        let name = name.into();
        self.vars.push(Variable { name, objective });
        id
    }

    /// Changes the objective coefficient of an existing variable.
    pub(crate) fn set_objective(&mut self, var: VarId, coefficient: f64) {
        self.vars[var.0].objective = coefficient;
    }

    /// Adds a sparse linear constraint `Σ coeff·var  (<=|>=|==)  rhs` and
    /// returns its index (useful for reading duals later).
    pub fn add_constraint(
        &mut self,
        name: impl Into<Name>,
        terms: &[(VarId, f64)],
        relation: Relation,
        rhs: f64,
    ) -> usize {
        let idx = self.constraints.len();
        let start = self.terms.len();
        self.terms.extend_from_slice(terms);
        self.constraints.push(Constraint {
            name: name.into(),
            terms: start..self.terms.len(),
            relation,
            rhs,
        });
        idx
    }

    /// The terms of `constraint`, a constraint of this problem.
    pub(crate) fn row_terms(&self, constraint: &Constraint) -> &[(VarId, f64)] {
        &self.terms[constraint.terms.clone()]
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Validates the model: finite coefficients, known ids.
    pub(crate) fn validate(&self) -> Result<(), LpError> {
        self.vars.iter().try_for_each(Variable::check_objective)?;
        for c in &self.constraints {
            if !c.rhs.is_finite() {
                return Err(LpError::NotFinite {
                    context: format!("right-hand side of {}", c.name),
                });
            }
            for &(v, coeff) in self.row_terms(c) {
                if v.0 >= self.vars.len() {
                    return Err(LpError::UnknownVariable { index: v.0 });
                }
                if !coeff.is_finite() {
                    return Err(LpError::NotFinite {
                        context: format!("coefficient of {} in {}", self.vars[v.0].name, c.name),
                    });
                }
            }
        }
        Ok(())
    }

    /// Solves the problem once.
    pub fn solve(self) -> Result<LpSolution, LpError> {
        self.prepare()?.solve()
    }

    /// Solves the problem once, starting from the basis `start` names instead
    /// of the slack/artificial one: each `(row, var)` makes `var` basic on
    /// constraint `row` (the index [`Self::add_constraint`] returned), every
    /// other row keeps its slack. The basis is a hint, never an answer: a
    /// list that is no basis of this model is [`LpError::InvalidStart`]; one
    /// that is singular or not primal-feasible is refused and the solve runs
    /// cold ([`crate::SolveStart::Refused`]); an accepted one skips phase
    /// one.
    pub fn solve_from(self, start: &[(usize, VarId)]) -> Result<LpSolution, LpError> {
        self.prepare()?.solve_from(start)
    }

    /// The structural half of judging a starting basis: every pair names a
    /// row and a variable of this model, nothing is named twice, and every
    /// equality row — which has no slack to keep — is covered.
    pub(crate) fn check_start(&self, start: &[(usize, VarId)]) -> Result<(), LpError> {
        let invalid = |context: String| Err(LpError::InvalidStart { context });
        let mut row_taken = vec![false; self.constraints.len()];
        let mut var_taken = vec![false; self.vars.len()];
        for &(row, var) in start {
            let Some(cons) = self.constraints.get(row) else {
                return invalid(format!("unknown row {row}"));
            };
            let Some(v) = self.vars.get(var.0) else {
                return invalid(format!("unknown variable index {}", var.0));
            };
            if std::mem::replace(&mut row_taken[row], true) {
                return invalid(format!("row {} is named twice", cons.name));
            }
            if std::mem::replace(&mut var_taken[var.0], true) {
                return invalid(format!("variable {} is named twice", v.name));
            }
        }
        for (cons, taken) in self.constraints.iter().zip(row_taken) {
            if cons.relation == Relation::Eq && !taken {
                return invalid(format!("equality row {} has no basic variable", cons.name));
            }
        }
        Ok(())
    }

    /// Validates the model and builds its standard form, once, for a family
    /// of solves that differ only in the objective (see [`LpSession`]).
    pub fn prepare(self) -> Result<LpSession, LpError> {
        self.validate()?;
        Ok(LpSession::new(self))
    }
}

/// Pivot limit of every solve, from the standard form's size.
pub(crate) fn default_iteration_limit(rows: usize, cols: usize) -> usize {
    200 * (rows + cols) + 20_000
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_tracks_counts() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 2.0);
        lp.add_constraint("c", &[(x, 1.0), (y, 1.0)], Relation::Ge, 1.0);
        assert_eq!(lp.vars.len(), 2);
        assert_eq!(lp.num_constraints(), 1);
    }

    #[test]
    fn validation_rejects_bad_models() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let _ = lp.add_nonneg_var("x", f64::NAN);
        assert!(matches!(lp.validate(), Err(LpError::NotFinite { .. })));

        let mut lp = LpProblem::new(Sense::Minimize);
        lp.add_nonneg_var("x", 0.0);
        lp.add_constraint("bad", &[(VarId(7), 1.0)], Relation::Le, 0.0);
        assert!(matches!(
            lp.validate(),
            Err(LpError::UnknownVariable { index: 7 })
        ));

        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 0.0);
        lp.add_constraint("bad", &[(x, 1.0)], Relation::Le, f64::INFINITY);
        assert!(matches!(lp.validate(), Err(LpError::NotFinite { .. })));
    }

    /// Tagged names render exactly as the `format!`-built strings they
    /// replace did.
    #[test]
    fn tagged_names_keep_their_error_text() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let g = lp.add_nonneg_var(("g", 3, 17), f64::NAN);
        assert_eq!(
            lp.validate().unwrap_err().to_string(),
            "non-finite value in objective coefficient of g_3_17"
        );
        lp.set_objective(g, 0.0);
        let alpha = lp.add_nonneg_var("alpha", f64::NAN);
        assert_eq!(
            lp.validate().unwrap_err().to_string(),
            "non-finite value in objective coefficient of alpha"
        );
        lp.set_objective(alpha, 1.0);
        lp.add_constraint(("cap", 7), &[(alpha, f64::INFINITY)], Relation::Le, 0.0);
        assert_eq!(
            lp.validate().unwrap_err().to_string(),
            "non-finite value in coefficient of alpha in cap_7"
        );
    }

    #[test]
    fn set_objective_overrides_coefficient() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 0.0);
        lp.add_constraint("ub", &[(x, 1.0)], Relation::Le, 5.0);
        lp.set_objective(x, 3.0);
        let sol = lp.solve().unwrap();
        // Tolerance accounts for the solver's deterministic anti-degeneracy
        // right-hand-side perturbation.
        assert!((sol.objective - 15.0).abs() < 1e-5);
    }
}
