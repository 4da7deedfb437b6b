//! Revised simplex over a sparse column store, and the session that re-solves
//! one prepared model under changing objectives.
//!
//! This is the production solver behind [`crate::LpProblem::solve`]. It
//! implements the same two-phase method as the dense oracle
//! ([`crate::simplex`]) — identical standard-form conversion, identical
//! tolerances, Dantzig pricing with the stall-triggered switch to Bland's
//! rule, the pivot-size guard and the noise-column clamp — but instead of a
//! dense tableau it keeps:
//!
//! * the constraint matrix by columns in CSR form (the private `sparse` module), so
//!   pricing is one BTRAN plus an `O(nnz)` sweep instead of a dense row scan;
//! * an LU factorization of the basis with product-form eta updates
//!   (the private `basis` module), refactorized every `REFRESH_PIVOTS`
//!   pivots, so each pivot costs `O(nnz)` instead of `O(rows × cols)`.
//!
//! Reduced costs are recomputed from a fresh BTRAN every iteration, so the
//! dense solver's cost-row drift problem does not exist here; the
//! optimize→refactorize→verify loop (`run_phase`) still re-checks claimed
//! optimality against a fresh factorization because the *basic values*
//! accumulate drift through the eta file.
//!
//! ## Sessions
//!
//! [`LpSession`] ([`crate::LpProblem::prepare`]) is the one object that
//! outlives a solve: it owns the validated model and its standard form,
//! built once, and its only mutator is [`LpSession::set_objective`]. Phase
//! one never sees the objective, so the session records the feasible basis
//! its first solve reaches at the end of phase one and every later solve
//! re-enters phase two from it. That is **bit-identical** to a cold solve
//! of the same problem: both paths refactorize from scratch and recompute
//! the basic values at the phase boundary, making the phase-two start state
//! a pure function of (basis, constraints). A recorded basis can only ever
//! meet the system it came from — the session holds both — so nothing is
//! keyed, hashed or compared; `try_install` still rejects a basis that is
//! not primal-feasible within the phase-one tolerance (the numerical
//! guard), and the solve then runs cold and records afresh. The adversary
//! scan of `coyote-core::worst_case` solves one session per scan, one
//! objective per edge.
//!
//! Re-solves that move the *right-hand side* (the `OPTU` family of
//! `coyote-core::perf::EvaluationSet`, the daemon's per-destination LPs)
//! are one-shot [`crate::LpProblem::solve`] calls: the previous optimal
//! basis stays dual-feasible there, not primal-feasible, so they want a
//! dual method rather than a primal basis restore (see
//! `docs/ARCHITECTURE.md`).

use crate::basis::{Factorization, LuFactors};
use crate::error::LpError;
use crate::model::{
    default_iteration_limit, LpProblem, Relation, Sense, SolverBackend, VarId, Variable,
};
use crate::solution::{LpSolution, SolveStats};
use crate::sparse::CsrMatrix;
use crate::tol::{
    DRIVE_OUT_TOL, DUAL_TOL, EPS, MAX_REFRESH_ROUNDS, NOISE_RC_TOL, PHASE1_TOL, PIVOT_TOL,
    RHS_PERTURBATION, SNAP_TOL, STALL_LIMIT,
};

/// How an original variable maps to standard-form column(s). Mirrors the
/// dense solver's conversion exactly so both backends solve the same
/// standard-form problem.
#[derive(Debug, Clone)]
enum VarMap {
    /// `x = lower + x_std[col]`
    Shifted { col: usize, lower: f64 },
    /// `x = upper - x_std[col]`
    Mirrored { col: usize, upper: f64 },
    /// `x = x_std[pos] - x_std[neg]`
    Split { pos: usize, neg: usize },
}

/// Sparse standard form: the same conversion as the dense solver's
/// `build_standard_form` + tableau assembly, stored by columns.
struct SparseForm {
    sense: Sense,
    m: usize,
    total_cols: usize,
    art_base: usize,
    /// One CSR row per LP column, over the `m` constraint rows, with the
    /// right-hand-side sign flips already applied.
    cols: CsrMatrix,
    /// Non-negative, deterministically perturbed right-hand side.
    b: Vec<f64>,
    /// Phase-two (minimization) cost over all columns; zero outside the
    /// structural block.
    phase2_cost: Vec<f64>,
    /// Phase-one cost: one on artificial columns.
    phase1_cost: Vec<f64>,
    objective_offset: f64,
    var_map: Vec<VarMap>,
    is_artificial: Vec<bool>,
    /// Initial basis: slack (effective-`<=` rows) or artificial.
    initial_basis: Vec<usize>,
    /// Slack column of each row (`usize::MAX` if none).
    slack_of_row: Vec<usize>,
    /// A unit-ish column per row used for basis repair: the artificial if
    /// the row has one, its slack otherwise (every row has one of the two).
    unit_col_of_row: Vec<usize>,
    has_artificials: bool,
}

impl SparseForm {
    fn build(problem: &LpProblem) -> Self {
        // --- Variable mapping (identical to the dense conversion). ---
        let mut var_map = Vec::with_capacity(problem.vars.len());
        let mut num_structural = 0usize;
        let mut bound_rows: Vec<(usize, f64)> = Vec::new(); // (col, ub)
        for v in &problem.vars {
            if v.lower.is_finite() {
                let col = num_structural;
                num_structural += 1;
                if v.upper.is_finite() {
                    bound_rows.push((col, v.upper - v.lower));
                }
                var_map.push(VarMap::Shifted {
                    col,
                    lower: v.lower,
                });
            } else if v.upper.is_finite() {
                let col = num_structural;
                num_structural += 1;
                var_map.push(VarMap::Mirrored {
                    col,
                    upper: v.upper,
                });
            } else {
                let pos = num_structural;
                let neg = num_structural + 1;
                num_structural += 2;
                var_map.push(VarMap::Split { pos, neg });
            }
        }

        // --- Rows: user constraints then bound rows, as sparse triplets. ---
        struct Row {
            terms: Vec<(usize, f64)>,
            rhs: f64,
            relation: Relation,
        }
        let mut rows: Vec<Row> = Vec::with_capacity(problem.constraints.len() + bound_rows.len());
        for cons in &problem.constraints {
            let mut terms: Vec<(usize, f64)> = Vec::new();
            let mut rhs = cons.rhs;
            for &(var, coeff) in &cons.terms {
                match var_map[var.index()] {
                    VarMap::Shifted { col, lower } => {
                        terms.push((col, coeff));
                        rhs -= coeff * lower;
                    }
                    VarMap::Mirrored { col, upper } => {
                        terms.push((col, -coeff));
                        rhs -= coeff * upper;
                    }
                    VarMap::Split { pos, neg } => {
                        terms.push((pos, coeff));
                        terms.push((neg, -coeff));
                    }
                }
            }
            rows.push(Row {
                terms,
                rhs,
                relation: cons.relation,
            });
        }
        for &(col, ub) in &bound_rows {
            rows.push(Row {
                terms: vec![(col, 1.0)],
                rhs: ub,
                relation: Relation::Le,
            });
        }

        let m = rows.len();
        let rhs_scale = rows.iter().map(|r| r.rhs.abs()).fold(1.0_f64, f64::max);
        let num_slack = rows
            .iter()
            .filter(|r| matches!(r.relation, Relation::Le | Relation::Ge))
            .count();
        let slack_base = num_structural;
        let art_base = num_structural + num_slack;

        // --- Assemble columns, flips, perturbation, initial basis. ---
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        let mut b = Vec::with_capacity(m);
        let mut initial_basis = vec![usize::MAX; m];
        let mut art_of_row = vec![usize::MAX; m];
        let mut slack_of_row = vec![usize::MAX; m];
        let mut total_cols = art_base;
        let mut slack_idx = 0usize;
        // Artificial columns are appended after this loop, behind every
        // slack column; remember which rows need one.
        let mut art_rows: Vec<usize> = Vec::new();
        for (i, row) in rows.iter().enumerate() {
            let flip = row.rhs < 0.0;
            let rhs = row.rhs.abs();
            for &(col, coeff) in &row.terms {
                let v = if flip { -coeff } else { coeff };
                // `from_triplets` coalesces repeated variables exactly like
                // the dense `row[col] += coeff` accumulation.
                triplets.push((col, i, v));
            }
            let rel = match (row.relation, flip) {
                (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
                (Relation::Ge, false) | (Relation::Le, true) => Relation::Ge,
                (Relation::Eq, _) => Relation::Eq,
            };
            match rel {
                Relation::Le => {
                    let col = slack_base + slack_idx;
                    slack_idx += 1;
                    triplets.push((col, i, 1.0));
                    slack_of_row[i] = col;
                    initial_basis[i] = col;
                }
                Relation::Ge => {
                    let col = slack_base + slack_idx;
                    slack_idx += 1;
                    triplets.push((col, i, -1.0));
                    slack_of_row[i] = col;
                }
                Relation::Eq => {}
            }
            if initial_basis[i] == usize::MAX {
                art_rows.push(i);
            }
            // Anti-degeneracy perturbation: same rule as the dense solver —
            // only original *equality* rows, scaled by the rhs magnitude and
            // a deterministic row-dependent factor.
            let rhs = if matches!(row.relation, Relation::Eq) {
                rhs + RHS_PERTURBATION * rhs_scale * ((i % 97) as f64 + 1.0) / 97.0
            } else {
                rhs
            };
            b.push(rhs);
        }
        for &i in &art_rows {
            let col = total_cols;
            total_cols += 1;
            triplets.push((col, i, 1.0));
            art_of_row[i] = col;
            initial_basis[i] = col;
        }

        let cols = CsrMatrix::from_triplets(total_cols, m, &triplets);
        let mut is_artificial = vec![false; total_cols];
        for c in is_artificial.iter_mut().skip(art_base) {
            *c = true;
        }
        let mut phase1_cost = vec![0.0; total_cols];
        for c in phase1_cost.iter_mut().skip(art_base) {
            *c = 1.0;
        }
        let unit_col_of_row: Vec<usize> = (0..m)
            .map(|i| {
                if art_of_row[i] != usize::MAX {
                    art_of_row[i]
                } else {
                    slack_of_row[i]
                }
            })
            .collect();
        let has_artificials = !art_rows.is_empty();

        let mut form = SparseForm {
            sense: problem.sense,
            m,
            total_cols,
            art_base,
            cols,
            b,
            phase2_cost: vec![0.0; total_cols],
            phase1_cost,
            objective_offset: 0.0,
            var_map,
            is_artificial,
            initial_basis,
            slack_of_row,
            unit_col_of_row,
            has_artificials,
        };
        form.derive_costs(&problem.vars);
        form
    }

    /// Derives the phase-two (minimization) cost row and the objective
    /// offset from the variables' objective coefficients. [`Self::build`]
    /// and a session whose objective changed run this one loop, so a
    /// re-derived row equals a freshly built one bit for bit.
    fn derive_costs(&mut self, vars: &[Variable]) {
        let sign = match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let objective = &mut self.phase2_cost;
        objective.fill(0.0);
        let mut objective_offset = 0.0;
        for (v, map) in vars.iter().zip(&self.var_map) {
            let c = sign * v.objective;
            match *map {
                VarMap::Shifted { col, lower } => {
                    objective[col] += c;
                    objective_offset += c * lower;
                }
                VarMap::Mirrored { col, upper } => {
                    objective[col] -= c;
                    objective_offset += c * upper;
                }
                VarMap::Split { pos, neg } => {
                    objective[pos] += c;
                    objective[neg] -= c;
                }
            }
        }
        self.objective_offset = objective_offset;
    }
}

/// Mutable solver state shared by both phases.
struct Solver<'a> {
    sf: &'a SparseForm,
    limit: usize,
    pivots_total: usize,
    basis: Vec<usize>,
    /// Basis position of every column (`usize::MAX` when nonbasic).
    pos_of: Vec<usize>,
    fact: Factorization,
    x_b: Vec<f64>,
    clamped: Vec<bool>,
    refresh_rounds: usize,
    pivot_guard_triggers: usize,
    noise_clamps: usize,
    refactorizations: usize,
    basis_repairs: usize,
}

impl<'a> Solver<'a> {
    fn new(sf: &'a SparseForm, limit: usize) -> Result<Self, LpError> {
        let basis = sf.initial_basis.clone();
        let mut pos_of = vec![usize::MAX; sf.total_cols];
        for (i, &c) in basis.iter().enumerate() {
            pos_of[c] = i;
        }
        let mut solver = Self {
            sf,
            limit,
            pivots_total: 0,
            basis,
            pos_of,
            fact: Factorization::new(LuFactors::empty()),
            x_b: Vec::new(),
            clamped: vec![false; sf.total_cols],
            refresh_rounds: 0,
            pivot_guard_triggers: 0,
            noise_clamps: 0,
            refactorizations: 0,
            basis_repairs: 0,
        };
        solver.refactorize()?;
        Ok(solver)
    }

    /// Factorizes `basis` with singularity repair: a dependent column is
    /// replaced by the unit column of a still-uncovered row (failure
    /// positions strictly increase, so the loop terminates). Returns the
    /// factors, the (possibly repaired) basis and the repair count.
    fn factorize_repaired(
        sf: &SparseForm,
        mut basis: Vec<usize>,
    ) -> Result<(LuFactors, Vec<usize>, usize), LpError> {
        let mut repairs = 0usize;
        loop {
            match LuFactors::factorize(&sf.cols, &basis) {
                Ok(lu) => return Ok((lu, basis, repairs)),
                Err(singular) => {
                    let in_basis: std::collections::HashSet<usize> =
                        basis.iter().copied().collect();
                    let replacement = singular
                        .unpivoted_rows
                        .iter()
                        .map(|&r| sf.unit_col_of_row[r])
                        .find(|c| !in_basis.contains(c));
                    let Some(col) = replacement else {
                        return Err(LpError::Numerical {
                            context: "basis repair found no replacement column".into(),
                        });
                    };
                    basis[singular.position] = col;
                    repairs += 1;
                }
            }
        }
    }

    /// Refactorizes the current basis from scratch and recomputes the basic
    /// values from the original right-hand side, resetting eta-file drift.
    fn refactorize(&mut self) -> Result<(), LpError> {
        let (lu, basis, repairs) =
            Self::factorize_repaired(self.sf, std::mem::take(&mut self.basis))?;
        if repairs > 0 {
            self.basis_repairs += repairs;
            for p in self.pos_of.iter_mut() {
                *p = usize::MAX;
            }
            for (i, &c) in basis.iter().enumerate() {
                self.pos_of[c] = i;
            }
        }
        self.basis = basis;
        self.fact = Factorization::new(lu);
        self.x_b = self.fact.ftran(&self.sf.b);
        self.refactorizations += 1;
        Ok(())
    }

    /// Tries to install an externally supplied basis. On success the solver
    /// state is fully replaced (fresh factorization, fresh basic values);
    /// on failure (`primal infeasible beyond tolerance`) the previous state
    /// is kept untouched.
    fn try_install(&mut self, candidate: Vec<usize>) -> bool {
        let Ok((lu, basis, repairs)) = Self::factorize_repaired(self.sf, candidate) else {
            return false;
        };
        let fact = Factorization::new(lu);
        let x_b = fact.ftran(&self.sf.b);
        if x_b.iter().any(|&v| v < -PHASE1_TOL) {
            return false;
        }
        let residual: f64 = basis
            .iter()
            .zip(&x_b)
            .filter(|&(&c, _)| self.sf.is_artificial[c])
            .map(|(_, &v)| v.abs())
            .sum();
        if residual > PHASE1_TOL {
            return false;
        }
        for p in self.pos_of.iter_mut() {
            *p = usize::MAX;
        }
        for (i, &c) in basis.iter().enumerate() {
            self.pos_of[c] = i;
        }
        self.basis = basis;
        self.fact = fact;
        self.x_b = x_b;
        self.basis_repairs += repairs;
        self.refactorizations += 1;
        true
    }

    /// FTRAN of one constraint-matrix column.
    fn ftran_col(&self, col: usize) -> Vec<f64> {
        let mut dense = vec![0.0; self.sf.m];
        for (r, v) in self.sf.cols.iter_row(col) {
            dense[r] = v;
        }
        self.fact.ftran(&dense)
    }

    /// BTRAN of the basic components of a cost vector: the simplex
    /// multipliers `y` with `yᵀB = c_Bᵀ`.
    fn multipliers(&self, cost: &[f64]) -> Vec<f64> {
        let cb: Vec<f64> = self.basis.iter().map(|&c| cost[c]).collect();
        self.fact.btran(&cb)
    }

    /// Reduced cost of a column given the multipliers.
    #[inline]
    fn reduced_cost(&self, cost: &[f64], y: &[f64], col: usize) -> f64 {
        let mut dot = 0.0;
        for (r, v) in self.sf.cols.iter_row(col) {
            dot += y[r] * v;
        }
        cost[col] - dot
    }

    /// Current phase objective `c_B · x_B`.
    fn phase_objective(&self, cost: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(&self.x_b)
            .map(|(&c, &x)| cost[c] * x)
            .sum()
    }

    /// One optimization sweep: pivot until the phase claims optimality.
    /// Mirrors the dense `Tableau::run` — Dantzig pricing, Bland after
    /// [`STALL_LIMIT`] non-improving pivots, identical ratio-test
    /// tie-breaks, the pivot-size guard and the noise-column clamp.
    fn optimize(&mut self, cost: &[f64], exclude_artificials: bool) -> Result<usize, LpError> {
        // A fresh sweep re-examines previously clamped columns, exactly as
        // the dense reprice rebuilds the cost row.
        for c in self.clamped.iter_mut() {
            *c = false;
        }
        let mut pivots = 0usize;
        let mut stall = 0usize;
        let mut last_obj = self.phase_objective(cost);
        loop {
            if self.pivots_total >= self.limit {
                return Err(LpError::IterationLimit { limit: self.limit });
            }
            let use_bland = stall >= STALL_LIMIT;
            let y = self.multipliers(cost);
            // Entering column.
            let mut enter: Option<(usize, f64)> = None;
            let mut best = -DUAL_TOL;
            for j in 0..self.sf.total_cols {
                if self.pos_of[j] != usize::MAX || self.clamped[j] {
                    continue;
                }
                if exclude_artificials && self.sf.is_artificial[j] {
                    continue;
                }
                let rc = self.reduced_cost(cost, &y, j);
                if rc < -DUAL_TOL {
                    if use_bland {
                        enter = Some((j, rc));
                        break;
                    }
                    if rc < best {
                        best = rc;
                        enter = Some((j, rc));
                    }
                }
            }
            let Some((col, rc)) = enter else {
                return Ok(pivots); // optimal for this sweep
            };
            let w = self.ftran_col(col);
            // Leaving row: minimum ratio test with the dense tie-breaks.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (r, &wr) in w.iter().enumerate() {
                if wr > EPS {
                    let ratio = self.x_b[r] / wr;
                    let better = if ratio < best_ratio - EPS {
                        true
                    } else if ratio < best_ratio + EPS {
                        match leave {
                            None => true,
                            Some(lr) => {
                                if use_bland {
                                    self.basis[r] < self.basis[lr]
                                } else {
                                    wr > w[lr]
                                }
                            }
                        }
                    } else {
                        false
                    };
                    if better {
                        best_ratio = ratio;
                        leave = Some(r);
                    }
                }
            }
            // Pivot-size guard (disabled under Bland's rule, as in the
            // dense solver).
            if let (Some(lr), false) = (leave, use_bland) {
                if w[lr] < PIVOT_TOL {
                    let relax = EPS * (1.0 + best_ratio.abs());
                    let mut alt: Option<usize> = None;
                    for (r, &wr) in w.iter().enumerate() {
                        if wr >= PIVOT_TOL && self.x_b[r] / wr <= best_ratio + relax {
                            let better = match alt {
                                None => true,
                                Some(ar) => wr > w[ar],
                            };
                            if better {
                                alt = Some(r);
                            }
                        }
                    }
                    if let Some(ar) = alt {
                        leave = Some(ar);
                        self.pivot_guard_triggers += 1;
                    }
                }
            }
            let Some(row) = leave else {
                if rc >= -NOISE_RC_TOL && w.iter().all(|v| v.abs() <= PIVOT_TOL) {
                    // Numerically-zero descent direction, not a real ray.
                    self.clamped[col] = true;
                    self.noise_clamps += 1;
                    continue;
                }
                return Err(LpError::Unbounded);
            };
            self.pivot(&w, row, col);
            pivots += 1;
            self.pivots_total += 1;
            if self.fact.needs_refresh() {
                self.refactorize()?;
            }
            let obj = self.phase_objective(cost);
            if obj < last_obj - EPS {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
    }

    /// Applies one pivot: updates basic values, the eta file and the basis
    /// bookkeeping.
    fn pivot(&mut self, w: &[f64], row: usize, col: usize) {
        let theta = self.x_b[row] / w[row];
        for (i, &wi) in w.iter().enumerate() {
            if i == row {
                continue;
            }
            let v = self.x_b[i] - theta * wi;
            self.x_b[i] = if v.abs() < SNAP_TOL { 0.0 } else { v };
        }
        self.x_b[row] = theta;
        self.fact.update(w, row);
        self.pos_of[self.basis[row]] = usize::MAX;
        self.basis[row] = col;
        self.pos_of[col] = row;
    }

    /// True when fresh reduced costs (against a just-refactorized basis)
    /// show no genuine descent direction — the sparse analogue of the dense
    /// post-reprice clean check.
    fn verified_optimal(&self, cost: &[f64], exclude_artificials: bool) -> bool {
        let y = self.multipliers(cost);
        for j in 0..self.sf.total_cols {
            if self.pos_of[j] != usize::MAX {
                continue;
            }
            if exclude_artificials && self.sf.is_artificial[j] {
                continue;
            }
            let rc = self.reduced_cost(cost, &y, j);
            if rc >= -DUAL_TOL {
                continue;
            }
            if rc >= -NOISE_RC_TOL {
                let w = self.ftran_col(j);
                if w.iter().all(|v| v.abs() <= PIVOT_TOL) {
                    continue; // numerically-zero column, not a descent direction
                }
            }
            return false;
        }
        true
    }

    /// Runs one phase to verified optimality: optimize, refactorize (which
    /// also recomputes the basic values from scratch) and re-run while
    /// fresh reduced costs still descend, bounded by
    /// [`MAX_REFRESH_ROUNDS`].
    fn run_phase(&mut self, cost: &[f64], exclude_artificials: bool) -> Result<usize, LpError> {
        let mut pivots = 0usize;
        for _ in 0..MAX_REFRESH_ROUNDS {
            self.refresh_rounds += 1;
            pivots += self.optimize(cost, exclude_artificials)?;
            self.refactorize()?;
            if self.verified_optimal(cost, exclude_artificials) {
                break;
            }
        }
        Ok(pivots)
    }

    /// Sum of the basic artificial values — the phase-one residual.
    fn artificial_residual(&self) -> f64 {
        self.basis
            .iter()
            .zip(&self.x_b)
            .filter(|&(&c, _)| self.sf.is_artificial[c])
            .map(|(_, &v)| v.abs())
            .sum()
    }

    /// Drives basic artificials out of the basis at zero level, mirroring
    /// the dense post-phase-one sweep.
    fn drive_out_artificials(&mut self) -> Result<(), LpError> {
        for r in 0..self.sf.m {
            if !self.sf.is_artificial[self.basis[r]] {
                continue;
            }
            // Row r of B⁻¹, via BTRAN of the unit vector.
            let mut e = vec![0.0; self.sf.m];
            e[r] = 1.0;
            let rho = self.fact.btran(&e);
            let mut found = None;
            for c in 0..self.sf.art_base {
                if self.pos_of[c] != usize::MAX {
                    continue;
                }
                let mut entry = 0.0;
                for (rr, v) in self.sf.cols.iter_row(c) {
                    entry += rho[rr] * v;
                }
                if entry.abs() > DRIVE_OUT_TOL {
                    found = Some(c);
                    break;
                }
            }
            if let Some(c) = found {
                let w = self.ftran_col(c);
                self.pivot(&w, r, c);
                if self.fact.needs_refresh() {
                    self.refactorize()?;
                }
            }
            // If no column qualifies the row is redundant; the artificial
            // stays basic at value zero, and phase two's allowed() filter
            // keeps it from growing.
        }
        Ok(())
    }
}

/// Two-phase solve. `recorded` is the post-phase-one basis an earlier solve
/// of this same form returned, `None` for a cold solve. Returns the solution
/// and, unless the solve re-entered from `recorded`, the basis its own phase
/// one ended on.
fn solve_inner(
    sf: &SparseForm,
    iteration_limit: Option<usize>,
    recorded: Option<&[usize]>,
) -> Result<(LpSolution, Option<Vec<usize>>), LpError> {
    let _span = coyote_obs::span("lp.solve");
    let limit = iteration_limit.unwrap_or_else(|| default_iteration_limit(sf.m, sf.total_cols));
    let mut solver = Solver::new(sf, limit)?;
    let mut stats = SolveStats {
        standard_vars: sf.art_base - sf.slack_count(),
        rows: sf.m,
        ..Default::default()
    };

    // Warm entry: `try_install` rejects a basis that is not primal-feasible
    // within the phase-one tolerance, and the solve then runs cold.
    let warm = recorded.is_some_and(|basis| solver.try_install(basis.to_vec()));

    if !warm {
        if sf.has_artificials {
            stats.phase1_pivots = solver.run_phase(&sf.phase1_cost, false)?;
            let residual = solver.artificial_residual();
            if residual > PHASE1_TOL {
                return Err(LpError::Infeasible { residual });
            }
            solver.drive_out_artificials()?;
        }
        // Phase boundary normalization: a fresh factorization and fresh
        // basic values make the phase-two start state a pure function of
        // (basis, constraint system) — the invariant a session's warm
        // re-entry relies on for bit-identical results.
        solver.refactorize()?;
    }
    let post_phase1_basis = (!warm).then(|| solver.basis.clone());

    stats.phase2_pivots = solver.run_phase(&sf.phase2_cost, true)?;

    // ---- Extract the solution. ----
    let mut std_values = vec![0.0; sf.total_cols];
    for (i, &c) in solver.basis.iter().enumerate() {
        std_values[c] = solver.x_b[i];
    }
    let mut values = vec![0.0; sf.var_map.len()];
    for (i, map) in sf.var_map.iter().enumerate() {
        values[i] = match *map {
            VarMap::Shifted { col, lower } => lower + std_values[col],
            VarMap::Mirrored { col, upper } => upper - std_values[col],
            VarMap::Split { pos, neg } => std_values[pos] - std_values[neg],
        };
    }
    let internal_obj = solver.phase_objective(&sf.phase2_cost) + sf.objective_offset;
    let objective = match sf.sense {
        Sense::Minimize => internal_obj,
        Sense::Maximize => -internal_obj,
    };

    stats.refresh_rounds = solver.refresh_rounds;
    stats.pivot_guard_triggers = solver.pivot_guard_triggers;
    stats.noise_clamps = solver.noise_clamps;
    stats.refactorizations = solver.refactorizations;
    stats.basis_repairs = solver.basis_repairs;
    stats.warm_restore = warm;

    let solution = LpSolution {
        objective,
        values,
        stats,
    };
    Ok((solution, post_phase1_basis))
}

impl SparseForm {
    fn slack_count(&self) -> usize {
        self.slack_of_row
            .iter()
            .filter(|&&c| c != usize::MAX)
            .count()
    }
}

/// Publishes a completed revised-simplex solve to the obs sink.
fn report(stats: &SolveStats) {
    if !coyote_obs::enabled() {
        return;
    }
    crate::simplex::report_solve(stats);
    coyote_obs::counter("lp.backend.revised", 1);
    coyote_obs::counter("lp.refactorizations", stats.refactorizations as u64);
    coyote_obs::counter("lp.basis_repairs", stats.basis_repairs as u64);
    if stats.warm_restore {
        coyote_obs::counter("lp.warm_solves", 1);
        coyote_obs::counter("lp.warm_pivots_saved", stats.warm_pivots_saved as u64);
    } else {
        coyote_obs::counter("lp.cold_solves", 1);
    }
}

/// One-shot cold revised-simplex solve (already validated).
pub(crate) fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    let sf = SparseForm::build(problem);
    let (solution, _) = solve_inner(&sf, problem.iteration_limit, None)?;
    report(&solution.stats);
    Ok(solution)
}

/// The feasible basis a session's cold solve reached at the end of phase
/// one, and the pivots that solve paid for it.
struct PhaseOne {
    basis: Vec<usize>,
    pivots: usize,
}

/// A validated [`LpProblem`] with its standard form built once
/// ([`LpProblem::prepare`]), for a family of solves that differ only in the
/// objective. The first [`solve`](Self::solve) runs both phases and the
/// session keeps the basis phase one ended on; every later one re-enters
/// phase two from it, bit-identical to a one-shot [`LpProblem::solve`] of
/// the same model (see the module docs). Under [`SolverBackend::Dense`] a
/// session simply re-solves its problem.
pub struct LpSession {
    problem: LpProblem,
    /// `None` under the dense backend.
    form: Option<SparseForm>,
    /// An objective coefficient changed since `form`'s cost row was derived.
    costs_stale: bool,
    phase_one: Option<PhaseOne>,
}

impl LpSession {
    /// Prepares an already validated problem.
    pub(crate) fn new(problem: LpProblem) -> Self {
        let form = match problem.backend() {
            SolverBackend::Revised => Some(SparseForm::build(&problem)),
            SolverBackend::Dense => None,
        };
        Self {
            problem,
            form,
            costs_stale: false,
            phase_one: None,
        }
    }

    /// Changes the objective coefficient of a variable for the solves that
    /// follow. A non-finite coefficient is reported by the next
    /// [`solve`](Self::solve), as [`LpProblem::validate`] would.
    pub fn set_objective(&mut self, var: VarId, coefficient: f64) {
        self.problem.set_objective(var, coefficient);
        self.costs_stale = true;
    }

    /// Solves the model under its current objective.
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        if self.costs_stale {
            self.problem
                .vars
                .iter()
                .try_for_each(Variable::check_objective)?;
            if let Some(sf) = &mut self.form {
                sf.derive_costs(&self.problem.vars);
            }
            self.costs_stale = false;
        }
        let Some(sf) = &self.form else {
            return crate::simplex::solve(&self.problem);
        };
        let recorded = self.phase_one.as_ref();
        let (mut solution, post_phase1_basis) = solve_inner(
            sf,
            self.problem.iteration_limit,
            recorded.map(|p| p.basis.as_slice()),
        )?;
        match post_phase1_basis {
            Some(basis) => {
                let pivots = solution.stats.phase1_pivots;
                self.phase_one = Some(PhaseOne { basis, pivots });
            }
            None => solution.stats.warm_pivots_saved = recorded.map_or(0, |p| p.pivots),
        }
        report(&solution.stats);
        Ok(solution)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The numerical guard: a recorded basis that is not primal-feasible
    /// for the system (here singular, and infeasible once repaired) is
    /// rejected by `try_install` — cold solve, correct result, no panic —
    /// and the session records a usable basis in its place.
    #[test]
    fn infeasible_recorded_basis_falls_back_to_a_cold_solve() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_var("x", 0.0, 4.0, 1.0);
        let y = lp.add_var("y", 0.0, 4.0, 2.0);
        let z = lp.add_var("z", 0.0, 4.0, 3.0);
        lp.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
        lp.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
        lp.set_backend(SolverBackend::Revised);
        let cold = lp.solve().unwrap();

        let mut session = lp.prepare().unwrap();
        let rows = session.form.as_ref().unwrap().m;
        session.phase_one = Some(PhaseOne {
            basis: vec![0; rows],
            pivots: 7,
        });
        let sol = session.solve().unwrap();
        assert!(!sol.stats.warm_restore);
        assert_eq!(sol.stats.warm_pivots_saved, 0);
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.values, cold.values);
        assert!(session.solve().unwrap().stats.warm_restore);
    }
}
