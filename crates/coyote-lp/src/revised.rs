//! Revised simplex over a sparse column store, and the session every solve
//! runs through.
//!
//! This is the crate's one solver, behind [`crate::LpProblem::solve`]. It
//! implements the same two-phase method as the dense tableau the tests
//! compare it against (`simplex.rs`, test-only code) — identical standard
//! form (variable `i` is column `i`), Dantzig pricing with the
//! stall-triggered switch to Bland's rule, identical ratio-test tie-breaks
//! — but instead of a dense tableau it keeps:
//!
//! * the constraint matrix by columns in CSR form (the private `sparse` module), so
//!   pricing is one BTRAN plus an `O(nnz)` sweep instead of a dense row scan;
//! * an LU factorization of the basis with product-form eta updates
//!   (the private `basis` module), refactorized every `REFRESH_PIVOTS`
//!   pivots, so each pivot costs `O(nnz)` instead of `O(rows × cols)`.
//!
//! Reduced costs are recomputed from a fresh BTRAN every iteration, so the
//! dense solver's cost-row drift does not exist here, and neither do the
//! oracle's defences against it (measured idle on this solver:
//! `docs/ARCHITECTURE.md`, "The LP solver"). A singular basis is an error:
//! a named or recorded one is refused, one met mid-solve is
//! [`LpError::Numerical`]. The optimize→refactorize→verify loop
//! (`run_phase`) still re-checks claimed optimality against a fresh
//! factorization, because the *basic values* accumulate drift through the
//! eta file; each round that finds a descent direction pivots on it, so the
//! iteration limit bounds the loop.
//!
//! ## Sessions
//!
//! [`LpSession`] ([`crate::LpProblem::prepare`]) owns the validated model
//! and its standard form, built once, and its only mutator is
//! [`LpSession::set_objective`]. [`crate::LpProblem::solve`] and
//! [`crate::LpProblem::solve_from`] are a session's first solve. Phase
//! one never sees the objective, so the session records the feasible basis
//! its first solve reaches at the end of phase one and every later solve
//! re-enters phase two from it. That is **bit-identical** to a cold solve
//! of the same problem: both paths enter phase two on a fresh factorization
//! of the boundary basis (an empty eta file) with the basic values
//! recomputed from it, making the phase-two start state a pure function of
//! (basis, constraints). A recorded basis can only ever
//! meet the system it came from — the session holds both — so nothing is
//! keyed, hashed or compared; `try_install` still rejects a basis that is
//! singular or not primal-feasible within the phase-one tolerance (the
//! numerical guard), and the solve then runs cold and records afresh. The adversary
//! scan of `coyote-core::worst_case` solves one session per scan, one
//! objective per edge.
//!
//! Every solve also leaves its row duals behind
//! ([`LpSession::row_duals`]): the multipliers the last pricing of phase
//! two computed anyway, mapped back to the problem's sense and row signs,
//! in one buffer the session owns. The adversary scan reads the capacity
//! rows' duals as link lengths that bound the edges it has not solved yet.
//!
//! Re-solves that move the *right-hand side* (the `OPTU` family of
//! `coyote-core::perf::EvaluationSet`, the daemon's per-destination LPs)
//! build a fresh problem each: the previous optimal basis stays
//! dual-feasible there, not primal-feasible, so they want a dual method
//! rather than a primal basis restore (see `docs/ARCHITECTURE.md`).
//!
//! ## Named starts
//!
//! A solve whose caller knows a feasible basis from the problem's
//! structure names it ([`LpSession::solve_from`], or
//! [`crate::LpProblem::solve_from`]: the flow LPs of `coyote-core::opt_mcf`
//! name their shortest-path tree). The list goes
//! through the same `try_install` as a session's recorded basis — the only
//! place a basis is accepted — and an accepted one skips phase one. Unlike
//! a recorded basis it is not where the cold solve's phase one would have
//! ended, so the solve may land on another optimal vertex; a refused one
//! costs a factorization and the solve runs cold, bit for bit.

use crate::basis::Factorization;
use crate::error::LpError;
use crate::model::{default_iteration_limit, LpProblem, Relation, Sense, VarId, Variable};
use crate::solution::{LpSolution, SolveStart, SolveStats};
use crate::sparse::CsrMatrix;
use crate::tol::{DRIVE_OUT_TOL, DUAL_TOL, EPS, PHASE1_TOL, RHS_PERTURBATION, STALL_LIMIT};

/// Sparse standard form, stored by columns: variable `i` is column `i`,
/// then one slack or surplus column per inequality row, then one
/// artificial column per row that has no slack to start from. The dense
/// test oracle builds the same form as a tableau.
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
    /// Number of structural columns, one per variable.
    num_vars: usize,
    is_artificial: Vec<bool>,
    /// Initial basis: slack (effective-`<=` rows) or artificial.
    initial_basis: Vec<usize>,
    /// Slack column of each row (`usize::MAX` if none).
    slack_of_row: Vec<usize>,
    has_artificials: bool,
    /// The rows whose sign the conversion flipped (a negative right-hand
    /// side); empty on every flow LP of the workspace.
    flipped: Vec<usize>,
}

impl SparseForm {
    fn build(problem: &LpProblem) -> Self {
        // Rows straight into column triplets: flips, slacks, initial basis.
        let num_vars = problem.vars.len();
        let m = problem.constraints.len();
        let mut triplets: Vec<(usize, usize, f64)> =
            Vec::with_capacity(problem.terms.len() + 2 * m);
        let mut b = Vec::with_capacity(m);
        let mut rhs_scale = 1.0_f64;
        let mut initial_basis = vec![usize::MAX; m];
        let mut slack_of_row = vec![usize::MAX; m];
        let slack_base = num_vars;
        let mut slack_idx = 0usize;
        // Artificial columns are appended after this loop, behind every
        // slack column; remember which rows need one.
        let mut art_rows: Vec<usize> = Vec::new();
        let mut flipped: Vec<usize> = Vec::new();
        for (i, cons) in problem.constraints.iter().enumerate() {
            // `from_triplets` coalesces repeated variables exactly like the
            // dense `row[col] += coeff` accumulation.
            let first = triplets.len();
            let terms = problem.row_terms(cons);
            triplets.extend(terms.iter().map(|&(var, coeff)| (var.index(), i, coeff)));
            let rhs = cons.rhs;
            rhs_scale = rhs_scale.max(rhs.abs());
            let flip = rhs < 0.0;
            if flip {
                for entry in &mut triplets[first..] {
                    entry.2 = -entry.2;
                }
                flipped.push(i);
            }
            let rel = match (cons.relation, flip) {
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
            b.push(rhs.abs());
        }
        // Anti-degeneracy perturbation: same rule as the dense solver — only
        // equality rows, scaled by the rhs magnitude and a deterministic
        // row-dependent factor.
        for (i, cons) in problem.constraints.iter().enumerate() {
            if cons.relation == Relation::Eq {
                b[i] += RHS_PERTURBATION * rhs_scale * ((i % 97) as f64 + 1.0) / 97.0;
            }
        }
        let art_base = slack_base + slack_idx;
        let mut total_cols = art_base;
        for &i in &art_rows {
            let col = total_cols;
            total_cols += 1;
            triplets.push((col, i, 1.0));
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
            num_vars,
            is_artificial,
            initial_basis,
            slack_of_row,
            has_artificials,
            flipped,
        };
        form.derive_costs(&problem.vars);
        form
    }

    /// Derives the phase-two (minimization) cost row from the variables'
    /// objective coefficients. [`Self::build`] and a session whose
    /// objective changed run this one loop, so a re-derived row equals a
    /// freshly built one bit for bit.
    fn derive_costs(&mut self, vars: &[Variable]) {
        let sign = match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        // Added onto `+0.0`, not stored: a maximization's `-1 × 0.0` is
        // `−0.0`, and the cost row holds `+0.0` there.
        self.phase2_cost.fill(0.0);
        for (cost, v) in self.phase2_cost.iter_mut().zip(vars) {
            *cost += sign * v.objective;
        }
    }

    /// The basis a checked start names: `var` basic on each named `row`,
    /// the row's slack on every other.
    fn named_basis(&self, start: &[(usize, VarId)]) -> Vec<usize> {
        let mut basis = self.slack_of_row.clone();
        for &(row, var) in start {
            basis[row] = var.index();
        }
        basis
    }
}

/// Mutable solver state shared by both phases. Every buffer is sized once
/// in [`Solver::new`]; nothing below allocates per pivot or per
/// refactorization.
struct Solver<'a> {
    sf: &'a SparseForm,
    limit: usize,
    pivots_total: usize,
    basis: Vec<usize>,
    /// Basis position of every column (`usize::MAX` when nonbasic).
    pos_of: Vec<usize>,
    fact: Factorization,
    x_b: Vec<f64>,
    /// Simplex multipliers of the last [`Self::multipliers`] (also the
    /// `B⁻¹` row of `drive_out_artificials`), by constraint row.
    y: Vec<f64>,
    /// FTRAN image of the last [`Self::ftran_col`], by basis position.
    w: Vec<f64>,
    /// The right-hand side a FTRAN or BTRAN consumes.
    rhs: Vec<f64>,
    /// What the solve reports, tallied as it goes.
    stats: SolveStats,
}

impl<'a> Solver<'a> {
    /// A solver with no basis yet: [`Self::cold_start`] or
    /// [`Self::try_install`] gives it one.
    fn new(sf: &'a SparseForm, limit: usize) -> Self {
        Self {
            sf,
            limit,
            pivots_total: 0,
            basis: vec![usize::MAX; sf.m],
            pos_of: vec![usize::MAX; sf.total_cols],
            fact: Factorization::new(&sf.cols),
            x_b: vec![0.0; sf.m],
            y: vec![0.0; sf.m],
            w: vec![0.0; sf.m],
            rhs: vec![0.0; sf.m],
            stats: SolveStats {
                standard_vars: sf.num_vars,
                rows: sf.m,
                ..Default::default()
            },
        }
    }

    /// Makes `basis` the current basis and factorizes it.
    fn start_from(&mut self, basis: &[usize]) -> Result<(), LpError> {
        self.basis.copy_from_slice(basis);
        self.index_basis();
        self.factorize()
    }

    /// Starts from the slack/artificial basis of the standard form.
    fn cold_start(&mut self) -> Result<(), LpError> {
        let sf = self.sf;
        self.start_from(&sf.initial_basis)
    }

    /// Rebuilds `pos_of` from `basis`.
    fn index_basis(&mut self) {
        self.pos_of.fill(usize::MAX);
        for (i, &c) in self.basis.iter().enumerate() {
            self.pos_of[c] = i;
        }
    }

    /// Factorizes the current basis from scratch and recomputes the basic
    /// values from the original right-hand side, resetting eta-file drift.
    /// A singular basis is an error: only a completed factorization counts.
    fn factorize(&mut self) -> Result<(), LpError> {
        self.fact
            .refactorize(&self.sf.cols, &self.basis)
            .map_err(|singular| LpError::Numerical {
                context: format!("singular basis at position {}", singular.position),
            })?;
        self.rhs.copy_from_slice(&self.sf.b);
        self.fact.ftran(&mut self.rhs, &mut self.x_b);
        self.stats.refactorizations += 1;
        self.stats.lu_nnz += self.fact.lu_nnz();
        Ok(())
    }

    /// Refactorizes unless the factors already are those of the current
    /// basis: with an empty eta file `x_b` is exactly `ftran(b)` of them, so
    /// factorizing again would reproduce every bit. Only called after
    /// [`Self::start_from`] succeeded.
    fn refactorize(&mut self) -> Result<(), LpError> {
        if self.fact.updates() == 0 {
            return Ok(());
        }
        self.factorize()
    }

    /// Tries to start from an externally supplied basis. False when it is
    /// singular or not primal-feasible within the phase-one tolerance; the
    /// solver then holds no usable state and the caller starts cold.
    fn try_install(&mut self, candidate: &[usize]) -> bool {
        if self.start_from(candidate).is_err() {
            return false;
        }
        let infeasible =
            self.x_b.iter().any(|&v| v < -PHASE1_TOL) || self.artificial_residual() > PHASE1_TOL;
        !infeasible
    }

    /// FTRAN of one constraint-matrix column, into `self.w`.
    fn ftran_col(&mut self, col: usize) {
        self.rhs.fill(0.0);
        for (r, v) in self.sf.cols.iter_row(col) {
            self.rhs[r] = v;
        }
        self.fact.ftran(&mut self.rhs, &mut self.w);
    }

    /// BTRAN of the basic components of a cost vector, into `self.y`: the
    /// simplex multipliers `y` with `yᵀB = c_Bᵀ`.
    fn multipliers(&mut self, cost: &[f64]) {
        for (cb, &c) in self.rhs.iter_mut().zip(&self.basis) {
            *cb = cost[c];
        }
        self.fact.btran(&mut self.rhs, &mut self.y);
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
    /// tie-breaks.
    fn optimize(&mut self, cost: &[f64], exclude_artificials: bool) -> Result<usize, LpError> {
        let mut pivots = 0usize;
        let mut stall = 0usize;
        let mut last_obj = self.phase_objective(cost);
        loop {
            if self.pivots_total >= self.limit {
                return Err(LpError::IterationLimit { limit: self.limit });
            }
            let use_bland = stall >= STALL_LIMIT;
            self.multipliers(cost);
            // Entering column.
            let mut enter: Option<usize> = None;
            let mut best = -DUAL_TOL;
            for j in 0..self.sf.total_cols {
                if self.pos_of[j] != usize::MAX {
                    continue;
                }
                if exclude_artificials && self.sf.is_artificial[j] {
                    continue;
                }
                let rc = self.reduced_cost(cost, &self.y, j);
                if rc < -DUAL_TOL {
                    if use_bland {
                        enter = Some(j);
                        break;
                    }
                    if rc < best {
                        best = rc;
                        enter = Some(j);
                    }
                }
            }
            let Some(col) = enter else {
                return Ok(pivots); // optimal for this sweep
            };
            self.ftran_col(col);
            let w = &self.w;
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
            let Some(row) = leave else {
                return Err(LpError::Unbounded);
            };
            if self.pivot(row, col) <= EPS {
                self.stats.degenerate_pivots += 1;
            }
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

    /// Applies one pivot on the FTRAN'd entering column in `self.w`: updates
    /// basic values, the eta file and the basis bookkeeping. Returns the
    /// step length θ.
    fn pivot(&mut self, row: usize, col: usize) -> f64 {
        let theta = self.x_b[row] / self.w[row];
        for (i, (x, &wi)) in self.x_b.iter_mut().zip(&self.w).enumerate() {
            if i != row {
                *x -= theta * wi;
            }
        }
        self.x_b[row] = theta;
        self.fact.update(&self.w, row);
        self.pos_of[self.basis[row]] = usize::MAX;
        self.basis[row] = col;
        self.pos_of[col] = row;
        theta
    }

    /// True when fresh reduced costs (against a just-refactorized basis)
    /// show no genuine descent direction — the sparse analogue of the dense
    /// post-reprice clean check.
    fn verified_optimal(&mut self, cost: &[f64], exclude_artificials: bool) -> bool {
        self.multipliers(cost);
        (0..self.sf.total_cols).all(|j| {
            self.pos_of[j] != usize::MAX
                || (exclude_artificials && self.sf.is_artificial[j])
                || self.reduced_cost(cost, &self.y, j) >= -DUAL_TOL
        })
    }

    /// Runs one phase to verified optimality: optimize, refactorize (which
    /// also recomputes the basic values from scratch) and re-run while
    /// fresh reduced costs still descend. A re-run starts by pivoting on the
    /// descent direction the check found, so the iteration limit bounds the
    /// loop.
    fn run_phase(&mut self, cost: &[f64], exclude_artificials: bool) -> Result<usize, LpError> {
        let mut pivots = 0usize;
        loop {
            self.stats.refresh_rounds += 1;
            pivots += self.optimize(cost, exclude_artificials)?;
            self.refactorize()?;
            if self.verified_optimal(cost, exclude_artificials) {
                return Ok(pivots);
            }
        }
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
            self.rhs.fill(0.0);
            self.rhs[r] = 1.0;
            self.fact.btran(&mut self.rhs, &mut self.y);
            let rho = &self.y;
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
                self.ftran_col(c);
                self.pivot(r, c);
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

/// Two-phase solve. `named` is a basis to enter phase two from and who
/// vouches for it — [`SolveStart::Recorded`]: the post-phase-one basis an
/// earlier solve of this same form returned; [`SolveStart::Supplied`]: the
/// caller's — `None` for a cold solve. Returns the solution and, unless the
/// solve entered from `named`, the basis its own phase one ended on; `duals`,
/// when given, receives the user rows' duals (see [`LpSession::row_duals`]).
fn solve_inner(
    sf: &SparseForm,
    named: Option<(&[usize], SolveStart)>,
    duals: Option<&mut Vec<f64>>,
) -> Result<(LpSolution, Option<Vec<usize>>), LpError> {
    let _span = coyote_obs::span("lp.solve");
    let limit = default_iteration_limit(sf.m, sf.total_cols);
    let mut solver = Solver::new(sf, limit);

    // `try_install` is the only place a named basis is accepted: it rejects
    // one that is singular or not primal-feasible within the phase-one
    // tolerance, and the solve then runs cold.
    let start = match named {
        Some((basis, origin)) if solver.try_install(basis) => origin,
        Some((_, SolveStart::Supplied)) => SolveStart::Refused,
        _ => SolveStart::Slack,
    };
    solver.stats.start = start;
    let entered = matches!(start, SolveStart::Recorded | SolveStart::Supplied);

    if !entered {
        solver.cold_start()?;
        if sf.has_artificials {
            solver.stats.phase1_pivots = solver.run_phase(&sf.phase1_cost, false)?;
            let residual = solver.artificial_residual();
            if residual > PHASE1_TOL {
                return Err(LpError::Infeasible { residual });
            }
            solver.drive_out_artificials()?;
        }
        // Phase boundary normalization: a fresh factorization and fresh
        // basic values (a no-op when no pivot followed the last one) make
        // the phase-two start state a pure function of (basis, constraint
        // system) — the invariant a session's warm re-entry relies on for
        // bit-identical results.
        solver.refactorize()?;
    }
    let post_phase1_basis = (!entered).then(|| solver.basis.clone());

    solver.stats.phase2_pivots = solver.run_phase(&sf.phase2_cost, true)?;

    // `run_phase` returns after pricing the final basis, so `solver.y`
    // holds its multipliers: minimization duals of the standard form's
    // rows, mapped back to the problem's sense and row signs.
    if let Some(duals) = duals {
        let sign = match sf.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        duals.clear();
        duals.extend(solver.y.iter().map(|&y| sign * y));
        for &i in &sf.flipped {
            duals[i] = -duals[i];
        }
    }

    // ---- Extract the solution. ----
    // Values and objective are added onto `+0.0`, which turns a `−0.0` left
    // by the pivots into `+0.0`.
    let mut values = vec![0.0; sf.num_vars];
    for (&c, &x) in solver.basis.iter().zip(&solver.x_b) {
        if c < sf.num_vars {
            values[c] += x;
        }
    }
    let internal_obj = solver.phase_objective(&sf.phase2_cost) + 0.0;
    let objective = match sf.sense {
        Sense::Minimize => internal_obj,
        Sense::Maximize => -internal_obj,
    };
    let solution = LpSolution {
        objective,
        values,
        stats: solver.stats,
    };
    Ok((solution, post_phase1_basis))
}

/// Publishes a completed solve to the global obs sink (a single
/// `enabled()` atomic load when profiling is off). All quantities are exact
/// per-solve workload counts, so their totals are bit-identical no matter
/// how solves are distributed over worker threads.
fn report(stats: &SolveStats) {
    if !coyote_obs::enabled() {
        return;
    }
    let pivots = (stats.phase1_pivots + stats.phase2_pivots) as u64;
    coyote_obs::counter("lp.solves", 1);
    coyote_obs::counter("lp.pivots", pivots);
    coyote_obs::counter("lp.phase1_pivots", stats.phase1_pivots as u64);
    coyote_obs::counter("lp.phase2_pivots", stats.phase2_pivots as u64);
    coyote_obs::counter("lp.refresh_rounds", stats.refresh_rounds as u64);
    coyote_obs::observe("lp.pivots_per_solve", pivots);
    coyote_obs::observe("lp.rows_per_solve", stats.rows as u64);
    coyote_obs::counter("lp.backend.revised", 1);
    coyote_obs::counter("lp.refactorizations", stats.refactorizations as u64);
    coyote_obs::counter("lp.lu.nnz", stats.lu_nnz as u64);
    coyote_obs::counter("lp.degenerate_pivots", stats.degenerate_pivots as u64);
    // "Cold" is "did not re-enter from a session's recorded basis", so
    // `lp.solves = lp.cold_solves + lp.warm_solves`; what became of a
    // caller's basis is counted on its own.
    if stats.start == SolveStart::Recorded {
        coyote_obs::counter("lp.warm_solves", 1);
        coyote_obs::counter("lp.warm_pivots_saved", stats.warm_pivots_saved as u64);
    } else {
        coyote_obs::counter("lp.cold_solves", 1);
    }
    match stats.start {
        SolveStart::Supplied => coyote_obs::counter("lp.crash_starts", 1),
        SolveStart::Refused => coyote_obs::counter("lp.crash_rejects", 1),
        SolveStart::Slack | SolveStart::Recorded => {}
    }
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
/// phase two from it, bit-identical to a fresh session's first solve of
/// the same model (see the module docs). Every solve also leaves its row
/// duals behind ([`row_duals`](Self::row_duals)).
pub struct LpSession {
    problem: LpProblem,
    form: SparseForm,
    /// An objective coefficient changed since `form`'s cost row was derived.
    costs_stale: bool,
    phase_one: Option<PhaseOne>,
    /// The last solve's row duals, one buffer for the session's lifetime.
    duals: Vec<f64>,
    /// `duals` belongs to the last solve, which succeeded.
    has_duals: bool,
}

impl LpSession {
    /// Prepares an already validated problem.
    pub(crate) fn new(problem: LpProblem) -> Self {
        let form = SparseForm::build(&problem);
        Self {
            problem,
            form,
            costs_stale: false,
            phase_one: None,
            duals: Vec::new(),
            has_duals: false,
        }
    }

    /// Changes the objective coefficient of a variable for the solves that
    /// follow. A non-finite coefficient is reported by the next
    /// [`solve`](Self::solve), as [`LpProblem::prepare`] would.
    pub fn set_objective(&mut self, var: VarId, coefficient: f64) {
        self.problem.set_objective(var, coefficient);
        self.costs_stale = true;
    }

    /// Solves the model under its current objective.
    pub fn solve(&mut self) -> Result<LpSolution, LpError> {
        self.run(None)
    }

    /// Solves the model under its current objective from the basis `start`
    /// names, as [`LpProblem::solve_from`] does: a hint, never an answer.
    /// An accepted start skips phase one and leaves the recorded basis as it
    /// was; a refused one is a cold solve, which records its own.
    pub fn solve_from(&mut self, start: &[(usize, VarId)]) -> Result<LpSolution, LpError> {
        self.run(Some(start))
    }

    /// Either solve: from the named `start`, else from the recorded basis
    /// when there is one.
    fn run(&mut self, start: Option<&[(usize, VarId)]>) -> Result<LpSolution, LpError> {
        self.has_duals = false;
        if let Some(start) = start {
            self.problem.check_start(start)?;
        }
        if self.costs_stale {
            self.problem
                .vars
                .iter()
                .try_for_each(Variable::check_objective)?;
            self.form.derive_costs(&self.problem.vars);
            self.costs_stale = false;
        }
        let sf = &self.form;
        let named_basis = start.map(|start| sf.named_basis(start));
        let recorded = self.phase_one.as_ref();
        let named = match &named_basis {
            Some(basis) => Some((basis.as_slice(), SolveStart::Supplied)),
            None => recorded.map(|p| (p.basis.as_slice(), SolveStart::Recorded)),
        };
        let (mut solution, post_phase1_basis) = solve_inner(sf, named, Some(&mut self.duals))?;
        self.has_duals = true;
        match post_phase1_basis {
            Some(basis) => {
                let pivots = solution.stats.phase1_pivots;
                self.phase_one = Some(PhaseOne { basis, pivots });
            }
            None if solution.stats.start == SolveStart::Recorded => {
                solution.stats.warm_pivots_saved = recorded.map_or(0, |p| p.pivots);
            }
            None => {}
        }
        report(&solution.stats);
        Ok(solution)
    }

    /// The row duals of the last solve, indexed like the
    /// rows [`LpProblem::add_constraint`] returned, in the problem's own
    /// sense: the multipliers `y` of its constraints with `b·y` equal to the
    /// objective (up to the solver's tolerances) and every reduced cost
    /// `c_j − yᵀA_j` non-negative when minimizing, non-positive when
    /// maximizing. So a `Le` row's dual is `≤ 0` when minimizing and `≥ 0`
    /// when maximizing, a `Ge` row's the opposite, an `Eq` row's free. Every
    /// variable is non-negative and has no bound of its own, so these duals
    /// are a complete dual certificate of the solve. `None` before the first
    /// solve and after a failed one.
    pub fn row_duals(&self) -> Option<&[f64]> {
        self.has_duals.then_some(self.duals.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where every buffer of the solver and its factorization lives.
    fn footprint(solver: &Solver) -> Vec<(usize, usize)> {
        use crate::basis::tests::{factorization_footprint, footprint};
        let mut all = factorization_footprint(&solver.fact);
        all.extend([footprint(&solver.basis), footprint(&solver.pos_of)]);
        all.extend([&solver.x_b, &solver.y, &solver.w, &solver.rhs].map(footprint));
        all
    }

    /// A small LP that needs both phases.
    fn two_phase_lp() -> LpProblem {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 2.0);
        let z = lp.add_nonneg_var("z", 3.0);
        lp.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
        lp.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
        for v in [x, y, z] {
            lp.add_constraint("ub", &[(v, 1.0)], Relation::Le, 4.0);
        }
        lp
    }

    /// A transportation problem: `n` supplies of `n` units to `n` demands
    /// of `n` units, all equalities, so phase one alone is hundreds of
    /// pivots.
    fn transportation(n: usize) -> LpProblem {
        let mut lp = LpProblem::new(Sense::Minimize);
        let mut out = vec![Vec::new(); n];
        let mut into = vec![Vec::new(); n];
        for (s, out) in out.iter_mut().enumerate() {
            for (d, into) in into.iter_mut().enumerate() {
                let cost = 1.0 + ((7 * s + 13 * d) % 11) as f64;
                let x = lp.add_nonneg_var(("x", s, d), cost);
                out.push((x, 1.0));
                into.push((x, 1.0));
            }
        }
        for (i, (out, into)) in out.iter().zip(&into).enumerate() {
            lp.add_constraint(("supply", i), out, Relation::Eq, n as f64);
            lp.add_constraint(("demand", i), into, Relation::Eq, n as f64);
        }
        lp
    }

    /// Every solver scratch buffer, factor array and eta array is sized
    /// once: 200 pivots and 3 refactorizations into a solve, each still
    /// lives where it did after the first ten pivots, at the same capacity.
    #[test]
    fn pivots_and_refactorizations_do_not_reallocate() {
        let sf = SparseForm::build(&transportation(40));
        let mut solver = Solver::new(&sf, 10);
        solver.cold_start().unwrap();
        let limit = solver.optimize(&sf.phase1_cost, false).unwrap_err();
        assert!(matches!(limit, LpError::IterationLimit { limit: 10 }));
        let before = footprint(&solver);

        solver.limit = 210;
        let limit = solver.optimize(&sf.phase1_cost, false).unwrap_err();
        assert!(matches!(limit, LpError::IterationLimit { limit: 210 }));
        assert_eq!(solver.pivots_total, 210);
        assert_eq!(solver.stats.refactorizations, 1 + 3);
        assert_eq!(footprint(&solver), before);
        // And the solve they belong to still ends where a one-shot solve does.
        solver.limit = usize::MAX;
        solver.run_phase(&sf.phase1_cost, false).unwrap();
        assert!(solver.artificial_residual() <= PHASE1_TOL);
        assert_eq!(footprint(&solver), before);
    }

    /// A basis is factorized once: not again after a sweep that made no
    /// pivot, not at a phase boundary nothing crossed, and a warm solve never
    /// factorizes the slack basis it is about to replace.
    #[test]
    fn a_factorized_basis_is_not_factorized_again() {
        // Optimal at the slack basis: the cold start is all there is.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint("cap", &[(x, 1.0)], Relation::Le, 4.0);
        let stats = lp.solve().unwrap().stats;
        assert_eq!((stats.phase2_pivots, stats.refactorizations), (0, 1));
        assert_eq!((stats.lu_nnz, stats.degenerate_pivots), (0, 0));

        // Two phases with pivots in each: cold start, end of phase one, end
        // of phase two (the parent factorized at the phase boundary as well).
        let mut session = transportation(6).prepare().unwrap();
        let cold = session.solve().unwrap().stats;
        assert!(cold.phase1_pivots > 0 && cold.phase2_pivots > 0);
        assert_eq!(cold.refactorizations, 3);
        // Warm: the recorded basis, then the end of phase two.
        let warm = session.solve().unwrap().stats;
        assert!(warm.start == SolveStart::Recorded && warm.phase2_pivots > 0);
        assert_eq!(warm.refactorizations, 2);
        // Same two bases as the cold solve's last two, and its first — the
        // slack basis — has no off-diagonal entry to count.
        assert!(warm.lu_nnz > 0 && warm.lu_nnz == cold.lu_nnz);
    }

    /// The numerical guard: a recorded basis the system cannot start from
    /// (here singular: one column named on every row) is refused by
    /// `try_install` — cold solve, correct result, no panic —
    /// and the session records a usable basis in its place.
    #[test]
    fn infeasible_recorded_basis_falls_back_to_a_cold_solve() {
        let lp = two_phase_lp();
        let cold = lp.clone().solve().unwrap();

        let mut session = lp.prepare().unwrap();
        let rows = session.form.m;
        session.phase_one = Some(PhaseOne {
            basis: vec![0; rows],
            pivots: 7,
        });
        let sol = session.solve().unwrap();
        assert_eq!(sol.stats.start, SolveStart::Slack);
        assert_eq!(sol.stats.warm_pivots_saved, 0);
        // The singular basis fails part-way through its factorization, and
        // only completed factorizations count: the refusal adds none to the
        // cold solve's.
        assert_eq!(sol.stats.refactorizations, cold.stats.refactorizations);
        assert_eq!(sol.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(sol.values, cold.values);
        assert_eq!(session.solve().unwrap().stats.start, SolveStart::Recorded);
    }

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn maximize_with_le_constraints() {
        // Classic textbook LP: max 3x+2y, x+y<=4, x+3y<=6 -> (4, 0), obj 12.
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 3.0);
        let y = lp.add_nonneg_var("y", 2.0);
        lp.add_constraint("c1", &[(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        lp.add_constraint("c2", &[(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 12.0);
        assert_close(sol.value(x), 4.0);
        assert_close(sol.value(y), 0.0);
    }

    #[test]
    fn minimize_with_ge_constraints_needs_phase_one() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3  -> x=7, y=3, obj 23.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 2.0);
        let y = lp.add_nonneg_var("y", 3.0);
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Ge, 10.0);
        lp.add_constraint("lx", &[(x, 1.0)], Relation::Ge, 2.0);
        lp.add_constraint("ly", &[(y, 1.0)], Relation::Ge, 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 23.0);
        assert_close(sol.value(x), 7.0);
        assert_close(sol.value(y), 3.0);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 4, x - y == 1 -> x=2, y=1, obj 3.
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("e1", &[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        lp.add_constraint("e2", &[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.value(x), 2.0);
        assert_close(sol.value(y), 1.0);
    }

    #[test]
    fn detects_infeasible() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint("c", &[(x, 1.0)], Relation::Ge, 5.0);
        lp.add_constraint("ub", &[(x, 1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::Infeasible { .. })));
    }

    #[test]
    fn detects_unbounded() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint("c", &[(x, -1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::Unbounded)));
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // min x s.t. -x <= -3  (i.e. x >= 3).
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        lp.add_constraint("c", &[(x, -1.0)], Relation::Le, -3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.value(x), 3.0);
    }

    #[test]
    fn degenerate_problems_terminate() {
        // A problem with many redundant constraints (degeneracy stress).
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        for i in 0..20 {
            let s = 1.0 + (i as f64) * 0.0; // identical rows
            lp.add_constraint(("r", i), &[(x, 1.0), (y, 1.0)], Relation::Le, s);
        }
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn eval_matches_constraints_at_optimum() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 5.0);
        let y = lp.add_nonneg_var("y", 4.0);
        lp.add_constraint("c1", &[(x, 6.0), (y, 4.0)], Relation::Le, 24.0);
        lp.add_constraint("c2", &[(x, 1.0), (y, 2.0)], Relation::Le, 6.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 21.0);
        let (x, y) = (sol.value(x), sol.value(y));
        assert!(6.0 * x + 4.0 * y <= 24.0 + 1e-6);
        assert!(x + 2.0 * y <= 6.0 + 1e-6);
    }

    #[test]
    fn min_cost_flow_style_lp() {
        // Send 2 units from s to t over two parallel paths with costs 1 and 3
        // and capacities 1.5 each: cheapest sends 1.5 on the cheap path.
        let mut lp = LpProblem::new(Sense::Minimize);
        let f1 = lp.add_nonneg_var("f1", 1.0);
        let f2 = lp.add_nonneg_var("f2", 3.0);
        lp.add_constraint("demand", &[(f1, 1.0), (f2, 1.0)], Relation::Eq, 2.0);
        for f in [f1, f2] {
            lp.add_constraint("cap", &[(f, 1.0)], Relation::Le, 1.5);
        }
        let sol = lp.solve().unwrap();
        assert_close(sol.value(f1), 1.5);
        assert_close(sol.value(f2), 0.5);
        assert_close(sol.objective, 3.0);
    }

    // Degenerate and pathological instances: cycling-prone pivots,
    // redundant systems, and the error paths the worst-case LPs rely on.

    /// Beale's classic cycling example: plain Dantzig pivoting loops forever
    /// on it; the stall-triggered switch to Bland's rule must terminate at
    /// the optimum (objective 1/20 at x = (1/25, 0, 1, 0)).
    #[test]
    fn beale_cycling_instance_terminates_at_optimum() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x1 = lp.add_nonneg_var("x1", 0.75);
        let x2 = lp.add_nonneg_var("x2", -150.0);
        let x3 = lp.add_nonneg_var("x3", 0.02);
        let x4 = lp.add_nonneg_var("x4", -6.0);
        lp.add_constraint(
            "r1",
            &[(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint(
            "r2",
            &[(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)],
            Relation::Le,
            0.0,
        );
        lp.add_constraint("r3", &[(x3, 1.0)], Relation::Le, 1.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.05);
        assert_close(sol.value(x1), 0.04);
        assert_close(sol.value(x3), 1.0);
    }

    /// A degenerate vertex where three constraints meet: the optimum (1, 1)
    /// satisfies all of them with equality, forcing zero-progress pivots.
    #[test]
    fn degenerate_vertex_is_handled() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("cx", &[(x, 1.0)], Relation::Le, 1.0);
        lp.add_constraint("cy", &[(y, 1.0)], Relation::Le, 1.0);
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Le, 2.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 2.0);
        assert_close(sol.value(x), 1.0);
        assert_close(sol.value(y), 1.0);
    }

    /// An all-zero objective is optimal at any feasible point; the solver
    /// must still return one that satisfies the constraints.
    #[test]
    fn zero_objective_returns_a_feasible_point() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 0.0);
        let y = lp.add_nonneg_var("y", 0.0);
        lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 0.0);
        assert_close(sol.value(x) + sol.value(y), 4.0);
        assert!(sol.value(x) >= -1e-9 && sol.value(y) >= -1e-9);
    }

    /// Duplicated equality rows are redundant, not infeasible.
    #[test]
    fn duplicate_equality_rows_are_harmless() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 2.0);
        lp.add_constraint("e", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        lp.add_constraint("e_again", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        let sol = lp.solve().unwrap();
        assert_close(sol.objective, 3.0);
        assert_close(sol.value(x), 3.0);
    }

    /// Contradictory equalities must surface as `Infeasible`, not as a
    /// silently wrong answer.
    #[test]
    fn contradictory_equalities_are_infeasible() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("a", &[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
        lp.add_constraint("b", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        assert!(matches!(lp.solve(), Err(LpError::Infeasible { .. })));
    }

    /// A genuinely unbounded ray whose reduced cost is tiny (−5e-7, inside
    /// the dense oracle's noise-clamp window): the decisive −1 entry here
    /// must still surface as `Unbounded`, not "optimal at 0".
    #[test]
    fn tiny_objective_unbounded_ray_is_still_detected() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", -5.0e-7);
        let s = lp.add_nonneg_var("s", 0.0);
        lp.add_constraint("c", &[(s, 1.0), (x, -1.0)], Relation::Eq, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::Unbounded)));
    }

    /// The iteration limit aborts the solve with the limit echoed back (two
    /// equality rows need at least two phase-one pivots). Every solve's
    /// limit is `200 * (rows + columns) + 20_000` of the standard form —
    /// here 2 rows and 2 structural + 2 artificial columns.
    #[test]
    fn iteration_limit_is_reported() {
        let mut lp = LpProblem::new(Sense::Minimize);
        let x = lp.add_nonneg_var("x", 1.0);
        let y = lp.add_nonneg_var("y", 1.0);
        lp.add_constraint("e1", &[(x, 1.0), (y, 2.0)], Relation::Eq, 4.0);
        lp.add_constraint("e2", &[(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let sf = SparseForm::build(&lp);
        assert_eq!(default_iteration_limit(sf.m, sf.total_cols), 21_200);
        let mut solver = Solver::new(&sf, 1);
        solver.cold_start().unwrap();
        assert!(matches!(
            solver.run_phase(&sf.phase1_cost, false),
            Err(LpError::IterationLimit { limit: 1 })
        ));
    }

    /// NaN input is rejected up front by validation rather than corrupting
    /// the tableau.
    #[test]
    fn nan_coefficients_are_rejected() {
        let mut lp = LpProblem::new(Sense::Maximize);
        let x = lp.add_nonneg_var("x", f64::NAN);
        lp.add_constraint("c", &[(x, 1.0)], Relation::Le, 1.0);
        assert!(matches!(lp.solve(), Err(LpError::NotFinite { .. })));
    }
}
