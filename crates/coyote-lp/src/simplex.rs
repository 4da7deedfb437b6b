#![cfg(test)]
//! Dense two-phase simplex implementation.
//!
//! The solver brings the model to standard form (its variables are
//! non-negative already; every row gets a non-negative right-hand side),
//! runs phase one with artificial variables to find a basic feasible
//! solution, then phase two on the user objective. Pivot selection uses
//! Dantzig's rule with an automatic switch to Bland's rule when progress
//! stalls, which guarantees termination.
//!
//! This is test-only code: the differential oracle the revised solver
//! (`revised.rs`) is judged by in `differential.rs`, and it favours
//! robustness over raw speed. Its tableau is updated in place pivot after
//! pivot, so rounding error accumulates in it, and four defences that the
//! revised solver does without stay here: the pivot-size guard, the
//! noise-column clamp, the zero-snap of elimination residue and the capped
//! reprice-and-verify loop (`run_phase`).

use crate::error::LpError;
use crate::model::{default_iteration_limit, LpProblem, Relation, Sense};
use crate::solution::{LpSolution, SolveStats};
use crate::tol::{DRIVE_OUT_TOL, DUAL_TOL, EPS, PHASE1_TOL, RHS_PERTURBATION, STALL_LIMIT};

// The tableau's own tolerances. Its cost row and entries are updated in
// place pivot after pivot, so rounding error accumulates there; these
// four bound what it can do. The revised solver recomputes reduced costs
// from a fresh BTRAN every pivot and its basic values from a fresh
// factorization every refresh, so it has no cost-row drift to defend
// against: on it the guard and the clamp never fired, no phase needed a
// second round, and dropping its snap changed no result.

/// A reduced cost above this (negative) threshold is treated as numerical
/// noise when its column admits no pivot: after thousands of dense
/// eliminations the incrementally-updated cost row drifts by ~1e-8, so a
/// column with reduced cost −2e-9 and entries ~1e-10 is a zero column, not
/// a certificate of unboundedness. Genuinely unbounded LPs enter with
/// decisively negative reduced costs (|rc| ≫ this).
const NOISE_RC_TOL: f64 = 1e-6;
/// Refresh rounds per phase: after a phase claims optimality its reduced
/// costs are recomputed from scratch against the current basis and the
/// phase re-runs if they still show a descent direction. Bounds the
/// optimize→verify loop that repairs drift.
const MAX_REFRESH_ROUNDS: usize = 4;
/// Minimum magnitude for a *preferred* pivot element in the ratio test;
/// entries in (EPS, PIVOT_TOL] are used only when no better pivot exists.
const PIVOT_TOL: f64 = 1e-7;
/// Entries this close to zero after an elimination step are snapped to an
/// exact zero (catastrophic-cancellation residue, ~1e3 × machine epsilon
/// below the decision tolerance EPS).
const SNAP_TOL: f64 = 1e-12;

/// The problem's rows as dense coefficient rows: variable `i` is column `i`.
struct StandardForm {
    /// rows[i] = dense coefficient row over the variables.
    rows: Vec<Vec<f64>>,
    rhs: Vec<f64>,
    relations: Vec<Relation>,
    /// Minimization objective over the variables.
    objective: Vec<f64>,
}

fn build_standard_form(problem: &LpProblem) -> StandardForm {
    let num_cols = problem.vars.len();
    // Objective over the columns (always minimization internally), added
    // onto `+0.0`: a maximization's `-1 × 0.0` is `−0.0`.
    let sign = match problem.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut objective = vec![0.0; num_cols];
    for (cost, v) in objective.iter_mut().zip(&problem.vars) {
        *cost += sign * v.objective;
    }

    let mut rows = Vec::with_capacity(problem.constraints.len());
    for cons in &problem.constraints {
        let mut row = vec![0.0; num_cols];
        for &(var, coeff) in problem.row_terms(cons) {
            row[var.index()] += coeff;
        }
        rows.push(row);
    }
    StandardForm {
        rows,
        rhs: problem.constraints.iter().map(|c| c.rhs).collect(),
        relations: problem.constraints.iter().map(|c| c.relation).collect(),
        objective,
    }
}

/// Dense simplex tableau with an explicit basis.
struct Tableau {
    /// m x (total_cols + 1); last column is the right-hand side.
    a: Vec<Vec<f64>>,
    /// Objective row (reduced costs) of length total_cols + 1.
    cost: Vec<f64>,
    /// Basis variable (column index) of every row.
    basis: Vec<usize>,
    m: usize,
    total_cols: usize,
    /// Optimize→reprice rounds, copied into the solve's stats.
    refresh_rounds: usize,
}

impl Tableau {
    fn rhs_col(&self) -> usize {
        self.total_cols
    }

    /// True if every entry of the column is below the pivot tolerance *in
    /// magnitude* — the column is numerically zero (elimination residue of a
    /// dependent column), so it can neither leave the current vertex nor
    /// certify an unbounded ray.
    fn column_is_noise(&self, col: usize) -> bool {
        (0..self.m).all(|r| self.a[r][col].abs() <= PIVOT_TOL)
    }

    fn pivot(&mut self, row: usize, col: usize) {
        let piv = self.a[row][col];
        debug_assert!(piv.abs() > EPS);
        let inv = 1.0 / piv;
        for x in self.a[row].iter_mut() {
            *x *= inv;
        }
        // Re-normalize the pivot element exactly to 1 to limit drift.
        self.a[row][col] = 1.0;
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let factor = self.a[r][col];
            if factor.abs() > EPS {
                // Snap elimination residue to an exact zero: a subtraction
                // that cancels to below SNAP_TOL is noise, and letting it linger
                // seeds ghost columns that later look like descent
                // directions with no valid pivot (spurious "unbounded").
                for c in 0..=self.total_cols {
                    let x = self.a[r][c] - factor * self.a[row][c];
                    self.a[r][c] = if x.abs() < SNAP_TOL { 0.0 } else { x };
                }
                self.a[r][col] = 0.0;
            }
        }
        let factor = self.cost[col];
        if factor.abs() > EPS {
            for c in 0..=self.total_cols {
                self.cost[c] -= factor * self.a[row][c];
            }
            self.cost[col] = 0.0;
        }
        self.basis[row] = col;
    }

    /// One simplex phase: minimize the current cost row over allowed columns.
    /// Returns number of pivots, or an error if unbounded / out of budget.
    fn run(&mut self, allowed: &dyn Fn(usize) -> bool, limit: usize) -> Result<usize, LpError> {
        let mut pivots = 0usize;
        let mut stall = 0usize;
        let mut last_obj = self.cost[self.rhs_col()];
        loop {
            if pivots >= limit {
                return Err(LpError::IterationLimit { limit });
            }
            // Entering column.
            let use_bland = stall >= STALL_LIMIT;
            let mut enter: Option<usize> = None;
            let mut best = -DUAL_TOL;
            for c in 0..self.total_cols {
                if !allowed(c) {
                    continue;
                }
                let rc = self.cost[c];
                if rc < -DUAL_TOL {
                    if use_bland {
                        enter = Some(c);
                        break;
                    }
                    if rc < best {
                        best = rc;
                        enter = Some(c);
                    }
                }
            }
            let Some(col) = enter else {
                return Ok(pivots); // optimal
            };
            // Leaving row: minimum ratio test. Ties are broken towards the
            // row with the largest pivot element (better numerical
            // stability, fewer degenerate follow-up pivots); under Bland's
            // rule ties fall back to the smallest basis index so the
            // anti-cycling guarantee holds.
            let mut leave: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..self.m {
                let a = self.a[r][col];
                if a > EPS {
                    let ratio = self.a[r][self.rhs_col()] / a;
                    let better = if ratio < best_ratio - EPS {
                        true
                    } else if ratio < best_ratio + EPS {
                        match leave {
                            None => true,
                            Some(lr) => {
                                if use_bland {
                                    self.basis[r] < self.basis[lr]
                                } else {
                                    a > self.a[lr][col]
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
            // Pivot-size guard: dividing a row by an element in (EPS, PIVOT_TOL)
            // amplifies its rounding noise enormously and is the main way
            // the tableau decays over thousands of pivots. If the ratio
            // test forces a tiny pivot, prefer a decisively-sized pivot
            // whose ratio is at most a hair above the minimum — the basic
            // variables this under-cuts go negative by no more than the
            // relaxation, far inside the feasibility tolerance. Disabled
            // under Bland's rule: overriding its leaving row would void the
            // anti-cycling guarantee the stall switch exists for.
            if let (Some(lr), false) = (leave, use_bland) {
                if self.a[lr][col] < PIVOT_TOL {
                    let relax = EPS * (1.0 + best_ratio.abs());
                    let mut alt: Option<usize> = None;
                    for r in 0..self.m {
                        let a = self.a[r][col];
                        if a >= PIVOT_TOL && self.a[r][self.rhs_col()] / a <= best_ratio + relax {
                            let better = match alt {
                                None => true,
                                Some(ar) => a > self.a[ar][col],
                            };
                            if better {
                                alt = Some(r);
                            }
                        }
                    }
                    leave = alt.or(leave);
                }
            }
            let Some(row) = leave else {
                if self.cost[col] >= -NOISE_RC_TOL && self.column_is_noise(col) {
                    // A numerically-zero descent direction, not a real ray:
                    // neutralize the column and keep optimizing. A genuine
                    // extreme ray keeps its decisive (negative) entries and
                    // still reports unbounded below.
                    self.cost[col] = 0.0;
                    continue;
                }
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
            pivots += 1;
            let obj = self.cost[self.rhs_col()];
            if obj < last_obj - EPS {
                stall = 0;
                last_obj = obj;
            } else {
                stall += 1;
            }
        }
    }
}

/// Rebuilds the tableau's reduced-cost row from scratch: start from the
/// phase's original cost vector and price out every basic column. The
/// incremental cost-row updates inside [`Tableau::run`] accumulate rounding
/// error linearly in the pivot count; on the few-thousand-pivot flow LPs of
/// the sweep grid that drift reaches DUAL_TOL and can make a phase terminate
/// "optimal" (or "infeasible"/"unbounded") spuriously. Repricing against
/// the current basis resets the drift to one elimination pass.
fn reprice(tab: &mut Tableau, base_cost: &[f64]) {
    let mut cost = vec![0.0; tab.total_cols + 1];
    cost[..base_cost.len()].copy_from_slice(base_cost);
    tab.cost = cost;
    for r in 0..tab.m {
        let b = tab.basis[r];
        let factor = tab.cost[b];
        if factor.abs() > EPS {
            for c in 0..=tab.total_cols {
                tab.cost[c] -= factor * tab.a[r][c];
            }
            tab.cost[b] = 0.0;
        }
    }
}

/// Runs one simplex phase to verified optimality: optimize, reprice the
/// cost row from the basis, and re-run while fresh reduced costs still show
/// a descent direction (bounded by [`MAX_REFRESH_ROUNDS`]). Returns the
/// total pivot count. The tableau's cost row is freshly repriced when this
/// returns, so callers read objective values with minimal drift.
fn run_phase(
    tab: &mut Tableau,
    base_cost: &[f64],
    allowed: &dyn Fn(usize) -> bool,
    limit: usize,
) -> Result<usize, LpError> {
    let mut pivots = 0usize;
    reprice(tab, base_cost);
    for _ in 0..MAX_REFRESH_ROUNDS {
        tab.refresh_rounds += 1;
        // The refresh rounds share one pivot budget so the caller's
        // iteration limit stays a hard cap; the error echoes the configured
        // limit, not the remainder the failing round saw.
        pivots += tab.run(allowed, limit - pivots).map_err(|e| match e {
            LpError::IterationLimit { .. } => LpError::IterationLimit { limit },
            other => other,
        })?;
        reprice(tab, base_cost);
        let clean = (0..tab.total_cols)
            .all(|c| !allowed(c) || tab.cost[c] >= -DUAL_TOL || noise_column(tab, c));
        if clean {
            break;
        }
    }
    Ok(pivots)
}

/// True if a column's tiny negative reduced cost is drift, not a descent
/// direction: the column must be numerically zero
/// ([`Tableau::column_is_noise`]) — a genuine extreme ray keeps decisive
/// (possibly negative) entries and is never classified as noise.
fn noise_column(tab: &Tableau, col: usize) -> bool {
    tab.cost[col] >= -NOISE_RC_TOL && tab.column_is_noise(col)
}

/// Solves `problem` (already validated) with the two-phase simplex method.
pub(crate) fn solve(problem: &LpProblem) -> Result<LpSolution, LpError> {
    let _span = coyote_obs::span("lp.solve");
    let sf = build_standard_form(problem);
    let m = sf.rows.len();
    let n = problem.vars.len();

    // Column layout: [structural | slack/surplus | artificial].
    // Count slack and artificial columns.
    let mut num_slack = 0usize;
    for rel in &sf.relations {
        match rel {
            Relation::Le | Relation::Ge => num_slack += 1,
            Relation::Eq => {}
        }
    }
    let slack_base = n;
    let art_base = n + num_slack;
    // Artificial variable for every row keeps the construction simple; rows
    // whose slack can serve as the initial basis skip the artificial.
    let mut total_cols = art_base;

    let mut a = vec![vec![0.0; art_base + m + 1]; m];
    let mut basis = vec![usize::MAX; m];
    let mut art_of_row = vec![usize::MAX; m];

    let rhs_scale = sf.rhs.iter().map(|r| r.abs()).fold(1.0_f64, f64::max);

    let mut slack_idx = 0usize;
    for i in 0..m {
        let mut flip = false;
        let mut rhs = sf.rhs[i];
        if rhs < 0.0 {
            flip = true;
            rhs = -rhs;
        }
        for (dst, &v) in a[i].iter_mut().zip(sf.rows[i].iter()).take(n) {
            *dst = if flip { -v } else { v };
        }
        // Effective relation after the sign flip.
        let rel = match (sf.relations[i], flip) {
            (Relation::Le, false) | (Relation::Ge, true) => Relation::Le,
            (Relation::Ge, false) | (Relation::Le, true) => Relation::Ge,
            (Relation::Eq, _) => Relation::Eq,
        };
        match rel {
            Relation::Le => {
                let col = slack_base + slack_idx;
                slack_idx += 1;
                a[i][col] = 1.0;
                basis[i] = col;
            }
            Relation::Ge => {
                let col = slack_base + slack_idx;
                slack_idx += 1;
                a[i][col] = -1.0;
                // needs an artificial below
            }
            Relation::Eq => {}
        }
        if basis[i] == usize::MAX {
            let art_col = total_cols;
            total_cols += 1;
            art_of_row[i] = art_col;
            a[i][art_col] = 1.0;
            basis[i] = art_col;
        }
        // Anti-degeneracy: nudge the (non-negative) right-hand side of
        // *equality* rows by a tiny, deterministic, row-dependent amount.
        // Flow LPs have many zero-supply conservation equalities, which
        // otherwise produce long runs of degenerate pivots. Inequality rows
        // are left exact so that paired `>=` / `<=` constraints (e.g. the
        // margin-1 uncertainty box, where both bounds coincide) stay
        // mutually consistent.
        let rhs = if matches!(sf.relations[i], Relation::Eq) {
            rhs + RHS_PERTURBATION * rhs_scale * ((i % 97) as f64 + 1.0) / 97.0
        } else {
            rhs
        };
        // Store rhs in a temporary place; final layout assembled next.
        a[i].truncate(art_base + m);
        a[i].push(rhs);
        // The row currently has length art_base + m + 1 with the rhs at the
        // end; unused artificial columns beyond total_cols stay zero.
        let _ = rhs;
    }

    // Shrink rows to the actual number of columns (+1 for rhs).
    for row in a.iter_mut() {
        let rhs = *row.last().expect("row has rhs");
        row.truncate(art_base + m);
        row.truncate(total_cols.max(art_base));
        row.resize(total_cols, 0.0);
        row.push(rhs);
    }

    // ---- Phase one: minimize the sum of artificial variables. ----
    let mut phase1_cost = vec![0.0; total_cols];
    for i in 0..m {
        if art_of_row[i] != usize::MAX {
            phase1_cost[art_of_row[i]] = 1.0;
        }
    }
    let mut tab = Tableau {
        a,
        cost: vec![0.0; total_cols + 1],
        basis,
        m,
        total_cols,
        refresh_rounds: 0,
    };

    let limit = default_iteration_limit(m, total_cols);

    let mut stats = SolveStats {
        standard_vars: n,
        rows: m,
        ..Default::default()
    };

    let has_artificials = art_of_row.iter().any(|&c| c != usize::MAX);
    if has_artificials {
        stats.phase1_pivots = run_phase(&mut tab, &phase1_cost, &|_c| true, limit)?;
        let residual = -tab.cost[tab.rhs_col()]; // cost row holds -objective
        let phase1_value = residual.abs();
        if phase1_value > PHASE1_TOL {
            return Err(LpError::Infeasible {
                residual: phase1_value,
            });
        }
        // Drive any artificial variable still in the basis out of it (at zero
        // level) so phase two never re-increases it.
        for r in 0..m {
            let b = tab.basis[r];
            if b >= art_base && art_of_row.contains(&b) {
                // Find a non-artificial column with a nonzero entry to pivot in.
                let mut found = None;
                for c in 0..art_base {
                    if tab.a[r][c].abs() > DRIVE_OUT_TOL {
                        found = Some(c);
                        break;
                    }
                }
                if let Some(c) = found {
                    tab.pivot(r, c);
                }
                // If none exists the row is redundant; leaving the artificial
                // basic at value zero is harmless as long as it cannot grow,
                // which phase two's cost row (zero on artificials, and the
                // allowed() filter) guarantees.
            }
        }
    }

    // ---- Phase two: minimize the real objective. ----
    let mut phase2_cost = vec![0.0; tab.total_cols];
    phase2_cost[..n].copy_from_slice(&sf.objective[..n]);
    let art_base_copy = art_base;
    let art_cols: Vec<bool> = (0..tab.total_cols)
        .map(|c| c >= art_base_copy && art_of_row.contains(&c))
        .collect();
    stats.phase2_pivots = run_phase(&mut tab, &phase2_cost, &|c| !art_cols[c], limit)?;

    // ---- Extract the solution. ----
    // Values and objective are added onto `+0.0`, which turns a `−0.0` left
    // by the pivots into `+0.0`.
    let mut values = vec![0.0; n];
    for r in 0..m {
        let b = tab.basis[r];
        if b < n {
            values[b] += tab.a[r][tab.rhs_col()];
        }
    }

    // Internal objective is a minimization; cost row's rhs holds its negative.
    let internal_obj = -tab.cost[tab.rhs_col()] + 0.0;
    let objective = match problem.sense {
        Sense::Minimize => internal_obj,
        Sense::Maximize => -internal_obj,
    };

    stats.refresh_rounds = tab.refresh_rounds;

    Ok(LpSolution {
        objective,
        values,
        stats,
    })
}
