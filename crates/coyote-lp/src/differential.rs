#![cfg(test)]
//! Differential tests: the revised simplex against the dense oracle.
//!
//! Every case builds one [`LpProblem`] and solves it twice — with
//! [`LpProblem::solve`] and with the dense tableau, `crate::simplex::solve`,
//! which is test-only code — and requires the outcomes to agree:
//!
//! * both optimal → objectives within `1e-6` (relative) and the revised
//!   solution satisfies every constraint and bound;
//! * both failed → the same error class (infeasible vs unbounded);
//! * one optimal, one failed → the case fails outright.
//!
//! The generated families (520 cases per run between them) cover
//! feasible, infeasible, unbounded and deliberately degenerate instances;
//! the fixed cases replay the regression LPs that hardened the dense kernel
//! (Beale cycling, tiny-objective rays, duplicate and contradictory
//! equalities, min-cost flow) plus a ring-network flow LP shaped like the
//! worst-case pipeline's.
//!
//! The same families drive [`LpSession`]: a session re-solved
//! under a sequence of objectives must equal a cold solve of each, bit for
//! bit (`session_resolves_equal_cold_solves_bit_for_bit`).

use crate::tol::DUAL_TOL;
use crate::{LpError, LpProblem, LpSession, LpSolution, Relation, Sense, SolveStart, VarId};
use proptest::prelude::*;

/// Bounds of one generated variable, decoded from generator draws.
#[derive(Debug, Clone, Copy)]
struct VarSpec {
    lower: f64,
    upper: f64,
    objective: f64,
}

/// How [`LpSpec::build`] lowered one variable to non-negative columns.
#[derive(Debug, Clone, Copy)]
enum Lowered {
    /// `x = lower + col`
    Shifted(VarId, f64),
    /// `x = upper − col`
    Mirrored(VarId, f64),
    /// `x = pos − neg`
    Split(VarId, VarId),
}

impl Lowered {
    /// The variable's value in `sol`.
    fn value(self, sol: &LpSolution) -> f64 {
        match self {
            Lowered::Shifted(col, lower) => lower + sol.value(col),
            Lowered::Mirrored(col, upper) => upper - sol.value(col),
            Lowered::Split(pos, neg) => sol.value(pos) - sol.value(neg),
        }
    }

    /// The constant the lowering takes out of the objective term
    /// `objective · x`.
    fn offset(self, objective: f64) -> f64 {
        match self {
            Lowered::Shifted(_, lower) => objective * lower,
            Lowered::Mirrored(_, upper) => objective * upper,
            Lowered::Split(..) => 0.0,
        }
    }

    /// Sets the objective coefficient `objective` of the variable on its
    /// columns.
    fn set_objective(self, session: &mut LpSession, objective: f64) {
        match self {
            Lowered::Shifted(col, _) => session.set_objective(col, objective),
            Lowered::Mirrored(col, _) => session.set_objective(col, -objective),
            Lowered::Split(pos, neg) => {
                session.set_objective(pos, objective);
                session.set_objective(neg, -objective);
            }
        }
    }
}

/// One generated constraint over variable indices.
#[derive(Debug, Clone)]
struct ConsSpec {
    terms: Vec<(usize, f64)>,
    relation: Relation,
    rhs: f64,
}

#[derive(Debug, Clone)]
struct LpSpec {
    sense: Sense,
    vars: Vec<VarSpec>,
    cons: Vec<ConsSpec>,
}

impl LpSpec {
    /// Decodes the flat generator draws into a spec. `bound_kind` selects
    /// non-negative / boxed / upper-only / free per variable; `term_mask`
    /// keeps ~3/4 of the candidate coefficients, so empty rows and empty
    /// columns both occur.
    #[allow(clippy::too_many_arguments)]
    fn decode(
        sense_raw: usize,
        nvars: usize,
        ncons: usize,
        bound_kind: &[usize],
        bound_lo: &[f64],
        bound_wid: &[f64],
        obj: &[f64],
        rel: &[usize],
        rhs: &[f64],
        coeff: &[f64],
        term_mask: &[usize],
    ) -> LpSpec {
        let sense = if sense_raw == 0 {
            Sense::Minimize
        } else {
            Sense::Maximize
        };
        let vars = (0..nvars)
            .map(|v| {
                let (lower, upper) = match bound_kind[v] {
                    0 => (0.0, f64::INFINITY),
                    1 => (bound_lo[v], bound_lo[v] + bound_wid[v]),
                    2 => (f64::NEG_INFINITY, bound_lo[v]),
                    _ => (f64::NEG_INFINITY, f64::INFINITY),
                };
                VarSpec {
                    lower,
                    upper,
                    objective: obj[v],
                }
            })
            .collect();
        let cons = (0..ncons)
            .map(|c| {
                let terms = (0..nvars)
                    .filter(|v| term_mask[c * 6 + v] != 0)
                    .map(|v| (v, coeff[c * 6 + v]))
                    .collect();
                let relation = match rel[c] {
                    0 => Relation::Le,
                    1 => Relation::Ge,
                    _ => Relation::Eq,
                };
                ConsSpec {
                    terms,
                    relation,
                    rhs: rhs[c],
                }
            })
            .collect();
        LpSpec { sense, vars, cons }
    }

    /// The spec as an LP over non-negative columns, each variable lowered
    /// in order: a finite lower bound shifts it (`x = lower + col`, and a
    /// finite upper bound adds the row `col ≤ upper − lower`), an upper
    /// bound alone mirrors it (`x = upper − col`), a free one splits it
    /// (`x = pos − neg`). The bound rows follow the spec's own rows.
    fn build(&self) -> (LpProblem, Vec<Lowered>) {
        let mut lp = LpProblem::new(self.sense);
        let mut bound_rows = Vec::new();
        let lowered: Vec<Lowered> = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| {
                if v.lower.is_finite() {
                    let col = lp.add_nonneg_var(("x", i), v.objective);
                    if v.upper.is_finite() {
                        bound_rows.push((col, v.upper - v.lower));
                    }
                    Lowered::Shifted(col, v.lower)
                } else if v.upper.is_finite() {
                    Lowered::Mirrored(lp.add_nonneg_var(("x", i), -v.objective), v.upper)
                } else {
                    let pos = lp.add_nonneg_var(("x", i), v.objective);
                    Lowered::Split(pos, lp.add_nonneg_var(("x_neg", i), -v.objective))
                }
            })
            .collect();
        for (i, c) in self.cons.iter().enumerate() {
            let mut rhs = c.rhs;
            let mut terms = Vec::new();
            for &(v, k) in &c.terms {
                match lowered[v] {
                    Lowered::Shifted(col, lower) => {
                        terms.push((col, k));
                        rhs -= k * lower;
                    }
                    Lowered::Mirrored(col, upper) => {
                        terms.push((col, -k));
                        rhs -= k * upper;
                    }
                    Lowered::Split(pos, neg) => terms.extend([(pos, k), (neg, -k)]),
                }
            }
            lp.add_constraint(("c", i), &terms, c.relation, rhs);
        }
        for (col, width) in bound_rows {
            lp.add_constraint("bound", &[(col, 1.0)], Relation::Le, width);
        }
        (lp, lowered)
    }

    /// Re-centres every row on a point inside the variables' bounds, so
    /// that most draws are feasible.
    fn recentre(&mut self) {
        let inside: Vec<f64> = self
            .vars
            .iter()
            .map(|v| match (v.lower.is_finite(), v.upper.is_finite()) {
                (true, true) => (v.lower + v.upper) / 2.0,
                (true, false) => v.lower + 1.0,
                (false, true) => v.upper - 1.0,
                (false, false) => 0.5,
            })
            .collect();
        for c in &mut self.cons {
            let at: f64 = c.terms.iter().map(|&(v, k)| k * inside[v]).sum();
            c.rhs = match c.relation {
                Relation::Le => at + c.rhs.abs(),
                Relation::Ge => at - c.rhs.abs(),
                Relation::Eq => at,
            };
        }
    }

    /// Largest absolute coefficient/rhs, for scaling feasibility tolerances.
    fn scale(&self) -> f64 {
        self.cons
            .iter()
            .flat_map(|c| c.terms.iter().map(|t| t.1.abs()).chain([c.rhs.abs()]))
            .fold(1.0_f64, f64::max)
    }

    /// The objective of `sol`, a solution of [`Self::build`]'s LP, in the
    /// spec's own variables.
    fn objective(&self, lowered: &[Lowered], sol: &LpSolution) -> f64 {
        let offset = |(v, l): (&VarSpec, &Lowered)| l.offset(v.objective);
        sol.objective + self.vars.iter().zip(lowered).map(offset).sum::<f64>()
    }

    /// Checks that `values` (one per variable) satisfies every bound and
    /// constraint within `tol`. Returns the first violation as a message.
    fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        for (i, (v, &x)) in self.vars.iter().zip(values).enumerate() {
            if x < v.lower - tol || x > v.upper + tol {
                return Err(format!("x{i} = {x} outside [{}, {}]", v.lower, v.upper));
            }
        }
        for (i, c) in self.cons.iter().enumerate() {
            let lhs: f64 = c.terms.iter().map(|&(v, k)| k * values[v]).sum();
            let ok = match c.relation {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(format!(
                    "c{i}: lhs {lhs} {:?} rhs {} violated beyond {tol}",
                    c.relation, c.rhs
                ));
            }
        }
        Ok(())
    }
}

/// Solves one problem with the revised solver and with the dense oracle.
fn solve_both(lp: &LpProblem) -> (Result<LpSolution, LpError>, Result<LpSolution, LpError>) {
    (lp.clone().solve(), crate::simplex::solve(lp))
}

/// Coarse outcome class used to compare error paths across backends.
fn class(r: &Result<LpSolution, LpError>) -> &'static str {
    match r {
        Ok(_) => "optimal",
        Err(LpError::Infeasible { .. }) => "infeasible",
        Err(LpError::Unbounded) => "unbounded",
        Err(e) => panic!("unexpected solver error: {e}"),
    }
}

/// Runs the full differential check for one spec; returns an error message
/// on the first disagreement so proptest can report the failing seed.
fn differential(spec: &LpSpec) -> Result<(), String> {
    let (lp, lowered) = spec.build();
    let (rev, den) = solve_both(&lp);
    if class(&rev) != class(&den) {
        return Err(format!(
            "backends disagree: revised {} vs dense {} on {spec:?}",
            class(&rev),
            class(&den)
        ));
    }
    if let (Ok(r), Ok(d)) = (&rev, &den) {
        let (r_obj, d_obj) = (spec.objective(&lowered, r), spec.objective(&lowered, d));
        let tol = 1e-6 * (1.0 + d_obj.abs());
        if (r_obj - d_obj).abs() > tol {
            return Err(format!(
                "objectives diverge: revised {r_obj} vs dense {d_obj} (tol {tol}) on {spec:?}"
            ));
        }
        let feas_tol = 1e-5 * spec.scale();
        let values: Vec<f64> = lowered.iter().map(|l| l.value(r)).collect();
        spec.check_feasible(&values, feas_tol)
            .map_err(|e| format!("revised solution infeasible: {e} on {spec:?}"))?;
        let dvalues: Vec<f64> = lowered.iter().map(|l| l.value(d)).collect();
        spec.check_feasible(&dvalues, feas_tol)
            .map_err(|e| format!("dense solution infeasible: {e} on {spec:?}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(280))]

    /// The core differential property over general random LPs: mixed bound
    /// types, all three relations, both senses, empty rows and columns.
    #[test]
    fn random_lps_match_dense_oracle(
        sense_raw in 0usize..2,
        nvars in 1usize..7,
        ncons in 0usize..9,
        bound_kind in collection::vec(0usize..4, 6..7),
        bound_lo in collection::vec(-3.0f64..3.0, 6..7),
        bound_wid in collection::vec(0.0f64..4.0, 6..7),
        obj in collection::vec(-4.0f64..4.0, 6..7),
        rel in collection::vec(0usize..3, 8..9),
        rhs in collection::vec(-6.0f64..6.0, 8..9),
        coeff in collection::vec(-3.0f64..3.0, 48..49),
        term_mask in collection::vec(0usize..4, 48..49),
    ) {
        let nvars = nvars.min(6);
        let ncons = ncons.min(8);
        let spec = LpSpec::decode(
            sense_raw, nvars, ncons, &bound_kind, &bound_lo, &bound_wid,
            &obj, &rel, &rhs, &coeff, &term_mask,
        );
        if let Err(msg) = differential(&spec) {
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Degeneracy stress: every constraint is duplicated several times, so
    /// the optimum sits on a highly degenerate vertex and both solvers must
    /// take (and survive) zero-progress pivots.
    #[test]
    fn degenerate_duplicated_rows_match_dense_oracle(
        sense_raw in 0usize..2,
        nvars in 1usize..5,
        ncons in 1usize..4,
        copies in 2usize..5,
        bound_kind in collection::vec(0usize..2, 6..7),
        bound_lo in collection::vec(0.0f64..1.0, 6..7),
        bound_wid in collection::vec(1.0f64..3.0, 6..7),
        obj in collection::vec(-4.0f64..4.0, 6..7),
        rel in collection::vec(0usize..3, 8..9),
        rhs in collection::vec(0.5f64..6.0, 8..9),
        coeff in collection::vec(0.1f64..3.0, 48..49),
        term_mask in collection::vec(0usize..4, 48..49),
    ) {
        let nvars = nvars.min(4);
        let mut spec = LpSpec::decode(
            sense_raw, nvars, ncons.min(3), &bound_kind, &bound_lo, &bound_wid,
            &obj, &rel, &rhs, &coeff, &term_mask,
        );
        // Duplicate every row `copies` times (redundant, never contradictory).
        let base = spec.cons.clone();
        for _ in 1..copies {
            spec.cons.extend(base.iter().cloned());
        }
        if let Err(msg) = differential(&spec) {
            prop_assert!(false, "{}", msg);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// Equality-heavy systems: every row is an equality over non-negative
    /// variables, the regime the worst-case slave LPs live in (flow
    /// conservation). Exercises phase one, artificial drive-out and the
    /// infeasible path far more often than the general family.
    #[test]
    fn equality_systems_match_dense_oracle(
        sense_raw in 0usize..2,
        nvars in 2usize..7,
        ncons in 1usize..6,
        obj in collection::vec(-2.0f64..2.0, 6..7),
        rhs in collection::vec(-4.0f64..4.0, 8..9),
        coeff in collection::vec(-2.0f64..2.0, 48..49),
        term_mask in collection::vec(0usize..3, 48..49),
    ) {
        let nvars = nvars.min(6);
        let ncons = ncons.min(5);
        let vars = (0..nvars)
            .map(|v| VarSpec { lower: 0.0, upper: f64::INFINITY, objective: obj[v] })
            .collect();
        let cons = (0..ncons)
            .map(|c| ConsSpec {
                terms: (0..nvars)
                    .filter(|v| term_mask[c * 6 + v] != 0)
                    .map(|v| (v, coeff[c * 6 + v]))
                    .collect(),
                relation: Relation::Eq,
                rhs: rhs[c],
            })
            .collect();
        let sense = if sense_raw == 0 { Sense::Minimize } else { Sense::Maximize };
        let spec = LpSpec { sense, vars, cons };
        if let Err(msg) = differential(&spec) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Solves `spec` through one [`LpSession`] once per entry of
/// `rounds`, an objective vector each, and requires every outcome to equal a
/// one-shot cold solve of a problem built with that objective: same error,
/// or the same objective and values bit for bit. Once a solve has succeeded
/// the session has a basis, and every later success must have re-entered
/// from it.
fn session_matches_cold(spec: &LpSpec, rounds: &[&[f64]]) -> Result<(), String> {
    let mut current = spec.clone();
    let (lp, lowered) = current.build();
    let mut session = lp
        .prepare()
        .map_err(|e| format!("prepare: {e} on {spec:?}"))?;
    let mut recorded = false;
    for (k, objective) in rounds.iter().enumerate() {
        for (v, l) in lowered.iter().enumerate() {
            l.set_objective(&mut session, objective[v]);
            current.vars[v].objective = objective[v];
        }
        let (cold, _) = current.build();
        match (session.solve(), cold.solve()) {
            (Ok(warm), Ok(cold)) => {
                let same = warm.objective.to_bits() == cold.objective.to_bits()
                    && lowered
                        .iter()
                        .all(|l| l.value(&warm).to_bits() == l.value(&cold).to_bits());
                if !same {
                    return Err(format!("round {k}: session {warm:?} vs cold {cold:?}"));
                }
                if (warm.stats.start == SolveStart::Recorded) != recorded {
                    return Err(format!("round {k}: recorded start {recorded} expected"));
                }
                recorded = true;
            }
            (Err(a), Err(b)) if a == b => {}
            (a, b) => return Err(format!("round {k}: session {a:?} vs cold {b:?}")),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// Sessions over the generated families: after any sequence of
    /// `set_objective` calls `session.solve()` is the cold solve of the
    /// same model, `to_bits`. `family` 1 turns the general draw into the
    /// equality regime (non-negative variables, every row an equality),
    /// where phase one does the work a session skips.
    #[test]
    fn session_resolves_equal_cold_solves_bit_for_bit(
        family in 0usize..2,
        sense_raw in 0usize..2,
        nvars in 1usize..7,
        ncons in 0usize..9,
        bound_kind in collection::vec(0usize..4, 6..7),
        bound_lo in collection::vec(-3.0f64..3.0, 6..7),
        bound_wid in collection::vec(0.0f64..4.0, 6..7),
        obj in collection::vec(-4.0f64..4.0, 6..7),
        rel in collection::vec(0usize..3, 8..9),
        rhs in collection::vec(-6.0f64..6.0, 8..9),
        coeff in collection::vec(-3.0f64..3.0, 48..49),
        term_mask in collection::vec(0usize..4, 48..49),
        later in collection::vec(-4.0f64..4.0, 12..13),
    ) {
        let mut spec = LpSpec::decode(
            sense_raw, nvars.min(6), ncons.min(8), &bound_kind, &bound_lo, &bound_wid,
            &obj, &rel, &rhs, &coeff, &term_mask,
        );
        if family == 1 {
            for v in &mut spec.vars {
                (v.lower, v.upper) = (0.0, f64::INFINITY);
            }
            for c in &mut spec.cons {
                c.relation = Relation::Eq;
            }
        }
        // Most draws are then feasible and reach the phase-two re-entry
        // under test.
        spec.recentre();
        // Round 0 re-sets the objective the model was built with.
        let rounds = [&obj[..], &later[..6], &later[6..]];
        if let Err(msg) = session_matches_cold(&spec, &rounds) {
            prop_assert!(false, "{}", msg);
        }
    }
}

/// Checks that `duals` certify `objective` optimal for `spec`, whose
/// variables are all non-negative: each row's dual has the sign its
/// relation and the sense require, every column's reduced cost is
/// `≥ −DUAL_TOL` in the solve's sense, and `b·y` is the objective up to the
/// solver's right-hand-side perturbation.
fn duals_certify(spec: &LpSpec, objective: f64, duals: &[f64]) -> Result<(), String> {
    if duals.len() != spec.cons.len() {
        return Err(format!(
            "{} duals for {} rows",
            duals.len(),
            spec.cons.len()
        ));
    }
    // Everything below in the solve's sense: a maximization's duals and
    // reduced costs negated.
    let sense = match spec.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    for (i, (c, &y)) in spec.cons.iter().zip(duals).enumerate() {
        let signed = match c.relation {
            Relation::Le => sense * y <= DUAL_TOL,
            Relation::Ge => sense * y >= -DUAL_TOL,
            Relation::Eq => true,
        };
        if !signed {
            return Err(format!("c{i} ({:?}): dual {y}", c.relation));
        }
    }
    for (j, v) in spec.vars.iter().enumerate() {
        let priced: f64 = spec
            .cons
            .iter()
            .zip(duals)
            .flat_map(|(c, &y)| c.terms.iter().filter(|t| t.0 == j).map(move |t| y * t.1))
            .sum();
        let reduced = sense * (v.objective - priced);
        if reduced < -DUAL_TOL {
            return Err(format!("x{j}: reduced cost {reduced}"));
        }
    }
    let by: f64 = spec.cons.iter().zip(duals).map(|(c, &y)| c.rhs * y).sum();
    let b_max = spec.cons.iter().fold(1.0_f64, |m, c| m.max(c.rhs.abs()));
    if (by - objective).abs() > 1e-6 * b_max {
        return Err(format!("b·y = {by}, objective {objective}"));
    }
    Ok(())
}

/// Solves `spec` through one session once per entry of `rounds` and
/// requires, after every optimal solve, duals that certify its objective
/// and equal — bit for bit — those of a fresh session's cold solve of the
/// same objective (so a warm solve reports its own duals, not the last
/// solve's); after a failed solve, none.
fn session_duals_certify(spec: &LpSpec, rounds: &[&[f64]]) -> Result<(), String> {
    let session_of = |spec: &LpSpec| {
        let (lp, lowered) = spec.build();
        lp.prepare().map(|session| (session, lowered))
    };
    let (mut session, lowered) = session_of(spec).map_err(|e| format!("prepare: {e}"))?;
    let mut current = spec.clone();
    for (k, objective) in rounds.iter().enumerate() {
        for (v, l) in lowered.iter().enumerate() {
            l.set_objective(&mut session, objective[v]);
            current.vars[v].objective = objective[v];
        }
        let solved = session.solve();
        let (mut fresh, _) = session_of(&current).map_err(|e| format!("prepare: {e}"))?;
        let cold = fresh.solve();
        match (&solved, session.row_duals()) {
            (Ok(sol), Some(duals)) => {
                duals_certify(&current, sol.objective, duals)
                    .map_err(|e| format!("round {k}: {e} on {current:?}"))?;
                let cold_duals = fresh.row_duals().unwrap_or_default();
                let same = cold.is_ok()
                    && duals.len() == cold_duals.len()
                    && duals
                        .iter()
                        .zip(cold_duals)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return Err(format!("round {k}: {duals:?} vs cold {cold_duals:?}"));
                }
            }
            (Err(_), None) => {}
            (result, duals) => return Err(format!("round {k}: {result:?} with duals {duals:?}")),
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// A session's row duals are a dual certificate of each solve, over the
    /// general family (all three relations) and the equality family, both
    /// with non-negative variables and no bound rows: the row duals alone
    /// certify the optimum.
    #[test]
    fn session_duals_are_a_dual_certificate(
        family in 0usize..2,
        sense_raw in 0usize..2,
        nvars in 1usize..7,
        ncons in 0usize..9,
        obj in collection::vec(-4.0f64..4.0, 6..7),
        rel in collection::vec(0usize..3, 8..9),
        rhs in collection::vec(-6.0f64..6.0, 8..9),
        coeff in collection::vec(-3.0f64..3.0, 48..49),
        term_mask in collection::vec(0usize..4, 48..49),
        later in collection::vec(-4.0f64..4.0, 12..13),
    ) {
        let zeros = [0usize; 6];
        let unused = [0.0f64; 6];
        let mut spec = LpSpec::decode(
            sense_raw, nvars.min(6), ncons.min(8), &zeros, &unused, &unused,
            &obj, &rel, &rhs, &coeff, &term_mask,
        );
        if family == 1 {
            for c in &mut spec.cons {
                c.relation = Relation::Eq;
            }
        }
        spec.recentre();
        let rounds = [&obj[..], &later[..6], &later[6..]];
        if let Err(msg) = session_duals_certify(&spec, &rounds) {
            prop_assert!(false, "{}", msg);
        }
    }
}

// ---------------------------------------------------------------------------
// Caller-named starting bases (`LpProblem::solve_from`) on flow LPs.
// ---------------------------------------------------------------------------

/// A min-max-utilization flow LP over a random layered DAG — node 0 is the
/// sink, every arc leads to a lower layer — shaped like
/// `coyote-core::opt_mcf`'s: per commodity a column per arc and a
/// conservation equality per non-sink node, one capacity row per arc tying
/// the commodities to `α`. Keeps where every row and column went, and the
/// spanning tree (one out-arc per node and commodity) a start is named from.
struct FlowLp {
    lp: LpProblem,
    alpha: VarId,
    /// `(tail, head, capacity)`; the two top-layer nodes come last.
    arcs: Vec<(usize, usize, f64)>,
    layer: Vec<usize>,
    /// `[commodity][node]`, the sink's entry unused.
    demand: Vec<Vec<f64>>,
    tree: Vec<Vec<usize>>,
    flow: Vec<Vec<VarId>>,
    cons_row: Vec<Vec<usize>>,
    cap_row: Vec<usize>,
}

impl FlowLp {
    /// `widths[i]` nodes in layer `i + 1` (the top layer at least two);
    /// every node gets an arc into the layer below and whichever further
    /// arcs to lower layers `arc_mask` keeps (the top layer at least two in
    /// all); `choice` picks each node's tree arc among its out-arcs.
    fn decode(
        widths: &[usize],
        arc_mask: &[usize],
        capacity: &[f64],
        demand: &[Vec<f64>],
        choice: &[Vec<usize>],
    ) -> FlowLp {
        let mut layer = vec![0usize];
        for (i, &w) in widths.iter().enumerate() {
            let top = i + 1 == widths.len();
            layer.extend(std::iter::repeat_n(i + 1, if top { w.max(2) } else { w }));
        }
        let n = layer.len();
        let top = widths.len();
        let mut arcs = Vec::new();
        for u in 1..n {
            let below: Vec<usize> = (0..u).filter(|&v| layer[v] < layer[u]).collect();
            let first = *below.iter().rfind(|&&v| layer[v] + 1 == layer[u]).unwrap();
            let mut kept = 0;
            for &v in &below {
                let forced = v == first || (layer[u] == top && kept == 0 && v + 1 == first);
                if forced || arc_mask[u * 13 + v] == 0 {
                    arcs.push((u, v, capacity[u * 13 + v]));
                    kept += 1;
                }
            }
        }
        let mut out_arcs = vec![Vec::new(); n];
        for (e, &(tail, ..)) in arcs.iter().enumerate() {
            out_arcs[tail].push(e);
        }

        let mut lp = LpProblem::new(Sense::Minimize);
        let alpha = lp.add_nonneg_var("alpha", 1.0);
        let k = demand.len();
        let flow: Vec<Vec<VarId>> = (0..k)
            .map(|c| {
                (0..arcs.len())
                    .map(|e| lp.add_nonneg_var(("g", c, e), 0.0))
                    .collect()
            })
            .collect();
        let mut cons_row = vec![vec![usize::MAX; n]; k];
        for c in 0..k {
            for u in 1..n {
                let terms: Vec<(VarId, f64)> = (0..arcs.len())
                    .filter_map(|e| match arcs[e] {
                        (tail, _, _) if tail == u => Some((flow[c][e], 1.0)),
                        (_, head, _) if head == u => Some((flow[c][e], -1.0)),
                        _ => None,
                    })
                    .collect();
                cons_row[c][u] =
                    lp.add_constraint(("cons", c, u), &terms, Relation::Eq, demand[c][u]);
            }
        }
        let cap_row = (0..arcs.len())
            .map(|e| {
                let mut terms: Vec<(VarId, f64)> = flow.iter().map(|f| (f[e], 1.0)).collect();
                terms.push((alpha, -arcs[e].2));
                lp.add_constraint(("cap", e), &terms, Relation::Le, 0.0)
            })
            .collect();
        let tree = (0..k)
            .map(|c| {
                let pick = |u: usize| out_arcs[u][choice[c][u] % out_arcs[u].len()];
                std::iter::once(usize::MAX)
                    .chain((1..n).map(pick))
                    .collect()
            })
            .collect();
        let demand = demand.iter().map(|d| d[..n].to_vec()).collect();
        FlowLp {
            lp,
            alpha,
            arcs,
            layer,
            demand,
            tree,
            flow,
            cons_row,
            cap_row,
        }
    }

    /// Utilization of every arc when each commodity follows its tree.
    fn tree_utilization(&self) -> Vec<f64> {
        let n = self.layer.len();
        let mut load = vec![0.0; self.arcs.len()];
        // Nodes are numbered layer by layer, so descending ids are
        // sources-first.
        for (demand, tree) in self.demand.iter().zip(&self.tree) {
            let mut volume = demand.clone();
            for u in (1..n).rev() {
                load[tree[u]] += volume[u];
                volume[self.arcs[tree[u]].1] += volume[u];
            }
        }
        load.iter().zip(&self.arcs).map(|(l, a)| l / a.2).collect()
    }

    /// The tree arcs on their conservation rows and `α` on `alpha_arc`'s
    /// capacity row.
    fn start(&self, alpha_arc: usize) -> Vec<(usize, VarId)> {
        let mut start = Vec::new();
        for c in 0..self.tree.len() {
            for u in 1..self.layer.len() {
                start.push((self.cons_row[c][u], self.flow[c][self.tree[c][u]]));
            }
        }
        start.push((self.cap_row[alpha_arc], self.alpha));
        start
    }

    /// The same model as an [`LpSpec`]: `α`, then every commodity's arc
    /// columns; the conservation rows, then the capacity rows.
    fn spec(&self) -> LpSpec {
        let n = self.layer.len();
        let k = self.demand.len();
        let column = |c: usize, e: usize| 1 + c * self.arcs.len() + e;
        let nonneg = |objective| VarSpec {
            lower: 0.0,
            upper: f64::INFINITY,
            objective,
        };
        let mut vars = vec![nonneg(1.0)];
        vars.extend((0..k * self.arcs.len()).map(|_| nonneg(0.0)));
        let mut cons = Vec::new();
        for c in 0..k {
            for u in 1..n {
                let terms = (0..self.arcs.len())
                    .filter_map(|e| match self.arcs[e] {
                        (tail, _, _) if tail == u => Some((column(c, e), 1.0)),
                        (_, head, _) if head == u => Some((column(c, e), -1.0)),
                        _ => None,
                    })
                    .collect();
                cons.push(ConsSpec {
                    terms,
                    relation: Relation::Eq,
                    rhs: self.demand[c][u],
                });
            }
        }
        for (e, &(.., capacity)) in self.arcs.iter().enumerate() {
            let mut terms: Vec<(usize, f64)> = (0..k).map(|c| (column(c, e), 1.0)).collect();
            terms.push((0, -capacity));
            cons.push(ConsSpec {
                terms,
                relation: Relation::Le,
                rhs: 0.0,
            });
        }
        LpSpec {
            sense: Sense::Minimize,
            vars,
            cons,
        }
    }

    fn solve_from(&self, start: &[(usize, VarId)]) -> Result<LpSolution, LpError> {
        self.lp.clone().solve_from(start)
    }
}

/// The start is a hint, never an answer: from the tree basis the solve
/// skips phase one and reaches the cold solve's objective; a spoiled one,
/// infeasible or singular, is refused, and the solve is then the cold
/// solve, bit for bit.
fn start_is_a_hint(f: &FlowLp) -> Result<(), String> {
    let (cold, dense) = solve_both(&f.lp);
    let cold = cold.map_err(|e| format!("cold: {e}"))?;
    let dense = dense.map_err(|e| format!("dense: {e}"))?;
    let same = |what: &str, got: &LpSolution| {
        let gap = (got.objective - cold.objective).abs();
        if gap > 1e-9 * (1.0 + cold.objective.abs()) {
            return Err(format!(
                "{what}: {} vs cold {}",
                got.objective, cold.objective
            ));
        }
        Ok(())
    };

    let utilization = f.tree_utilization();
    let first_max = |best: usize, e: usize| {
        if utilization[e] > utilization[best] {
            e
        } else {
            best
        }
    };
    let worst = (0..f.arcs.len()).fold(0, first_max);
    let tree = f.start(worst);
    let started = f.solve_from(&tree).map_err(|e| format!("tree: {e}"))?;
    same("tree start", &started)?;
    if (started.stats.start, started.stats.phase1_pivots) != (SolveStart::Supplied, 0) {
        return Err(format!("tree start not taken: {:?}", started.stats));
    }
    if (started.objective - dense.objective).abs() > 1e-6 * (1.0 + dense.objective.abs()) {
        return Err(format!(
            "tree start {} vs dense {}",
            started.objective, dense.objective
        ));
    }
    // The same basis listed in another order is the same basis.
    let reversed: Vec<_> = tree.iter().rev().copied().collect();
    let permuted = f
        .solve_from(&reversed)
        .map_err(|e| format!("permuted: {e}"))?;
    if permuted.objective.to_bits() != started.objective.to_bits()
        || permuted.stats != started.stats
    {
        return Err(format!("permuted list: {permuted:?} vs {started:?}"));
    }

    let spoiled = |what: &str, start: &[(usize, VarId)]| {
        let got = f.solve_from(start).map_err(|e| format!("{what}: {e}"))?;
        if got.stats.start == SolveStart::Refused
            && got.objective.to_bits() == cold.objective.to_bits()
        {
            return Ok(());
        }
        Err(format!("{what}: {got:?} vs cold {cold:?}"))
    };
    // Infeasible: `α` on a link decisively less utilized than the worst
    // leaves the worst link's slack negative.
    let least = (0..f.arcs.len()).fold(0, |best, e| {
        if utilization[e] < utilization[best] {
            e
        } else {
            best
        }
    });
    if utilization[least] + 1e-3 < utilization[worst] {
        spoiled("alpha on a non-maximal row", &f.start(least))?;
    }
    // Singular: the second top-layer node's row gets a non-tree arc of the
    // first, which closes a cycle with the tree paths of its two ends and
    // leaves the node's own row empty. A singular basis is refused whatever
    // the demand.
    let (x, u) = (f.layer.len() - 2, f.layer.len() - 1);
    let chord = (0..f.arcs.len())
        .find(|&e| f.arcs[e].0 == x && e != f.tree[0][x])
        .unwrap();
    let mut cyclic = tree.clone();
    let slot = cyclic
        .iter_mut()
        .find(|(row, _)| *row == f.cons_row[0][u])
        .unwrap();
    slot.1 = f.flow[0][chord];
    spoiled("two arcs closing a cycle", &cyclic)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(240))]

    /// Random layered-DAG flow LPs, 1–4 commodities, random capacities and
    /// demands (a third of them zero), a random spanning tree per commodity.
    #[test]
    fn a_named_start_is_a_hint_never_an_answer(
        layers in 2usize..5,
        commodities in 1usize..5,
        widths in collection::vec(1usize..4, 4..5),
        arc_mask in collection::vec(0usize..3, 169..170),
        capacity in collection::vec(0.5f64..4.0, 169..170),
        volume in collection::vec(0.0f64..3.0, 52..53),
        volume_mask in collection::vec(0usize..3, 52..53),
        choice in collection::vec(0usize..6, 52..53),
    ) {
        let demand: Vec<Vec<f64>> = (0..commodities)
            .map(|c| (0..13).map(|u| if volume_mask[c * 13 + u] == 0 { 0.0 } else { volume[c * 13 + u] }).collect())
            .collect();
        let choice: Vec<Vec<usize>> = choice.chunks(13).map(<[usize]>::to_vec).collect();
        let flow = FlowLp::decode(&widths[..layers], &arc_mask, &capacity, &demand, &choice);
        if let Err(msg) = start_is_a_hint(&flow) {
            prop_assert!(false, "{} on arcs {:?} demand {:?} tree {:?}", msg, flow.arcs, flow.demand, flow.tree);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    /// A session solved from the flow LP's tree basis (how an adversary
    /// scan solves `OPTU` of its lower envelope) is the one-shot
    /// `solve_from`, bit for bit, and its duals certify the optimum.
    #[test]
    fn session_duals_from_a_named_start_are_a_dual_certificate(
        layers in 2usize..5,
        commodities in 1usize..5,
        widths in collection::vec(1usize..4, 4..5),
        arc_mask in collection::vec(0usize..3, 169..170),
        capacity in collection::vec(0.5f64..4.0, 169..170),
        volume in collection::vec(0.0f64..3.0, 52..53),
        choice in collection::vec(0usize..6, 52..53),
    ) {
        let demand: Vec<Vec<f64>> =
            volume.chunks(13).take(commodities).map(<[f64]>::to_vec).collect();
        let choice: Vec<Vec<usize>> = choice.chunks(13).map(<[usize]>::to_vec).collect();
        let flow = FlowLp::decode(&widths[..layers], &arc_mask, &capacity, &demand, &choice);
        // `α` on the first link of maximal tree utilization: a feasible basis.
        let utilization = flow.tree_utilization();
        let first_max = |best: usize, e: usize| {
            if utilization[e] > utilization[best] { e } else { best }
        };
        let tree = flow.start((0..flow.arcs.len()).fold(0, first_max));
        let one_shot = flow.solve_from(&tree).unwrap();
        let mut session = flow.lp.clone().prepare().unwrap();
        let sol = session.solve_from(&tree).unwrap();
        prop_assert_eq!(sol.stats.start, SolveStart::Supplied);
        prop_assert_eq!(sol.objective.to_bits(), one_shot.objective.to_bits());
        let duals = session.row_duals().unwrap();
        if let Err(msg) = duals_certify(&flow.spec(), sol.objective, duals) {
            prop_assert!(false, "{} on arcs {:?} demand {:?}", msg, flow.arcs, flow.demand);
        }
    }
}

/// A list that is no basis of the model is a typed error, before any
/// solving: it is the caller's bug, not a numerical event.
#[test]
fn malformed_starts_are_typed_errors() {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_nonneg_var("x", 1.0);
    let y = lp.add_nonneg_var("y", 2.0);
    let eq = lp.add_constraint("eq", &[(x, 1.0), (y, 1.0)], Relation::Eq, 4.0);
    let le = lp.add_constraint("le", &[(x, 1.0)], Relation::Le, 6.0);
    let stranger = {
        let mut other = lp.clone();
        other.add_nonneg_var("z", 0.0)
    };
    let malformed: [(&str, Vec<(usize, VarId)>); 5] = [
        ("unknown row", vec![(eq, x), (7, y)]),
        ("unknown variable", vec![(eq, stranger)]),
        ("row eq is named twice", vec![(eq, x), (eq, y)]),
        ("variable x is named twice", vec![(eq, x), (le, x)]),
        ("equality row eq has no basic variable", vec![(le, x)]),
    ];
    for (why, start) in &malformed {
        match lp.clone().solve_from(start) {
            Err(LpError::InvalidStart { context }) => assert!(context.contains(why), "{context}"),
            other => panic!("{why}: {other:?}"),
        }
    }
    // A well-formed list on the same model is judged by the solver.
    let cold = lp.clone().solve().unwrap();
    for start in [vec![(eq, x)], vec![(eq, y), (le, x)]] {
        let sol = lp.clone().solve_from(&start).unwrap();
        assert!(
            (sol.objective - cold.objective).abs() < 1e-9,
            "{sol:?} vs {cold:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Fixed regression instances, replayed verbatim against both backends.
// ---------------------------------------------------------------------------

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} != {b}");
}

/// Beale's cycling example: both backends must escape the
/// Dantzig cycle via the stall-triggered Bland switch and agree on the
/// optimum 1/20.
#[test]
fn beale_cycling_instance_matches_on_both_backends() {
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
    let (rev, den) = solve_both(&lp);
    let (rev, den) = (rev.unwrap(), den.unwrap());
    assert_close(rev.objective, 0.05);
    assert_close(den.objective, 0.05);
    assert_close(rev.value(x1), 0.04);
    assert_close(rev.value(x3), 1.0);
}

/// A genuinely unbounded ray whose reduced cost sits in
/// the noise-clamp window must still be reported as unbounded by both.
#[test]
fn tiny_objective_unbounded_ray_matches_on_both_backends() {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_nonneg_var("x", -5.0e-7);
    let s = lp.add_nonneg_var("s", 0.0);
    lp.add_constraint("c", &[(s, 1.0), (x, -1.0)], Relation::Eq, 1.0);
    let (rev, den) = solve_both(&lp);
    assert!(matches!(rev, Err(LpError::Unbounded)), "revised: {rev:?}");
    assert!(matches!(den, Err(LpError::Unbounded)), "dense: {den:?}");
}

/// Three constraints meeting at the optimum (1, 1).
#[test]
fn degenerate_vertex_matches_on_both_backends() {
    let mut lp = LpProblem::new(Sense::Maximize);
    let x = lp.add_nonneg_var("x", 1.0);
    let y = lp.add_nonneg_var("y", 1.0);
    lp.add_constraint("cx", &[(x, 1.0)], Relation::Le, 1.0);
    lp.add_constraint("cy", &[(y, 1.0)], Relation::Le, 1.0);
    lp.add_constraint("sum", &[(x, 1.0), (y, 1.0)], Relation::Le, 2.0);
    let (rev, den) = solve_both(&lp);
    let (rev, den) = (rev.unwrap(), den.unwrap());
    assert_close(rev.objective, 2.0);
    assert_close(den.objective, 2.0);
    assert_close(rev.value(x), 1.0);
    assert_close(rev.value(y), 1.0);
}

/// Duplicated equality rows are redundant, not infeasible.
#[test]
fn duplicate_equality_rows_match_on_both_backends() {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_nonneg_var("x", 1.0);
    let y = lp.add_nonneg_var("y", 2.0);
    lp.add_constraint("e", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
    lp.add_constraint("e_again", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
    let (rev, den) = solve_both(&lp);
    let (rev, den) = (rev.unwrap(), den.unwrap());
    assert_close(rev.objective, 3.0);
    assert_close(den.objective, 3.0);
    assert_close(rev.value(x), 3.0);
}

/// Contradictory equalities surface as `Infeasible` from
/// both backends, never as a silently wrong answer.
#[test]
fn contradictory_equalities_match_on_both_backends() {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_nonneg_var("x", 1.0);
    let y = lp.add_nonneg_var("y", 1.0);
    lp.add_constraint("a", &[(x, 1.0), (y, 1.0)], Relation::Eq, 1.0);
    lp.add_constraint("b", &[(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
    let (rev, den) = solve_both(&lp);
    assert!(
        matches!(rev, Err(LpError::Infeasible { .. })),
        "revised: {rev:?}"
    );
    assert!(
        matches!(den, Err(LpError::Infeasible { .. })),
        "dense: {den:?}"
    );
}

/// Two parallel paths with capacities, cheapest first.
#[test]
fn min_cost_flow_style_lp_matches_on_both_backends() {
    let mut lp = LpProblem::new(Sense::Minimize);
    let f1 = lp.add_nonneg_var("f1", 1.0);
    let f2 = lp.add_nonneg_var("f2", 3.0);
    lp.add_constraint("demand", &[(f1, 1.0), (f2, 1.0)], Relation::Eq, 2.0);
    for f in [f1, f2] {
        lp.add_constraint("cap", &[(f, 1.0)], Relation::Le, 1.5);
    }
    let (rev, den) = solve_both(&lp);
    let (rev, den) = (rev.unwrap(), den.unwrap());
    assert_close(rev.objective, 3.0);
    assert_close(den.objective, 3.0);
    assert_close(rev.value(f1), 1.5);
    assert_close(rev.value(f2), 0.5);
}

/// A ring-network min-cost flow shaped like the worst-case pipeline's slave
/// LPs: per-arc flow variables, per-node conservation equalities, tight arc
/// capacities forcing the unit of demand to split across both directions of
/// the ring. Alternative optima abound (any 0.4 ≤ split ≤ 0.6 is optimal),
/// so only the objective is compared across backends.
#[test]
fn ring_network_flow_lp_matches_on_both_backends() {
    const N: usize = 6; // nodes 0..6 in a ring, demand 1.0 from node 0 to 3
    let mut lp = LpProblem::new(Sense::Minimize);
    // Arc (i -> i+1) is `fwd[i]`, arc (i+1 -> i) is `bwd[i]`; unit cost,
    // capacity 0.6 so neither 3-hop path can carry the demand alone.
    let fwd: Vec<VarId> = (0..N).map(|i| lp.add_nonneg_var(("fwd", i), 1.0)).collect();
    let bwd: Vec<VarId> = (0..N).map(|i| lp.add_nonneg_var(("bwd", i), 1.0)).collect();
    for node in 0..N {
        // Outgoing: fwd[node] and bwd[node-1]; incoming: fwd[node-1], bwd[node].
        let prev = (node + N - 1) % N;
        let supply = match node {
            0 => 1.0,
            3 => -1.0,
            _ => 0.0,
        };
        lp.add_constraint(
            ("node", node),
            &[
                (fwd[node], 1.0),
                (bwd[prev], 1.0),
                (fwd[prev], -1.0),
                (bwd[node], -1.0),
            ],
            Relation::Eq,
            supply,
        );
    }
    for &arc in fwd.iter().chain(&bwd) {
        lp.add_constraint("cap", &[(arc, 1.0)], Relation::Le, 0.6);
    }
    let (rev, den) = solve_both(&lp);
    let (rev, den) = (rev.unwrap(), den.unwrap());
    // Both 3-hop directions cost 3 per unit; any feasible split costs 3.
    assert_close(rev.objective, 3.0);
    assert_close(den.objective, 3.0);
    // The revised solution must itself be a feasible flow.
    for i in 0..N {
        assert!(rev.value(fwd[i]) >= -1e-9 && rev.value(fwd[i]) <= 0.6 + 1e-9);
        assert!(rev.value(bwd[i]) >= -1e-9 && rev.value(bwd[i]) <= 0.6 + 1e-9);
    }
}
