//! Differential tests: the revised simplex against the dense oracle.
//!
//! Every case builds one [`LpProblem`] and solves two clones of it — one
//! pinned to [`SolverBackend::Revised`], one to [`SolverBackend::Dense`] —
//! and requires the outcomes to agree:
//!
//! * both optimal → objectives within `1e-6` (relative) and the revised
//!   solution satisfies every constraint and bound;
//! * both failed → the same error class (infeasible vs unbounded);
//! * one optimal, one failed → the case fails outright.
//!
//! The generated families (well over 200 accepted cases between them) cover
//! feasible, infeasible, unbounded and deliberately degenerate instances;
//! the fixed cases replay the PR 5 regression LPs (Beale cycling,
//! tiny-objective rays, duplicate and contradictory equalities, min-cost
//! flow) plus a ring-network flow LP shaped like the worst-case pipeline's.
//!
//! The same families drive [`coyote_lp::LpSession`]: a session re-solved
//! under a sequence of objectives must equal a cold solve of each, bit for
//! bit (`session_resolves_equal_cold_solves_bit_for_bit`).

use coyote_lp::error::LpError;
use coyote_lp::{LpProblem, Relation, Sense, SolverBackend, VarId};
use proptest::prelude::*;

/// Bounds of one generated variable, decoded from generator draws.
#[derive(Debug, Clone, Copy)]
struct VarSpec {
    lower: f64,
    upper: f64,
    objective: f64,
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

    fn build(&self) -> (LpProblem, Vec<VarId>) {
        let mut lp = LpProblem::new(self.sense);
        let ids: Vec<VarId> = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, v)| lp.add_var(("x", i), v.lower, v.upper, v.objective))
            .collect();
        for (i, c) in self.cons.iter().enumerate() {
            let terms: Vec<(VarId, f64)> = c.terms.iter().map(|&(v, k)| (ids[v], k)).collect();
            lp.add_constraint(("c", i), &terms, c.relation, c.rhs);
        }
        (lp, ids)
    }

    /// Largest absolute coefficient/rhs, for scaling feasibility tolerances.
    fn scale(&self) -> f64 {
        self.cons
            .iter()
            .flat_map(|c| c.terms.iter().map(|t| t.1.abs()).chain([c.rhs.abs()]))
            .fold(1.0_f64, f64::max)
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

/// Solves one problem with both backends.
fn solve_both(
    lp: &LpProblem,
) -> (
    Result<coyote_lp::LpSolution, LpError>,
    Result<coyote_lp::LpSolution, LpError>,
) {
    let mut revised = lp.clone();
    revised.set_backend(SolverBackend::Revised);
    let mut dense = lp.clone();
    dense.set_backend(SolverBackend::Dense);
    (revised.solve(), dense.solve())
}

/// Coarse outcome class used to compare error paths across backends.
fn class(r: &Result<coyote_lp::LpSolution, LpError>) -> &'static str {
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
    let (lp, ids) = spec.build();
    let (rev, den) = solve_both(&lp);
    if class(&rev) != class(&den) {
        return Err(format!(
            "backends disagree: revised {} vs dense {} on {spec:?}",
            class(&rev),
            class(&den)
        ));
    }
    if let (Ok(r), Ok(d)) = (&rev, &den) {
        let tol = 1e-6 * (1.0 + d.objective.abs());
        if (r.objective - d.objective).abs() > tol {
            return Err(format!(
                "objectives diverge: revised {} vs dense {} (tol {tol}) on {spec:?}",
                r.objective, d.objective
            ));
        }
        let feas_tol = 1e-5 * spec.scale();
        let values: Vec<f64> = ids.iter().map(|&v| r.value(v)).collect();
        spec.check_feasible(&values, feas_tol)
            .map_err(|e| format!("revised solution infeasible: {e} on {spec:?}"))?;
        let dvalues: Vec<f64> = ids.iter().map(|&v| d.value(v)).collect();
        spec.check_feasible(&dvalues, feas_tol)
            .map_err(|e| format!("dense solution infeasible: {e} on {spec:?}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(140))]

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
    #![proptest_config(ProptestConfig::with_cases(60))]

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
    #![proptest_config(ProptestConfig::with_cases(60))]

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

/// Solves `spec` through one [`coyote_lp::LpSession`] once per entry of
/// `rounds`, an objective vector each, and requires every outcome to equal a
/// one-shot cold solve of a problem built with that objective: same error,
/// or the same objective and values bit for bit. Once a solve has succeeded
/// the session has a basis, and every later success must have re-entered
/// from it.
fn session_matches_cold(spec: &LpSpec, rounds: &[&[f64]]) -> Result<(), String> {
    let mut current = spec.clone();
    let (mut lp, ids) = current.build();
    lp.set_backend(SolverBackend::Revised);
    let mut session = lp
        .prepare()
        .map_err(|e| format!("prepare: {e} on {spec:?}"))?;
    let mut recorded = false;
    for (k, objective) in rounds.iter().enumerate() {
        for (v, &id) in ids.iter().enumerate() {
            session.set_objective(id, objective[v]);
            current.vars[v].objective = objective[v];
        }
        let (mut cold, _) = current.build();
        cold.set_backend(SolverBackend::Revised);
        match (session.solve(), cold.solve()) {
            (Ok(warm), Ok(cold)) => {
                let same = warm.objective.to_bits() == cold.objective.to_bits()
                    && ids
                        .iter()
                        .all(|&v| warm.value(v).to_bits() == cold.value(v).to_bits());
                if !same {
                    return Err(format!("round {k}: session {warm:?} vs cold {cold:?}"));
                }
                if warm.stats.warm_restore != recorded {
                    return Err(format!("round {k}: warm_restore {recorded} expected"));
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
    #![proptest_config(ProptestConfig::with_cases(120))]

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
        // Re-centre every row on a point inside the bounds: most draws are
        // then feasible and reach the phase-two re-entry under test.
        let inside: Vec<f64> = spec
            .vars
            .iter()
            .map(|v| match (v.lower.is_finite(), v.upper.is_finite()) {
                (true, true) => (v.lower + v.upper) / 2.0,
                (true, false) => v.lower + 1.0,
                (false, true) => v.upper - 1.0,
                (false, false) => 0.5,
            })
            .collect();
        for c in &mut spec.cons {
            let at: f64 = c.terms.iter().map(|&(v, k)| k * inside[v]).sum();
            c.rhs = match c.relation {
                Relation::Le => at + c.rhs.abs(),
                Relation::Ge => at - c.rhs.abs(),
                Relation::Eq => at,
            };
        }
        // Round 0 re-sets the objective the model was built with.
        let rounds = [&obj[..], &later[..6], &later[6..]];
        if let Err(msg) = session_matches_cold(&spec, &rounds) {
            prop_assert!(false, "{}", msg);
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed regression instances, replayed verbatim against both backends.
// ---------------------------------------------------------------------------

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} != {b}");
}

/// Beale's cycling example (PR 5 regression): both backends must escape the
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

/// PR 5 regression: a genuinely unbounded ray whose reduced cost sits in
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

/// PR 5 regression: three constraints meeting at the optimum (1, 1).
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

/// PR 5 regression: duplicated equality rows are redundant, not infeasible.
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

/// PR 5 regression: contradictory equalities surface as `Infeasible` from
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

/// PR 5 regression: two parallel paths with capacities, cheapest first.
#[test]
fn min_cost_flow_style_lp_matches_on_both_backends() {
    let mut lp = LpProblem::new(Sense::Minimize);
    let f1 = lp.add_var("f1", 0.0, 1.5, 1.0);
    let f2 = lp.add_var("f2", 0.0, 1.5, 3.0);
    lp.add_constraint("demand", &[(f1, 1.0), (f2, 1.0)], Relation::Eq, 2.0);
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
    let fwd: Vec<VarId> = (0..N)
        .map(|i| lp.add_var(("fwd", i), 0.0, 0.6, 1.0))
        .collect();
    let bwd: Vec<VarId> = (0..N)
        .map(|i| lp.add_var(("bwd", i), 0.0, 0.6, 1.0))
        .collect();
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
