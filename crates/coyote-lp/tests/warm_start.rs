//! Warm-start correctness for the revised simplex.
//!
//! The one mechanism is the session ([`LpSession`], see its docs): it
//! records the basis its first solve reaches at the end of phase one and
//! re-enters phase two from it on every later solve, and a warm solve must
//! be **bit-identical** to a cold one — same objective bits, same value
//! bits — because the pipeline's determinism guarantees ride on it.
//!
//! A session's only mutator is `set_objective`, so a recorded basis cannot
//! meet a different constraint system: the old "a changed right-hand side
//! must miss the cache" case is unrepresentable and has no test here.

use coyote_lp::{LpProblem, LpSession, Relation, Sense, SolveStart, VarId};

/// A small transportation-style LP whose phase one does real work: one
/// supply equality, one demand inequality, a capacity row per link.
fn transport_lp(cost_scale: f64) -> (LpProblem, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_nonneg_var("x", 1.0 * cost_scale);
    let y = lp.add_nonneg_var("y", 2.0 * cost_scale);
    let z = lp.add_nonneg_var("z", 3.0 * cost_scale);
    lp.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
    lp.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
    for v in [x, y, z] {
        lp.add_constraint("cap", &[(v, 1.0)], Relation::Le, 4.0);
    }
    (lp, vec![x, y, z])
}

fn session(cost_scale: f64) -> LpSession {
    transport_lp(cost_scale).0.prepare().unwrap()
}

/// A session's second solve of the same system must be bitwise identical to
/// the cold solve — objective and every variable value.
#[test]
fn session_resolve_is_bit_identical_to_cold() {
    let (lp, ids) = transport_lp(1.0);
    let cold = lp.solve().unwrap();

    let mut session = session(1.0);
    let first = session.solve().unwrap();
    let warm = session.solve().unwrap();

    assert_eq!(cold.objective.to_bits(), first.objective.to_bits());
    assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
    for &v in &ids {
        assert_eq!(cold.value(v).to_bits(), warm.value(v).to_bits());
        assert_eq!(cold.value(v).to_bits(), first.value(v).to_bits());
    }
    assert_eq!(
        warm.stats.start,
        SolveStart::Recorded,
        "second solve should skip phase one"
    );
    assert_eq!(warm.stats.phase1_pivots, 0);
    assert_eq!(warm.stats.warm_pivots_saved, first.stats.phase1_pivots);
    assert_eq!(first.stats.start, SolveStart::Slack);
}

/// The recorded basis belongs to the constraint system only: changing the
/// objective (the constraint-generation loop's pattern) still skips phase
/// one, and each solve matches its own cold run bit for bit.
#[test]
fn session_resolve_survives_objective_changes() {
    let mut session = session(1.0);
    session.solve().unwrap();

    for scale in [2.0, -1.0, 0.5] {
        let (lp, ids) = transport_lp(scale);
        let cold = lp.solve().unwrap();
        for (&v, cost) in ids.iter().zip([1.0, 2.0, 3.0]) {
            session.set_objective(v, cost * scale);
        }
        let warm = session.solve().unwrap();
        assert_eq!(
            warm.stats.start,
            SolveStart::Recorded,
            "scale {scale} should skip phase one"
        );
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
        for &v in &ids {
            assert_eq!(cold.value(v).to_bits(), warm.value(v).to_bits());
        }
    }
}

/// A non-finite coefficient set on a session is reported by the next solve,
/// as validation reports it on a problem, and the session recovers.
#[test]
fn session_rejects_a_non_finite_objective() {
    let (lp, ids) = transport_lp(1.0);
    let mut session = lp.prepare().unwrap();
    session.set_objective(ids[0], f64::NAN);
    assert_eq!(
        session.solve().unwrap_err().to_string(),
        "non-finite value in objective coefficient of x"
    );
    session.set_objective(ids[0], 1.0);
    assert!(session.solve().is_ok());
}
