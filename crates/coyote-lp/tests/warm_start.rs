//! Warm-start correctness for the revised simplex.
//!
//! The one protocol, phase-one replay ([`PhaseOneCache`] / `solve_cached`,
//! see the `coyote_lp::revised` module docs): the cached basis may only be
//! replayed for an *identical* constraint system, and a warm solve must then
//! be **bit-identical** to a cold one — same objective bits, same value
//! bits — because the pipeline's determinism guarantees ride on it.

use coyote_lp::{LpProblem, PhaseOneCache, Relation, Sense, VarId};

fn assert_close(a: f64, b: f64) {
    assert!((a - b).abs() < 1e-6, "{a} != {b}");
}

/// A small transportation-style LP whose phase one does real work: two
/// supply equalities, one demand inequality, bounded link variables.
fn transport_lp(cost_scale: f64) -> (LpProblem, Vec<VarId>) {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_var("x", 0.0, 4.0, 1.0 * cost_scale);
    let y = lp.add_var("y", 0.0, 4.0, 2.0 * cost_scale);
    let z = lp.add_var("z", 0.0, 4.0, 3.0 * cost_scale);
    lp.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
    lp.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
    (lp, vec![x, y, z])
}

/// A cached warm solve of the same system must be bitwise identical to the
/// cold solve — objective and every variable value.
#[test]
fn phase_one_replay_is_bit_identical_to_cold() {
    let (lp, ids) = transport_lp(1.0);
    let cold = lp.solve().unwrap();

    let mut cache = PhaseOneCache::new();
    let first = lp.solve_cached(&mut cache).unwrap();
    assert!(cache.is_primed());
    let warm = lp.solve_cached(&mut cache).unwrap();

    assert_eq!(cold.objective.to_bits(), first.objective.to_bits());
    assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
    for &v in &ids {
        assert_eq!(cold.value(v).to_bits(), warm.value(v).to_bits());
        assert_eq!(cold.value(v).to_bits(), first.value(v).to_bits());
    }
    assert!(
        warm.stats.warm_restore,
        "second solve should replay phase one"
    );
    assert_eq!(warm.stats.phase1_pivots, 0);
    assert!(!first.stats.warm_restore);
}

/// The cache key is the constraint system only: changing the objective
/// (the constraint-generation loop's pattern) still replays phase one, and
/// each solve matches its own cold run bit for bit.
#[test]
fn phase_one_replay_survives_objective_changes() {
    let mut cache = PhaseOneCache::new();
    let (lp0, _) = transport_lp(1.0);
    lp0.solve_cached(&mut cache).unwrap();

    for scale in [2.0, -1.0, 0.5] {
        let (lp, ids) = transport_lp(scale);
        let cold = lp.solve().unwrap();
        let warm = lp.solve_cached(&mut cache).unwrap();
        assert!(
            warm.stats.warm_restore,
            "scale {scale} should hit the cache"
        );
        assert_eq!(cold.objective.to_bits(), warm.objective.to_bits());
        for &v in &ids {
            assert_eq!(cold.value(v).to_bits(), warm.value(v).to_bits());
        }
    }
}

/// Changing the constraint system (here: a right-hand side) must miss the
/// cache, fall back to a cold solve and re-prime.
#[test]
fn phase_one_cache_misses_on_constraint_change() {
    let mut cache = PhaseOneCache::new();
    let (lp, _) = transport_lp(1.0);
    lp.solve_cached(&mut cache).unwrap();

    let mut edited = LpProblem::new(Sense::Minimize);
    let x = edited.add_var("x", 0.0, 4.0, 1.0);
    let y = edited.add_var("y", 0.0, 4.0, 2.0);
    let z = edited.add_var("z", 0.0, 4.0, 3.0);
    edited.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 5.0);
    edited.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);

    let sol = edited.solve_cached(&mut cache).unwrap();
    assert!(!sol.stats.warm_restore, "different rhs must not replay");
    assert_close(sol.objective, 2.0 + 6.0); // x=2, y=3 -> 2 + 6
                                            // The miss re-primes the cache for the *edited* system.
    let again = edited.solve_cached(&mut cache).unwrap();
    assert!(again.stats.warm_restore);
    assert_eq!(sol.objective.to_bits(), again.objective.to_bits());
}
