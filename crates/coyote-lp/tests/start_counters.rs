//! What a solve publishes about how it started.
//!
//! This file holds one test, so nothing else in the process can touch the
//! process-global sink while the registry is installed: every count below
//! is exact, once per solve.

use coyote_lp::{LpProblem, Relation, Sense, SolveStart};
use coyote_obs::{install, uninstall, Registry};
use std::sync::Arc;

#[test]
fn every_solve_says_how_it_started_once() {
    let mut lp = LpProblem::new(Sense::Minimize);
    let x = lp.add_nonneg_var("x", 1.0);
    let y = lp.add_nonneg_var("y", 2.0);
    let z = lp.add_nonneg_var("z", 3.0);
    let supply = lp.add_constraint("supply", &[(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Eq, 6.0);
    let mix = lp.add_constraint("mix", &[(y, 1.0), (z, 1.0)], Relation::Ge, 3.0);
    for v in [x, y, z] {
        lp.add_constraint("cap", &[(v, 1.0)], Relation::Le, 4.0);
    }

    let registry = Arc::new(Registry::new());
    install(registry.clone());
    let cold = lp.clone().solve().unwrap();
    // x = y = 3, z = 0: a vertex.
    let supplied = lp.clone().solve_from(&[(supply, x), (mix, y)]).unwrap();
    // `mix` keeps its surplus column, which would have to be −3.
    let refused = lp.clone().solve_from(&[(supply, x)]).unwrap();
    let mut session = lp.prepare().unwrap();
    let first = session.solve().unwrap();
    let recorded = session.solve().unwrap();
    uninstall();

    let starts = [&cold, &supplied, &refused, &first, &recorded].map(|s| s.stats.start);
    let expected = [
        SolveStart::Slack,
        SolveStart::Supplied,
        SolveStart::Refused,
        SolveStart::Slack,
        SolveStart::Recorded,
    ];
    assert_eq!(starts, expected);
    assert_eq!(supplied.stats.phase1_pivots, 0);
    assert!((supplied.objective - cold.objective).abs() < 1e-9);
    assert_eq!(refused.objective.to_bits(), cold.objective.to_bits());

    let counters = registry.snapshot().counters;
    let count = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(count("lp.solves"), 5);
    // "Cold" is "did not re-enter from a session's recorded basis".
    assert_eq!((count("lp.cold_solves"), count("lp.warm_solves")), (4, 1));
    assert_eq!(
        (count("lp.crash_starts"), count("lp.crash_rejects")),
        (1, 1)
    );
    let phase1 = [&cold, &refused, &first].map(|s| s.stats.phase1_pivots as u64);
    assert_eq!(count("lp.phase1_pivots"), phase1.iter().sum::<u64>());
}
