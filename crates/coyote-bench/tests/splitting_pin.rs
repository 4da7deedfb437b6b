//! End-to-end pin of the splitting optimizer's arithmetic.
//!
//! The lane-batched kernel in `coyote_core::oblivious` promises that every
//! per-lane floating-point operation happens in a fixed order. If a later
//! change reorders a reduction, the Adam trajectories move, and with them
//! the iteration counts, the constraint-generation rounds, the LPs solved
//! along the way and the last bits of every ratio. This test makes that show
//! up as a unit-test failure on the two Abilene conformance cells instead of
//! as a drifting golden: the counters and the `ProtocolRatios` bits below
//! were recorded on the commit before the kernel was rewritten and must not
//! move without a stated reason.
//!
//! One stated reason so far: since the Base routing's LP starts from the
//! shortest-path trees (`coyote_core::opt_mcf`), its phase one is gone
//! (`lp.pivots` 5,414 → 5,130) and it lands on another optimal vertex — the
//! Base baseline *is* a vertex, so the two `base` ratios were re-recorded
//! (`0x3ff7_1c71_976a_51af` → `0x3ff3_c825_15bf_e23b`, `0x3ffb_a5b3_cbe9_70e6`
//! → `0x3ff8_e26c_9262_7d0c`). The Adam counters and the `ecmp` /
//! `coyote_oblivious` / `coyote_partial` bits did not move.

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{run_conformance, run_sweep, Effort, SweepGrid};
use coyote_obs::{install, uninstall, Registry};
use std::sync::Arc;

/// `Snapshot::deterministic()` counters of `conform --filter Abilene` (at
/// any `--threads`: `obs_pipeline.rs` holds them thread-count invariant).
const PINNED_COUNTERS: [(&str, u64); 4] = [
    ("gp.adam.iterations", 3_742),
    ("gp.adam.runs", 8),
    ("core.cg.rounds", 8),
    ("lp.pivots", 5_130),
];

/// `[ecmp, base, coyote_oblivious, coyote_partial]` as `f64::to_bits`, one
/// row per cell (Abilene/gravity, Abilene/bimodal).
const PINNED_RATIO_BITS: [[u64; 4]; 2] = [
    [
        0x3ff6_8e38_b501_9c08,
        0x3ff3_c825_15bf_e23b,
        0x3ff4_d8e1_05ef_05b2,
        0x3ff4_1910_9b07_71eb,
    ],
    [
        0x3ff9_45b0_8e70_8d5b,
        0x3ff8_e26c_9262_7d0c,
        0x3ff2_3634_969b_aff1,
        0x3ff1_e1c0_8ebc_48ad,
    ],
];

#[test]
fn abilene_cells_reproduce_the_recorded_counters_and_ratio_bits() {
    let grid = SweepGrid::conformance(Effort::Quick).filter("Abilene");
    assert_eq!(grid.len(), 2, "Abilene × {{gravity, bimodal}}");

    // This file holds one test, so nothing else in the process can touch
    // the process-global sink while the registry is installed.
    let registry = Arc::new(Registry::new());
    install(registry.clone());
    let report = run_conformance(&grid, 1, DEFAULT_TOLERANCE);
    uninstall();
    assert!(report.expect("conformance run").all_within_tolerance());

    let counters = registry.snapshot().deterministic().counters;
    let got: Vec<(&str, u64)> = PINNED_COUNTERS
        .iter()
        .map(|&(name, _)| (name, counters.get(name).copied().unwrap_or(0)))
        .collect();
    assert_eq!(got, PINNED_COUNTERS);

    let sweep = run_sweep(&grid, 1).expect("sweep run");
    let bits: Vec<[u64; 4]> = sweep
        .records
        .iter()
        .map(|r| {
            let p = &r.ratios;
            [p.ecmp, p.base, p.coyote_oblivious, p.coyote_partial].map(f64::to_bits)
        })
        .collect();
    assert_eq!(
        bits, PINNED_RATIO_BITS,
        "ProtocolRatios moved in the last bits: {:#018x?}",
        bits
    );
}
