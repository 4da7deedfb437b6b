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
//!
//! The four-protocol counters were first read from the conformance run.
//! Since the conformance engine optimizes the margin box only (no Base LP,
//! no oblivious optimization: no record reads them) they are read from the
//! sweep, which still runs all four and read the same values. The
//! conformance run has a pin of its own.

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{run_conformance, run_sweep, Effort, SweepGrid};
use coyote_obs::{install, uninstall, Registry};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `Snapshot::deterministic()` counters of `sweep --filter Abilene` on the
/// two conformance cells: ECMP, Base, COYOTE-oblivious and COYOTE-partial
/// per cell.
const PINNED_COUNTERS: [(&str, u64); 4] = [
    ("gp.adam.iterations", 3_742),
    ("gp.adam.runs", 8),
    ("core.cg.rounds", 8),
    ("lp.pivots", 5_130),
];

/// `Snapshot::deterministic()` counters of `conform --filter Abilene` (at
/// any `--threads`: `obs_pipeline.rs` holds them thread-count invariant):
/// one COYOTE-partial optimization per cell.
const CONFORM_COUNTERS: [(&str, u64); 5] = [
    ("gp.adam.iterations", 1_742),
    ("gp.adam.runs", 4),
    ("core.cg.rounds", 4),
    ("core.cg.optimizations", 2),
    ("lp.pivots", 4_822),
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

/// Runs `f` with a fresh registry installed and returns its deterministic
/// counters. This file holds one test, so nothing else in the process can
/// touch the process-global sink while the registry is installed.
fn counted<T>(f: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>) {
    let registry = Arc::new(Registry::new());
    install(registry.clone());
    let out = f();
    uninstall();
    (out, registry.snapshot().deterministic().counters)
}

fn read(
    counters: &BTreeMap<String, u64>,
    pinned: &[(&'static str, u64)],
) -> Vec<(&'static str, u64)> {
    pinned
        .iter()
        .map(|&(name, _)| (name, counters.get(name).copied().unwrap_or(0)))
        .collect()
}

#[test]
fn abilene_cells_reproduce_the_recorded_counters_and_ratio_bits() {
    let grid = SweepGrid::conformance(Effort::Quick).filter("Abilene");
    assert_eq!(grid.len(), 2, "Abilene × {{gravity, bimodal}}");

    let (report, counters) = counted(|| run_conformance(&grid, 1, DEFAULT_TOLERANCE));
    assert!(report.expect("conformance run").all_within_tolerance());
    assert_eq!(read(&counters, &CONFORM_COUNTERS), CONFORM_COUNTERS);

    let (sweep, counters) = counted(|| run_sweep(&grid, 1));
    assert_eq!(read(&counters, &PINNED_COUNTERS), PINNED_COUNTERS);
    let bits: Vec<[u64; 4]> = sweep
        .expect("sweep run")
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
