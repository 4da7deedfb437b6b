//! The core guarantee of the parallel sweep engine: thread count changes
//! wall-clock time, never results. A parallel sweep must produce exactly
//! the same `ProtocolRatios` — bit-for-bit, not approximately — as the
//! serial path, in the same (grid) order.

use coyote_bench::{run_sweep, BaseModel, Effort, SweepGrid, WeightHeuristic};

fn small_grid() -> SweepGrid {
    SweepGrid::cross(
        &["Abilene", "NSF"],
        &[BaseModel::Gravity],
        &[1.0, 2.0],
        &[WeightHeuristic::InverseCapacity],
        Effort::Quick,
    )
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let grid = small_grid();
    let serial = run_sweep(&grid, 1).expect("serial sweep");
    let parallel = run_sweep(&grid, 4).expect("parallel sweep");

    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    assert_eq!(serial.records.len(), grid.len());
    assert_eq!(parallel.records.len(), grid.len());

    for (s, p) in serial.records.iter().zip(&parallel.records) {
        // Same grid cell in the same position...
        assert_eq!(s.spec, p.spec);
        // ...and exactly the same numbers. `ProtocolRatios` derives
        // `PartialEq` over raw `f64`s, so this is bit-for-bit equality,
        // not an epsilon comparison.
        assert_eq!(s.ratios, p.ratios, "diverged on {}", s.spec.id());
    }
}

#[test]
fn sweep_report_is_ordered_and_timed() {
    let grid = small_grid().filter("abilene");
    assert_eq!(grid.len(), 2);
    let report = run_sweep(&grid, 2).expect("sweep");
    assert_eq!(report.scenarios, 2);
    assert!(report.wall_secs > 0.0);
    for (spec, record) in grid.specs.iter().zip(&report.records) {
        assert_eq!(spec, &record.spec);
        assert!(record.wall_secs > 0.0);
    }
    // The report serializes (the CI smoke uploads it as an artifact).
    let json = serde_json::to_string_pretty(&report).expect("serialize");
    assert!(json.contains("\"records\""));
    assert!(json.contains("Abilene"));
}
