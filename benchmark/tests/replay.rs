//! The staged replay the traced `conform-grid` run is built on must be the
//! program's own pipeline, not a look-alike.

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{conformance_record, Effort, SweepGrid};
use coyote_benchmark::trace::Recorder;
use coyote_benchmark::workloads::conform_grid::replay_cell;

#[test]
fn abilene_staged_replay_equals_conformance_record() {
    let grid = SweepGrid::conformance(Effort::Quick).filter("Abilene");
    assert_eq!(grid.len(), 2);
    for spec in &grid.specs {
        let want = conformance_record(spec, DEFAULT_TOLERANCE).expect("conformance_record");
        let got = replay_cell(&mut Recorder::off(), spec, DEFAULT_TOLERANCE).expect("replay");
        assert_eq!(
            got.record.deterministic_view(),
            want.deterministic_view(),
            "{}",
            spec.id()
        );
        assert!(got.partial_ratio >= 1.0 - 1e-6);
    }
}
