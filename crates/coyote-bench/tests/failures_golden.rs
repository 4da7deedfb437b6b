//! `ci/failures-abilene.json` pins the failure engine on one scenario:
//! Abilene (gravity, margin 2.0, inverse-capacity weights, quick effort)
//! crossed with every event class under the default seed — 39 link, node,
//! SRLG and flash-crowd cells. Every record is its
//! [`FailureRecord::deterministic_view`] and the report's own `wall_secs` is
//! zeroed, so the file is a pure function of the code.
//!
//! The test regenerates the report and compares the pretty-printed text
//! byte for byte: every verdict, utilization, drop rate and fake-LSA delta
//! of both the oblivious and the re-optimized mode, to the last digit. On a
//! mismatch the regenerated text is written to
//! `target/tmp/failures-abilene.json`; a deliberate change copies it over
//! the committed file.
//!
//! [`FailureRecord::deterministic_view`]: coyote_bench::FailureRecord::deterministic_view

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{run_failures, Effort, EventClass, FailureGrid, FailureReport};

const GOLDEN: &str = include_str!("../../../ci/failures-abilene.json");

fn regenerate() -> String {
    let grid = FailureGrid::standard(Effort::Quick, EventClass::All)
        .expect("standard failure grid")
        .filter("Abilene/gravity");
    assert_eq!(
        grid.len(),
        39,
        "Abilene: 14 links, 11 nodes, 11 SRLGs, 3 spikes"
    );
    let report = run_failures(&grid, 1, DEFAULT_TOLERANCE).expect("failure run");
    let report = FailureReport {
        wall_secs: 0.0,
        records: report
            .records
            .iter()
            .map(|r| r.deterministic_view())
            .collect(),
        ..report
    };
    serde_json::to_string_pretty(&report).expect("report serializes") + "\n"
}

#[test]
fn abilene_failure_report_regenerates_byte_for_byte() {
    let text = regenerate();
    if text != GOLDEN {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp");
        std::fs::create_dir_all(dir).expect("target/tmp");
        let path = format!("{dir}/failures-abilene.json");
        std::fs::write(&path, &text).expect("write the regenerated report");
        let line = text
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .map_or_else(|| "the length".to_string(), |i| format!("line {}", i + 1));
        panic!("ci/failures-abilene.json drifted at {line}; regenerated text in {path}");
    }
}
