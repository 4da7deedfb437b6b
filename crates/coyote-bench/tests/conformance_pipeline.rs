//! The conformance engine's end-to-end guarantees, following the pattern of
//! `sweep_determinism.rs`:
//!
//! * on real zoo topologies × both demand models, the configuration the
//!   Fibbing program realizes behaves like the intended optimized routing —
//!   matching DAGs, split error within tolerance, and intended-vs-realized
//!   max-utilization / drop-rate deltas within tolerance on both the base
//!   and the worst-case demand matrix;
//! * thread count changes wall-clock time only: a `threads = 4` conformance
//!   run is bit-identical to `threads = 1`, record for record.

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{
    run_conformance, run_conformance_with, BaseModel, Effort, SweepGrid, WeightHeuristic,
};
use coyote_ospf::{CompressionLevel, DEFAULT_EPSILON};

fn small_grid() -> SweepGrid {
    SweepGrid::cross(
        &["Abilene", "NSF"],
        &[BaseModel::Gravity, BaseModel::Bimodal],
        &[2.0],
        &[WeightHeuristic::InverseCapacity],
        Effort::Quick,
    )
}

#[test]
fn realized_routing_conforms_on_abilene_and_nsf_under_both_models() {
    let grid = small_grid();
    assert_eq!(grid.len(), 4, "2 topologies x 2 models");
    let report = run_conformance(&grid, 0, DEFAULT_TOLERANCE).expect("conformance run");
    assert_eq!(report.cells, 4);

    for record in &report.records {
        let id = record.spec.id();
        assert!(record.dags_match, "{id}: realized DAGs diverged");
        assert!(
            record.faithful,
            "{id}: split error {} above tolerance",
            record.max_split_error
        );
        assert!(
            record.max_utilization_delta <= DEFAULT_TOLERANCE,
            "{id}: max-utilization delta {} above {DEFAULT_TOLERANCE}",
            record.max_utilization_delta
        );
        assert!(
            record.drop_rate_delta <= DEFAULT_TOLERANCE,
            "{id}: drop-rate delta {} above {DEFAULT_TOLERANCE}",
            record.drop_rate_delta
        );
        assert!(record.within_tolerance, "{id}: verdict failed");
        // The simulated steady states are physical: nothing over-delivered,
        // nothing over capacity.
        for mc in [&record.base, &record.worst] {
            for s in [&mc.intended, &mc.realized] {
                assert!(s.delivered <= s.offered + 1e-9, "{id}");
                assert!(s.max_utilization <= 1.0 + 1e-9, "{id}");
                assert!((0.0..=1.0).contains(&s.drop_rate), "{id}");
            }
        }
    }
    assert!(report.all_within_tolerance());
    assert_eq!(report.pass_count(), 4);
}

#[test]
fn parallel_conformance_is_bit_identical_to_serial() {
    let grid = small_grid();
    let serial = run_conformance(&grid, 1, DEFAULT_TOLERANCE).expect("serial run");
    let parallel = run_conformance(&grid, 4, DEFAULT_TOLERANCE).expect("parallel run");

    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    assert_eq!(serial.records.len(), grid.len());
    assert_eq!(parallel.records.len(), grid.len());

    for (s, p) in serial.records.iter().zip(&parallel.records) {
        // Same grid cell in the same position, with exactly the same
        // numbers. The record types derive `PartialEq` over raw `f64`s, so
        // comparing through `deterministic_view` (which neutralizes the
        // only timing field) is bit-for-bit equality, not an epsilon
        // comparison. The CI bit-identity assertion compares the same view.
        assert_eq!(s.spec, p.spec);
        assert_eq!(
            s.deterministic_view(),
            p.deterministic_view(),
            "diverged on {}",
            s.spec.id()
        );
    }

    // The reports serialize (the CI smoke uploads one as an artifact).
    let json = serde_json::to_string_pretty(&parallel).expect("serialize");
    assert!(json.contains("\"records\""));
    assert!(json.contains("\"within_tolerance\""));
}

/// The `--compress` path is differential against the plain path: the same
/// grid compiled at `lossy(DEFAULT_EPSILON)` must keep every cell's
/// verdict while shrinking the lie programs by at least 10x in aggregate —
/// the end-to-end form of the per-program equivalence proved by
/// `coyote-ospf/tests/compress_props.rs`.
#[test]
fn compressed_conformance_keeps_verdicts_with_an_order_fewer_fakes() {
    let grid = small_grid();
    let plain = run_conformance(&grid, 1, DEFAULT_TOLERANCE).expect("plain run");
    let level = CompressionLevel::Lossy {
        epsilon: DEFAULT_EPSILON,
    };
    let compressed = run_conformance_with(&grid, 1, DEFAULT_TOLERANCE, level).expect("lossy run");

    assert_eq!(plain.compression, "off");
    assert_eq!(compressed.compression, level.label());
    assert_eq!(plain.records.len(), compressed.records.len());

    for (p, c) in plain.records.iter().zip(&compressed.records) {
        let id = p.spec.id();
        assert_eq!(p.spec, c.spec);
        // Verdicts survive compression cell by cell, not just in aggregate.
        assert_eq!(
            p.within_tolerance, c.within_tolerance,
            "{id}: compression flipped the verdict"
        );
        assert!(c.dags_match, "{id}: compression changed the DAG support");
        assert!(
            c.max_split_error <= p.max_split_error.max(DEFAULT_EPSILON) + 1e-9,
            "{id}: compressed split error {} beyond max(plain {}, epsilon)",
            c.max_split_error,
            p.max_split_error
        );
        assert!(
            c.fake_nodes <= p.fake_nodes,
            "{id}: compression grew the program"
        );
        // The plain compiler never shares fakes, so its advertisement count
        // equals its fake count; the compressed one packs several prefixes
        // onto each fake.
        assert_eq!(p.prefix_advertisements, p.fake_nodes, "{id}");
        assert!(c.fake_nodes <= c.prefix_advertisements, "{id}");
    }

    let before = plain.total_fake_nodes();
    let after = compressed.total_fake_nodes();
    assert!(
        after * 10 <= before,
        "aggregate compression below 10x: {before} -> {after}"
    );
    assert!(compressed.all_within_tolerance());
}

/// Thread count stays timing-only under compression: a compressed
/// `threads = 4` run is bit-identical to `threads = 1`, record for record,
/// exactly like the uncompressed guarantee above.
#[test]
fn compressed_conformance_is_bit_identical_across_thread_counts() {
    let grid = small_grid();
    let level = CompressionLevel::Lossy {
        epsilon: DEFAULT_EPSILON,
    };
    let serial = run_conformance_with(&grid, 1, DEFAULT_TOLERANCE, level).expect("serial run");
    let parallel = run_conformance_with(&grid, 4, DEFAULT_TOLERANCE, level).expect("parallel run");

    assert_eq!(serial.threads, 1);
    assert_eq!(parallel.threads, 4);
    for (s, p) in serial.records.iter().zip(&parallel.records) {
        assert_eq!(s.spec, p.spec);
        assert_eq!(
            s.deterministic_view(),
            p.deterministic_view(),
            "compressed run diverged on {}",
            s.spec.id()
        );
    }
}
