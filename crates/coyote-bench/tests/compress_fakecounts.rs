//! Golden-baseline regression test for the program-compression pass:
//! `ci/compress-fakecounts.json` pins per-cell fake-node counts for the
//! full 28-cell conformance grid, uncompressed vs lossy(0.02) compressed.
//!
//! Two layers of protection:
//!
//! * the baseline file itself must stay internally consistent (28 cells,
//!   totals equal to the per-cell sums, every cell within tolerance, and
//!   an overall compression ratio of at least 10x) — this runs on every
//!   `cargo test` and catches hand-edits or a stale regeneration;
//! * the Abilene and NSF cells are recomputed through the real pipeline at
//!   both compression levels and must reproduce the pinned counts exactly
//!   — fake-node counts are integers produced by a deterministic compile,
//!   so any drift in the compiler or the compression pass shows up as a
//!   hard failure, not an epsilon miss.
//!
//! The file is regenerated by the command in its own `description` field.

use std::collections::BTreeMap;

use coyote_bench::conformance::DEFAULT_TOLERANCE;
use coyote_bench::{conformance_record_with, BaseModel, Effort, SweepSpec, WeightHeuristic};
use coyote_ospf::CompressionLevel;
use serde_json::Value;

/// One pinned grid cell from `ci/compress-fakecounts.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PinnedCell {
    uncompressed_fake_nodes: usize,
    compressed_fake_nodes: usize,
    compressed_prefix_advertisements: usize,
    within_tolerance: bool,
}

#[derive(Debug)]
struct Baseline {
    tolerance: f64,
    epsilon: f64,
    total_uncompressed: usize,
    total_compressed: usize,
    total_advertisements: usize,
    cells: BTreeMap<String, PinnedCell>,
}

/// A non-negative integer member of a baseline object.
fn count(object: &Value, key: &str) -> usize {
    let n = object
        .get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("baseline is missing the number {key:?}"));
    assert!(n >= 0.0 && n.fract() == 0.0, "bad integer {n} for {key:?}");
    n as usize
}

fn load_baseline() -> Baseline {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/compress-fakecounts.json"
    );
    let text = std::fs::read_to_string(path).expect("ci/compress-fakecounts.json is checked in");
    let doc = serde_json::from_str(&text).expect("baseline is valid JSON");
    let member = |key: &str| {
        doc.get(key)
            .unwrap_or_else(|| panic!("baseline lacks {key:?}"))
    };

    let totals = member("totals");
    let Value::Object(cells) = member("cells") else {
        panic!("baseline \"cells\" is not an object");
    };
    Baseline {
        tolerance: member("tolerance").as_f64().expect("tolerance"),
        epsilon: member("epsilon").as_f64().expect("epsilon"),
        total_uncompressed: count(totals, "uncompressed_fake_nodes"),
        total_compressed: count(totals, "compressed_fake_nodes"),
        total_advertisements: count(totals, "compressed_prefix_advertisements"),
        cells: cells
            .iter()
            .map(|(id, cell)| {
                let pinned = PinnedCell {
                    uncompressed_fake_nodes: count(cell, "uncompressed_fake_nodes"),
                    compressed_fake_nodes: count(cell, "compressed_fake_nodes"),
                    compressed_prefix_advertisements: count(
                        cell,
                        "compressed_prefix_advertisements",
                    ),
                    within_tolerance: cell
                        .get("within_tolerance")
                        .and_then(Value::as_bool)
                        .unwrap_or_else(|| panic!("{id}: no within_tolerance verdict")),
                };
                (id.clone(), pinned)
            })
            .collect(),
    }
}

fn cell_key(spec: &SweepSpec) -> String {
    let model = match spec.model {
        BaseModel::Gravity => "Gravity",
        BaseModel::Bimodal => "Bimodal",
    };
    format!("{}/{}/m{:.1}", spec.topology, model, spec.margin)
}

#[test]
fn the_golden_baseline_is_internally_consistent() {
    let base = load_baseline();
    assert_eq!(base.cells.len(), 28, "the conformance grid has 28 cells");
    assert_eq!(base.tolerance, DEFAULT_TOLERANCE);
    assert_eq!(base.epsilon, coyote_ospf::DEFAULT_EPSILON);

    let sum_un: usize = base.cells.values().map(|c| c.uncompressed_fake_nodes).sum();
    let sum_co: usize = base.cells.values().map(|c| c.compressed_fake_nodes).sum();
    let sum_ad: usize = base
        .cells
        .values()
        .map(|c| c.compressed_prefix_advertisements)
        .sum();
    assert_eq!(
        sum_un, base.total_uncompressed,
        "uncompressed total drifted from cells"
    );
    assert_eq!(
        sum_co, base.total_compressed,
        "compressed total drifted from cells"
    );
    assert_eq!(
        sum_ad, base.total_advertisements,
        "advertisement total drifted from cells"
    );

    for (id, cell) in &base.cells {
        assert!(
            cell.within_tolerance,
            "{id}: pinned run was out of tolerance"
        );
        assert!(
            cell.compressed_fake_nodes <= cell.uncompressed_fake_nodes,
            "{id}: compression grew the program"
        );
        assert!(
            cell.compressed_fake_nodes <= cell.compressed_prefix_advertisements,
            "{id}: a fake node carries at least one advertisement"
        );
    }

    // The headline acceptance number: >= 10x fewer fakes across the grid.
    assert!(
        base.total_compressed * 10 <= base.total_uncompressed,
        "compression ratio fell below 10x: {} -> {}",
        base.total_uncompressed,
        base.total_compressed
    );
}

/// Recomputes the cheap cells (Abilene + NSF, both demand models) through
/// the real compile-and-simulate pipeline and checks the pinned counts
/// byte-for-byte. The remaining 24 cells are covered by the benchmark's
/// `conform-grid` workload, whose `lies` is the grid's total fake count.
#[test]
fn recomputed_cells_match_the_pinned_fake_counts() {
    let base = load_baseline();
    for topology in ["Abilene", "NSF"] {
        for model in [BaseModel::Gravity, BaseModel::Bimodal] {
            let spec = SweepSpec {
                topology: topology.to_string(),
                model,
                margin: 2.0,
                heuristic: WeightHeuristic::InverseCapacity,
                effort: Effort::Quick,
            };
            let key = cell_key(&spec);
            let pinned = base
                .cells
                .get(&key)
                .unwrap_or_else(|| panic!("{key} missing from baseline"));

            let plain = conformance_record_with(&spec, DEFAULT_TOLERANCE, CompressionLevel::Off)
                .expect("uncompressed cell");
            assert_eq!(
                plain.fake_nodes, pinned.uncompressed_fake_nodes,
                "{key}: uncompressed fake count drifted"
            );
            assert!(
                plain.within_tolerance,
                "{key}: uncompressed verdict flipped"
            );

            let lossy = conformance_record_with(
                &spec,
                DEFAULT_TOLERANCE,
                CompressionLevel::Lossy {
                    epsilon: base.epsilon,
                },
            )
            .expect("compressed cell");
            assert_eq!(
                lossy.fake_nodes, pinned.compressed_fake_nodes,
                "{key}: compressed fake count drifted"
            );
            assert_eq!(
                lossy.prefix_advertisements, pinned.compressed_prefix_advertisements,
                "{key}: compressed advertisement count drifted"
            );
            assert!(lossy.within_tolerance, "{key}: compressed verdict flipped");
        }
    }
}
