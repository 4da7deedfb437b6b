//! `ci/results.json` is the paper's numbers as this repository reproduces
//! them: the output of
//!
//! ```text
//! experiments all --format json --threads 1 --out ci/results.json
//! ```
//!
//! (quick configuration, no wall-clock field anywhere). CI regenerates the
//! whole file in release and diffs it; this test keeps the shape and the
//! cheap sections honest on every `cargo test`: one JSON document, one key
//! per registry entry in registry order, and `fig1`, `gadget`, `lowerbound`,
//! `fig12` and the Abilene rows of `table1` regenerated and compared as
//! serialized text — every digit of every number.

use coyote_bench::{artefact, run_sweep, Effort, ARTEFACTS};

const RESULTS: &str = include_str!("../../../ci/results.json");

/// `value` pretty-printed as it appears `depth` levels into the document.
fn nested(value: &impl serde::Serialize, depth: usize) -> String {
    let indent = "  ".repeat(depth);
    let pretty = serde_json::to_string_pretty(value).expect("the JSON shim is infallible");
    format!("{indent}{}", pretty.replace('\n', &format!("\n{indent}")))
}

#[test]
fn results_file_is_one_document_keyed_by_artefact_in_registry_order() {
    let parsed = serde_json::from_str(RESULTS).expect("ci/results.json is one JSON document");
    let names: Vec<&str> = ARTEFACTS.iter().map(|a| a.name()).collect();
    for name in &names {
        assert!(parsed.get(name).is_some(), "no {name} section");
    }
    let keys: Vec<&str> = RESULTS
        .lines()
        .filter_map(|line| line.strip_prefix("  \""))
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    assert_eq!(keys, names, "top-level keys, in file order");
    assert!(
        !RESULTS.contains("wall"),
        "no wall-clock field in any section"
    );
}

#[test]
fn cheap_sections_regenerate_to_the_committed_text() {
    for name in ["fig1", "gadget", "lowerbound", "fig12"] {
        let entry = artefact(name).expect("registry entry");
        let rendered = entry.run(Effort::Quick, 1).expect(name);
        let section = format!("  \"{name}\": {}", nested(rendered.json(), 1).trim_start());
        assert!(
            RESULTS.contains(&section),
            "{name} drifted from ci/results.json:\n{section}"
        );
    }
}

#[test]
fn table1_abilene_rows_regenerate_to_the_committed_text() {
    let grid = artefact("table1")
        .and_then(|a| a.grid(Effort::Quick))
        .expect("table1 is a grid selection")
        .filter("Abilene");
    assert_eq!(grid.len(), 4);
    let table1 = &RESULTS[RESULTS.find("  \"table1\": [").expect("table1 section")..];
    for record in run_sweep(&grid, 1).expect("sweep").records {
        let row = nested(&record.ratios, 2);
        assert!(
            table1.contains(&row),
            "table1 row drifted from ci/results.json:\n{row}"
        );
    }
}
