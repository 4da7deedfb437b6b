//! What only the `experiments` command line decides, read back from the
//! files it writes: every report echoes `--threads`, `--compress` selects a
//! lossy level, `--pareto --format csv` writes the whole trade-off table,
//! `--events all` covers the four event kinds, `conform` keeps the
//! committed Abilene verdicts and fake-node counts, and a profiled run's
//! trace names every pipeline stage.
//!
//! Each case runs the binary on the Abilene slice and leaves its output in
//! `CARGO_TARGET_TMPDIR` (`target/tmp`), from where CI uploads it. What the
//! library guarantees on its own is asserted where the library is called:
//! conformance verdicts and compression in `conformance_pipeline.rs`,
//! failure verdicts in `failures_pipeline.rs`, deterministic metrics in
//! `obs_pipeline.rs` and the pinned counters in `splitting_pin.rs`.

use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

/// Where a case writes `name`.
fn artifact(name: &str) -> String {
    format!("{}/{name}", env!("CARGO_TARGET_TMPDIR"))
}

/// Runs `experiments args…`.
fn experiments(args: &[&str]) {
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments runs");
    assert!(
        run.status.success(),
        "experiments {args:?} exited with {}:\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
}

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Runs `experiments args… --format json --out <name>` and reads the report.
fn json_report(name: &str, args: &[&str]) -> Value {
    let out = artifact(name);
    experiments(&[args, &["--format", "json", "--out", &out]].concat());
    read_json(&out)
}

fn number(doc: &Value, key: &str) -> f64 {
    doc.get(key)
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no number {key:?}"))
}

fn records(report: &Value) -> &[Value] {
    let records = report.get("records").and_then(Value::as_array);
    let records = records.expect("a records array");
    assert!(!records.is_empty(), "no records");
    records
}

fn flag(record: &Value, key: &str) -> bool {
    record
        .get(key)
        .and_then(Value::as_bool)
        .unwrap_or_else(|| panic!("no boolean {key:?}"))
}

/// The variant name of an externally tagged enum: `"Within"` or the one
/// key of `{"Degraded": …}`.
fn variant(value: &Value) -> &str {
    match value {
        Value::String(name) => name,
        Value::Object(pairs) if pairs.len() == 1 => &pairs[0].0,
        other => panic!("not an enum variant: {other:?}"),
    }
}

const VERDICTS: [&str; 3] = ["dags_match", "faithful", "within_tolerance"];

/// Checks `report`'s records against `ci/conform-abilene-verdicts.json`,
/// cell by cell (matched on `spec`), on `keys`.
fn assert_baseline_verdicts(report: &Value, keys: &[&str]) {
    let baseline = read_json(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../ci/conform-abilene-verdicts.json"
    ));
    let (want, got) = (records(&baseline), records(report));
    assert_eq!(got.len(), want.len(), "cells");
    for expected in want {
        let id = expected.get("id").and_then(Value::as_str).expect("id");
        let cell = got
            .iter()
            .find(|r| r.get("spec") == expected.get("spec"))
            .unwrap_or_else(|| panic!("{id}: no such cell in the run"));
        for key in keys {
            assert_eq!(cell.get(key), expected.get(key), "{id}: {key}");
        }
    }
}

#[test]
fn sweep_report_echoes_threads() {
    let report = json_report(
        "sweep-report.json",
        &["sweep", "--filter", "Abilene", "--threads", "2"],
    );
    assert_eq!(number(&report, "threads"), 2.0);
    assert!(number(&report, "scenarios") > 0.0);
    records(&report);
}

#[test]
fn conform_report_keeps_the_committed_verdicts() {
    let args = ["conform", "--filter", "Abilene", "--threads", "2"];
    let report = json_report("conform-report.json", &args);
    assert_eq!(number(&report, "threads"), 2.0);
    assert!(number(&report, "cells") > 0.0);
    assert!(records(&report).iter().all(|r| flag(r, "within_tolerance")));
    // The baseline is reproduced exactly, deterministic fake-node count
    // included.
    assert_baseline_verdicts(&report, &[&VERDICTS[..], &["fake_nodes"]].concat());
}

#[test]
fn compress_selects_a_lossy_level_that_keeps_every_verdict() {
    let report = json_report(
        "conform-compressed.json",
        &[
            "conform",
            "--filter",
            "Abilene",
            "--compress",
            "--threads",
            "2",
        ],
    );
    let level = report.get("compression").and_then(Value::as_str);
    assert!(level.is_some_and(|l| l.starts_with("lossy")), "{level:?}");
    assert!(records(&report).iter().all(|r| flag(r, "within_tolerance")));
}

#[test]
fn pareto_csv_has_its_header_and_a_row_per_level() {
    let out = artifact("pareto-abilene.csv");
    let args = [
        "conform",
        "--filter",
        "Abilene",
        "--pareto",
        "--threads",
        "2",
    ];
    experiments(&[&args[..], &["--format", "csv", "--out", &out]].concat());
    let text = std::fs::read_to_string(&out).expect("the CSV was written");
    let lines: Vec<&str> = text.lines().collect();
    assert!(
        lines[0].starts_with("level,epsilon,fake_nodes"),
        "{}",
        lines[0]
    );
    assert!(
        lines.len() >= 7,
        "header + off + lossless + lossy levels: {lines:?}"
    );
}

#[test]
fn failures_report_covers_every_event_kind() {
    let report = json_report(
        "failures-report.json",
        &[
            "failures",
            "--filter",
            "Abilene",
            "--events",
            "all",
            "--threads",
            "2",
        ],
    );
    assert_eq!(number(&report, "threads"), 2.0);
    assert!(number(&report, "cells") > 0.0);
    let records = records(&report);
    for record in records {
        let outcome = variant(record.get("outcome").expect("outcome"));
        assert!(
            ["Within", "Degraded", "Unroutable"].contains(&outcome),
            "{outcome}"
        );
    }
    let kind = |r: &Value| variant(r.get("event").expect("event")).to_string();
    let kinds: BTreeSet<String> = records.iter().map(kind).collect();
    let all = ["DemandSpike", "LinkFailure", "NodeFailure", "SrlgFailure"];
    assert_eq!(kinds, BTreeSet::from(all.map(String::from)));
    // Abilene is 2-edge-connected: a single link failure loses no demand.
    for link in records.iter().filter(|r| kind(r) == "LinkFailure") {
        assert!(link
            .get("degradation_ratio")
            .and_then(Value::as_f64)
            .is_some());
        assert_eq!(number(link, "unroutable_volume"), 0.0);
    }
}

#[test]
fn profile_trace_names_every_pipeline_stage() {
    let (trace, metrics) = (artifact("trace.json"), artifact("metrics.json"));
    experiments(&[
        "conform",
        "--filter",
        "Abilene",
        "--threads",
        "2",
        "--profile",
        "--metrics-out",
        &metrics,
        "--trace-out",
        &trace,
    ]);
    let events = read_json(&trace);
    let events = events
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("traceEvents");
    let names: BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    for stage in ["conform.cell", "ospf.compile", "lp.solve", "sim.flowsim"] {
        assert!(names.contains(stage), "no {stage} span in {names:?}");
    }
    let counters = read_json(&metrics);
    let pivots = counters.get("counters").and_then(|c| c.get("lp.pivots"));
    assert!(pivots.and_then(Value::as_f64).is_some_and(|n| n > 0.0));
}
