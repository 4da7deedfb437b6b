//! `BENCHMARK.json` and the binary declare the same benchmark: every
//! workload and metric name the binary can print is in the file and vice
//! versa, with the same unit, direction and bound, inside the contract's
//! limits.

use coyote_benchmark::harness::Options;
use coyote_benchmark::metrics::{Better, MetricInfo, END_TO_END, PER_LAYER, WORKLOADS};
use coyote_serve::json;
use serde_json::Value;
use std::collections::BTreeSet;

const COMMAND: [&str; 9] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
    "run",
];

fn string(s: &str) -> Value {
    Value::String(s.to_string())
}

fn metric_json(m: &MetricInfo) -> Value {
    let mut fields = vec![
        ("name".to_string(), string(m.name)),
        ("unit".to_string(), string(m.unit)),
        ("better".to_string(), string(m.better.name())),
    ];
    if let Some(bound) = m.bound {
        fields.push(("bound".to_string(), Value::Float(bound)));
    }
    Value::Object(fields)
}

/// What `BENCHMARK.json` must say, given `src/metrics.rs`.
fn expected() -> String {
    let seconds = Options::default().seconds;
    assert_eq!(seconds.fract(), 0.0, "run_seconds is a whole number");
    let doc = Value::Object(vec![
        (
            "command".into(),
            Value::Array(COMMAND.iter().map(|s| string(s)).collect()),
        ),
        ("paths".into(), Value::Array(vec![string("benchmark")])),
        ("run_seconds".into(), Value::UInt(seconds as u64)),
        (
            "workloads".into(),
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::Object(vec![
                            ("name".into(), string(w.name)),
                            ("why".into(), string(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Value::Array(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer".into(),
            Value::Array(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ]);
    serde_json::to_string_pretty(&doc).expect("infallible") + "\n"
}

#[test]
fn benchmark_json_declares_exactly_what_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    let want = expected();
    assert!(
        json::parse(&text).expect("BENCHMARK.json parses") == json::parse(&want).expect("parses"),
        "BENCHMARK.json is out of step with src/metrics.rs; it should read:\n{want}"
    );
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn names_units_and_counts_respect_the_contract() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut seen = BTreeSet::new();
    for w in WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
        assert!(
            w.why.len() <= 200 && !w.why.contains('\n'),
            "{}: why",
            w.name
        );
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{}: unit {}", m.name, m.unit);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    for m in END_TO_END {
        let bound = m.bound.expect("end-to-end metrics have a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    // Set-up time is its own metric and has the largest bound.
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}
