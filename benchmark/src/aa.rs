//! Full sets and the A/A harness.
//!
//! A *set* is every workload, untraced then traced, each run in its own
//! child process (fresh allocator, fresh process-wide caches, its own peak
//! RSS). The A/A harness runs two sets of one build back to back and holds
//! the benchmark to its own rules: every end-to-end metric agrees within
//! its bound, and every work counter and deterministic metric agrees
//! exactly.

use crate::harness::Options;
use crate::metrics::{metric, WORKLOADS};
use coyote_serve::json::{self, JsonValue};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};

/// Metric values of one run, by name.
pub type Values = BTreeMap<String, f64>;

/// The results of one set: `(workload, traced)` → values.
pub type SetResult = BTreeMap<(String, bool), Values>;

/// Parses a run's result line into its metric values; `Err` when the run
/// reported itself incorrect.
pub fn parse_result_line(line: &str) -> Result<Values, String> {
    let doc = json::parse(line).map_err(|e| format!("result line is not JSON: {e}"))?;
    if doc.get("correct").and_then(JsonValue::as_bool) != Some(true) {
        return Err("run reported correct = false".into());
    }
    let JsonValue::Object(metrics) = doc.get("metrics").ok_or("result line has no metrics")? else {
        return Err("metrics is not an object".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            m.get("value")
                .and_then(JsonValue::as_f64)
                .map(|v| (name.clone(), v))
                .ok_or_else(|| format!("metric {name} has no numeric value"))
        })
        .collect()
}

/// Runs one workload in a child process, echoing its report; returns the
/// metric values of its result line.
fn run_child(workload: &str, traced: bool, opts: &Options) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&opts.out_dir)
        .stdout(Stdio::piped());
    if let Some(reps) = opts.reps {
        command.args(["--reps", &reps.to_string()]);
    }
    if opts.smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().map_err(|e| e.to_string())?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| e.to_string())?;
        println!("{line}");
        last = line;
    }
    let status = child.wait().map_err(|e| e.to_string())?;
    if !status.success() {
        return Err(format!(
            "{workload} (trace {}) exited with {status}",
            traced as u8
        ));
    }
    parse_result_line(&last).map_err(|e| format!("{workload} (trace {}): {e}", traced as u8))
}

/// Runs the selected workloads and trace modes, one child process each.
pub fn run_set(
    opts: &Options,
    workload: Option<&str>,
    traced: Option<bool>,
) -> Result<SetResult, String> {
    let mut results = SetResult::new();
    for w in WORKLOADS
        .iter()
        .filter(|w| workload.is_none_or(|only| only == w.name))
    {
        for mode in [false, true] {
            if traced.is_none_or(|only| only == mode) {
                println!("=== {} (trace {}) ===", w.name, mode as u8);
                results.insert((w.name.to_string(), mode), run_child(w.name, mode, opts)?);
            }
        }
    }
    Ok(results)
}

/// Compares two sets of one build: prints one row per (metric, workload)
/// and returns how many rows break the benchmark's rules.
pub fn compare(first: &SetResult, second: &SetResult) -> usize {
    let mut broken = 0;
    println!(
        "{:<16} {:<34} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "rel.diff", "bound"
    );
    for (key, a_values) in first {
        let workload = &key.0;
        let Some(b_values) = second.get(key) else {
            continue;
        };
        for (name, &a) in a_values {
            let Some(&b) = b_values.get(name) else {
                continue;
            };
            let Some(info) = metric(name) else { continue };
            let diff = (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            let (ok, rule) = match (info.exact, info.bound) {
                (true, _) => (a == b, "exact".to_string()),
                (false, Some(bound)) => (diff <= bound, format!("{bound}")),
                (false, None) => (true, "-".to_string()),
            };
            println!(
                "{workload:<16} {name:<34} {a:>16.6} {b:>16.6} {:>8.2}% {rule:>7}{}",
                100.0 * diff,
                if ok { "" } else { "  <-- DISAGREES" }
            );
            broken += usize::from(!ok);
        }
    }
    broken
}

/// Runs two full sets into `out/aa1` and `out/aa2` and compares them.
pub fn run_aa(opts: &Options) -> Result<(), String> {
    let set = |dir: &str| {
        run_set(
            &Options {
                out_dir: Path::new(&opts.out_dir).join(dir),
                ..opts.clone()
            },
            None,
            None,
        )
    };
    let first = set("aa1")?;
    let second = set("aa2")?;
    let broken = compare(&first, &second);
    if broken == 0 {
        println!("A/A: the two sets agree");
        Ok(())
    } else {
        Err(format!("A/A: {broken} (metric, workload) pairs disagree"))
    }
}
