//! Exporters: chrome://tracing JSON and the metrics snapshot as JSON.
//!
//! Both print through the vendored `serde_json`, the workspace's one JSON
//! writer, and emit keys in deterministic order: trace events are sorted by
//! `(start, lane)`, metric sections iterate `BTreeMap`s. Two profiled runs
//! of the same workload therefore produce diffable output, and the
//! `counters` / `histograms` sections are bit-identical across `--threads`
//! values.

use crate::registry::{Registry, Snapshot, TraceEvent};
use std::fmt::Write as _;

/// Serializes the registry's trace buffer in the chrome://tracing "JSON
/// array" format (also accepted by Perfetto): one complete (`"ph": "X"`)
/// event per span, `pid` fixed at 1, one `tid` lane per recording thread,
/// timestamps in microseconds since the registry epoch. Events are printed
/// one at a time, so a long trace is never held twice as a `Value` tree.
pub fn chrome_trace_json(registry: &Registry) -> String {
    let mut events = registry.trace_events();
    events.sort_by_key(|e| (e.start_ns, e.lane, std::cmp::Reverse(e.dur_ns)));
    let mut out = String::with_capacity(events.len() * 96 + 64);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, event) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_trace_event(&mut out, event);
    }
    out.push_str("]}");
    out
}

fn write_trace_event(out: &mut String, event: &TraceEvent) {
    let name = serde_json::to_string(event.name).expect("printing a string cannot fail");
    let _ = write!(
        out,
        "{{\"name\":{name},\"cat\":\"coyote\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}}}}}",
        event.lane,
        Micros(event.start_ns),
        Micros(event.dur_ns),
        event.depth
    );
}

/// Nanoseconds rendered as decimal microseconds with nanosecond precision.
struct Micros(u64);

impl std::fmt::Display for Micros {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let micros = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            write!(f, "{micros}")
        } else {
            write!(f, "{micros}.{frac:03}")
        }
    }
}

/// Serializes a metrics snapshot as pretty-printed JSON with four sections
/// (`counters`, `gauges`, `histograms`, `timings`), each with sorted keys;
/// a histogram is `{count, sum, min, max, buckets}`, its buckets
/// `[lower bound, count]` pairs.
///
/// `counters` and `histograms` record deterministic work quantities and
/// compare bit-identical across `--threads` values; `timings` holds wall
/// time and varies run to run — strip it (see
/// [`Snapshot::deterministic`]) before diffing two runs.
pub fn metrics_json(snapshot: &Snapshot) -> String {
    serde_json::to_string_pretty(snapshot).expect("printing a snapshot cannot fail") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use std::sync::Arc;

    #[test]
    fn micros_formats_nanosecond_precision() {
        assert_eq!(Micros(0).to_string(), "0");
        assert_eq!(Micros(1_000).to_string(), "1");
        assert_eq!(Micros(1_234).to_string(), "1.234");
        assert_eq!(Micros(999).to_string(), "0.999");
    }

    #[test]
    fn trace_names_are_escaped() {
        let registry = Registry::new();
        registry.record_span("a\"b\\c\nd\u{1}", 1_500, 2_000, 0);
        let trace = serde_json::from_str(&chrome_trace_json(&registry)).unwrap();
        let events = trace.get("traceEvents").and_then(Value::as_array).unwrap();
        let names: Vec<_> = events
            .iter()
            .filter_map(|e| e.get("name")?.as_str())
            .collect();
        assert!(names.contains(&"a\"b\\c\nd\u{1}"), "{names:?}");
    }

    #[test]
    fn empty_registry_exports_empty_sections() {
        let registry = Registry::new();
        assert_eq!(
            chrome_trace_json(&registry),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        let json = metrics_json(&registry.snapshot());
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"timings\": {}"));
    }

    #[test]
    fn metrics_json_orders_keys_deterministically() {
        let registry = Registry::new();
        registry.counter("z.last", 1);
        registry.counter("a.first", 2);
        registry.observe("m.hist", 3);
        registry.gauge("g.value", 0.5);
        let json = metrics_json(&Arc::new(registry).snapshot());
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z);
        let doc = serde_json::from_str(&json).unwrap();
        let sections: Vec<_> = match &doc {
            Value::Object(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("{json}"),
        };
        assert_eq!(sections, ["counters", "gauges", "histograms", "timings"]);
        assert_eq!(
            doc.get("gauges").and_then(|g| g.get("g.value")?.as_f64()),
            Some(0.5)
        );
        let hist = doc.get("histograms").and_then(|h| h.get("m.hist")).unwrap();
        let field = |k| hist.get(k).and_then(Value::as_f64);
        assert_eq!(
            [field("count"), field("sum"), field("min"), field("max")],
            [Some(1.0), Some(3.0), Some(3.0), Some(3.0)]
        );
        let pair = |lo: f64, n: f64| Value::Array(vec![Value::Float(lo), Value::Float(n)]);
        assert_eq!(
            hist.get("buckets"),
            Some(&Value::Array(vec![pair(2.0, 1.0)]))
        );
    }
}
