//! # coyote-obs
//!
//! Observability for the COYOTE pipeline: hierarchical timed spans,
//! monotonic counters and log2-bucketed histograms behind a
//! thread-safe [`Registry`], with two exporters — [`chrome_trace_json`]
//! (open in chrome://tracing or Perfetto) and [`metrics_json`] (sorted,
//! diffable) — that print through the vendored `serde_json`.
//!
//! ## Zero cost when disabled
//!
//! All recording goes through a global sink that defaults to *absent*:
//! every free function here first checks a relaxed atomic flag and returns
//! immediately when no registry is installed. Hot paths (the simplex pivot
//! loop) additionally accumulate counts in plain local integers and report
//! once per solve, so enabling profiling does not perturb what it measures.
//!
//! ## Determinism
//!
//! `counters` and `histograms` record *work quantities* (pivots, LP solves,
//! fake nodes, flow-sim rounds). Totals are sums of per-item contributions
//! and addition commutes, so these sections are bit-identical across
//! `--threads` values. Wall time lives in the separate `timings` section
//! (and the trace); strip it via [`Snapshot::deterministic`] when
//! comparing runs.
//!
//! ```
//! use std::sync::Arc;
//!
//! let registry = Arc::new(coyote_obs::Registry::new());
//! coyote_obs::install(registry.clone());
//! {
//!     let _span = coyote_obs::span("demo.stage");
//!     coyote_obs::counter("demo.items", 3);
//!     coyote_obs::observe("demo.size", 128);
//! }
//! coyote_obs::uninstall();
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["demo.items"], 3);
//! assert_eq!(snapshot.timings["demo.stage"].count, 1);
//! let trace = coyote_obs::chrome_trace_json(&registry);
//! assert!(trace.contains("demo.stage"));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod span;

pub use export::{chrome_trace_json, metrics_json};
pub use hist::{bucket_index, bucket_lower_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{enabled, install, installed, uninstall, Registry, Snapshot, TraceEvent};
pub use span::Span;

/// Adds `delta` to the counter `name`; no-op when profiling is disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    registry::with_sink(|r| r.counter(name, delta));
}

/// Records `value` into the deterministic value histogram `name`; no-op
/// when profiling is disabled.
#[inline]
pub fn observe(name: &str, value: u64) {
    registry::with_sink(|r| r.observe(name, value));
}

/// Records a duration into the (non-deterministic) timing histogram
/// `name`; no-op when profiling is disabled.
#[inline]
pub fn observe_duration(name: &str, duration: std::time::Duration) {
    registry::with_sink(|r| {
        r.observe_duration(name, u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX))
    });
}

/// Opens a timed span named `name`; the span closes (and records a trace
/// event plus a timing observation) when the returned guard drops. Inert
/// when profiling is disabled.
#[inline]
pub fn span(name: &'static str) -> Span {
    Span::open(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex, MutexGuard};

    /// The global sink is process-wide; tests that install a registry must
    /// not interleave.
    static SINK_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        SINK_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let _guard = exclusive();
        uninstall();
        assert!(!enabled());
        counter("ghost", 1);
        observe("ghost", 1);
        observe_duration("ghost", std::time::Duration::from_millis(1));
        let span = span("ghost");
        assert!(!span.is_recording());
        drop(span);
        // Install a fresh registry afterwards: nothing from above leaked in.
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        uninstall();
        let snapshot = registry.snapshot();
        assert!(snapshot.counters.is_empty());
        assert!(snapshot.histograms.is_empty());
        assert!(snapshot.timings.is_empty());
        assert!(registry.trace_events().is_empty());
    }

    #[test]
    fn install_routes_all_metric_kinds() {
        let _guard = exclusive();
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        counter("c", 2);
        counter("c", 3);
        observe("h", 7);
        observe_duration("t", std::time::Duration::from_nanos(1500));
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        uninstall();
        assert!(!enabled());
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counters["c"], 5);
        assert_eq!(snapshot.histograms["h"].count, 1);
        assert_eq!(snapshot.timings["t"].sum, 1500);
        assert_eq!(snapshot.timings["outer"].count, 1);
        assert_eq!(snapshot.timings["inner"].count, 1);
        let events = registry.trace_events();
        assert_eq!(events.len(), 2);
        let outer = events.iter().find(|e| e.name == "outer").unwrap();
        let inner = events.iter().find(|e| e.name == "inner").unwrap();
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.lane, inner.lane);
        // The inner interval is contained in the outer one.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn deterministic_view_drops_timings_only() {
        let _guard = exclusive();
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        counter("work", 10);
        observe("sizes", 4);
        observe_duration("wall", std::time::Duration::from_micros(3));
        uninstall();
        let view = registry.snapshot().deterministic();
        assert_eq!(view.counters["work"], 10);
        assert_eq!(view.histograms["sizes"].count, 1);
        assert!(view.timings.is_empty());
    }

    #[test]
    fn threads_get_distinct_lanes() {
        let _guard = exclusive();
        let registry = Arc::new(Registry::new());
        install(registry.clone());
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let _span = span("worker");
                });
            }
        });
        uninstall();
        let lanes: std::collections::BTreeSet<u32> =
            registry.trace_events().iter().map(|e| e.lane).collect();
        assert_eq!(lanes.len(), 3, "each thread gets its own lane");
    }
}
