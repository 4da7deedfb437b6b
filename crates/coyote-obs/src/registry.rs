//! The thread-safe metrics/trace registry and the global sink.
//!
//! A [`Registry`] collects three kinds of data behind one mutex:
//!
//! * **counters** — monotonically increasing `u64` sums. Additions commute,
//!   so totals are bit-identical no matter how work is spread over threads.
//! * **histograms** — log2-bucketed *value* distributions (pivots per
//!   solve, fake nodes per destination). Deterministic across thread
//!   counts for the same reason counters are.
//! * **timings** — log2-bucketed *duration* distributions in nanoseconds,
//!   fed by [`Span`](crate::Span) drops and explicit
//!   [`observe_duration`](crate::observe_duration) calls. Wall time is
//!   inherently non-deterministic, so these live in their own section and
//!   are excluded from [`Snapshot::deterministic`] comparisons.
//!
//! Nothing is collected unless a registry is installed as the global sink
//! via [`install`]; every recording entry point first checks
//! a relaxed atomic flag, so the disabled path costs one atomic load.

use crate::hist::{Histogram, HistogramSnapshot};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// One completed span, as stored in the trace buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span name (the stage taxonomy, e.g. `"conform.compile"`).
    pub name: &'static str,
    /// Trace lane: 0 for the first thread that recorded an event, then one
    /// lane per additional recording thread (maps to `tid` in chrome trace).
    pub lane: u32,
    /// Start time in nanoseconds since the registry was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth at the time the span was opened (0 = top level).
    pub depth: u32,
}

#[derive(Default)]
struct State {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    timings: BTreeMap<String, Histogram>,
    trace: Vec<TraceEvent>,
}

/// A thread-safe collector for counters, histograms, timings and
/// trace events. See the [module docs](self) for the data model.
pub struct Registry {
    id: u64,
    epoch: Instant,
    next_lane: AtomicU32,
    state: Mutex<State>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").field("id", &self.id).finish()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Registry ids start at 1 so the thread-local lane cache can use 0 for
/// "no lane assigned yet".
static NEXT_REGISTRY_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// `(registry id, lane)` for the current thread; invalidated when a
    /// different registry records from this thread.
    static LANE: Cell<(u64, u32)> = const { Cell::new((0, 0)) };
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

impl Registry {
    /// A fresh, empty registry. Its creation instant is the epoch for all
    /// trace timestamps.
    pub fn new() -> Self {
        Self {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            next_lane: AtomicU32::new(0),
            state: Mutex::new(State::default()),
        }
    }

    /// The instant all trace timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Adds `delta` to the counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        let mut state = self.state.lock().expect("obs registry poisoned");
        *state.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Records `value` into the (deterministic) value histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        let mut state = self.state.lock().expect("obs registry poisoned");
        state
            .histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Records a duration of `nanos` into the timing histogram `name`.
    pub fn observe_duration(&self, name: &str, nanos: u64) {
        let mut state = self.state.lock().expect("obs registry poisoned");
        state
            .timings
            .entry(name.to_string())
            .or_default()
            .record(nanos);
    }

    /// The trace lane of the calling thread, assigning a fresh one on the
    /// first event this thread records against this registry.
    pub fn lane(&self) -> u32 {
        LANE.with(|cell| {
            let (registry_id, lane) = cell.get();
            if registry_id == self.id {
                lane
            } else {
                let fresh = self.next_lane.fetch_add(1, Ordering::Relaxed);
                cell.set((self.id, fresh));
                fresh
            }
        })
    }

    /// Records a completed span: one trace event on the caller's lane plus
    /// an observation in the `name` timing histogram.
    pub fn record_span(&self, name: &'static str, start_ns: u64, dur_ns: u64, depth: u32) {
        let lane = self.lane();
        let mut state = self.state.lock().expect("obs registry poisoned");
        state.trace.push(TraceEvent {
            name,
            lane,
            start_ns,
            dur_ns,
            depth,
        });
        state
            .timings
            .entry(name.to_string())
            .or_default()
            .record(dur_ns);
    }

    /// A copy of all trace events recorded so far, in completion order.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.state
            .lock()
            .expect("obs registry poisoned")
            .trace
            .clone()
    }

    /// Captures the current counters/histograms/timings.
    pub fn snapshot(&self) -> Snapshot {
        let state = self.state.lock().expect("obs registry poisoned");
        Snapshot {
            counters: state.counters.clone(),
            histograms: state
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), HistogramSnapshot::of(v)))
                .collect(),
            timings: state
                .timings
                .iter()
                .map(|(k, v)| (k.clone(), HistogramSnapshot::of(v)))
                .collect(),
        }
    }

    pub(crate) fn enter_depth() -> u32 {
        DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        })
    }

    pub(crate) fn exit_depth() {
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
    }
}

/// A point-in-time copy of a registry's metrics, with deterministic
/// (`BTreeMap`) key ordering in every section. It serializes as
/// [`metrics_json`](crate::metrics_json) prints it.
#[derive(Debug, Clone, PartialEq, Default, serde::Serialize)]
pub struct Snapshot {
    /// Monotonic counters (deterministic across thread counts).
    pub counters: BTreeMap<String, u64>,
    /// Value histograms (deterministic across thread counts).
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Duration histograms in nanoseconds (wall time: non-deterministic).
    pub timings: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// This snapshot with the `timings` section cleared. It admits only
    /// counters and value histograms that are pure functions of the run's
    /// inputs (never of `--threads`, the schedule or the clock); timings
    /// never get in. So two profiled runs of one workload compare equal, and
    /// a test may assert a work count exactly: the n `graph.spf.runs` of a
    /// failure cell (`coyote-bench`'s `obs_pipeline`) or a daemon link event
    /// (`coyote-serve`'s `telemetry`).
    pub fn deterministic(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            histograms: self.histograms.clone(),
            timings: BTreeMap::new(),
        }
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: RwLock<Option<Arc<Registry>>> = RwLock::new(None);

/// True when a registry is installed as the global sink. One relaxed atomic
/// load: this is the entire cost of every obs call site when profiling is
/// off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `registry` as the global sink, replacing any previous one.
pub fn install(registry: Arc<Registry>) {
    *SINK.write().expect("obs sink poisoned") = Some(registry);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes the global sink (subsequent obs calls become no-ops) and returns
/// the registry that was installed, if any.
pub fn uninstall() -> Option<Arc<Registry>> {
    ENABLED.store(false, Ordering::Relaxed);
    SINK.write().expect("obs sink poisoned").take()
}

/// The currently installed registry, if any.
pub fn installed() -> Option<Arc<Registry>> {
    if !enabled() {
        return None;
    }
    SINK.read().expect("obs sink poisoned").clone()
}

/// Runs `f` against the installed registry; does nothing when disabled.
#[inline]
pub fn with_sink(f: impl FnOnce(&Registry)) {
    if !enabled() {
        return;
    }
    if let Some(registry) = SINK.read().expect("obs sink poisoned").as_ref() {
        f(registry);
    }
}
