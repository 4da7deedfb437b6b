//! The benchmark's own span recorder.
//!
//! Spans are recorded in memory around the public calls the benchmark makes
//! into each layer and written out when the workload ends. The spans the
//! program already emits through `coyote-obs` are merged into the same
//! timeline after the traced repetition, so one post-processor serves both:
//! a span's parent is the innermost span on its lane that contains it, and a
//! layer's *self time* is its span minus the union of its children.

use coyote_obs::{Registry, TraceEvent};
use serde_json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span of the merged timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in [`Trace::spans`].
    pub id: usize,
    /// The innermost containing span on the same lane.
    pub parent: Option<usize>,
    /// The unit of work this span belongs to (a cell id, an event number).
    pub request: String,
    /// Layer / stage name.
    pub name: String,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Thread lane (benchmark-side spans are on the caller's lane).
    lane: u32,
    /// Nesting hint that orders spans with identical intervals.
    depth: u32,
}

impl Span {
    /// A span on lane 0, for hand-built traces.
    pub fn new(name: &str, request: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id: 0,
            parent: None,
            request: request.to_string(),
            name: name.to_string(),
            start_ns,
            end_ns,
            lane: 0,
            depth: 0,
        }
    }

    /// The same span on another thread's lane.
    pub fn on_lane(mut self, lane: u32) -> Span {
        self.lane = lane;
        self
    }

    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records benchmark-side spans on the calling thread.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    lane: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: String,
}

impl Recorder {
    /// A recorder sharing `registry`'s epoch and the calling thread's lane,
    /// so the program's spans can be merged in without clock alignment.
    pub fn new(registry: &Registry) -> Recorder {
        Recorder {
            enabled: true,
            epoch: registry.epoch(),
            lane: registry.lane(),
            spans: Vec::new(),
            open: Vec::new(),
            request: String::new(),
        }
    }

    /// A recorder that records nothing: what the untraced repetitions pass
    /// to code shared with the traced one.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            lane: 0,
            spans: Vec::new(),
            open: Vec::new(),
            request: String::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Sets the request id stamped on every span opened from now on.
    pub fn set_request(&mut self, request: impl FnOnce() -> String) {
        if self.enabled {
            self.request = request();
        }
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let index = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id: index,
            parent: None,
            request: self.request.clone(),
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            lane: self.lane,
            depth: self.open.len() as u32,
        });
        self.open.push(index);
        index
    }

    /// Closes the span `index`, which must be the innermost open one.
    pub fn close(&mut self, index: usize) {
        if !self.enabled {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let index = self.open(name);
        let out = f();
        self.close(index);
        out
    }

    /// Merges the recorded spans with the program's own `events` (same
    /// epoch) into one timeline.
    pub fn finish(self, events: &[TraceEvent]) -> Trace {
        assert!(self.open.is_empty(), "unclosed benchmark span");
        let mut spans = self.spans;
        spans.extend(events.iter().map(|e| Span {
            id: 0,
            parent: None,
            request: String::new(),
            name: e.name.to_string(),
            start_ns: e.start_ns,
            end_ns: e.start_ns + e.dur_ns,
            lane: e.lane,
            // Program spans nest inside the benchmark span that called them.
            depth: e.depth + 1_000,
        }));
        Trace::from_spans(spans)
    }
}

/// Inclusive and self time of every span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations of the spans that have no same-named ancestor (so a
    /// benchmark-side span wrapping a same-named program span counts once).
    pub inclusive_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

impl NameTotals {
    /// Inclusive time in seconds.
    pub fn inclusive_s(&self) -> f64 {
        self.inclusive_ns as f64 * 1e-9
    }

    /// Inclusive time in milliseconds.
    pub fn inclusive_ms(&self) -> f64 {
        self.inclusive_ns as f64 * 1e-6
    }

    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// A merged timeline with parents resolved by containment.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Spans ordered by start time; `id` is the index.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Orders `spans` by start time and resolves each span's parent: the
    /// innermost earlier span on the same lane whose interval contains it.
    /// A span that starts with an empty request inherits its parent's.
    pub fn from_spans(mut spans: Vec<Span>) -> Trace {
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns), s.depth));
        let mut stacks: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for i in 0..spans.len() {
            let stack = stacks.entry(spans[i].lane).or_default();
            while let Some(&top) = stack.last() {
                if spans[top].end_ns >= spans[i].end_ns {
                    break;
                }
                stack.pop();
            }
            let parent = stack.last().copied();
            stack.push(i);
            spans[i].id = i;
            spans[i].parent = parent;
            if let (true, Some(p)) = (spans[i].request.is_empty(), parent) {
                spans[i].request = spans[p].request.clone();
            }
        }
        Trace { spans }
    }

    /// Stamps the k-th span named `name` (in start order) and everything
    /// nested inside it with `requests[k]`.
    pub fn assign_requests(&mut self, name: &str, requests: &[String]) {
        let mut next = 0;
        let mut stamped = vec![false; self.spans.len()];
        for i in 0..self.spans.len() {
            if self.spans[i].name == name && next < requests.len() {
                self.spans[i].request = requests[next].clone();
                stamped[i] = true;
                next += 1;
            } else if let Some(p) = self.spans[i].parent.filter(|&p| stamped[p]) {
                self.spans[i].request = self.spans[p].request.clone();
                stamped[i] = true;
            }
        }
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        // Children of one parent arrive in start order, so the union is a
        // running sweep: `reach[p]` is how far p's children have covered.
        let mut reach = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let from = s.start_ns.max(reach[p]);
                if s.end_ns > from {
                    covered[p] += s.end_ns - from;
                    reach[p] = s.end_ns;
                }
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .map(|(s, &c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// True when some ancestor of span `id` is named `name`.
    pub fn has_ancestor(&self, id: usize, name: &str) -> bool {
        let mut ancestor = self.spans[id].parent;
        while let Some(a) = ancestor {
            if self.spans[a].name == name {
                return true;
            }
            ancestor = self.spans[a].parent;
        }
        false
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let self_ns = self.self_times_ns();
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for (s, &own) in self.spans.iter().zip(&self_ns) {
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.self_ns += own;
            if !self.has_ancestor(s.id, &s.name) {
                t.inclusive_ns += s.dur_ns();
            }
        }
        out
    }

    /// Durations (ns) of every span named `name`, in start order.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// The spans as `{id, parent, request, name, start_ns, end_ns}` objects.
    pub fn to_json(&self) -> Vec<Value> {
        self.spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("id".into(), Value::UInt(s.id as u64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                    ),
                    ("request".into(), Value::String(s.request.clone())),
                    ("name".into(), Value::String(s.name.clone())),
                    ("start_ns".into(), Value::UInt(s.start_ns)),
                    ("end_ns".into(), Value::UInt(s.end_ns)),
                ])
            })
            .collect()
    }
}
