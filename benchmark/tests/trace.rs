//! Parents by containment and self time on hand-built traces.

use coyote_benchmark::trace::{Span, Trace};

/// ```text
/// cell    [0 ........................ 100]
/// solve      [10 ...... 40]  [50 .. 70]
/// lp            [15 . 25]
/// lp               [25 . 35]
/// other lane   [12 ............ 60]          (never a child of `cell`)
/// ```
fn nested() -> Trace {
    let other = Span::new("worker", "", 12, 60).on_lane(1);
    Trace::from_spans(vec![
        Span::new("lp", "", 25, 35),
        Span::new("solve", "", 50, 70),
        Span::new("cell", "r1", 0, 100),
        other,
        Span::new("lp", "", 15, 25),
        Span::new("solve", "", 10, 40),
    ])
}

#[test]
fn parents_are_the_innermost_containing_span_of_the_same_lane() {
    let trace = nested();
    let parent_name = |i: usize| trace.spans[i].parent.map(|p| trace.spans[p].name.as_str());
    let names: Vec<(&str, Option<&str>)> = (0..trace.spans.len())
        .map(|i| (trace.spans[i].name.as_str(), parent_name(i)))
        .collect();
    assert_eq!(
        names,
        vec![
            ("cell", None),
            ("solve", Some("cell")),
            ("worker", None),
            ("lp", Some("solve")),
            ("lp", Some("solve")),
            ("solve", Some("cell")),
        ]
    );
    // Ids are positions, and requests flow down from the root.
    for (i, s) in trace.spans.iter().enumerate() {
        assert_eq!(s.id, i);
        assert_eq!(s.request, if s.name == "worker" { "" } else { "r1" });
    }
}

#[test]
fn self_time_is_the_span_minus_the_union_of_its_children() {
    let trace = nested();
    let totals = trace.totals();
    // cell: 100 - (30 + 20); solve: (30 - 20) + 20; lp: 10 + 10.
    assert_eq!(totals["cell"].self_ns, 50);
    assert_eq!(totals["solve"].self_ns, 30);
    assert_eq!(totals["lp"].self_ns, 20);
    assert_eq!(totals["solve"].inclusive_ns, 50);
    assert_eq!(totals["lp"].count, 2);
    // Self times of one lane add up to its root.
    let lane0: u64 = ["cell", "solve", "lp"]
        .iter()
        .map(|n| totals[*n].self_ns)
        .sum();
    assert_eq!(lane0, 100);
    assert!(trace.has_ancestor(3, "cell"));
    assert!(!trace.has_ancestor(2, "cell"));
}

#[test]
fn a_wrapper_with_the_name_of_the_span_it_wraps_counts_once() {
    // The benchmark's `ospf.compile` span around the program's own.
    let trace = Trace::from_spans(vec![
        Span::new("ospf.compile", "", 0, 50),
        Span::new("ospf.compile", "", 2, 48),
    ]);
    let t = trace.totals()["ospf.compile"];
    assert_eq!((t.count, t.inclusive_ns, t.self_ns), (2, 50, 50));
}

#[test]
fn overlapping_children_are_not_subtracted_twice() {
    let trace = Trace::from_spans(vec![
        Span::new("root", "", 0, 100),
        Span::new("a", "", 10, 60),
        Span::new("b", "", 10, 60),
    ]);
    // `b` nests in `a` (same interval), so root loses 50 once.
    assert_eq!(trace.totals()["root"].self_ns, 50);
}

#[test]
fn requests_are_stamped_in_start_order_and_inherited() {
    let mut trace = Trace::from_spans(vec![
        Span::new("run", "", 0, 100),
        Span::new("failures.cell", "", 10, 20),
        Span::new("ospf.spf", "", 12, 18),
        Span::new("failures.cell", "", 30, 40),
        Span::new("ospf.spf", "", 32, 38),
    ]);
    trace.assign_requests("failures.cell", &["a+link-0".into(), "a+link-1".into()]);
    let requests: Vec<&str> = trace.spans.iter().map(|s| s.request.as_str()).collect();
    assert_eq!(
        requests,
        ["", "a+link-0", "a+link-0", "a+link-1", "a+link-1"]
    );
}
