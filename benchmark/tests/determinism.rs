//! The seed decides the inputs, and nothing else does.

use coyote_benchmark::harness::Options;
use coyote_benchmark::trace::Recorder;
use coyote_benchmark::workloads::{failures_slice, serve_events};

fn opts(seed: u64) -> Options {
    Options {
        seed,
        ..Options::default()
    }
}

#[test]
fn serve_events_traces_follow_the_seed() {
    let ops = |seed| -> Vec<Vec<serve_events::Op>> {
        serve_events::setup(&opts(seed), &mut Recorder::off())
            .expect("setup")
            .into_iter()
            .map(|lane| lane.ops)
            .collect()
    };
    let first = ops(7);
    assert_eq!(first.len(), 5);
    // 3,000 demand updates and 600 link events per topology.
    assert!(first.iter().all(|t| t.len() == 3_600));
    assert_eq!(first, ops(7));
    assert_ne!(first, ops(8));
}

#[test]
fn failures_slice_catalogues_follow_the_seed() {
    let grid = |seed| failures_slice::setup(&opts(seed), &mut Recorder::off()).expect("setup");
    let first = grid(7);
    assert!(first.len() > 150, "{} cells", first.len());
    assert_eq!(first, grid(7));
    assert_ne!(first, grid(8));
}
