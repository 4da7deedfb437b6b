//! Uncertainty sweep on a real backbone: how robust is each TE scheme when
//! the operator's demand estimate is off by a growing margin?
//!
//! ```text
//! cargo run --release --example uncertainty_sweep [topology] [max_margin]
//! ```
//!
//! This is the workload of the paper's Figs. 6–8: a gravity base demand
//! matrix on a Topology-Zoo backbone, an uncertainty margin `x` (the real
//! demand of every pair may be anywhere in `[base/x, base·x]`), and four
//! schemes — ECMP, the demands-aware optimum for the base matrix, COYOTE
//! with no knowledge, and COYOTE optimized for the margin box — scored by
//! the experiment harness's Table I evaluation at quick effort.

use coyote::bench::{evaluate_scenario, BaseModel, Effort, SweepSpec, WeightHeuristic};
use coyote::topology::zoo;

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let topology_name = args.first().map(String::as_str).unwrap_or("Abilene");
    let max_margin: f64 = args
        .get(1)
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(3.0)
        .clamp(1.0, 5.0);
    run(topology_name, max_margin)
}

/// The sweep for one topology and maximum margin; split from `main` so the
/// `examples_smoke` integration test can drive it without going through CLI
/// argument parsing.
pub fn run(topology_name: &str, max_margin: f64) -> Result<(), Box<dyn std::error::Error>> {
    let topology = zoo::by_name(topology_name).ok_or_else(|| {
        format!("unknown topology {topology_name:?}; try Abilene, Geant, NSF, ...")
    })?;
    println!("{}", topology.to_graph()?.summary(&topology.name));

    println!(
        "{:>7}  {:>8}  {:>8}  {:>11}  {:>14}",
        "margin", "ECMP", "Base-opt", "COYOTE-obl", "COYOTE-partial"
    );

    let mut margin = 1.0;
    while margin <= max_margin + 1e-9 {
        let r = evaluate_scenario(&SweepSpec {
            topology: topology.name.clone(),
            model: BaseModel::Gravity,
            margin,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        })?;
        println!(
            "{:>7.1}  {:>8.2}  {:>8.2}  {:>11.2}  {:>14.2}",
            margin, r.ecmp, r.base, r.coyote_oblivious, r.coyote_partial,
        );
        margin += 1.0;
    }

    println!();
    println!("Values are worst-case link utilization relative to the demands-aware");
    println!("optimum within the same DAGs (1.00 = as good as knowing the traffic).");
    Ok(())
}
