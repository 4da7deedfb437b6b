//! From optimized ratios to router state: compute the OSPF "lies" (fake
//! nodes / virtual links) that realize a COYOTE configuration, bound the FIB
//! blow-up, and verify the realized forwarding state.
//!
//! ```text
//! cargo run --release --example fibbing_deployment [topology] [budget]
//! ```
//!
//! This walks the deployment half of the paper (Section V-D and Fig. 10):
//! COYOTE's fine-grained splitting ratios are approximated by replicating
//! ECMP next-hop entries through fake advertisements, under an operator
//! budget of FIB entries per (router, prefix).

use coyote::core::prelude::*;
use coyote::ospf::{compute_program, realized_routing, verify_program, VirtualLinkBudget};
use coyote::topology::zoo;
use coyote::traffic::{GravityModel, UncertaintySet};

pub fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let topology_name = args.first().map(String::as_str).unwrap_or("Abilene");
    let budget: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(5);
    run(topology_name, budget)
}

/// The deployment walk-through for one topology and FIB budget; split from
/// `main` so the `examples_smoke` integration test can drive it without
/// going through CLI argument parsing.
pub fn run(topology_name: &str, budget: usize) -> Result<(), Box<dyn std::error::Error>> {
    let topology =
        zoo::by_name(topology_name).ok_or_else(|| format!("unknown topology {topology_name:?}"))?;
    let mut graph = topology.to_graph()?;
    graph.set_inverse_capacity_weights(10.0);

    // 1. Optimize COYOTE for a 2x uncertainty margin around a gravity matrix.
    let base = GravityModel::default().generate(&graph);
    let uncertainty = UncertaintySet::from_margin(&base, 2.0);
    let pipeline = Pipeline::new(graph, &uncertainty, Some(&base), CoyoteConfig::fast())?;
    let result = pipeline.optimize(&uncertainty)?;
    let (graph, evaluation) = (pipeline.graph(), pipeline.evaluation());
    println!(
        "{}: optimized splitting ratios (working-set ratio {:.2})",
        topology.name, result.working_set_ratio
    );

    // 2. Translate to OSPF lies under the FIB budget.
    for entries in [3usize, budget.max(3), 64] {
        let vl = if entries >= 64 {
            VirtualLinkBudget::unlimited()
        } else {
            VirtualLinkBudget::per_prefix(entries)
        };
        let program = compute_program(graph, &result.routing, vl)?;
        let report = verify_program(graph, &result.routing, &program)?;
        let realized = realized_routing(graph, &program)?;

        // 3. Score the *realized* configuration on the evaluation family
        //    COYOTE was optimized on.
        let ratio = evaluation.performance_ratio(graph, &realized);

        let label = if entries >= 64 {
            "ideal (unbounded)".to_string()
        } else {
            format!("{entries} entries/prefix")
        };
        println!(
            "  {:<18}: {} fake nodes, {} router-prefix pairs lied to, max split error {:.3}, DAGs match: {}, ratio {:.2}",
            label,
            program.stats.fake_nodes,
            program.stats.lied_router_prefix_pairs,
            report.max_split_error,
            report.dags_match,
            ratio,
        );
    }

    println!();
    println!("Larger FIB budgets approximate the optimized splits more closely; even 3");
    println!("entries per prefix already captures most of COYOTE's gain over ECMP (Fig. 10).");
    Ok(())
}
