//! Quickstart: run COYOTE end-to-end on the paper's running example.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! The example builds the Fig. 1 network (two users sending to one target
//! over unit-capacity links), asks COYOTE for splitting ratios that are
//! robust to *any* demand combination within the users' 0–2 Mbps bounds, and
//! compares the worst-case link utilization against traditional ECMP and
//! against the analytic optimum of Appendix B (the inverse golden ratio).

use coyote::core::example_fig1;
use coyote::core::prelude::*;

pub fn main() -> Result<(), CoreError> {
    // 1. The topology and the operator's uncertainty bounds.
    let (graph, nodes) = example_fig1::topology();
    let uncertainty = example_fig1::uncertainty(&nodes);
    println!("topology: {}", graph.summary("fig1"));

    // 2. COYOTE: augmented DAGs + optimized splitting ratios.
    let pipeline = Pipeline::new(graph.clone(), &uncertainty, None, CoyoteConfig::default())?;
    let result = pipeline.optimize(&uncertainty)?;
    result.routing.validate(&graph).expect("valid PD routing");
    println!(
        "COYOTE optimized the splitting ratios over {} demand matrices in {} rounds",
        result.working_set_size, result.rounds
    );

    // 3. Exact worst-case performance (the oblivious performance ratio),
    //    computed with the slave LP of Appendix C.
    let coyote_worst = performance_ratio_exact(
        &graph,
        &result.routing,
        &uncertainty,
        RoutabilityScope::AllEdges,
        None,
    )?;
    let ecmp = ecmp_routing(&graph)?;
    let ecmp_worst = performance_ratio_exact(
        &graph,
        &ecmp,
        &uncertainty,
        RoutabilityScope::AllEdges,
        None,
    )?;

    println!();
    println!("worst-case link over-subscription vs the demands-aware optimum:");
    println!("  traditional ECMP : {:.3}", ecmp_worst.ratio);
    println!("  COYOTE           : {:.3}", coyote_worst.ratio);
    println!(
        "  analytic optimum : {:.3}  (golden-ratio split, Appendix B)",
        example_fig1::OPTIMAL_WORST_UTILIZATION
    );

    // 4. Show the splitting ratios COYOTE chose at the two decision points.
    let s1s2 = graph.find_edge(nodes.s1, nodes.s2).unwrap();
    let s2t = graph.find_edge(nodes.s2, nodes.t).unwrap();
    println!();
    println!(
        "COYOTE splits at s1 towards s2: {:.3} (optimal {:.3})",
        result.routing.ratio(nodes.t, s1s2),
        example_fig1::INVERSE_GOLDEN_RATIO
    );
    println!(
        "COYOTE splits at s2 towards t : {:.3} (optimal {:.3})",
        result.routing.ratio(nodes.t, s2t),
        example_fig1::INVERSE_GOLDEN_RATIO
    );

    Ok(())
}
