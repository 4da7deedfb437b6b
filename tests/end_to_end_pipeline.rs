//! End-to-end integration test: the full COYOTE pipeline on a real backbone
//! topology, from link weights to deployed (Fibbing-realized) router state.
//!
//! This mirrors what an operator would run: pick a topology, estimate a base
//! demand matrix, choose an uncertainty margin, let COYOTE optimize, realize
//! the configuration with lies, and check that the realized network performs
//! as promised.

use coyote::core::prelude::*;
use coyote::ospf::{compute_program, realized_routing, verify_program, VirtualLinkBudget};
use coyote::topology::zoo;
use coyote::traffic::{GravityModel, UncertaintySet};

#[test]
fn abilene_pipeline_from_weights_to_realized_routing() {
    // --- Operator input ---------------------------------------------------
    let mut graph = zoo::abilene().to_graph().expect("abilene loads");
    graph.set_inverse_capacity_weights(10.0);
    let base = GravityModel::default().generate(&graph);
    let uncertainty = UncertaintySet::from_margin(&base, 2.0);

    // --- COYOTE optimization ----------------------------------------------
    let pipeline = Pipeline::new(
        graph.clone(),
        &uncertainty,
        Some(&base),
        CoyoteConfig::fast(),
    )
    .expect("DAGs and evaluation family build");
    let result = pipeline
        .optimize(&uncertainty)
        .expect("optimization succeeds");
    result.routing.validate(&graph).expect("valid PD routing");

    // --- Shared evaluation family -------------------------------------------
    let dags = build_all_dags(&graph, DagMode::Augmented).unwrap();
    let evaluation = EvaluationSet::build(
        &graph,
        &dags,
        &uncertainty,
        Some(&base),
        &EvaluationOptions::default(),
    )
    .unwrap();

    let ecmp = ecmp_routing(&graph).unwrap();
    let ecmp_ratio = evaluation.performance_ratio(&graph, &ecmp);
    let coyote_ratio = evaluation.performance_ratio(&graph, &result.routing);

    // COYOTE contains ECMP's configuration in its search space, so on the
    // evaluation family it must not lose (allow a tiny numerical slack).
    assert!(
        coyote_ratio <= ecmp_ratio + 0.05,
        "COYOTE {coyote_ratio} worse than ECMP {ecmp_ratio}"
    );
    assert!(coyote_ratio >= 1.0 - 1e-9);

    // --- Fibbing deployment -------------------------------------------------
    let program = compute_program(&graph, &result.routing, VirtualLinkBudget::per_prefix(10))
        .expect("program computes");
    let report = verify_program(&graph, &result.routing, &program).expect("verification runs");
    assert!(
        report.dags_match,
        "realized DAGs differ: {:?}",
        report.mismatched_destinations
    );
    assert!(
        report.max_split_error < 0.15,
        "10-entry budget should approximate the splits well, error {}",
        report.max_split_error
    );

    let realized = realized_routing(&graph, &program).expect("realized routing");
    realized.validate(&graph).unwrap();
    let realized_ratio = evaluation.performance_ratio(&graph, &realized);
    // Quantization costs a little, but the realized configuration must stay
    // clearly ahead of ECMP whenever COYOTE itself is.
    assert!(
        realized_ratio <= ecmp_ratio + 0.1,
        "realized {realized_ratio} vs ECMP {ecmp_ratio}"
    );

    // --- Path stretch -------------------------------------------------------
    let stretch = average_stretch(&graph, &result.routing, &ecmp).expect("stretch defined");
    assert!(stretch >= 0.9, "stretch {stretch} suspiciously small");
    assert!(
        stretch <= 1.6,
        "stretch {stretch} far beyond the paper's ~1.1"
    );
}

#[test]
fn local_search_weights_plug_into_the_same_pipeline() {
    let graph = zoo::nsf().to_graph().expect("nsf loads");
    let base = GravityModel::default().generate(&graph);
    let uncertainty = UncertaintySet::from_margin(&base, 2.0);

    let cfg = LocalSearchConfig {
        outer_iterations: 2,
        moves_per_iteration: 3,
    };
    let search = local_search_weights(&graph, &uncertainty, &cfg).expect("local search runs");
    assert_eq!(search.graph.edge_count(), graph.edge_count());

    let tuned = search.graph;
    let pipeline = Pipeline::new(
        tuned.clone(),
        &uncertainty,
        Some(&base),
        CoyoteConfig::fast(),
    )
    .unwrap();
    let result = pipeline.optimize(&uncertainty).unwrap();
    result.routing.validate(&tuned).unwrap();

    let dags = build_all_dags(&tuned, DagMode::Augmented).unwrap();
    let evaluation = EvaluationSet::build(
        &tuned,
        &dags,
        &uncertainty,
        Some(&base),
        &EvaluationOptions::default(),
    )
    .unwrap();
    let ecmp = ecmp_routing(&tuned).unwrap();
    assert!(
        evaluation.performance_ratio(&tuned, &result.routing)
            <= evaluation.performance_ratio(&tuned, &ecmp) + 0.05
    );
}

#[test]
fn every_zoo_topology_supports_the_basic_pipeline() {
    // A smoke test over the whole topology registry: DAG construction, ECMP,
    // and flow computation must work everywhere (the heavyweight
    // optimization is exercised on selected networks above).
    for topology in zoo::all() {
        let mut graph = topology.to_graph().expect("topology loads");
        graph.set_inverse_capacity_weights(10.0);
        let dags = build_all_dags(&graph, DagMode::Augmented)
            .unwrap_or_else(|e| panic!("{}: augmented DAGs failed: {e}", topology.name));
        assert_eq!(dags.len(), graph.node_count());

        let ecmp = ecmp_routing(&graph).unwrap();
        ecmp.validate(&graph).unwrap();

        let base = GravityModel::default().generate(&graph);
        let mlu = ecmp.max_link_utilization(&graph, &base);
        assert!(
            mlu.is_finite() && mlu >= 0.0,
            "{}: bad MLU {mlu}",
            topology.name
        );
    }
}

/// The evaluation family's normalization denominators are plain cold
/// `OPTU` solves: no state is carried from one matrix to the next.
#[test]
fn evaluation_set_optima_equal_standalone_optu_bit_for_bit() {
    for topology in [zoo::abilene(), zoo::nsf()] {
        let mut graph = topology.to_graph().expect("topology loads");
        graph.set_inverse_capacity_weights(10.0);
        let base = GravityModel::default().generate(&graph);
        let uncertainty = UncertaintySet::from_margin(&base, 2.0);
        // The default configuration sizes the family at the default options.
        let pipeline =
            Pipeline::new(graph, &uncertainty, Some(&base), CoyoteConfig::default()).unwrap();
        let evaluation = pipeline.evaluation();
        assert!(evaluation.len() > 20, "{}", topology.name);
        for (dm, opt) in evaluation.entries() {
            let standalone = optu_within_dags(pipeline.graph(), pipeline.dags(), dm).unwrap();
            assert_eq!(opt.to_bits(), standalone.to_bits(), "{}", topology.name);
        }
    }
}
