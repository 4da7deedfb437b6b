//! Integration tests that pin the paper's headline claims, across crates.
//!
//! Each test corresponds to a specific statement in the paper; if one of
//! these fails after a refactor, the reproduction no longer reproduces.

use coyote::core::example_fig1;
use coyote::core::prelude::*;
use coyote::sim::scenario::{run_prototype, PrototypeScheme};
use coyote::traffic::DemandMatrix;

/// Section II: "for any choice of link weights, equal splitting of traffic
/// between shortest paths would result in link utilization that is 3/2
/// higher than optimal for some possible traffic scenario" — and the unit
/// weight choice is even worse (ratio 2), while Fig. 1c guarantees 4/3.
#[test]
fn running_example_ordering_ecmp_fig1c_golden() {
    let (graph, nodes) = example_fig1::topology();
    let unc = example_fig1::uncertainty(&nodes);

    let exact = |routing: &PdRouting| {
        performance_ratio_exact(&graph, routing, &unc, RoutabilityScope::AllEdges, None)
            .unwrap()
            .ratio
    };

    let ecmp = exact(&ecmp_routing(&graph).unwrap());
    let fig1c = exact(&example_fig1::fig1c_routing(&graph, &nodes));
    let golden = exact(&example_fig1::golden_routing(&graph, &nodes));

    assert!(
        ecmp >= 1.5 - 1e-6,
        "ECMP ratio {ecmp} below the paper's 3/2 bound"
    );
    assert!((fig1c - 4.0 / 3.0).abs() < 1e-3, "Fig. 1c ratio {fig1c}");
    assert!(
        (golden - example_fig1::OPTIMAL_WORST_UTILIZATION).abs() < 1e-3,
        "golden ratio {golden}"
    );
    assert!(golden < fig1c && fig1c < ecmp);
}

/// Section V-B: "Since the final DAGs contain the original shortest-path
/// DAGs, traditional ECMP routing is a point in the solution space over
/// which COYOTE optimizes" — so COYOTE can never do worse on the matrices it
/// optimizes over.
#[test]
fn coyote_never_loses_to_ecmp_on_its_working_set() {
    let (graph, nodes) = example_fig1::topology();
    let unc = example_fig1::uncertainty(&nodes);
    let pipeline = Pipeline::new(graph.clone(), &unc, None, CoyoteConfig::fast()).unwrap();
    let result = pipeline.optimize(&unc).unwrap();

    // ECMP's augmented-DAG representation: uniform splits restricted to the
    // shortest-path edges — by construction a feasible point.
    let dags = build_all_dags(&graph, DagMode::Augmented).unwrap();
    let evaluation =
        EvaluationSet::build(&graph, &dags, &unc, None, &EvaluationOptions::default()).unwrap();
    let ecmp = ecmp_routing(&graph).unwrap();
    assert!(
        evaluation.performance_ratio(&graph, &result.routing)
            <= evaluation.performance_ratio(&graph, &ecmp) + 1e-6
    );
    let _ = nodes;
}

/// Theorem 4: the optimal destination-based oblivious routing can be Ω(|V|)
/// from the demands-aware optimum.
#[test]
fn theorem4_instance_scales_linearly() {
    for n in [4usize, 8] {
        let mut graph = coyote::graph::Graph::new();
        let xs: Vec<_> = (0..n)
            .map(|i| graph.add_node(format!("x{i}")).unwrap())
            .collect();
        let t = graph.add_node("t").unwrap();
        for i in 0..n - 1 {
            graph
                .add_bidirectional_edge(xs[i], xs[i + 1], 1e6, 1.0)
                .unwrap();
        }
        for &x in &xs {
            graph.add_edge(x, t, 1.0, 1.0).unwrap();
        }
        let ecmp = ecmp_routing(&graph).unwrap();
        let mut worst = 0.0_f64;
        for &x in &xs {
            let dm = DemandMatrix::from_pairs(graph.node_count(), &[(x, t, n as f64)]);
            let opt = optu(&graph, &dm).unwrap();
            worst = worst.max(ecmp.max_link_utilization(&graph, &dm) / opt);
        }
        assert!(
            (worst - n as f64).abs() < 1e-6,
            "n = {n}: ratio {worst} should equal n"
        );
    }
}

/// Section VII: each traditional TE configuration drops 25–50 % of traffic
/// in some phase of the prototype experiment; COYOTE delivers everything.
#[test]
fn prototype_story_holds() {
    let coyote_result = run_prototype(PrototypeScheme::Coyote);
    assert!(coyote_result.worst_drop_rate() < 1e-9);
    for scheme in [
        PrototypeScheme::Te1,
        PrototypeScheme::Te2,
        PrototypeScheme::Te3,
    ] {
        let r = run_prototype(scheme);
        let worst = r.worst_drop_rate();
        assert!(
            (0.25..=0.5 + 1e-9).contains(&worst),
            "{}: worst drop {worst} outside the paper's 25-50% band",
            r.scheme
        );
    }
}

/// Section VI ("Approximating the optimal traffic splitting"): more virtual
/// next hops only help, and even few entries already beat ECMP on the
/// running example's worst case.
#[test]
fn virtual_next_hop_budgets_are_monotone_on_fig1() {
    use coyote::ospf::{compute_program, realized_routing, VirtualLinkBudget};

    let (graph, nodes) = example_fig1::topology();
    let unc = example_fig1::uncertainty(&nodes);
    let target = example_fig1::golden_routing(&graph, &nodes);

    let exact = |routing: &PdRouting| {
        performance_ratio_exact(&graph, routing, &unc, RoutabilityScope::AllEdges, None)
            .unwrap()
            .ratio
    };
    let ecmp_ratio = exact(&ecmp_routing(&graph).unwrap());

    let mut last = f64::INFINITY;
    for budget in [3usize, 5, 10] {
        let program =
            compute_program(&graph, &target, VirtualLinkBudget::per_prefix(budget)).unwrap();
        let realized = realized_routing(&graph, &program).unwrap();
        let ratio = exact(&realized);
        assert!(
            ratio <= last + 1e-6,
            "budget {budget}: ratio {ratio} worse than smaller budget {last}"
        );
        assert!(
            ratio < ecmp_ratio,
            "budget {budget} should already beat ECMP"
        );
        last = ratio;
    }
    // With 10 entries the realized ratio is within a few percent of the
    // analytic optimum.
    assert!(last <= example_fig1::OPTIMAL_WORST_UTILIZATION * 1.05);
}
