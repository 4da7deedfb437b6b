//! The differential suite of the serving layer (ISSUE 10 satellite): on
//! Abilene and NSF, drive the engine through seeded sequences of demand
//! updates and link/node events and assert that the incrementally maintained
//! state — LSDB advanced by applying the emitted deltas, dirty-column
//! re-solves, per-prefix recompiles — is **bit-identical** to a cold
//! recompile of the current scenario at every single step (FIB next-hop
//! sets, replica counts and splitting ratios included; see
//! `TeEngine::verify_against_cold`). The abilene and nsf traces also pin a
//! digest of what the engine served, so a reordering inside the shared LP
//! builder or the row update fails here and not only in the benchmark. The
//! flap suite adds Germany and GEANT and checks the restore: a recovery to
//! the previous failure sets re-solves exactly the columns that moved.

use coyote_graph::NodeId;
use coyote_serve::{
    DemandModel, DemandUpdate, EngineConfig, ServeError, StateResponse, TeEngine, UpdateOutcome,
};
use coyote_traffic::DemandMatrix;

/// xorshift64* — deterministic without a rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Physical links of the pristine graph as canonical node pairs.
fn physical_links(engine: &TeEngine) -> Vec<(usize, usize)> {
    let g = engine.pristine_graph();
    let mut pairs: Vec<(usize, usize)> = g
        .edges()
        .map(|e| {
            let (a, b) = g.endpoints(e);
            (a.index().min(b.index()), a.index().max(b.index()))
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

fn assert_identical(engine: &TeEngine, context: &str) {
    let check = engine.verify_against_cold().unwrap();
    assert!(
        check.identical,
        "incremental state diverged from cold recompile after {context}: {}",
        check.detail
    );
}

/// Seeded mixed sequence of demand updates and link down/up events. Returns
/// the engine digest `(epoch, max-utilization bits, LSA churn)`, where churn
/// is Σ `delta_fakes_added + delta_fakes_retracted` over every update.
fn drive(topology: &str, seed: u64, steps: usize) -> (u64, u64, usize) {
    let config = EngineConfig {
        topology: topology.to_string(),
        model: DemandModel::Gravity { total: Some(50.0) },
        budget: 5,
    };
    let mut engine = TeEngine::new(&config).unwrap();
    assert_identical(&engine, "startup");

    let n = engine.pristine_graph().node_count() as u64;
    let links = physical_links(&engine);

    let mut rng = Rng(seed);
    let mut down: Vec<(usize, usize)> = Vec::new();
    let mut churn = 0;
    let mut count =
        |out: &UpdateOutcome| churn += out.delta_fakes_added + out.delta_fakes_retracted;
    for step in 0..steps {
        match rng.below(3) {
            // Demand update: overwrite a random off-diagonal entry.
            0 => {
                let src = rng.below(n) as usize;
                let dst = (src + 1 + rng.below(n - 1) as usize) % n as usize;
                let rate = rng.below(1000) as f64 / 37.0;
                let out = engine
                    .apply_demand_update(&[DemandUpdate {
                        src: coyote_graph::NodeId(src),
                        dst: coyote_graph::NodeId(dst),
                        rate,
                    }])
                    .unwrap();
                count(&out);
                assert!(
                    out.dirty_destinations.len() <= 1,
                    "one overwritten entry dirties at most its destination column"
                );
                assert_identical(&engine, &format!("step {step}: demand {src}->{dst}"));
            }
            // Link down (keep at least half the links alive to stay sane).
            1 if down.len() < links.len() / 2 => {
                let alive: Vec<_> = links.iter().filter(|p| !down.contains(p)).collect();
                let &&(a, b) = &alive[rng.below(alive.len() as u64) as usize];
                let out = engine
                    .apply_link_event(coyote_graph::NodeId(a), coyote_graph::NodeId(b), false)
                    .unwrap();
                count(&out);
                assert!(out.router_lsas_replaced);
                assert!(out.immediate_prune.is_some());
                down.push((a, b));
                assert_identical(&engine, &format!("step {step}: link {a}-{b} down"));
            }
            // Link up.
            _ if !down.is_empty() => {
                let (a, b) = down.swap_remove(rng.below(down.len() as u64) as usize);
                let out = engine
                    .apply_link_event(coyote_graph::NodeId(a), coyote_graph::NodeId(b), true)
                    .unwrap();
                count(&out);
                assert_identical(&engine, &format!("step {step}: link {a}-{b} up"));
            }
            _ => {}
        }
    }

    // Restore all links and confirm the pristine program is reproduced.
    for (a, b) in down.drain(..) {
        let out = engine
            .apply_link_event(coyote_graph::NodeId(a), coyote_graph::NodeId(b), true)
            .unwrap();
        count(&out);
    }
    assert_identical(&engine, "after restoring all links");
    (engine.epoch(), engine.max_utilization().to_bits(), churn)
}

#[test]
fn abilene_incremental_equals_cold_at_every_step() {
    // Epoch and max-utilization bits recorded on the commit before the
    // engine's single recompute step. The churn (Σ fakes added + retracted)
    // was 437 until the per-destination solves began from their
    // shortest-path tree: same objective, a vertex nearer plain OSPF.
    assert_eq!(
        drive("abilene", 0xC0FFEE, 14),
        (17, 4613524059668531901, 423)
    );
}

#[test]
fn nsf_incremental_equals_cold_at_every_step() {
    // Churn 2,560 before the tree start, as above.
    assert_eq!(drive("nsf", 0xBEEF, 14), (17, 4621739550271606470, 2127));
}

#[test]
fn abilene_survives_a_node_flap() {
    let mut engine = TeEngine::new(&EngineConfig::default()).unwrap();
    let node = coyote_graph::NodeId(3);
    let out = engine.apply_node_event(node, false).unwrap();
    assert!(out.immediate_prune.is_some());
    assert!(
        engine.unroutable_volume() > 0.0,
        "a failed router's demand must be masked as unroutable"
    );
    assert_identical(&engine, "node down");
    engine.apply_node_event(node, true).unwrap();
    assert!(engine.unroutable_volume() == 0.0);
    assert_identical(&engine, "node up");
}

#[test]
fn fib_replicas_match_cold_recompile_bit_for_bit() {
    // Beyond verify_against_cold: compare the realized FIBs entry by entry
    // after a demand + link churn, including wECMP replica counts.
    let mut engine = TeEngine::new(&EngineConfig {
        topology: "nsf".to_string(),
        model: DemandModel::Bimodal { seed: 11 },
        budget: 5,
    })
    .unwrap();
    engine
        .apply_demand_update(&[DemandUpdate {
            src: coyote_graph::NodeId(0),
            dst: coyote_graph::NodeId(5),
            rate: 9.25,
        }])
        .unwrap();
    let g = engine.pristine_graph();
    let (a, b) = g.endpoints(coyote_graph::EdgeId(2));
    engine.apply_link_event(a, b, false).unwrap();

    let cold = engine.cold_rebuild().unwrap();
    let n = engine.pristine_graph().node_count();
    let warm_fib = engine.fib();
    let cold_fib = coyote_ospf::compute_fib(&cold.lsdb, n);
    for t in 0..n {
        for u in 0..n {
            let warm = warm_fib.entry(coyote_graph::NodeId(u), coyote_graph::NodeId(t));
            let cold_e = cold_fib.entry(coyote_graph::NodeId(u), coyote_graph::NodeId(t));
            assert_eq!(
                warm, cold_e,
                "FIB entry router {u} -> prefix {t} differs from cold recompile"
            );
        }
    }
}

#[test]
fn reopt_telemetry_stays_fixed_size_over_5000_updates() {
    // `/state` reports latencies from two 65-bucket histograms: exact count
    // and maximum, bucket-rounded percentiles, nothing that grows per update.
    let mut engine = TeEngine::new(&EngineConfig::default()).unwrap();
    let mut rng = Rng(7);
    let mut slowest = 0;
    for _ in 0..5000 {
        let out = engine
            .apply_demand_update(&[DemandUpdate {
                src: coyote_graph::NodeId(rng.below(5) as usize),
                dst: coyote_graph::NodeId(5 + rng.below(6) as usize),
                rate: rng.below(1000) as f64 / 37.0,
            }])
            .unwrap();
        slowest = slowest.max(out.reopt_micros);
    }
    let state = StateResponse::of(&engine, None);
    assert_eq!(
        (state.demand_reopt.count, state.event_reopt.count),
        (5000, 0)
    );
    assert!(state.demand_reopt.p50_micros <= state.demand_reopt.p99_micros);
    assert!(state.demand_reopt.p99_micros <= state.demand_reopt.max_micros);
    assert_eq!(state.demand_reopt.max_micros, slowest);
}

/// The engine serves loads it keeps per destination and sums itself; they
/// must be `PdRouting`'s own, bit for bit, after every demand update, link
/// event and node event.
fn assert_loads_equal_the_routing(engine: &TeEngine, context: &str) {
    let (graph, demands) = (engine.current_graph(), engine.demands());
    let routing = engine.routing();
    assert_eq!(
        engine.max_utilization().to_bits(),
        routing.max_link_utilization(graph, demands).to_bits(),
        "max utilization after {context}"
    );
    let loads = routing.edge_loads(graph, demands);
    let served = engine.link_utilizations();
    assert_eq!(served.len(), graph.edge_count());
    for (e, (_, _, utilization)) in graph.edges().zip(served) {
        let expected = loads[e.index()] / graph.capacity(e);
        assert_eq!(
            utilization.to_bits(),
            expected.to_bits(),
            "edge {e} after {context}"
        );
    }
}

#[test]
fn served_loads_equal_the_routings_at_every_step() {
    for (topology, seed) in [("abilene", 0x5EED), ("geant", 0xD1CE)] {
        let mut engine = TeEngine::new(&EngineConfig {
            topology: topology.to_string(),
            model: DemandModel::Bimodal { seed },
            budget: 5,
        })
        .unwrap();
        assert_loads_equal_the_routing(&engine, "startup");
        let n = engine.pristine_graph().node_count() as u64;
        let edges = engine.pristine_graph().edge_count() as u64;
        let mut rng = Rng(seed);
        let (mut link_down, mut node_down) = (None, None);
        for step in 0..60 {
            let context = format!("{topology} step {step}");
            match step % 10 {
                4 => {
                    let e = coyote_graph::EdgeId(rng.below(edges) as usize);
                    let (a, b) = engine.pristine_graph().endpoints(e);
                    engine.apply_link_event(a, b, false).unwrap();
                    link_down = Some((a, b));
                }
                6 => {
                    let (a, b) = link_down.take().unwrap();
                    engine.apply_link_event(a, b, true).unwrap();
                }
                7 => {
                    let node = coyote_graph::NodeId(rng.below(n) as usize);
                    engine.apply_node_event(node, false).unwrap();
                    node_down = Some(node);
                }
                9 => {
                    engine
                        .apply_node_event(node_down.take().unwrap(), true)
                        .unwrap();
                }
                _ => {
                    engine.apply_demand_update(&overrides(&mut rng, n)).unwrap();
                }
            }
            assert_loads_equal_the_routing(&engine, &context);
        }
    }
}

/// One to three demand overrides between distinct routers of an `n`-router
/// topology, zero rates included.
fn overrides(rng: &mut Rng, n: u64) -> Vec<DemandUpdate> {
    (0..1 + rng.below(3))
        .map(|_| {
            let src = rng.below(n) as usize;
            let dst = (src + 1 + rng.below(n - 1) as usize) % n as usize;
            DemandUpdate {
                src: NodeId(src),
                dst: NodeId(dst),
                rate: rng.below(4) as f64 * rng.below(1000) as f64 / 37.0,
            }
        })
        .collect()
}

/// Destinations whose demand column differs bit for bit between two
/// matrices of one size.
fn changed_columns(old: &DemandMatrix, new: &DemandMatrix) -> Vec<usize> {
    let n = old.node_count();
    let entry = |dm: &DemandMatrix, s: usize, t: usize| dm.get(NodeId(s), NodeId(t)).to_bits();
    (0..n)
        .filter(|&t| (0..n).any(|s| entry(old, s, t) != entry(new, s, t)))
        .collect()
}

type FailureSets = (Vec<(usize, usize)>, Vec<usize>);

fn failure_sets(engine: &TeEngine) -> FailureSets {
    (
        engine.failed_links().collect(),
        engine.failed_nodes().collect(),
    )
}

/// Drives one engine through link and node flaps, checking every step.
struct Flaps {
    engine: TeEngine,
    rng: Rng,
    links: Vec<(usize, usize)>,
    /// The failure sets before the last topology event and the demands at
    /// it: the key of the program the engine keeps, and what it was solved
    /// for.
    kept: Option<(FailureSets, DemandMatrix)>,
    /// Restoring events whose outage moved no column / some column.
    restores: (usize, usize),
}

impl Flaps {
    fn check(&self, context: &str) {
        assert_identical(&self.engine, context);
        assert_loads_equal_the_routing(&self.engine, context);
    }

    fn demand(&mut self, context: &str) {
        let n = self.engine.pristine_graph().node_count() as u64;
        let updates = overrides(&mut self.rng, n);
        self.engine.apply_demand_update(&updates).unwrap();
        self.check(context);
    }

    /// A topology event. One that returns the failure sets to the kept key
    /// re-solves exactly the columns that moved since that program was
    /// replaced — none if none moved; any other re-solves every destination.
    fn event(
        &mut self,
        context: &str,
        apply: impl FnOnce(&mut TeEngine) -> Result<UpdateOutcome, ServeError>,
    ) {
        let before = failure_sets(&self.engine);
        let demands = self.engine.demands().clone();
        let out = apply(&mut self.engine).unwrap();
        let expected = match &self.kept {
            Some((key, kept)) if *key == failure_sets(&self.engine) => {
                let moved = changed_columns(kept, &demands);
                if moved.is_empty() {
                    self.restores.0 += 1;
                } else {
                    self.restores.1 += 1;
                }
                moved
            }
            _ => (0..demands.node_count()).collect(),
        };
        assert_eq!(out.dirty_destinations, expected, "{context}");
        self.kept = Some((before, demands));
        self.check(context);
    }

    fn link(&mut self, (a, b): (usize, usize), up: bool, context: &str) {
        let context = format!("{context}: link {a}-{b} up={up}");
        self.event(&context, |e| e.apply_link_event(NodeId(a), NodeId(b), up));
    }

    fn node(&mut self, node: usize, up: bool, context: &str) {
        let context = format!("{context}: node {node} up={up}");
        self.event(&context, |e| e.apply_node_event(NodeId(node), up));
    }

    fn random_link(&mut self) -> (usize, usize) {
        self.links[self.rng.below(self.links.len() as u64) as usize]
    }
}

/// Forty rounds per topology: a link goes down, 0–5 demand updates land,
/// the link comes back. Every fifth round a second link flaps inside the
/// outage; every seventh a node flap with a demand update inside follows.
/// Every step equals a cold rebuild, and every recovery to the failure sets
/// of one event earlier re-solves exactly the columns its outage moved.
#[test]
fn recoveries_equal_cold_at_every_step_and_resolve_only_what_moved() {
    for (topology, seed) in [
        ("abilene", 0xF1A9),
        ("nsf", 0xF1AB),
        ("germany", 0xF1AC),
        ("geant", 0xF1AD),
    ] {
        let engine = TeEngine::new(&EngineConfig {
            topology: topology.to_string(),
            model: DemandModel::Gravity { total: Some(100.0) },
            budget: 5,
        })
        .unwrap();
        let nodes = engine.pristine_graph().node_count() as u64;
        let mut flaps = Flaps {
            links: physical_links(&engine),
            engine,
            rng: Rng(seed),
            kept: None,
            restores: (0, 0),
        };
        for round in 1..=40 {
            let context = format!("{topology} round {round}");
            let first = flaps.random_link();
            flaps.link(first, false, &context);
            let updates = flaps.rng.below(6);
            let second_at = (round % 5 == 0).then(|| flaps.rng.below(updates + 1));
            for k in 0..=updates {
                if second_at == Some(k) {
                    let second = loop {
                        let link = flaps.random_link();
                        if link != first {
                            break link;
                        }
                    };
                    flaps.link(second, false, &context);
                    flaps.link(second, true, &context);
                }
                if k < updates {
                    flaps.demand(&format!("{context}: demand {k}"));
                }
            }
            flaps.link(first, true, &context);
            if round % 7 == 0 {
                let node = flaps.rng.below(nodes) as usize;
                flaps.node(node, false, &context);
                flaps.demand(&format!("{context}: demand inside the node outage"));
                flaps.node(node, true, &context);
            }
        }
        let (still, moved) = flaps.restores;
        assert!(
            still > 0 && moved > 0,
            "{topology}: restores {still} / {moved}"
        );
    }
}
