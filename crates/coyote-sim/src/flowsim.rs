//! Flow-level network emulator (the Mininet substitute).
//!
//! The paper's prototype experiment (Section VII) runs the COYOTE and
//! traditional-TE configurations in Mininet with 1 Mbps links and measures
//! the packet-drop rate of constant-bit-rate UDP flows under three traffic
//! scenarios. The outcome of such an experiment is a deterministic function
//! of the forwarding configuration, the link capacities and the offered
//! load, which this flow-level model reproduces:
//!
//! * every *prefix* (IP destination) has its own per-destination forwarding
//!   DAG and splitting ratios — this per-prefix granularity is exactly the
//!   extra expressiveness COYOTE gets from Fibbing (different prefixes of
//!   the same egress router may use different DAGs);
//! * constant-bit-rate flows are injected at their sources;
//! * when the total rate offered to a link exceeds its capacity, the excess
//!   is dropped and every flow crossing the link loses the same *fraction*
//!   (a fluid approximation of FIFO tail drop under uniform packet sizes);
//! * drops propagate: traffic lost upstream never reaches downstream links.
//!
//! Because different prefixes may use differently-ordered DAGs, the solver
//! runs a short fixed-point iteration over per-link delivery fractions; on
//! feed-forward (DAG) topologies it converges in a handful of rounds.

use coyote_graph::{EdgeId, Graph, NodeId};
use coyote_traffic::DemandMatrix;
use serde::Serialize;
use std::collections::BTreeMap;

/// A destination prefix: traffic addressed to it is routed by its own DAG /
/// splitting ratios, all rooted at the prefix's egress node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct PrefixId(pub usize);

/// Per-prefix forwarding state: for the egress node and every edge, the
/// fraction of prefix traffic entering the edge's tail that leaves on it.
#[derive(Debug, Clone)]
pub struct PrefixRouting {
    /// The egress (destination) node of the prefix.
    pub egress: NodeId,
    /// Splitting ratio per edge (must sum to one over the out-edges a node
    /// actually uses; zero elsewhere).
    pub ratios: Vec<f64>,
}

/// A constant-bit-rate flow.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CbrFlow {
    /// Ingress node.
    pub source: NodeId,
    /// Destination prefix.
    pub prefix: PrefixId,
    /// Offered rate (same units as link capacities).
    pub rate: f64,
}

/// Result of simulating one steady-state traffic scenario.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SimOutcome {
    /// Total rate offered by all flows.
    pub offered: f64,
    /// Total rate delivered to the prefixes' egress nodes.
    pub delivered: f64,
    /// Per-edge carried load (after drops).
    pub edge_loads: Vec<f64>,
    /// Per-prefix delivered rate.
    pub delivered_per_prefix: BTreeMap<usize, f64>,
    /// Rate that was offered but never reached a congested link *or* the
    /// egress: traffic stranded at a node with no usable route towards its
    /// prefix (e.g. because a failure partitioned the topology). Always
    /// part of the dropped volume (`offered - delivered`), reported
    /// separately so callers can tell "lost to congestion" from "lost to
    /// disconnection".
    pub unrouted: f64,
}

impl SimOutcome {
    /// Fraction of offered traffic that was dropped.
    pub fn drop_rate(&self) -> f64 {
        if self.offered <= 0.0 {
            return 0.0;
        }
        ((self.offered - self.delivered) / self.offered).max(0.0)
    }

    /// Fraction of offered traffic that was delivered.
    pub fn delivery_rate(&self) -> f64 {
        1.0 - self.drop_rate()
    }

    /// Fraction of offered traffic that was stranded without a route (see
    /// [`SimOutcome::unrouted`]).
    pub fn unrouted_rate(&self) -> f64 {
        if self.offered <= 0.0 {
            return 0.0;
        }
        (self.unrouted / self.offered).clamp(0.0, 1.0)
    }
}

/// The emulator: a topology plus per-prefix forwarding state.
#[derive(Debug, Clone)]
pub struct FlowSimulator {
    graph: Graph,
    prefixes: Vec<PrefixRouting>,
    /// Fixed-point iterations (enough for any DAG depth in practice).
    max_rounds: usize,
}

impl FlowSimulator {
    /// Creates an emulator over `graph` with no prefixes registered yet.
    pub fn new(graph: Graph) -> Self {
        Self {
            graph,
            prefixes: Vec::new(),
            max_rounds: 32,
        }
    }

    /// Creates an emulator over `graph` with the given prefixes already
    /// registered, in order (the first entry becomes `PrefixId(0)`). This is
    /// the generalized constructor every scenario — from the 3-router
    /// prototype to a zoo-scale conformance cell — goes through.
    pub fn with_prefixes(graph: Graph, prefixes: Vec<(NodeId, Vec<f64>)>) -> Self {
        let mut sim = Self::new(graph);
        for (egress, ratios) in prefixes {
            sim.add_prefix(egress, ratios);
        }
        sim
    }

    /// Builds a simulator that emulates a whole per-destination routing
    /// configuration: every node `t` of `graph` becomes one prefix (with
    /// `PrefixId(t.index())`) forwarded along `routing`'s DAG and splitting
    /// ratios towards `t`. Combined with [`FlowSimulator::run_matrix`] this
    /// turns any [`coyote_core::PdRouting`] + demand matrix into a simulated
    /// steady state, which is how the conformance engine cross-checks the
    /// analytic sweep numbers against the realized Fibbing routing.
    pub fn from_pd_routing(graph: &Graph, routing: &coyote_core::PdRouting) -> Self {
        assert_eq!(
            routing.destination_count(),
            graph.node_count(),
            "routing must cover every graph node as a destination"
        );
        let mut sim = Self::new(graph.clone());
        for t in graph.nodes() {
            sim.add_prefix(t, routing.ratios(t).to_vec());
        }
        sim
    }

    /// Overrides the fixed-point iteration budget (mostly for tests that
    /// want to confirm the default budget already reaches the fixed point).
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds.max(1);
        self
    }

    /// The underlying topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Registers a prefix and returns its id.
    pub fn add_prefix(&mut self, egress: NodeId, ratios: Vec<f64>) -> PrefixId {
        assert_eq!(
            ratios.len(),
            self.graph.edge_count(),
            "one ratio per directed edge"
        );
        let id = PrefixId(self.prefixes.len());
        self.prefixes.push(PrefixRouting { egress, ratios });
        id
    }

    /// Number of registered prefixes.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    /// Converts a demand matrix into CBR flows addressed to the
    /// per-destination prefixes of a simulator built by
    /// [`FlowSimulator::from_pd_routing`] (prefix id == destination index).
    /// Pairs with zero demand produce no flow; iteration order is the
    /// row-major order of [`DemandMatrix::pairs`], so the flow list is
    /// deterministic.
    pub fn flows_from_matrix(&self, dm: &DemandMatrix) -> Vec<CbrFlow> {
        assert_eq!(
            self.prefixes.len(),
            self.graph.node_count(),
            "flows_from_matrix requires one prefix per node \
             (build the simulator with from_pd_routing)"
        );
        dm.pairs()
            .map(|(s, t, rate)| CbrFlow {
                source: s,
                prefix: PrefixId(t.index()),
                rate,
            })
            .collect()
    }

    /// Simulates the steady state of routing a whole demand matrix through
    /// a per-destination simulator (see [`FlowSimulator::flows_from_matrix`]).
    pub fn run_matrix(&self, dm: &DemandMatrix) -> SimOutcome {
        self.run(&self.flows_from_matrix(dm))
    }

    /// Maximum link utilization (carried load / capacity) over all edges of
    /// an outcome — the simulated counterpart of
    /// `PdRouting::max_link_utilization`. Because the emulator drops the
    /// excess on oversubscribed links, this is capped at 1 by construction.
    pub fn max_utilization(&self, outcome: &SimOutcome) -> f64 {
        self.graph
            .edges()
            .map(|e| outcome.edge_loads[e.index()] / self.graph.capacity(e))
            .fold(0.0, f64::max)
    }

    /// Simulates the steady state of a set of CBR flows.
    pub fn run(&self, flows: &[CbrFlow]) -> SimOutcome {
        let _span = coyote_obs::span("sim.flowsim");
        let ne = self.graph.edge_count();
        let nn = self.graph.node_count();

        // Delivery fraction per edge (1 = no drop), refined iteratively.
        let mut pass = vec![1.0_f64; ne];
        let mut edge_loads = vec![0.0_f64; ne];
        let mut delivered_per_prefix: BTreeMap<usize, f64> = BTreeMap::new();
        let mut delivered_total = 0.0;
        let mut unrouted_total = 0.0;
        let mut rounds = 0usize;
        let mut residual = 0.0_f64;

        for _ in 0..self.max_rounds {
            rounds += 1;
            edge_loads.iter_mut().for_each(|l| *l = 0.0);
            delivered_per_prefix.clear();
            delivered_total = 0.0;
            unrouted_total = 0.0;

            for (pid, prefix) in self.prefixes.iter().enumerate() {
                // Traffic of this prefix arriving at each node (after drops).
                let mut arriving = vec![0.0_f64; nn];
                let mut injected = 0.0_f64;
                for f in flows {
                    if f.prefix == PrefixId(pid) {
                        arriving[f.source.index()] += f.rate;
                        injected += f.rate;
                    }
                }
                // Volume of this prefix lost to congestion (link drops), as
                // opposed to stranded at nodes with no usable out-edge.
                let mut link_dropped = 0.0_f64;
                // Propagate along the prefix's DAG. A topological order of
                // the edges with positive ratio is implied by acyclicity; we
                // process nodes in order of "longest remaining path" by
                // simply iterating relaxations until stable (bounded by n).
                let mut node_out = vec![0.0_f64; nn];
                let mut processed = vec![false; nn];
                for _ in 0..nn {
                    // Pick an unprocessed node whose in-edges (with positive
                    // ratio) all come from processed nodes.
                    let mut progressed = false;
                    for u in self.graph.nodes() {
                        if processed[u.index()] || u == prefix.egress {
                            continue;
                        }
                        let ready = self.graph.in_edges(u).iter().all(|&e| {
                            prefix.ratios[e.index()] <= 0.0
                                || processed[self.graph.edge(e).src.index()]
                        });
                        if !ready {
                            continue;
                        }
                        processed[u.index()] = true;
                        progressed = true;
                        node_out[u.index()] = arriving[u.index()];
                        for &e in self.graph.out_edges(u) {
                            let r = prefix.ratios[e.index()];
                            if r <= 0.0 {
                                continue;
                            }
                            let offered_on_edge = node_out[u.index()] * r;
                            let carried = offered_on_edge * pass[e.index()];
                            edge_loads[e.index()] += offered_on_edge;
                            link_dropped += offered_on_edge - carried;
                            arriving[self.graph.edge(e).dst.index()] += carried;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                let delivered = arriving[prefix.egress.index()];
                *delivered_per_prefix.entry(pid).or_insert(0.0) += delivered;
                delivered_total += delivered;
                // Whatever was injected but neither delivered nor lost on a
                // congested link is stranded: it reached a node with no
                // positive-ratio out-edge for this prefix (a partitioned
                // source, a pruned DAG dead end, or an unreachable cycle in
                // the ready sweep). Post-failure scenarios must see this as
                // dropped volume, never as a panic or a silent vanish.
                unrouted_total += (injected - delivered - link_dropped).max(0.0);
            }

            // Update per-edge delivery fractions from the offered loads.
            let mut changed = false;
            residual = 0.0;
            for e in self.graph.edges() {
                let offered = edge_loads[e.index()];
                let new_pass = if offered > self.graph.capacity(e) {
                    self.graph.capacity(e) / offered
                } else {
                    1.0
                };
                let delta = (new_pass - pass[e.index()]).abs();
                if delta > 1e-9 {
                    changed = true;
                }
                residual = residual.max(delta);
                pass[e.index()] = new_pass;
            }
            if !changed {
                break;
            }
        }

        if coyote_obs::enabled() {
            coyote_obs::counter("sim.flowsim.runs", 1);
            coyote_obs::counter("sim.flowsim.rounds", rounds as u64);
            coyote_obs::observe("sim.flowsim.rounds_per_run", rounds as u64);
            // The fixed-point residual of the final round (max |Δpass| over
            // all edges), quantized to 1e-12 units so the deterministic
            // histogram can hold it. 0 means the run converged exactly.
            coyote_obs::observe(
                "sim.flowsim.residual_pico",
                (residual * 1e12).round() as u64,
            );
        }

        // Report carried (post-drop) loads rather than offered loads.
        let carried: Vec<f64> = edge_loads
            .iter()
            .zip(&pass)
            .map(|(&offered, &p)| offered * p)
            .collect();

        let offered_total: f64 = flows.iter().map(|f| f.rate).sum();
        SimOutcome {
            offered: offered_total,
            delivered: delivered_total.min(offered_total),
            edge_loads: carried,
            delivered_per_prefix,
            unrouted: unrouted_total.min(offered_total),
        }
    }

    /// Utilization (carried load / capacity) of an edge in an outcome.
    pub fn utilization(&self, outcome: &SimOutcome, edge: EdgeId) -> f64 {
        outcome.edge_loads[edge.index()] / self.graph.capacity(edge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two sources, one sink, 1-capacity links: s1 - t, s2 - t, s1 - s2.
    fn triangle() -> (Graph, NodeId, NodeId, NodeId) {
        let mut g = Graph::new();
        let s1 = g.add_node("s1").unwrap();
        let s2 = g.add_node("s2").unwrap();
        let t = g.add_node("t").unwrap();
        g.add_bidirectional_edge(s1, t, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s2, t, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(s1, s2, 1.0, 1.0).unwrap();
        (g, s1, s2, t)
    }

    fn direct_ratios(g: &Graph, s1: NodeId, s2: NodeId, t: NodeId) -> Vec<f64> {
        let mut r = vec![0.0; g.edge_count()];
        r[g.find_edge(s1, t).unwrap().index()] = 1.0;
        r[g.find_edge(s2, t).unwrap().index()] = 1.0;
        r
    }

    #[test]
    fn under_capacity_traffic_is_fully_delivered() {
        let (g, s1, s2, t) = triangle();
        let ratios = direct_ratios(&g, s1, s2, t);
        let mut sim = FlowSimulator::new(g);
        let p = sim.add_prefix(t, ratios);
        let outcome = sim.run(&[
            CbrFlow {
                source: s1,
                prefix: p,
                rate: 0.8,
            },
            CbrFlow {
                source: s2,
                prefix: p,
                rate: 0.6,
            },
        ]);
        assert!((outcome.delivered - 1.4).abs() < 1e-9);
        assert_eq!(outcome.drop_rate(), 0.0);
        assert!((outcome.delivery_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_link_drops_the_excess() {
        let (g, s1, s2, t) = triangle();
        let ratios = direct_ratios(&g, s1, s2, t);
        let mut sim = FlowSimulator::new(g);
        let p = sim.add_prefix(t, ratios);
        let outcome = sim.run(&[CbrFlow {
            source: s2,
            prefix: p,
            rate: 2.0,
        }]);
        // The s2-t link caps at 1.0: half the traffic is lost.
        assert!((outcome.delivered - 1.0).abs() < 1e-9);
        assert!((outcome.drop_rate() - 0.5).abs() < 1e-9);
        let _ = s1;
    }

    #[test]
    fn splitting_avoids_the_bottleneck() {
        let (g, s1, s2, t) = triangle();
        // s2 splits its traffic: half direct, half via s1.
        let mut ratios = vec![0.0; g.edge_count()];
        ratios[g.find_edge(s2, t).unwrap().index()] = 0.5;
        ratios[g.find_edge(s2, s1).unwrap().index()] = 0.5;
        ratios[g.find_edge(s1, t).unwrap().index()] = 1.0;
        let mut sim = FlowSimulator::new(g);
        let p = sim.add_prefix(t, ratios);
        let outcome = sim.run(&[CbrFlow {
            source: s2,
            prefix: p,
            rate: 2.0,
        }]);
        assert!(
            outcome.drop_rate() < 1e-9,
            "drop rate {}",
            outcome.drop_rate()
        );
    }

    #[test]
    fn upstream_drops_reduce_downstream_load() {
        // s2 -> s1 -> t where the first link is the bottleneck.
        let mut g = Graph::new();
        let s2 = g.add_node("s2").unwrap();
        let s1 = g.add_node("s1").unwrap();
        let t = g.add_node("t").unwrap();
        g.add_edge(s2, s1, 1.0, 1.0).unwrap();
        g.add_edge(s1, t, 10.0, 1.0).unwrap();
        let mut ratios = vec![0.0; g.edge_count()];
        ratios[0] = 1.0;
        ratios[1] = 1.0;
        let s1t = g.find_edge(s1, t).unwrap();
        let mut sim = FlowSimulator::new(g);
        let p = sim.add_prefix(t, ratios);
        let outcome = sim.run(&[CbrFlow {
            source: s2,
            prefix: p,
            rate: 3.0,
        }]);
        // Only 1.0 survives the first link, so the second carries 1.0.
        assert!((outcome.edge_loads[s1t.index()] - 1.0).abs() < 1e-9);
        assert!((outcome.drop_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn per_prefix_routing_is_independent() {
        let (g, s1, s2, t) = triangle();
        // Prefix A goes direct from both sources; prefix B from s2 detours
        // via s1.
        let ratios_a = direct_ratios(&g, s1, s2, t);
        let mut ratios_b = vec![0.0; g.edge_count()];
        ratios_b[g.find_edge(s2, s1).unwrap().index()] = 1.0;
        ratios_b[g.find_edge(s1, t).unwrap().index()] = 1.0;
        let s1t = g.find_edge(s1, t).unwrap();
        let mut sim = FlowSimulator::new(g);
        let pa = sim.add_prefix(t, ratios_a);
        let pb = sim.add_prefix(t, ratios_b);
        let outcome = sim.run(&[
            CbrFlow {
                source: s1,
                prefix: pa,
                rate: 0.4,
            },
            CbrFlow {
                source: s2,
                prefix: pb,
                rate: 0.5,
            },
        ]);
        assert_eq!(outcome.drop_rate(), 0.0);
        // The s1-t link carries both prefixes.
        assert!((outcome.edge_loads[s1t.index()] - 0.9).abs() < 1e-9);
        assert!((outcome.delivered_per_prefix[&0] - 0.4).abs() < 1e-9);
        assert!((outcome.delivered_per_prefix[&1] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn with_prefixes_matches_incremental_registration() {
        let (g, s1, s2, t) = triangle();
        let ratios = direct_ratios(&g, s1, s2, t);
        let mut incremental = FlowSimulator::new(g.clone());
        let p = incremental.add_prefix(t, ratios.clone());
        let batch = FlowSimulator::with_prefixes(g, vec![(t, ratios)]);
        assert_eq!(batch.prefix_count(), 1);
        let flows = [CbrFlow {
            source: s2,
            prefix: p,
            rate: 2.0,
        }];
        assert_eq!(incremental.run(&flows), batch.run(&flows));
    }

    #[test]
    fn from_pd_routing_simulates_a_whole_demand_matrix() {
        use coyote_core::ecmp_routing;

        let (g, s1, s2, t) = triangle();
        let routing = ecmp_routing(&g).unwrap();
        let sim = FlowSimulator::from_pd_routing(&g, &routing);
        assert_eq!(sim.prefix_count(), g.node_count());

        // Under-capacity demands are fully delivered and the simulated
        // utilizations agree with the analytic per-edge loads.
        let mut dm = DemandMatrix::zeros(g.node_count());
        dm.set(s1, t, 0.5);
        dm.set(s2, t, 0.25);
        let outcome = sim.run_matrix(&dm);
        assert!((outcome.delivered - 0.75).abs() < 1e-9);
        assert_eq!(outcome.drop_rate(), 0.0);
        let analytic = routing.edge_loads(&g, &dm);
        for e in g.edges() {
            assert!(
                (outcome.edge_loads[e.index()] - analytic[e.index()]).abs() < 1e-9,
                "edge {e}: sim {} vs analytic {}",
                outcome.edge_loads[e.index()],
                analytic[e.index()]
            );
        }
        assert!(
            (sim.max_utilization(&outcome) - routing.max_link_utilization(&g, &dm)).abs() < 1e-9
        );
    }

    #[test]
    fn flows_from_matrix_is_deterministic_and_skips_zero_pairs() {
        let (g, s1, s2, t) = triangle();
        let routing = coyote_core::ecmp_routing(&g).unwrap();
        let sim = FlowSimulator::from_pd_routing(&g, &routing);
        let mut dm = DemandMatrix::zeros(g.node_count());
        dm.set(s2, t, 1.5);
        let flows = sim.flows_from_matrix(&dm);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].source, s2);
        assert_eq!(flows[0].prefix, PrefixId(t.index()));
        assert_eq!(flows[0].rate, 1.5);
        let _ = s1;
    }

    #[test]
    fn partitioned_demand_registers_as_unrouted_drop() {
        // Two components: {a, b} and {c, t}, with t the egress. Demand from
        // a and b can never reach t — it must show up as dropped *and*
        // unrouted volume, not panic and not silently vanish.
        let mut g = Graph::new();
        let a = g.add_node("a").unwrap();
        let b = g.add_node("b").unwrap();
        let c = g.add_node("c").unwrap();
        let t = g.add_node("t").unwrap();
        g.add_bidirectional_edge(a, b, 1.0, 1.0).unwrap();
        g.add_bidirectional_edge(c, t, 1.0, 1.0).unwrap();
        let mut ratios = vec![0.0; g.edge_count()];
        ratios[g.find_edge(c, t).unwrap().index()] = 1.0;
        let mut sim = FlowSimulator::new(g);
        let p = sim.add_prefix(t, ratios);
        let outcome = sim.run(&[
            CbrFlow {
                source: a,
                prefix: p,
                rate: 0.7,
            },
            CbrFlow {
                source: b,
                prefix: p,
                rate: 0.3,
            },
            CbrFlow {
                source: c,
                prefix: p,
                rate: 0.5,
            },
        ]);
        // The reachable flow (from c) is delivered; the stranded 1.0 from
        // the far component is dropped and attributed to disconnection.
        assert!((outcome.offered - 1.5).abs() < 1e-9);
        assert!((outcome.delivered - 0.5).abs() < 1e-9);
        assert!((outcome.unrouted - 1.0).abs() < 1e-9);
        assert!((outcome.drop_rate() - 1.0 / 1.5).abs() < 1e-9);
        assert!((outcome.unrouted_rate() - 1.0 / 1.5).abs() < 1e-9);
        // No edge of either component carries the stranded traffic.
        assert!(outcome.edge_loads.iter().all(|&l| l <= 0.5 + 1e-9));
    }

    #[test]
    fn congestion_drops_are_not_counted_as_unrouted() {
        let (g, s1, s2, t) = triangle();
        let ratios = direct_ratios(&g, s1, s2, t);
        let mut sim = FlowSimulator::new(g);
        let p = sim.add_prefix(t, ratios);
        // 2.0 offered into a 1.0-capacity link: congestion drop, fully
        // routed — unrouted must stay zero.
        let outcome = sim.run(&[CbrFlow {
            source: s2,
            prefix: p,
            rate: 2.0,
        }]);
        assert!((outcome.drop_rate() - 0.5).abs() < 1e-9);
        assert!(outcome.unrouted.abs() < 1e-9);
        let _ = s1;
    }

    #[test]
    fn zero_traffic_is_a_noop() {
        let (g, s1, s2, t) = triangle();
        let ratios = direct_ratios(&g, s1, s2, t);
        let mut sim = FlowSimulator::new(g);
        let _p = sim.add_prefix(t, ratios);
        let outcome = sim.run(&[]);
        assert_eq!(outcome.offered, 0.0);
        assert_eq!(outcome.drop_rate(), 0.0);
        assert!(outcome.edge_loads.iter().all(|&l| l == 0.0));
    }
}
