//! The incremental TE engine: the daemon's in-memory state machine.
//!
//! The engine holds a scenario (topology + demand matrix + failure set) and
//! the *compiled* artifacts derived from it — augmented DAGs, per-destination
//! splitting ratios, and the lied-to LSDB — and reacts to three kinds of
//! updates:
//!
//! * **Demand updates** dirty exactly the destinations whose demand column
//!   changed ([`coyote_core::demand_dirty_destinations`]); only those are
//!   re-solved and recompiled.
//! * **Link events** and **node events** dirty *every* destination: augmented
//!   DAGs contain each surviving physical link in some orientation, so there
//!   is no per-destination locality to exploit. The win over the batch
//!   pipeline is the policy itself (separable per-destination LPs instead of
//!   the joint oblivious optimization).
//!
//! Every update is materialized as an [`LsaDelta`] and the engine advances
//! its own LSDB **by applying that delta** — the same object a real Fibbing
//! controller would flood — so the differential guarantee ("delta applied to
//! the old LSDB is bit-identical to a cold recompile") is exercised on the
//! production path, not just in tests. [`TeEngine::verify_against_cold`]
//! checks it on demand.
//!
//! The per-destination policy is deliberately *separable* (see
//! [`coyote_core::incremental`]): destination `t`'s solution is a pure
//! function of `(current graph, dag_t, demand column t)`, which is what
//! makes "recompute only the dirty part" equal to "recompute everything"
//! bit for bit.

use crate::error::ServeError;
use coyote_core::{
    build_all_dags, demand_dirty_destinations, solve_destination, DagMode, DestinationSolve,
    PdRouting,
};
use coyote_graph::{Dag, EdgeId, Graph, NodeId};
use coyote_lp::PhaseOneCache;
use coyote_ospf::{
    compile_destination, compute_fib, DestinationLies, Fib, LsaDelta, Lsdb, PrefixUpdate,
    PruneStats, VirtualLinkBudget,
};
use coyote_topology::zoo;
use coyote_traffic::{BimodalModel, DemandMatrix, GravityModel};
use serde::Serialize;
use std::collections::BTreeSet;
use std::time::Instant;

/// How the engine synthesizes its initial demand matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum DemandModel {
    /// Gravity model proportional to outgoing capacities.
    Gravity {
        /// Optional total-volume normalization.
        total: Option<f64>,
    },
    /// Seeded bimodal elephant/mice model.
    Bimodal {
        /// Deterministic seed.
        seed: u64,
    },
}

impl DemandModel {
    fn generate(&self, graph: &Graph) -> DemandMatrix {
        match self {
            DemandModel::Gravity { total: Some(t) } => GravityModel::with_total(*t).generate(graph),
            DemandModel::Gravity { total: None } => GravityModel::default().generate(graph),
            DemandModel::Bimodal { seed } => BimodalModel::with_seed(*seed).generate(graph),
        }
    }
}

/// Startup configuration for a [`TeEngine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Topology-zoo name (lowercase, e.g. `"abilene"`, `"nsf"`).
    pub topology: String,
    /// Initial demand matrix model.
    pub model: DemandModel,
    /// FIB-entry budget per prefix for the wECMP approximation.
    pub budget: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            topology: "abilene".to_string(),
            model: DemandModel::Gravity { total: Some(100.0) },
            budget: 5,
        }
    }
}

/// A single `(source, destination, rate)` demand override.
#[derive(Debug, Clone)]
pub struct DemandUpdate {
    /// Source router name or index (resolved by the engine).
    pub src: NodeId,
    /// Destination router name or index.
    pub dst: NodeId,
    /// New rate (replaces the current entry; `0.0` deletes it).
    pub rate: f64,
}

/// What a single update did to the engine, returned to the client.
#[derive(Debug, Clone, Serialize)]
pub struct UpdateOutcome {
    /// Engine epoch after the update (increments once per applied update).
    pub epoch: u64,
    /// Update kind: `"demand"`, `"link"` or `"node"`.
    pub kind: &'static str,
    /// Destinations that were re-solved and recompiled.
    pub dirty_destinations: Vec<usize>,
    /// Prefixes the emitted delta actually re-advertises (dirty destinations
    /// whose lie set changed content-wise).
    pub delta_prefixes: usize,
    /// Lies injected by the delta.
    pub delta_fakes_added: usize,
    /// Lies retracted by the delta.
    pub delta_fakes_retracted: usize,
    /// True when the delta carries replacement router LSAs (topology event).
    pub router_lsas_replaced: bool,
    /// Wall-clock time of the incremental re-optimization, microseconds.
    pub reopt_micros: u64,
    /// Max link utilization of the new routing on the current demands.
    pub max_utilization: f64,
    /// Demand volume currently unroutable (source cut off by failures).
    pub unroutable_volume: f64,
    /// OSPF's immediate reaction to a failure (LSAs withdrawn before the
    /// controller re-optimized), when the update was a down event.
    pub immediate_prune: Option<PruneStats>,
}

/// Result of [`TeEngine::verify_against_cold`]: the differential check.
#[derive(Debug, Clone, Serialize)]
pub struct ColdCheck {
    /// True when the incrementally-maintained state is bit-identical to a
    /// cold recompile (LSDB, FIB and splitting ratios all agree exactly).
    pub identical: bool,
    /// Wall-clock time of the cold rebuild, microseconds.
    pub cold_micros: u64,
    /// Human-readable mismatch description (empty when identical).
    pub detail: String,
}

/// Everything a cold recompile of the current scenario produces.
pub struct ColdState {
    /// The augmented DAGs of the surviving graph.
    pub dags: Vec<Dag>,
    /// The separable routing.
    pub routing: PdRouting,
    /// The lied-to LSDB.
    pub lsdb: Lsdb,
    /// Per-destination solves.
    pub solves: Vec<DestinationSolve>,
    /// Per-destination lies (pre-injection).
    pub lies: Vec<DestinationLies>,
    /// Wall-clock time of the rebuild, microseconds.
    pub micros: u64,
}

/// The long-running incremental TE engine.
pub struct TeEngine {
    name: String,
    budget: VirtualLinkBudget,
    pristine: Graph,
    failed_links: BTreeSet<(usize, usize)>,
    failed_nodes: BTreeSet<usize>,
    current: Graph,
    demands: DemandMatrix,
    dags: Vec<Dag>,
    caches: Vec<PhaseOneCache>,
    solves: Vec<DestinationSolve>,
    lies: Vec<DestinationLies>,
    routing: PdRouting,
    lsdb: Lsdb,
    epoch: u64,
    demand_reopt_micros: Vec<u64>,
    event_reopt_micros: Vec<u64>,
}

impl TeEngine {
    /// Loads the topology, synthesizes the demand matrix and compiles the
    /// initial Fibbing program.
    pub fn new(config: &EngineConfig) -> Result<TeEngine, ServeError> {
        let topo = zoo::by_name(&config.topology).ok_or_else(|| {
            ServeError::BadRequest(format!("unknown topology {:?}", config.topology))
        })?;
        let mut pristine = topo.to_graph()?;
        pristine.set_inverse_capacity_weights(10.0);
        let demands = config.model.generate(&pristine);
        let n = pristine.node_count();
        let mut engine = TeEngine {
            name: config.topology.clone(),
            budget: VirtualLinkBudget::per_prefix(config.budget),
            current: pristine.clone(),
            pristine,
            failed_links: BTreeSet::new(),
            failed_nodes: BTreeSet::new(),
            demands,
            dags: Vec::new(),
            caches: (0..n).map(|_| PhaseOneCache::new()).collect(),
            solves: Vec::new(),
            lies: Vec::new(),
            routing: PdRouting::uniform(&Graph::new(), Vec::new()),
            lsdb: Lsdb::with_router_lsas(Vec::new()),
            epoch: 0,
            demand_reopt_micros: Vec::new(),
            event_reopt_micros: Vec::new(),
        };
        let cold = engine.cold_rebuild()?;
        engine.dags = cold.dags;
        engine.routing = cold.routing;
        engine.lsdb = cold.lsdb;
        engine.solves = cold.solves;
        engine.lies = cold.lies;
        coyote_obs::counter("serve.engine.starts", 1);
        Ok(engine)
    }

    /// Topology name the engine was started with.
    pub fn topology_name(&self) -> &str {
        &self.name
    }

    /// Engine epoch (number of applied updates).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The currently surviving graph.
    pub fn current_graph(&self) -> &Graph {
        &self.current
    }

    /// The pristine (no-failure) graph.
    pub fn pristine_graph(&self) -> &Graph {
        &self.pristine
    }

    /// The current demand matrix.
    pub fn demands(&self) -> &DemandMatrix {
        &self.demands
    }

    /// The current separable routing.
    pub fn routing(&self) -> &PdRouting {
        &self.routing
    }

    /// The current lied-to LSDB.
    pub fn lsdb(&self) -> &Lsdb {
        &self.lsdb
    }

    /// Per-destination solves (indexed by destination).
    pub fn solves(&self) -> &[DestinationSolve] {
        &self.solves
    }

    /// Currently failed links as canonical `(low, high)` node-index pairs.
    pub fn failed_links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.failed_links.iter().copied()
    }

    /// Currently failed nodes.
    pub fn failed_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.failed_nodes.iter().copied()
    }

    /// Re-optimization latencies recorded so far, microseconds, split into
    /// `(demand updates, topology events)`.
    pub fn reopt_micros(&self) -> (&[u64], &[u64]) {
        (&self.demand_reopt_micros, &self.event_reopt_micros)
    }

    /// The FIB every router computes from the current LSDB.
    pub fn fib(&self) -> Fib {
        compute_fib(&self.lsdb, self.pristine.node_count())
    }

    /// Resolves a router given either its name or its decimal index.
    pub fn resolve_node(&self, ident: &str) -> Result<NodeId, ServeError> {
        if let Ok(idx) = ident.parse::<usize>() {
            if idx < self.pristine.node_count() {
                return Ok(NodeId(idx));
            }
            return Err(ServeError::BadRequest(format!(
                "node index {idx} out of range (topology has {} nodes)",
                self.pristine.node_count()
            )));
        }
        self.pristine
            .node_by_name(ident)
            .map_err(|_| ServeError::BadRequest(format!("unknown router {ident:?}")))
    }

    /// Total demand volume currently masked as unroutable.
    pub fn unroutable_volume(&self) -> f64 {
        self.solves.iter().map(|s| s.unroutable_volume).sum()
    }

    /// Max link utilization of the current routing on the current demands.
    pub fn max_utilization(&self) -> f64 {
        if self.current.edge_count() == 0 {
            return 0.0;
        }
        self.routing.max_link_utilization(&self.current, &self.demands)
    }

    /// Per-link utilizations of the current routing on the current demands,
    /// as `(src_name, dst_name, utilization)` in edge order.
    pub fn link_utilizations(&self) -> Vec<(String, String, f64)> {
        let loads = self.routing.edge_loads(&self.current, &self.demands);
        self.current
            .edges()
            .map(|e| {
                let (a, b) = self.current.endpoints(e);
                (
                    self.current.node_name(a).to_string(),
                    self.current.node_name(b).to_string(),
                    loads[e.index()] / self.current.capacity(e),
                )
            })
            .collect()
    }

    /// Applies a batch of demand overrides: re-solves exactly the dirty
    /// destination columns, emits the per-prefix delta and advances the LSDB
    /// by applying it.
    pub fn apply_demand_update(
        &mut self,
        updates: &[DemandUpdate],
    ) -> Result<UpdateOutcome, ServeError> {
        let start = Instant::now();
        let mut new_dm = self.demands.clone();
        for u in updates {
            if u.src == u.dst {
                return Err(ServeError::BadRequest(format!(
                    "self-demand {} -> {} is not allowed",
                    u.src.index(),
                    u.dst.index()
                )));
            }
            if !u.rate.is_finite() || u.rate < 0.0 {
                return Err(ServeError::BadRequest(format!(
                    "demand rate must be finite and non-negative, got {}",
                    u.rate
                )));
            }
            new_dm.set(u.src, u.dst, u.rate);
        }
        let dirty = demand_dirty_destinations(&self.demands, &new_dm);
        for &t in &dirty {
            self.solves[t.index()] = solve_destination(
                &self.current,
                &self.dags[t.index()],
                &new_dm,
                t,
                &mut self.caches[t.index()],
            )?;
        }
        let routing = self.assemble_routing();
        let delta = self.compile_delta(&routing, &dirty, None)?;
        let outcome = self.commit(routing, new_dm, delta, "demand", &dirty, None, start)?;
        self.demand_reopt_micros.push(outcome.reopt_micros);
        Ok(outcome)
    }

    /// Applies a link up/down event. `a`/`b` name the physical link's
    /// endpoints; both directed edges fail together. Every destination is
    /// dirty (augmented DAGs contain each link in some orientation), so the
    /// whole program is re-solved on the surviving graph — still through the
    /// delta path, so the differential guarantee holds.
    pub fn apply_link_event(
        &mut self,
        a: NodeId,
        b: NodeId,
        up: bool,
    ) -> Result<UpdateOutcome, ServeError> {
        let start = Instant::now();
        if a == b {
            return Err(ServeError::BadRequest("link endpoints must differ".into()));
        }
        if self.pristine.find_edge(a, b).is_none() && self.pristine.find_edge(b, a).is_none() {
            return Err(ServeError::BadRequest(format!(
                "no physical link between {} and {}",
                self.pristine.node_name(a),
                self.pristine.node_name(b)
            )));
        }
        let pair = canonical(a, b);
        let prune = if up {
            if !self.failed_links.remove(&pair) {
                return Err(ServeError::BadRequest(format!(
                    "link {}-{} is not down",
                    self.pristine.node_name(a),
                    self.pristine.node_name(b)
                )));
            }
            None
        } else {
            if !self.failed_links.insert(pair) {
                return Err(ServeError::BadRequest(format!(
                    "link {}-{} is already down",
                    self.pristine.node_name(a),
                    self.pristine.node_name(b)
                )));
            }
            // OSPF's immediate reaction, before the controller re-optimizes:
            // how much state the failure withdraws on its own.
            Some(self.lsdb.pruned(&[], &[(a, b)]).1)
        };
        self.apply_topology_event("link", prune, start)
    }

    /// Applies a node up/down event: all links incident to the router fail
    /// (or recover) together. The router stays in the graph as an isolated
    /// node so ids and matrix dimensions are preserved; its demand is masked
    /// as unroutable while it is down.
    pub fn apply_node_event(&mut self, node: NodeId, up: bool) -> Result<UpdateOutcome, ServeError> {
        let start = Instant::now();
        let prune = if up {
            if !self.failed_nodes.remove(&node.index()) {
                return Err(ServeError::BadRequest(format!(
                    "node {} is not down",
                    self.pristine.node_name(node)
                )));
            }
            None
        } else {
            if !self.failed_nodes.insert(node.index()) {
                return Err(ServeError::BadRequest(format!(
                    "node {} is already down",
                    self.pristine.node_name(node)
                )));
            }
            Some(self.lsdb.pruned(&[node], &[]).1)
        };
        self.apply_topology_event("node", prune, start)
    }

    /// Recomputes everything from `(pristine, failure sets, demands)` with
    /// fresh caches — the reference the incremental path must match bit for
    /// bit.
    pub fn cold_rebuild(&self) -> Result<ColdState, ServeError> {
        let start = Instant::now();
        let current = self.surviving_graph();
        let n = current.node_count();
        let dags = build_all_dags(&current, DagMode::Augmented).map_err(coyote_core::CoreError::from)?;
        let mut caches: Vec<PhaseOneCache> = (0..n).map(|_| PhaseOneCache::new()).collect();
        let (routing, solves) =
            coyote_core::separable_routing(&current, &dags, &self.demands, &mut caches)?;
        let mut lies = Vec::with_capacity(n);
        let mut lsdb = Lsdb::from_graph(&current);
        for t in current.nodes() {
            let per_dest = compile_destination(&current, &routing, t, self.budget)?;
            for lie in &per_dest.lies {
                lsdb.inject(lie.clone());
            }
            lies.push(per_dest);
        }
        Ok(ColdState {
            dags,
            routing,
            lsdb,
            solves,
            lies,
            micros: start.elapsed().as_micros() as u64,
        })
    }

    /// The differential check: is the incrementally-maintained state
    /// bit-identical to a cold recompile of the current scenario?
    pub fn verify_against_cold(&self) -> Result<ColdCheck, ServeError> {
        let cold = self.cold_rebuild()?;
        let mut detail = String::new();
        if cold.lsdb != self.lsdb {
            detail = "LSDB differs from cold recompile".to_string();
        } else {
            let n = self.pristine.node_count();
            let warm_fib = compute_fib(&self.lsdb, n);
            let cold_fib = compute_fib(&cold.lsdb, n);
            if warm_fib != cold_fib {
                detail = "FIB differs from cold recompile".to_string();
            } else {
                'outer: for t in self.current.nodes() {
                    let warm = self.routing.ratios(t);
                    let cold_r = cold.routing.ratios(t);
                    for (a, b) in warm.iter().zip(cold_r) {
                        if a.to_bits() != b.to_bits() {
                            detail = format!(
                                "splitting ratios differ for destination {}",
                                t.index()
                            );
                            break 'outer;
                        }
                    }
                }
            }
        }
        Ok(ColdCheck {
            identical: detail.is_empty(),
            cold_micros: cold.micros,
            detail,
        })
    }

    /// The graph that survives the current failure sets, rebuilt from the
    /// pristine topology (node ids are preserved; edge ids are renumbered
    /// densely over the survivors).
    fn surviving_graph(&self) -> Graph {
        let dead: Vec<EdgeId> = self
            .pristine
            .edges()
            .filter(|&e| {
                let (a, b) = self.pristine.endpoints(e);
                self.failed_links.contains(&canonical(a, b))
                    || self.failed_nodes.contains(&a.index())
                    || self.failed_nodes.contains(&b.index())
            })
            .collect();
        self.pristine.without_edges(&dead)
    }

    /// Shared tail of link/node events: rebuild the surviving graph and its
    /// DAGs, re-solve every destination (all dirty), recompile, and commit
    /// through the delta path with replacement router LSAs.
    fn apply_topology_event(
        &mut self,
        kind: &'static str,
        prune: Option<PruneStats>,
        start: Instant,
    ) -> Result<UpdateOutcome, ServeError> {
        self.current = self.surviving_graph();
        self.dags = build_all_dags(&self.current, DagMode::Augmented)
            .map_err(coyote_core::CoreError::from)?;
        // The LP structure changed with the topology; caches replay the
        // phase-one pivots of the *old* structure, so start fresh (a cold
        // rebuild does the same, which keeps the two paths bit-identical).
        self.caches = (0..self.current.node_count())
            .map(|_| PhaseOneCache::new())
            .collect();
        let dirty: Vec<NodeId> = self.current.nodes().collect();
        for &t in &dirty {
            self.solves[t.index()] = solve_destination(
                &self.current,
                &self.dags[t.index()],
                &self.demands,
                t,
                &mut self.caches[t.index()],
            )?;
        }
        let routing = self.assemble_routing();
        let router_lsas = Lsdb::from_graph(&self.current).router_lsas().to_vec();
        let delta = self.compile_delta(&routing, &dirty, Some(router_lsas))?;
        let demands = self.demands.clone();
        let outcome = self.commit(routing, demands, delta, kind, &dirty, prune, start)?;
        self.event_reopt_micros.push(outcome.reopt_micros);
        Ok(outcome)
    }

    /// Assembles the [`PdRouting`] from the current per-destination flows —
    /// the exact expression [`coyote_core::separable_routing`] uses, so the
    /// incremental and cold paths agree bit for bit.
    fn assemble_routing(&self) -> PdRouting {
        let raw: Vec<Vec<f64>> = self.solves.iter().map(|s| s.flows.clone()).collect();
        PdRouting::from_ratios(&self.current, self.dags.clone(), raw)
    }

    /// Compiles the dirty destinations against `routing` and packages the
    /// changed prefixes (content comparison — a re-solved destination whose
    /// lies came out identical is dropped from the delta) into an
    /// [`LsaDelta`].
    fn compile_delta(
        &self,
        routing: &PdRouting,
        dirty: &[NodeId],
        router_lsas: Option<Vec<coyote_ospf::RouterLsa>>,
    ) -> Result<(LsaDelta, Vec<DestinationLies>), ServeError> {
        let mut updates = Vec::new();
        let mut new_lies = Vec::with_capacity(dirty.len());
        for &t in dirty {
            let per_dest = compile_destination(&self.current, routing, t, self.budget)?;
            if per_dest.lies != self.lies[t.index()].lies {
                updates.push(PrefixUpdate {
                    destination: t,
                    lies: per_dest.lies.clone(),
                    retracted: self.lies[t.index()].lies.len(),
                });
            }
            new_lies.push(per_dest);
        }
        Ok((
            LsaDelta {
                router_lsas,
                updates,
            },
            new_lies,
        ))
    }

    /// Applies the delta to the engine's LSDB and commits all derived state.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        routing: PdRouting,
        demands: DemandMatrix,
        delta_and_lies: (LsaDelta, Vec<DestinationLies>),
        kind: &'static str,
        dirty: &[NodeId],
        prune: Option<PruneStats>,
        start: Instant,
    ) -> Result<UpdateOutcome, ServeError> {
        let (delta, new_lies) = delta_and_lies;
        // The router-LSA section of the LSDB changes on topology events even
        // when no prefix update survived the content comparison, so the
        // delta must be applied unconditionally.
        self.lsdb = delta.apply(&self.lsdb, self.pristine.node_count())?;
        for (&t, lies) in dirty.iter().zip(new_lies) {
            self.lies[t.index()] = lies;
        }
        self.routing = routing;
        self.demands = demands;
        self.epoch += 1;
        let reopt = start.elapsed();
        coyote_obs::counter("serve.updates", 1);
        coyote_obs::counter(&format!("serve.updates.{kind}"), 1);
        coyote_obs::observe("serve.delta.prefixes", delta.touched_prefixes() as u64);
        coyote_obs::observe("serve.delta.fakes_added", delta.fakes_added() as u64);
        coyote_obs::observe_duration("serve.reopt", reopt);
        Ok(UpdateOutcome {
            epoch: self.epoch,
            kind,
            dirty_destinations: dirty.iter().map(|t| t.index()).collect(),
            delta_prefixes: delta.touched_prefixes(),
            delta_fakes_added: delta.fakes_added(),
            delta_fakes_retracted: delta.fakes_retracted(),
            router_lsas_replaced: delta.router_lsas.is_some(),
            reopt_micros: reopt.as_micros() as u64,
            max_utilization: self.max_utilization(),
            unroutable_volume: self.unroutable_volume(),
            immediate_prune: prune,
        })
    }
}

fn canonical(a: NodeId, b: NodeId) -> (usize, usize) {
    let (x, y) = (a.index(), b.index());
    (x.min(y), x.max(y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TeEngine {
        TeEngine::new(&EngineConfig::default()).unwrap()
    }

    #[test]
    fn startup_state_matches_a_cold_rebuild() {
        let e = engine();
        let check = e.verify_against_cold().unwrap();
        assert!(check.identical, "{}", check.detail);
    }

    #[test]
    fn demand_update_dirties_only_the_changed_columns() {
        let mut e = engine();
        let src = e.resolve_node("0").unwrap();
        let dst = e.resolve_node("3").unwrap();
        let old_rate = e.demands().get(src, dst);
        let out = e
            .apply_demand_update(&[DemandUpdate {
                src,
                dst,
                rate: old_rate * 2.0 + 1.0,
            }])
            .unwrap();
        assert_eq!(out.dirty_destinations, vec![dst.index()]);
        let check = e.verify_against_cold().unwrap();
        assert!(check.identical, "{}", check.detail);
    }

    #[test]
    fn noop_demand_update_produces_an_empty_delta() {
        let mut e = engine();
        let src = e.resolve_node("0").unwrap();
        let dst = e.resolve_node("1").unwrap();
        let rate = e.demands().get(src, dst);
        let out = e
            .apply_demand_update(&[DemandUpdate { src, dst, rate }])
            .unwrap();
        assert!(out.dirty_destinations.is_empty());
        assert_eq!(out.delta_prefixes, 0);
    }

    #[test]
    fn link_down_then_up_round_trips() {
        let mut e = engine();
        let (a, b) = e.pristine_graph().endpoints(coyote_graph::EdgeId(0));
        let down = e.apply_link_event(a, b, false).unwrap();
        assert!(down.router_lsas_replaced);
        assert!(down.immediate_prune.is_some());
        assert!(e.verify_against_cold().unwrap().identical);
        let up = e.apply_link_event(a, b, true).unwrap();
        assert!(up.router_lsas_replaced);
        assert!(up.immediate_prune.is_none());
        assert!(e.verify_against_cold().unwrap().identical);
    }

    #[test]
    fn bad_inputs_are_client_errors() {
        let mut e = engine();
        let a = e.resolve_node("0").unwrap();
        assert!(e.resolve_node("no-such-router").is_err());
        assert!(e.apply_link_event(a, a, false).is_err());
        let err = e
            .apply_demand_update(&[DemandUpdate {
                src: a,
                dst: e.resolve_node("1").unwrap(),
                rate: f64::NAN,
            }])
            .unwrap_err();
        assert!(err.is_bad_request());
    }
}
