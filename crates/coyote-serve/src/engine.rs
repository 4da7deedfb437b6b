//! The incremental TE engine: the daemon's in-memory state machine.
//!
//! The engine holds a scenario (topology, demand matrix, and one
//! [`coyote_graph::Failure`]: the routers and links that are down) and the
//! *compiled* artifacts derived from it — shortest-path DAGs, augmented
//! DAGs, per-destination splitting ratios, and the lied-to LSDB — and reacts
//! to three kinds of updates:
//!
//! * **Demand updates** dirty exactly the destinations whose demand column
//!   changed ([`coyote_core::demand_dirty_destinations`]); only those are
//!   re-solved, only their rows of the routing rewritten, only their
//!   prefixes recompiled. No Dijkstra runs: the compiler reads the
//!   shortest-path DAG the destination's augmented DAG was built from.
//! * **Link events** and **node events** change the surviving graph. An
//!   augmented DAG holds every surviving link in some orientation, and one
//!   link failure moves the shortest-path DAG of 58–81 % of the destinations
//!   on the daemon's five topologies, so no per-destination dirty rule pays
//!   for itself. An event therefore sets or clears one router or link of
//!   the failure, builds its view — the surviving graph and one
//!   shortest-path DAG per destination
//!   ([`Failure::surviving`](coyote_graph::Failure::surviving)) — and the
//!   augmented DAGs over them, and re-solves every destination — unless it
//!   **restores**. OSPF's own first reaction, reported as `immediate_prune`,
//!   is the LSDB withdrawal ([`Lsdb::withdraw`]) of just the element that
//!   died, read over the served program's view: no Dijkstra of its own.
//! * **Restore.** The engine keeps exactly one previous program, view
//!   included: the one its last topology event replaced, with the failure
//!   and the demand matrix it was serving. An event that returns the failure
//!   to that key — a recovery of the link that just failed, or its failing
//!   again — serves that program again and re-solves only the destinations
//!   whose demand column moved in between. It runs no Dijkstra.
//!
//! Start-up, [`TeEngine::cold_rebuild`], topology events and demand updates
//! all run one step (`Program::recompute`: solve these destinations, compile
//! these destinations); they differ only in the program and the set they
//! hand it.
//!
//! Every update is materialized as an [`LsaDelta`] — per prefix, the lies
//! of the program now served wherever they differ from the lies the LSDB
//! carries — and the engine advances its own LSDB **by applying that
//! delta**, the same object a real Fibbing controller would flood. So the
//! differential guarantee ("delta applied to the old LSDB is bit-identical
//! to a cold recompile") is exercised on the production path, not just in
//! tests. [`TeEngine::verify_against_cold`] checks it on demand.
//!
//! The per-destination policy is deliberately *separable* (see
//! [`coyote_core::incremental`]): destination `t`'s solution, load row and
//! lies are a pure function of `(surviving graph, dag_t, demand column t)`,
//! and the surviving graph and `dag_t` are a pure function of the failure.
//! That is what makes "recompute only the dirty part" and "restore
//! the kept program, recompute the columns that moved" equal to "recompute
//! everything" bit for bit.

use crate::error::ServeError;
use coyote_core::dag_builder::augment;
use coyote_core::{demand_dirty_destinations, solve_destination, PdRouting};
use coyote_graph::{Failure, FailureView, Graph, NodeId};
use coyote_obs::Histogram;
use coyote_ospf::{
    compile_destination, compute_fib, DestinationLies, Fib, LsaDelta, Lsdb, PrefixUpdate,
    PruneStats, RouterLsa, VirtualLinkBudget,
};
use coyote_topology::zoo;
use coyote_traffic::{BimodalModel, DemandMatrix, GravityModel};
use serde::Serialize;
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
    /// Prefixes the emitted delta actually re-advertises (destinations whose
    /// lie set changed content-wise).
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

/// What a cold recompile of the current scenario produces.
pub struct ColdState {
    /// The separable routing (augmented DAGs of the surviving graph inside).
    pub routing: PdRouting,
    /// The lied-to LSDB.
    pub lsdb: Lsdb,
    /// Wall-clock time of the rebuild, microseconds.
    pub micros: u64,
}

/// Everything derived from `(surviving graph, demands)`: the plain
/// shortest-path DAG towards every destination, the augmented DAGs built
/// from them and the splitting ratios (both inside `routing`), the demand
/// each destination masks as unroutable, the edge loads each destination's
/// demand induces under its ratios and the per-prefix lies compiled from
/// them.
struct Program {
    /// The surviving graph and plain OSPF towards every destination on it:
    /// the one Dijkstra per destination that `t`'s augmented DAG, its
    /// compile and a down event's prune all read.
    view: FailureView,
    routing: PdRouting,
    /// `unroutable[t]`: demand towards `t` whose source has no DAG out-edge.
    unroutable: Vec<f64>,
    /// `loads[t][e]`: destination `t`'s flow on edge `e`, `F_t(src(e)) ·
    /// φ_t(e)` (`0.0` off its DAG and when `t` has no demand).
    loads: Vec<Vec<f64>>,
    lies: Vec<DestinationLies>,
}

impl Program {
    /// A program for `pristine` under `failure` with nothing solved or
    /// compiled yet: the surviving graph, its shortest-path DAG towards
    /// every destination, and those augmented into a placeholder routing.
    fn unsolved(pristine: &Graph, failure: &Failure) -> Result<Program, ServeError> {
        let _span = coyote_obs::span("serve.rebuild");
        let view = failure.surviving(pristine);
        let graph = view.graph();
        let dags = (view.spfs().iter())
            .map(|spf| augment(graph, spf))
            .collect::<Result<Vec<_>, _>>()?;
        let (n, m) = (graph.node_count(), graph.edge_count());
        Ok(Program {
            routing: PdRouting::uniform(graph, dags),
            unroutable: vec![0.0; n],
            loads: vec![vec![0.0; m]; n],
            lies: vec![DestinationLies::default(); n],
            view,
        })
    }

    /// The cold protocol: a fresh program, every destination through
    /// [`Program::recompute`].
    fn cold(
        pristine: &Graph,
        failure: &Failure,
        demands: &DemandMatrix,
        budget: VirtualLinkBudget,
    ) -> Result<Program, ServeError> {
        let mut program = Program::unsolved(pristine, failure)?;
        let all: Vec<NodeId> = pristine.nodes().collect();
        program.recompute(demands, budget, &all)?;
        Ok(program)
    }

    /// The engine's one recompute step: re-solve `dirty` under `demands`,
    /// rewrite exactly their rows of the routing and of the loads and
    /// recompile their prefixes. Returns the lies each of them carried
    /// before, in `dirty`'s order.
    fn recompute(
        &mut self,
        demands: &DemandMatrix,
        budget: VirtualLinkBudget,
        dirty: &[NodeId],
    ) -> Result<Vec<DestinationLies>, ServeError> {
        // Solve every dirty destination before compiling any. A compile reads
        // only its own row, so the order cannot change a result; a link
        // event's n solves just run ~5 % faster back to back than interleaved
        // with n compiles.
        let graph = self.view.graph();
        for &t in dirty {
            let solve = solve_destination(graph, self.routing.dag(t), demands, t)?;
            self.routing.set_ratios(graph, t, &solve.flows);
            self.unroutable[t.index()] = solve.unroutable_volume;
            let loads = &mut self.loads[t.index()];
            loads.fill(0.0);
            self.routing.add_destination_loads(graph, demands, t, loads);
        }
        let _span = coyote_obs::span("serve.compile");
        dirty
            .iter()
            .map(|&t| {
                let plain = &self.view.spfs()[t.index()];
                let compiled = compile_destination(graph, plain, &self.routing, t, budget)?;
                Ok(std::mem::replace(&mut self.lies[t.index()], compiled))
            })
            .collect()
    }

    /// Per-edge loads of the served routing on the demands it was solved
    /// for. Summed from `0.0` in ascending destination order — `PdRouting`'s
    /// own order, in which a destination without demand would add `+0.0` —
    /// so every total is `to_bits`-equal to the one it computes.
    fn edge_totals(&self) -> Vec<f64> {
        let mut totals = vec![0.0; self.view.graph().edge_count()];
        for loads in &self.loads {
            for (total, load) in totals.iter_mut().zip(loads) {
                *total += load;
            }
        }
        totals
    }

    /// The LSDB a cold compile floods: the physical topology plus every
    /// prefix's lies injected in destination order.
    fn cold_lsdb(&self) -> Lsdb {
        let mut lsdb = Lsdb::from_graph(self.view.graph());
        for lie in self.lies.iter().flat_map(|per_dest| &per_dest.lies) {
            lsdb.inject(lie.clone());
        }
        lsdb
    }
}

/// The program the engine's last topology event replaced, with the failure
/// and the demand matrix it was serving: what a recovery restores.
struct Kept {
    failure: Failure,
    demands: DemandMatrix,
    program: Program,
}

/// The long-running incremental TE engine.
pub struct TeEngine {
    name: String,
    budget: VirtualLinkBudget,
    pristine: Graph,
    failure: Failure,
    demands: DemandMatrix,
    program: Program,
    /// `None` until the first topology event.
    kept: Option<Kept>,
    lsdb: Lsdb,
    epoch: u64,
    demand_reopt: Histogram,
    event_reopt: Histogram,
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
        let budget = VirtualLinkBudget::per_prefix(config.budget);
        let failure = Failure::default();
        let program = Program::cold(&pristine, &failure, &demands, budget)?;
        coyote_obs::counter("serve.engine.starts", 1);
        Ok(TeEngine {
            name: config.topology.clone(),
            budget,
            pristine,
            failure,
            demands,
            lsdb: program.cold_lsdb(),
            program,
            kept: None,
            epoch: 0,
            demand_reopt: Histogram::new(),
            event_reopt: Histogram::new(),
        })
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
        self.program.view.graph()
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
        &self.program.routing
    }

    /// The current lied-to LSDB.
    pub fn lsdb(&self) -> &Lsdb {
        &self.lsdb
    }

    /// Currently failed links as canonical `(low, high)` node-index pairs.
    pub fn failed_links(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.failure.links().map(|(a, b)| (a.index(), b.index()))
    }

    /// Currently failed nodes.
    pub fn failed_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.failure.nodes().map(NodeId::index)
    }

    /// Re-optimization latencies recorded so far, microseconds, as
    /// `(demand updates, topology events)`; fixed size however long the
    /// daemon runs.
    pub(crate) fn reopt_histograms(&self) -> (&Histogram, &Histogram) {
        (&self.demand_reopt, &self.event_reopt)
    }

    /// The FIB every router computes from the current LSDB.
    pub fn fib(&self) -> Fib {
        compute_fib(&self.lsdb, self.pristine.node_count())
    }

    /// Resolves a router given either its name or its decimal index.
    pub fn resolve_node(&self, ident: &str) -> Result<NodeId, ServeError> {
        if let Ok(idx) = ident.parse::<usize>() {
            return self.check_node(NodeId(idx));
        }
        self.pristine
            .node_by_name(ident)
            .map_err(|_| ServeError::BadRequest(format!("unknown router {ident:?}")))
    }

    /// `node` when it names a router of the topology, else a client error.
    /// Every mutator checks its ids here before it changes anything: a
    /// `NodeId` can be built for any index, and one past the topology would
    /// alias into the flat demand matrix, enter the failure or panic in
    /// the graph.
    fn check_node(&self, node: NodeId) -> Result<NodeId, ServeError> {
        let n = self.pristine.node_count();
        if node.index() < n {
            return Ok(node);
        }
        Err(ServeError::BadRequest(format!(
            "node index {} out of range (topology has {n} nodes)",
            node.index()
        )))
    }

    /// Total demand volume currently masked as unroutable.
    pub fn unroutable_volume(&self) -> f64 {
        self.program.unroutable.iter().sum()
    }

    /// Max link utilization of the current routing on the current demands.
    pub fn max_utilization(&self) -> f64 {
        let graph = self.current_graph();
        let loads = self.program.edge_totals();
        let utilization = graph.edges().map(|e| loads[e.index()] / graph.capacity(e));
        utilization.fold(0.0, f64::max)
    }

    /// Per-link utilizations of the current routing on the current demands,
    /// as `(src_name, dst_name, utilization)` in edge order.
    pub fn link_utilizations(&self) -> Vec<(String, String, f64)> {
        let graph = self.current_graph();
        let loads = self.program.edge_totals();
        graph
            .edges()
            .map(|e| {
                let (a, b) = graph.endpoints(e);
                (
                    graph.node_name(a).to_string(),
                    graph.node_name(b).to_string(),
                    loads[e.index()] / graph.capacity(e),
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
            let (src, dst) = (self.check_node(u.src)?, self.check_node(u.dst)?);
            if src == dst {
                return Err(ServeError::BadRequest(format!(
                    "self-demand {} -> {} is not allowed",
                    src.index(),
                    dst.index()
                )));
            }
            if !u.rate.is_finite() || u.rate < 0.0 {
                return Err(ServeError::BadRequest(format!(
                    "demand rate must be finite and non-negative, got {}",
                    u.rate
                )));
            }
            new_dm.set(src, dst, u.rate);
        }
        let dirty = demand_dirty_destinations(&self.demands, &new_dm);
        let served = self.program.recompute(&new_dm, self.budget, &dirty)?;
        self.demands = new_dm;
        let served = dirty.iter().copied().zip(&served);
        self.commit(None, served, Kind::Demand, &dirty, None, start)
    }

    /// Applies a link up/down event. `a`/`b` name the physical link's
    /// endpoints; both directed edges fail together. The new failure's
    /// program is restored or rebuilt (see the module docs) and served
    /// through the delta path, so the differential guarantee holds.
    pub fn apply_link_event(
        &mut self,
        a: NodeId,
        b: NodeId,
        up: bool,
    ) -> Result<UpdateOutcome, ServeError> {
        let start = Instant::now();
        let (a, b) = (self.check_node(a)?, self.check_node(b)?);
        if a == b {
            return Err(ServeError::BadRequest("link endpoints must differ".into()));
        }
        let pristine = &self.pristine;
        let what = || format!("link {}-{}", pristine.node_name(a), pristine.node_name(b));
        if pristine.find_edge(a, b).is_none() && pristine.find_edge(b, a).is_none() {
            return Err(ServeError::BadRequest(format!(
                "{} is not in the topology",
                what()
            )));
        }
        let mut failure = self.failure.clone();
        if !failure.set_link(a, b, !up) {
            return Err(not_toggled(what(), up));
        }
        let died = (!up).then(|| Failure::new([], [(a, b)]));
        self.apply_topology_event(failure, Kind::Link, died, start)
    }

    /// Applies a node up/down event: all links incident to the router fail
    /// (or recover) together. The router stays in the graph as an isolated
    /// node so ids and matrix dimensions are preserved; its demand is masked
    /// as unroutable while it is down.
    pub fn apply_node_event(
        &mut self,
        node: NodeId,
        up: bool,
    ) -> Result<UpdateOutcome, ServeError> {
        let start = Instant::now();
        let node = self.check_node(node)?;
        let mut failure = self.failure.clone();
        if !failure.set_node(node, !up) {
            let what = format!("node {}", self.pristine.node_name(node));
            return Err(not_toggled(what, up));
        }
        let died = (!up).then(|| Failure::new([node], []));
        self.apply_topology_event(failure, Kind::Node, died, start)
    }

    /// Recomputes everything from `(pristine, failure, demands)` — the
    /// reference the incremental path must match bit for bit.
    pub fn cold_rebuild(&self) -> Result<ColdState, ServeError> {
        let start = Instant::now();
        let program = Program::cold(&self.pristine, &self.failure, &self.demands, self.budget)?;
        Ok(ColdState {
            lsdb: program.cold_lsdb(),
            routing: program.routing,
            micros: start.elapsed().as_micros() as u64,
        })
    }

    /// The differential check: is the incrementally-maintained state
    /// bit-identical to a cold recompile of the current scenario?
    pub fn verify_against_cold(&self) -> Result<ColdCheck, ServeError> {
        let cold = self.cold_rebuild()?;
        let n = self.pristine.node_count();
        let same_bits = |t: &NodeId| {
            let (warm, cold) = (self.routing().ratios(*t), cold.routing.ratios(*t));
            warm.iter()
                .zip(cold)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        let detail = if cold.lsdb != self.lsdb {
            "LSDB differs from cold recompile".to_string()
        } else if compute_fib(&self.lsdb, n) != compute_fib(&cold.lsdb, n) {
            "FIB differs from cold recompile".to_string()
        } else if let Some(t) = self.pristine.nodes().find(|t| !same_bits(t)) {
            format!("splitting ratios differ for destination {}", t.index())
        } else {
            String::new()
        };
        Ok(ColdCheck {
            identical: detail.is_empty(),
            cold_micros: cold.micros,
            detail,
        })
    }

    /// Shared tail of link/node events: serve the program of `failure`,
    /// keep the one it replaces, and commit through the delta path with
    /// replacement router LSAs. When `failure` is the kept program's key,
    /// that program is served again with only the columns that moved since
    /// re-solved; otherwise one is rebuilt and every destination solved.
    /// A down event then withdraws the element that `died` from the served
    /// LSDB over the new program's view (that LSDB's topology without it).
    fn apply_topology_event(
        &mut self,
        failure: Failure,
        kind: Kind,
        died: Option<Failure>,
        start: Instant,
    ) -> Result<UpdateOutcome, ServeError> {
        let restorable = self.kept.take().filter(|kept| kept.failure == failure);
        let (program, dirty) = match restorable {
            Some(Kept {
                demands,
                mut program,
                ..
            }) => {
                let dirty = demand_dirty_destinations(&demands, &self.demands);
                program.recompute(&self.demands, self.budget, &dirty)?;
                let restored = self.pristine.node_count() - dirty.len();
                coyote_obs::counter("serve.event.restored", restored as u64);
                coyote_obs::counter("serve.event.resolved", dirty.len() as u64);
                (program, dirty)
            }
            None => {
                let program = Program::cold(&self.pristine, &failure, &self.demands, self.budget)?;
                (program, self.pristine.nodes().collect())
            }
        };
        let prune = match died {
            Some(died) => {
                let _span = coyote_obs::span("serve.prune");
                Some(self.lsdb.withdraw(&died, &program.view)?.stats())
            }
            None => None,
        };
        let router_lsas = Lsdb::from_graph(program.view.graph())
            .router_lsas()
            .to_vec();
        let kept = Kept {
            failure: std::mem::replace(&mut self.failure, failure),
            demands: self.demands.clone(),
            program: std::mem::replace(&mut self.program, program),
        };
        let served = (0..).map(NodeId).zip(&kept.program.lies);
        let outcome = self.commit(Some(router_lsas), served, kind, &dirty, prune, start);
        self.kept = Some(kept);
        outcome
    }

    /// Diffs the program now served against the `served` lies — the LSDB's,
    /// per prefix — packages every prefix whose lies changed into an
    /// [`LsaDelta`], advances the LSDB by applying it, and reports the
    /// update.
    fn commit<'a>(
        &mut self,
        router_lsas: Option<Vec<RouterLsa>>,
        served: impl Iterator<Item = (NodeId, &'a DestinationLies)>,
        kind: Kind,
        dirty: &[NodeId],
        prune: Option<PruneStats>,
        start: Instant,
    ) -> Result<UpdateOutcome, ServeError> {
        let apply = coyote_obs::span("serve.apply");
        let lies = &self.program.lies;
        let updates = served
            .filter(|(t, served)| served.lies != lies[t.index()].lies)
            .map(|(t, served)| PrefixUpdate {
                destination: t,
                lies: lies[t.index()].lies.clone(),
                retracted: served.fake_count(),
            })
            .collect();
        let delta = LsaDelta {
            router_lsas,
            updates,
        };
        let router_lsas_replaced = delta.router_lsas.is_some();
        let delta_prefixes = delta.touched_prefixes();
        let delta_fakes_added = delta.fakes_added();
        let delta_fakes_retracted = delta.fakes_retracted();
        // The router-LSA section of the LSDB changes on topology events even
        // when no prefix update survived the content comparison, so the
        // delta must be applied unconditionally.
        delta.apply(&mut self.lsdb)?;
        drop(apply);
        self.epoch += 1;
        let reopt = start.elapsed();
        let reopt_micros = reopt.as_micros() as u64;
        if router_lsas_replaced {
            self.event_reopt.record(reopt_micros);
        } else {
            self.demand_reopt.record(reopt_micros);
        }
        let (kind, counter) = match kind {
            Kind::Demand => ("demand", "serve.updates.demand"),
            Kind::Link => ("link", "serve.updates.link"),
            Kind::Node => ("node", "serve.updates.node"),
        };
        coyote_obs::counter("serve.updates", 1);
        coyote_obs::counter(counter, 1);
        coyote_obs::observe("serve.delta.prefixes", delta_prefixes as u64);
        coyote_obs::observe("serve.delta.fakes_added", delta_fakes_added as u64);
        coyote_obs::observe_duration("serve.reopt", reopt);
        Ok(UpdateOutcome {
            epoch: self.epoch,
            kind,
            dirty_destinations: dirty.iter().map(|t| t.index()).collect(),
            delta_prefixes,
            delta_fakes_added,
            delta_fakes_retracted,
            router_lsas_replaced,
            reopt_micros,
            max_utilization: self.max_utilization(),
            unroutable_volume: self.unroutable_volume(),
            immediate_prune: prune,
        })
    }
}

/// What an update was; `commit` names it in its outcome and counter.
#[derive(Clone, Copy)]
enum Kind {
    Demand,
    Link,
    Node,
}

/// The client error for bringing `what` up when it is not down, or down
/// when it already is.
fn not_toggled(what: String, up: bool) -> ServeError {
    let state = if up { "not down" } else { "already down" };
    ServeError::BadRequest(format!("{what} is {state}"))
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

    /// A rejected update leaves demands, failure, epoch and LSDB as they
    /// were.
    fn assert_untouched(e: &TeEngine, before: &TeEngine, err: ServeError) {
        assert!(err.is_bad_request(), "{err}");
        assert_eq!(e.demands(), before.demands());
        assert_eq!(e.failure, before.failure);
        assert_eq!(e.epoch(), before.epoch());
        assert_eq!(e.lsdb(), before.lsdb());
    }

    #[test]
    fn a_demand_update_naming_a_router_outside_the_topology_is_refused() {
        // 1 -> 12 on 11-node Abilene would alias entry (2, 1) of the flat
        // matrix.
        let (mut e, before) = (engine(), engine());
        assert_eq!(e.pristine_graph().node_count(), 11);
        let err = e
            .apply_demand_update(&[DemandUpdate {
                src: NodeId(1),
                dst: NodeId(12),
                rate: 42.0,
            }])
            .unwrap_err();
        assert_untouched(&e, &before, err);
    }

    #[test]
    fn a_node_event_outside_the_topology_is_refused() {
        let (mut e, before) = (engine(), engine());
        let err = e.apply_node_event(NodeId(16), false).unwrap_err();
        assert_untouched(&e, &before, err);
    }

    #[test]
    fn a_link_event_outside_the_topology_is_refused() {
        let (mut e, before) = (engine(), engine());
        let err = e
            .apply_link_event(NodeId(0), NodeId(14), false)
            .unwrap_err();
        assert_untouched(&e, &before, err);
    }
}
