//! The failure-scenario engine: fault injection, OSPF reconvergence, and
//! graceful degradation across the sweep grid.
//!
//! The sweep and conformance engines only ever score *healthy* topologies.
//! The paper's deployability story, however, rests on Fibbing surviving the
//! realities of a live IGP — links and routers die, and the lied-to LSDB
//! must reconverge around the failure. This module closes that gap,
//! following the evaluation shape of the semi-oblivious TE literature:
//! score how a routing computed *before* an event degrades under it,
//! against a routing re-optimized *after* it.
//!
//! For every Table-I-eligible scenario × [`FailureEvent`] cell:
//!
//! 1. **Inject** — the event's dead routers and links become one
//!    [`Failure`]; the scenario graph keeps what it spares
//!    ([`Failure::surviving`], node-set stable so all id spaces survive),
//!    and the post-failure demand matrix is derived (dead-endpoint demands
//!    zeroed, flash-crowd spikes applied).
//! 2. **Oblivious mode** — keep the pre-failure Fibbing program, withdraw
//!    the same [`Failure`] and the lies it invalidates from the lied-to
//!    LSDB without copying it ([`Lsdb::withdraw`], which decides each
//!    counted lie once); that withdrawal's one SPF per destination also
//!    says which live demand pairs lost every path
//!    ([`Withdrawal::reaches`]). Then reconverge the routers'
//!    SPF — retracting the lies of any prefix that now loops
//!    ([`Withdrawal::reconverge`]) — and flow-simulate the post-failure
//!    matrix on the reconverged routing. "Oblivious" means blind to the
//!    failure, not COYOTE-oblivious: the kept program compiles the
//!    partial-knowledge routing (`Pipeline::optimize` on the margin box),
//!    and this engine never runs the demands-oblivious optimizer.
//! 3. **Re-optimized mode** — rebuild DAGs on the post-failure topology,
//!    re-solve the demands-aware LP on the routable part of the matrix
//!    ([`split_routable_within_dags`]), recompile the Fibbing program, and
//!    flow-simulate the realized routing.
//! 4. **Verdict** — emit one [`FailureRecord`] with both modes' post-failure
//!    max-utilization and drop rate, the oblivious/re-optimized degradation
//!    ratio, the reconvergence fake-LSA delta, and a structured
//!    [`CellOutcome`].
//!
//! Graceful degradation is the design invariant: a partitioned topology, a
//! demand whose endpoint died, or an infeasible post-failure LP must never
//! abort the grid. Per-cell failures are captured into
//! [`CellOutcome::Degraded`]/[`CellOutcome::Unroutable`] verdicts — the fan-
//! out maps every cell to its own `Result` with [`WorkerPool::par_map`], so
//! every healthy cell still completes and the report stays bit-identical
//! across thread counts.
//!
//! [`Lsdb::withdraw`]: coyote_ospf::Lsdb::withdraw
//! [`Withdrawal::reconverge`]: coyote_ospf::Withdrawal::reconverge
//! [`Withdrawal::reaches`]: coyote_ospf::Withdrawal::reaches
//! [`split_routable_within_dags`]: coyote_core::split_routable_within_dags
//! [`Failure::surviving`]: coyote_graph::Failure::surviving
//! [`WorkerPool::par_map`]: crate::pool::WorkerPool::par_map

use crate::conformance::COMPILE_BUDGET;
use crate::pool::WorkerPool;
use crate::scenario::{Effort, Scenario};
use crate::sweep::{SweepGrid, SweepSpec};
use coyote_core::{
    build_all_dags, optimal_routing_within_dags, split_routable_within_dags, CoreError, DagMode,
    PdRouting,
};
use coyote_graph::rng::splitmix64;
use coyote_graph::{Failure, Graph, NodeId};
use coyote_ospf::{
    compute_program, realized_routing, FibbingProgram, OspfError, VirtualLinkBudget,
};
use coyote_sim::{FlowSimulator, SimOutcome};
use coyote_topology::{zoo, Topology};
use coyote_traffic::DemandMatrix;
use serde::Serialize;
use std::collections::HashMap;
use std::time::Instant;

/// Seed of the deterministic event generators (SRLG grouping and demand
/// spikes). Fixed so the same grid always enumerates the same events.
pub const DEFAULT_FAILURE_SEED: u64 = 0x00C0_707E_FA11;

/// Largest shared-risk link group: a correlated failure takes down at most
/// this many links sharing an endpoint.
const MAX_SRLG_SIZE: usize = 3;

/// Flash-crowd events enumerated per scenario.
const SPIKE_EVENTS: usize = 3;

/// Fraction of the (non-zero) demand pairs a flash crowd inflates.
const SPIKE_FRACTION: f64 = 0.2;

/// Multiplier a flash crowd applies to the selected demand pairs.
const SPIKE_FACTOR: f64 = 4.0;

/// One injectable event. Link indices refer to [`Topology::links`] (each
/// bidirectional link lowers to two anti-parallel graph edges).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum FailureEvent {
    /// A single bidirectional link dies.
    LinkFailure {
        /// Index into [`Topology::links`].
        link: usize,
    },
    /// A router dies: every incident link is withdrawn, the node stays in
    /// the id space as an isolated node.
    NodeFailure {
        /// Node index.
        node: usize,
    },
    /// A correlated (SRLG-style) failure: a seeded group of links sharing
    /// the `hub` endpoint die together.
    SrlgFailure {
        /// The shared endpoint of the group.
        hub: usize,
        /// The link indices that die together (sorted).
        links: Vec<usize>,
    },
    /// A flash crowd: the topology is untouched, but a seeded subset of the
    /// demand pairs is scaled up (4x on ~20% of the pairs).
    DemandSpike {
        /// Position among the scenario's spike events (stable id).
        index: usize,
        /// Derived seed selecting which pairs spike.
        seed: u64,
    },
}

impl FailureEvent {
    /// Stable, greppable identifier: `link-3`, `node-7`, `srlg-2`,
    /// `spike-0`.
    pub fn id(&self) -> String {
        match self {
            FailureEvent::LinkFailure { link } => format!("link-{link}"),
            FailureEvent::NodeFailure { node } => format!("node-{node}"),
            FailureEvent::SrlgFailure { hub, .. } => format!("srlg-{hub}"),
            FailureEvent::DemandSpike { index, .. } => format!("spike-{index}"),
        }
    }

    /// The event class this event belongs to.
    pub fn class(&self) -> EventClass {
        match self {
            FailureEvent::LinkFailure { .. } => EventClass::Link,
            FailureEvent::NodeFailure { .. } => EventClass::Node,
            FailureEvent::SrlgFailure { .. } => EventClass::Srlg,
            FailureEvent::DemandSpike { .. } => EventClass::Spike,
        }
    }

    /// The routers and links this event kills on `topo` (none for a flash
    /// crowd).
    fn failure(&self, topo: &Topology) -> Failure {
        let link = |i: &usize| (NodeId(topo.links[*i].a), NodeId(topo.links[*i].b));
        match self {
            FailureEvent::LinkFailure { link: i } => Failure::new([], [link(i)]),
            FailureEvent::NodeFailure { node } => Failure::new([NodeId(*node)], []),
            FailureEvent::SrlgFailure { links, .. } => Failure::new([], links.iter().map(link)),
            FailureEvent::DemandSpike { .. } => Failure::default(),
        }
    }
}

/// Which event classes a failure grid enumerates (`--events` on the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum EventClass {
    /// Every single-link failure.
    Link,
    /// Every single-node failure.
    Node,
    /// Seeded shared-risk link groups.
    Srlg,
    /// Flash-crowd demand spikes.
    Spike,
    /// All of the above.
    All,
}

impl EventClass {
    /// The CLI spelling.
    pub fn name(&self) -> &'static str {
        match self {
            EventClass::Link => "link",
            EventClass::Node => "node",
            EventClass::Srlg => "srlg",
            EventClass::Spike => "spike",
            EventClass::All => "all",
        }
    }

    /// True if this selector admits `class`.
    pub fn includes(&self, class: EventClass) -> bool {
        *self == EventClass::All || *self == class
    }
}

impl std::str::FromStr for EventClass {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "link" => Ok(EventClass::Link),
            "node" => Ok(EventClass::Node),
            "srlg" => Ok(EventClass::Srlg),
            "spike" => Ok(EventClass::Spike),
            "all" => Ok(EventClass::All),
            other => Err(format!(
                "unknown event class '{other}' (expected link|node|srlg|spike|all)"
            )),
        }
    }
}

/// Deterministically enumerates the events of the requested classes for one
/// topology: every single-link failure, every single-node failure, one
/// seeded SRLG per node of degree ≥ 2, and three flash crowds.
pub fn enumerate_events(topo: &Topology, classes: EventClass, seed: u64) -> Vec<FailureEvent> {
    let mut events = Vec::new();
    if classes.includes(EventClass::Link) {
        for link in 0..topo.link_count() {
            events.push(FailureEvent::LinkFailure { link });
        }
    }
    if classes.includes(EventClass::Node) {
        for node in 0..topo.node_count() {
            events.push(FailureEvent::NodeFailure { node });
        }
    }
    if classes.includes(EventClass::Srlg) {
        for hub in 0..topo.node_count() {
            let incident = topo.incident_links(hub);
            if incident.len() < 2 {
                continue;
            }
            events.push(srlg_at(hub, &incident, seed));
        }
    }
    if classes.includes(EventClass::Spike) {
        for index in 0..SPIKE_EVENTS {
            let seed = splitmix64(seed ^ (0x5149_E000 + index as u64));
            events.push(FailureEvent::DemandSpike { index, seed });
        }
    }
    events
}

/// The seeded SRLG at one hub: group size in `2..=min(3, degree)`, members
/// drawn by a partial Fisher-Yates over the incident links. Pure function
/// of `(hub, incident, seed)`.
fn srlg_at(hub: usize, incident: &[usize], seed: u64) -> FailureEvent {
    let max_size = incident.len().min(MAX_SRLG_SIZE);
    let mut h = splitmix64(seed ^ ((hub as u64) << 1 | 1));
    let size = 2 + (h % (max_size as u64 - 1).max(1)) as usize;
    let size = size.min(max_size);
    let mut pool = incident.to_vec();
    let mut links = Vec::with_capacity(size);
    for k in 0..size {
        h = splitmix64(h);
        let j = k + (h as usize) % (pool.len() - k);
        pool.swap(k, j);
        links.push(pool[k]);
    }
    links.sort_unstable();
    FailureEvent::SrlgFailure { hub, links }
}

/// One cell of the failure grid: a sweep scenario crossed with an event.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureCell {
    /// The healthy scenario the event is injected into.
    pub spec: SweepSpec,
    /// The injected event.
    pub event: FailureEvent,
}

impl FailureCell {
    /// Stable identifier, e.g. `Abilene/gravity/reverse-capacities/m2.0+link-3`.
    /// The `--filter` CLI flag matches a case-insensitive substring of it.
    pub fn id(&self) -> String {
        format!("{}+{}", self.spec.id(), self.event.id())
    }
}

/// The work list of one failure run: scenarios × events, in deterministic
/// (spec-major, event-enumeration) order.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureGrid {
    /// The cells, in evaluation (and report) order.
    pub cells: Vec<FailureCell>,
    /// Event-generator seed the cells were enumerated with; the report
    /// echoes it.
    pub seed: u64,
}

impl FailureGrid {
    /// Crosses the specs of `grid` with the enumerated events of the
    /// requested classes. Fails fast on unknown topologies (a configuration
    /// error, unlike per-cell failures which are captured).
    pub fn build(grid: &SweepGrid, classes: EventClass, seed: u64) -> Result<Self, CoreError> {
        let mut cells = Vec::new();
        for spec in &grid.specs {
            let topo = zoo::by_name(&spec.topology).ok_or_else(|| {
                CoreError::DimensionMismatch(format!("unknown topology {}", spec.topology))
            })?;
            for event in enumerate_events(&topo, classes, seed) {
                cells.push(FailureCell {
                    spec: spec.clone(),
                    event,
                });
            }
        }
        Ok(Self { cells, seed })
    }

    /// The standard failure registry: the Table-I-eligible conformance grid
    /// crossed with the requested event classes under the default seed.
    pub fn standard(effort: Effort, classes: EventClass) -> Result<Self, CoreError> {
        Self::build(
            &SweepGrid::conformance(effort),
            classes,
            DEFAULT_FAILURE_SEED,
        )
    }

    /// Keeps only cells whose [`FailureCell::id`] contains `pattern`
    /// (case-insensitive substring match).
    pub fn filter(mut self, pattern: &str) -> Self {
        let needle = pattern.to_ascii_lowercase();
        self.cells
            .retain(|c| c.id().to_ascii_lowercase().contains(&needle));
        self
    }

    /// Truncates the grid to its first `n` cells.
    pub fn limit(mut self, n: usize) -> Self {
        self.cells.truncate(n);
        self
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// The structured per-cell verdict. Every cell gets one — cells never abort
/// the grid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CellOutcome {
    /// Post-failure behaviour within tolerance: no demand lost to the
    /// failure and the oblivious routing degrades gracefully.
    Within,
    /// The network still carries all demand, but degraded beyond tolerance
    /// (excess drops, a reconvergence forwarding loop, or an oblivious/
    /// re-optimized gap above the margin).
    Degraded {
        /// What degraded.
        reason: String,
    },
    /// Some demand volume is provably undeliverable: an endpoint died or
    /// the failure partitioned it from its destination.
    Unroutable {
        /// Which volume was lost.
        reason: String,
    },
}

impl CellOutcome {
    /// Short machine-readable verdict name (`within`/`degraded`/`unroutable`).
    pub fn name(&self) -> &'static str {
        match self {
            CellOutcome::Within => "within",
            CellOutcome::Degraded { .. } => "degraded",
            CellOutcome::Unroutable { .. } => "unroutable",
        }
    }
}

/// Headline numbers of one post-failure steady state.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureSimSummary {
    /// Total offered rate (post-failure matrix).
    pub offered: f64,
    /// Total delivered rate.
    pub delivered: f64,
    /// Fraction of offered traffic dropped (congestion + disconnection).
    pub drop_rate: f64,
    /// Rate stranded without any route (see `SimOutcome::unrouted`).
    pub unrouted: f64,
    /// Simulated maximum link utilization (carried / capacity, ≤ 1).
    pub max_utilization: f64,
}

impl FailureSimSummary {
    fn of(sim: &FlowSimulator, outcome: &SimOutcome) -> Self {
        Self {
            offered: outcome.offered,
            delivered: outcome.delivered,
            drop_rate: outcome.drop_rate(),
            unrouted: outcome.unrouted,
            max_utilization: sim.max_utilization(outcome),
        }
    }
}

/// One mode's (oblivious or re-optimized) post-failure measurement.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ModeOutcome {
    /// Analytic max link utilization of the mode's routing on the
    /// post-failure matrix (uncapped — may exceed 1).
    pub max_utilization: f64,
    /// Flow-level simulation of the same matrix (drops modelled).
    pub sim: FailureSimSummary,
    /// Fake nodes the mode's LSDB carries after the event.
    pub fake_nodes: usize,
}

/// The verdict of one failure cell.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureRecord {
    /// The healthy scenario.
    pub spec: SweepSpec,
    /// The injected event.
    pub event: FailureEvent,
    /// Stable cell identifier ([`FailureCell::id`]).
    pub cell: String,
    /// The structured verdict.
    pub outcome: CellOutcome,
    /// Pre-failure program kept, LSDB pruned, SPF reconverged. `None` if
    /// reconvergence produced no usable routing (captured in `outcome`).
    pub oblivious: Option<ModeOutcome>,
    /// Program recompiled on the post-failure topology. `None` if
    /// re-optimization failed (captured in `outcome`).
    pub reoptimized: Option<ModeOutcome>,
    /// Oblivious / re-optimized analytic max-utilization ratio (≥ 1 means
    /// the oblivious routing is worse). `None` when either mode is missing
    /// or the ratio is not finite.
    pub degradation_ratio: Option<f64>,
    /// Fake-node LSAs the reconvergence withdrew from the pre-failure
    /// program (the controller's repair bill): lies the failure invalidated
    /// structurally plus emergency per-prefix retractions that broke
    /// post-failure forwarding loops.
    pub fake_lsa_delta: usize,
    /// Demand volume whose source or destination died.
    pub dead_demand_volume: f64,
    /// Demand volume between live endpoints with no surviving path.
    pub unroutable_volume: f64,
    /// Wall-clock seconds this cell took on its worker.
    pub wall_secs: f64,
}

impl FailureRecord {
    /// This record with its non-deterministic wall-clock timing zeroed out,
    /// for bit-identity comparisons across thread counts (same contract as
    /// `ConformanceRecord::deterministic_view`).
    pub fn deterministic_view(&self) -> FailureRecord {
        FailureRecord {
            wall_secs: 0.0,
            ..self.clone()
        }
    }
}

/// A machine-readable failure run: configuration, per-cell records in grid
/// order, and the total wall-clock time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FailureReport {
    /// Worker threads the run used.
    pub threads: usize,
    /// Cells evaluated.
    pub cells: usize,
    /// Tolerance the verdicts were computed against.
    pub tolerance: f64,
    /// Event-generator seed the grid was built with.
    pub seed: u64,
    /// End-to-end wall-clock seconds.
    pub wall_secs: f64,
    /// One record per grid cell, in grid order.
    pub records: Vec<FailureRecord>,
}

impl FailureReport {
    /// Sum of the per-cell wall-clock times.
    pub fn cpu_secs(&self) -> f64 {
        self.records.iter().map(|r| r.wall_secs).sum()
    }

    /// Cells within tolerance.
    pub fn within_count(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Within))
    }

    /// Cells with a degraded verdict.
    pub fn degraded_count(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Degraded { .. }))
    }

    /// Cells with an unroutable verdict.
    pub fn unroutable_count(&self) -> usize {
        self.count(|o| matches!(o, CellOutcome::Unroutable { .. }))
    }

    fn count(&self, pred: impl Fn(&CellOutcome) -> bool) -> usize {
        self.records.iter().filter(|r| pred(&r.outcome)).count()
    }

    /// The largest finite degradation ratio across all cells, if any cell
    /// produced one.
    pub fn worst_degradation_ratio(&self) -> Option<f64> {
        self.records
            .iter()
            .filter_map(|r| r.degradation_ratio)
            .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
    }

    /// Total demand volume lost to dead endpoints or partitions.
    pub fn lost_volume(&self) -> f64 {
        self.records
            .iter()
            .map(|r| r.dead_demand_volume + r.unroutable_volume)
            .sum()
    }
}

/// The per-spec state shared by every event cell of one scenario: the
/// healthy graph, base matrix and compiled Fibbing program, whose lies carry
/// their replica counts. Computed once per spec (phase 1), then every event
/// cell reuses it (phase 2) and only reads it — recompiling the scenario per
/// cell would multiply the grid cost by the event count.
struct CellBase {
    topo: Topology,
    graph: Graph,
    base: DemandMatrix,
    program: FibbingProgram,
}

fn cell_base(spec: &SweepSpec) -> Result<CellBase, CoreError> {
    let _span = coyote_obs::span("failures.base");
    let scenario = Scenario::build(spec)?;
    let routing = scenario.pipeline.optimize(&scenario.uncertainty)?.routing;
    let program = compute_program(
        scenario.pipeline.graph(),
        &routing,
        VirtualLinkBudget::per_prefix(COMPILE_BUDGET),
    )
    .map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
    Ok(CellBase {
        topo: scenario.topology,
        graph: scenario.pipeline.graph().clone(),
        base: scenario.base,
        program,
    })
}

/// The post-spike demand matrix: every non-zero pair whose seeded hash
/// lands below [`SPIKE_FRACTION`] is scaled by [`SPIKE_FACTOR`].
fn spiked_matrix(dm: &DemandMatrix, seed: u64) -> DemandMatrix {
    let n = dm.node_count();
    let mut out = dm.clone();
    for (s, t, v) in dm.pairs() {
        let h = splitmix64(seed ^ ((s.index() * n + t.index()) as u64));
        if ((h % 1_000_000) as f64) < SPIKE_FRACTION * 1e6 {
            out.set(s, t, v * SPIKE_FACTOR);
        }
    }
    out
}

fn measure_mode(
    graph: &Graph,
    routing: &PdRouting,
    dm: &DemandMatrix,
    fake_nodes: usize,
) -> ModeOutcome {
    let _span = coyote_obs::span("failures.flowsim");
    let analytic = routing.max_link_utilization(graph, dm);
    let sim = FlowSimulator::from_pd_routing(graph, routing);
    let outcome = sim.run_matrix(dm);
    ModeOutcome {
        max_utilization: analytic,
        sim: FailureSimSummary::of(&sim, &outcome),
        fake_nodes,
    }
}

/// Evaluates one failure cell against its precomputed [`CellBase`]. Pure
/// and deterministic. Per-cell *evaluation* failures inside the modes are
/// captured into the record; only impossible configurations (which phase 1
/// would already have rejected) surface as `Err`.
fn failure_record(
    cell: &FailureCell,
    base: &CellBase,
    tolerance: f64,
) -> Result<FailureRecord, CoreError> {
    let _cell_span = coyote_obs::span("failures.cell");
    coyote_obs::counter("failures.cells", 1);
    let started = Instant::now();
    let n = base.graph.node_count();

    // 1. Inject: the event's failure, the graph that survives it, and its
    //    withdrawal from the lied-to LSDB (the failed elements and the lies
    //    they invalidate), whose SPFs also say which pairs lost every path.
    let failure = cell.event.failure(&base.topo);
    let pruned_graph = failure.surviving(&base.graph);
    let withdrawal = {
        let _span = coyote_obs::span("failures.prune");
        base.program.lsdb.withdraw(&failure)
    };

    // 2. The post-failure demand matrix: spikes applied, dead-endpoint
    //    demands zeroed (their volume is unconditionally lost), partitioned
    //    live pairs *kept* — the simulator must account them as unrouted.
    let mut post = match &cell.event {
        FailureEvent::DemandSpike { seed, .. } => spiked_matrix(&base.base, *seed),
        _ => base.base.clone(),
    };
    let mut dead_demand_volume = 0.0;
    for (s, t, v) in post.clone().pairs() {
        if failure.kills_node(s) || failure.kills_node(t) {
            post.set(s, t, 0.0);
            dead_demand_volume += v;
        }
    }
    let mut unroutable_volume = 0.0;
    for (s, t, v) in post.pairs() {
        if !withdrawal.reaches(s, t) {
            unroutable_volume += v;
        }
    }
    if coyote_obs::enabled() {
        // Micro-units: counters are integral, volumes are rates.
        coyote_obs::counter(
            "failures.unroutable_microvol",
            (((dead_demand_volume + unroutable_volume) * 1e6).round()) as u64,
        );
    }

    // 3. Oblivious mode: reconverge SPF on the withdrawal. A surviving lie
    //    can close a forwarding loop once real shortest paths move; the
    //    controller's emergency fallback withdraws that prefix's lies (plain
    //    SPF is loop-free), and a loop with no lie left to blame gives up on
    //    this mode. Each mode's flow simulation runs after its span ends, so
    //    `failures.flowsim` is their sibling, not their child.
    let prune_stats = withdrawal.stats();
    let reconverged = {
        let _span = coyote_obs::span("failures.reconverge");
        coyote_obs::counter("failures.reconvergence.spf_runs", n as u64);
        withdrawal.reconverge(&pruned_graph)
    };
    let emergency_retractions = reconverged.retracted;
    let (oblivious, oblivious_err) = match reconverged.routing {
        Ok(routing) => (
            Some(measure_mode(
                &pruned_graph,
                &routing,
                &post,
                reconverged.fake_count,
            )),
            None,
        ),
        Err(OspfError::ForwardingLoop { destination, .. }) => (
            None,
            Some(format!(
                "oblivious reconvergence: unrepairable loop towards {destination}"
            )),
        ),
        Err(e) => (None, Some(format!("oblivious reconvergence: {e}"))),
    };

    // 4. Re-optimized mode: rebuild DAGs and the LP on the post-failure
    //    topology, masking the demand the DAGs provably cannot carry.
    let reoptimized = {
        let _span = coyote_obs::span("failures.reopt");
        reoptimize(&pruned_graph, &post)
    };
    let (reoptimized, reopt_err) = match reoptimized {
        Ok((routing, fake_nodes)) => (
            Some(measure_mode(&pruned_graph, &routing, &post, fake_nodes)),
            None,
        ),
        Err(e) => (None, Some(format!("re-optimization: {e}"))),
    };

    // 5. Verdict.
    let degradation_ratio = match (&oblivious, &reoptimized) {
        (Some(obl), Some(re)) => {
            let ratio = obl.max_utilization / re.max_utilization;
            ratio.is_finite().then_some(ratio)
        }
        _ => None,
    };
    let mode_errors: Vec<String> = [oblivious_err, reopt_err].into_iter().flatten().collect();
    let outcome = if dead_demand_volume > 0.0 || unroutable_volume > 0.0 {
        let mut reason = format!(
            "{dead_demand_volume:.3} demand units lost their endpoint, \
             {unroutable_volume:.3} lost every path"
        );
        if !mode_errors.is_empty() {
            reason.push_str("; ");
            reason.push_str(&mode_errors.join("; "));
        }
        CellOutcome::Unroutable { reason }
    } else if !mode_errors.is_empty() {
        CellOutcome::Degraded {
            reason: mode_errors.join("; "),
        }
    } else {
        // Both modes present (no errors), no volume lost.
        let obl = oblivious.as_ref().expect("no mode errors");
        let ratio_excess = degradation_ratio.filter(|r| *r > 1.0 + tolerance);
        if obl.sim.drop_rate > tolerance {
            CellOutcome::Degraded {
                reason: format!(
                    "oblivious drop rate {:.4} above tolerance {tolerance}",
                    obl.sim.drop_rate
                ),
            }
        } else if let Some(r) = ratio_excess {
            CellOutcome::Degraded {
                reason: format!("degradation ratio {r:.3} above 1 + {tolerance}"),
            }
        } else {
            CellOutcome::Within
        }
    };

    Ok(FailureRecord {
        spec: cell.spec.clone(),
        event: cell.event.clone(),
        cell: cell.id(),
        outcome,
        oblivious,
        reoptimized,
        degradation_ratio,
        fake_lsa_delta: prune_stats.dropped_fakes + emergency_retractions,
        dead_demand_volume,
        unroutable_volume,
        wall_secs: started.elapsed().as_secs_f64(),
    })
}

/// Rebuilds an optimal routing on the post-failure topology and compiles it
/// back into router state: augmented DAGs → routable-demand mask → LP →
/// Fibbing program → realized routing. Returns the realized routing and the
/// new program's fake-node count.
fn reoptimize(graph: &Graph, dm: &DemandMatrix) -> Result<(PdRouting, usize), CoreError> {
    let dags = build_all_dags(graph, DagMode::Augmented)
        .map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
    let split = split_routable_within_dags(graph, &dags, dm)?;
    let (routing, _) = optimal_routing_within_dags(graph, &dags, &split.routable)?;
    let program = compute_program(
        graph,
        &routing,
        VirtualLinkBudget::per_prefix(COMPILE_BUDGET),
    )
    .map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
    let realized =
        realized_routing(graph, &program).map_err(|e| CoreError::InvalidRouting(e.to_string()))?;
    Ok((realized, program.stats.fake_nodes))
}

/// Runs the failure grid: phase 1 evaluates each distinct healthy scenario
/// once (fatal on configuration errors, exactly like the sweep), phase 2
/// fans the event cells out with [`WorkerPool::par_map`] so no
/// per-cell failure can abort the run — a cell whose evaluation errs
/// becomes an [`CellOutcome::Unroutable`] record instead. Records come back
/// in grid order, bit-identical for every thread count under
/// [`FailureRecord::deterministic_view`].
pub fn run_failures(
    grid: &FailureGrid,
    threads: usize,
    tolerance: f64,
) -> Result<FailureReport, CoreError> {
    let pool = WorkerPool::new(threads);
    let started = Instant::now();

    // Phase 1: distinct specs, first-appearance order.
    let mut specs: Vec<SweepSpec> = Vec::new();
    for cell in &grid.cells {
        if !specs.contains(&cell.spec) {
            specs.push(cell.spec.clone());
        }
    }
    let bases = pool.try_par_map(&specs, cell_base)?;
    let by_id: HashMap<String, CellBase> = specs.iter().map(|s| s.id()).zip(bases).collect();

    // Phase 2: every event cell, failures captured per cell.
    let results = pool.par_map(&grid.cells, |cell| {
        failure_record(cell, &by_id[&cell.spec.id()], tolerance)
    });
    let records = results
        .into_iter()
        .zip(&grid.cells)
        .map(|(result, cell)| match result {
            Ok(record) => record,
            Err(e) => FailureRecord {
                spec: cell.spec.clone(),
                event: cell.event.clone(),
                cell: cell.id(),
                outcome: CellOutcome::Unroutable {
                    reason: format!("cell evaluation failed: {e}"),
                },
                oblivious: None,
                reoptimized: None,
                degradation_ratio: None,
                fake_lsa_delta: 0,
                dead_demand_volume: 0.0,
                unroutable_volume: 0.0,
                wall_secs: 0.0,
            },
        })
        .collect();

    Ok(FailureReport {
        threads: pool.threads(),
        cells: grid.cells.len(),
        tolerance,
        seed: grid.seed,
        wall_secs: started.elapsed().as_secs_f64(),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::DEFAULT_TOLERANCE;
    use crate::scenario::{BaseModel, WeightHeuristic};

    fn abilene_spec() -> SweepSpec {
        SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        }
    }

    fn abilene_grid(classes: EventClass) -> FailureGrid {
        FailureGrid::build(
            &SweepGrid {
                specs: vec![abilene_spec()],
            },
            classes,
            DEFAULT_FAILURE_SEED,
        )
        .unwrap()
    }

    #[test]
    fn event_enumeration_covers_every_link_and_node() {
        let topo = zoo::by_name("Abilene").unwrap();
        let all = enumerate_events(&topo, EventClass::All, DEFAULT_FAILURE_SEED);
        let links = all
            .iter()
            .filter(|e| matches!(e, FailureEvent::LinkFailure { .. }))
            .count();
        let nodes = all
            .iter()
            .filter(|e| matches!(e, FailureEvent::NodeFailure { .. }))
            .count();
        let spikes = all
            .iter()
            .filter(|e| matches!(e, FailureEvent::DemandSpike { .. }))
            .count();
        assert_eq!(links, topo.link_count());
        assert_eq!(nodes, topo.node_count());
        assert_eq!(spikes, SPIKE_EVENTS);
        // Every node of degree >= 2 contributes one SRLG.
        let expected_srlgs = (0..topo.node_count())
            .filter(|&v| topo.degree(v) >= 2)
            .count();
        let srlgs = all
            .iter()
            .filter(|e| matches!(e, FailureEvent::SrlgFailure { .. }))
            .count();
        assert_eq!(srlgs, expected_srlgs);
    }

    #[test]
    fn srlg_generation_is_deterministic_for_a_fixed_seed() {
        let topo = zoo::by_name("Abilene").unwrap();
        let a = enumerate_events(&topo, EventClass::Srlg, DEFAULT_FAILURE_SEED);
        let b = enumerate_events(&topo, EventClass::Srlg, DEFAULT_FAILURE_SEED);
        assert_eq!(a, b);
        // A different seed picks different groups somewhere.
        let c = enumerate_events(&topo, EventClass::Srlg, DEFAULT_FAILURE_SEED ^ 0xDEAD);
        assert_eq!(a.len(), c.len());
        assert_ne!(a, c, "seed change should reshuffle at least one group");
        // Structural sanity: 2..=3 incident links of the hub, sorted, unique.
        for ev in &a {
            let FailureEvent::SrlgFailure { hub, links } = ev else {
                panic!("non-SRLG event in SRLG enumeration");
            };
            assert!((2..=MAX_SRLG_SIZE).contains(&links.len()));
            assert!(
                links.windows(2).all(|w| w[0] < w[1]),
                "unsorted/dup {links:?}"
            );
            for &l in links {
                let link = &topo.links[l];
                assert!(link.a == *hub || link.b == *hub);
            }
        }
    }

    #[test]
    fn spike_selection_is_deterministic_and_partial() {
        let mut dm = DemandMatrix::zeros(8);
        for s in 0..8 {
            for t in 0..8 {
                if s != t {
                    dm.set(NodeId(s), NodeId(t), 1.0);
                }
            }
        }
        let a = spiked_matrix(&dm, 42);
        let b = spiked_matrix(&dm, 42);
        for (s, t, v) in a.pairs() {
            assert_eq!(v, b.get(s, t));
        }
        let spiked = a.pairs().filter(|&(_, _, v)| v > 1.0).count();
        assert!(spiked > 0, "no pair spiked");
        assert!(spiked < 56, "every pair spiked");
        for (_, _, v) in a.pairs() {
            assert!(v == 1.0 || v == SPIKE_FACTOR);
        }
    }

    #[test]
    fn grid_ids_are_stable_and_filterable() {
        let grid = abilene_grid(EventClass::Link);
        assert_eq!(grid.len(), zoo::by_name("Abilene").unwrap().link_count());
        assert_eq!(
            grid.cells[3].id(),
            "Abilene/gravity/reverse-capacities/m2.0+link-3"
        );
        let filtered = grid.clone().filter("LINK-3");
        assert_eq!(filtered.len(), 1);
        assert_eq!(grid.clone().limit(2).len(), 2);
    }

    #[test]
    fn single_link_cell_degrades_gracefully() {
        let grid = abilene_grid(EventClass::Link).limit(1);
        let report = run_failures(&grid, 1, DEFAULT_TOLERANCE).expect("run");
        assert_eq!(report.cells, 1);
        let r = &report.records[0];
        // Abilene is 2-edge-connected: one link failure cannot partition it.
        assert_eq!(r.dead_demand_volume, 0.0);
        assert_eq!(r.unroutable_volume, 0.0);
        let obl = r.oblivious.as_ref().expect("oblivious mode");
        let re = r.reoptimized.as_ref().expect("reoptimized mode");
        assert!(obl.max_utilization.is_finite());
        assert!(re.max_utilization.is_finite());
        assert!(r.degradation_ratio.expect("finite ratio") > 0.0);
        assert!(obl.sim.unrouted.abs() < 1e-9, "no stranded traffic");
    }

    #[test]
    fn node_failure_cells_report_dead_demand_not_errors() {
        // Fail a node: its demand dies with it, the grid must not abort.
        let grid = abilene_grid(EventClass::Node).limit(1);
        let report = run_failures(&grid, 1, DEFAULT_TOLERANCE).expect("run");
        let r = &report.records[0];
        assert!(matches!(r.outcome, CellOutcome::Unroutable { .. }));
        assert!(r.dead_demand_volume > 0.0);
    }

    #[test]
    fn spike_cells_keep_the_topology_healthy() {
        let grid = abilene_grid(EventClass::Spike).limit(1);
        let report = run_failures(&grid, 1, DEFAULT_TOLERANCE).expect("run");
        let r = &report.records[0];
        assert_eq!(r.dead_demand_volume, 0.0);
        assert_eq!(r.unroutable_volume, 0.0);
        assert_eq!(r.fake_lsa_delta, 0, "no topology change, no LSA withdrawal");
        let obl = r.oblivious.as_ref().expect("oblivious");
        // The spiked matrix offers more than the base matrix.
        assert!(obl.sim.offered > 0.0);
    }

    #[test]
    fn the_report_echoes_the_seed_the_grid_was_built_with() {
        let grid = FailureGrid::build(
            &SweepGrid {
                specs: vec![abilene_spec()],
            },
            EventClass::Spike,
            7,
        )
        .unwrap()
        .filter("spike")
        .limit(1);
        assert_eq!(grid.seed, 7);
        let report = run_failures(&grid, 1, DEFAULT_TOLERANCE).expect("run");
        assert_eq!(report.seed, 7);
    }

    /// The per-spec base carries no per-cell state: the Abilene grid's
    /// cells, evaluated against one base in grid order and in reverse, give
    /// the same records.
    #[test]
    fn cells_share_one_base_in_any_order() {
        let grid = abilene_grid(EventClass::All);
        let base = cell_base(&abilene_spec()).expect("base");
        let record = |cell| {
            failure_record(cell, &base, DEFAULT_TOLERANCE)
                .expect("cell")
                .deterministic_view()
        };
        let forward: Vec<FailureRecord> = grid.cells.iter().map(record).collect();
        let mut backward: Vec<FailureRecord> = grid.cells.iter().rev().map(record).collect();
        backward.reverse();
        assert_eq!(
            forward, backward,
            "a cell's record depends on the cells before it"
        );
    }

    #[test]
    fn unknown_topology_is_a_grid_build_error() {
        let grid = SweepGrid {
            specs: vec![SweepSpec {
                topology: "NoSuchNet".into(),
                ..abilene_spec()
            }],
        };
        let err = FailureGrid::build(&grid, EventClass::All, 1).unwrap_err();
        assert!(err.to_string().contains("NoSuchNet"), "{err}");
    }
}
