//! COYOTE's in-DAG traffic-splitting optimization (Section V-C, Appendix C).
//!
//! Given the per-destination DAGs, COYOTE chooses the splitting ratios
//! `φ_t(e)` that minimize the worst-case link utilization over the
//! operator's uncertainty set, normalized by the demands-aware optimum. The
//! paper casts this as an iterative mixed linear–geometric program solved
//! with an interior-point solver; this reproduction keeps the same outer
//! structure but solves the inner problem with a first-order method:
//!
//! 1. **Log-domain parametrization.** Splitting ratios are expressed as a
//!    softmax of free parameters per (destination, node), which enforces the
//!    "ratios sum to one" constraint exactly — the constraint the paper has
//!    to approximate with monomial condensation — while keeping every load a
//!    smooth function of the parameters (products of ratios along paths, as
//!    in the paper's GP view).
//! 2. **Smoothed worst case.** The maximum utilization over (edge, demand
//!    matrix) pairs is smoothed with log-sum-exp and minimized with Adam;
//!    gradients are computed analytically with an adjoint sweep over each
//!    DAG.
//! 3. **Constraint generation (the dualization step's practical twin).** The
//!    finite working set of demand matrices is grown by solving the exact
//!    slave LP of Appendix C for the current bottleneck edges; the witness
//!    matrices are added and the splitting ratios re-optimized, exactly like
//!    the paper's iterative approach alternates between the master and the
//!    dualized adversary.
//!
//! The result can only improve on ECMP over the working set because uniform
//! splitting over the augmented DAGs (which contain the shortest-path DAGs)
//! is a feasible starting point (Section V-B).
//!
//! # The kernel
//!
//! Step 2 is where a run spends its Adam iterations, so the objective is
//! *compiled* once per call: every DAG becomes a `DagPlan` of flat index
//! arrays, and the working set is laid out with one contiguous *lane* per
//! demand matrix, so that one pass over a DAG serves every matrix. A
//! constraint-generation round adds a lane; the plans stay. The layout, and
//! the ordering rules that keep the result equal, to the last bit, to
//! evaluating one (matrix, destination) pair at a time, are stated on
//! `SplittingObjective`; the tests hold the kernel to a scalar reference
//! with `to_bits`.

use crate::dag_builder::{build_all_dags, DagMode};
use crate::error::CoreError;
use crate::perf::{EvaluationOptions, EvaluationSet};
use crate::routing::PdRouting;
use crate::worst_case::{bottleneck_candidates, performance_ratio_exact, RoutabilityScope};
use coyote_graph::{Dag, Graph};
use coyote_traffic::{DemandMatrix, UncertaintySet};
use std::cell::RefCell;

/// Configuration of the COYOTE splitting optimizer.
#[derive(Debug, Clone)]
pub struct CoyoteConfig {
    /// Outer constraint-generation rounds (adversarial matrices added).
    pub cg_rounds: usize,
    /// How many bottleneck edges to probe with the exact slave LP per round.
    pub cg_candidate_edges: usize,
    /// Adam iterations per inner optimization.
    pub adam_iterations: usize,
    /// Options for the initial finite working set of demand matrices.
    pub evaluation: EvaluationOptions,
}

impl Default for CoyoteConfig {
    fn default() -> Self {
        Self {
            cg_rounds: 3,
            cg_candidate_edges: 3,
            adam_iterations: 1_500,
            evaluation: EvaluationOptions::default(),
        }
    }
}

impl CoyoteConfig {
    /// A cheaper configuration for tests and quick sweeps.
    pub fn fast() -> Self {
        Self {
            cg_rounds: 2,
            cg_candidate_edges: 2,
            adam_iterations: 600,
            evaluation: EvaluationOptions {
                corners: 6,
                samples: 3,
                spikes: 4,
                seed: 0xC0707E,
            },
        }
    }
}

/// Outcome of a COYOTE optimization run.
#[derive(Debug, Clone)]
pub struct CoyoteResult {
    /// The optimized routing.
    pub routing: PdRouting,
    /// Performance ratio over the final working set of demand matrices.
    pub working_set_ratio: f64,
    /// Number of demand matrices in the final working set.
    pub working_set_size: usize,
    /// Constraint-generation rounds actually performed.
    pub rounds: usize,
}

/// A list of nodes in visiting order, each with the `(edge, x)` pairs the
/// visit reads — stored back to back so a sweep is two linear scans. What
/// `x` is depends on the list: the edge's source node, its head node, or
/// its position in the parameter vector.
#[derive(Default)]
struct Sweep {
    /// `(node, end of its pairs in `pairs`)`.
    nodes: Vec<(usize, usize)>,
    pairs: Vec<(usize, usize)>,
}

impl Sweep {
    fn push(&mut self, node: usize, pairs: impl Iterator<Item = (usize, usize)>) {
        self.pairs.extend(pairs);
        self.nodes.push((node, self.pairs.len()));
    }

    fn iter(&self) -> impl Iterator<Item = (usize, &[(usize, usize)])> {
        let mut start = 0;
        self.nodes.iter().map(move |&(node, end)| {
            let pairs = &self.pairs[start..end];
            start = end;
            (node, pairs)
        })
    }
}

/// One destination's DAG compiled to flat index arrays, once per
/// [`optimize_splitting_with_working_set`] call. The kernel never touches
/// the [`Dag`] or the [`Graph`] again: every loop below is a scan over one
/// of these lists, in the order that fixes the floating-point result.
struct DagPlan {
    destination: usize,
    /// Flow propagation: nodes with DAG in-edges in sources-first order,
    /// each with its in-edges `(edge, source)` in [`Dag::in_edges`] order.
    /// The destination is left out — nothing reads the flow arriving there.
    forward: Sweep,
    /// Adjoint propagation: every node but the destination in
    /// destination-first order, each with its out-edges `(edge, head)` in
    /// [`Dag::out_edges`] order.
    backward: Sweep,
    /// The DAG's edges `(edge, source, head)` in ascending id, the order in
    /// which loads and `∂J/∂φ` are accumulated.
    edges: Vec<(usize, usize, usize)>,
    /// Softmax groups: the nodes with at least two DAG out-edges in
    /// ascending id, each with `(edge, index into θ)`. Only these nodes get
    /// parameters; a single-out-edge node always forwards everything.
    groups: Sweep,
}

impl DagPlan {
    /// Compiles `dag`, numbering its parameters from `*dim` upwards.
    fn new(graph: &Graph, dag: &Dag, dim: &mut usize) -> Self {
        let mut forward = Sweep::default();
        for v in dag.topo_to_destination() {
            let in_edges = dag.in_edges(v);
            if v != dag.destination() && !in_edges.is_empty() {
                forward.push(
                    v.index(),
                    in_edges
                        .iter()
                        .map(|&e| (e.index(), graph.edge(e).src.index())),
                );
            }
        }
        let mut backward = Sweep::default();
        for &v in dag.topo_from_destination() {
            if v != dag.destination() {
                backward.push(
                    v.index(),
                    dag.out_edges(v)
                        .iter()
                        .map(|&e| (e.index(), graph.edge(e).dst.index())),
                );
            }
        }
        let mut groups = Sweep::default();
        for v in graph.nodes() {
            let out = dag.out_edges(v);
            if out.len() >= 2 {
                groups.push(
                    v.index(),
                    out.iter().map(|&e| {
                        *dim += 1;
                        (e.index(), *dim - 1)
                    }),
                );
            }
        }
        let edges = dag
            .edges()
            .into_iter()
            .map(|e| {
                let (u, x) = graph.endpoints(e);
                (e.index(), u.index(), x.index())
            })
            .collect();
        Self {
            destination: dag.destination().index(),
            forward,
            backward,
            edges,
            groups,
        }
    }
}

/// Buffers of [`SplittingObjective::eval`], sized by
/// [`SplittingObjective::load_lanes`] once per constraint-generation round
/// and rewritten in place by every evaluation. `K` is the number of lanes
/// (demand matrices), `n` the node count, `|E|` the edge count.
#[derive(Default)]
struct EvalScratch {
    /// `phi[t·|E| + e]`: zero off the DAG of `t`, one on single-out edges
    /// (both written once, at construction), softmax output elsewhere.
    phi: Vec<f64>,
    /// One softmax group's parameters and probabilities.
    logits: Vec<f64>,
    probs: Vec<f64>,
    /// `flow[(t·n + v)·K + k]`: node flow towards `t` in lane `k`, kept
    /// from the forward pass for the adjoint.
    flow: Vec<f64>,
    /// `K` accumulators: one node's inflow or adjoint, per lane.
    acc: Vec<f64>,
    /// `load[e·K + k]`.
    load: Vec<f64>,
    /// Utilizations and their smooth-max weights, matrix-major
    /// (`[k·|E| + e]`): the order `smooth_max_and_weights_into` sums in.
    values: Vec<f64>,
    weights: Vec<f64>,
    /// `w[e·K + k] = weights[k·|E| + e] / (capacity(e) · r_k)`.
    w: Vec<f64>,
    /// `lambda[v·K + k]`: the adjoint of the current destination.
    lambda: Vec<f64>,
    /// `dphi[t·|E| + e] = ∂J/∂φ_t(e)`; rows of destinations without demand
    /// are never written and stay zero.
    dphi: Vec<f64>,
}

// The smoothing temperature of the max, relative to the current maximum.
const SMOOTHING: f64 = 0.02;
// The temperature's floor: an all-zero load vector still has a positive one.
const MIN_TEMPERATURE: f64 = 1e-6;

/// The differentiable objective: smoothed maximum over (matrix, edge) of
/// `load / (capacity · OPTU(D))`, as a function of the softmax parameters.
///
/// **Layout.** The working set is stored as structure of arrays with one
/// *lane* per demand matrix: every per-node and per-edge quantity is a run
/// of `K` consecutive values, so each DAG edge is visited once per
/// destination and its inner loop is a contiguous sweep over the lanes that
/// the compiler vectorises. A (matrix, destination) pair without demand
/// rides along as a lane of zeros; a destination without demand in *every*
/// matrix is skipped.
///
/// **Ordering rules.** The result is bit-identical to evaluating the
/// matrices one at a time (the `#[cfg(test)]` reference below) because each
/// lane sees the same operations in the same order as it would alone:
///
/// * a node's inflow is summed over its in-edges in [`Dag::in_edges`] order
///   into a fresh accumulator, then added to the node's own demand;
/// * loads are accumulated over destinations ascending and, within one,
///   over DAG edges ascending — a zero lane adds `+0.0` to a non-negative
///   sum, which changes nothing;
/// * the utilizations are handed to `smooth_max_and_weights_into`
///   matrix-major, so its running sum sees them in the order it always did;
/// * `∂J/∂φ_t(e)` is the one reduction *across* lanes and runs
///   sequentially in matrix order;
/// * the softmax chain rule keeps its `.sum()`.
///
/// No `mul_add`, no reassociation: only independent lanes are vectorised.
struct SplittingObjective<'a> {
    graph: &'a Graph,
    dags: &'a [Dag],
    plans: Vec<DagPlan>,
    /// Length of the parameter vector.
    dim: usize,
    /// Number of lanes `K`.
    lanes: usize,
    /// `demand[(t·n + s)·K + k] = d_st` of matrix `k`: the columns of every
    /// matrix, transposed so a destination's initial flows are one copy.
    demand: Vec<f64>,
    /// `scale[e·K + k] = capacity(e) · OPTU(D_k)`.
    scale: Vec<f64>,
    /// `active[t]`: some lane has demand towards `t`.
    active: Vec<bool>,
    scratch: RefCell<EvalScratch>,
}

impl<'a> SplittingObjective<'a> {
    /// Compiles the DAGs; the objective has no lanes until
    /// [`Self::load_lanes`] is called.
    fn new(graph: &'a Graph, dags: &'a [Dag]) -> Self {
        let (n, ne) = (graph.node_count(), graph.edge_count());
        let mut dim = 0;
        let plans: Vec<DagPlan> = dags
            .iter()
            .map(|dag| DagPlan::new(graph, dag, &mut dim))
            .collect();
        let mut phi = vec![0.0; dags.len() * ne];
        for (t, dag) in dags.iter().enumerate() {
            for v in graph.nodes() {
                if let [only] = dag.out_edges(v) {
                    phi[t * ne + only.index()] = 1.0;
                }
            }
        }
        Self {
            graph,
            dags,
            plans,
            dim,
            lanes: 0,
            demand: Vec::new(),
            scale: Vec::new(),
            active: vec![false; n],
            scratch: RefCell::new(EvalScratch {
                phi,
                dphi: vec![0.0; dags.len() * ne],
                ..EvalScratch::default()
            }),
        }
    }

    /// Replaces the lanes by the given (demand matrix, `OPTU` normalizer)
    /// pairs and sizes every buffer for them. Called once per
    /// constraint-generation round with the whole working set, so the
    /// adversary's witness becomes one more lane; the plans, the parameter
    /// numbering and the matrices themselves are neither rebuilt nor cloned.
    fn load_lanes<'m>(&mut self, lanes: impl Iterator<Item = (&'m DemandMatrix, f64)>) {
        let lanes: Vec<(&DemandMatrix, f64)> = lanes.collect();
        let (n, ne, k) = (
            self.graph.node_count(),
            self.graph.edge_count(),
            lanes.len(),
        );
        self.lanes = k;
        self.demand.clear();
        self.demand.resize(n * n * k, 0.0);
        self.active.fill(false);
        for (lane, (dm, _)) in lanes.iter().enumerate() {
            for t in dm.active_destinations() {
                self.active[t.index()] = true;
                for s in self.graph.nodes().filter(|&s| s != t) {
                    self.demand[(t.index() * n + s.index()) * k + lane] = dm.get(s, t);
                }
            }
        }
        self.scale.clear();
        for e in self.graph.edges() {
            let capacity = self.graph.capacity(e);
            self.scale.extend(lanes.iter().map(|&(_, r)| capacity * r));
        }
        let scratch = self.scratch.get_mut();
        for (buffer, len) in [
            (&mut scratch.flow, n * n * k),
            (&mut scratch.acc, k),
            (&mut scratch.load, ne * k),
            (&mut scratch.values, k * ne),
            (&mut scratch.weights, k * ne),
            (&mut scratch.w, ne * k),
            (&mut scratch.lambda, n * k),
        ] {
            buffer.clear();
            buffer.resize(len, 0.0);
        }
    }

    /// The plans of the destinations that have demand in some lane,
    /// ascending.
    fn active_plans(&self) -> impl Iterator<Item = &DagPlan> {
        self.plans.iter().filter(|p| self.active[p.destination])
    }

    /// The one softmax pass: writes `φ` of every parametrized edge.
    fn fill_phi(&self, theta: &[f64], scratch: &mut EvalScratch) {
        let ne = self.graph.edge_count();
        let EvalScratch {
            phi, logits, probs, ..
        } = scratch;
        for plan in &self.plans {
            let phi = &mut phi[plan.destination * ne..][..ne];
            for (_, group) in plan.groups.iter() {
                logits.clear();
                logits.extend(group.iter().map(|&(_, i)| theta[i]));
                softmax_into(logits, probs);
                for (&(e, _), &p) in group.iter().zip(probs.iter()) {
                    phi[e] = p;
                }
            }
        }
    }

    /// The routing `theta` stands for.
    fn routing(&self, theta: &[f64]) -> PdRouting {
        let ne = self.graph.edge_count();
        let scratch = &mut *self.scratch.borrow_mut();
        self.fill_phi(theta, scratch);
        let phi = (0..self.dags.len())
            .map(|t| scratch.phi[t * ne..][..ne].to_vec())
            .collect();
        PdRouting::from_ratios(self.graph, self.dags.to_vec(), phi)
    }

    /// Evaluates the smoothed objective and accumulates the gradient into
    /// `grad` (which the caller zeroes).
    /// Allocates nothing after the first call: [`SplittingObjective::load_lanes`]
    /// sized the lane buffers, and the softmax scratch has grown to the
    /// widest group by then.
    fn eval(&self, theta: &[f64], grad: &mut [f64]) -> f64 {
        let (n, ne, k) = (self.graph.node_count(), self.graph.edge_count(), self.lanes);
        let scratch = &mut *self.scratch.borrow_mut();
        self.fill_phi(theta, scratch);
        let EvalScratch {
            phi,
            flow,
            acc,
            load,
            values,
            weights,
            w,
            lambda,
            dphi,
            ..
        } = scratch;

        // Forward pass: node flows per destination, loads summed over
        // destinations, all lanes at once.
        load.fill(0.0);
        for plan in self.active_plans() {
            let t = plan.destination;
            let phi = &phi[t * ne..][..ne];
            let flow = &mut flow[t * n * k..][..n * k];
            flow.copy_from_slice(&self.demand[t * n * k..][..n * k]);
            for (v, in_edges) in plan.forward.iter() {
                acc.fill(0.0);
                for &(e, u) in in_edges {
                    let p = phi[e];
                    for (a, &f) in acc.iter_mut().zip(&flow[u * k..][..k]) {
                        *a += f * p;
                    }
                }
                for (f, &a) in flow[v * k..][..k].iter_mut().zip(acc.iter()) {
                    *f += a;
                }
            }
            for &(e, u, _) in &plan.edges {
                let p = phi[e];
                for (l, &f) in load[e * k..][..k].iter_mut().zip(&flow[u * k..][..k]) {
                    *l += f * p;
                }
            }
        }

        for e in 0..ne {
            for lane in 0..k {
                values[lane * ne + e] = load[e * k + lane] / self.scale[e * k + lane];
            }
        }
        let max_val = values.iter().copied().fold(0.0_f64, f64::max);
        let tau = (SMOOTHING * max_val).max(MIN_TEMPERATURE);
        let objective = smooth_max_and_weights_into(values, tau, weights);
        // Per-edge weight of each matrix in the smoothed max.
        for e in 0..ne {
            for lane in 0..k {
                w[e * k + lane] = weights[lane * ne + e] / self.scale[e * k + lane];
            }
        }

        // Backward pass (adjoint) per destination.
        for plan in self.active_plans() {
            let t = plan.destination;
            let phi = &phi[t * ne..][..ne];
            let flow = &flow[t * n * k..][..n * k];
            let dphi = &mut dphi[t * ne..][..ne];
            // Adjoint λ(v) = Σ_{e=(v,x)} φ(e) (w_e + λ(x)), destination
            // first so successors are ready. λ(t) = 0; every other row read
            // below was written by this sweep.
            lambda[t * k..][..k].fill(0.0);
            for (v, out_edges) in plan.backward.iter() {
                acc.fill(0.0);
                for &(e, x) in out_edges {
                    let p = phi[e];
                    let (w, lambda) = (&w[e * k..][..k], &lambda[x * k..][..k]);
                    for ((a, &w), &l) in acc.iter_mut().zip(w).zip(lambda) {
                        *a += p * (w + l);
                    }
                }
                lambda[v * k..][..k].copy_from_slice(acc);
            }
            for &(e, u, x) in &plan.edges {
                let (w, lambda) = (&w[e * k..][..k], &lambda[x * k..][..k]);
                let mut sum = 0.0;
                for ((&f, &w), &l) in flow[u * k..][..k].iter().zip(w).zip(lambda) {
                    sum += f * (w + l);
                }
                dphi[e] = sum;
            }
        }

        // Chain rule through the per-node softmax.
        for plan in &self.plans {
            let t = plan.destination;
            let (phi, dphi) = (&phi[t * ne..][..ne], &dphi[t * ne..][..ne]);
            for (_, group) in plan.groups.iter() {
                let dot: f64 = group.iter().map(|&(e, _)| dphi[e] * phi[e]).sum();
                for &(e, i) in group {
                    grad[i] += phi[e] * (dphi[e] - dot);
                }
            }
        }

        objective
    }
}

/// Stable softmax of `xs` into `out` (cleared first, capacity reused):
/// shift by the maximum, exponentiate, divide by the sequential sum.
fn softmax_into(xs: &[f64], out: &mut Vec<f64>) {
    out.clear();
    if xs.is_empty() {
        return;
    }
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    out.reserve(xs.len());
    for &x in xs {
        out.push((x - m).exp());
    }
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

/// The smoothed maximum `τ · log Σ exp(x_i / τ)` of `xs`, with its
/// gradient weights `softmax(x / τ)` written into `weights` (cleared first,
/// capacity reused). One pass and no temporary: `xs` is the full (matrix ×
/// edge) utilization vector, evaluated once per Adam iteration. The tests
/// hold it, bit for bit, to the allocating log-sum-exp and softmax it fuses.
fn smooth_max_and_weights_into(xs: &[f64], tau: f64, weights: &mut Vec<f64>) -> f64 {
    assert!(tau > 0.0, "smoothing temperature must be positive");
    weights.clear();
    if xs.is_empty() {
        return f64::NEG_INFINITY;
    }
    let m = xs
        .iter()
        .map(|&x| x / tau)
        .fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        // What softmax gives an all-(-∞) input (NaN weights), and
        // log-sum-exp's -∞ guard for the value.
        weights.extend(xs.iter().map(|_| f64::NAN));
        return f64::NEG_INFINITY;
    }
    weights.reserve(xs.len());
    let mut sum = 0.0;
    for &x in xs {
        let e = (x / tau - m).exp();
        weights.push(e);
        sum += e;
    }
    for w in weights.iter_mut() {
        *w /= sum;
    }
    tau * (m + sum.ln())
}

// Adam's step size, its moment decays and the floor under the
// second-moment root.
const ADAM_LEARNING_RATE: f64 = 0.08;
const ADAM_BETA1: f64 = 0.9;
const ADAM_BETA2: f64 = 0.999;
const ADAM_EPSILON: f64 = 1e-8;
// Adam stops once the gradient's infinity norm falls below the gradient
// tolerance, or after `ADAM_PATIENCE` evaluations none of which lowered
// the best value by more than the value tolerance.
const ADAM_GRADIENT_TOLERANCE: f64 = 1e-7;
const ADAM_VALUE_TOLERANCE: f64 = 1e-9;
const ADAM_PATIENCE: usize = 150;

/// Minimizes `objective` from `theta` with Adam and returns the best point
/// it evaluated. The paper solves this inner problem as a geometric program
/// with an interior-point solver; Adam on the softmax parameters reaches
/// the same optima on the evaluation's problem sizes.
fn adam(objective: &SplittingObjective, mut theta: Vec<f64>, max_iters: usize) -> Vec<f64> {
    let n = objective.dim;
    debug_assert_eq!(theta.len(), n);
    let mut m = vec![0.0; n];
    let mut v = vec![0.0; n];
    let mut grad = vec![0.0; n];
    let mut best = theta.clone();
    let mut best_val = f64::INFINITY;
    let mut since_improvement = 0usize;
    let mut iterations = 0usize;

    for t in 1..=max_iters {
        iterations = t;
        grad.iter_mut().for_each(|g| *g = 0.0);
        let val = objective.eval(&theta, &mut grad);
        if val < best_val - ADAM_VALUE_TOLERANCE {
            best_val = val;
            best.copy_from_slice(&theta);
            since_improvement = 0;
        } else {
            if val < best_val {
                best_val = val;
                best.copy_from_slice(&theta);
            }
            since_improvement += 1;
        }

        let gnorm = grad.iter().fold(0.0_f64, |a, &g| a.max(g.abs()));
        if gnorm < ADAM_GRADIENT_TOLERANCE || since_improvement >= ADAM_PATIENCE {
            break;
        }

        let b1t = 1.0 - ADAM_BETA1.powi(t as i32);
        let b2t = 1.0 - ADAM_BETA2.powi(t as i32);
        for i in 0..n {
            m[i] = ADAM_BETA1 * m[i] + (1.0 - ADAM_BETA1) * grad[i];
            v[i] = ADAM_BETA2 * v[i] + (1.0 - ADAM_BETA2) * grad[i] * grad[i];
            let mh = m[i] / b1t;
            let vh = v[i] / b2t;
            theta[i] -= ADAM_LEARNING_RATE * mh / (vh.sqrt() + ADAM_EPSILON);
        }
    }

    coyote_obs::counter("gp.adam.runs", 1);
    coyote_obs::counter("gp.adam.iterations", iterations as u64);
    best
}

// Constraint generation stops once the exact adversary cannot raise the
// working-set ratio by more than this factor; its certifying flow stays
// within the augmented DAGs.
const CG_TOLERANCE: f64 = 1.02;
const CG_SCOPE: RoutabilityScope = RoutabilityScope::WithinDags;

/// Optimizes the splitting ratios within the given DAGs for the uncertainty
/// set, starting from the working set `initial_working_set` of demand
/// matrices with their precomputed optima ([`Pipeline::optimize`] passes
/// its evaluation family). `base` is the base demand matrix the margins
/// were derived from; pass `None` in the fully oblivious setting.
pub fn optimize_splitting_with_working_set(
    graph: &Graph,
    dags: Vec<Dag>,
    uncertainty: &UncertaintySet,
    base: Option<&DemandMatrix>,
    config: &CoyoteConfig,
    initial_working_set: EvaluationSet,
) -> Result<CoyoteResult, CoreError> {
    let _span = coyote_obs::span("core.optimize_splitting");
    if dags.len() != graph.node_count() {
        return Err(CoreError::DimensionMismatch(format!(
            "{} DAGs for {} nodes",
            dags.len(),
            graph.node_count()
        )));
    }

    // Working set of demand matrices with their LP optima.
    let mut working = initial_working_set;

    let mut objective = SplittingObjective::new(graph, &dags);
    let mut theta = vec![0.0; objective.dim];
    let mut rounds = 0usize;

    for round in 0..config.cg_rounds.max(1) {
        rounds = round + 1;
        // ---- Inner optimization over the current working set. ----
        if objective.dim > 0 {
            objective.load_lanes(working.entries());
            theta = adam(&objective, theta, config.adam_iterations);
        }

        // Current routing and its ratio over the working set.
        let routing = objective.routing(&theta);
        let current = working.performance_ratio(graph, &routing);

        if round + 1 == config.cg_rounds.max(1) {
            break;
        }

        // ---- Constraint generation: ask the exact adversary. ----
        let reference = uncertainty
            .upper_envelope()
            .or_else(|| base.cloned())
            .unwrap_or_else(|| {
                working
                    .entries()
                    .next()
                    .map(|(dm, _)| dm.clone())
                    .unwrap_or_else(|| DemandMatrix::zeros(graph.node_count()))
            });
        // An empty candidate list would find no edge to scan.
        let candidates = bottleneck_candidates(
            graph,
            &routing,
            &reference,
            config.cg_candidate_edges.max(1),
        );
        let wc =
            performance_ratio_exact(graph, &routing, uncertainty, CG_SCOPE, Some(&candidates))?;
        if wc.ratio <= current * CG_TOLERANCE {
            break;
        }
        working.try_add(graph, &dags, wc.demand)?;
    }

    let routing = objective.routing(&theta);
    let ratio = working.performance_ratio(graph, &routing);
    coyote_obs::counter("core.cg.optimizations", 1);
    coyote_obs::counter("core.cg.rounds", rounds as u64);
    coyote_obs::observe("core.cg.rounds_per_optimization", rounds as u64);
    Ok(CoyoteResult {
        routing,
        working_set_ratio: ratio,
        working_set_size: working.len(),
        rounds,
    })
}

/// COYOTE's pipeline (Fig. 5) on one weighted graph: the augmented DAGs of
/// §V-B and the evaluation family, built once, and the §V-C splitting
/// optimization over them for any uncertainty set ([`Pipeline::optimize`]).
/// Each call starts from clones of both, so calls share no state: a routing
/// is the same whatever was optimized before it.
pub struct Pipeline {
    graph: Graph,
    base: Option<DemandMatrix>,
    dags: Vec<Dag>,
    evaluation: EvaluationSet,
    config: CoyoteConfig,
}

impl Pipeline {
    /// Builds the augmented DAGs of `graph` and the evaluation family of
    /// `uncertainty`, sized by `config.evaluation`. `base` is the base
    /// demand matrix the margins were derived from (it seeds the family and
    /// every working set); pass `None` in the fully oblivious setting.
    pub fn new(
        graph: Graph,
        uncertainty: &UncertaintySet,
        base: Option<&DemandMatrix>,
        config: CoyoteConfig,
    ) -> Result<Self, CoreError> {
        let dags = build_all_dags(&graph, DagMode::Augmented)?;
        let evaluation =
            EvaluationSet::build(&graph, &dags, uncertainty, base, &config.evaluation)?;
        Ok(Self {
            graph,
            base: base.cloned(),
            dags,
            evaluation,
            config,
        })
    }

    /// The weighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The augmented DAGs, one per destination: the family's scope.
    pub fn dags(&self) -> &[Dag] {
        &self.dags
    }

    /// The evaluation family: the demand matrices and their optima.
    pub fn evaluation(&self) -> &EvaluationSet {
        &self.evaluation
    }

    /// COYOTE's splitting optimized for `set`: the evaluation family seeds
    /// the working set, and the constraint-generation adversary ranges
    /// over `set`.
    pub fn optimize(&self, set: &UncertaintySet) -> Result<CoyoteResult, CoreError> {
        optimize_splitting_with_working_set(
            &self.graph,
            self.dags.clone(),
            set,
            self.base.as_ref(),
            &self.config,
            self.evaluation.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecmp::ecmp_routing;
    use crate::example_fig1::{self, Fig1};
    use crate::worst_case::performance_ratio_exact;
    use coyote_graph::{EdgeId, NodeId};
    use proptest::prelude::*;

    /// A fresh pipeline on `g`, optimized for the set it was built from.
    fn optimized(
        g: &Graph,
        unc: &UncertaintySet,
        base: Option<&DemandMatrix>,
        cfg: CoyoteConfig,
    ) -> CoyoteResult {
        let pipeline = Pipeline::new(g.clone(), unc, base, cfg).unwrap();
        pipeline.optimize(unc).unwrap()
    }

    /// The scalar kernel the lane-batched one replaced, one (matrix,
    /// destination) pair at a time through the public `Dag` accessors —
    /// what `PdRouting::edge_loads` does forwards, plus the adjoint. Kept as
    /// the reference the differential test compares against, bit for bit.
    mod reference {
        use super::*;

        /// `index[t][e]`: position of `φ_t(e)`'s parameter in θ (nodes
        /// with at least two out-edges only), numbered destination-major,
        /// node-ascending, in `Dag::out_edges` order.
        pub fn param_index(graph: &Graph, dags: &[Dag]) -> Vec<Vec<Option<usize>>> {
            let mut len = 0;
            dags.iter()
                .map(|dag| {
                    let mut row = vec![None; graph.edge_count()];
                    for v in graph.nodes().filter(|&v| dag.out_edges(v).len() >= 2) {
                        for &e in dag.out_edges(v) {
                            row[e.index()] = Some(len);
                            len += 1;
                        }
                    }
                    row
                })
                .collect()
        }

        /// Splitting ratios of every destination from the flat parameters.
        pub fn ratios(graph: &Graph, dags: &[Dag], theta: &[f64]) -> Vec<Vec<f64>> {
            let index = param_index(graph, dags);
            let mut probs = Vec::new();
            dags.iter()
                .zip(&index)
                .map(|(dag, index)| {
                    let mut phi = vec![0.0; graph.edge_count()];
                    for v in graph.nodes() {
                        match dag.out_edges(v) {
                            [] => {}
                            [only] => phi[only.index()] = 1.0,
                            out => {
                                let logits: Vec<f64> = out
                                    .iter()
                                    .map(|&e| theta[index[e.index()].unwrap()])
                                    .collect();
                                softmax_into(&logits, &mut probs);
                                for (&e, &p) in out.iter().zip(&probs) {
                                    phi[e.index()] = p;
                                }
                            }
                        }
                    }
                    phi
                })
                .collect()
        }

        fn destination_flow(graph: &Graph, dag: &Dag, phi: &[f64], dm: &DemandMatrix) -> Vec<f64> {
            let t = dag.destination();
            let mut flow = vec![0.0; graph.node_count()];
            for s in graph.nodes().filter(|&s| s != t) {
                flow[s.index()] = dm.get(s, t);
            }
            for v in dag.topo_to_destination() {
                let mut acc = 0.0;
                for &e in dag.in_edges(v) {
                    acc += flow[graph.edge(e).src.index()] * phi[e.index()];
                }
                flow[v.index()] += acc;
            }
            flow
        }

        pub fn eval(
            graph: &Graph,
            dags: &[Dag],
            working_set: &[(DemandMatrix, f64)],
            theta: &[f64],
            grad: &mut [f64],
        ) -> f64 {
            let ne = graph.edge_count();
            let index = param_index(graph, dags);
            let phi = ratios(graph, dags, theta);

            let mut flows = Vec::new();
            let mut values = Vec::new();
            for (dm, r) in working_set {
                let mut per_dest = vec![Vec::new(); dags.len()];
                let mut loads = vec![0.0; ne];
                for t in dm.active_destinations() {
                    let (dag, phi) = (&dags[t.index()], &phi[t.index()]);
                    let flow = destination_flow(graph, dag, phi, dm);
                    for e in dag.edges() {
                        loads[e.index()] += flow[graph.edge(e).src.index()] * phi[e.index()];
                    }
                    per_dest[t.index()] = flow;
                }
                flows.push(per_dest);
                for e in graph.edges() {
                    values.push(loads[e.index()] / (graph.capacity(e) * r));
                }
            }

            let max_val = values.iter().copied().fold(0.0_f64, f64::max);
            let tau = (SMOOTHING * max_val).max(MIN_TEMPERATURE);
            let mut weights = Vec::new();
            let objective = smooth_max_and_weights_into(&values, tau, &mut weights);

            let mut dphi = vec![vec![0.0; ne]; dags.len()];
            for (k, ((dm, r), per_dest)) in working_set.iter().zip(&flows).enumerate() {
                let w_of = |e: EdgeId| weights[k * ne + e.index()] / (graph.capacity(e) * r);
                for t in dm.active_destinations() {
                    let (dag, phi) = (&dags[t.index()], &phi[t.index()]);
                    let flow = &per_dest[t.index()];
                    let mut lambda = vec![0.0; graph.node_count()];
                    for &v in dag.topo_from_destination() {
                        if v == dag.destination() {
                            continue;
                        }
                        let mut acc = 0.0;
                        for &e in dag.out_edges(v) {
                            let x = graph.edge(e).dst;
                            acc += phi[e.index()] * (w_of(e) + lambda[x.index()]);
                        }
                        lambda[v.index()] = acc;
                    }
                    for e in dag.edges() {
                        let (u, x) = graph.endpoints(e);
                        dphi[t.index()][e.index()] +=
                            flow[u.index()] * (w_of(e) + lambda[x.index()]);
                    }
                }
            }

            for (t, dag) in dags.iter().enumerate() {
                for v in graph.nodes() {
                    let out = dag.out_edges(v);
                    if out.len() < 2 {
                        continue;
                    }
                    let dot: f64 = out
                        .iter()
                        .map(|&e| dphi[t][e.index()] * phi[t][e.index()])
                        .sum();
                    for &e in out {
                        grad[index[t][e.index()].unwrap()] +=
                            phi[t][e.index()] * (dphi[t][e.index()] - dot);
                    }
                }
            }
            objective
        }
    }

    /// Value and gradient bits of one evaluation.
    fn bits(value: f64, grad: &[f64]) -> (u64, Vec<u64>) {
        (value.to_bits(), grad.iter().map(|g| g.to_bits()).collect())
    }

    /// Three parameter vectors: the starting point, a ramp, and something
    /// irregular with entries of both signs.
    fn thetas(dim: usize) -> [Vec<f64>; 3] {
        [
            vec![0.0; dim],
            (0..dim).map(|i| 0.1 * (i as f64) - 0.3).collect(),
            (0..dim).map(|i| 2.5 * (1.7 * i as f64).sin()).collect(),
        ]
    }

    /// A working set with the shapes the lanes must get right: a
    /// destination (`n − 1`) without demand in every matrix, a spike with a
    /// single active destination (node 0), and a last matrix meant to be
    /// appended after the first evaluation, as constraint generation does.
    /// The normalizers are arbitrary positive numbers, not LP optima: the
    /// kernel only ever divides by them.
    fn lane_shapes(base: &DemandMatrix) -> Vec<(DemandMatrix, f64)> {
        let n = base.node_count();
        let dead = NodeId(n - 1);
        let column = |keep: &dyn Fn(NodeId, NodeId) -> f64| {
            let mut dm = DemandMatrix::zeros(n);
            for (s, t, d) in base.pairs().filter(|&(_, t, _)| t != dead) {
                dm.set(s, t, d * keep(s, t));
            }
            dm
        };
        vec![
            (column(&|_, _| 1.0), 0.8),
            (
                column(&|s, t| 0.5 + ((s.index() + 2 * t.index()) % 5) as f64),
                1.3,
            ),
            (column(&|_, t| if t == NodeId(0) { 2.0 } else { 0.0 }), 0.4),
            (column(&|s, _| 1.0 + (s.index() % 3) as f64), 2.1),
        ]
    }

    #[test]
    fn lane_kernel_matches_the_scalar_reference_bit_for_bit() {
        let (fig1, _) = example_fig1::topology();
        let zoo = |t: coyote_topology::Topology| t.to_graph().unwrap();
        for graph in [
            fig1,
            zoo(coyote_topology::zoo::abilene()),
            zoo(coyote_topology::zoo::geant()),
        ] {
            let dags = build_all_dags(&graph, DagMode::Augmented).unwrap();
            let base = coyote_traffic::GravityModel::with_total(100.0).generate(&graph);
            let working_set = lane_shapes(&base);
            let dead = graph.node_count() - 1;
            assert!(working_set
                .iter()
                .all(|(dm, _)| dm.total_to(NodeId(dead)) == 0.0));
            assert_eq!(working_set[2].0.active_destinations(), vec![NodeId(0)]);

            let mut objective = SplittingObjective::new(&graph, &dags);
            let dim = objective.dim;
            assert!(dim > 0);
            // The last matrix joins after the first evaluations, the way a
            // constraint-generation round adds the adversary's witness.
            for lanes in [working_set.len() - 1, working_set.len()] {
                let lanes = &working_set[..lanes];
                objective.load_lanes(lanes.iter().map(|(dm, r)| (dm, *r)));
                for theta in thetas(dim) {
                    let (mut grad, mut expected_grad) = (vec![0.0; dim], vec![0.0; dim]);
                    let value = objective.eval(&theta, &mut grad);
                    let expected =
                        reference::eval(&graph, &dags, lanes, &theta, &mut expected_grad);
                    assert!(value.is_finite() && value > 0.0);
                    assert_eq!(bits(value, &grad), bits(expected, &expected_grad));
                }
            }
        }
    }

    #[test]
    fn evaluations_after_the_first_do_not_reallocate() {
        let graph = coyote_topology::zoo::abilene().to_graph().unwrap();
        let dags = build_all_dags(&graph, DagMode::Augmented).unwrap();
        let base = coyote_traffic::GravityModel::with_total(100.0).generate(&graph);
        let working_set = lane_shapes(&base);
        let mut objective = SplittingObjective::new(&graph, &dags);
        objective.load_lanes(working_set.iter().map(|(dm, r)| (dm, *r)));
        let dim = objective.dim;
        let footprint = |objective: &SplittingObjective| {
            let s = objective.scratch.borrow();
            [
                &s.phi, &s.logits, &s.probs, &s.flow, &s.acc, &s.load, &s.values, &s.weights, &s.w,
                &s.lambda, &s.dphi,
            ]
            .map(|buffer| (buffer.as_ptr(), buffer.capacity()))
        };
        let mut grad = vec![0.0; dim];
        objective.eval(&thetas(dim)[1], &mut grad);
        let after_first = footprint(&objective);
        for round in 0..10 {
            let theta: Vec<f64> = (0..dim).map(|i| ((i + round) as f64).cos()).collect();
            objective.eval(&theta, &mut grad);
            assert_eq!(footprint(&objective), after_first);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 1.5);
        dm.set(s2, t, 0.5);
        let mut objective = SplittingObjective::new(&g, &dags);
        objective.load_lanes([(&dm, 1.0)].into_iter());
        let dim = objective.dim;
        let theta: Vec<f64> = (0..dim).map(|i| 0.1 * (i as f64) - 0.3).collect();
        let mut grad = vec![0.0; dim];
        let f0 = objective.eval(&theta, &mut grad);
        assert!(f0.is_finite());
        let h = 1e-5;
        for i in 0..dim {
            let mut tp = theta.clone();
            tp[i] += h;
            let mut tm = theta.clone();
            tm[i] -= h;
            let mut scratch = vec![0.0; dim];
            let fp = objective.eval(&tp, &mut scratch);
            let mut scratch = vec![0.0; dim];
            let fm = objective.eval(&tm, &mut scratch);
            let fd = (fp - fm) / (2.0 * h);
            assert!(
                (grad[i] - fd).abs() < 1e-4,
                "param {i}: analytic {} vs fd {fd}",
                grad[i]
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every list of a `DagPlan` says what the `Dag` says, in an order
        /// the sweeps may rely on, and the plan's softmax pass produces the
        /// routing the per-node reference produces.
        #[test]
        fn plans_mirror_their_dags_on_random_graphs(
            n in 4usize..10,
            extra_links in 0usize..6,
            seed in 0u64..1_000_000,
            theta in proptest::collection::vec(-3.0f64..3.0, 1..40),
        ) {
            // A ring plus chords, three capacity classes, inverse-capacity
            // weights.
            let g = coyote_topology::BackboneSpec::mesh("random", n, extra_links, seed)
                .generate()
                .to_graph()
                .unwrap();
            let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
            let objective = SplittingObjective::new(&g, &dags);
            let sorted = |mut edges: Vec<usize>| { edges.sort_unstable(); edges };
            let mut dim = 0;
            for (plan, dag) in objective.plans.iter().zip(&dags) {
                let t = dag.destination();
                prop_assert_eq!(plan.destination, t.index());
                let dag_edges: Vec<usize> = dag.edges().iter().map(|e| e.index()).collect();

                // `edges`: the DAG's edges, ascending, with their endpoints.
                let listed: Vec<usize> = plan.edges.iter().map(|&(e, ..)| e).collect();
                prop_assert_eq!(&listed, &dag_edges);
                for &(e, u, x) in &plan.edges {
                    prop_assert_eq!((NodeId(u), NodeId(x)), g.endpoints(EdgeId(e)));
                }

                // `forward`: every edge not into the destination, once,
                // under its head, after all of that head's sources.
                let mut seen = vec![false; n];
                let mut forward_edges = Vec::new();
                for (v, in_edges) in plan.forward.iter() {
                    prop_assert!(v != t.index() && !in_edges.is_empty());
                    for &(e, u) in in_edges {
                        prop_assert_eq!((NodeId(u), NodeId(v)), g.endpoints(EdgeId(e)));
                        // A source is final: visited already, or a pure source.
                        prop_assert!(seen[u] || dag.in_edges(NodeId(u)).is_empty());
                        forward_edges.push(e);
                    }
                    seen[v] = true;
                }
                let not_into_t: Vec<usize> = dag_edges
                    .iter()
                    .copied()
                    .filter(|&e| g.edge(EdgeId(e)).dst != t)
                    .collect();
                prop_assert_eq!(sorted(forward_edges), not_into_t);

                // `backward`: a permutation of the DAG's edges, each under
                // its tail, after its head.
                let mut seen = vec![false; n];
                seen[t.index()] = true;
                let mut backward_edges = Vec::new();
                for (v, out_edges) in plan.backward.iter() {
                    for &(e, x) in out_edges {
                        prop_assert_eq!((NodeId(v), NodeId(x)), g.endpoints(EdgeId(e)));
                        prop_assert!(seen[x]);
                        backward_edges.push(e);
                    }
                    seen[v] = true;
                }
                prop_assert_eq!(sorted(backward_edges), dag_edges);

                // `groups`: exactly the nodes that split, θ numbered densely.
                let splitting: Vec<usize> = g
                    .nodes()
                    .filter(|&v| dag.out_edges(v).len() >= 2)
                    .map(|v| v.index())
                    .collect();
                let grouped: Vec<usize> = plan.groups.iter().map(|(v, _)| v).collect();
                prop_assert_eq!(grouped, splitting);
                for (v, group) in plan.groups.iter() {
                    let out: Vec<usize> =
                        dag.out_edges(NodeId(v)).iter().map(|e| e.index()).collect();
                    let listed: Vec<usize> = group.iter().map(|&(e, _)| e).collect();
                    prop_assert_eq!(listed, out);
                    for &(_, i) in group {
                        prop_assert_eq!(i, dim);
                        dim += 1;
                    }
                }
            }
            prop_assert_eq!(dim, objective.dim);

            let theta: Vec<f64> = theta.iter().copied().cycle().take(dim).collect();
            let routing = objective.routing(&theta);
            routing.validate(&g).unwrap();
            let expected =
                PdRouting::from_ratios(&g, dags.clone(), reference::ratios(&g, &dags, &theta));
            for t in g.nodes() {
                let bits = |r: &PdRouting| -> Vec<u64> {
                    r.ratios(t).iter().map(|p| p.to_bits()).collect()
                };
                prop_assert_eq!(bits(&routing), bits(&expected));
            }
        }
    }

    #[test]
    fn coyote_beats_ecmp_on_the_running_example() {
        // The paper: traditional ECMP cannot do better than 3/2 on Fig. 1,
        // while COYOTE achieves 4/3 (and its optimization even reaches the
        // golden-ratio optimum ≈ 1.236 within the Fig. 1c DAG).
        let (g, nodes) = example_fig1::topology();
        let unc = example_fig1::uncertainty(&nodes);
        let result = optimized(&g, &unc, None, CoyoteConfig::fast());
        result.routing.validate(&g).unwrap();
        assert!(result.rounds >= 1);
        assert!(result.working_set_size >= 1);
        assert!(result.working_set_ratio.is_finite());

        let coyote_exact =
            performance_ratio_exact(&g, &result.routing, &unc, RoutabilityScope::AllEdges, None)
                .unwrap();
        let ecmp = ecmp_routing(&g).unwrap();
        let ecmp_exact =
            performance_ratio_exact(&g, &ecmp, &unc, RoutabilityScope::AllEdges, None).unwrap();

        assert!(
            coyote_exact.ratio < ecmp_exact.ratio - 0.2,
            "COYOTE {} should clearly beat ECMP {}",
            coyote_exact.ratio,
            ecmp_exact.ratio
        );
        // The golden-ratio optimum for this instance is √5 − 1 ≈ 1.236; allow
        // some slack for the first-order solver.
        assert!(
            coyote_exact.ratio < 1.40,
            "COYOTE ratio {} too far from the analytic optimum 1.236",
            coyote_exact.ratio
        );
    }

    #[test]
    fn optimizer_improves_over_uniform_starting_point() {
        let (g, nodes) = example_fig1::topology();
        let unc = example_fig1::uncertainty(&nodes);
        let reference = Pipeline::new(g.clone(), &unc, None, CoyoteConfig::default()).unwrap();
        let uniform = PdRouting::uniform(&g, reference.dags().to_vec());
        let uniform_ratio = reference.evaluation().performance_ratio(&g, &uniform);
        let result = optimized(&g, &unc, None, CoyoteConfig::fast());
        assert!(
            result.working_set_ratio <= uniform_ratio + 1e-6,
            "optimized {} vs uniform {}",
            result.working_set_ratio,
            uniform_ratio
        );
    }

    #[test]
    fn partial_knowledge_beats_full_obliviousness_on_its_own_box() {
        // Optimizing for the (tight) box around the base matrix should do at
        // least as well on that box as optimizing for "anything goes".
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let base = DemandMatrix::from_pairs(4, &[(s1, t, 1.0), (s2, t, 1.0)]);
        let margin_box = UncertaintySet::from_margin(&base, 1.5);
        let oblivious = UncertaintySet::oblivious(4);

        let cfg = CoyoteConfig::fast();
        let partial = optimized(&g, &margin_box, Some(&base), cfg.clone());
        let obl = optimized(&g, &oblivious, Some(&base), cfg);

        let reference =
            Pipeline::new(g.clone(), &margin_box, Some(&base), CoyoteConfig::default()).unwrap();
        let eval = reference.evaluation();
        let partial_ratio = eval.performance_ratio(&g, &partial.routing);
        let obl_ratio = eval.performance_ratio(&g, &obl.routing);
        assert!(
            partial_ratio <= obl_ratio + 0.1,
            "partial {partial_ratio} should not lose to oblivious {obl_ratio} on the box"
        );
    }

    /// Zero candidate edges probe one, as `cg_rounds = 0` runs one round.
    #[test]
    fn zero_candidate_edges_probe_one() {
        let (g, nodes) = example_fig1::topology();
        let unc = example_fig1::uncertainty(&nodes);
        let run = |cg_candidate_edges| {
            let cfg = CoyoteConfig {
                cg_candidate_edges,
                ..CoyoteConfig::fast()
            };
            optimized(&g, &unc, None, cfg)
        };
        let (zero, one) = (run(0), run(1));
        assert_eq!(zero.rounds, one.rounds);
        for t in g.nodes() {
            let bits = |r: &CoyoteResult| -> Vec<u64> {
                r.routing.ratios(t).iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&zero), bits(&one), "destination {t}");
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (g, _) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let unc = UncertaintySet::oblivious(4);
        let err = optimize_splitting_with_working_set(
            &g,
            dags[..2].to_vec(),
            &unc,
            None,
            &CoyoteConfig::fast(),
            EvaluationSet::empty(),
        );
        assert!(matches!(err, Err(CoreError::DimensionMismatch(_))));
    }

    /// Table I and Fig. 11 optimize two sets on one pipeline: the first
    /// call leaves nothing behind that the second reads, and neither
    /// touches the evaluation family.
    #[test]
    fn a_pipelines_optimizations_share_no_state() {
        let (g, nodes) = example_fig1::topology();
        let unc = example_fig1::uncertainty(&nodes);
        let shared = Pipeline::new(g.clone(), &unc, None, CoyoteConfig::fast()).unwrap();
        let pairs = || g.nodes().flat_map(|s| g.nodes().map(move |t| (s, t)));
        let family_bits = |p: &Pipeline| -> Vec<u64> {
            let entries = p.evaluation().entries();
            entries
                .flat_map(|(dm, optu)| pairs().map(|(s, t)| dm.get(s, t)).chain([optu]))
                .map(f64::to_bits)
                .collect()
        };
        let family = family_bits(&shared);
        shared.optimize(&UncertaintySet::oblivious(4)).unwrap();
        let second = shared.optimize(&unc).unwrap();
        let alone = optimized(&g, &unc, None, CoyoteConfig::fast());
        for t in g.nodes() {
            let bits = |r: &CoyoteResult| -> Vec<u64> {
                r.routing.ratios(t).iter().map(|x| x.to_bits()).collect()
            };
            assert_eq!(bits(&second), bits(&alone), "destination {t}");
        }
        assert_eq!(family_bits(&shared), family);
    }

    #[test]
    fn adam_returns_a_point_no_worse_than_its_start() {
        let (g, Fig1 { s1, s2, t, .. }) = example_fig1::topology();
        let dags = build_all_dags(&g, DagMode::Augmented).unwrap();
        let mut dm = DemandMatrix::zeros(4);
        dm.set(s1, t, 2.0);
        dm.set(s2, t, 2.0);
        let mut objective = SplittingObjective::new(&g, &dags);
        objective.load_lanes([(&dm, 1.0)].into_iter());
        let value = |theta: &[f64]| objective.eval(theta, &mut vec![0.0; objective.dim]);
        let start = vec![0.0; objective.dim];
        assert_eq!(adam(&objective, start.clone(), 0), start);
        let theta = adam(&objective, start.clone(), 400);
        assert!(value(&theta) < value(&start) - 1e-3);
    }

    /// The allocating log-space functions the fused kernels replaced: the
    /// reference they are held to, bit for bit.
    mod logspace {
        pub fn log_sum_exp(xs: &[f64]) -> f64 {
            if xs.is_empty() {
                return f64::NEG_INFINITY;
            }
            let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if m == f64::NEG_INFINITY {
                return f64::NEG_INFINITY;
            }
            let sum: f64 = xs.iter().map(|&x| (x - m).exp()).sum();
            m + sum.ln()
        }

        pub fn softmax(xs: &[f64]) -> Vec<f64> {
            if xs.is_empty() {
                return Vec::new();
            }
            let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = xs.iter().map(|&x| (x - m).exp()).collect();
            let sum: f64 = exps.iter().sum();
            exps.into_iter().map(|e| e / sum).collect()
        }

        pub fn smooth_max(xs: &[f64], tau: f64) -> f64 {
            let scaled: Vec<f64> = xs.iter().map(|&x| x / tau).collect();
            tau * log_sum_exp(&scaled)
        }

        pub fn smooth_max_weights(xs: &[f64], tau: f64) -> Vec<f64> {
            let scaled: Vec<f64> = xs.iter().map(|&x| x / tau).collect();
            softmax(&scaled)
        }
    }

    fn to_bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fused_smooth_max_is_bit_identical_to_the_allocating_reference() {
        let xs = [0.31, 0.94, 0.72, 0.11, 0.94];
        let mut weights = vec![999.0; 2]; // stale contents must be cleared
        for &tau in &[1.0, 0.05, 1e-4] {
            let fused = smooth_max_and_weights_into(&xs, tau, &mut weights);
            assert_eq!(fused.to_bits(), logspace::smooth_max(&xs, tau).to_bits());
            assert_eq!(
                to_bits(&weights),
                to_bits(&logspace::smooth_max_weights(&xs, tau))
            );
        }
        assert_eq!(
            smooth_max_and_weights_into(&[], 1.0, &mut weights),
            f64::NEG_INFINITY
        );
        assert!(weights.is_empty());
    }

    #[test]
    fn softmax_into_is_bit_identical_to_the_allocating_reference() {
        let mut out = vec![999.0; 7]; // stale contents must be cleared
        for xs in [
            &[1.0, 2.0, 3.0][..],
            &[-1e6, 0.0, 1e6],
            &[0.25, -0.5, 0.25, 4.0],
            &[],
        ] {
            softmax_into(xs, &mut out);
            assert_eq!(to_bits(&out), to_bits(&logspace::softmax(xs)));
        }
        softmax_into(&[1.0, 2.0, 3.0], &mut out);
        assert!((out.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(out[2] > out[1] && out[1] > out[0]);
        softmax_into(&[-1e6, 0.0, 1e6], &mut out);
        assert!(out.iter().all(|v| v.is_finite()));
        assert!((out[2] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn smooth_max_is_stable_and_converges_to_the_max_from_above() {
        let mut weights = Vec::new();
        // A naive log-sum-exp would overflow (or underflow) here.
        let large = smooth_max_and_weights_into(&[1000.0, 1000.0], 1.0, &mut weights);
        assert!((large - (1000.0 + 2f64.ln())).abs() < 1e-9);
        let small = smooth_max_and_weights_into(&[-1000.0, -1000.0], 1.0, &mut weights);
        assert!((small - (-1000.0 + 2f64.ln())).abs() < 1e-9);

        let xs = [0.3, 0.9, 0.7];
        for &tau in &[1.0, 0.1, 0.01, 0.001] {
            assert!(smooth_max_and_weights_into(&xs, tau, &mut weights) >= 0.9 - 1e-12);
        }
        assert!((smooth_max_and_weights_into(&xs, 1e-4, &mut weights) - 0.9).abs() < 1e-3);
        smooth_max_and_weights_into(&xs, 0.01, &mut weights);
        assert!((weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(weights[1] > 0.99);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn smooth_max_rejects_non_positive_tau() {
        smooth_max_and_weights_into(&[1.0], 0.0, &mut Vec::new());
    }
}
