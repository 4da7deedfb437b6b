//! The scenario-grid registry and the parallel sweep engine.
//!
//! The paper's evaluation (Section VI, Figs. 6–11 and Table I) is a grid:
//! every Topology-Zoo network × both base demand models × a sweep of
//! uncertainty margins × a link-weight heuristic. [`SweepGrid`] enumerates
//! that grid (with substring filtering and a record limit for bounded
//! runs), and [`run_sweep`] fans the independent scenario evaluations out
//! across a [`WorkerPool`], producing a machine-readable [`SweepReport`]
//! with per-scenario ratios and wall-clock timings.
//!
//! Parallelism never changes results: each scenario evaluation is a pure
//! deterministic function of its [`SweepSpec`], and the pool's ordered
//! `par_map` returns records in grid order, so a `threads = 4` sweep is
//! bit-identical to `threads = 1` (asserted by the
//! `sweep_determinism` integration test).

use crate::pool::WorkerPool;
use crate::scenario::{evaluate_scenario, BaseModel, Effort, ProtocolRatios, WeightHeuristic};
use coyote_core::prelude::CoreError;
use coyote_topology::zoo;
use serde::Serialize;
use std::time::Instant;

/// One cell of the evaluation grid: everything
/// [`evaluate_scenario`] needs, by name.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepSpec {
    /// Topology-Zoo name (see `coyote_topology::zoo::ALL_NAMES`).
    pub topology: String,
    /// Base demand-matrix model.
    pub model: BaseModel,
    /// Uncertainty margin (≥ 1).
    pub margin: f64,
    /// Link-weight heuristic.
    pub heuristic: WeightHeuristic,
    /// Effort level.
    pub effort: Effort,
}

impl SweepSpec {
    /// A stable, human-greppable identifier, e.g.
    /// `Abilene/gravity/reverse-capacities/m2.0`. The `--filter` CLI flag
    /// matches a case-insensitive substring of this string.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/m{:.1}",
            self.topology,
            self.model.name(),
            self.heuristic.name(),
            self.margin
        )
    }
}

/// An ordered collection of [`SweepSpec`]s — the work list of one sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepGrid {
    /// The specs, in evaluation (and report) order.
    pub specs: Vec<SweepSpec>,
}

impl SweepGrid {
    /// Builds a grid as the cross product of the given dimensions, ordered
    /// topology-major (then model, heuristic, margin).
    pub fn cross(
        topologies: &[&str],
        models: &[BaseModel],
        margins: &[f64],
        heuristics: &[WeightHeuristic],
        effort: Effort,
    ) -> Self {
        let mut specs = Vec::new();
        for &topology in topologies {
            for &model in models {
                for &heuristic in heuristics {
                    for &margin in margins {
                        specs.push(SweepSpec {
                            topology: topology.to_string(),
                            model,
                            margin,
                            heuristic,
                            effort,
                        });
                    }
                }
            }
        }
        Self { specs }
    }

    /// The full registry: every Topology-Zoo network × both base models ×
    /// the Table-I margin grid × reverse-capacity weights (the heuristic
    /// the paper uses everywhere outside Fig. 9).
    pub fn full(effort: Effort) -> Self {
        let names: Vec<&str> = zoo::ALL_NAMES.to_vec();
        Self::cross(
            &names,
            &[BaseModel::Gravity, BaseModel::Bimodal],
            crate::experiments::scale(effort).table1_margins,
            &[WeightHeuristic::InverseCapacity],
            effort,
        )
    }

    /// The conformance registry: every Table-I-eligible zoo topology (all
    /// networks except the two near-trees the paper excludes) × both base
    /// demand models, at the representative margin 2.0 with reverse-capacity
    /// weights. One cell per (topology, model): the conformance engine
    /// checks *realizability* of the optimized configuration, which depends
    /// on the DAGs and splits, not on where in the margin grid they came
    /// from — the margin sweep itself is [`SweepGrid::full`]'s job.
    pub fn conformance(effort: Effort) -> Self {
        let names: Vec<&str> = zoo::ALL_NAMES
            .iter()
            .filter(|n| !zoo::NEAR_TREE_NAMES.contains(n))
            .copied()
            .collect();
        Self::cross(
            &names,
            &[BaseModel::Gravity, BaseModel::Bimodal],
            &[2.0],
            &[WeightHeuristic::InverseCapacity],
            effort,
        )
    }

    /// Keeps only specs whose [`SweepSpec::id`] contains `pattern`
    /// (case-insensitive substring match).
    pub fn filter(mut self, pattern: &str) -> Self {
        let needle = pattern.to_ascii_lowercase();
        self.specs
            .retain(|s| s.id().to_ascii_lowercase().contains(&needle));
        self
    }

    /// Truncates the grid to its first `n` specs.
    pub fn limit(mut self, n: usize) -> Self {
        self.specs.truncate(n);
        self
    }

    /// Number of scenarios in the grid.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// The outcome of one scenario evaluation inside a sweep.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepRecord {
    /// The spec that was evaluated.
    pub spec: SweepSpec,
    /// The four-protocol performance ratios.
    pub ratios: ProtocolRatios,
    /// Wall-clock seconds this single evaluation took (on its worker).
    pub wall_secs: f64,
}

/// A machine-readable sweep run: configuration, per-scenario records (in
/// grid order) and the total wall-clock time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SweepReport {
    /// Worker threads the sweep ran with.
    pub threads: usize,
    /// Scenarios evaluated.
    pub scenarios: usize,
    /// End-to-end wall-clock seconds for the whole sweep.
    pub wall_secs: f64,
    /// One record per grid cell, in grid order.
    pub records: Vec<SweepRecord>,
}

impl SweepReport {
    /// Sum of the per-scenario wall-clock times — the work the sweep did,
    /// as opposed to [`wall_secs`](Self::wall_secs), the time it took.
    /// `cpu_secs / wall_secs` approximates the achieved speedup.
    pub fn cpu_secs(&self) -> f64 {
        self.records.iter().map(|r| r.wall_secs).sum()
    }
}

/// Runs every scenario of `grid` on a pool with `threads` workers
/// (`0` = one per available core) and collects the records in grid order.
///
/// Results are bit-identical for every thread count; only the wall-clock
/// fields vary between runs.
pub fn run_sweep(grid: &SweepGrid, threads: usize) -> Result<SweepReport, CoreError> {
    let pool = WorkerPool::new(threads);
    let started = Instant::now();
    let records = pool.try_par_map(&grid.specs, |spec| -> Result<SweepRecord, CoreError> {
        let _cell_span = coyote_obs::span("sweep.cell");
        coyote_obs::counter("sweep.cells", 1);
        let eval_started = Instant::now();
        let ratios = evaluate_scenario(spec)?;
        Ok(SweepRecord {
            spec: spec.clone(),
            ratios,
            wall_secs: eval_started.elapsed().as_secs_f64(),
        })
    })?;
    Ok(SweepReport {
        threads: pool.threads(),
        scenarios: records.len(),
        wall_secs: started.elapsed().as_secs_f64(),
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_covers_every_dimension() {
        let grid = SweepGrid::full(Effort::Quick);
        let margins = crate::experiments::scale(Effort::Quick).table1_margins;
        assert_eq!(grid.len(), zoo::ALL_NAMES.len() * 2 * margins.len());
        // Topology-major order: the first |models × margins| specs all
        // belong to the first zoo name.
        let per_topology = 2 * margins.len();
        assert!(grid.specs[..per_topology]
            .iter()
            .all(|s| s.topology == zoo::ALL_NAMES[0]));
    }

    #[test]
    fn conformance_grid_covers_table1_topologies_times_models() {
        let grid = SweepGrid::conformance(Effort::Quick);
        let eligible = zoo::ALL_NAMES.len() - zoo::NEAR_TREE_NAMES.len();
        assert_eq!(grid.len(), eligible * 2);
        assert!(grid.specs.iter().all(|s| s.margin == 2.0));
        assert!(grid
            .specs
            .iter()
            .all(|s| !zoo::NEAR_TREE_NAMES.contains(&s.topology.as_str())));
        // Both models appear for every topology.
        for name in zoo::ALL_NAMES
            .iter()
            .filter(|n| !zoo::NEAR_TREE_NAMES.contains(n))
        {
            for model in [BaseModel::Gravity, BaseModel::Bimodal] {
                assert!(
                    grid.specs
                        .iter()
                        .any(|s| s.topology == *name && s.model == model),
                    "missing {name} x {}",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn filter_is_case_insensitive_and_matches_ids() {
        let grid = SweepGrid::full(Effort::Quick).filter("abilene/GRAVITY");
        assert!(!grid.is_empty());
        assert!(grid
            .specs
            .iter()
            .all(|s| s.topology == "Abilene" && s.model == BaseModel::Gravity));

        assert!(SweepGrid::full(Effort::Quick)
            .filter("no-such-net")
            .is_empty());
    }

    #[test]
    fn limit_truncates_in_grid_order() {
        let full = SweepGrid::full(Effort::Quick);
        let limited = full.clone().limit(3);
        assert_eq!(limited.specs[..], full.specs[..3]);
        assert_eq!(full.clone().limit(usize::MAX).len(), full.len());
    }

    #[test]
    fn spec_ids_are_stable_and_greppable() {
        let spec = SweepSpec {
            topology: "Abilene".into(),
            model: BaseModel::Gravity,
            margin: 2.0,
            heuristic: WeightHeuristic::InverseCapacity,
            effort: Effort::Quick,
        };
        assert_eq!(spec.id(), "Abilene/gravity/reverse-capacities/m2.0");
    }

    #[test]
    fn unknown_topology_fails_the_sweep_with_a_clear_error() {
        let grid = SweepGrid {
            specs: vec![SweepSpec {
                topology: "NoSuchNet".into(),
                model: BaseModel::Gravity,
                margin: 1.0,
                heuristic: WeightHeuristic::InverseCapacity,
                effort: Effort::Quick,
            }],
        };
        let err = run_sweep(&grid, 2).unwrap_err();
        assert!(err.to_string().contains("NoSuchNet"), "{err}");
    }
}
