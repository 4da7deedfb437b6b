//! Wire types of the daemon's JSON responses.

use crate::engine::TeEngine;
use coyote_obs::Histogram;
use serde::Serialize;

/// One link's utilization in a [`StateResponse`].
#[derive(Debug, Clone, Serialize)]
pub struct LinkUtilization {
    /// Source router name.
    pub src: String,
    /// Destination router name.
    pub dst: String,
    /// Load divided by capacity.
    pub utilization: f64,
}

/// Latency summary of a log2-bucketed histogram, microseconds.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct LatencyStats {
    /// Number of samples (exact).
    pub count: usize,
    /// Median, rounded up to its bucket's upper bound (`2^i − 1`, so at most
    /// 2× high) and capped at `max_micros`.
    pub p50_micros: u64,
    /// 99th percentile, same rounding as the median.
    pub p99_micros: u64,
    /// Maximum (exact).
    pub max_micros: u64,
}

impl LatencyStats {
    /// Summarizes `hist` (nearest-rank percentiles over its buckets).
    pub fn of(hist: &Histogram) -> LatencyStats {
        let quantile = |p: f64| -> u64 {
            let rank = ((p * hist.count() as f64).ceil() as u64).max(1);
            let mut seen = 0;
            for (i, &c) in hist.buckets().iter().enumerate() {
                seen += c;
                if seen >= rank {
                    let next = coyote_obs::bucket_lower_bound(i).saturating_mul(2);
                    return next.saturating_sub(1).min(hist.max());
                }
            }
            hist.max()
        };
        LatencyStats {
            count: hist.count() as usize,
            p50_micros: quantile(0.50),
            p99_micros: quantile(0.99),
            max_micros: hist.max(),
        }
    }
}

/// `GET /state`: the daemon's full telemetry snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct StateResponse {
    /// Topology name.
    pub topology: String,
    /// Engine epoch (applied updates).
    pub epoch: u64,
    /// Routers in the topology.
    pub nodes: usize,
    /// Directed edges currently alive.
    pub edges_alive: usize,
    /// Directed edges in the pristine topology.
    pub edges_total: usize,
    /// Currently failed links as `[low, high]` node-index pairs.
    pub failed_links: Vec<[usize; 2]>,
    /// Currently failed nodes.
    pub failed_nodes: Vec<usize>,
    /// Fake nodes currently advertised.
    pub fake_nodes: usize,
    /// Prefix advertisements currently flooded.
    pub prefix_advertisements: usize,
    /// Max link utilization of the current routing on the current demands.
    pub max_utilization: f64,
    /// Total demand volume.
    pub demand_total: f64,
    /// Demand volume masked as unroutable by failures.
    pub unroutable_volume: f64,
    /// Per-link utilizations.
    pub links: Vec<LinkUtilization>,
    /// Re-optimization latency of demand updates.
    pub demand_reopt: LatencyStats,
    /// Re-optimization latency of link/node events.
    pub event_reopt: LatencyStats,
    /// Batch-pipeline comparator, microseconds (the full-grid recompile the
    /// CLI would run for the same scenario), when measured at startup.
    pub batch_recompile_micros: Option<u64>,
}

impl StateResponse {
    /// Snapshots `engine` into a response.
    pub fn of(engine: &TeEngine, batch_recompile_micros: Option<u64>) -> StateResponse {
        let (demand, event) = engine.reopt_histograms();
        StateResponse {
            topology: engine.topology_name().to_string(),
            epoch: engine.epoch(),
            nodes: engine.pristine_graph().node_count(),
            edges_alive: engine.current_graph().edge_count(),
            edges_total: engine.pristine_graph().edge_count(),
            failed_links: engine.failed_links().map(|(a, b)| [a, b]).collect(),
            failed_nodes: engine.failed_nodes().collect(),
            fake_nodes: engine.lsdb().fake_count(),
            prefix_advertisements: engine.lsdb().prefix_advertisement_count(),
            max_utilization: engine.max_utilization(),
            demand_total: engine.demands().total(),
            unroutable_volume: engine.unroutable_volume(),
            links: engine
                .link_utilizations()
                .into_iter()
                .map(|(src, dst, utilization)| LinkUtilization {
                    src,
                    dst,
                    utilization,
                })
                .collect(),
            demand_reopt: LatencyStats::of(demand),
            event_reopt: LatencyStats::of(event),
            batch_recompile_micros,
        }
    }
}

/// `GET /program`: summary of the compiled Fibbing program.
#[derive(Debug, Clone, Serialize)]
pub struct ProgramResponse {
    /// Fake nodes currently advertised.
    pub fake_nodes: usize,
    /// Prefix advertisements currently flooded.
    pub prefix_advertisements: usize,
    /// Per-destination fake-node counts, indexed by destination.
    pub fakes_per_destination: Vec<usize>,
}

impl ProgramResponse {
    /// Snapshots `engine`'s program into a response.
    pub fn of(engine: &TeEngine) -> ProgramResponse {
        let lsdb = engine.lsdb();
        ProgramResponse {
            fake_nodes: lsdb.fake_count(),
            prefix_advertisements: lsdb.prefix_advertisement_count(),
            fakes_per_destination: engine
                .pristine_graph()
                .nodes()
                .map(|t| lsdb.fake_count_for(t))
                .collect(),
        }
    }
}

/// Error body for non-2xx responses.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorResponse {
    /// Human-readable description.
    pub error: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_bucket_upper_bounds_capped_at_the_exact_max() {
        let mut hist = Histogram::new();
        assert_eq!(LatencyStats::of(&hist), LatencyStats::default());
        for v in [10, 20, 30, 40] {
            hist.record(v);
        }
        // 10 → [8, 15], 20 and 30 → [16, 31], 40 → [32, 63].
        let stats = LatencyStats::of(&hist);
        assert_eq!((stats.count, stats.p50_micros), (4, 31));
        assert_eq!((stats.p99_micros, stats.max_micros), (40, 40));
        hist.record(0);
        hist.record(0);
        assert_eq!(LatencyStats::of(&hist).p50_micros, 15);
    }
}
