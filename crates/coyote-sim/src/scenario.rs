//! The prototype experiment of Section VII (Fig. 12).
//!
//! Topology: two sources `s1`, `s2` and a target router `t` advertising two
//! IP prefixes `t1` and `t2`; every link has 1 Mbps of capacity. Three
//! 15-second traffic phases are emulated with CBR/UDP traffic:
//!
//! | phase | s1 → t1 | s2 → t2 |
//! |-------|---------|---------|
//! | 1     | 0 Mbps  | 2 Mbps  |
//! | 2     | 1 Mbps  | 1 Mbps  |
//! | 3     | 2 Mbps  | 0 Mbps  |
//!
//! Traditional TE must use the *same* forwarding DAG for both prefixes, so
//! only three configurations exist (TE1: both sources forward directly;
//! TE2: `s1` splits via `s2`; TE3: the mirror image of TE2) and each drops
//! 25–50 % of the traffic in at least one phase. COYOTE gives each prefix
//! its own DAG — traffic to `t1` is split at `s1`, traffic to `t2` at `s2`
//! (realized by a Fibbing lie) — and drops (almost) nothing.

use crate::flowsim::{CbrFlow, FlowSimulator, PrefixId, SimOutcome};
use coyote_graph::{Graph, NodeId};
use serde::Serialize;

/// The TE configurations compared in the prototype experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum PrototypeScheme {
    /// Both sources forward both prefixes on their direct link.
    Te1,
    /// `s1` splits both prefixes between its direct link and the path via
    /// `s2`; `s2` forwards directly.
    Te2,
    /// Mirror image of [`PrototypeScheme::Te2`] (`s2` splits, `s1` direct).
    Te3,
    /// COYOTE: prefix `t1` is split at `s1`, prefix `t2` is split at `s2`.
    Coyote,
}

impl PrototypeScheme {
    /// All schemes, in the order the paper discusses them.
    pub const ALL: [PrototypeScheme; 4] = [
        PrototypeScheme::Te1,
        PrototypeScheme::Te2,
        PrototypeScheme::Te3,
        PrototypeScheme::Coyote,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PrototypeScheme::Te1 => "TE1",
            PrototypeScheme::Te2 => "TE2",
            PrototypeScheme::Te3 => "TE3",
            PrototypeScheme::Coyote => "COYOTE",
        }
    }
}

/// One simulated traffic phase.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseResult {
    /// Offered (s1 → t1, s2 → t2) rates in Mbps.
    pub offered: (f64, f64),
    /// Fraction of offered traffic dropped in this phase.
    pub drop_rate: f64,
    /// Fraction delivered.
    pub delivery_rate: f64,
}

/// Result of the whole three-phase experiment for one scheme.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PrototypeResult {
    /// Which scheme was emulated.
    pub scheme: String,
    /// Per-phase results in phase order.
    pub phases: Vec<PhaseResult>,
}

impl PrototypeResult {
    /// The worst drop rate over the three phases (the number the paper's
    /// discussion quotes: 25–50 % for TE1–TE3, ≈0 for COYOTE).
    pub fn worst_drop_rate(&self) -> f64 {
        self.phases.iter().map(|p| p.drop_rate).fold(0.0, f64::max)
    }

    /// Cumulative drop rate over all phases (total dropped / total offered).
    pub fn cumulative_drop_rate(&self) -> f64 {
        let offered: f64 = self.phases.iter().map(|p| p.offered.0 + p.offered.1).sum();
        if offered <= 0.0 {
            return 0.0;
        }
        let dropped: f64 = self
            .phases
            .iter()
            .map(|p| (p.offered.0 + p.offered.1) * p.drop_rate)
            .sum();
        dropped / offered
    }
}

/// The prototype topology (all links 1 Mbps).
pub fn prototype_topology() -> (Graph, NodeId, NodeId, NodeId) {
    let mut g = Graph::new();
    let s1 = g.add_node("s1").unwrap();
    let s2 = g.add_node("s2").unwrap();
    let t = g.add_node("t").unwrap();
    g.add_bidirectional_edge(s1, t, 1.0, 1.0).unwrap();
    g.add_bidirectional_edge(s2, t, 1.0, 1.0).unwrap();
    g.add_bidirectional_edge(s1, s2, 1.0, 1.0).unwrap();
    (g, s1, s2, t)
}

/// The three offered-load phases of the experiment, in Mbps.
pub const PHASES: [(f64, f64); 3] = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)];

fn ratios_direct(g: &Graph, s1: NodeId, s2: NodeId, t: NodeId) -> Vec<f64> {
    let mut r = vec![0.0; g.edge_count()];
    r[g.find_edge(s1, t).unwrap().index()] = 1.0;
    r[g.find_edge(s2, t).unwrap().index()] = 1.0;
    r
}

fn ratios_split_at(g: &Graph, splitter: NodeId, other: NodeId, t: NodeId) -> Vec<f64> {
    let mut r = vec![0.0; g.edge_count()];
    r[g.find_edge(splitter, t).unwrap().index()] = 0.5;
    r[g.find_edge(splitter, other).unwrap().index()] = 0.5;
    r[g.find_edge(other, t).unwrap().index()] = 1.0;
    r
}

/// Builds the simulator (with both prefixes registered) for a scheme.
/// Returns the simulator and the prefix ids `(t1, t2)`.
pub fn build_scheme(scheme: PrototypeScheme) -> (FlowSimulator, PrefixId, PrefixId) {
    let (g, s1, s2, t) = prototype_topology();
    let (ratios_t1, ratios_t2) = match scheme {
        PrototypeScheme::Te1 => (ratios_direct(&g, s1, s2, t), ratios_direct(&g, s1, s2, t)),
        PrototypeScheme::Te2 => (
            ratios_split_at(&g, s1, s2, t),
            ratios_split_at(&g, s1, s2, t),
        ),
        PrototypeScheme::Te3 => (
            ratios_split_at(&g, s2, s1, t),
            ratios_split_at(&g, s2, s1, t),
        ),
        PrototypeScheme::Coyote => (
            ratios_split_at(&g, s1, s2, t),
            ratios_split_at(&g, s2, s1, t),
        ),
    };
    // Both prefixes share the egress router t; the generalized constructor
    // assigns PrefixId(0) to t1 and PrefixId(1) to t2 (registration order).
    let sim = FlowSimulator::with_prefixes(g, vec![(t, ratios_t1), (t, ratios_t2)]);
    (sim, PrefixId(0), PrefixId(1))
}

/// Runs the three-phase experiment for one scheme.
pub fn run_prototype(scheme: PrototypeScheme) -> PrototypeResult {
    let (sim, p1, p2) = build_scheme(scheme);
    let (_, s1, s2, _t) = prototype_topology();
    let phases = PHASES
        .iter()
        .map(|&(r1, r2)| {
            let mut flows = Vec::new();
            if r1 > 0.0 {
                flows.push(CbrFlow {
                    source: s1,
                    prefix: p1,
                    rate: r1,
                });
            }
            if r2 > 0.0 {
                flows.push(CbrFlow {
                    source: s2,
                    prefix: p2,
                    rate: r2,
                });
            }
            let outcome: SimOutcome = sim.run(&flows);
            PhaseResult {
                offered: (r1, r2),
                drop_rate: outcome.drop_rate(),
                delivery_rate: outcome.delivery_rate(),
            }
        })
        .collect();
    PrototypeResult {
        scheme: scheme.name().to_string(),
        phases,
    }
}

/// Runs the experiment for every scheme (the full Fig. 12 comparison).
pub fn run_all() -> Vec<PrototypeResult> {
    PrototypeScheme::ALL
        .iter()
        .map(|&s| run_prototype(s))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(scheme: PrototypeScheme) -> PrototypeResult {
        run_prototype(scheme)
    }

    #[test]
    fn te1_drops_half_when_a_single_source_sends_two_mbps() {
        let r = result(PrototypeScheme::Te1);
        assert!(
            (r.phases[0].drop_rate - 0.5).abs() < 1e-9,
            "{:?}",
            r.phases[0]
        );
        assert!((r.phases[1].drop_rate - 0.0).abs() < 1e-9);
        assert!((r.phases[2].drop_rate - 0.5).abs() < 1e-9);
        assert!((r.worst_drop_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn te2_fixes_phase_three_but_hurts_phase_two() {
        let r = result(PrototypeScheme::Te2);
        // Phase 1: s2 alone sends 2 on its direct link -> 50% loss.
        assert!((r.phases[0].drop_rate - 0.5).abs() < 1e-9);
        // Phase 2: s1's detoured half collides with s2's direct traffic.
        assert!(
            (r.phases[1].drop_rate - 0.25).abs() < 1e-9,
            "{:?}",
            r.phases[1]
        );
        // Phase 3: s1 splits its 2 Mbps -> no loss.
        assert!(r.phases[2].drop_rate < 1e-9);
    }

    #[test]
    fn te3_is_the_mirror_of_te2() {
        let te2 = result(PrototypeScheme::Te2);
        let te3 = result(PrototypeScheme::Te3);
        assert!((te2.phases[0].drop_rate - te3.phases[2].drop_rate).abs() < 1e-9);
        assert!((te2.phases[2].drop_rate - te3.phases[0].drop_rate).abs() < 1e-9);
        assert!((te2.phases[1].drop_rate - te3.phases[1].drop_rate).abs() < 1e-9);
    }

    #[test]
    fn coyote_drops_nothing_in_any_phase() {
        let r = result(PrototypeScheme::Coyote);
        for phase in &r.phases {
            assert!(
                phase.drop_rate < 1e-9,
                "COYOTE dropped {} in phase {:?}",
                phase.drop_rate,
                phase.offered
            );
        }
        assert!(r.cumulative_drop_rate() < 1e-9);
    }

    #[test]
    fn every_traditional_scheme_loses_at_least_a_quarter_somewhere() {
        // The paper: "each of the TE schemes (TE1-3) achievable via
        // traditional TE with ECMP leads to a significant packet-drop rate
        // (25%-50%) in at least one of the traffic scenarios."
        for scheme in [
            PrototypeScheme::Te1,
            PrototypeScheme::Te2,
            PrototypeScheme::Te3,
        ] {
            let r = result(scheme);
            assert!(
                r.worst_drop_rate() >= 0.25 - 1e-9,
                "{} worst drop {}",
                r.scheme,
                r.worst_drop_rate()
            );
        }
    }

    #[test]
    fn run_all_numbers_are_pinned() {
        // Regression pin for the generalized-constructor refactor: the
        // prototype must keep producing exactly the numbers the hard-wired
        // path produced (drop rates per scheme per phase). These are exact
        // rationals the fluid solver reaches in one or two rounds, so the
        // comparison is tight.
        let expected: [(&str, [f64; 3]); 4] = [
            ("TE1", [0.5, 0.0, 0.5]),
            ("TE2", [0.5, 0.25, 0.0]),
            ("TE3", [0.0, 0.25, 0.5]),
            ("COYOTE", [0.0, 0.0, 0.0]),
        ];
        for (result, (scheme, drops)) in run_all().iter().zip(expected) {
            assert_eq!(result.scheme, scheme);
            assert_eq!(result.phases.len(), 3);
            for (phase, want) in result.phases.iter().zip(drops) {
                assert!(
                    (phase.drop_rate - want).abs() < 1e-12,
                    "{scheme} offered {:?}: drop {} != pinned {want}",
                    phase.offered,
                    phase.drop_rate
                );
                assert!((phase.delivery_rate - (1.0 - want)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn run_all_covers_every_scheme() {
        let all = run_all();
        assert_eq!(all.len(), 4);
        let names: Vec<&str> = all.iter().map(|r| r.scheme.as_str()).collect();
        assert_eq!(names, vec!["TE1", "TE2", "TE3", "COYOTE"]);
        // COYOTE strictly dominates every traditional scheme in cumulative
        // drops.
        let coyote = all.last().unwrap().cumulative_drop_rate();
        for r in &all[..3] {
            assert!(coyote < r.cumulative_drop_rate());
        }
    }
}
