//! LSA deltas: the incremental currency of the `coyote-serve` daemon.
//!
//! A long-running Fibbing controller does not re-flood the whole lied-to
//! LSDB on every demand drift or link event; it emits a *delta* — per
//! destination prefix, the replacement lie list (empty = retract all lies
//! for that prefix) and, for topology events, the replacement router LSAs.
//!
//! [`LsaDelta::apply`] reconstructs the successor LSDB from the old one by
//! re-assembling fakes in destination order, exactly like a cold
//! [`crate::fibbing::compute_program`] run does: untouched prefixes keep
//! their old lies, updated prefixes take the replacement list, and
//! [`Lsdb::inject`] renumbers everything densely. Because the per-prefix
//! compile is separable ([`crate::fibbing::compile_destination`]), applying
//! the delta is **bit-identical** to cold-recompiling the new scenario —
//! the differential guarantee `coyote-serve` tests at every step.
//!
//! Deltas are defined over *uncompressed* programs (one prefix per fake).
//! Compressed programs share fakes across destinations, so a per-prefix
//! replacement is no longer well-defined; [`LsaDelta::apply`] rejects such
//! LSDBs instead of silently duplicating shared fakes.

use crate::error::OspfError;
use crate::lsa::{FakeNodeLsa, RouterLsa};
use crate::lsdb::Lsdb;
use coyote_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Replacement lie list for one destination prefix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrefixUpdate {
    /// The destination prefix whose lies are replaced.
    pub destination: NodeId,
    /// The new lies for this prefix, in injection order (`FakeNodeId`s are
    /// placeholders; [`Lsdb::inject`] assigns the dense ids on apply).
    pub lies: Vec<FakeNodeLsa>,
    /// How many lies the old program carried for this prefix (the number
    /// being retracted by this update).
    pub retracted: usize,
}

/// An incremental update to a lied-to LSDB: replacement router LSAs (for
/// link/node events; `None` when the topology is unchanged) plus per-prefix
/// replacement lie lists for every re-optimized destination.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LsaDelta {
    /// Replacement topology advertisements, present only when a link or
    /// node event changed the physical adjacencies.
    pub router_lsas: Option<Vec<RouterLsa>>,
    /// Per-prefix replacement lie lists, sorted by destination index.
    pub updates: Vec<PrefixUpdate>,
}

impl LsaDelta {
    /// True if the delta changes nothing (no topology change, no prefix
    /// updates).
    pub fn is_empty(&self) -> bool {
        self.router_lsas.is_none() && self.updates.is_empty()
    }

    /// Number of destination prefixes this delta re-advertises.
    pub fn touched_prefixes(&self) -> usize {
        self.updates.len()
    }

    /// Total lies injected by this delta.
    pub fn fakes_added(&self) -> usize {
        self.updates.iter().map(|u| u.lies.len()).sum()
    }

    /// Total lies retracted by this delta.
    pub fn fakes_retracted(&self) -> usize {
        self.updates.iter().map(|u| u.retracted).sum()
    }

    /// Applies the delta to `old`, producing the successor LSDB.
    ///
    /// Fakes are re-assembled in destination order over `node_count`
    /// prefixes: updated prefixes take their replacement list, untouched
    /// prefixes carry their old lies over, and ids are re-assigned densely
    /// — the exact assembly order of a cold compile, which is what makes
    /// the result bit-identical to one.
    pub fn apply(&self, old: &Lsdb, node_count: usize) -> Result<Lsdb, OspfError> {
        if let Some(shared) = old.fakes().iter().find(|f| f.prefix_count() > 1) {
            return Err(OspfError::DimensionMismatch(format!(
                "LSA deltas are defined over uncompressed programs, but fake \
                 node {} advertises {} prefixes (compressed LSDB)",
                shared.id.0,
                shared.prefix_count()
            )));
        }
        let updates: BTreeMap<usize, &PrefixUpdate> = self
            .updates
            .iter()
            .map(|u| (u.destination.index(), u))
            .collect();
        let mut next = Lsdb::with_router_lsas(match &self.router_lsas {
            Some(replacement) => replacement.clone(),
            None => old.router_lsas().to_vec(),
        });
        for t in 0..node_count {
            match updates.get(&t) {
                Some(update) => {
                    for lie in &update.lies {
                        next.inject(lie.clone());
                    }
                }
                None => {
                    for lie in old.fakes_for(NodeId(t)) {
                        next.inject(lie.clone());
                    }
                }
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fibbing::{compile_destination, compute_program, VirtualLinkBudget};
    use coyote_core::example_fig1;
    use coyote_graph::Graph;

    fn program_under_test() -> (Graph, crate::fibbing::FibbingProgram) {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(5)).unwrap();
        (g, program)
    }

    #[test]
    fn empty_delta_reproduces_the_old_lsdb_bit_identically() {
        let (g, program) = program_under_test();
        let delta = LsaDelta::default();
        assert!(delta.is_empty());
        let next = delta.apply(&program.lsdb, g.node_count()).unwrap();
        assert_eq!(next, program.lsdb);
    }

    #[test]
    fn replacing_every_prefix_matches_a_cold_compile() {
        let (g, nodes) = example_fig1::topology();
        let budget = VirtualLinkBudget::per_prefix(5);
        let old_target = example_fig1::golden_routing(&g, &nodes);
        let old = compute_program(&g, &old_target, budget).unwrap();
        let new_target = example_fig1::fig1c_routing(&g, &nodes);
        let updates = g
            .nodes()
            .map(|t| PrefixUpdate {
                destination: t,
                lies: compile_destination(&g, &new_target, t, budget)
                    .unwrap()
                    .lies,
                retracted: old.lsdb.fakes_for(t).count(),
            })
            .filter(|u| !u.lies.is_empty() || u.retracted > 0)
            .collect();
        let delta = LsaDelta {
            router_lsas: None,
            updates,
        };
        let next = delta.apply(&old.lsdb, g.node_count()).unwrap();
        let cold = compute_program(&g, &new_target, budget).unwrap();
        assert_eq!(next, cold.lsdb);
        assert_eq!(delta.fakes_retracted(), old.stats.fake_nodes);
        assert_eq!(delta.fakes_added(), cold.stats.fake_nodes);
    }

    #[test]
    fn partial_update_keeps_untouched_prefixes_and_renumbers_densely() {
        let (g, program) = program_under_test();
        // Retract every lie for the destination with the most fakes.
        let t = g
            .nodes()
            .max_by_key(|&t| program.lsdb.fakes_for(t).count())
            .unwrap();
        let retracted = program.lsdb.fakes_for(t).count();
        assert!(retracted > 0, "test needs a destination with lies");
        let delta = LsaDelta {
            router_lsas: None,
            updates: vec![PrefixUpdate {
                destination: t,
                lies: Vec::new(),
                retracted,
            }],
        };
        let next = delta.apply(&program.lsdb, g.node_count()).unwrap();
        assert_eq!(next.fake_count(), program.lsdb.fake_count() - retracted);
        assert_eq!(next.fakes_for(t).count(), 0);
        for (i, fake) in next.fakes().iter().enumerate() {
            assert_eq!(fake.id.0, i, "ids must stay dense after apply");
        }
        // Untouched prefixes keep their lies (id-independent comparison).
        for other in g.nodes().filter(|&o| o != t) {
            let strip = |f: &FakeNodeLsa| {
                let mut f = f.clone();
                f.id = crate::lsa::FakeNodeId(0);
                f
            };
            let before: Vec<_> = program.lsdb.fakes_for(other).map(&strip).collect();
            let after: Vec<_> = next.fakes_for(other).map(&strip).collect();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn compressed_lsdbs_are_rejected() {
        let (g, program) = program_under_test();
        // Force a shared (multi-prefix) fake to exercise the guard.
        let mut lsdb = program.lsdb.clone();
        let mut lie = lsdb.fakes()[0].clone();
        lie.prefixes.push(crate::lsa::PrefixAdvertisement {
            destination: NodeId(0),
            cost_fake_to_destination: 1.0,
        });
        lsdb.clear_fakes();
        lsdb.inject(lie);
        assert!(LsaDelta::default().apply(&lsdb, g.node_count()).is_err());
    }
}
