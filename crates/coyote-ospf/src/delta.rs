//! LSA deltas: the incremental currency of the `coyote-serve` daemon.
//!
//! A long-running Fibbing controller does not re-flood the whole lied-to
//! LSDB on every demand drift or link event; it emits a *delta* — per
//! destination prefix, the replacement lie list (empty = retract all lies
//! for that prefix) and, for topology events, the replacement router LSAs.
//!
//! [`LsaDelta::apply`] patches the LSDB in place. A cold
//! [`crate::fibbing::compute_program`] run injects the fakes in destination
//! order, so each prefix's lies are one contiguous run of the fake list:
//! apply finds an updated prefix's run by binary search, splices the
//! replacement list (moved, not cloned) over it and renumbers the fakes
//! behind it densely; untouched prefixes keep their lies where they are.
//! The result equals re-assembling every prefix's lies in destination
//! order — the rebuild this module's tests keep as the oracle — and,
//! because the per-prefix compile is separable
//! ([`crate::fibbing::compile_destination`]), it is **bit-identical** to
//! cold-recompiling the new scenario: the differential guarantee
//! `coyote-serve` tests at every step. A delta costs what the prefixes it
//! touches cost, plus one pass over the fakes to check the LSDB's shape.
//!
//! Deltas are defined over *uncompressed* programs (one prefix per fake).
//! Compressed programs share fakes across destinations, so a per-prefix
//! replacement is no longer well-defined; [`LsaDelta::apply`] rejects such
//! LSDBs instead of silently duplicating shared fakes.

use crate::error::OspfError;
use crate::lsa::{FakeNodeId, FakeNodeLsa, RouterLsa};
use crate::lsdb::Lsdb;
use coyote_graph::NodeId;
use serde::Serialize;

/// Replacement lie list for one destination prefix.
#[derive(Debug, Clone, PartialEq, Serialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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

    /// Advances `lsdb` by this delta, in place: the router LSAs are swapped
    /// when the delta carries them, each updated prefix's lies are replaced
    /// by its list (the last update wins when a destination repeats) and
    /// the fakes from the first replaced run on are renumbered densely. The
    /// result is the cold compiler's assembly — every prefix's lies in
    /// destination order, ids dense — which is what makes it bit-identical
    /// to a cold compile. An LSDB whose fakes are not in destination order
    /// is first stably sorted by destination, as that assembly would.
    ///
    /// An LSDB with a fake advertising other than exactly one prefix (a
    /// compressed one) is an error, and `lsdb` is left untouched.
    pub fn apply(self, lsdb: &mut Lsdb) -> Result<(), OspfError> {
        let fakes = &mut lsdb.fakes;
        let mut renumber_from = fakes.len();
        let mut sorted = true;
        for (i, fake) in fakes.iter().enumerate() {
            if fake.prefix_count() != 1 {
                return Err(OspfError::DimensionMismatch(format!(
                    "LSA deltas are defined over uncompressed programs (one prefix \
                     per fake), but fake node {} advertises {}",
                    fake.id.0,
                    fake.prefix_count()
                )));
            }
            sorted &= i == 0 || destination(&fakes[i - 1]) <= destination(fake);
        }
        if !sorted {
            fakes.sort_by_key(destination);
            renumber_from = 0;
        }
        if let Some(router_lsas) = self.router_lsas {
            lsdb.router_lsas = router_lsas;
        }
        let mut updates = self.updates;
        updates.sort_by_key(|u| u.destination);
        let mut updates = updates.into_iter().peekable();
        // Everything from `cursor` on is still the sorted old list, so each
        // run is found by binary search even when a replacement list held a
        // lie for another prefix.
        let mut cursor = 0;
        while let Some(update) = updates.next() {
            let t = update.destination;
            if updates.peek().is_some_and(|next| next.destination == t) {
                continue;
            }
            let start = cursor + fakes[cursor..].partition_point(|f| destination(f) < t);
            let end = start + fakes[start..].partition_point(|f| destination(f) == t);
            cursor = start + update.lies.len();
            fakes.splice(start..end, update.lies);
            renumber_from = renumber_from.min(start);
        }
        for (i, fake) in fakes.iter_mut().enumerate().skip(renumber_from) {
            fake.id = FakeNodeId(i);
        }
        Ok(())
    }
}

/// The one prefix an uncompressed fake advertises.
fn destination(fake: &FakeNodeLsa) -> NodeId {
    fake.prefixes[0].destination
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fibbing::{compile_destination, compute_program, VirtualLinkBudget};
    use crate::lsa::{PrefixAdvertisement, RouterLink};
    use coyote_core::example_fig1;
    use coyote_graph::spf::shortest_path_dag;
    use coyote_graph::Graph;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The whole-LSDB rebuild [`LsaDelta::apply`] replaced, kept as its
    /// oracle: fakes re-assembled in destination order over `node_count`
    /// prefixes, updated prefixes taking their replacement list (the last
    /// one for a repeated destination), untouched ones carrying their old
    /// lies over, ids re-assigned densely by [`Lsdb::inject`].
    fn rebuild(delta: &LsaDelta, old: &Lsdb, node_count: usize) -> Result<Lsdb, OspfError> {
        if let Some(shared) = old.fakes().iter().find(|f| f.prefix_count() > 1) {
            return Err(OspfError::DimensionMismatch(format!(
                "fake node {} advertises {} prefixes (compressed LSDB)",
                shared.id.0,
                shared.prefix_count()
            )));
        }
        let updates: BTreeMap<usize, &PrefixUpdate> = delta
            .updates
            .iter()
            .map(|u| (u.destination.index(), u))
            .collect();
        let mut next = Lsdb {
            router_lsas: match &delta.router_lsas {
                Some(replacement) => replacement.clone(),
                None => old.router_lsas().to_vec(),
            },
            fakes: Vec::new(),
        };
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

    /// `apply` on a copy of `old`.
    fn patched(delta: LsaDelta, old: &Lsdb) -> Result<Lsdb, OspfError> {
        let mut lsdb = old.clone();
        delta.apply(&mut lsdb)?;
        Ok(lsdb)
    }

    fn program_under_test() -> (Graph, crate::fibbing::FibbingProgram) {
        let (g, nodes) = example_fig1::topology();
        let target = example_fig1::golden_routing(&g, &nodes);
        let program = compute_program(&g, &target, VirtualLinkBudget::per_prefix(5)).unwrap();
        (g, program)
    }

    #[test]
    fn empty_delta_reproduces_the_old_lsdb_bit_identically() {
        let (_, program) = program_under_test();
        let delta = LsaDelta::default();
        assert!(delta.is_empty());
        assert_eq!(patched(delta, &program.lsdb).unwrap(), program.lsdb);
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
                lies: compile_destination(&g, &shortest_path_dag(&g, t), &new_target, t, budget)
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
        let cold = compute_program(&g, &new_target, budget).unwrap();
        assert_eq!(delta.fakes_retracted(), old.stats.fake_nodes);
        assert_eq!(delta.fakes_added(), cold.stats.fake_nodes);
        assert_eq!(patched(delta, &old.lsdb).unwrap(), cold.lsdb);
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
        let next = patched(delta, &program.lsdb).unwrap();
        assert_eq!(next.fake_count(), program.lsdb.fake_count() - retracted);
        assert_eq!(next.fakes_for(t).count(), 0);
        for (i, fake) in next.fakes().iter().enumerate() {
            assert_eq!(fake.id.0, i, "ids must stay dense after apply");
        }
        // Untouched prefixes keep their lies (id-independent comparison).
        for other in g.nodes().filter(|&o| o != t) {
            let strip = |f: &FakeNodeLsa| {
                let mut f = f.clone();
                f.id = FakeNodeId(0);
                f
            };
            let before: Vec<_> = program.lsdb.fakes_for(other).map(&strip).collect();
            let after: Vec<_> = next.fakes_for(other).map(&strip).collect();
            assert_eq!(before, after);
        }
    }

    #[test]
    fn compressed_lsdbs_are_rejected() {
        let (_, program) = program_under_test();
        // Force a shared (multi-prefix) fake to exercise the guard.
        let mut lsdb = program.lsdb.clone();
        let mut lie = lsdb.fakes()[0].clone();
        lie.prefixes.push(PrefixAdvertisement {
            destination: NodeId(0),
            cost_fake_to_destination: 1.0,
        });
        lsdb.clear_fakes();
        lsdb.inject(lie);
        assert!(patched(LsaDelta::default(), &lsdb).is_err());
    }

    /// A ring of router LSAs over `n` routers with metric `weight`.
    fn ring(n: usize, weight: f64) -> Vec<RouterLsa> {
        (0..n)
            .map(|r| RouterLsa {
                router: NodeId(r),
                links: vec![RouterLink {
                    neighbor: NodeId((r + 1) % n),
                    weight,
                }],
            })
            .collect()
    }

    /// One single-prefix lie towards `destination`, its other fields drawn
    /// from `seed`; its id is a placeholder `apply` must overwrite.
    fn lie(n: usize, destination: usize, seed: usize) -> FakeNodeLsa {
        let mut lie = FakeNodeLsa::single(
            NodeId(seed % n),
            NodeId(destination % n),
            (seed % 13) as f64 / 4.0,
            (seed % 7) as f64 / 8.0,
            NodeId(seed / 3 % n),
        );
        lie.id = FakeNodeId(seed);
        lie
    }

    /// An LSDB over `n` routers with one lie per `(destination, seed)`,
    /// injected in the order given — not destination order.
    fn lsdb_of(n: usize, fakes: &[(usize, usize)]) -> Lsdb {
        let mut lsdb = Lsdb {
            router_lsas: ring(n, 1.0),
            fakes: Vec::new(),
        };
        for &(destination, seed) in fakes {
            lsdb.inject(lie(n, destination, seed));
        }
        lsdb
    }

    /// A delta of one update per `(destination, lie count, seed)` — empty
    /// lists, repeated destinations and the odd lie for the next prefix
    /// included — with replacement router LSAs when `replace` is odd.
    fn delta_of(n: usize, updates: &[(usize, usize, usize)], replace: usize) -> LsaDelta {
        LsaDelta {
            router_lsas: (replace % 2 == 1).then(|| ring(n, 2.0 + replace as f64)),
            updates: updates
                .iter()
                .map(|&(destination, count, seed)| PrefixUpdate {
                    destination: NodeId(destination % n),
                    lies: (seed..seed + count)
                        .map(|s| lie(n, destination + usize::from(s % 11 == 0), s))
                        .collect(),
                    retracted: seed % 3,
                })
                .collect(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place apply equals the rebuild, ids included — on an LSDB
        /// injected in random order (sorted first) and again on the
        /// destination-ordered LSDB it produced.
        #[test]
        fn in_place_apply_equals_the_rebuild(
            n in 1usize..9,
            fakes in collection::vec((0usize..9, 0usize..1000), 0..40),
            updates in collection::vec((0usize..9, 0usize..5, 0usize..1000), 0..6),
            second in (collection::vec((0usize..9, 0usize..5, 0usize..1000), 0..4), 0usize..4),
        ) {
            let old = lsdb_of(n, &fakes);
            let first = delta_of(n, &updates, updates.len());
            let expected = rebuild(&first, &old, n).unwrap();
            let next = patched(first, &old).unwrap();
            prop_assert_eq!(&next, &expected);
            let again = delta_of(n, &second.0, second.1);
            prop_assert_eq!(patched(again.clone(), &next).unwrap(), rebuild(&again, &next, n).unwrap());
        }

        /// A fake advertising two prefixes makes both refuse the LSDB, and
        /// the in-place apply leaves it as it was.
        #[test]
        fn a_compressed_lsdb_is_still_rejected(
            n in 2usize..9,
            fakes in collection::vec((0usize..9, 0usize..1000), 1..20),
            shared in (0usize..20, 0usize..9),
            updates in collection::vec((0usize..9, 0usize..3, 0usize..1000), 0..4),
        ) {
            let mut old = lsdb_of(n, &fakes);
            old.fakes[shared.0 % fakes.len()].prefixes.push(PrefixAdvertisement {
                destination: NodeId(shared.1 % n),
                cost_fake_to_destination: 0.5,
            });
            let delta = delta_of(n, &updates, 1);
            prop_assert!(rebuild(&delta, &old, n).is_err());
            let mut lsdb = old.clone();
            prop_assert!(delta.apply(&mut lsdb).is_err());
            prop_assert_eq!(lsdb, old);
        }
    }
}
