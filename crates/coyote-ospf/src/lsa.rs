//! Link-state advertisements, real and fake.
//!
//! Fibbing \[8\], \[9\] realizes arbitrary per-destination forwarding DAGs by
//! injecting *fake nodes and links* into the OSPF link-state database: a
//! router is made to believe that an extra ("virtual") neighbor offers a
//! cheap path towards a destination prefix, and the virtual adjacency is
//! mapped onto a real next hop via its forwarding address. Nemeth et al.
//! \[18\] use the same trick to approximate unequal traffic splits: a next hop
//! announced through `k` virtual adjacencies receives `k` ECMP shares.
//!
//! The `k` replicas of one lie are one [`FakeNodeLsa`] with `replicas: k`:
//! the routers still receive `k` fake nodes, but the program stores, reads
//! and withdraws the lie once, and every fake-node count is a sum of
//! replica counts.
//!
//! A fake node may advertise *several* destination prefixes at once (one
//! [`PrefixAdvertisement`] each): the program-compression pass of
//! [`crate::compress`] merges lies that share an (attachment, forwarding
//! address) pair across destinations into one shared fake node, which is how
//! real Fibbing deployments keep the forged-LSA count proportional to the
//! topology rather than to topology × prefixes.
//!
//! This module defines the advertisement records the [`crate::lsdb::Lsdb`]
//! stores. The real topology is carried by [`RouterLsa`]s (one per router,
//! mirroring the physical adjacencies); the lies are [`FakeNodeLsa`]s.

use coyote_graph::NodeId;
use serde::Serialize;

/// One adjacency inside a [`RouterLsa`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RouterLink {
    /// The neighboring router.
    pub neighbor: NodeId,
    /// OSPF metric of the adjacency.
    pub weight: f64,
}

/// The real link-state advertisement of one router: its physical
/// adjacencies and metrics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RouterLsa {
    /// The advertising router.
    pub router: NodeId,
    /// Its adjacencies.
    pub links: Vec<RouterLink>,
}

/// One destination prefix a fake node advertises.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PrefixAdvertisement {
    /// The destination node whose prefix is advertised.
    pub destination: NodeId,
    /// Metric the fake node advertises towards this destination prefix.
    pub cost_fake_to_destination: f64,
}

/// A Fibbing lie: `replicas` identical fake nodes attached to one router,
/// each advertising the same one or more destination prefixes, whose traffic
/// is ultimately forwarded to a real next hop (the *forwarding address*).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FakeNodeLsa {
    /// The (real) router that sees the fake adjacency and will be deceived.
    pub attachment: NodeId,
    /// Metric of the virtual adjacency `attachment -> fake node`.
    pub cost_to_fake: f64,
    /// The real neighbor of `attachment` that packets sent "towards the fake
    /// node" are actually handed to.
    pub forwarding_address: NodeId,
    /// The destination prefixes this fake node advertises (at least one).
    pub prefixes: Vec<PrefixAdvertisement>,
    /// How many identical fake nodes this lie stands for (at least one):
    /// its ECMP multiplicity towards the forwarding address.
    pub replicas: u32,
}

impl FakeNodeLsa {
    /// One fake node advertising a single destination prefix — the shape the
    /// uncompressed Fibbing compiler emits, before it sets the replica count.
    pub fn single(
        attachment: NodeId,
        destination: NodeId,
        cost_to_fake: f64,
        cost_fake_to_destination: f64,
        forwarding_address: NodeId,
    ) -> Self {
        Self {
            attachment,
            cost_to_fake,
            forwarding_address,
            prefixes: vec![PrefixAdvertisement {
                destination,
                cost_fake_to_destination,
            }],
            replicas: 1,
        }
    }

    /// True if this fake node advertises `destination`.
    pub fn advertises(&self, destination: NodeId) -> bool {
        self.prefixes.iter().any(|p| p.destination == destination)
    }

    /// Number of prefixes this fake node advertises.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
    }

    /// The fake nodes this lie stands for, as a count.
    pub(crate) fn fakes(&self) -> usize {
        self.replicas as usize
    }
}

/// The fake nodes `lies` stand for: the sum of their replica counts.
pub(crate) fn fake_count(lies: &[FakeNodeLsa]) -> usize {
    lies.iter().map(FakeNodeLsa::fakes).sum()
}

#[cfg(test)]
impl FakeNodeLsa {
    /// Total advertised cost of reaching `destination` through this lie, or
    /// `None` if the fake node does not advertise that prefix.
    pub(crate) fn total_cost_to(&self, destination: NodeId) -> Option<f64> {
        self.prefixes
            .iter()
            .find(|p| p.destination == destination)
            .map(|p| self.cost_to_fake + p.cost_fake_to_destination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_cost_adds_both_segments_per_prefix() {
        let lie = FakeNodeLsa::single(NodeId(1), NodeId(3), 0.5, 0.25, NodeId(2));
        assert!(lie.advertises(NodeId(3)));
        assert!(!lie.advertises(NodeId(1)));
        assert!((lie.total_cost_to(NodeId(3)).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(lie.total_cost_to(NodeId(0)), None);
        assert_eq!(lie.prefix_count(), 1);
    }

    #[test]
    fn shared_fakes_carry_independent_per_prefix_costs() {
        let mut lie = FakeNodeLsa::single(NodeId(1), NodeId(3), 0.5, 0.25, NodeId(2));
        lie.prefixes.push(PrefixAdvertisement {
            destination: NodeId(0),
            cost_fake_to_destination: 1.5,
        });
        assert_eq!(lie.prefix_count(), 2);
        assert!((lie.total_cost_to(NodeId(3)).unwrap() - 0.75).abs() < 1e-12);
        assert!((lie.total_cost_to(NodeId(0)).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lsa_records_are_comparable_and_serializable_types() {
        let a = RouterLsa {
            router: NodeId(0),
            links: vec![RouterLink {
                neighbor: NodeId(1),
                weight: 2.0,
            }],
        };
        assert_eq!(a, a.clone());
        let lie = FakeNodeLsa::single(NodeId(1), NodeId(3), 0.5, 0.25, NodeId(2));
        let tripled = FakeNodeLsa {
            replicas: 3,
            ..lie.clone()
        };
        assert_ne!(lie, tripled);
        assert_eq!((lie.fakes(), tripled.fakes()), (1, 3));
        assert_eq!(fake_count(&[lie, tripled]), 4);
    }
}
