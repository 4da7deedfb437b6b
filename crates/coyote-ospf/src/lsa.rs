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

/// Identifier of a fake (virtual) node injected by the Fibbing controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct FakeNodeId(pub usize);

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

/// A Fibbing lie: a fake node attached to one router, advertising one or
/// more destination prefixes, whose traffic is ultimately forwarded to a
/// real next hop (the *forwarding address*).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FakeNodeLsa {
    /// Identifier of the fake node.
    pub id: FakeNodeId,
    /// The (real) router that sees the fake adjacency and will be deceived.
    pub attachment: NodeId,
    /// Metric of the virtual adjacency `attachment -> fake node`.
    pub cost_to_fake: f64,
    /// The real neighbor of `attachment` that packets sent "towards the fake
    /// node" are actually handed to.
    pub forwarding_address: NodeId,
    /// The destination prefixes this fake node advertises (at least one).
    pub prefixes: Vec<PrefixAdvertisement>,
}

impl FakeNodeLsa {
    /// A fake node advertising a single destination prefix — the shape the
    /// uncompressed Fibbing compiler emits (one lie per virtual next-hop
    /// replica per prefix).
    pub fn single(
        attachment: NodeId,
        destination: NodeId,
        cost_to_fake: f64,
        cost_fake_to_destination: f64,
        forwarding_address: NodeId,
    ) -> Self {
        Self {
            id: FakeNodeId(0),
            attachment,
            cost_to_fake,
            forwarding_address,
            prefixes: vec![PrefixAdvertisement {
                destination,
                cost_fake_to_destination,
            }],
        }
    }

    /// True if this fake node advertises `destination`.
    pub fn advertises(&self, destination: NodeId) -> bool {
        self.prefixes.iter().any(|p| p.destination == destination)
    }

    /// Total advertised cost of reaching `destination` through this lie, or
    /// `None` if the fake node does not advertise that prefix.
    pub fn total_cost_to(&self, destination: NodeId) -> Option<f64> {
        self.prefixes
            .iter()
            .find(|p| p.destination == destination)
            .map(|p| self.cost_to_fake + p.cost_fake_to_destination)
    }

    /// Number of prefixes this fake node advertises.
    pub fn prefix_count(&self) -> usize {
        self.prefixes.len()
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
        assert_eq!(FakeNodeId(3), FakeNodeId(3));
        assert!(FakeNodeId(2) < FakeNodeId(4));
    }
}
