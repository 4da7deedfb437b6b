//! Deterministic synthetic backbone generators.
//!
//! The Internet Topology Zoo GraphML files used by the paper are not
//! redistributable with this reproduction, so the networks whose structure
//! is not publicly standard are *reconstructed*: a seeded generator produces
//! a 2-connected, backbone-like topology with a prescribed node count and
//! average degree, and capacities drawn from a small set of realistic
//! classes (OC-3/OC-12/OC-48-style ratios). The generator is deterministic
//! in its seed, so every experiment is reproducible bit-for-bit.

use crate::topology::Topology;
use coyote_graph::rng::SplitMix64;

/// Parameters of a synthetic backbone.
#[derive(Debug, Clone)]
pub struct BackboneSpec {
    /// Topology name.
    pub name: String,
    /// Number of PoPs.
    pub nodes: usize,
    /// Extra chord links beyond the 2-connected ring (so total links =
    /// `nodes + extra_links`).
    pub extra_links: usize,
    /// Capacity classes to draw from (relative units).
    pub capacity_classes: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
    /// If true, produce a sparse tree-plus-one-link topology (used for the
    /// nearly-tree networks the paper excludes from Table I).
    pub tree_like: bool,
}

impl BackboneSpec {
    /// A mesh-style backbone with the given size and seed.
    pub fn mesh(name: &str, nodes: usize, extra_links: usize, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            nodes,
            extra_links,
            capacity_classes: vec![1.0, 2.5, 10.0],
            seed,
            tree_like: false,
        }
    }

    /// A nearly-tree backbone (BBNPlanet / Gambia style).
    pub fn tree(name: &str, nodes: usize, seed: u64) -> Self {
        Self {
            name: name.to_string(),
            nodes,
            extra_links: 1,
            capacity_classes: vec![1.0, 2.5],
            seed,
            tree_like: true,
        }
    }

    /// Generates the topology.
    pub fn generate(&self) -> Topology {
        let mut rng = SplitMix64::new(self.seed);
        let mut topo = Topology::new(self.name.clone());
        for i in 0..self.nodes {
            topo.add_node(format!("{}-{i}", self.name));
        }
        if self.nodes < 2 {
            return topo;
        }

        let mut has_link = vec![vec![false; self.nodes]; self.nodes];
        let add = |topo: &mut Topology,
                   has_link: &mut Vec<Vec<bool>>,
                   rng: &mut SplitMix64,
                   a: usize,
                   b: usize|
         -> bool {
            if a == b || has_link[a][b] {
                return false;
            }
            has_link[a][b] = true;
            has_link[b][a] = true;
            let cap = self.capacity_classes[rng.below(self.capacity_classes.len())];
            topo.add_link(a, b, cap, 1.0);
            true
        };

        if self.tree_like {
            // Random spanning tree (each node attaches to a random earlier
            // node) plus a single redundant link.
            for i in 1..self.nodes {
                let parent = rng.below(i);
                add(&mut topo, &mut has_link, &mut rng, i, parent);
            }
            let mut added = false;
            while !added && self.nodes > 2 {
                let a = rng.below(self.nodes);
                let b = rng.below(self.nodes);
                added = add(&mut topo, &mut has_link, &mut rng, a, b);
            }
        } else {
            // Ring backbone guarantees 2-connectivity, chords add the meshy
            // path diversity real backbones have.
            for i in 0..self.nodes {
                add(&mut topo, &mut has_link, &mut rng, i, (i + 1) % self.nodes);
            }
            let mut remaining = self.extra_links;
            let mut attempts = 0;
            while remaining > 0 && attempts < 50 * self.extra_links + 100 {
                attempts += 1;
                let a = rng.below(self.nodes);
                let span = 2 + rng.below(self.nodes.max(3) - 2);
                let b = (a + span) % self.nodes;
                if add(&mut topo, &mut has_link, &mut rng, a, b) {
                    remaining -= 1;
                }
            }
        }

        // Weights follow the paper's fallback: inverse capacity.
        topo.set_inverse_capacity_weights();
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_generation_is_deterministic_and_connected() {
        let spec = BackboneSpec::mesh("test", 16, 8, 42);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.node_count(), 16);
        assert_eq!(a.link_count(), 16 + 8);
        assert!(a.is_connected());
    }

    #[test]
    fn different_seeds_give_different_chords() {
        let a = BackboneSpec::mesh("x", 14, 6, 1).generate();
        let b = BackboneSpec::mesh("x", 14, 6, 2).generate();
        assert_ne!(a, b);
        assert_eq!(a.link_count(), b.link_count());
    }

    #[test]
    fn tree_topologies_are_sparse_but_connected() {
        let t = BackboneSpec::tree("t", 12, 7).generate();
        assert!(t.is_connected());
        // Tree (n-1) plus exactly one extra link.
        assert_eq!(t.link_count(), 12);
        assert!(t.average_degree() <= 2.1);
    }

    #[test]
    fn capacities_come_from_the_configured_classes() {
        let spec = BackboneSpec::mesh("caps", 10, 5, 3);
        let topo = spec.generate();
        for l in &topo.links {
            assert!(spec.capacity_classes.contains(&l.capacity));
        }
    }

    #[test]
    fn weights_are_inverse_capacity() {
        let topo = BackboneSpec::mesh("w", 10, 5, 3).generate();
        for l in &topo.links {
            for m in &topo.links {
                if l.capacity > m.capacity {
                    assert!(l.weight < m.weight);
                }
            }
        }
    }

    #[test]
    fn degenerate_sizes_do_not_panic() {
        assert_eq!(
            BackboneSpec::mesh("one", 1, 0, 0).generate().link_count(),
            0
        );
        let two = BackboneSpec::mesh("two", 2, 3, 0).generate();
        assert_eq!(two.link_count(), 1);
    }
}
