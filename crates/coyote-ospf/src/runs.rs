//! An LSDB's lies read as runs of identical consecutive lies.
//!
//! COYOTE's unequal splits come from replicated lies: `k` identical fake
//! nodes towards one forwarding address give it a `k`-fold ECMP share
//! (paper §V-D, Fig. 1d). The compiler emits the replicas of one lie next to
//! each other, so a program of tens of thousands of lies is a few hundred
//! runs. [`LieRuns`] folds them once: the FIB builder adds a run's whole
//! length as one multiplicity, and [`Lsdb::withdraw`] decides each run once,
//! because the fakes of a run live and die together.
//!
//! The index is an immutable value kept next to the [`Lsdb`] it was folded
//! from, not inside it: the database changes under every
//! [`LsaDelta`](crate::LsaDelta), while the index is built where a batch of
//! reads over one set of lies begins (a failure scenario's base program, a
//! daemon's link-down event).

use crate::lsa::FakeNodeLsa;
use crate::lsdb::Lsdb;

/// `len` identical consecutive lies, the first of them at `first` in the
/// database's fakes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) first: usize,
    pub(crate) len: u32,
}

impl Run {
    /// The fakes of this run, as a count.
    pub(crate) fn fakes(self) -> usize {
        self.len as usize
    }
}

/// An [`Lsdb`]'s lies folded into runs of identical consecutive lies, with
/// the database's node-id space.
///
/// Two lies are identical when their attachment, forwarding address,
/// `cost_to_fake` and prefix lists (destinations and costs) are equal bit
/// for bit; only their ids differ.
#[derive(Debug, Clone)]
pub struct LieRuns {
    pub(crate) runs: Vec<Run>,
    node_id_space: usize,
    fake_count: usize,
}

impl LieRuns {
    /// Folds `lsdb`'s lies: one pass over the fakes, each compared with the
    /// head of the run before it.
    pub fn new(lsdb: &Lsdb) -> Self {
        let fakes = lsdb.fakes();
        let mut runs: Vec<Run> = Vec::new();
        for (f, fake) in fakes.iter().enumerate() {
            match runs.last_mut() {
                Some(run) if same_lie(&fakes[run.first], fake) => run.len += 1,
                _ => runs.push(Run { first: f, len: 1 }),
            }
        }

        let mut node_id_space = 0;
        for lsa in lsdb.router_lsas() {
            node_id_space = node_id_space.max(lsa.router.index() + 1);
            for l in &lsa.links {
                node_id_space = node_id_space.max(l.neighbor.index() + 1);
            }
        }
        for run in &runs {
            let head = &fakes[run.first];
            node_id_space = node_id_space
                .max(head.attachment.index() + 1)
                .max(head.forwarding_address.index() + 1);
            for p in &head.prefixes {
                node_id_space = node_id_space.max(p.destination.index() + 1);
            }
        }
        Self {
            runs,
            node_id_space,
            fake_count: fakes.len(),
        }
    }

    /// Number of fakes folded (the sum of the run lengths).
    pub fn fake_count(&self) -> usize {
        self.fake_count
    }

    /// 1 + the largest node index among the router LSAs, their adjacencies
    /// and the lies. Robust to withdrawn router LSAs, unlike the LSA count.
    pub fn node_id_space(&self) -> usize {
        self.node_id_space
    }
}

/// Equal bit for bit in everything but the id.
fn same_lie(a: &FakeNodeLsa, b: &FakeNodeLsa) -> bool {
    a.attachment == b.attachment
        && a.forwarding_address == b.forwarding_address
        && a.cost_to_fake.to_bits() == b.cost_to_fake.to_bits()
        && a.prefixes.len() == b.prefixes.len()
        && a.prefixes.iter().zip(&b.prefixes).all(|(p, q)| {
            p.destination == q.destination
                && p.cost_fake_to_destination.to_bits() == q.cost_fake_to_destination.to_bits()
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsa::PrefixAdvertisement;
    use coyote_graph::{Graph, NodeId};

    fn lie(att: usize, dest: usize, fwd: usize, cost: f64) -> FakeNodeLsa {
        FakeNodeLsa::single(NodeId(att), NodeId(dest), cost, cost, NodeId(fwd))
    }

    #[test]
    fn identical_neighbours_fold_and_a_split_repeat_makes_two_runs() {
        let mut g = Graph::with_nodes(3);
        g.add_bidirectional_edge(NodeId(0), NodeId(1), 1.0, 1.0)
            .unwrap();
        g.add_bidirectional_edge(NodeId(1), NodeId(2), 1.0, 1.0)
            .unwrap();
        let mut lsdb = Lsdb::from_graph(&g);
        let mut shared = lie(0, 2, 1, 0.1);
        shared.prefixes.push(PrefixAdvertisement {
            destination: NodeId(1),
            cost_fake_to_destination: 0.2,
        });
        for fake in [
            lie(0, 2, 1, 0.1),
            lie(0, 2, 1, 0.1),
            lie(0, 2, 1, 0.1 + f64::EPSILON), // another cost: another run
            lie(0, 2, 1, 0.1),                // split off the first run
            shared.clone(),
            shared.clone(),
            lie(0, 2, 1, 0.1), // the prefix lists differ
        ] {
            lsdb.inject(fake);
        }
        let lies = LieRuns::new(&lsdb);
        let lengths: Vec<(usize, u32)> = lies.runs.iter().map(|r| (r.first, r.len)).collect();
        assert_eq!(lengths, [(0, 2), (2, 1), (3, 1), (4, 2), (6, 1)]);
        assert_eq!(lies.fake_count(), 7);
        assert_eq!(lies.node_id_space(), 3);
    }

    #[test]
    fn a_lie_beyond_the_routers_widens_the_node_id_space() {
        let lsdb = Lsdb::from_graph(&Graph::with_nodes(2));
        assert_eq!(LieRuns::new(&lsdb).node_id_space(), 2);
        let mut lsdb = lsdb;
        lsdb.inject(lie(0, 4, 1, 0.1));
        assert_eq!(LieRuns::new(&lsdb).node_id_space(), 5);
    }
}
