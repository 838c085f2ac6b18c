//! Sub-communicators over node sets.
//!
//! Algorithm 2's Init "can create a subcomm using `MPI_Comm_create` for
//! each sub-network and select the MPI rank 0 of the subcomm as the
//! aggregator" (paper §IV.D). A [`SubComm`] is exactly that: an ordered
//! subset of nodes with local ranks, usable as the participant list of
//! any scheduled collective.

use crate::collectives::CollectiveModel;
use bgq_torus::NodeId;
use std::collections::HashMap;

/// An ordered subset of compute nodes with dense local ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubComm {
    members: Vec<NodeId>,
    index: HashMap<NodeId, u32>,
}

impl SubComm {
    /// Build a sub-communicator from an ordered member list.
    ///
    /// # Panics
    /// Panics on duplicates or an empty list.
    pub fn new(members: Vec<NodeId>) -> SubComm {
        assert!(!members.is_empty(), "a communicator needs members");
        let mut index = HashMap::with_capacity(members.len());
        for (i, &n) in members.iter().enumerate() {
            let prev = index.insert(n, i as u32);
            assert!(prev.is_none(), "duplicate member {n}");
        }
        SubComm { members, index }
    }

    /// Split a node set into sub-communicators by a color function (the
    /// `MPI_Comm_split` pattern). Returns the communicators ordered by
    /// color; members keep their relative order.
    pub fn split(nodes: &[NodeId], color: impl Fn(NodeId) -> u32) -> Vec<SubComm> {
        let mut buckets: Vec<(u32, Vec<NodeId>)> = Vec::new();
        for &n in nodes {
            let c = color(n);
            match buckets.iter_mut().find(|(bc, _)| *bc == c) {
                Some((_, v)) => v.push(n),
                None => buckets.push((c, vec![n])),
            }
        }
        buckets.sort_by_key(|(c, _)| *c);
        buckets.into_iter().map(|(_, v)| SubComm::new(v)).collect()
    }

    /// Number of members.
    pub fn size(&self) -> u32 {
        self.members.len() as u32
    }

    /// The members in local-rank order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// The root (local rank 0) — Algorithm 2's aggregator choice.
    pub fn root(&self) -> NodeId {
        self.members[0]
    }

    /// Local rank of a node, if it is a member.
    pub fn local_rank(&self, node: NodeId) -> Option<u32> {
        self.index.get(&node).copied()
    }

    /// The member at a local rank.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn member(&self, local_rank: u32) -> NodeId {
        self.members[local_rank as usize]
    }

    /// Modeled cost of a barrier over this communicator.
    pub fn barrier_cost(&self, model: &CollectiveModel<'_>) -> f64 {
        model.barrier(self.size())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use bgq_netsim::SimConfig;
    use bgq_torus::{standard_shape, IoLayout, PsetId};

    #[test]
    fn ranks_are_dense_and_ordered() {
        let c = SubComm::new(vec![NodeId(5), NodeId(2), NodeId(9)]);
        assert_eq!(c.size(), 3);
        assert_eq!(c.root(), NodeId(5));
        assert_eq!(c.local_rank(NodeId(2)), Some(1));
        assert_eq!(c.local_rank(NodeId(7)), None);
        assert_eq!(c.member(2), NodeId(9));
    }

    #[test]
    fn split_by_pset_reproduces_alg2_subcomms() {
        // The paper's usage: one subcomm per sub-network (pset block),
        // rank 0 of each becomes the aggregator.
        let shape = standard_shape(512).unwrap();
        let layout = IoLayout::new(shape);
        let nodes: Vec<NodeId> = shape.nodes().collect();
        let comms = SubComm::split(&nodes, |n| layout.pset_of(n).0);
        assert_eq!(comms.len(), 4);
        for (p, c) in comms.iter().enumerate() {
            assert_eq!(c.size(), 128);
            assert_eq!(c.root(), layout.pset_start(PsetId(p as u32)));
            for &m in c.members() {
                assert_eq!(layout.pset_of(m).0, p as u32);
            }
        }
    }

    #[test]
    fn split_preserves_relative_order() {
        let nodes = vec![NodeId(3), NodeId(0), NodeId(4), NodeId(1)];
        let comms = SubComm::split(&nodes, |n| n.0 % 2);
        assert_eq!(comms[0].members(), &[NodeId(0), NodeId(4)]);
        assert_eq!(comms[1].members(), &[NodeId(3), NodeId(1)]);
    }

    #[test]
    fn barrier_cost_grows_with_size() {
        let m = Machine::new(standard_shape(128).unwrap(), SimConfig::default());
        let model = CollectiveModel::new(&m);
        let small = SubComm::new((0..4).map(NodeId).collect());
        let big = SubComm::new((0..64).map(NodeId).collect());
        assert!(big.barrier_cost(&model) > small.barrier_cost(&model));
    }

    #[test]
    #[should_panic(expected = "duplicate member")]
    fn duplicates_panic() {
        SubComm::new(vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    #[should_panic(expected = "needs members")]
    fn empty_panics() {
        SubComm::new(Vec::new());
    }
}
