//! Psets, bridge nodes and I/O nodes.
//!
//! On BG/Q every 128 compute nodes form a *pset* served by one I/O node
//! (ION). Two of the 128 are *bridge nodes*; each bridge node has an
//! eleventh 2 GB/s link to the ION, so a pset has at most 4 GB/s of I/O
//! bandwidth (paper §III). I/O traffic is routed deterministically over the
//! torus from a compute node to its *default* bridge node, then over the
//! eleventh link to the ION.
//!
//! The real machine wires bridge nodes at fixed physical positions; we place
//! them at offsets 0 and 64 within the pset's node-id range, which preserves
//! the property the paper depends on — each bridge serves a fixed half of
//! the pset, so unbalanced data across compute nodes translates into
//! unbalanced bridge/ION load.

use crate::partition::PSET_NODES;
use crate::shape::{NodeId, Shape};
use std::fmt;

/// Identifier of a pset (and of its I/O node: they are 1:1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PsetId(pub u32);

/// Identifier of an I/O node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IonId(pub u32);

impl fmt::Display for PsetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pset{}", self.0)
    }
}

impl fmt::Display for IonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ion{}", self.0)
    }
}

/// Pset / bridge-node / ION layout for a partition.
#[derive(Debug, Clone)]
pub struct IoLayout {
    shape: Shape,
    num_psets: u32,
}

/// Number of bridge nodes per pset.
pub const BRIDGES_PER_PSET: u32 = 2;

/// Offsets of the bridge nodes within a pset's node-id range.
pub const BRIDGE_OFFSETS: [u32; BRIDGES_PER_PSET as usize] = [0, 64];

impl IoLayout {
    /// Build the I/O layout for `shape`.
    ///
    /// # Panics
    /// Panics if the partition is not a whole number of psets (all standard
    /// partitions are).
    pub fn new(shape: Shape) -> IoLayout {
        let n = shape.num_nodes();
        assert!(
            n.is_multiple_of(PSET_NODES) && n > 0,
            "partition of {n} nodes is not a whole number of {PSET_NODES}-node psets"
        );
        IoLayout {
            shape,
            num_psets: n / PSET_NODES,
        }
    }

    /// The partition shape this layout belongs to.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of psets (= number of IONs) in the partition.
    pub fn num_psets(&self) -> u32 {
        self.num_psets
    }

    /// Number of I/O nodes available to the partition.
    pub fn num_ions(&self) -> u32 {
        self.num_psets
    }

    /// The pset a compute node belongs to.
    pub fn pset_of(&self, node: NodeId) -> PsetId {
        debug_assert!(node.0 < self.shape.num_nodes());
        PsetId(node.0 / PSET_NODES)
    }

    /// The ION serving a pset.
    pub fn ion_of_pset(&self, pset: PsetId) -> IonId {
        debug_assert!(pset.0 < self.num_psets);
        IonId(pset.0)
    }

    /// The default ION a compute node's I/O traffic goes to.
    pub fn default_ion(&self, node: NodeId) -> IonId {
        self.ion_of_pset(self.pset_of(node))
    }

    /// First node id of a pset.
    pub fn pset_start(&self, pset: PsetId) -> NodeId {
        NodeId(pset.0 * PSET_NODES)
    }

    /// All compute nodes of a pset.
    pub fn pset_nodes(&self, pset: PsetId) -> impl Iterator<Item = NodeId> {
        let start = pset.0 * PSET_NODES;
        (start..start + PSET_NODES).map(NodeId)
    }

    /// The two bridge nodes of a pset.
    pub fn bridges_of_pset(&self, pset: PsetId) -> [NodeId; BRIDGES_PER_PSET as usize] {
        let start = pset.0 * PSET_NODES;
        [
            NodeId(start + BRIDGE_OFFSETS[0]),
            NodeId(start + BRIDGE_OFFSETS[1]),
        ]
    }

    /// Whether `node` is a bridge node.
    pub fn is_bridge(&self, node: NodeId) -> bool {
        let off = node.0 % PSET_NODES;
        BRIDGE_OFFSETS.contains(&off)
    }

    /// The default bridge node a compute node routes its I/O through.
    ///
    /// Each bridge serves a fixed half of the pset: nodes `0..64` use the
    /// first bridge, nodes `64..128` the second.
    pub fn default_bridge(&self, node: NodeId) -> NodeId {
        let pset = self.pset_of(node);
        let off = node.0 % PSET_NODES;
        let bridges = self.bridges_of_pset(pset);
        if off < BRIDGE_OFFSETS[1] {
            bridges[0]
        } else {
            bridges[1]
        }
    }

    /// All bridge nodes of the partition, in pset order.
    pub fn all_bridges(&self) -> Vec<NodeId> {
        (0..self.num_psets)
            .flat_map(|p| self.bridges_of_pset(PsetId(p)))
            .collect()
    }

    /// Dense index of a bridge node's I/O link in `0..num_io_links()`,
    /// or `None` if `node` is not a bridge.
    pub fn io_link_index(&self, node: NodeId) -> Option<u32> {
        let pset = node.0 / PSET_NODES;
        let off = node.0 % PSET_NODES;
        BRIDGE_OFFSETS
            .iter()
            .position(|&b| b == off)
            .map(|slot| pset * BRIDGES_PER_PSET + slot as u32)
    }

    /// Total number of I/O (eleventh) links in the partition.
    pub fn num_io_links(&self) -> u32 {
        self.num_psets * BRIDGES_PER_PSET
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::standard_shape;

    fn layout_512() -> IoLayout {
        IoLayout::new(standard_shape(512).unwrap())
    }

    #[test]
    fn pset_count() {
        assert_eq!(layout_512().num_psets(), 4);
        assert_eq!(IoLayout::new(standard_shape(8192).unwrap()).num_ions(), 64);
    }

    #[test]
    fn every_node_has_exactly_one_pset() {
        let l = layout_512();
        for node in l.shape().nodes() {
            let p = l.pset_of(node);
            assert!(l.pset_nodes(p).any(|n| n == node));
        }
    }

    #[test]
    fn pset_nodes_count_is_128() {
        let l = layout_512();
        for p in 0..l.num_psets() {
            assert_eq!(l.pset_nodes(PsetId(p)).count(), 128);
        }
    }

    #[test]
    fn two_bridges_per_pset_and_membership() {
        let l = layout_512();
        for p in 0..l.num_psets() {
            let bridges = l.bridges_of_pset(PsetId(p));
            assert_eq!(bridges.len(), 2);
            for b in bridges {
                assert!(l.is_bridge(b));
                assert_eq!(l.pset_of(b), PsetId(p));
            }
        }
        assert_eq!(l.all_bridges().len() as u32, l.num_io_links());
    }

    #[test]
    fn default_bridge_serves_own_half() {
        let l = layout_512();
        let p = PsetId(1);
        let start = l.pset_start(p).0;
        assert_eq!(l.default_bridge(NodeId(start + 10)), NodeId(start));
        assert_eq!(l.default_bridge(NodeId(start + 63)), NodeId(start));
        assert_eq!(l.default_bridge(NodeId(start + 64)), NodeId(start + 64));
        assert_eq!(l.default_bridge(NodeId(start + 127)), NodeId(start + 64));
    }

    #[test]
    fn bridge_load_is_balanced_64_each() {
        let l = layout_512();
        for p in 0..l.num_psets() {
            let mut counts = [0u32; 2];
            let bridges = l.bridges_of_pset(PsetId(p));
            for n in l.pset_nodes(PsetId(p)) {
                let b = l.default_bridge(n);
                let slot = bridges.iter().position(|&x| x == b).unwrap();
                counts[slot] += 1;
            }
            assert_eq!(counts, [64, 64]);
        }
    }

    #[test]
    fn io_link_indices_are_dense_and_unique() {
        let l = layout_512();
        let mut seen = vec![false; l.num_io_links() as usize];
        for b in l.all_bridges() {
            let i = l.io_link_index(b).unwrap();
            assert!(!seen[i as usize], "duplicate io link index");
            seen[i as usize] = true;
        }
        assert!(seen.iter().all(|&x| x));
        // Non-bridge nodes have no I/O link.
        assert_eq!(l.io_link_index(NodeId(5)), None);
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn non_pset_multiple_panics() {
        IoLayout::new(Shape::new(2, 2, 2, 2, 2)); // 32 nodes
    }
}
