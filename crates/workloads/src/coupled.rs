//! Coupled multiphysics layouts (the paper's §I/§IV.C scenario).
//!
//! A coupled code (e.g. the Community Earth System Model the paper cites)
//! runs several physics modules on disjoint, *contiguous* partitions of
//! the machine; at coupling steps one module's boundary or field data
//! moves to another module while the rest of the machine is quiet. These
//! helpers carve a partition into contiguous module layouts and produce
//! the pairwise coupling pattern between two modules.

use bgq_torus::NodeId;
use std::ops::Range;

/// One physics module's placement: a contiguous range of node ids
/// (contiguity is the paper's §IV.C assumption, and how production
/// coupled codes map, to keep intra-module communication local).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModuleLayout {
    pub name: String,
    pub nodes: Range<u32>,
}

impl ModuleLayout {
    pub fn len(&self) -> u32 {
        self.nodes.end - self.nodes.start
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        self.nodes.clone().map(NodeId)
    }
}

/// Split `num_nodes` among modules proportionally to `weights`,
/// contiguously and in order. Every module receives at least one node;
/// remainders go to the earliest modules.
///
/// # Panics
/// Panics if there are more modules than nodes, or no modules.
pub fn partition_modules(num_nodes: u32, weights: &[(&str, u32)]) -> Vec<ModuleLayout> {
    assert!(!weights.is_empty(), "need at least one module");
    assert!(weights.len() as u32 <= num_nodes, "more modules than nodes");
    assert!(
        weights.iter().all(|&(_, w)| w > 0),
        "weights must be positive"
    );
    let total_w: u64 = weights.iter().map(|&(_, w)| w as u64).sum();

    // Ideal shares, floored, with at least 1 node each.
    let mut sizes: Vec<u32> = weights
        .iter()
        .map(|&(_, w)| (((num_nodes as u64) * (w as u64)) / total_w).max(1) as u32)
        .collect();
    // Distribute the remainder (or claw back excess) deterministically.
    let mut assigned: i64 = sizes.iter().map(|&s| s as i64).sum();
    let mut i = 0usize;
    let n_mods = sizes.len();
    while assigned < num_nodes as i64 {
        sizes[i % n_mods] += 1;
        assigned += 1;
        i += 1;
    }
    while assigned > num_nodes as i64 {
        let j = (0..sizes.len()).max_by_key(|&j| sizes[j]).unwrap();
        assert!(sizes[j] > 1, "cannot shrink below one node per module");
        sizes[j] -= 1;
        assigned -= 1;
    }

    let mut out = Vec::with_capacity(weights.len());
    let mut start = 0u32;
    for (&(name, _), &size) in weights.iter().zip(&sizes) {
        out.push(ModuleLayout {
            name: name.to_string(),
            nodes: start..start + size,
        });
        start += size;
    }
    debug_assert_eq!(start, num_nodes);
    out
}

/// Pairwise coupling between two modules: node `i` of the smaller module
/// exchanges with node `i · ratio` of the larger (surface-to-volume style
/// striding when the modules differ in size).
pub fn coupling_pairs(a: &ModuleLayout, b: &ModuleLayout) -> Vec<(NodeId, NodeId)> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let (small, big, flip) = if a.len() <= b.len() {
        (a, b, false)
    } else {
        (b, a, true)
    };
    let ratio = big.len() as f64 / small.len() as f64;
    (0..small.len())
        .map(|i| {
            let j = ((i as f64 * ratio) as u32).min(big.len() - 1);
            let s = NodeId(small.nodes.start + i);
            let d = NodeId(big.nodes.start + j);
            if flip {
                (d, s)
            } else {
                (s, d)
            }
        })
        .collect()
}

/// Per-coupling-step volume for a module pair: `cells_per_node` boundary
/// cells of `bytes_per_cell` each (a simple surface-exchange model).
pub fn coupling_bytes(cells_per_node: u64, bytes_per_cell: u64) -> u64 {
    cells_per_node * bytes_per_cell
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_exact() {
        let mods = partition_modules(512, &[("atm", 2), ("ocn", 1), ("ice", 1)]);
        assert_eq!(mods.len(), 3);
        assert_eq!(mods[0].nodes, 0..256);
        assert_eq!(mods[1].nodes, 256..384);
        assert_eq!(mods[2].nodes, 384..512);
        let total: u32 = mods.iter().map(|m| m.len()).sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn rounding_remainders_are_distributed() {
        let mods = partition_modules(10, &[("a", 1), ("b", 1), ("c", 1)]);
        let sizes: Vec<u32> = mods.iter().map(|m| m.len()).collect();
        assert_eq!(sizes.iter().sum::<u32>(), 10);
        assert!(sizes.iter().all(|&s| (3..=4).contains(&s)));
        // Contiguity across boundaries.
        assert_eq!(mods[0].nodes.end, mods[1].nodes.start);
        assert_eq!(mods[1].nodes.end, mods[2].nodes.start);
    }

    #[test]
    fn every_module_gets_a_node() {
        let mods = partition_modules(4, &[("a", 1000), ("b", 1), ("c", 1), ("d", 1)]);
        assert!(mods.iter().all(|m| !m.is_empty()));
        assert_eq!(mods.iter().map(|m| m.len()).sum::<u32>(), 4);
    }

    #[test]
    fn equal_modules_pair_identically() {
        let a = ModuleLayout {
            name: "a".into(),
            nodes: 0..4,
        };
        let b = ModuleLayout {
            name: "b".into(),
            nodes: 8..12,
        };
        let pairs = coupling_pairs(&a, &b);
        assert_eq!(
            pairs,
            vec![
                (NodeId(0), NodeId(8)),
                (NodeId(1), NodeId(9)),
                (NodeId(2), NodeId(10)),
                (NodeId(3), NodeId(11)),
            ]
        );
    }

    #[test]
    fn unequal_modules_stride() {
        let small = ModuleLayout {
            name: "s".into(),
            nodes: 0..2,
        };
        let big = ModuleLayout {
            name: "b".into(),
            nodes: 10..18,
        };
        let pairs = coupling_pairs(&small, &big);
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (NodeId(0), NodeId(10)));
        assert_eq!(pairs[1], (NodeId(1), NodeId(14)));
        // Flipped argument order swaps the pair orientation.
        let flipped = coupling_pairs(&big, &small);
        assert_eq!(flipped[0], (NodeId(10), NodeId(0)));
    }

    #[test]
    fn coupling_volume() {
        assert_eq!(coupling_bytes(1024, 8), 8192);
    }

    #[test]
    #[should_panic(expected = "more modules than nodes")]
    fn too_many_modules_panics() {
        partition_modules(2, &[("a", 1), ("b", 1), ("c", 1)]);
    }
}
