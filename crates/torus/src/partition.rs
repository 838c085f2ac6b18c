//! Standard ALCF/Mira partition shapes.
//!
//! Mira can be partitioned into non-overlapping rectangular sub-machines
//! (paper §III). Jobs are allocated in power-of-two node counts; each count
//! has a standard torus shape. The shapes below match the ones the paper
//! names explicitly (128 = `2x2x4x4x2`, 512 = `4x4x4x4x2`,
//! 2048 = `4x4x4x16x2`) and interpolate the remaining powers of two the way
//! ALCF blocks are built (doubling one dimension at a time), up to the full
//! 49,152-node machine (`8x12x16x16x2`).

use crate::shape::Shape;

/// Nodes per pset: each group of 128 compute nodes shares one I/O node
/// reached through two bridge nodes (paper §III).
pub const PSET_NODES: u32 = 128;

/// Hardware threads/cores usable per node for application ranks.
pub const CORES_PER_NODE: u32 = 16;

/// The standard torus shape for a partition of `nodes` compute nodes, or
/// `None` if no standard partition of that size exists.
pub fn standard_shape(nodes: u32) -> Option<Shape> {
    let s = match nodes {
        128 => Shape::new(2, 2, 4, 4, 2),
        256 => Shape::new(4, 2, 4, 4, 2),
        512 => Shape::new(4, 4, 4, 4, 2),
        1024 => Shape::new(4, 4, 4, 8, 2),
        2048 => Shape::new(4, 4, 4, 16, 2),
        4096 => Shape::new(4, 4, 8, 16, 2),
        8192 => Shape::new(4, 8, 8, 16, 2),
        16384 => Shape::new(8, 8, 8, 16, 2),
        49152 => Shape::new(8, 12, 16, 16, 2),
        _ => return None,
    };
    debug_assert_eq!(s.num_nodes(), nodes);
    Some(s)
}

/// The standard shape for a partition with `cores` compute cores
/// (16 per node).
pub fn shape_for_cores(cores: u32) -> Option<Shape> {
    if !cores.is_multiple_of(CORES_PER_NODE) {
        return None;
    }
    standard_shape(cores / CORES_PER_NODE)
}

/// All standard partition sizes (in nodes) in increasing order.
pub const STANDARD_SIZES: [u32; 9] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 49152];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_standard_shapes_have_right_node_count() {
        for n in STANDARD_SIZES {
            let s = standard_shape(n).unwrap();
            assert_eq!(s.num_nodes(), n, "shape {s} for {n} nodes");
        }
    }

    #[test]
    fn paper_named_partitions() {
        assert_eq!(standard_shape(128).unwrap(), Shape::new(2, 2, 4, 4, 2));
        assert_eq!(standard_shape(512).unwrap(), Shape::new(4, 4, 4, 4, 2));
        assert_eq!(standard_shape(2048).unwrap(), Shape::new(4, 4, 4, 16, 2));
    }

    #[test]
    fn unknown_sizes_return_none() {
        assert!(standard_shape(100).is_none());
        assert!(standard_shape(0).is_none());
    }

    #[test]
    fn shape_for_cores_scales_by_16() {
        // The paper's weak-scaling study: 2,048 .. 131,072 cores.
        assert_eq!(shape_for_cores(2048).unwrap().num_nodes(), 128);
        assert_eq!(shape_for_cores(131072).unwrap().num_nodes(), 8192);
        assert!(shape_for_cores(100).is_none());
    }

    #[test]
    fn partitions_are_pset_multiples() {
        for n in STANDARD_SIZES {
            assert_eq!(n % PSET_NODES, 0);
        }
    }
}
