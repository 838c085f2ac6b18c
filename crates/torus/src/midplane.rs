//! Mira's physical packaging hierarchy.
//!
//! The machine is built from *node boards* of 32 compute nodes
//! (a `2x2x2x2x2` sub-torus), 16 of which form a *midplane* of 512 nodes
//! (`4x4x4x4x2`); two midplanes fill a rack, and Mira has 48 racks
//! (49,152 nodes). Jobs smaller than a midplane get rectangular
//! *sub-blocks*; larger jobs get whole midplanes wired into larger tori.
//! The paper's partitions (§III: "the machine can be partitioned into
//! non-overlapping rectangular submachines") follow this hierarchy, which
//! is why every standard partition shape is a product of these unit
//! shapes.

use crate::shape::Shape;

/// Nodes in one node board.
pub const NODE_BOARD_NODES: u32 = 32;

/// The sub-torus shape of a node board.
pub fn node_board_shape() -> Shape {
    Shape::new(2, 2, 2, 2, 2)
}

/// Nodes in one midplane.
pub const MIDPLANE_NODES: u32 = 512;

/// The torus shape of a midplane.
pub fn midplane_shape() -> Shape {
    Shape::new(4, 4, 4, 4, 2)
}

/// Number of midplanes needed for a partition of `shape`.
///
/// Partitions of at least one midplane are whole numbers of midplanes;
/// smaller ones are sub-blocks of a single midplane (reported as 1).
pub fn midplanes_for(shape: &Shape) -> u32 {
    shape.num_nodes().div_ceil(MIDPLANE_NODES)
}

/// Whether `shape` is a valid sub-block: every dimension extent divides
/// the corresponding midplane extent, or is a multiple of it.
///
/// Sub-midplane blocks halve dimensions of the midplane; super-midplane
/// partitions multiply them. Mixed shapes (one dimension bigger, another
/// not dividing) do not occur on the real machine.
pub fn is_valid_partition(shape: &Shape) -> bool {
    let mp = midplane_shape();
    let n = shape.num_nodes();
    if n < MIDPLANE_NODES {
        // Sub-block: each extent must divide the midplane's.
        crate::coords::Dim::ALL
            .into_iter()
            .all(|d| mp.extent(d).is_multiple_of(shape.extent(d)))
    } else {
        // Multi-midplane: each extent must be a multiple of the midplane's.
        crate::coords::Dim::ALL
            .into_iter()
            .all(|d| shape.extent(d).is_multiple_of(mp.extent(d)))
    }
}

/// Decompose a partition into its (logical) midplane grid: how many
/// midplanes along each dimension. Only meaningful for multi-midplane
/// partitions.
pub fn midplane_grid(shape: &Shape) -> Option<[u16; 5]> {
    if shape.num_nodes() < MIDPLANE_NODES || !is_valid_partition(shape) {
        return None;
    }
    let mp = midplane_shape();
    Some(std::array::from_fn(|i| shape.0[i] / mp.0[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{standard_shape, STANDARD_SIZES};

    #[test]
    fn unit_shapes_have_right_sizes() {
        assert_eq!(node_board_shape().num_nodes(), NODE_BOARD_NODES);
        assert_eq!(midplane_shape().num_nodes(), MIDPLANE_NODES);
    }

    #[test]
    fn all_standard_partitions_are_valid() {
        for n in STANDARD_SIZES {
            let s = standard_shape(n).unwrap();
            assert!(is_valid_partition(&s), "{s} invalid");
        }
    }

    #[test]
    fn midplane_counts() {
        assert_eq!(midplanes_for(&standard_shape(128).unwrap()), 1);
        assert_eq!(midplanes_for(&standard_shape(512).unwrap()), 1);
        assert_eq!(midplanes_for(&standard_shape(2048).unwrap()), 4);
        assert_eq!(midplanes_for(&standard_shape(49152).unwrap()), 96);
    }

    #[test]
    fn midplane_grid_for_large_partitions() {
        assert_eq!(
            midplane_grid(&standard_shape(2048).unwrap()),
            Some([1, 1, 1, 4, 1])
        );
        assert_eq!(
            midplane_grid(&standard_shape(8192).unwrap()),
            Some([1, 2, 2, 4, 1])
        );
        assert_eq!(midplane_grid(&standard_shape(128).unwrap()), None);
    }

    #[test]
    fn invalid_shapes_are_rejected() {
        // 3 does not divide the midplane's 4.
        assert!(!is_valid_partition(&Shape::new(3, 4, 4, 4, 2)));
        // 6 is not a multiple of 4 for a super-midplane shape.
        assert!(!is_valid_partition(&Shape::new(6, 4, 4, 16, 2)));
    }
}
