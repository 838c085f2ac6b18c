//! Torus shapes (partition dimensions) and node identifiers.

use crate::coords::{Coord, Dim, Direction, NDIMS};
use std::fmt;

/// Identifier of a compute node within a partition.
///
/// Node ids are dense in `0..shape.num_nodes()` and correspond to the
/// row-major `ABCDE` ordering of coordinates (`E` varies fastest), the same
/// ordering used by the default BG/Q rank mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The shape of a torus partition: the extent of each of the five dimensions.
///
/// For example Mira's full machine is `8x12x16x16x2` (49,152 nodes) and the
/// paper's 128-node partition is `2x2x4x4x2`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Shape(pub [u16; NDIMS]);

impl Shape {
    /// Build a shape from the five dimension extents.
    ///
    /// # Panics
    /// Panics if any extent is zero.
    pub fn new(a: u16, b: u16, c: u16, d: u16, e: u16) -> Shape {
        let s = Shape([a, b, c, d, e]);
        assert!(
            s.0.iter().all(|&x| x > 0),
            "torus dimensions must be nonzero: {s}"
        );
        s
    }

    /// Extent along `dim`.
    #[inline]
    pub fn extent(&self, dim: Dim) -> u16 {
        self.0[dim.index()]
    }

    /// Total number of nodes in the partition.
    pub fn num_nodes(&self) -> u32 {
        self.0.iter().map(|&x| x as u32).product()
    }

    /// Whether `c` lies inside this shape.
    pub fn contains(&self, c: Coord) -> bool {
        c.0.iter().zip(self.0.iter()).all(|(&ci, &si)| ci < si)
    }

    /// Dense node id of a coordinate (row-major `ABCDE`, `E` fastest).
    ///
    /// # Panics
    /// Panics if `c` is outside the shape.
    pub fn node_id(&self, c: Coord) -> NodeId {
        assert!(self.contains(c), "coordinate {c} outside shape {self}");
        let mut id: u32 = 0;
        for i in 0..NDIMS {
            id = id * self.0[i] as u32 + c.0[i] as u32;
        }
        NodeId(id)
    }

    /// Coordinate of a node id (inverse of [`Shape::node_id`]).
    ///
    /// # Panics
    /// Panics if `n` is out of range.
    pub fn coord(&self, n: NodeId) -> Coord {
        assert!(
            n.0 < self.num_nodes(),
            "node {n} out of range for shape {self}"
        );
        let mut rem = n.0;
        let mut c = [0u16; NDIMS];
        for i in (0..NDIMS).rev() {
            let ext = self.0[i] as u32;
            c[i] = (rem % ext) as u16;
            rem /= ext;
        }
        Coord(c)
    }

    /// Iterate over all node ids in the partition.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Iterate over all coordinates in row-major `ABCDE` order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        self.nodes().map(move |n| self.coord(n))
    }

    /// The neighbour of `c` one hop away in `dir`, with torus wraparound.
    pub fn neighbor(&self, c: Coord, dir: Direction) -> Coord {
        let ext = self.extent(dir.dim) as i32;
        let cur = c.get(dir.dim) as i32;
        let next = (cur + dir.sign.delta()).rem_euclid(ext) as u16;
        c.with(dir.dim, next)
    }

    /// Signed shortest displacement from `from` to `to` along `dim`.
    ///
    /// The magnitude is the hop count along that dimension; the sign is the
    /// direction of travel. Ties (exactly half way around an even-sized
    /// ring) are broken toward the positive direction, matching the
    /// deterministic tie-break of BG/Q zone-2/3 routing.
    pub fn signed_delta(&self, from: Coord, to: Coord, dim: Dim) -> i32 {
        let ext = self.extent(dim) as i32;
        let diff = (to.get(dim) as i32 - from.get(dim) as i32).rem_euclid(ext);
        if diff == 0 {
            0
        } else if diff * 2 <= ext {
            diff // forward (positive) is shortest, or tie -> positive
        } else {
            diff - ext // negative direction is shorter
        }
    }

    /// Torus (Manhattan-with-wraparound) hop distance between two nodes.
    pub fn distance(&self, from: Coord, to: Coord) -> u32 {
        Dim::ALL
            .into_iter()
            .map(|d| self.signed_delta(from, to, d).unsigned_abs())
            .sum()
    }

    /// Per-dimension unsigned hop counts from `from` to `to`.
    pub fn hops_per_dim(&self, from: Coord, to: Coord) -> [u32; NDIMS] {
        let mut h = [0u32; NDIMS];
        for d in Dim::ALL {
            h[d.index()] = self.signed_delta(from, to, d).unsigned_abs();
        }
        h
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{}x{}x{}x{}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coords::Sign;

    fn paper_128() -> Shape {
        Shape::new(2, 2, 4, 4, 2)
    }

    #[test]
    fn num_nodes_matches_paper_partitions() {
        assert_eq!(paper_128().num_nodes(), 128);
        assert_eq!(Shape::new(4, 4, 4, 4, 2).num_nodes(), 512);
        assert_eq!(Shape::new(4, 4, 4, 16, 2).num_nodes(), 2048);
        assert_eq!(Shape::new(8, 12, 16, 16, 2).num_nodes(), 49152);
    }

    #[test]
    fn node_id_round_trip() {
        let s = paper_128();
        for n in s.nodes() {
            assert_eq!(s.node_id(s.coord(n)), n);
        }
    }

    #[test]
    fn node_id_is_row_major_abcde() {
        let s = paper_128();
        // E varies fastest.
        assert_eq!(s.node_id(Coord::new(0, 0, 0, 0, 0)).0, 0);
        assert_eq!(s.node_id(Coord::new(0, 0, 0, 0, 1)).0, 1);
        assert_eq!(s.node_id(Coord::new(0, 0, 0, 1, 0)).0, 2);
        assert_eq!(s.node_id(Coord::new(0, 0, 1, 0, 0)).0, 8);
        assert_eq!(s.node_id(Coord::new(0, 1, 0, 0, 0)).0, 32);
        assert_eq!(s.node_id(Coord::new(1, 0, 0, 0, 0)).0, 64);
    }

    #[test]
    fn neighbor_wraps_around() {
        let s = paper_128();
        let c = Coord::new(0, 0, 0, 0, 0);
        let plus_a = s.neighbor(c, Direction::new(Dim::A, Sign::Plus));
        assert_eq!(plus_a, Coord::new(1, 0, 0, 0, 0));
        let minus_a = s.neighbor(c, Direction::new(Dim::A, Sign::Minus));
        assert_eq!(
            minus_a,
            Coord::new(1, 0, 0, 0, 0),
            "size-2 ring wraps to same node"
        );
        let minus_c = s.neighbor(c, Direction::new(Dim::C, Sign::Minus));
        assert_eq!(minus_c, Coord::new(0, 0, 3, 0, 0));
    }

    #[test]
    fn signed_delta_shortest_and_tie_break() {
        let s = Shape::new(4, 4, 4, 4, 2);
        let o = Coord::new(0, 0, 0, 0, 0);
        assert_eq!(s.signed_delta(o, Coord::new(1, 0, 0, 0, 0), Dim::A), 1);
        assert_eq!(s.signed_delta(o, Coord::new(3, 0, 0, 0, 0), Dim::A), -1);
        // Halfway around an even ring: tie broken toward positive.
        assert_eq!(s.signed_delta(o, Coord::new(2, 0, 0, 0, 0), Dim::A), 2);
        assert_eq!(s.signed_delta(o, o, Dim::A), 0);
    }

    #[test]
    fn distance_is_sum_of_dim_hops() {
        let s = Shape::new(4, 4, 4, 16, 2);
        let a = Coord::new(0, 0, 0, 0, 0);
        let b = Coord::new(3, 3, 3, 15, 1);
        // shortest: 1 + 1 + 1 + 1 + 1 (all wrap)
        assert_eq!(s.distance(a, b), 5);
        let c = Coord::new(2, 2, 2, 8, 1);
        assert_eq!(s.distance(a, c), 2 + 2 + 2 + 8 + 1);
    }

    #[test]
    fn distance_symmetry() {
        let s = Shape::new(4, 4, 4, 8, 2);
        let a = Coord::new(1, 2, 3, 5, 0);
        let b = Coord::new(3, 0, 1, 7, 1);
        assert_eq!(s.distance(a, b), s.distance(b, a));
    }

    #[test]
    #[should_panic(expected = "outside shape")]
    fn node_id_out_of_shape_panics() {
        paper_128().node_id(Coord::new(5, 0, 0, 0, 0));
    }
}
