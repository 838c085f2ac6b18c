//! BG/Q map files: explicit rank → coordinate mappings.
//!
//! Besides the permutation mappings (`ABCDET`, …), BG/Q jobs can supply a
//! *map file* via `runjob --mapping`, one line per rank with the
//! coordinates `A B C D E T`. Topology-aware applications (including the
//! paper's multiphysics layouts) use these to place ranks precisely. This
//! module parses and validates that format and turns it into a rank
//! lookup usable wherever a [`RankMap`](crate::RankMap) is.

use crate::coords::Coord;
use crate::shape::{NodeId, Shape};
use std::fmt;

/// A parsed, validated map file: one `(node, slot)` per rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapFile {
    shape: Shape,
    ranks_per_node: u32,
    /// `placement[rank] = (node, slot)`.
    placement: Vec<(NodeId, u32)>,
}

/// Errors from map-file parsing/validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapFileError {
    /// Line did not contain exactly six integers.
    Malformed { line: usize },
    /// Coordinates outside the partition shape.
    OutOfShape { line: usize },
    /// `T` coordinate at or beyond ranks-per-node.
    SlotOutOfRange { line: usize, slot: u32 },
    /// The same `(node, slot)` was assigned to two ranks.
    DuplicatePlacement { line: usize },
    /// The file had no lines.
    Empty,
}

impl fmt::Display for MapFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapFileError::Malformed { line } => {
                write!(f, "line {line}: expected six integers 'A B C D E T'")
            }
            MapFileError::OutOfShape { line } => {
                write!(f, "line {line}: coordinates outside the partition")
            }
            MapFileError::SlotOutOfRange { line, slot } => {
                write!(f, "line {line}: T coordinate {slot} out of range")
            }
            MapFileError::DuplicatePlacement { line } => {
                write!(f, "line {line}: (node, slot) already taken")
            }
            MapFileError::Empty => write!(f, "map file has no entries"),
        }
    }
}

impl std::error::Error for MapFileError {}

impl MapFile {
    /// Parse map-file text (`A B C D E T` per line; blank lines and `#`
    /// comments allowed). Rank `i` is the i-th data line.
    pub fn parse(text: &str, shape: Shape, ranks_per_node: u32) -> Result<MapFile, MapFileError> {
        let mut placement = Vec::new();
        let mut seen = vec![false; (shape.num_nodes() * ranks_per_node) as usize];
        for (lineno, raw) in text.lines().enumerate() {
            let line = lineno + 1;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let nums: Vec<u32> = trimmed
                .split_whitespace()
                .map(|t| t.parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|_| MapFileError::Malformed { line })?;
            if nums.len() != 6 {
                return Err(MapFileError::Malformed { line });
            }
            let c = Coord::new(
                nums[0] as u16,
                nums[1] as u16,
                nums[2] as u16,
                nums[3] as u16,
                nums[4] as u16,
            );
            if !shape.contains(c) {
                return Err(MapFileError::OutOfShape { line });
            }
            let slot = nums[5];
            if slot >= ranks_per_node {
                return Err(MapFileError::SlotOutOfRange { line, slot });
            }
            let node = shape.node_id(c);
            let key = (node.0 * ranks_per_node + slot) as usize;
            if seen[key] {
                return Err(MapFileError::DuplicatePlacement { line });
            }
            seen[key] = true;
            placement.push((node, slot));
        }
        if placement.is_empty() {
            return Err(MapFileError::Empty);
        }
        Ok(MapFile {
            shape,
            ranks_per_node,
            placement,
        })
    }

    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of ranks the file places.
    pub fn num_ranks(&self) -> u32 {
        self.placement.len() as u32
    }

    /// The node hosting `rank`.
    ///
    /// # Panics
    /// Panics if the rank is out of range.
    pub fn node_of(&self, rank: u32) -> NodeId {
        self.placement[rank as usize].0
    }

    /// The on-node slot of `rank`.
    pub fn slot_of(&self, rank: u32) -> u32 {
        self.placement[rank as usize].1
    }

    /// Render back to map-file text (inverse of [`MapFile::parse`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for &(node, slot) in &self.placement {
            let c = self.shape.coord(node);
            out.push_str(&format!(
                "{} {} {} {} {} {}\n",
                c.0[0], c.0[1], c.0[2], c.0[3], c.0[4], slot
            ));
        }
        out
    }

    /// Generate the text of the default `ABCDET` mapping for a shape — a
    /// starting point for hand-tuned map files.
    pub fn default_text(shape: &Shape, ranks_per_node: u32) -> String {
        let mut out = String::new();
        for n in shape.nodes() {
            let c = shape.coord(n);
            for t in 0..ranks_per_node {
                out.push_str(&format!(
                    "{} {} {} {} {} {}\n",
                    c.0[0], c.0[1], c.0[2], c.0[3], c.0[4], t
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::standard_shape;

    fn shape() -> Shape {
        standard_shape(128).unwrap()
    }

    #[test]
    fn parse_simple_mapping() {
        let text = "0 0 0 0 0 0\n0 0 0 0 1 0\n# comment\n\n1 1 3 3 1 0\n";
        let m = MapFile::parse(text, shape(), 16).unwrap();
        assert_eq!(m.num_ranks(), 3);
        assert_eq!(m.node_of(0), NodeId(0));
        assert_eq!(m.node_of(1), NodeId(1));
        assert_eq!(m.node_of(2), NodeId(127));
        assert_eq!(m.slot_of(2), 0);
    }

    #[test]
    fn default_text_round_trips() {
        let s = shape();
        let text = MapFile::default_text(&s, 4);
        let m = MapFile::parse(&text, s, 4).unwrap();
        assert_eq!(m.num_ranks(), 512);
        // ABCDET: rank = node * rpn + t.
        for r in [0u32, 5, 511] {
            assert_eq!(m.node_of(r), NodeId(r / 4));
            assert_eq!(m.slot_of(r), r % 4);
        }
        assert_eq!(m.render(), text);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert_eq!(
            MapFile::parse("0 0 0 0 0\n", shape(), 16),
            Err(MapFileError::Malformed { line: 1 })
        );
        assert_eq!(
            MapFile::parse("0 0 0 x 0 0\n", shape(), 16),
            Err(MapFileError::Malformed { line: 1 })
        );
    }

    #[test]
    fn rejects_out_of_shape() {
        assert_eq!(
            MapFile::parse("9 0 0 0 0 0\n", shape(), 16),
            Err(MapFileError::OutOfShape { line: 1 })
        );
    }

    #[test]
    fn rejects_bad_slot_and_duplicates() {
        assert_eq!(
            MapFile::parse("0 0 0 0 0 16\n", shape(), 16),
            Err(MapFileError::SlotOutOfRange { line: 1, slot: 16 })
        );
        assert_eq!(
            MapFile::parse("0 0 0 0 0 3\n0 0 0 0 0 3\n", shape(), 16),
            Err(MapFileError::DuplicatePlacement { line: 2 })
        );
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(
            MapFile::parse("# nothing\n", shape(), 16),
            Err(MapFileError::Empty)
        );
    }

    #[test]
    fn errors_display() {
        let e = MapFileError::SlotOutOfRange { line: 7, slot: 20 };
        assert!(e.to_string().contains("line 7"));
    }
}
