//! Coordinates, dimensions and directions of the Blue Gene/Q 5D torus.
//!
//! The BG/Q interconnect is a five-dimensional torus with dimensions
//! conventionally named `A`, `B`, `C`, `D`, `E`. Every compute node has ten
//! torus links: one in the positive and one in the negative direction of
//! each dimension (plus an eleventh I/O link on bridge nodes, modelled in
//! `bgq-iosys`).

use std::fmt;

/// Number of torus dimensions.
pub const NDIMS: usize = 5;

/// A torus dimension (`A` through `E`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dim {
    A,
    B,
    C,
    D,
    E,
}

impl Dim {
    /// All dimensions in canonical `A..E` order.
    pub const ALL: [Dim; NDIMS] = [Dim::A, Dim::B, Dim::C, Dim::D, Dim::E];

    /// Index of this dimension in canonical order (`A` = 0 … `E` = 4).
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Dimension with the given canonical index.
    ///
    /// # Panics
    /// Panics if `i >= 5`.
    #[inline]
    pub fn from_index(i: usize) -> Dim {
        Dim::ALL[i]
    }

    /// One-letter name of the dimension.
    pub fn name(self) -> &'static str {
        match self {
            Dim::A => "A",
            Dim::B => "B",
            Dim::C => "C",
            Dim::D => "D",
            Dim::E => "E",
        }
    }
}

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Sign of a direction along a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sign {
    Plus,
    Minus,
}

impl Sign {
    /// `+1` for `Plus`, `-1` for `Minus`.
    #[inline]
    pub fn delta(self) -> i32 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }

    /// The opposite sign.
    #[inline]
    pub fn opposite(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sign::Plus => "+",
            Sign::Minus => "-",
        })
    }
}

/// One of the ten torus directions (a dimension plus a sign), e.g. `+B`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Direction {
    pub dim: Dim,
    pub sign: Sign,
}

impl Direction {
    /// Construct a direction.
    #[inline]
    pub fn new(dim: Dim, sign: Sign) -> Direction {
        Direction { dim, sign }
    }

    /// All ten directions: `+A, -A, +B, -B, …, +E, -E`.
    pub fn all() -> impl Iterator<Item = Direction> {
        Dim::ALL.into_iter().flat_map(|dim| {
            [Sign::Plus, Sign::Minus]
                .into_iter()
                .map(move |sign| Direction { dim, sign })
        })
    }

    /// Dense index in `0..10`: `+A`=0, `-A`=1, `+B`=2, …, `-E`=9.
    #[inline]
    pub fn index(self) -> usize {
        self.dim.index() * 2
            + match self.sign {
                Sign::Plus => 0,
                Sign::Minus => 1,
            }
    }

    /// Direction with the given dense index.
    ///
    /// # Panics
    /// Panics if `i >= 10`.
    #[inline]
    pub fn from_index(i: usize) -> Direction {
        assert!(i < 2 * NDIMS, "direction index {i} out of range");
        Direction {
            dim: Dim::from_index(i / 2),
            sign: if i.is_multiple_of(2) {
                Sign::Plus
            } else {
                Sign::Minus
            },
        }
    }

    /// The opposite direction (same dimension, opposite sign).
    #[inline]
    pub fn opposite(self) -> Direction {
        Direction {
            dim: self.dim,
            sign: self.sign.opposite(),
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.sign, self.dim)
    }
}

/// A coordinate in the 5D torus, one component per dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Coord(pub [u16; NDIMS]);

impl Coord {
    /// Build a coordinate from its five components.
    #[inline]
    pub fn new(a: u16, b: u16, c: u16, d: u16, e: u16) -> Coord {
        Coord([a, b, c, d, e])
    }

    /// Component along `dim`.
    #[inline]
    pub fn get(&self, dim: Dim) -> u16 {
        self.0[dim.index()]
    }

    /// Set the component along `dim`.
    #[inline]
    pub fn set(&mut self, dim: Dim, v: u16) {
        self.0[dim.index()] = v;
    }

    /// Return a copy with the component along `dim` replaced by `v`.
    #[inline]
    pub fn with(&self, dim: Dim, v: u16) -> Coord {
        let mut c = *self;
        c.set(dim, v);
        c
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({},{},{},{},{})",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_indices_round_trip() {
        for (i, d) in Dim::ALL.into_iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Dim::from_index(i), d);
        }
    }

    #[test]
    fn direction_indices_round_trip() {
        let dirs: Vec<Direction> = Direction::all().collect();
        assert_eq!(dirs.len(), 10);
        for (i, d) in dirs.iter().enumerate() {
            assert_eq!(d.index(), i);
            assert_eq!(Direction::from_index(i), *d);
        }
    }

    #[test]
    fn direction_opposite_is_involution() {
        for d in Direction::all() {
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(d.opposite().dim, d.dim);
            assert_ne!(d.opposite().sign, d.sign);
        }
    }

    #[test]
    fn sign_delta() {
        assert_eq!(Sign::Plus.delta(), 1);
        assert_eq!(Sign::Minus.delta(), -1);
    }

    #[test]
    fn coord_accessors() {
        let mut c = Coord::new(1, 2, 3, 4, 5);
        assert_eq!(c.get(Dim::A), 1);
        assert_eq!(c.get(Dim::E), 5);
        c.set(Dim::C, 9);
        assert_eq!(c.get(Dim::C), 9);
        let c2 = c.with(Dim::A, 7);
        assert_eq!(c2.get(Dim::A), 7);
        assert_eq!(c.get(Dim::A), 1, "with() must not mutate the original");
    }

    #[test]
    fn display_formats() {
        assert_eq!(Coord::new(0, 1, 2, 3, 4).to_string(), "(0,1,2,3,4)");
        assert_eq!(Direction::new(Dim::B, Sign::Plus).to_string(), "+B");
        assert_eq!(Direction::new(Dim::E, Sign::Minus).to_string(), "-E");
    }
}
