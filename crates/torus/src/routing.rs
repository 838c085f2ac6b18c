//! Dimension-ordered zone routing, as implemented by the BG/Q network DMA.
//!
//! BG/Q routes every packet of a message along a single dimension-ordered
//! path. Four "routing zones" control how the dimension order is chosen
//! (paper §III, citing Chen et al. SC'12 and the BG/Q redbook):
//!
//! * **Zone 0** — longest-to-shortest order; dimensions with equal remaining
//!   hop counts are ordered randomly.
//! * **Zone 1** — unrestricted: dimensions are traversed in random order.
//! * **Zone 2 / Zone 3** — fully deterministic longest-to-shortest order:
//!   for a given source, destination and message size the path is always the
//!   same and is *known before the message is routed*. This is the property
//!   Algorithm 1 of the paper exploits to place proxies on link-disjoint
//!   paths. We break ties between equal-length dimensions by canonical
//!   `A<B<C<D<E` order for zone 2 and by reverse order for zone 3 (the real
//!   hardware tie-break is an undisclosed experiment-based table; any fixed
//!   deterministic rule preserves the behaviour the algorithms rely on).
//!
//! Within one dimension the shorter way around the ring is always taken,
//! with half-way ties broken toward the positive direction
//! (see [`Shape::signed_delta`]).

use crate::coords::{Coord, Dim, Direction, Sign};
use crate::links::LinkId;
use crate::shape::{NodeId, Shape};
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// BG/Q routing zone id (settable via the `PAMI_ROUTING` environment
/// variable on the real machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Zone {
    /// Longest-to-shortest, random tie-break.
    Z0,
    /// Random dimension order.
    Z1,
    /// Deterministic longest-to-shortest (canonical tie-break). The default
    /// used throughout this crate, since the paper's algorithms require
    /// routes known a priori.
    #[default]
    Z2,
    /// Deterministic longest-to-shortest (reverse tie-break).
    Z3,
}

impl Zone {
    /// Whether routes in this zone are fully deterministic.
    pub fn is_deterministic(self) -> bool {
        matches!(self, Zone::Z2 | Zone::Z3)
    }
}

/// A concrete single path through the torus: the ordered list of directed
/// links a message traverses from `src` to `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    pub src: NodeId,
    pub dst: NodeId,
    pub links: Vec<LinkId>,
}

impl Route {
    /// Number of hops (links) on the route.
    #[inline]
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// Whether this route and `other` traverse any common directed link.
    pub fn shares_link_with(&self, other: &Route) -> bool {
        // Routes are short (max ~30 hops); quadratic scan beats hashing.
        self.links.iter().any(|l| other.links.contains(l))
    }

    /// Whether this route passes through `node` as an intermediate hop
    /// (excluding the endpoints).
    pub fn passes_through(&self, node: NodeId) -> bool {
        if node == self.src || node == self.dst {
            return false;
        }
        // Intermediate nodes are the owners of every link after the first.
        self.links.iter().skip(1).any(|l| l.node() == node)
    }

    /// Every node visited, in order, from `src` to `dst` inclusive.
    pub fn nodes(&self, shape: &Shape) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.links.len() + 1);
        out.push(self.src);
        for l in &self.links {
            out.push(crate::links::link_target(shape, *l));
        }
        out
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} ({} hops)", self.src, self.dst, self.hops())
    }
}

/// The dimension traversal order for a message from `src` to `dst` under
/// `zone`. Only dimensions with nonzero hop counts are returned.
///
/// For the randomized zones (0 and 1) the caller must supply an `rng`.
pub fn dim_order<R: Rng + ?Sized>(
    shape: &Shape,
    src: Coord,
    dst: Coord,
    zone: Zone,
    mut rng: Option<&mut R>,
) -> Vec<Dim> {
    let hops = shape.hops_per_dim(src, dst);
    let mut dims: Vec<Dim> = Dim::ALL
        .into_iter()
        .filter(|d| hops[d.index()] > 0)
        .collect();
    match zone {
        Zone::Z1 => {
            let rng = rng.as_deref_mut().expect("zone 1 routing requires an RNG");
            dims.shuffle(rng);
        }
        Zone::Z0 => {
            let rng = rng.expect("zone 0 routing requires an RNG");
            // Longest-to-shortest with random tie-break: shuffle first so
            // the stable sort leaves equal keys in random relative order.
            dims.shuffle(rng);
            dims.sort_by_key(|d| std::cmp::Reverse(hops[d.index()]));
        }
        Zone::Z2 => {
            // Stable sort: canonical A..E order among equals.
            dims.sort_by_key(|d| std::cmp::Reverse(hops[d.index()]));
        }
        Zone::Z3 => {
            dims.sort_by(|x, y| {
                hops[y.index()]
                    .cmp(&hops[x.index()])
                    .then(y.index().cmp(&x.index()))
            });
        }
    }
    dims
}

/// Compute the deterministic route from `src` to `dst` under a
/// deterministic zone (2 or 3).
///
/// ```
/// use bgq_torus::{route, standard_shape, NodeId, Zone};
/// let shape = standard_shape(128).unwrap();
/// let r = route(&shape, NodeId(0), NodeId(127), Zone::Z2);
/// // Dimension-order routes are minimal: hop count == torus distance.
/// assert_eq!(r.hops() as u32,
///            shape.distance(shape.coord(NodeId(0)), shape.coord(NodeId(127))));
/// ```
///
/// # Panics
/// Panics if `zone` is randomized (use [`route_with_rng`] for zones 0/1).
pub fn route(shape: &Shape, src: NodeId, dst: NodeId, zone: Zone) -> Route {
    assert!(
        zone.is_deterministic(),
        "route() requires a deterministic zone; use route_with_rng for {zone:?}"
    );
    route_inner::<rand::rngs::ThreadRng>(shape, src, dst, zone, None)
}

/// Compute a route under any zone, drawing randomized ordering decisions
/// from `rng`.
pub fn route_with_rng<R: Rng + ?Sized>(
    shape: &Shape,
    src: NodeId,
    dst: NodeId,
    zone: Zone,
    rng: &mut R,
) -> Route {
    route_inner(shape, src, dst, zone, Some(rng))
}

fn route_inner<R: Rng + ?Sized>(
    shape: &Shape,
    src: NodeId,
    dst: NodeId,
    zone: Zone,
    rng: Option<&mut R>,
) -> Route {
    let src_c = shape.coord(src);
    let dst_c = shape.coord(dst);
    let order = dim_order(shape, src_c, dst_c, zone, rng);
    let mut links = Vec::with_capacity(shape.distance(src_c, dst_c) as usize);
    let mut cur = src_c;
    for dim in order {
        let delta = shape.signed_delta(cur, dst_c, dim);
        let sign = if delta >= 0 { Sign::Plus } else { Sign::Minus };
        let dir = Direction::new(dim, sign);
        for _ in 0..delta.unsigned_abs() {
            links.push(LinkId::new(shape.node_id(cur), dir));
            cur = shape.neighbor(cur, dir);
        }
    }
    debug_assert_eq!(cur, dst_c, "route must terminate at the destination");
    Route { src, dst, links }
}

/// The default zone the messaging stack would pick for a message, as a
/// function of partition "flexibility" and message size.
///
/// On the real machine this selection is experiment-based and hard-coded in
/// the low-level libraries (paper §III). We model the documented intent:
/// small messages use fully deterministic routing (zone 3); larger messages
/// on partitions with enough routing flexibility use the progressively less
/// restricted zones. The exact thresholds are a modelling choice; the
/// paper's algorithms always pin zone 2 explicitly, so this function only
/// affects "default routing" baselines.
pub fn select_zone(shape: &Shape, src: NodeId, dst: NodeId, msg_bytes: u64) -> Zone {
    let d = shape.distance(shape.coord(src), shape.coord(dst));
    let longest = Dim::ALL
        .into_iter()
        .map(|dim| shape.extent(dim) as u32)
        .max()
        .unwrap_or(1);
    // Flexibility grows with hop distance relative to the torus size.
    let flexibility = d as f64 / longest as f64;
    if msg_bytes < 64 * 1024 {
        Zone::Z3
    } else if flexibility < 1.0 {
        Zone::Z2
    } else if msg_bytes < 2 * 1024 * 1024 {
        Zone::Z0
    } else {
        Zone::Z1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::link_target;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn shape128() -> Shape {
        Shape::new(2, 2, 4, 4, 2)
    }

    fn assert_route_valid(shape: &Shape, r: &Route) {
        // Links must chain: each link starts where the previous ended.
        let mut cur = r.src;
        for l in &r.links {
            assert_eq!(l.node(), cur, "link must leave the current node");
            cur = link_target(shape, *l);
        }
        assert_eq!(cur, r.dst, "route must end at dst");
        assert_eq!(
            r.links.len() as u32,
            shape.distance(shape.coord(r.src), shape.coord(r.dst)),
            "dimension-order routes are minimal"
        );
    }

    #[test]
    fn deterministic_route_is_valid_and_minimal() {
        let s = shape128();
        let src = NodeId(0);
        let dst = NodeId(s.num_nodes() - 1);
        let r = route(&s, src, dst, Zone::Z2);
        assert_route_valid(&s, &r);
    }

    #[test]
    fn route_to_self_is_empty() {
        let s = shape128();
        let r = route(&s, NodeId(5), NodeId(5), Zone::Z2);
        assert!(r.links.is_empty());
    }

    #[test]
    fn z2_routes_longest_dimension_first() {
        let s = Shape::new(4, 4, 4, 16, 2);
        let src = s.node_id(Coord::new(0, 0, 0, 0, 0));
        let dst = s.node_id(Coord::new(1, 0, 0, 5, 0));
        let r = route(&s, src, dst, Zone::Z2);
        // D has 5 hops (longest), A has 1: D must come first.
        assert_eq!(r.links[0].direction().dim, Dim::D);
        assert_eq!(r.links.last().unwrap().direction().dim, Dim::A);
    }

    #[test]
    fn z2_and_z3_tie_breaks_differ() {
        let s = Shape::new(4, 4, 4, 4, 2);
        let src = s.node_id(Coord::new(0, 0, 0, 0, 0));
        // One hop in A and one hop in B: a tie.
        let dst = s.node_id(Coord::new(1, 1, 0, 0, 0));
        let r2 = route(&s, src, dst, Zone::Z2);
        let r3 = route(&s, src, dst, Zone::Z3);
        assert_eq!(
            r2.links[0].direction().dim,
            Dim::A,
            "Z2 ties: canonical order"
        );
        assert_eq!(
            r3.links[0].direction().dim,
            Dim::B,
            "Z3 ties: reverse order"
        );
    }

    #[test]
    fn deterministic_routes_are_repeatable() {
        let s = Shape::new(4, 4, 4, 16, 2);
        let src = NodeId(3);
        let dst = NodeId(1000);
        assert_eq!(route(&s, src, dst, Zone::Z2), route(&s, src, dst, Zone::Z2));
        assert_eq!(route(&s, src, dst, Zone::Z3), route(&s, src, dst, Zone::Z3));
    }

    #[test]
    fn randomized_routes_are_valid() {
        let s = Shape::new(4, 4, 4, 4, 2);
        let mut rng = StdRng::seed_from_u64(42);
        for zone in [Zone::Z0, Zone::Z1] {
            for _ in 0..32 {
                let src = NodeId(rng.gen_range(0..s.num_nodes()));
                let dst = NodeId(rng.gen_range(0..s.num_nodes()));
                let r = route_with_rng(&s, src, dst, zone, &mut rng);
                assert_route_valid(&s, &r);
            }
        }
    }

    #[test]
    fn z0_orders_longest_to_shortest() {
        let s = Shape::new(4, 4, 4, 16, 2);
        let mut rng = StdRng::seed_from_u64(7);
        let src = s.node_id(Coord::new(0, 0, 0, 0, 0));
        let dst = s.node_id(Coord::new(1, 2, 0, 7, 0));
        for _ in 0..16 {
            let order = dim_order(&s, s.coord(src), s.coord(dst), Zone::Z0, Some(&mut rng));
            let hops = s.hops_per_dim(s.coord(src), s.coord(dst));
            for w in order.windows(2) {
                assert!(
                    hops[w[0].index()] >= hops[w[1].index()],
                    "Z0 must be longest-to-shortest"
                );
            }
        }
    }

    #[test]
    fn shares_link_detects_overlap() {
        let s = shape128();
        let a = route(&s, NodeId(0), NodeId(127), Zone::Z2);
        let b = route(&s, NodeId(0), NodeId(127), Zone::Z2);
        assert!(a.shares_link_with(&b));
        // A route never shares links with itself reversed (directed links).
        let rev = route(&s, NodeId(127), NodeId(0), Zone::Z2);
        assert!(!a.shares_link_with(&rev));
    }

    #[test]
    fn route_nodes_lists_every_hop() {
        let s = shape128();
        let r = route(&s, NodeId(0), NodeId(127), Zone::Z2);
        let nodes = r.nodes(&s);
        assert_eq!(nodes.len(), r.hops() + 1);
        assert_eq!(nodes[0], NodeId(0));
        assert_eq!(*nodes.last().unwrap(), NodeId(127));
    }

    #[test]
    fn select_zone_small_messages_deterministic() {
        let s = shape128();
        assert_eq!(select_zone(&s, NodeId(0), NodeId(127), 1024), Zone::Z3);
    }
}
