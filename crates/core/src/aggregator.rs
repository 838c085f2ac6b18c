//! Algorithm 2: dynamic, topology-aware aggregator selection.
//!
//! For I/O, the paper introduces *aggregators*: intermediate compute nodes
//! that collect data from the (sparsely loaded) ranks and feed the I/O
//! nodes. Part I (Init) precomputes, for every candidate aggregator count
//! in `P = {1, 2, 4, …, 128}` per I/O node, a uniform placement: each pset
//! (a rectangular sub-volume of the torus) is divided along the five
//! dimensions into `na·nb·nc·nd·ne = num_agg` equal blocks and the first
//! node of each block becomes an aggregator. Part II (Redistribute)
//! reduces the total request size `T`, picks
//! `num_agg = T / S / n_io` (clamped to `P`), and sends every node's data
//! to aggregators so that all I/O nodes receive approximately equal load —
//! even IONs whose own compute nodes hold no data.

use crate::error::SdmError;
use bgq_comm::HealthMask;
use bgq_torus::{Coord, IoLayout, NodeId, PsetId, NDIMS};

/// The candidate aggregator counts per I/O node (the paper's list `P`).
pub const AGG_COUNTS: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// Default minimum volume `S` handled by one aggregator (the paper leaves
/// the constant to the implementation). 64 MB keeps counts inside `P`'s
/// range across the weak-scaling study while provisioning enough
/// aggregators per ION to drive both of a pset's I/O links (one
/// aggregator per ION measurably under-uses them).
pub const DEFAULT_MIN_AGG_BYTES: u64 = 64 << 20;

/// The rectangular bounding box of a pset in torus coordinates.
///
/// For every standard partition shape, a pset (128 consecutive node ids in
/// row-major `ABCDE` order) is exactly a rectangular sub-volume; this is
/// asserted.
pub fn pset_box(layout: &IoLayout, pset: PsetId) -> (Coord, [u16; NDIMS]) {
    let shape = layout.shape();
    let mut lo = [u16::MAX; NDIMS];
    let mut hi = [0u16; NDIMS];
    for n in layout.pset_nodes(pset) {
        let c = shape.coord(n);
        for i in 0..NDIMS {
            lo[i] = lo[i].min(c.0[i]);
            hi[i] = hi[i].max(c.0[i]);
        }
    }
    let extents: [u16; NDIMS] = std::array::from_fn(|i| hi[i] - lo[i] + 1);
    let volume: u32 = extents.iter().map(|&e| e as u32).product();
    assert_eq!(
        volume,
        bgq_torus::PSET_NODES,
        "pset {pset} is not a rectangular sub-volume of {shape}",
        shape = layout.shape()
    );
    (Coord(lo), extents)
}

/// Split `num_agg` (a power of two ≤ 128) into per-dimension block factors
/// dividing `extents`, by repeatedly doubling the factor of the dimension
/// with the largest remaining quotient (ties toward `A`). This spreads the
/// aggregators as uniformly as possible over the pset volume.
pub fn block_factors(extents: [u16; NDIMS], num_agg: u32) -> [u16; NDIMS] {
    assert!(
        num_agg.is_power_of_two() && num_agg <= 128,
        "aggregator count {num_agg} not in P"
    );
    let mut factors = [1u16; NDIMS];
    let mut remaining = num_agg;
    while remaining > 1 {
        // Largest remaining quotient that is still divisible by 2.
        let mut best: Option<usize> = None;
        for i in 0..NDIMS {
            let quot = extents[i] / factors[i];
            if quot.is_multiple_of(2) && quot >= 2 {
                match best {
                    Some(b) if extents[b] / factors[b] >= quot => {}
                    _ => best = Some(i),
                }
            }
        }
        let i = best.expect("pset volume is 128 = 2^7, factors up to 128 always fit");
        factors[i] *= 2;
        remaining /= 2;
    }
    factors
}

/// Precomputed aggregator placements (Algorithm 2, part I).
///
/// ```
/// use bgq_torus::{standard_shape, IoLayout};
/// use sdm_core::AggregatorTable;
///
/// let layout = IoLayout::new(standard_shape(512).unwrap());
/// let table = AggregatorTable::precompute(&layout);
/// // A 32 GB request with the default S picks many aggregators per ION:
/// let (count, aggs) = table.select(32 << 30, sdm_core::DEFAULT_MIN_AGG_BYTES);
/// assert_eq!(aggs.len() as u32, count * layout.num_ions());
/// ```
#[derive(Debug, Clone)]
pub struct AggregatorTable {
    num_psets: u32,
    /// `placements[k][p * AGG_COUNTS[k] + j]` = j-th aggregator of pset `p`
    /// for count `AGG_COUNTS[k]`.
    placements: Vec<Vec<NodeId>>,
}

impl AggregatorTable {
    /// Precompute placements for every count in `P` (run once per job,
    /// like the paper's Init phase).
    pub fn precompute(layout: &IoLayout) -> AggregatorTable {
        let shape = *layout.shape();
        let num_psets = layout.num_psets();
        let mut placements = Vec::with_capacity(AGG_COUNTS.len());
        for &count in &AGG_COUNTS {
            let mut nodes = Vec::with_capacity((num_psets * count) as usize);
            for p in 0..num_psets {
                let (origin, extents) = pset_box(layout, PsetId(p));
                let factors = block_factors(extents, count);
                let block: [u16; NDIMS] = std::array::from_fn(|i| extents[i] / factors[i]);
                // Enumerate blocks in row-major factor order; the block's
                // first (lowest-coordinate) node is the aggregator.
                let mut idx = [0u16; NDIMS];
                loop {
                    let c = Coord(std::array::from_fn(|i| origin.0[i] + idx[i] * block[i]));
                    nodes.push(shape.node_id(c));
                    // Increment mixed-radix index.
                    let mut dim = NDIMS;
                    loop {
                        if dim == 0 {
                            break;
                        }
                        dim -= 1;
                        idx[dim] += 1;
                        if idx[dim] < factors[dim] {
                            break;
                        }
                        idx[dim] = 0;
                        if dim == 0 {
                            break;
                        }
                    }
                    if idx == [0u16; NDIMS] {
                        break;
                    }
                }
            }
            assert_eq!(nodes.len() as u32, num_psets * count);
            placements.push(nodes);
        }
        AggregatorTable {
            num_psets,
            placements,
        }
    }

    pub fn num_psets(&self) -> u32 {
        self.num_psets
    }

    /// The aggregators (across all psets) for a given per-ION count.
    ///
    /// # Panics
    /// Panics if `per_ion` is not in `P`; use
    /// [`AggregatorTable::try_aggregators`] to handle that as an
    /// [`SdmError`] instead.
    pub fn aggregators(&self, per_ion: u32) -> &[NodeId] {
        self.try_aggregators(per_ion)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`AggregatorTable::aggregators`].
    pub fn try_aggregators(&self, per_ion: u32) -> Result<&[NodeId], SdmError> {
        let k = AGG_COUNTS
            .iter()
            .position(|&c| c == per_ion)
            .ok_or(SdmError::CountNotInP(per_ion))?;
        Ok(&self.placements[k])
    }

    /// Algorithm 2, part II: the per-ION aggregator count for a request of
    /// `total_bytes`, with `min_agg_bytes` per aggregator (the constant
    /// `S`). `T / S / n_io`, clamped into `P`.
    ///
    /// # Panics
    /// Panics if `min_agg_bytes` is zero; use
    /// [`AggregatorTable::try_select_count`] to handle that as an
    /// [`SdmError`] instead.
    pub fn select_count(&self, total_bytes: u64, min_agg_bytes: u64) -> u32 {
        self.try_select_count(total_bytes, min_agg_bytes)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`AggregatorTable::select_count`].
    pub fn try_select_count(&self, total_bytes: u64, min_agg_bytes: u64) -> Result<u32, SdmError> {
        if min_agg_bytes == 0 {
            return Err(SdmError::NonPositiveMinAggBytes);
        }
        let want = total_bytes / min_agg_bytes / self.num_psets as u64;
        let mut chosen = AGG_COUNTS[0];
        for &c in &AGG_COUNTS {
            if (c as u64) <= want.max(1) {
                chosen = c;
            }
        }
        Ok(chosen)
    }

    /// Convenience: select count and return the aggregator set.
    pub fn select(&self, total_bytes: u64, min_agg_bytes: u64) -> (u32, &[NodeId]) {
        let c = self.select_count(total_bytes, min_agg_bytes);
        (c, self.aggregators(c))
    }

    /// The aggregators for `per_ion`, with nodes that are down in `health`
    /// filtered out. The survivors keep their placement order, so with a
    /// healthy mask this equals [`AggregatorTable::aggregators`].
    ///
    /// The filtered set loses the exactly-`per_ion`-per-pset property, so
    /// it pairs with [`AssignPolicy::BalancedGreedy`] (which only needs a
    /// flat set), not `PsetLocal`. Errors with
    /// [`SdmError::NoHealthyAggregators`] when nothing survives.
    pub fn try_healthy_aggregators(
        &self,
        per_ion: u32,
        health: &HealthMask,
    ) -> Result<Vec<NodeId>, SdmError> {
        let all = self.try_aggregators(per_ion)?;
        let alive: Vec<NodeId> = all
            .iter()
            .copied()
            .filter(|n| !health.down_nodes.contains(n))
            .collect();
        if alive.is_empty() {
            return Err(SdmError::NoHealthyAggregators);
        }
        Ok(alive)
    }
}

/// One chunk of data to move from a compute node to an aggregator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    pub from: NodeId,
    pub to: NodeId,
    pub bytes: u64,
}

/// Data-to-aggregator assignment policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssignPolicy {
    /// Split each node's data into chunks and assign each chunk to the
    /// currently least-loaded aggregator (deterministic ties). This is the
    /// paper's load-balancing goal: every ION receives ≈ equal bytes.
    #[default]
    BalancedGreedy,
    /// Send each node's data to the aggregators of its own pset only
    /// (locality-first; an ablation of the balancing idea).
    PsetLocal,
}

/// Assign per-node data volumes to aggregators (Algorithm 2, part II's
/// "each node having data sends its data to its chosen aggregator(s)").
///
/// `max_chunk` bounds a single message (larger volumes are split so they
/// can spread over several aggregators).
///
/// # Panics
/// Panics on an empty aggregator set or a zero chunk size; use
/// [`try_assign_data`] to handle those as an [`SdmError`] instead.
pub fn assign_data(
    data: &[(NodeId, u64)],
    aggregators: &[NodeId],
    layout: &IoLayout,
    max_chunk: u64,
    policy: AssignPolicy,
) -> Vec<Assignment> {
    try_assign_data(data, aggregators, layout, max_chunk, policy).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`assign_data`].
pub fn try_assign_data(
    data: &[(NodeId, u64)],
    aggregators: &[NodeId],
    layout: &IoLayout,
    max_chunk: u64,
    policy: AssignPolicy,
) -> Result<Vec<Assignment>, SdmError> {
    if aggregators.is_empty() {
        return Err(SdmError::NoAggregators);
    }
    if max_chunk == 0 {
        return Err(SdmError::NonPositiveChunk);
    }
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut out = Vec::new();
    match policy {
        AssignPolicy::BalancedGreedy => {
            // Min-heap of (load, index) over all aggregators.
            let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..aggregators.len() as u32)
                .map(|i| Reverse((0u64, i)))
                .collect();
            for &(node, mut bytes) in data {
                while bytes > 0 {
                    let chunk = bytes.min(max_chunk);
                    let Reverse((load, i)) = heap.pop().expect("heap never empties");
                    out.push(Assignment {
                        from: node,
                        to: aggregators[i as usize],
                        bytes: chunk,
                    });
                    heap.push(Reverse((load + chunk, i)));
                    bytes -= chunk;
                }
            }
        }
        AssignPolicy::PsetLocal => {
            // Per-pset heaps over that pset's aggregators.
            let per_pset = aggregators.len() as u32 / layout.num_psets();
            for &(node, mut bytes) in data {
                let p = layout.pset_of(node).0;
                let base = (p * per_pset) as usize;
                let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
                    (0..per_pset).map(|i| Reverse((0u64, i))).collect();
                while bytes > 0 {
                    let chunk = bytes.min(max_chunk);
                    let Reverse((load, i)) = heap.pop().unwrap();
                    out.push(Assignment {
                        from: node,
                        to: aggregators[base + i as usize],
                        bytes: chunk,
                    });
                    heap.push(Reverse((load + chunk, i)));
                    bytes -= chunk;
                }
            }
        }
    }
    Ok(out)
}

/// Total bytes each aggregator receives under a set of assignments.
///
/// # Panics
/// Panics if an assignment targets a node outside `aggregators`; use
/// [`try_aggregator_loads`] to handle that as an [`SdmError`] instead.
pub fn aggregator_loads(assignments: &[Assignment], aggregators: &[NodeId]) -> Vec<u64> {
    try_aggregator_loads(assignments, aggregators).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`aggregator_loads`].
pub fn try_aggregator_loads(
    assignments: &[Assignment],
    aggregators: &[NodeId],
) -> Result<Vec<u64>, SdmError> {
    let mut loads = vec![0u64; aggregators.len()];
    for a in assignments {
        let i = aggregators
            .iter()
            .position(|&g| g == a.to)
            .ok_or(SdmError::UnknownAggregator(a.to))?;
        loads[i] += a.bytes;
    }
    Ok(loads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgq_torus::standard_shape;

    fn layout(nodes: u32) -> IoLayout {
        IoLayout::new(standard_shape(nodes).unwrap())
    }

    #[test]
    fn pset_boxes_are_rectangular_for_all_standard_shapes() {
        for nodes in bgq_torus::STANDARD_SIZES {
            let l = layout(nodes);
            for p in 0..l.num_psets() {
                let (_, extents) = pset_box(&l, PsetId(p)); // asserts internally
                assert_eq!(extents.iter().map(|&e| e as u32).product::<u32>(), 128);
            }
        }
    }

    #[test]
    fn block_factors_multiply_to_count_and_divide_extents() {
        let extents = [1u16, 1, 4, 16, 2];
        for &c in &AGG_COUNTS {
            let f = block_factors(extents, c);
            assert_eq!(f.iter().map(|&x| x as u32).product::<u32>(), c);
            for i in 0..NDIMS {
                assert_eq!(extents[i] % f[i], 0, "factor must divide extent");
            }
        }
    }

    #[test]
    fn table_has_unique_uniform_aggregators() {
        let l = layout(512);
        let t = AggregatorTable::precompute(&l);
        for &c in &AGG_COUNTS {
            let aggs = t.aggregators(c);
            assert_eq!(aggs.len() as u32, l.num_psets() * c);
            let mut uniq: Vec<NodeId> = aggs.to_vec();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), aggs.len(), "duplicate aggregator at count {c}");
            // Each pset contributes exactly `c` aggregators from itself.
            for p in 0..l.num_psets() {
                let in_pset = aggs.iter().filter(|&&a| l.pset_of(a) == PsetId(p)).count() as u32;
                assert_eq!(in_pset, c, "pset {p} count {c}");
            }
        }
    }

    #[test]
    fn count_128_selects_every_node() {
        let l = layout(128);
        let t = AggregatorTable::precompute(&l);
        let mut aggs: Vec<NodeId> = t.aggregators(128).to_vec();
        aggs.sort();
        let all: Vec<NodeId> = l.shape().nodes().collect();
        assert_eq!(aggs, all);
    }

    #[test]
    fn select_count_follows_t_over_s_over_nio() {
        let l = layout(1024); // 8 psets
        let t = AggregatorTable::precompute(&l);
        let s = 256u64 << 20;
        // tiny request -> 1 aggregator per ION
        assert_eq!(t.select_count(1 << 20, s), 1);
        // T = 8 GiB over 8 IONs = 4 aggregators each
        assert_eq!(t.select_count(8 << 30, s), 4);
        // absurdly large -> clamped at 128
        assert_eq!(t.select_count(u64::MAX / 2, s), 128);
    }

    #[test]
    fn balanced_greedy_equalizes_loads() {
        let l = layout(512);
        let t = AggregatorTable::precompute(&l);
        let aggs = t.aggregators(4);
        // Very skewed data: one node holds almost everything.
        let data = vec![
            (NodeId(7), 512u64 << 20),
            (NodeId(8), 8 << 20),
            (NodeId(9), 1 << 20),
        ];
        let asg = assign_data(&data, aggs, &l, 8 << 20, AssignPolicy::BalancedGreedy);
        let total: u64 = asg.iter().map(|a| a.bytes).sum();
        assert_eq!(total, (512u64 << 20) + (8 << 20) + (1 << 20));
        let loads = aggregator_loads(&asg, aggs);
        let max = *loads.iter().max().unwrap();
        let min = *loads.iter().min().unwrap();
        assert!(
            max - min <= 8 << 20,
            "greedy balance spread too wide: {min}..{max}"
        );
    }

    #[test]
    fn pset_local_keeps_data_in_pset() {
        let l = layout(512);
        let t = AggregatorTable::precompute(&l);
        let aggs = t.aggregators(2);
        let data = vec![(NodeId(5), 64u64 << 20), (NodeId(300), 64 << 20)];
        let asg = assign_data(&data, aggs, &l, 8 << 20, AssignPolicy::PsetLocal);
        for a in &asg {
            assert_eq!(l.pset_of(a.from), l.pset_of(a.to));
        }
    }

    #[test]
    fn assignments_chunked_to_max() {
        let l = layout(128);
        let t = AggregatorTable::precompute(&l);
        let aggs = t.aggregators(4);
        let asg = assign_data(
            &[(NodeId(3), 33 << 20)],
            aggs,
            &l,
            8 << 20,
            AssignPolicy::BalancedGreedy,
        );
        assert!(asg.iter().all(|a| a.bytes <= 8 << 20));
        assert_eq!(asg.iter().map(|a| a.bytes).sum::<u64>(), 33 << 20);
        assert!(asg.len() >= 5);
    }

    #[test]
    fn healthy_mask_keeps_every_aggregator() {
        let l = layout(512);
        let t = AggregatorTable::precompute(&l);
        let alive = t
            .try_healthy_aggregators(4, &HealthMask::healthy())
            .unwrap();
        assert_eq!(alive, t.aggregators(4).to_vec());
    }

    #[test]
    fn down_aggregators_are_filtered_out() {
        let l = layout(512);
        let t = AggregatorTable::precompute(&l);
        let all = t.aggregators(4);
        let mut health = HealthMask::healthy();
        health.down_nodes.insert(all[0]);
        health.down_nodes.insert(all[3]);
        let alive = t.try_healthy_aggregators(4, &health).unwrap();
        assert_eq!(alive.len(), all.len() - 2);
        assert!(alive.iter().all(|n| !health.down_nodes.contains(n)));
        // Survivors still balance a skewed request.
        let asg = assign_data(
            &[(NodeId(7), 64u64 << 20)],
            &alive,
            &l,
            8 << 20,
            AssignPolicy::BalancedGreedy,
        );
        assert_eq!(asg.iter().map(|a| a.bytes).sum::<u64>(), 64 << 20);
        assert!(asg.iter().all(|a| !health.down_nodes.contains(&a.to)));
    }

    #[test]
    fn all_aggregators_down_is_an_error() {
        let l = layout(128);
        let t = AggregatorTable::precompute(&l);
        let mut health = HealthMask::healthy();
        health.down_nodes.extend(t.aggregators(1).iter().copied());
        assert_eq!(
            t.try_healthy_aggregators(1, &health).unwrap_err(),
            SdmError::NoHealthyAggregators
        );
    }

    #[test]
    fn ion_loads_balance_even_when_data_is_concentrated() {
        // The paper's key claim: an ION whose compute nodes have no data
        // still receives ~equal load.
        let l = layout(1024); // 8 IONs
        let t = AggregatorTable::precompute(&l);
        let (_, aggs) = t.select(32 << 30, DEFAULT_MIN_AGG_BYTES);
        // All data on pset 0's nodes.
        let data: Vec<(NodeId, u64)> = (0..64).map(|i| (NodeId(i), 512 << 20)).collect();
        let asg = assign_data(&data, aggs, &l, 8 << 20, AssignPolicy::BalancedGreedy);
        let mut per_ion = vec![0u64; l.num_psets() as usize];
        for a in &asg {
            per_ion[l.pset_of(a.to).0 as usize] += a.bytes;
        }
        let max = *per_ion.iter().max().unwrap() as f64;
        let min = *per_ion.iter().min().unwrap() as f64;
        assert!(min / max > 0.9, "ION load imbalance: {per_ion:?}");
    }
}
