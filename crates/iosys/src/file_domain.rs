//! ROMIO-style file domains for two-phase collective I/O.
//!
//! In a collective write, each rank's data occupies a contiguous region of
//! the shared file (here: per-node volumes concatenated in node order).
//! The aggregate access range `[0, T)` is divided evenly among the
//! collective-buffering aggregators; each aggregator owns one contiguous
//! *file domain* and receives, during the exchange phase, every byte that
//! falls inside it.
//!
//! This even-by-offset division is exactly what makes the default scheme
//! fragile under sparse patterns: which aggregators receive data is
//! dictated by file offsets, not by topology or I/O-node load.

use bgq_torus::NodeId;

/// One exchange-phase transfer: `bytes` from `from`'s file region to the
/// aggregator owning the overlapping domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainTransfer {
    pub from: NodeId,
    pub to_aggregator_index: usize,
    pub bytes: u64,
}

/// Compute the exchange-phase transfers for per-node volumes (in file
/// order) against `num_aggregators` even file domains.
///
/// Zero-byte nodes produce no transfers. The final partial domain (when
/// `T` is not a multiple of the domain size) belongs to the last
/// aggregator, as in ROMIO.
pub fn domain_transfers(data: &[(NodeId, u64)], num_aggregators: usize) -> Vec<DomainTransfer> {
    assert!(num_aggregators > 0, "need at least one aggregator");
    let total: u64 = data.iter().map(|&(_, b)| b).sum();
    if total == 0 {
        return Vec::new();
    }
    // ROMIO: fd_size = ceil(T / num_agg); last domain takes the remainder.
    let fd_size = total.div_ceil(num_aggregators as u64);
    let mut out = Vec::new();
    let mut offset = 0u64;
    for &(node, bytes) in data {
        let mut start = offset;
        let end = offset + bytes;
        while start < end {
            let domain = ((start / fd_size) as usize).min(num_aggregators - 1);
            let domain_end = ((domain as u64 + 1) * fd_size).min(end);
            let chunk = domain_end - start;
            out.push(DomainTransfer {
                from: node,
                to_aggregator_index: domain,
                bytes: chunk,
            });
            start = domain_end;
        }
        offset = end;
    }
    out
}

/// Bytes landing in each file domain.
pub fn domain_loads(transfers: &[DomainTransfer], num_aggregators: usize) -> Vec<u64> {
    let mut loads = vec![0u64; num_aggregators];
    for t in transfers {
        loads[t.to_aggregator_index] += t.bytes;
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(sizes: &[u64]) -> Vec<(NodeId, u64)> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &b)| (NodeId(i as u32), b))
            .collect()
    }

    #[test]
    fn bytes_are_conserved() {
        let d = data(&[100, 0, 250, 50, 999]);
        let ts = domain_transfers(&d, 4);
        assert_eq!(ts.iter().map(|t| t.bytes).sum::<u64>(), 1399);
    }

    #[test]
    fn even_data_maps_one_to_one() {
        // 4 nodes x 100 bytes over 4 domains of 100: node i -> domain i.
        let d = data(&[100, 100, 100, 100]);
        let ts = domain_transfers(&d, 4);
        assert_eq!(ts.len(), 4);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(t.to_aggregator_index, i);
            assert_eq!(t.bytes, 100);
        }
    }

    #[test]
    fn straddling_regions_split() {
        // One node with 100 bytes over 4 domains of 25 each.
        let d = data(&[100]);
        let ts = domain_transfers(&d, 4);
        assert_eq!(ts.len(), 4);
        assert!(ts.iter().all(|t| t.bytes == 25));
        assert!(ts.iter().all(|t| t.from == NodeId(0)));
    }

    #[test]
    fn concentrated_data_touches_all_domains() {
        // The key property: domains are by OFFSET, so even data from one
        // node spreads over every aggregator...
        let d = data(&[1000, 0, 0, 0]);
        let loads = domain_loads(&domain_transfers(&d, 4), 4);
        assert!(loads.iter().all(|&l| l == 250));
    }

    #[test]
    fn zero_total_is_empty() {
        assert!(domain_transfers(&data(&[0, 0]), 8).is_empty());
    }

    #[test]
    fn remainder_goes_to_last_domain() {
        // T = 10 over 3 domains: fd = 4,4,2.
        let d = data(&[10]);
        let loads = domain_loads(&domain_transfers(&d, 3), 3);
        assert_eq!(loads, vec![4, 4, 2]);
    }

    #[test]
    fn domain_count_larger_than_bytes() {
        let d = data(&[3]);
        let ts = domain_transfers(&d, 8);
        assert_eq!(ts.iter().map(|t| t.bytes).sum::<u64>(), 3);
        assert!(ts.iter().all(|t| t.bytes > 0));
    }
}
