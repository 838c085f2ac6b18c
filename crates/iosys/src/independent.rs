//! Independent (non-collective) I/O baseline: every node writes its own
//! data straight down the default path — torus to its default bridge
//! node, eleventh link to the ION — with no aggregation at all.
//!
//! This is the POSIX-style lower bound the I/O-forwarding literature
//! (paper refs [8]–[10]) starts from: it suffers both the bridge-load
//! imbalance *and* per-request overheads for every small writer, which is
//! exactly what collective buffering and the paper's aggregators exist to
//! fix.

use bgq_comm::{Program, TransferHandle};
use bgq_torus::NodeId;

/// Largest single write request (requests beyond this are split, as the
/// I/O forwarding layer does).
pub const DEFAULT_REQUEST_BYTES: u64 = 4 << 20;

/// Plan an independent write of per-node volumes.
pub fn plan_independent_write(
    prog: &mut Program<'_>,
    data: &[(NodeId, u64)],
    max_request: u64,
) -> TransferHandle {
    assert!(max_request > 0, "request size must be positive");
    let mut tokens = Vec::new();
    let mut total = 0u64;
    for &(node, bytes) in data {
        total += bytes;
        let mut remaining = bytes;
        while remaining > 0 {
            let chunk = remaining.min(max_request);
            remaining -= chunk;
            tokens.push(prog.write_default(node, chunk, Vec::new()));
        }
    }
    TransferHandle {
        tokens,
        bytes: total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collective::{plan_collective_write, CollectiveIoConfig};
    use bgq_comm::Machine;
    use bgq_netsim::SimConfig;
    use bgq_torus::standard_shape;

    fn machine() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    #[test]
    fn independent_write_completes_and_conserves() {
        let m = machine();
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 1 << 20)).collect();
        let h = plan_independent_write(&mut p, &data, DEFAULT_REQUEST_BYTES);
        assert_eq!(h.bytes, 128 << 20);
        let rep = p.run();
        assert!(h.completed_at(&rep) > 0.0);
    }

    #[test]
    fn requests_are_split() {
        let m = machine();
        let mut p = Program::new(&m);
        let h = plan_independent_write(&mut p, &[(NodeId(3), 10 << 20)], 4 << 20);
        assert_eq!(h.tokens.len(), 3); // 4 + 4 + 2 MB
    }

    #[test]
    fn independent_uses_both_bridges_for_dense_data() {
        // Unlike default collective I/O (all aggregators behind bridge 0),
        // independent writes from the whole pset hit both bridges — but
        // pay per-request overheads instead.
        let m = Machine::new(
            standard_shape(128).unwrap(),
            SimConfig::default().with_link_stats(),
        );
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 2 << 20)).collect();
        let _ = plan_independent_write(&mut p, &data, DEFAULT_REQUEST_BYTES);
        let rep = p.run();
        let rb = rep.resource_bytes.as_ref().unwrap();
        let ntorus = (m.shape().num_nodes() * 10) as usize;
        assert!(
            rb[ntorus] > 0.0 && rb[ntorus + 1] > 0.0,
            "both io links active"
        );
    }

    #[test]
    fn zero_byte_nodes_produce_nothing() {
        let m = machine();
        let mut p = Program::new(&m);
        let h = plan_independent_write(&mut p, &[(NodeId(0), 0), (NodeId(1), 5)], 4 << 20);
        assert_eq!(h.tokens.len(), 1);
        assert_eq!(h.bytes, 5);
    }

    #[test]
    fn sparse_independent_write_loses_to_collective_buffering() {
        // One heavy writer: independent I/O serializes its requests down
        // one default path, while collective buffering spreads the file
        // domains over many aggregators.
        let m = machine();
        let data = vec![(NodeId(37), 256u64 << 20)];

        let mut p1 = Program::new(&m);
        let hi = plan_independent_write(&mut p1, &data, DEFAULT_REQUEST_BYTES);
        let t_ind = hi.completed_at(&p1.run());

        let mut p2 = Program::new(&m);
        let hc = plan_collective_write(&mut p2, &data, &CollectiveIoConfig::default());
        let t_col = hc.completed_at(&p2.run());

        assert!(
            t_col < t_ind,
            "collective {t_col} should beat independent {t_ind} for one writer"
        );
    }
}
