//! Collective *read* (restart) paths: the write pipelines reversed.
//!
//! Checkpoints written by HACC-style codes are read back on restart with
//! the same sparse structure. The baseline mirrors ROMIO's two-phase
//! read: aggregators fetch their file domains from the ION (over the
//! eleventh link, then the torus) and scatter the pieces to the ranks
//! that own them. The topology-aware variant in
//! `sdm_core::io_move::plan_topology_aware_read` reverses Algorithm 2.

use crate::collective::{default_aggregators, CollectiveIoConfig};
use crate::file_domain::domain_transfers;
use bgq_comm::{CollectiveModel, Program, TransferHandle};
use bgq_torus::NodeId;

/// Plan a default MPI-IO collective read of per-node volumes `data`
/// (file order = node order): ION → bridge → aggregator → owner.
/// Returns the handle whose completion means every node holds its data.
pub fn plan_collective_read(
    prog: &mut Program<'_>,
    data: &[(NodeId, u64)],
    cfg: &CollectiveIoConfig,
) -> TransferHandle {
    let machine = prog.machine();
    let layout = machine.io_layout().clone();
    let aggregators = default_aggregators(&layout, cfg.aggregators_per_pset);
    let total: u64 = data.iter().map(|&(_, b)| b).sum();

    let cm = CollectiveModel::new(machine);
    let sync_cost = cm.gather_control(machine.num_nodes()) + cm.bcast(machine.num_nodes(), 8);
    let sync = prog.modeled_sync(NodeId(0), sync_cost, Vec::new());

    let fwd = machine.config().forward_overhead;
    let transfers = domain_transfers(data, aggregators.len());

    let mut tokens = Vec::with_capacity(transfers.len());
    for t in &transfers {
        let agg = aggregators[t.to_aggregator_index];
        let bridge = layout.default_bridge(agg);
        let mut remaining = t.bytes;
        while remaining > 0 {
            let chunk = remaining.min(cfg.cb_buffer);
            remaining -= chunk;
            // ION -> bridge over the eleventh link (reads flow inbound).
            let from_ion = prog.ion_read(bridge, chunk, vec![sync], 0.0);
            // Bridge -> aggregator over the torus.
            let at_agg = if bridge == agg {
                from_ion
            } else {
                prog.put_after(bridge, agg, chunk, vec![from_ion], fwd)
            };
            // Aggregator scatters to the owning node.
            let delivered = if t.from == agg {
                at_agg
            } else {
                prog.put_after(agg, t.from, chunk, vec![at_agg], fwd)
            };
            tokens.push(delivered);
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
    use bgq_comm::Machine;
    use bgq_netsim::SimConfig;
    use bgq_torus::standard_shape;

    fn machine() -> Machine {
        Machine::new(standard_shape(128).unwrap(), SimConfig::default())
    }

    #[test]
    fn read_completes_and_conserves() {
        let m = machine();
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 2 << 20)).collect();
        let h = plan_collective_read(&mut p, &data, &CollectiveIoConfig::default());
        assert_eq!(h.bytes, 128 * (2 << 20));
        let rep = p.run();
        assert!(h.completed_at(&rep) > 0.0);
    }

    #[test]
    fn read_is_bridge0_limited_like_the_write() {
        let m = machine();
        let mut p = Program::new(&m);
        let data: Vec<(NodeId, u64)> = (0..128).map(|i| (NodeId(i), 8 << 20)).collect();
        let h = plan_collective_read(&mut p, &data, &CollectiveIoConfig::default());
        let rep = p.run();
        let thr = h.throughput(&rep);
        assert!(
            thr <= 2.0e9 * 1.01,
            "default read should be one-bridge limited: {thr}"
        );
    }

    #[test]
    fn empty_read_is_trivial() {
        let m = machine();
        let mut p = Program::new(&m);
        let h = plan_collective_read(&mut p, &[], &CollectiveIoConfig::default());
        assert!(h.tokens.is_empty());
    }
}
